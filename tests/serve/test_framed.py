"""Wire-format v2 framed mode: codec units and live gateway behaviour.

The framing contract under test: frames and plain lines interleave on
one connection with responses in request order, a framed response leads
with the exact legacy keys, malformed frames answer an error without
desyncing the stream, and the old line protocol is byte-for-byte
untouched.
"""

import asyncio

import pytest

from repro.http import HttpRequest
from repro.ids import DeterministicRuleSet, Rule
from repro.serve import DetectionGateway, GatewayConfig, SignatureStore
from repro.serve.protocol import (
    FRAME_MAGIC,
    ProtocolError,
    decode_framed_request,
    encode_framed_request,
    frame_header_size,
)
from repro.surfaces import (
    DEFAULT_SURFACES,
    LEGACY_SURFACES,
    InjectionSurface,
    parse_surfaces,
)

from tests.serve.client import ask, http, send_lines


def toy_detector():
    return DeterministicRuleSet("toy", [
        Rule(1, "union", r"union\s+select"),
        Rule(2, "quote-or", r"'\s*or\s"),
    ])


class TestFrameCodec:
    def test_header_size_roundtrip(self):
        frame = encode_framed_request(HttpRequest(query="a=1"))
        header, _, rest = frame.partition(b"\n")
        assert frame_header_size(header) == len(rest) - 1  # trailing \n

    def test_non_frame_lines_are_not_headers(self):
        assert frame_header_size(b"id=1' or 1=1") is None
        assert frame_header_size(b"") is None
        # Future framing versions fall through to the line protocol.
        assert frame_header_size(b"REPRO-FRAME/3 10") is None

    def test_malformed_size_raises(self):
        with pytest.raises(ProtocolError):
            frame_header_size(FRAME_MAGIC + b" banana")
        with pytest.raises(ProtocolError):
            frame_header_size(FRAME_MAGIC + b" -5")

    def test_request_roundtrip_with_stored_and_surfaces(self):
        request = HttpRequest(
            method="POST",
            path="/x",
            query="a=1",
            headers={"Cookie": "s=v"},
            body="{}",
            stored=(("comment", "payload"),),
        )
        frame = encode_framed_request(request, DEFAULT_SURFACES)
        _, _, body_nl = frame.partition(b"\n")
        decoded, surfaces = decode_framed_request(body_nl[:-1])
        assert decoded.method == "POST"
        assert decoded.query == "a=1"
        assert decoded.headers == {"cookie": "s=v"}  # lowercased
        assert decoded.stored == (("comment", "payload"),)
        assert surfaces == DEFAULT_SURFACES

    def test_absent_surfaces_takes_the_default(self):
        frame = encode_framed_request(HttpRequest(query="a=1"))
        _, _, body_nl = frame.partition(b"\n")
        _, surfaces = decode_framed_request(body_nl[:-1])
        assert surfaces == LEGACY_SURFACES
        _, surfaces = decode_framed_request(
            body_nl[:-1],
            default_surfaces=(InjectionSurface.COOKIE,),
        )
        assert surfaces == (InjectionSurface.COOKIE,)

    def test_bad_frames_raise(self):
        with pytest.raises(ProtocolError):
            decode_framed_request(b"not json")
        with pytest.raises(ProtocolError):
            decode_framed_request(b'{"v": 99}')
        with pytest.raises(ProtocolError):
            decode_framed_request(
                b'{"v": 2, "surfaces": "query,warp-drive"}'
            )
        with pytest.raises(ProtocolError):
            decode_framed_request(b'{"v": 2, "headers": []}')


def run_gateway(messages, config=None):
    async def scenario():
        gateway = DetectionGateway(
            SignatureStore(toy_detector()), config
        )
        host, port = gateway.start()
        try:
            responses = await send_lines(host, port, messages)
            _status, stats = await http(host, port, "GET", "/stats")
        finally:
            gateway.stop()
        return responses, stats

    return asyncio.run(scenario())


class TestFramedGateway:
    def test_cookie_attack_with_attribution(self):
        request = HttpRequest(
            query="view=1",
            headers={"cookie": "s=x' or 1=1"},
        )
        frame = encode_framed_request(
            request, (InjectionSurface.QUERY, InjectionSurface.COOKIE)
        )
        (response,), _stats = run_gateway([frame])
        assert response["alert"] is True
        assert response["matched"] == [2]
        assert response["surfaces"] == "cookie"
        assert response["verdicts"][0]["locator"] == "query-string"
        # Legacy keys come first, in the line-protocol order.
        assert list(response)[:4] == [
            "alert", "score", "matched", "version",
        ]

    def test_legacy_selection_sees_no_cookie(self):
        request = HttpRequest(
            query="view=1",
            headers={"cookie": "s=x' or 1=1"},
        )
        frame = encode_framed_request(request, LEGACY_SURFACES)
        (response,), _stats = run_gateway([frame])
        assert response["alert"] is False

    def test_frames_and_lines_interleave_in_order(self):
        attack_line = b"id=1 union select 2\n"
        frame = encode_framed_request(
            HttpRequest(headers={"cookie": "s=x' or 1=1"}),
            (InjectionSurface.COOKIE,),
        )
        benign_line = b"q=hello\n"
        responses, stats = run_gateway([attack_line, frame, benign_line])
        assert [r["alert"] for r in responses] == [True, True, False]
        assert "surfaces" not in responses[0]  # line responses unchanged
        assert responses[1]["surfaces"] == "cookie"
        assert stats["counters"].get("framed") == 1

    def test_malformed_frame_header_answers_error_and_resyncs(self):
        messages = [
            FRAME_MAGIC + b" not-a-number\n",
            b"id=1 union select 2\n",
        ]
        responses, _stats = run_gateway(messages)
        assert "error" in responses[0]
        assert responses[1]["alert"] is True

    def test_malformed_frame_body_answers_error_and_resyncs(self):
        bad_body = b"this is not json"
        messages = [
            FRAME_MAGIC + b" " + str(len(bad_body)).encode()
            + b"\n" + bad_body + b"\n",
            b"q=hello\n",
        ]
        responses, _stats = run_gateway(messages)
        assert "error" in responses[0]
        assert responses[1]["alert"] is False

    def test_config_default_surfaces_applies_to_plain_frames(self):
        request = HttpRequest(headers={"cookie": "s=x' or 1=1"})
        frame = encode_framed_request(request)  # no explicit selection
        (response,), _stats = run_gateway(
            [frame],
            GatewayConfig(
                surfaces=(InjectionSurface.COOKIE,),
            ),
        )
        assert response["alert"] is True
        assert response["surfaces"] == "cookie"

    def test_stats_expose_per_surface_counters(self):
        frame = encode_framed_request(
            HttpRequest(headers={"cookie": "s=x' or 1=1"}),
            (InjectionSurface.QUERY, InjectionSurface.COOKIE),
        )
        _responses, stats = run_gateway([frame])
        assert stats["surfaces"]["cookie"]["inspected"] == 1
        assert stats["surfaces"]["cookie"]["alerted"] == 1
        assert stats["surfaces"]["query"]["inspected"] == 1
        assert stats["surfaces"]["query"]["alerted"] == 0


class TestSurfacesSection:
    def test_fleet_merged_counters_produce_the_same_shape(self):
        # One definition serves both the single gateway and the fleet
        # merge: summing two shards' raw counters must yield the exact
        # per-surface block a lone gateway's /stats exposes.
        from repro.serve.telemetry import merge_raw_states, surfaces_section

        shard_a = {"counters": {
            "surface_cookie_inspected": 3,
            "surface_cookie_alerted": 1,
            "inspected": 3,
        }}
        shard_b = {"counters": {
            "surface_cookie_inspected": 2,
            "surface_query_inspected": 2,
            "inspected": 2,
        }}
        section = surfaces_section(
            merge_raw_states([shard_a, shard_b])["counters"]
        )
        assert section["cookie"] == {"inspected": 5, "alerted": 1}
        assert section["query"] == {"inspected": 2, "alerted": 0}
        # Every surface appears, zeroed when never touched.
        assert section["second-order"] == {"inspected": 0, "alerted": 0}
        assert set(section) == {s.value for s in InjectionSurface}


class TestInProcessFramedClient:
    def test_inspect_request_helper(self):
        """A frame naming its surfaces gets its surface-attributed
        answer."""

        async def scenario():
            gateway = DetectionGateway(SignatureStore(toy_detector()))
            host, port = gateway.start()
            try:
                return await ask(
                    host, port,
                    HttpRequest(headers={"cookie": "s=1 union select 2"}),
                    parse_surfaces("cookie"),
                )
            finally:
                gateway.stop()

        response = asyncio.run(scenario())
        assert response["alert"] is True
        assert response["surfaces"] == "cookie"
