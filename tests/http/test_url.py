"""Tests for the from-scratch URL codec."""

import random
import string

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.http.url import encode_query, parse_query, quote, split_url, unquote


class TestUnquote:
    def test_plain_text_unchanged(self):
        assert unquote("hello world") == "hello world"

    def test_single_escape(self):
        assert unquote("%27") == "'"

    def test_uppercase_hex(self):
        assert unquote("%2F") == "/"

    def test_lowercase_hex(self):
        assert unquote("%2f") == "/"

    def test_mixed_content(self):
        assert unquote("a%20b%20c") == "a b c"

    def test_plus_untouched_by_default(self):
        assert unquote("a+b") == "a+b"

    def test_plus_as_space(self):
        assert unquote("a+b", plus_as_space=True) == "a b"

    def test_malformed_escape_passthrough(self):
        assert unquote("100%") == "100%"

    def test_malformed_partial_hex_passthrough(self):
        assert unquote("%2") == "%2"

    def test_non_hex_after_percent(self):
        assert unquote("%zz") == "%zz"

    def test_double_encoding_single_pass(self):
        # One pass only: %2527 -> %27, not the quote.
        assert unquote("%2527") == "%27"

    def test_empty_string(self):
        assert unquote("") == ""

    def test_null_byte_escape(self):
        assert unquote("%00") == "\x00"


UNRESERVED = frozenset(string.ascii_letters + string.digits + "-._~")


def per_character_quote(text):
    """RFC 3986 percent-encoding, one character's UTF-8 bytes at a time."""
    return "".join(
        ch if ch in UNRESERVED
        else "".join("%%%02X" % byte for byte in ch.encode("utf-8"))
        for ch in text
    )


class TestQuote:
    def test_unreserved_untouched(self):
        assert quote("abc-XYZ_0.9~") == "abc-XYZ_0.9~"

    def test_space_encoded(self):
        assert quote("a b") == "a%20b"

    def test_quote_char_encoded(self):
        assert quote("'") == "%27"

    def test_roundtrip(self):
        original = "id=1' OR '1'='1 -- &x=2"
        assert unquote(quote(original)) == original

    def test_utf8_multibyte(self):
        assert quote("é") == "%C3%A9"

    @pytest.mark.parametrize("seed", range(5))
    def test_equals_per_character_definition(self, seed):
        rng = random.Random(seed)
        pool = [chr(code) for code in range(0x12C)] + ["€", "\U0001F600"]
        for _ in range(400):
            text = "".join(rng.choices(pool, k=rng.randrange(0, 40)))
            assert quote(text) == per_character_quote(text)

    @given(st.text(alphabet=st.characters(max_codepoint=0x12B)
                   | st.sampled_from(["€", "\U0001F600"])))
    def test_property_equals_per_character_definition(self, text):
        assert quote(text) == per_character_quote(text)

    def test_lone_surrogate_raises(self):
        with pytest.raises(UnicodeEncodeError):
            quote("a\ud800b")


class TestSplitUrl:
    def test_full_url(self):
        assert split_url("http://example.com/a/b?q=1") == (
            "example.com", "/a/b", "q=1"
        )

    def test_no_scheme(self):
        assert split_url("example.com/x?y=2") == ("example.com", "/x", "y=2")

    def test_no_query(self):
        assert split_url("http://h/p") == ("h", "/p", "")

    def test_no_path(self):
        assert split_url("http://h") == ("h", "/", "")

    def test_port_stripped(self):
        host, _, _ = split_url("http://example.com:8080/x")
        assert host == "example.com"

    def test_fragment_dropped(self):
        assert split_url("http://h/p?q=1#frag") == ("h", "/p", "q=1")

    def test_question_mark_in_query_preserved(self):
        _, _, query = split_url("http://h/p?a=b?c")
        assert query == "b?c".join(["a=", ""]) or query == "a=b?c"


class TestParseQuery:
    def test_simple_pairs(self):
        assert parse_query("a=1&b=2") == [("a", "1"), ("b", "2")]

    def test_empty_query(self):
        assert parse_query("") == []

    def test_bare_token(self):
        assert parse_query("justakey") == [("justakey", "")]

    def test_value_with_equals(self):
        assert parse_query("a=1=2") == [("a", "1=2")]

    def test_empty_chunks_skipped(self):
        assert parse_query("a=1&&b=2") == [("a", "1"), ("b", "2")]

    def test_order_preserved(self):
        pairs = parse_query("z=1&a=2&m=3")
        assert [name for name, _ in pairs] == ["z", "a", "m"]

    def test_attack_payload_not_decoded(self):
        pairs = parse_query("id=1%27+or+1%3D1")
        assert pairs == [("id", "1%27+or+1%3D1")]


class TestEncodeQuery:
    def test_roundtrip(self):
        pairs = [("a", "1"), ("b", "x y")]
        assert parse_query(encode_query(pairs)) == pairs

    def test_empty(self):
        assert encode_query([]) == ""


@pytest.mark.parametrize("payload", [
    "id=1' union select 1,2,3-- -",
    "%25%32%37",
    "a=%u0027",
    "%%%%",
])
def test_unquote_never_raises(payload):
    unquote(payload)
    unquote(payload, plus_as_space=True)
