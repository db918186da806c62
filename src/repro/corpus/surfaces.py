"""Multi-surface request corpus: attacks beyond the query string.

The paper's corpora deliver every attack through the query string or a
urlencoded form body — the two channels its extraction sees.  This
module generates labeled request families for the *other* surfaces of
:mod:`repro.surfaces`: JSON/REST bodies, cookies, headers, multipart
uploads, and second-order (stored→replayed) flows.  Attack values come
from the same SQLi grammar as the paper-facing corpus
(:class:`~repro.corpus.grammar.CorpusGenerator`), so per-surface
detection rates (``BENCH_surfaces.json``) measure the *channel*, not a
different attack distribution.

Every family mixes benign requests of the same shape — a JSON API
corpus where only attacks use JSON bodies would let a detector cheat by
alerting on the content type.
"""

from __future__ import annotations

import json

from repro.corpus.draws import DrawStream
from repro.corpus.grammar import CorpusGenerator
from repro.http import HttpRequest, LABEL_ATTACK, LABEL_BENIGN, Trace
from repro.http.url import parse_query

__all__ = ["SURFACE_FAMILIES", "SurfaceCorpusGenerator"]

#: Family names, in generation order (also the ``repro corpus
#: --surface-family`` spellings).
SURFACE_FAMILIES = (
    "json-body",
    "cookie",
    "header",
    "multipart",
    "second-order",
)

_BENIGN_STRINGS = (
    "union square hotels", "select topics in ml", "it's 100% fine",
    "drop-in hours", "O'Brien", "fall 2012 schedule", "cs101",
    "newsletter weekly", "4117 Ord Street", "order by relevance",
    "updates & offers", "c++ programming",
)

_JSON_KEYS = ("user", "comment", "filter", "name", "note", "tag")
_COOKIE_NAMES = ("session", "tracker", "prefs", "last_search")
_HEADER_NAMES = ("user-agent", "referer", "x-forwarded-for", "x-api-key")
_STORED_KEYS = ("comment", "display_name", "signature", "bio")

_BENIGN_AGENTS = (
    "Mozilla/5.0 (X11; Linux x86_64)",
    "Mozilla/4.0 (compatible; MSIE 8.0)",
    "Opera/9.80 (Windows NT 6.1)",
)


def _attack_value(payload: str) -> str:
    """The injected value of one grammar payload.

    Grammar payloads are query strings (``param=value&...``); the
    injection rides in the longest value — peel it out so a JSON field
    or cookie carries a *value*-shaped attack, not a query string.
    """
    pairs = parse_query(payload)
    if not pairs:
        return payload
    return max(pairs, key=lambda pair: len(pair[1]))[1]


class SurfaceCorpusGenerator:
    """Deterministic labeled corpora for the non-paper surfaces.

    Args:
        seed: fixes attack rendering, benign choice, and interleaving.
        attack_fraction: fraction of each family that carries an attack.
    """

    def __init__(
        self, seed: int = 2012, attack_fraction: float = 0.5
    ) -> None:
        if not 0.0 < attack_fraction <= 1.0:
            raise ValueError("attack_fraction must be in (0, 1]")
        self.seed = seed
        self.attack_fraction = attack_fraction
        self._rng = DrawStream(seed)
        self._attack_values: list[str] = []
        self._next_attack = 0

    # -- value supply --------------------------------------------------

    def _attack(self) -> str:
        """Next grammar-rendered attack value (refilled on demand)."""
        if self._next_attack >= len(self._attack_values):
            generation = len(self._attack_values)
            samples = CorpusGenerator(
                seed=self.seed + 17 * (generation + 1)
            ).generate(64)
            self._attack_values.extend(
                _attack_value(sample.payload) for sample in samples
            )
        value = self._attack_values[self._next_attack]
        self._next_attack += 1
        return value

    def _benign(self) -> str:
        return self._rng.choice(_BENIGN_STRINGS)

    def _is_attack(self) -> bool:
        return self._rng.random() < self.attack_fraction

    # -- families ------------------------------------------------------

    def json_request(self) -> HttpRequest:
        """A REST call whose JSON body may smuggle an attack.

        Half the attacks hide one level deeper — a JSON document inside
        a JSON string — exercising the extractor's recursive walk.
        """
        attack = self._is_attack()
        value = self._attack() if attack else self._benign()
        key = self._rng.choice(_JSON_KEYS)
        if attack and self._rng.random() < 0.5:
            value = json.dumps({self._rng.choice(_JSON_KEYS): value})
        document = {
            "page": self._rng.integers(1, 40),
            key: value,
            "opts": {"sort": self._rng.choice(("asc", "desc"))},
        }
        return HttpRequest(
            method="POST",
            host="api.victim.test",
            path="/v1/search",
            headers={"content-type": "application/json"},
            body=json.dumps(document),
            label=LABEL_ATTACK if attack else LABEL_BENIGN,
        )

    def cookie_request(self) -> HttpRequest:
        """A page view whose cookie jar may carry an attack."""
        attack = self._is_attack()
        value = self._attack() if attack else self._benign()
        name = self._rng.choice(_COOKIE_NAMES)
        jar = (
            f"sid={self._rng.integers(10**8):08d}; "
            f"{name}={value}"
        )
        return HttpRequest(
            host="www.victim.test",
            path="/account",
            query="view=profile",
            headers={"cookie": jar},
            label=LABEL_ATTACK if attack else LABEL_BENIGN,
        )

    def header_request(self) -> HttpRequest:
        """A request whose tracking/client header may carry an attack."""
        attack = self._is_attack()
        name = self._rng.choice(_HEADER_NAMES)
        value = self._attack() if attack else (
            self._rng.choice(_BENIGN_AGENTS)
            if name == "user-agent"
            else self._benign()
        )
        headers = {"user-agent": self._rng.choice(_BENIGN_AGENTS), name: value}
        return HttpRequest(
            host="www.victim.test",
            path="/landing",
            query="ref=newsletter",
            headers=headers,
            label=LABEL_ATTACK if attack else LABEL_BENIGN,
        )

    def multipart_request(self) -> HttpRequest:
        """A form upload whose field (or filename) may carry an attack."""
        attack = self._is_attack()
        value = self._attack() if attack else self._benign()
        boundary = f"----repro{self._rng.integers(10**8):08d}"
        in_filename = attack and self._rng.random() < 0.3
        filename = value if in_filename else "notes.txt"
        field = self._benign() if in_filename else value
        body = (
            f"--{boundary}\r\n"
            f'Content-Disposition: form-data; name="title"\r\n\r\n'
            f"{self._benign()}\r\n"
            f"--{boundary}\r\n"
            f'Content-Disposition: form-data; name="upload"; '
            f'filename="{filename}"\r\n'
            f"Content-Type: text/plain\r\n\r\n"
            f"{field}\r\n"
            f"--{boundary}--\r\n"
        )
        return HttpRequest(
            method="POST",
            host="files.victim.test",
            path="/upload",
            headers={
                "content-type": f"multipart/form-data; boundary={boundary}"
            },
            body=body,
            label=LABEL_ATTACK if attack else LABEL_BENIGN,
        )

    def second_order_pair(self) -> tuple[HttpRequest, HttpRequest]:
        """A stored→replayed pair: the second-order channel.

        The *store* request submits a value through an ordinary form
        (first-order surfaces see it); the *replay* request carries the
        same value in ``stored`` — nothing in its own query, body, or
        headers is attacker-controlled, so only the SECOND_ORDER surface
        can catch it.
        """
        attack = self._is_attack()
        value = self._attack() if attack else self._benign()
        key = self._rng.choice(_STORED_KEYS)
        label = LABEL_ATTACK if attack else LABEL_BENIGN
        store = HttpRequest(
            method="POST",
            host="forum.victim.test",
            path="/post",
            headers={
                "content-type": "application/x-www-form-urlencoded"
            },
            body=f"{key}={value}",
            label=label,
        )
        replay = HttpRequest(
            host="forum.victim.test",
            path="/thread",
            query=f"id={self._rng.integers(1, 500)}",
            stored=((key, value),),
            label=label,
        )
        return store, replay

    # -- traces --------------------------------------------------------

    def family_trace(self, family: str, count: int) -> Trace:
        """``count`` requests of one family (pairs count as two)."""
        if family not in SURFACE_FAMILIES:
            raise ValueError(
                f"unknown surface family {family!r}; "
                f"valid: {', '.join(SURFACE_FAMILIES)}"
            )
        trace = Trace(name=f"surface-{family}")
        while len(trace) < count:
            if family == "json-body":
                trace.append(self.json_request())
            elif family == "cookie":
                trace.append(self.cookie_request())
            elif family == "header":
                trace.append(self.header_request())
            elif family == "multipart":
                trace.append(self.multipart_request())
            else:
                store, replay = self.second_order_pair()
                trace.append(store)
                if len(trace) < count:
                    trace.append(replay)
        return trace

    def mixed_trace(self, count: int, name: str = "surface-mix") -> Trace:
        """All families interleaved — the full-surface workload."""
        trace = Trace(name=name)
        while len(trace) < count:
            family = self._rng.choice(SURFACE_FAMILIES)
            if family == "second-order":
                store, replay = self.second_order_pair()
                trace.append(store)
                if len(trace) < count:
                    trace.append(replay)
            else:
                trace.append(self.family_trace(family, 1).requests[0])
        return trace
