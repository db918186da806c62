"""URL encoding/decoding and query-string handling, implemented from scratch.

The paper extracts the SQL query from the HTTP request payload "by leaving out
the HTTP address, the port, and the path (typically a ``?`` indicates the start
of the query string)" (Section II-A).  This module provides the low-level URL
machinery that extraction rests on: percent decoding/encoding, ``+``-as-space
handling, and query-string splitting into ordered parameter pairs.

Nothing here depends on :mod:`urllib`; the codec is part of the reproduced
substrate so its behaviour (e.g. tolerance of malformed escapes, double
encoding) is fully under our control and testable.
"""

from __future__ import annotations

_HEX_DIGITS = "0123456789abcdefABCDEF"

#: Characters that never need escaping in a query component (RFC 3986
#: unreserved set).  Everything else is percent-encoded by :func:`quote`.
_UNRESERVED = frozenset(
    "ABCDEFGHIJKLMNOPQRSTUVWXYZabcdefghijklmnopqrstuvwxyz0123456789-._~"
)


def _is_hex(ch: str) -> bool:
    return len(ch) == 1 and ch in _HEX_DIGITS


def unquote(text: str, *, plus_as_space: bool = False) -> str:
    """Decode percent-escapes in *text*.

    Malformed escapes (``%`` not followed by two hex digits) are passed
    through verbatim, mirroring how IDSes must treat attacker-controlled
    input: decoding never fails.

    Args:
        text: the raw (possibly escaped) string.
        plus_as_space: when true, ``+`` decodes to a space, as in
            ``application/x-www-form-urlencoded`` payloads.
    """
    out: list[str] = []
    i = 0
    n = len(text)
    while i < n:
        ch = text[i]
        if ch == "%" and i + 2 <= n - 1:
            hi, lo = text[i + 1], text[i + 2]
            if _is_hex(hi) and _is_hex(lo):
                out.append(chr(int(hi + lo, 16)))
                i += 3
                continue
        if ch == "+" and plus_as_space:
            out.append(" ")
        else:
            out.append(ch)
        i += 1
    return "".join(out)


#: :func:`quote`'s output for each byte of a UTF-8 encoding, for
#: ``str.translate``.
_QUOTED_BYTES = [
    chr(byte) if chr(byte) in _UNRESERVED else "%%%02X" % byte
    for byte in range(256)
]


def quote(text: str) -> str:
    """Percent-encode every character outside the RFC 3986 unreserved set.

    The UTF-8 bytes of *text*, read back as ``latin-1`` code points, are
    translated through a 256-entry table; a lone surrogate raises
    ``UnicodeEncodeError``.
    """
    return text.encode("utf-8").decode("latin-1").translate(_QUOTED_BYTES)


def split_url(url: str) -> tuple[str, str, str]:
    """Split *url* into ``(host, path, query)``.

    The scheme and port are discarded — the paper's extraction keeps only the
    query portion, but the host and path are needed by the crawler frontier.
    A missing component is returned as the empty string.
    """
    rest = url
    if "://" in rest:
        rest = rest.split("://", 1)[1]
    fragment_split = rest.split("#", 1)[0]
    if "?" in fragment_split:
        loc_path, query = fragment_split.split("?", 1)
    else:
        loc_path, query = fragment_split, ""
    if "/" in loc_path:
        host, path = loc_path.split("/", 1)
        path = "/" + path
    else:
        host, path = loc_path, "/"
    if ":" in host:
        host = host.split(":", 1)[0]
    return host, path, query


def parse_query(query: str) -> list[tuple[str, str]]:
    """Split a raw query string into ordered ``(name, value)`` pairs.

    Pairs are *not* decoded; decoding is a normalization step
    (:mod:`repro.normalize`) so that the feature extractor can choose the
    representation it operates on.  A bare token without ``=`` becomes a pair
    with an empty value, preserving attacker payloads like ``?1'or'1'='1``.
    """
    if not query:
        return []
    pairs: list[tuple[str, str]] = []
    for chunk in query.split("&"):
        if not chunk:
            continue
        if "=" in chunk:
            name, value = chunk.split("=", 1)
        else:
            name, value = chunk, ""
        pairs.append((name, value))
    return pairs


def encode_query(pairs: list[tuple[str, str]]) -> str:
    """Inverse of :func:`parse_query` for already-encoded pairs."""
    return "&".join(f"{name}={value}" for name, value in pairs)
