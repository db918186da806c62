"""Evasion mutations applied to rendered payloads.

Public sample dumps are full of encoding and whitespace tricks — the same
tricks that motivate the paper's normalization transformations.  Each
mutator takes a payload value and a random source (the corpus
generator's :class:`~repro.corpus.draws.DrawStream`, or a numpy
``Generator``: the conformance fuzzer and the surface evasion probes
pass one) and returns a transformed value.
The normalizer must undo all of them; a property test
(``tests/corpus/test_mutators.py``) asserts exactly that.
"""

from __future__ import annotations

from collections.abc import Callable

from repro.corpus.draws import RandomSource

Mutator = Callable[[str, RandomSource], str]


def mixed_case(value: str, rng: RandomSource) -> str:
    """Randomize letter case: ``union select`` → ``UnIoN SeLeCt``."""
    flips = rng.random(len(value)) < 0.5
    return "".join(
        ch.upper() if flip and ch.isalpha() else ch
        for ch, flip in zip(value, flips)
    )


def url_encode_specials(value: str, rng: RandomSource) -> str:
    """Percent-encode quotes, spaces, and commas (scanner wire format)."""
    table = {"'": "%27", '"': "%22", " ": "%20", ",": "%2C", "#": "%23",
             ";": "%3B", "(": "%28", ")": "%29"}
    out = []
    for ch in value:
        encoded = table.get(ch)
        if encoded is not None and rng.random() < 0.8:
            out.append(encoded)
        else:
            out.append(ch)
    return "".join(out)


def double_encode_quotes(value: str, rng: RandomSource) -> str:
    """Double-encode quotes: ``'`` → ``%2527`` (decodes to ``%27`` then ``'``)."""
    del rng
    return value.replace("'", "%2527").replace('"', "%2522")


def plus_spaces(value: str, rng: RandomSource) -> str:
    """Encode spaces as ``+`` (form-urlencoded convention)."""
    del rng
    return value.replace(" ", "+")


def comment_spaces(value: str, rng: RandomSource) -> str:
    """Replace spaces with inline comments: ``union select`` →
    ``union/**/select`` — the classic keyword-splitting evasion."""
    separators = ("/**/", "/*x*/", "%09", "%0a")
    out = []
    for ch in value:
        if ch == " " and rng.random() < 0.7:
            out.append(separators[int(rng.integers(len(separators)))])
        else:
            out.append(ch)
    return "".join(out)


def tab_spaces(value: str, rng: RandomSource) -> str:
    """Replace spaces with tabs/newlines (alternate SQL whitespace)."""
    whitespace = ("\t", "\n", "  ")
    out = []
    for ch in value:
        if ch == " " and rng.random() < 0.6:
            out.append(whitespace[int(rng.integers(len(whitespace)))])
        else:
            out.append(ch)
    return "".join(out)


def unicode_fullwidth(value: str, rng: RandomSource) -> str:
    """Swap some ASCII characters for their fullwidth Unicode forms."""
    out = []
    for ch in value:
        if 0x21 <= ord(ch) <= 0x7E and ch.isalpha() and rng.random() < 0.3:
            out.append(chr(ord(ch) - 0x21 + 0xFF01))
        else:
            out.append(ch)
    return "".join(out)


MUTATORS: tuple[Mutator, ...] = (
    mixed_case,
    url_encode_specials,
    double_encode_quotes,
    plus_spaces,
    comment_spaces,
    tab_spaces,
    unicode_fullwidth,
)
