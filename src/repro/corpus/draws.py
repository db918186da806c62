"""One seeded random stream for the corpus generators.

The generators behind the paper's test traces (Section III-B) and the
crawled corpus (Section II-A) draw one value at a time: a roll per
request, a pick per slot, a length per probe.  A scalar call on
:class:`numpy.random.Generator` spends most of its time in dispatch, not
in drawing.  :class:`DrawStream` returns *exactly* what
``np.random.default_rng(seed)`` returns for the calls the generators
make, value for value and in the same order, but computes each value in
Python from raw PCG64 words fetched in blocks.  Every trace, corpus and
census digest therefore stays the same as with the numpy stream.

The algorithms are numpy's own (``numpy/random/src/distributions``):

- ``random()`` is ``(word >> 11) * 2**-53``, PCG64's ``next_double``.
- ``integers`` is Lemire's nearly-divisionless method (numpy's default,
  ``endpoint=False``).  Spans up to ``2**32`` draw 32-bit halves through
  PCG64's one-word ``has_uint32`` buffer: a fresh word yields its low
  half and keeps the high half for the next 32-bit draw.  Wider spans
  draw whole words with a 128-bit product.  ``random()`` and 64-bit
  draws neither read nor clear that buffer.
- ``choice(seq)`` is ``seq[integers(len(seq))]``; ``choice(n, p=p)``
  searches ``p.cumsum()`` divided by its last entry (numpy's own
  arithmetic) for one ``random()``.

``tests/corpus/test_draws.py`` runs seeded, interleaved call sequences
against ``np.random.default_rng`` so a change in numpy's algorithms
shows up as a failing test rather than as moved traces.
"""

from __future__ import annotations

from typing import Any, Protocol, Sequence, TypeVar

import numpy as np

__all__ = ["BLOCK_WORDS", "DrawStream", "RandomSource"]

T = TypeVar("T")

#: Raw words fetched per refill.  The block runs ahead of the words
#: used, so nothing else may draw from the stream's bit generator.
BLOCK_WORDS = 512

_MASK32 = 0xFFFFFFFF
_SPAN32 = 1 << 32
_MASK64 = (1 << 64) - 1
_SPAN64 = 1 << 64
_DOUBLE_UNIT = 2.0 ** -53


class RandomSource(Protocol):
    """The draws a mutator makes; :class:`DrawStream` and numpy's
    ``Generator`` both provide them."""

    def random(self, size: int | None = None) -> Any:
        """A float in [0, 1), or an array of *size* of them."""

    def integers(self, low: int, high: int | None = None) -> Any:
        """An integer in [low, high), or in [0, low) with one bound."""


class DrawStream:
    """Scalar draws from one PCG64 stream, equal to numpy's ``Generator``.

    Args:
        seed: what ``np.random.default_rng`` takes: an int or a tuple of
            ints.
    """

    __slots__ = ("_bits", "_take", "_half", "_p", "_cdf")

    def __init__(self, seed: int | tuple[int, ...]) -> None:
        self._bits = np.random.default_rng(seed).bit_generator
        self._take = iter(()).__next__
        self._half: int | None = None
        self._p: np.ndarray | None = None
        self._cdf: np.ndarray | None = None

    def _word(self) -> int:
        """The next raw 64-bit PCG64 output."""
        try:
            return self._take()
        except StopIteration:
            return self._refill()

    def _refill(self) -> int:
        """Fetch the next block of words and return its first."""
        block = self._bits.random_raw(BLOCK_WORDS).tolist()
        self._take = iter(block).__next__
        return self._take()

    def _next32(self) -> int:
        """PCG64's ``next_uint32``: halves of one word, low half first."""
        half = self._half
        if half is not None:
            self._half = None
            return half
        try:
            word = self._take()
        except StopIteration:
            word = self._refill()
        self._half = word >> 32
        return word & _MASK32

    def _below(self, span: int) -> int:
        """Lemire's bounded draw in [0, span), for 1 < span <= 2**32."""
        half = self._half  # _next32, inlined: this is the hot path
        if half is None:
            try:
                word = self._take()
            except StopIteration:
                word = self._refill()
            self._half = word >> 32
            product = (word & _MASK32) * span
        else:
            self._half = None
            product = half * span
        if product & _MASK32 < span:
            threshold = (_SPAN32 - span) % span
            while product & _MASK32 < threshold:
                product = self._next32() * span
        return product >> 32

    def random(self, size: int | None = None) -> Any:
        """A float in [0, 1); with *size*, an ndarray of that many."""
        if size is None:
            try:
                word = self._take()
            except StopIteration:
                word = self._refill()
            return (word >> 11) * _DOUBLE_UNIT
        word = self._word
        return np.array(
            [(word() >> 11) * _DOUBLE_UNIT for _ in range(size)]
        )

    def integers(self, low: int, high: int | None = None) -> int:
        """An int in [low, high), or in [0, low) when *high* is omitted.

        Raises:
            ValueError: on an empty range, as numpy does.
        """
        if high is None:
            low, high = 0, low
        span = high - low
        if 1 < span <= _SPAN32:
            return low + self._below(span)
        if span <= 1:
            if span == 1:
                return low  # numpy draws nothing for a one-value range
            raise ValueError("high <= 0" if low == 0 else "low >= high")
        product = self._word() * span
        if product & _MASK64 < span:
            threshold = (_SPAN64 - span) % span
            while product & _MASK64 < threshold:
                product = self._word() * span
        return low + (product >> 64)

    def choice(
        self, options: Sequence[T] | int, p: np.ndarray | None = None
    ) -> T | int:
        """``options[integers(len(options))]``; with weights *p*, an
        index in ``range(options)`` drawn by one ``random()``.

        The cumulative weights are computed once per ``p`` object, the
        way numpy computes them on every call.
        """
        if p is None:
            span = len(options)
            return options[self._below(span) if span > 1 else 0]
        if p is not self._p:
            if len(p) != options:
                raise ValueError("a and p must have same size")
            cdf = p.cumsum()
            cdf /= cdf[-1]
            self._p, self._cdf = p, cdf
        return int(self._cdf.searchsorted(self.random(), side="right"))
