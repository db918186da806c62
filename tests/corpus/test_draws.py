"""``DrawStream`` against its oracle, ``np.random.default_rng``.

The corpus generators draw from :class:`repro.corpus.draws.DrawStream`,
which recomputes numpy's scalar algorithms from raw PCG64 words.  These
tests replay seeded, interleaved call sequences on both and require
equal values in equal order, so a change of numpy's algorithms (CI
installs numpy unpinned) fails here instead of silently moving every
generated trace.
"""

import random

import numpy as np
import pytest

from repro.corpus.draws import BLOCK_WORDS, DrawStream

#: Spans where Lemire's rejection step runs often (2**31 + 1 rejects
#: almost half the draws), at the 32-bit edge, and past it.
SPANS = (
    1, 2, 3, 6, 7, 100, 10**8, 2**31 + 1, 3 * 2**30, 2**32 - 1, 2**32,
    2**32 + 1, 2**40 + 3, 2**63,
)
SEQUENCE = ("union", "select", "from", "where", "--")
WEIGHTS = np.array([3.0, 1.0, 4.0, 1.0, 5.0, 9.0, 2.0, 6.0])
PROBS = WEIGHTS / WEIGHTS.sum()


def _call(rng, op: int, script: random.Random):
    """One draw of kind *op*; *script* picks its arguments, the same for
    both streams."""
    if op == 0:
        return rng.random()
    if op == 1:
        return rng.random(script.randrange(0, 40)).tolist()
    if op == 2:
        return rng.integers(script.choice(SPANS))
    if op == 3:
        return rng.integers(10**10, 10**11)
    if op == 4:
        low = script.randrange(-500, 500)
        return rng.integers(low, low + script.randrange(1, 3000))
    if op == 5:
        return rng.choice(SEQUENCE)
    return int(rng.choice(len(PROBS), p=PROBS))


@pytest.mark.parametrize("seed", [0, 1, 7, 2012, (3, 1), (101, 2)])
def test_interleaved_calls_match_numpy(seed):
    reference = np.random.default_rng(seed)
    stream = DrawStream(seed)
    script_a = random.Random(str(seed))
    script_b = random.Random(str(seed))
    # Enough draws to cross several block refills.
    for step in range(6 * BLOCK_WORDS):
        op = script_a.randrange(7)
        assert op == script_b.randrange(7)
        expected = _call(reference, op, script_a)
        got = _call(stream, op, script_b)
        assert got == expected, (seed, step, op)


@pytest.mark.parametrize("span", SPANS)
def test_each_span_matches_numpy_alone(span):
    reference = np.random.default_rng(span % 1000)
    stream = DrawStream(span % 1000)
    assert [stream.integers(span) for _ in range(2000)] == [
        int(reference.integers(span)) for _ in range(2000)
    ]


def test_random_array_matches_bit_for_bit():
    reference = np.random.default_rng(5).random(3 * BLOCK_WORDS)
    got = DrawStream(5).random(3 * BLOCK_WORDS)
    assert isinstance(got, np.ndarray) and got.dtype == np.float64
    assert got.tobytes() == reference.tobytes()


def test_values_are_python_scalars():
    stream = DrawStream(1)
    assert type(stream.random()) is float
    assert type(stream.integers(6)) is int
    assert type(stream.integers(10**10, 10**11)) is int
    assert type(stream.choice(SEQUENCE)) is str
    assert type(stream.choice(len(PROBS), p=PROBS)) is int


def test_one_value_range_draws_nothing():
    stream, reference = DrawStream(9), np.random.default_rng(9)
    assert stream.integers(4, 5) == 4 == reference.integers(4, 5)
    assert stream.random() == reference.random()


@pytest.mark.parametrize("low, high", [(0, None), (5, 5), (5, 2)])
def test_empty_range_raises_like_numpy(low, high):
    with pytest.raises(ValueError) as numpy_error:
        np.random.default_rng(0).integers(low, high)
    with pytest.raises(ValueError) as stream_error:
        DrawStream(0).integers(low, high)
    assert str(stream_error.value) == str(numpy_error.value)


def test_weighted_choice_rejects_a_size_mismatch():
    with pytest.raises(ValueError, match="same size"):
        DrawStream(0).choice(3, p=PROBS)
