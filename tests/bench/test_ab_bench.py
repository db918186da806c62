"""``scripts/ab_bench.py``'s paired summary on synthetic runs."""

import importlib.util
import os

import pytest

REPO_ROOT = os.path.dirname(
    os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
)
METRICS = [
    {"name": "setup_s", "better": "lower"},
    {"name": "tpr", "better": "higher"},
]


@pytest.fixture(scope="module")
def ab_bench():
    path = os.path.join(REPO_ROOT, "scripts", "ab_bench.py")
    spec = importlib.util.spec_from_file_location("_ab_bench", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _pairs(setup, tpr=None):
    tpr = tpr or [(0.9, 0.9)] * len(setup)
    return [
        ({"setup_s": b, "tpr": tb}, {"setup_s": c, "tpr": tc})
        for (b, c), (tb, tc) in zip(setup, tpr)
    ]


def test_clear_gain_wins_every_pair(ab_bench):
    pairs = _pairs([(0.50 + 0.01 * i, 0.30 + 0.01 * i) for i in range(10)])
    setup, tpr = ab_bench.summarize(pairs, METRICS, seed=7)
    assert (setup["wins"], setup["ties"], setup["losses"]) == (10, 0, 0)
    assert setup["base"] == pytest.approx((0.5225, 0.545, 0.5675))
    assert setup["change"][1] == pytest.approx(0.345)
    low, high = setup["ci"]
    assert low <= setup["ratio"] <= high < 1.0
    # An unchanged metric ties everywhere, with a degenerate interval.
    assert (tpr["wins"], tpr["ties"], tpr["losses"]) == (0, 10, 0)
    assert tpr["ratio"] == tpr["ci"][0] == tpr["ci"][1] == 1.0


def test_noise_gives_an_interval_around_one(ab_bench):
    pairs = _pairs([
        (0.50, 0.52), (0.53, 0.51), (0.49, 0.50), (0.52, 0.50),
        (0.51, 0.51), (0.50, 0.49), (0.48, 0.50),
    ])
    setup, _ = ab_bench.summarize(pairs, METRICS, seed=7)
    assert setup["ci"][0] <= 1.0 <= setup["ci"][1]
    assert (setup["wins"], setup["ties"], setup["losses"]) == (3, 1, 3)


def test_higher_is_better_counts_a_rise_as_a_win(ab_bench):
    pairs = _pairs([(0.5, 0.5)] * 3, tpr=[(0.8, 0.9), (0.9, 0.8), (0.8, 0.9)])
    _, tpr = ab_bench.summarize(pairs, METRICS)
    assert (tpr["wins"], tpr["ties"], tpr["losses"]) == (2, 0, 1)
    assert tpr["ratio"] == pytest.approx(0.9 / 0.8)


def test_bootstrap_is_seeded(ab_bench):
    pairs = _pairs([(0.5, 0.4), (0.6, 0.7), (0.5, 0.45), (0.55, 0.5)])
    first = ab_bench.summarize(pairs, METRICS, seed=3)
    assert ab_bench.summarize(pairs, METRICS, seed=3) == first


def test_format_summary_has_a_row_per_metric(ab_bench):
    pairs = _pairs([(0.5, 0.4), (0.6, 0.5)])
    text = ab_bench.format_summary(ab_bench.summarize(pairs, METRICS))
    lines = text.splitlines()
    assert len(lines) == 1 + len(METRICS)
    assert lines[1].startswith("setup_s") and lines[1].endswith("2/0/0")
    assert lines[2].startswith("tpr") and lines[2].endswith("0/2/0")
