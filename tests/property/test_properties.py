"""Property-based tests (hypothesis) on core invariants."""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp
from scipy.spatial.distance import squareform

from repro.cluster import Dendrogram, euclidean_condensed, upgma
from repro.http.url import parse_query, quote, split_url, unquote
from repro.learn import sigmoid
from repro.normalize import normalize
from repro.regexlib import count_all, validate


# ---------------------------------------------------------------------------
# URL codec
# ---------------------------------------------------------------------------

printable = st.text(
    alphabet=st.characters(min_codepoint=32, max_codepoint=126),
    max_size=60,
)


@given(printable)
def test_quote_unquote_roundtrip(text):
    assert unquote(quote(text)) == text


@given(printable)
def test_unquote_total(text):
    # Decoding arbitrary input never raises and never grows the string.
    assert len(unquote(text)) <= len(text)


@given(printable, printable)
def test_parse_query_roundtrip_structure(name, value):
    name = name.replace("&", "").replace("=", "") or "k"
    value = value.replace("&", "")
    pairs = parse_query(f"{name}={value}")
    assert pairs == [(name, value)]


@given(printable)
def test_split_url_never_raises(text):
    host, path, query = split_url(text)
    assert isinstance(host, str)
    assert path.startswith("/") or path == "/"


# ---------------------------------------------------------------------------
# Normalization
# ---------------------------------------------------------------------------

@given(printable)
def test_normalize_idempotent_on_own_output(text):
    once = normalize(text)
    assert normalize(once) == once


@given(printable)
def test_normalize_output_ascii_lowercase(text):
    out = normalize(text)
    assert all(ord(ch) < 128 for ch in out)
    assert out == out.lower()


@given(st.text(max_size=40))
def test_normalize_total_on_unicode(text):
    normalize(text)  # must never raise


# ---------------------------------------------------------------------------
# count_all
# ---------------------------------------------------------------------------

@given(printable, printable)
def test_count_all_additive_over_concatenation(a, b):
    # Counting a literal token is superadditive over concatenation
    # (the seam can only create extra matches, never destroy them).
    token = "union"
    separated = a + " | " + b
    assert count_all(token, separated) >= (
        count_all(token, a) + count_all(token, b)
    ) - 1


@given(printable)
def test_count_all_nonnegative(text):
    assert count_all(r"\bselect\b", text) >= 0


@given(st.integers(min_value=1, max_value=6), printable)
def test_count_all_scales_with_repetition(repeats, filler):
    filler = filler.replace("sleep", "")
    text = (" sleep( " + filler) * repeats
    assert count_all(r"sleep\s*\(", text) == repeats


# ---------------------------------------------------------------------------
# Sigmoid
# ---------------------------------------------------------------------------

@given(hnp.arrays(np.float64, st.integers(1, 30),
                  elements=st.floats(-1e6, 1e6)))
def test_sigmoid_bounded_and_monotone(z):
    p = np.asarray(sigmoid(z))
    assert ((p >= 0) & (p <= 1)).all()
    order = np.argsort(z)
    assert (np.diff(p[order]) >= -1e-12).all()


# ---------------------------------------------------------------------------
# UPGMA / dendrogram
# ---------------------------------------------------------------------------

@st.composite
def point_sets(draw):
    n = draw(st.integers(min_value=3, max_value=18))
    d = draw(st.integers(min_value=1, max_value=4))
    values = draw(
        hnp.arrays(
            np.float64, (n, d),
            elements=st.floats(-100, 100, allow_nan=False),
        )
    )
    return values


@given(point_sets())
@settings(max_examples=40, deadline=None)
def test_upgma_heights_monotone(points):
    linkage = upgma(points)
    assert (np.diff(linkage[:, 2]) >= -1e-9).all()


@given(point_sets())
@settings(max_examples=40, deadline=None)
def test_upgma_total_weight_conserved(points):
    linkage = upgma(points)
    assert linkage[-1, 3] == points.shape[0]


@given(point_sets())
@settings(max_examples=30, deadline=None)
def test_dendrogram_cut_partitions(points):
    n = points.shape[0]
    dendrogram = Dendrogram(upgma(points), n)
    for k in (1, 2, n):
        labels = dendrogram.cut_to_k(k)
        assert labels.shape == (n,)
        # A valid partition: every leaf gets exactly one label, labels
        # dense from zero.
        unique = np.unique(labels)
        assert (unique == np.arange(unique.size)).all()


@given(point_sets())
@settings(max_examples=30, deadline=None)
def test_cophenetic_dominates_original_distance(points):
    """UPGMA cophenetic distances are ultrametric approximations: the
    correlation with original distances is always in [-1, 1] and every
    leaf pair has one non-negative cophenetic distance."""
    n = points.shape[0]
    dendrogram = Dendrogram(upgma(points), n)
    coph = dendrogram.cophenetic_condensed()
    assert coph.shape == (n * (n - 1) // 2,)
    assert (coph >= 0).all()
    corr = dendrogram.cophenetic_correlation(euclidean_condensed(points))
    assert -1.0 - 1e-9 <= corr <= 1.0 + 1e-9


@given(point_sets())
@settings(max_examples=30, deadline=None)
def test_cophenetic_ultrametric_triangle(points):
    """Cophenetic distances satisfy the strong (ultrametric) triangle
    inequality: d(a,c) <= max(d(a,b), d(b,c))."""
    n = points.shape[0]
    dendrogram = Dendrogram(upgma(points), n)
    coph = squareform(dendrogram.cophenetic_condensed())
    rng = np.random.default_rng(0)
    for _ in range(20):
        a, b, c = rng.integers(0, n, size=3)
        assert coph[a, c] <= max(coph[a, b], coph[b, c]) + 1e-9


# ---------------------------------------------------------------------------
# Feature extraction
# ---------------------------------------------------------------------------

@given(printable, printable)
@settings(max_examples=25, deadline=None)
def test_extraction_invariant_to_mutation_roundtrip(prefix, suffix):
    """Any payload and its url-encoded form produce identical feature
    vectors — normalization is a true canonicalizer."""
    from repro.features import FeatureExtractor

    extractor = _shared_extractor()
    # ``+`` is wire-ambiguous: a raw ``+`` is a transport-encoded space,
    # while quote() emits ``%2B`` (a literal plus), so the two forms decode
    # to different strings by design and the invariant cannot apply.
    prefix = prefix.replace("+", "")
    suffix = suffix.replace("+", "")
    payload = f"{prefix}' union select {suffix}"
    encoded = quote(payload)
    assert (
        extractor.extract(payload) == extractor.extract(encoded)
    ).all()


_EXTRACTOR_CACHE = []


def _shared_extractor():
    if not _EXTRACTOR_CACHE:
        from repro.features import FeatureExtractor

        _EXTRACTOR_CACHE.append(FeatureExtractor())
    return _EXTRACTOR_CACHE[0]
