import math
import warnings

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from casa_mini.engine.hist import (
    HistError,
    Histogram,
    bin_slots,
    fill_counts,
    fill_histogram,
    merge_histograms,
)


def test_fill_basic():
    h = fill_histogram(np.array([1.0, 3.0, 5.0, 7.0]), "h", 2, 0.0, 8.0)
    assert list(h.counts) == [2, 2]
    assert h.underflow == 0 and h.overflow == 0 and h.n_filled == 4


def test_fill_boundaries_hi_exclusive():
    h = fill_histogram(np.array([-1.0, 8.0]), "h", 2, 0.0, 8.0)
    assert list(h.counts) == [0, 0]
    assert h.underflow == 1 and h.overflow == 1
    # lo lands in the first bin, hi overflows
    h2 = fill_histogram(np.array([0.0, 7.999999]), "h", 2, 0.0, 8.0)
    assert list(h2.counts) == [1, 1]


def test_fill_nan_overflows():
    h = fill_histogram(np.array([math.nan]), "h", 4, 0.0, 1.0)
    assert h.overflow == 1 and h.n_filled == 1 and sum(h.counts) == 0


def test_invalid_spec():
    with pytest.raises(HistError):
        fill_histogram(np.array([1.0]), "h", 0, 0.0, 1.0)
    with pytest.raises(HistError):
        fill_histogram(np.array([1.0]), "h", 4, 1.0, 1.0)


def test_merge_and_identity():
    a = fill_histogram(np.array([1.0, 3.0]), "h", 2, 0.0, 4.0)
    b = fill_histogram(np.array([3.5]), "h", 2, 0.0, 4.0)
    m = merge_histograms(a, b)
    assert list(m.counts) == [1, 2] and m.n_filled == 3
    empty = Histogram(name="h", n_bins=2, lo=0.0, hi=4.0)
    m2 = merge_histograms(a, empty)
    assert list(m2.counts) == list(a.counts)
    assert m2.underflow == a.underflow and m2.n_filled == a.n_filled


def test_merge_spec_mismatch():
    a = Histogram(name="h", n_bins=2, lo=0.0, hi=4.0)
    b = Histogram(name="h", n_bins=3, lo=0.0, hi=4.0)
    with pytest.raises(HistError, match="spec mismatch"):
        merge_histograms(a, b)


def test_dict_round_trip():
    h = fill_histogram(np.array([0.5, 2.5, math.nan, -3.0]), "pt", 4, 0.0, 4.0)
    back = Histogram.from_dict(h.to_dict())
    assert back.spec() == h.spec()
    assert np.array_equal(back.counts, h.counts)
    assert (back.underflow, back.overflow, back.n_filled) == (h.underflow, h.overflow, h.n_filled)


values_strategy = st.lists(
    st.one_of(
        st.floats(min_value=-50.0, max_value=350.0, allow_nan=False),
        st.just(math.nan),
        st.just(math.inf),
        st.just(-math.inf),
    ),
    max_size=200,
)

spec_strategy = st.tuples(
    st.integers(min_value=1, max_value=50),
    st.floats(min_value=-100.0, max_value=100.0, allow_nan=False),
    st.floats(min_value=0.1, max_value=300.0, allow_nan=False),
)


@settings(max_examples=150, deadline=None)
@given(values=values_strategy, spec=spec_strategy)
def test_count_conservation(values, spec):
    n_bins, lo, width = spec
    arr = np.asarray(values, dtype=np.float64)
    h = fill_histogram(arr, "h", n_bins, lo, lo + width)
    assert int(h.counts.sum()) + h.underflow + h.overflow == h.n_filled == len(values)


@settings(max_examples=60, deadline=None)
@given(values=values_strategy, spec=spec_strategy, cut=st.integers(min_value=0, max_value=200))
def test_merge_associative_commutative(values, spec, cut):
    n_bins, lo, width = spec
    hi = lo + width
    arr = np.asarray(values, dtype=np.float64)
    i = min(cut, len(arr))
    j = min(i + (len(arr) - i) // 2, len(arr))
    a = fill_histogram(arr[:i], "h", n_bins, lo, hi)
    b = fill_histogram(arr[i:j], "h", n_bins, lo, hi)
    c = fill_histogram(arr[j:], "h", n_bins, lo, hi)
    left = merge_histograms(merge_histograms(a, b), c)
    right = merge_histograms(a, merge_histograms(b, c))
    swapped = merge_histograms(b, a)
    assert np.array_equal(left.counts, right.counts)
    assert np.array_equal(merge_histograms(a, b).counts, swapped.counts)
    whole = fill_histogram(arr, "h", n_bins, lo, hi)
    assert np.array_equal(left.counts, whole.counts)
    assert (left.underflow, left.overflow, left.n_filled) == (whole.underflow, whole.overflow, whole.n_filled)


def _reference_fill_counts(values: np.ndarray, n_bins: int, lo: float, hi: float):
    # the five-pass kernel that fill_counts replaced, kept verbatim as the reference
    nan = np.isnan(values)
    under = values < lo
    over = (values >= hi) | nan
    inside = ~(under | over)
    idx = np.floor((values[inside] - lo) / (hi - lo) * n_bins).astype(np.int64)
    # guard against float rounding landing exactly on n_bins for v just below hi
    np.minimum(idx, n_bins - 1, out=idx)
    counts = np.bincount(idx, minlength=n_bins).astype(np.uint64)
    return counts, int(under.sum()), int(over.sum())


@st.composite
def edge_case_fills(draw):
    """A spec (lo = 0 one time in three) and values crowding its bin edges."""
    n_bins = draw(st.integers(min_value=1, max_value=64))
    lo = draw(st.one_of(st.just(0.0), st.floats(min_value=-1e3, max_value=1e3)))
    hi = lo + draw(st.floats(min_value=1e-3, max_value=1e4))
    edges = [lo + k * (hi - lo) / n_bins for k in range(n_bins + 1)]
    special = edges + [
        hi,
        np.nextafter(hi, -math.inf),
        np.nextafter(lo, -math.inf),
        math.inf,
        -math.inf,
        math.nan,
        -0.0,
        -5e-324,
        -1e-310,
        -2.2250738585072014e-308,
    ]
    near = st.tuples(st.sampled_from(edges), st.sampled_from([-math.inf, math.inf])).map(lambda t: np.nextafter(*t))
    values = draw(
        st.lists(
            st.one_of(st.sampled_from(special), near, st.floats(allow_nan=True, allow_infinity=True)),
            max_size=300,
        )
    )
    return np.asarray(values, dtype=np.float64), n_bins, lo, hi


@settings(max_examples=300, deadline=None)
@given(case=edge_case_fills())
@example(case=(np.array([-5e-324, -0.0, 0.0, 5e-324]), 60, 0.0, 300.0))
@example(case=(np.array([300.0, np.nextafter(300.0, 0.0), math.nan, math.inf, -math.inf]), 7, 0.0, 300.0))
# just below hi, where the index rounds to n_bins and only the clamp keeps it in the last bin
@example(case=(np.array([np.nextafter(-50.6903740838365, -math.inf)]), 55, -460.4265724722594, -50.6903740838365))
def test_fill_counts_matches_reference_kernel(case):
    values, n_bins, lo, hi = case
    with np.errstate(all="ignore"):  # as fill_counts asks of its caller
        counts, under, over = fill_counts(values, n_bins, lo, hi)
    ref_counts, ref_under, ref_over = _reference_fill_counts(values, n_bins, lo, hi)
    assert counts.dtype == ref_counts.dtype and np.array_equal(counts, ref_counts)
    assert (under, over) == (ref_under, ref_over)
    assert type(under) is int and type(over) is int


def _floor_slots(values: np.ndarray, n_bins: int, lo: float, hi: float) -> np.ndarray:
    # bin_slots as it was before the cast to intp took the place of np.floor, kept as the reference
    slot = np.floor((values - lo) / (hi - lo) * n_bins)
    np.minimum(slot, n_bins - 1, out=slot)
    slot += 1
    slot[values < lo] = 0
    slot[~(values < hi)] = n_bins + 1
    return slot.astype(np.intp)


@pytest.mark.parametrize(
    "n_bins, lo, hi",
    [
        (60, 0.0, 300.0),
        (7, -3.5, 2.25),
        (5, -1e308, 0.0),  # 1e308 - lo overflows to inf
        (4, 0.0, 1e-300),  # a tiny range: most values scale far past n_bins
        (3, 1e-300, 2e-300),
        (1, -1.0, np.nextafter(-1.0, math.inf)),
    ],
)
def test_bin_slots_edge_values_match_the_floor_formula(n_bins, lo, hi):
    """The cast's truncation is the floor for every value in [lo, hi), and the
    garbage that NaN and +-inf cast to is overwritten by the masks.  Through
    fill_histogram, under warnings as errors: the cast warns only inside the
    np.errstate that fill_histogram enters."""
    values = np.array(
        [
            -0.0,
            0.0,
            -5e-324,  # a negative denormal: below lo = 0, though it scales to -0.0
            5e-324,
            lo,
            np.nextafter(lo, -math.inf),
            np.nextafter(lo, math.inf),
            (lo + hi) / 2,
            np.nextafter(hi, lo),
            hi,
            np.nextafter(hi, math.inf),
            math.inf,
            -math.inf,
            math.nan,
            1e308,
            -1e308,
        ]
    )
    with np.errstate(all="ignore"):
        want = _floor_slots(values, n_bins, lo, hi)
        got = bin_slots(values, n_bins, lo, hi)
    assert got.dtype == np.intp and got.tolist() == want.tolist()
    assert got[-5:-2].tolist() == [n_bins + 1, 0, n_bins + 1]  # inf, -inf, NaN
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        h = fill_histogram(values, "h", n_bins, lo, hi)
    slots = np.bincount(want, minlength=n_bins + 2)
    assert h.counts.tolist() == slots[1:-1].tolist()
    assert (h.underflow, h.overflow, h.n_filled) == (slots[0], slots[-1], len(values))


def test_negative_denormal_underflows_at_lo_zero():
    # (v - lo) / (hi - lo) * n_bins rounds to -0.0, which must not land in bin 0
    h = fill_histogram(np.array([-5e-324, -0.0]), "h", 60, 0.0, 300.0)
    assert h.underflow == 1 and h.counts[0] == 1 and h.overflow == 0


def test_fill_histogram_alone_warns_of_nothing():
    values = np.array([1e308, -1e308, math.nan, -5e-324])
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(RuntimeWarning, match="overflow"):
            fill_counts(values, 4, 0.0, 1.0)  # the kernel leaves errstate to its caller
        h = fill_histogram(values, "h", 4, 0.0, 1.0)
    assert (h.underflow, h.overflow, int(h.counts.sum()), h.n_filled) == (2, 2, 0, 4)


def test_add_merges_in_place_and_merge_leaves_its_inputs():
    a = fill_histogram(np.array([1.0, 3.0, -1.0]), "h", 2, 0.0, 4.0)
    b = fill_histogram(np.array([3.5, 9.0]), "h", 2, 0.0, 4.0)
    m = merge_histograms(a, b)
    assert (list(a.counts), a.n_filled, list(b.counts), b.n_filled) == ([1, 1], 3, [0, 1], 2)
    counts = a.counts
    a.add(b)
    assert a.counts is counts and a.to_dict() == m.to_dict()
    assert (list(a.counts), a.underflow, a.overflow, a.n_filled) == ([1, 2], 1, 1, 5)
