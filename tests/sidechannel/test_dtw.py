"""Tests + properties for dynamic time warping."""

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from repro.sidechannel.dtw import dtw_distance, dtw_distances, dtw_matrix

seqs = st.lists(st.floats(-5, 5, allow_nan=False), min_size=1, max_size=30)


def naive_banded_dp(a, b, window=None):
    """The textbook full-matrix DP over the Sakoe-Chiba band, one cell at a
    time: the reference the wavefront must match bit for bit."""
    a = np.asarray(a, dtype=np.float64)
    b = np.asarray(b, dtype=np.float64)
    n, m = len(a), len(b)
    w = max(n, m) if window is None else window
    w = max(w, abs(n - m))
    ref = np.full((n + 1, m + 1), np.inf)
    ref[0, 0] = 0.0
    for i in range(1, n + 1):
        for j in range(max(1, i - w), min(m, i + w) + 1):
            cost = abs(a[i - 1] - b[j - 1])
            ref[i, j] = cost + min(ref[i - 1, j], ref[i, j - 1],
                                   ref[i - 1, j - 1])
    return ref[n, m]


def test_identical_sequences_have_zero_distance():
    a = [1.0, 2.0, 3.0, 2.0]
    assert dtw_distance(a, a) == 0.0


def test_known_small_example():
    # Classic: [0,1,2] vs [0,2] — align 1 with either neighbour.
    assert dtw_distance([0, 1, 2], [0, 2]) == pytest.approx(1.0)


def test_time_shift_is_cheap_amplitude_is_not():
    base = np.sin(np.linspace(0, 6, 60))
    shifted = np.sin(np.linspace(0.4, 6.4, 60))
    scaled = 2.0 * base
    assert dtw_distance(base, shifted) < dtw_distance(base, scaled)


def test_window_constrains_alignment():
    a = np.zeros(50)
    b = np.zeros(50)
    b[40] = 5.0
    a[5] = 5.0
    unconstrained = dtw_distance(a, b)
    constrained = dtw_distance(a, b, window=3)
    assert constrained > unconstrained


def test_empty_sequence_rejected():
    with pytest.raises(ValueError):
        dtw_distance([], [1.0])


def test_2d_input_rejected():
    with pytest.raises(ValueError):
        dtw_distance(np.zeros((2, 2)), [1.0])


@given(seqs, seqs)
@settings(max_examples=60, deadline=None)
def test_symmetry(a, b):
    assert dtw_distance(a, b) == pytest.approx(dtw_distance(b, a), rel=1e-9,
                                               abs=1e-9)


@given(seqs)
@settings(max_examples=60, deadline=None)
def test_self_distance_zero(a):
    assert dtw_distance(a, a) == pytest.approx(0.0, abs=1e-9)


@given(seqs, seqs)
@settings(max_examples=60, deadline=None)
def test_nonnegative(a, b):
    assert dtw_distance(a, b) >= 0


@given(seqs, seqs)
@settings(max_examples=40, deadline=None)
def test_bounded_below_by_endpoint_costs(a, b):
    """Any alignment path includes (a0,b0) and (an,bm)."""
    lower = abs(a[0] - b[0])
    if len(a) > 1 or len(b) > 1:
        lower += abs(a[-1] - b[-1])
    assert dtw_distance(a, b) >= lower - 1e-9


@given(seqs, seqs, st.integers(1, 10))
@settings(max_examples=40, deadline=None)
def test_wider_window_never_increases_distance(a, b, w):
    """Relaxing the Sakoe-Chiba band can only improve the alignment."""
    narrow = dtw_distance(a, b, window=w)
    wide = dtw_distance(a, b, window=w + 5)
    assert wide <= narrow + 1e-9


def test_matches_bruteforce_dp_reference(rng):
    for _ in range(10):
        a = rng.normal(size=rng.integers(2, 12))
        b = rng.normal(size=rng.integers(2, 12))
        for window in (None, 0, 1, 3):
            assert dtw_distance(a, b, window) == naive_banded_dp(a, b, window)


finite = st.floats(-1e3, 1e3, allow_nan=False, allow_infinity=False)


@st.composite
def query_and_stack(draw):
    n = draw(st.integers(1, 40))
    m = draw(st.integers(1, 40))
    count = draw(st.integers(1, 4))
    return (draw(arrays(np.float64, n, elements=finite)),
            draw(arrays(np.float64, (count, m), elements=finite)),
            draw(st.none() | st.integers(0, 12)))


@given(query_and_stack())
@settings(max_examples=150, deadline=None)
def test_wavefront_is_bit_identical_to_the_banded_dp(case):
    """Exact equality, not approx: every cell is the same float64 subtract,
    abs and add, and the min of finite floats is order-free."""
    a, stack, window = case
    got = dtw_distances(a, stack, window)
    assert got.shape == (len(stack),)
    for k, b in enumerate(stack):
        assert got[k] == naive_banded_dp(a, b, window)
        assert got[k] == dtw_distance(a, b, window)


@st.composite
def query_and_template_stacks(draw):
    n = draw(st.integers(1, 40))
    m = draw(st.integers(1, 40))
    return (draw(arrays(np.float64, (draw(st.integers(1, 4)), n),
                        elements=finite)),
            draw(arrays(np.float64, (draw(st.integers(1, 4)), m),
                        elements=finite)),
            draw(st.none() | st.integers(0, 12)))


def _pair(n, m, window, queries=2, templates=3):
    """A fixed case of (queries, templates, window) with these lengths."""
    rng = np.random.default_rng(n * 41 + m)
    return (rng.normal(size=(queries, n)), rng.normal(size=(templates, m)),
            window)


@given(query_and_template_stacks())
@example(_pair(7, 3, 0))          # n != m at window 0: the band widens
@example(_pair(3, 7, 0))
@example(_pair(1, 9, 2))          # one query sample
@example(_pair(9, 1, 2))          # one template sample
@example(_pair(1, 1, 0))
@example(_pair(6, 8, 8))          # window >= max(n, m): no band at all
@example(_pair(12, 5, 40))
@settings(max_examples=150, deadline=None)
def test_query_stack_wavefront_is_bit_identical_to_the_banded_dp(case):
    """Every cell of the (Q, K) matrix, exactly: each pair is still the
    same float64 subtract, abs and add per cell, whatever shares its
    diagonal."""
    queries, stack, window = case
    got = dtw_matrix(queries, stack, window)
    assert got.shape == (len(queries), len(stack))
    for q, a in enumerate(queries):
        for k, b in enumerate(stack):
            assert got[q, k] == naive_banded_dp(a, b, window)
            assert got[q, k] == dtw_distance(a, b, window)


@pytest.mark.parametrize("queries,match", [
    (np.zeros((0, 3)), "non-empty"),
    (np.zeros((2, 0)), "non-empty"),
    ([[1.0, 2.0], [1.0]], "equal-length"),
    ([1.0, 2.0], "2-D"),
    (np.zeros((2, 2, 2)), "2-D"),
    ([[1.0, 2.0], [np.nan, 0.0]], "finite"),
    ([[1.0, np.inf]], "finite"),
])
def test_bad_query_stack_rejected(queries, match):
    with pytest.raises(ValueError, match=match):
        dtw_matrix(queries, [[1.0, 2.0]])


@pytest.mark.parametrize("a,b", [([np.nan], [1.0]), ([1.0], [np.inf]),
                                 ([0.0, -np.inf], [1.0, 2.0])])
def test_non_finite_values_rejected(a, b):
    with pytest.raises(ValueError, match="finite"):
        dtw_distance(a, b)
    with pytest.raises(ValueError, match="finite"):
        dtw_distances(a, [b])


def test_empty_template_stack_rejected():
    with pytest.raises(ValueError, match="non-empty"):
        dtw_distances([1.0, 2.0], np.zeros((0, 3)))
    with pytest.raises(ValueError, match="non-empty"):
        dtw_distances([1.0, 2.0], np.zeros((2, 0)))


def test_ragged_template_stack_rejected():
    with pytest.raises(ValueError, match="equal-length"):
        dtw_distances([1.0, 2.0], [[1.0, 2.0], [1.0]])


def test_non_2d_template_stack_rejected():
    with pytest.raises(ValueError, match="2-D"):
        dtw_distances([1.0, 2.0], [1.0, 2.0])
    with pytest.raises(ValueError, match="2-D"):
        dtw_distances([1.0, 2.0], np.zeros((2, 2, 2)))


def test_negative_window_rejected():
    with pytest.raises(ValueError, match="window"):
        dtw_distance([1.0, 2.0], [1.0, 2.0], window=-1)
    with pytest.raises(ValueError, match="window"):
        dtw_matrix([[1.0, 2.0]], [[1.0, 2.0]], window=-1)
