import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from empint.spaces import (SAMPLE_CHUNK, ProbabilitySpace, draw_sample,
                           finite_space, point_counts, signed_increment,
                           stream_rng, uniform_space)


def test_finite_space_normalizes():
    sp = finite_space([1, 1])
    assert np.allclose(sp.weights, [0.5, 0.5])


def test_finite_space_keeps_normalized_weights():
    sp = finite_space([0.2, 0.3, 0.5])
    assert np.allclose(sp.weights, [0.2, 0.3, 0.5])


def test_finite_space_scaling_invariance():
    sp = finite_space([2, 3, 5])
    assert np.allclose(sp.weights, [0.2, 0.3, 0.5])


def test_finite_space_rejects_negative():
    with pytest.raises(ValueError):
        finite_space([0.5, -0.5, 1.0])


def test_space_rejects_negative_weight_summing_to_one():
    # the sum is 1, so only the sign check refuses it
    with pytest.raises(ValueError, match="negative weight"):
        ProbabilitySpace([2.0, -1.0, 0.0, 0.0])


def test_finite_space_rejects_all_zero():
    with pytest.raises(ValueError):
        finite_space([0.0, 0.0])


def test_space_needs_two_positive_atoms():
    with pytest.raises(ValueError):
        ProbabilitySpace(np.array([1.0, 0.0]))


def test_space_rejects_bad_sum():
    with pytest.raises(ValueError):
        ProbabilitySpace(np.array([0.5, 0.4]))


def test_draw_sample_deterministic():
    sp = uniform_space(4)
    a = draw_sample(sp, 100, seed=7, stream_id=3)
    b = draw_sample(sp, 100, seed=7, stream_id=3)
    assert np.array_equal(a, b)


def test_draw_sample_distinct_streams_differ():
    sp = uniform_space(4)
    a = draw_sample(sp, 1000, seed=7, stream_id=0)
    b = draw_sample(sp, 1000, seed=7, stream_id=1)
    assert not np.array_equal(a, b)


def test_draw_sample_rejects_nonpositive_n():
    with pytest.raises(ValueError):
        draw_sample(uniform_space(2), 0, seed=1)


def test_draw_sample_frequency():
    # binomial tail: P(|freq - 0.5| > 0.01) < 1e-9 at n = 1e5
    sp = uniform_space(2)
    s = draw_sample(sp, 100_000, seed=123, stream_id=0)
    freq = np.mean(s == 0)
    assert abs(freq - 0.5) < 0.01


def test_near_degenerate_space_draws_dominant_point():
    sp = finite_space([1.0, 1e-13])
    s = draw_sample(sp, 50, seed=5, stream_id=0)
    assert np.all(s == 0)


def test_empirical_measure_rejects_out_of_range():
    sp = uniform_space(2)
    with pytest.raises(ValueError):
        point_counts(np.array([0, 5]), sp)


def test_signed_increment_zero_for_matching_sample():
    sp = uniform_space(2)
    assert np.allclose(signed_increment(np.array([0, 1]), sp), [0, 0])


def test_signed_increment_arithmetic():
    sp = uniform_space(2)
    assert np.allclose(signed_increment(np.array([0, 0]), sp), [0.5, -0.5])


@settings(max_examples=50, deadline=None)
@given(st.integers(min_value=2, max_value=8), st.integers(min_value=1, max_value=40),
       st.integers(min_value=0, max_value=10**6))
def test_mass_conservation(m, n, seed):
    sp = uniform_space(m)
    s = draw_sample(sp, n, seed=seed, stream_id=0)
    assert abs(signed_increment(s, sp).sum()) < 1e-12


def test_point_counts_sums_to_n():
    sp = uniform_space(5)
    s = draw_sample(sp, 37, seed=1, stream_id=2)
    assert point_counts(s, sp).sum() == 37


def test_immutability():
    sp = uniform_space(3)
    with pytest.raises(ValueError):
        sp.weights[0] = 0.9
    s = draw_sample(sp, 5, seed=0)
    assert s.dtype == np.int64
    with pytest.raises(ValueError):
        s[0] = 1
    with pytest.raises(ValueError):
        signed_increment(s, sp)[0] = 0.0


def test_stream_rng_reproducible():
    a = stream_rng(9, 2).random(10)
    b = stream_rng(9, 2).random(10)
    assert np.array_equal(a, b)


# --- inverse CDF: guide table and zero-weight atoms ------------------------

@st.composite
def weight_vectors(draw):
    """Skewed random weights, small m or m in the hundreds, with a zero run
    and sometimes a trailing zero."""
    m = draw(st.one_of(st.integers(min_value=2, max_value=12),
                       st.integers(min_value=100, max_value=400)))
    w = stream_rng(draw(st.integers(min_value=0, max_value=2**32 - 1)), 0) \
        .uniform(0.0, 1.0, size=m) ** 3
    start = draw(st.integers(min_value=0, max_value=m - 1))
    w[start:start + draw(st.integers(min_value=0, max_value=m))] = 0.0
    if draw(st.booleans()):
        w[-1] = 0.0
    if np.count_nonzero(w) < 2:
        w[:2] = 1.0
    return finite_space(w)


def _adversarial_u(sp):
    """0, the largest double below 1, every cumulative value below 1 with its
    neighbours, and every multiple of 1/4096 (each guide bucket edge)."""
    c = sp.cumulative
    u = np.concatenate([[0.0, np.nextafter(1.0, 0.0)], c,
                        np.nextafter(c, 0.0), np.nextafter(c, 1.0),
                        np.arange(4096) / 4096])
    return u[(u >= 0.0) & (u < 1.0)]


def _last_positive(sp):
    return int(np.flatnonzero(sp.weights)[-1])


@settings(max_examples=200, deadline=None)
@given(weight_vectors(), st.integers(min_value=0, max_value=10**6))
def test_inverse_cdf_matches_searchsorted(sp, seed):
    u = np.concatenate([_adversarial_u(sp), stream_rng(seed, 0).random(500)])
    expected = np.minimum(np.searchsorted(sp.cumulative, u, side="right"),
                          _last_positive(sp))
    assert np.array_equal(sp.inverse_cdf(u), expected)


@settings(max_examples=100, deadline=None)
@given(weight_vectors(), st.integers(min_value=1, max_value=200),
       st.integers(min_value=0, max_value=10**6))
def test_zero_weight_atoms_never_drawn(sp, n, seed):
    assert np.all(sp.weights[draw_sample(sp, n, seed=seed)] > 0)
    assert np.all(sp.weights[sp.inverse_cdf(_adversarial_u(sp))] > 0)


def test_trailing_zero_atom_not_drawn_at_top_of_unit_interval(monkeypatch):
    sp = finite_space([0.1] * 10 + [0])
    top = np.nextafter(1.0, 0.0)
    assert sp.cumulative[-1] <= top  # rounding leaves room above the last edge

    class TopRng:
        def random(self, n):
            return np.full(n, top)
    monkeypatch.setattr("empint.spaces.stream_rng", lambda seed, stream_id: TopRng())
    assert np.all(draw_sample(sp, 20, seed=0) == 9)


def test_uniform_draws_unchanged_by_the_guide_table():
    # past one chunk, the chunks continue the stream of a single call
    for m, n in ((2, 10_000), (16, 10_000), (200, 10_000),
                 (200, 4 * SAMPLE_CHUNK + 1)):
        sp = uniform_space(m)
        u = stream_rng(3, m).random(n)
        expected = np.minimum(np.searchsorted(sp.cumulative, u, side="right"), m - 1)
        assert np.array_equal(draw_sample(sp, n, seed=3, stream_id=m),
                              expected)


def test_draw_sample_peak_memory_stays_near_its_output():
    sp = finite_space(np.arange(1.0, 201.0))
    draw_sample(sp, 10, seed=0)  # the space's guide table is built untraced
    tracemalloc.start()
    try:
        sample = draw_sample(sp, 2 ** 20, seed=3)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert sample.size == 2 ** 20
    # the 8 MiB int64 output, plus one chunk's temporaries
    assert peak <= 12 * 2 ** 20


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_non_finite_weights_rejected(bad):
    # a NaN weight used to pass the sum check, since NaN compares false
    with pytest.raises(ValueError, match="finite"):
        ProbabilitySpace(np.array([bad, 0.5, 0.5]))
    with pytest.raises(ValueError, match="finite"):
        finite_space([bad, 1.0, 1.0, 1.0])
