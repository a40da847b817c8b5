import itertools
import json
import tracemalloc
from math import exp, factorial, sqrt

import numpy as np
import pytest

from empint import chaos
from empint.chaos import (ChaosCoefficients, EnumerationRefused, _fwht,
                          chaos_moment_bound, chaos_s, chaos_tail_bound,
                          chaos_value, chaos_values_all_signs,
                          exact_chaos_moment, exact_chaos_tail,
                          optimal_q_tail, symmetrized_s_bar_squared)
from empint.cli import run
from empint.spaces import stream_rng


def _coeffs(n, k, idx, vals):
    return ChaosCoefficients(n=n, k=k, index_tuples=np.array(idx),
                             values=np.array(vals, dtype=float))


def _random_coeffs(n, k, seed, max_terms=12):
    rng = stream_rng(seed, 0)
    pool = [t for t in itertools.permutations(range(n), k)]
    T = min(max_terms, len(pool))
    pick = rng.choice(len(pool), size=T, replace=False)
    return _coeffs(n, k, [pool[i] for i in pick], rng.standard_normal(T))


def test_chaos_value_k1_all_ones():
    c = _coeffs(5, 1, [[j] for j in range(5)], np.ones(5))
    assert chaos_value(c, np.ones(5)) == pytest.approx(5.0)


def test_chaos_value_homogeneity_under_global_flip():
    for k in (1, 2, 3):
        c = _random_coeffs(5, k, seed=k)
        signs = np.where(stream_rng(7, k).random(5) < 0.5, -1.0, 1.0)
        assert chaos_value(c, -signs) == pytest.approx(
            (-1.0) ** k * chaos_value(c, signs), abs=1e-12)


def test_chaos_value_hand_expanded_k2():
    pairs = list(itertools.permutations(range(3), 2))
    c = _coeffs(3, 2, pairs, np.ones(6))
    assert chaos_value(c, np.array([1.0, 1.0, -1.0])) == pytest.approx(-2.0)


def test_chaos_value_affine_in_each_sign():
    c = _random_coeffs(6, 2, seed=3)
    signs = np.ones(6)
    for j in range(6):
        lo, mid, hi = [], [], []
        for v, acc in ((-1.0, lo), (0.0, mid), (1.0, hi)):
            s = signs.copy()
            s[j] = v
            acc.append(chaos_value(ChaosCoefficients(
                n=6, k=2, index_tuples=c.index_tuples, values=c.values), s))
        assert mid[0] == pytest.approx((lo[0] + hi[0]) / 2, abs=1e-12)


def test_chaos_value_affine_check_uses_pm_one_signs_only_in_api():
    # chaos_value itself accepts arbitrary reals; the affinity test above
    # exploits that deliberately.
    c = _coeffs(2, 1, [[0], [1]], [2.0, 3.0])
    assert chaos_value(c, np.array([0.5, 1.0])) == pytest.approx(4.0)


def test_rejects_repeated_index_tuples():
    # a repeated index inside a tuple, and one ordered tuple listed twice
    for idx in ([[1, 1]], [[0, 1], [0, 1]]):
        with pytest.raises(ValueError):
            _coeffs(4, 2, idx, [1.0] * len(idx))


def test_rejects_fractional_index_tuples():
    # a cast to int would truncate [0.5, 1.9] to the tuple (0, 1) of another chaos
    with pytest.raises(ValueError, match="index tuples must hold integers"):
        ChaosCoefficients(n=4, k=2, index_tuples=[[0.5, 1.9], [2, 3]], values=[1, 2])
    empty = ChaosCoefficients(n=4, k=2, index_tuples=[], values=[])
    assert empty.index_tuples.shape == (0, 2)
    assert empty.index_tuples.dtype == np.int64


def test_empty_chaos_is_zero_at_every_sign_vector():
    empty = ChaosCoefficients(n=4, k=2, index_tuples=[], values=[])
    assert np.array_equal(chaos_values_all_signs(empty), np.zeros(16))
    assert exact_chaos_tail(empty, [-1.0, 0.0]).tolist() == [1.0, 0.0]


def test_chaos_audit_repeated_tuple_exits_2(tmp_path, capsys):
    """A tuple listed twice would undercount S and overlay a wrong bound."""
    cfg = {"experiment": "chaos_audit", "seed": 0, "n": 4, "k": 2,
           "coefficients": {"index_tuples": [[0, 1]] * 100,
                            "values": [1.0] * 100},
           "x_grid": [0.0, 99.0]}
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(cfg))
    assert run(str(path), str(tmp_path / "out")) == 2
    assert capsys.readouterr().err.startswith("config error: coefficients: ")
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_rejects_non_finite_values(bad):
    with pytest.raises(ValueError):
        _coeffs(4, 2, [[0, 1], [1, 2]], [1.0, bad])


def test_rejects_values_whose_sum_of_squares_overflows():
    with pytest.raises(ValueError, match="sum of squared"):
        _coeffs(4, 2, [[0, 1], [1, 2]], [1e300, -1.0])


def test_chaos_s_examples():
    assert chaos_s(_coeffs(3, 1, np.empty((0, 1), dtype=int), [])) == 0.0
    assert chaos_s(_coeffs(4, 2, [[0, 1]], [3.0])) == pytest.approx(3.0)
    assert chaos_s(_coeffs(2, 1, [[0], [1]], [3.0, 4.0])) == pytest.approx(5.0)


def test_tail_bound_capped_at_one():
    assert chaos_tail_bound(0.0, 1.0, 2) == 1.0


def test_tail_bound_k1_arithmetic():
    B = 1.0 / (2 * np.e)
    want = min(1.0, np.e * exp(-B * 100.0))
    assert chaos_tail_bound(10.0, 1.0, 1) == pytest.approx(want, rel=1e-12)


def test_tail_bound_monotone_in_x():
    xs = np.linspace(0, 20, 50)
    vals = [chaos_tail_bound(float(x), 2.0, 2) for x in xs]
    assert all(a >= b - 1e-15 for a, b in zip(vals, vals[1:]))


def test_tail_bound_degenerate_s():
    assert chaos_tail_bound(0.0, 0.0, 1) == 1.0
    assert chaos_tail_bound(0.5, 0.0, 1) == 0.0


def test_moment_bound_identity_case():
    assert chaos_moment_bound(2.0, 2.0, 3, 1.7) == pytest.approx(1.7)


def test_moment_bound_p2_q4_k1():
    m2 = 0.8
    assert chaos_moment_bound(2.0, 4.0, 1, m2) == pytest.approx(9.0 * m2 ** 2)


def test_moment_bound_nondecreasing_in_q():
    vals = [chaos_moment_bound(2.0, q, 2, 1.3) for q in (2.0, 3.0, 4.0, 6.0)]
    assert all(a <= b + 1e-15 for a, b in zip(vals, vals[1:]))


def test_moment_bound_rejects_bad_p():
    with pytest.raises(ValueError):
        chaos_moment_bound(1.0, 2.0, 1, 1.0)


def test_exact_tail_negative_x():
    c = _coeffs(2, 1, [[0], [1]], [1.0, 1.0])
    assert exact_chaos_tail(c, -0.5) == 1.0


def test_exact_tail_above_max():
    c = _random_coeffs(6, 2, seed=5)
    zmax = float(np.max(np.abs(chaos_values_all_signs(c))))
    assert exact_chaos_tail(c, zmax + 1e-9) == 0.0


def test_exact_tail_two_coin_case():
    c = _coeffs(2, 1, [[0], [1]], [1.0, 1.0])
    assert exact_chaos_tail(c, 1.5) == pytest.approx(0.5)


def test_array_tail_matches_scalar_calls_and_direct_count():
    cases = [_random_coeffs(6, 1, seed=70), _random_coeffs(8, 2, seed=71),
             _random_coeffs(9, 3, seed=72),
             _coeffs(5, 2, list(itertools.permutations(range(5), 2)), np.ones(20))]
    for c in cases:
        a = np.abs(chaos_values_all_signs(c))
        # every attained |Z| (ties included), 0, max |Z|, and negative x
        xs = np.concatenate([np.unique(a), [0.0, -0.0, a.max(), -0.5, -np.inf,
                                            a.max() + 1.0]])
        tails = exact_chaos_tail(c, xs)
        assert tails.shape == xs.shape
        for x, p in zip(xs.tolist(), tails.tolist()):
            assert p == exact_chaos_tail(c, x)
            assert p == np.count_nonzero(a > x) / a.size


def _no_enumeration(coeffs):
    raise AssertionError("enumerated all sign vectors")


def test_negative_x_tails_enumerate_nothing(monkeypatch):
    monkeypatch.setattr(chaos, "chaos_values_all_signs", _no_enumeration)
    c = _coeffs(2, 1, [[0], [1]], [1.0, 1.0])
    assert exact_chaos_tail(c, -0.5) == 1.0
    assert exact_chaos_tail(c, np.array([-2.0, -1.0])).tolist() == [1.0, 1.0]
    assert exact_chaos_tail(c, np.array([])).size == 0


def test_chaos_audit_enumerates_once(tmp_path, monkeypatch):
    calls = []

    def counted(coeffs):
        calls.append(coeffs.n)
        return chaos_values_all_signs(coeffs)
    monkeypatch.setattr(chaos, "chaos_values_all_signs", counted)
    c = _random_coeffs(10, 2, seed=73, max_terms=30)
    cfg = {"experiment": "chaos_audit", "seed": 0, "n": 10, "k": 2,
           "coefficients": {"index_tuples": c.index_tuples.tolist(),
                            "values": c.values.tolist()},
           "x_grid": {"start": 0.0, "stop": 10.0, "points": 16}}
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(cfg))
    assert run(str(path), str(tmp_path / "out")) == 0
    assert calls == [10]
    rows = (tmp_path / "out" / "curve.csv").read_text().splitlines()[1:]
    assert len(rows) == 16


def test_enumeration_refused():
    c = _coeffs(25, 1, [[0]], [1.0])
    with pytest.raises(EnumerationRefused):
        chaos_values_all_signs(c)


def _fwht_concatenate(v):
    """The out-of-place transform that _fwht replaced, kept as its reference."""
    v = v.copy()
    h = 1
    while h < v.size:
        v = v.reshape(-1, 2 * h)
        v = np.concatenate([v[:, :h] + v[:, h:], v[:, :h] - v[:, h:]], axis=1)
        h *= 2
    return v.ravel()


def test_in_place_fwht_is_bit_identical_to_concatenate_transform(monkeypatch):
    # the shipped block up to n = 20 (below, at and above one block), then
    # small blocks and transposes: several blocks and chunked top levels
    rng = stream_rng(60, 0)
    paths = [(chaos.FWHT_BLOCK, chaos.FWHT_LOW, range(21))]
    paths += [(block, low, range(13)) for block in (1, 2, 4, 16) for low in (2, 8)]
    for block, low, sizes in paths:
        monkeypatch.setattr(chaos, "FWHT_BLOCK", block)
        monkeypatch.setattr(chaos, "FWHT_LOW", low)
        for n in sizes:
            v = rng.standard_normal(1 << n) * 10.0 ** rng.integers(-8, 9, 1 << n)
            buf = v.copy()
            out = _fwht(buf)
            assert np.shares_memory(out, buf)
            assert np.array_equal(out, _fwht_concatenate(v))


def test_enumeration_holds_one_output_and_one_block():
    c = _random_coeffs(20, 2, seed=61, max_terms=200)
    tracemalloc.start()
    try:
        z = chaos_values_all_signs(c)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= z.nbytes + (2 << 20)


def test_fwht_matches_direct_evaluation():
    for k in (1, 2, 3):
        c = _random_coeffs(8, k, seed=20 + k)
        z = chaos_values_all_signs(c)
        rng = stream_rng(99, k)
        for _ in range(10):
            b = int(rng.integers(0, 1 << 8))
            signs = np.array([-1.0 if (b >> j) & 1 else 1.0 for j in range(8)])
            assert z[b] == pytest.approx(chaos_value(c, signs), abs=1e-10)


def test_exact_moment_q2_k1_is_sum_of_squares():
    c = _coeffs(3, 1, [[0], [1], [2]], [1.0, -2.0, 0.5])
    assert exact_chaos_moment(c, 2.0) == pytest.approx(1 + 4 + 0.25)


def test_exact_moment_q2_matches_symmetrized_size():
    c = _random_coeffs(4, 2, seed=31)
    sbar2 = symmetrized_s_bar_squared(c)
    assert exact_chaos_moment(c, 2.0) == pytest.approx(sbar2, abs=1e-10)
    assert sbar2 <= factorial(2) * chaos_s(c) ** 2 + 1e-12


def test_mean_zero_exactly():
    for k in (1, 2):
        c = _random_coeffs(6, k, seed=40 + k)
        assert np.mean(chaos_values_all_signs(c)) == pytest.approx(0.0, abs=1e-10)


def test_exact_moment_nonnegative():
    c = _random_coeffs(5, 2, seed=50)
    assert exact_chaos_moment(c, 3.7) >= 0.0


def test_optimal_q_large_x_matches_unprefixed_bound():
    x, S, k = 50.0, 1.0, 2
    q, bound = optimal_q_tail(x, S, k)
    assert q >= 2
    B = k / (2 * np.e * factorial(k) ** (1.0 / k))
    assert bound == pytest.approx(exp(-B * (x / S) ** (2.0 / k)), rel=1e-12)
    assert chaos_tail_bound(x, S, k) == pytest.approx(min(1.0, exp(k) * bound), rel=1e-12)


def test_optimal_q_small_regime_flagged():
    q, bound = optimal_q_tail(0.1, 1.0, 1)
    assert q < 2
    assert bound == 1.0


def test_optimal_q_boundary_continuity():
    # k = 1: q = 2 exactly at x/S = sqrt(2e)
    x = sqrt(2 * np.e)
    q, bound = optimal_q_tail(x, 1.0, 1)
    assert q == pytest.approx(2.0, rel=1e-12)
    # at the boundary the bound equals e^{-1}; the capped tail bound differs
    # from it by exactly the e^k prefactor
    assert bound == pytest.approx(exp(-1.0), rel=1e-12)
    assert chaos_tail_bound(x, 1.0, 1) == pytest.approx(min(1.0, np.e * bound), rel=1e-12)


def test_tail_bound_soundness_small_scan():
    for k in (1, 2, 3):
        for n in (6, 8, 10):
            for seed in range(5):
                c = _random_coeffs(n, k, seed=seed)
                z = np.abs(chaos_values_all_signs(c))
                S = chaos_s(c)
                for x in np.linspace(0, float(z.max()), 12):
                    p = float(np.count_nonzero(z > x)) / z.size
                    assert p <= chaos_tail_bound(float(x), S, k) + 1e-12


def test_from_dense_drops_diagonal_and_zeros():
    a = np.arange(9, dtype=float).reshape(3, 3)
    c = ChaosCoefficients.from_dense(a)
    assert c.index_tuples.shape[1] == 2
    assert not any(i == j for i, j in c.index_tuples)
    assert 0.0 not in c.values


def _from_dense_by_pair_loop(a):
    """Reference for from_dense: a pair loop filters the C-order index
    list down to pairwise-distinct tuples with nonzero entries."""
    k, n = a.ndim, a.shape[0]
    idx = np.indices(a.shape).reshape(k, -1).T
    distinct = np.ones(idx.shape[0], dtype=bool)
    for i in range(k):
        for j in range(i + 1, k):
            distinct &= idx[:, i] != idx[:, j]
    flat = a.ravel()
    keep = distinct & (flat != 0.0)
    return ChaosCoefficients(n=n, k=k, index_tuples=idx[keep], values=flat[keep])


@pytest.mark.parametrize("n, k", [(1, 1), (4, 1), (5, 2), (6, 3), (5, 4)])
def test_from_dense_equals_pair_loop(n, k):
    rng = stream_rng(n, k)
    a = rng.standard_normal((n,) * k)
    a[rng.random(a.shape) < 0.3] = 0.0  # zeros off the diagonal are dropped
    got = ChaosCoefficients.from_dense(a)
    ref = _from_dense_by_pair_loop(a)
    assert np.array_equal(got.index_tuples, ref.index_tuples)
    assert np.array_equal(got.values, ref.values)
    assert np.array_equal(chaos_values_all_signs(got), chaos_values_all_signs(ref))
