import itertools
import json
import types
from math import factorial

import numpy as np
import pytest

from empint.chaos import (ChaosCoefficients, chaos_values_all_signs,
                          exact_chaos_tail)
from empint.decomposition import canonicalize
from empint import experiments, spaces, statistics
from empint.cli import _build_family
from empint.kernels import BoxRestrictionFamily, KernelFunction, \
    interval_family, l2_norm, singleton_family
from empint.spaces import draw_sample, finite_space, stream_rng, uniform_space
from empint.statistics import (STREAMS_PER_DRAW, distinct_weights,
                               draw_bundle, enumerate_configurations,
                               multiple_integral_j)
from empint.experiments import (TooFewQualifyingPoints, _member_matrix,
                                conditional_chaos_coefficients,
                                counterexample_experiment,
                                decoupling_experiment, exponent_fit,
                                mc_sup_tail, statistic_weights,
                                symmetrization_experiment, tail_curve,
                                wilson_interval)


def test_wilson_interval_basic():
    lo, hi = wilson_interval(50, 100)
    assert lo < 0.5 < hi
    lo0, hi0 = wilson_interval(0, 100)
    assert lo0 == pytest.approx(0.0, abs=1e-12)
    assert 0 < hi0 < 0.05
    with pytest.raises(ValueError):
        wilson_interval(0, 0)


def test_tail_curve_from_maxima():
    curve = tail_curve(np.array([0.1, 0.4, 0.9, 1.5]), [0.0, 0.5, 1.0, 2.0])
    # the record report.json prints: lists of floats and an int, unchanged
    # by a JSON round trip
    assert type(curve["replications"]) is int
    for key in ("x_grid", "probs", "ci_lo", "ci_hi"):
        assert all(type(v) is float for v in curve[key]) and type(curve[key]) is list
    assert json.loads(json.dumps(curve)) == curve
    probs, ci_lo, ci_hi = (np.array(curve[key]) for key in ("probs", "ci_lo", "ci_hi"))
    assert np.allclose(probs, [1.0, 0.5, 0.25, 0.0])
    assert np.all(np.diff(probs) <= 0)
    assert np.all((probs >= 0) & (probs <= 1))
    assert np.all(ci_lo <= probs + 1e-12)
    assert np.all(ci_hi >= probs - 1e-12)


def test_tail_conventions_on_integer_values():
    """tail_curve counts maxima >= x and exact_chaos_tail counts |Z| > x;
    the two differ where a value equals x."""
    curve = tail_curve(np.array([0.0, 2.0, 2.0, 0.0]), [0.0, 2.0, 3.0])
    assert curve["probs"] == [1.0, 0.5, 0.0]
    assert (curve["ci_lo"][1], curve["ci_hi"][1]) == wilson_interval(2, 4)
    # eps_0 eps_1 + eps_1 eps_2 is +-2 or 0, each |Z| with probability 1/2
    coeffs = ChaosCoefficients(n=3, k=2,
                               index_tuples=np.array([[0, 1], [1, 2]]),
                               values=np.ones(2))
    assert exact_chaos_tail(coeffs, 0.0) == 0.5
    assert exact_chaos_tail(coeffs, 2.0) == 0.0


def _canonical_singleton(m, k, seed, space):
    f = canonicalize(KernelFunction(
        np.random.default_rng(seed).standard_normal((m,) * k)), space)
    return singleton_family(f, sigma=min(1.0, l2_norm(f, space)))


def test_mc_sup_tail_zero_family():
    sp = uniform_space(3)
    fam = singleton_family(KernelFunction(np.zeros(3)))
    curve = mc_sup_tail(fam, sp, 20, 1, "J", [0.1, 0.5], 50, seed=1)
    assert curve["probs"] == [0.0, 0.0]


def test_mc_sup_tail_prob_one_at_zero():
    sp = uniform_space(3)
    fam = _canonical_singleton(3, 1, 2, sp)
    curve = mc_sup_tail(fam, sp, 20, 1, "J", [0.0, 0.2], 50, seed=2)
    assert curve["probs"][0] == 1.0


def test_mc_sup_tail_monotone():
    sp = uniform_space(4)
    fam = _canonical_singleton(4, 2, 3, sp)
    curve = mc_sup_tail(fam, sp, 32, 2, "I", np.linspace(0, 10, 15), 200, seed=3)
    assert np.all(np.diff(curve["probs"]) <= 1e-15)


def test_mc_sup_tail_against_exact_enumeration():
    """m=2, n=10 singleton: the exhaustive 2^10-configuration oracle's tail
    value lies inside the Monte Carlo Wilson interval at x = 2 sigma."""
    sp = finite_space([0.5, 0.5])
    f = KernelFunction(np.array([1.0, -1.0]))
    sigma = l2_norm(f, sp)
    x = 2 * sigma
    exact = 0.0
    for vals, prob in enumerate_configurations(sp, 10):
        if abs(multiple_integral_j(f, vals, sp)) >= x:
            exact += prob
    fam = singleton_family(f, sigma=1.0)
    curve = mc_sup_tail(fam, sp, 10, 1, "J", [x], 4000, seed=33)
    assert curve["ci_lo"][0] <= exact <= curve["ci_hi"][0]


def test_mc_sup_tail_worker_independence():
    sp = uniform_space(4)
    fam = _canonical_singleton(4, 2, 5, sp)
    grid = np.linspace(0, 4, 9)
    a = mc_sup_tail(fam, sp, 32, 2, "J", grid, 120, seed=5, workers=1)
    b = mc_sup_tail(fam, sp, 32, 2, "J", grid, 120, seed=5, workers=8)
    assert a["probs"] == b["probs"]
    assert a["ci_lo"] == b["ci_lo"]


@pytest.mark.parametrize("k, kinds", [(1, ("J", "I", "decoupled-I", "increment",
                                          "randomized-J")),
                                      (2, ("J", "I", "decoupled-I"))])
def test_supremum_over_unique_tables_equals_full_member_matrix(k, kinds):
    """Dropping duplicate rows leaves every maximum bit for bit the same."""
    sp = finite_space([0.05, 0.2, 0.1, 0.25, 0.1, 0.3])
    base = np.zeros((6,) * k)
    base[(slice(1, 4),) * k] = stream_rng(12, 0).uniform(-1, 1, size=(3,) * k)
    fam = BoxRestrictionFamily(KernelFunction(base), 6)
    unique = _member_matrix(fam)
    full = np.array([f.table.ravel() for f in fam.members])
    assert unique.shape[0] * 3 < full.shape[0]
    for r in range(25):
        draw = draw_bundle(sp, 30, k, 41, replica=r)
        for kind in kinds:
            w = statistic_weights(kind, draw)
            if kind == "increment":
                assert np.max(unique @ w) == np.max(full @ w)
            else:
                assert np.max(np.abs(unique @ w)) == np.max(np.abs(full @ w))


def test_mc_sup_tail_box_family_worker_independence():
    sp = uniform_space(5)
    base = KernelFunction(stream_rng(6, 0).uniform(-1, 1, size=(5, 5)))
    fam = BoxRestrictionFamily(base, 5)
    grid = np.linspace(0, 100, 11)
    a = mc_sup_tail(fam, sp, 24, 2, "decoupled-I", grid, 90, seed=2, workers=1)
    b = mc_sup_tail(fam, sp, 24, 2, "decoupled-I", grid, 90, seed=2, workers=3)
    assert 0 < a["probs"][5] < 1
    for name in ("probs", "ci_lo", "ci_hi"):
        assert a[name] == b[name]


def test_process_pool_is_sized_to_the_blocks(monkeypatch):
    """More workers than replications opens one process per block, not one
    per requested worker (a fake pool records the size and runs inline)."""
    sizes = []

    class InlinePool:
        def __init__(self, max_workers):
            sizes.append(max_workers)

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        def map(self, fn, tasks):
            return map(fn, tasks)

    monkeypatch.setattr(experiments, "ProcessPoolExecutor", InlinePool)
    sp = uniform_space(4)
    fam = interval_family(0.5, 4)
    grid = [0.0, 0.5, 1.0]
    a = mc_sup_tail(fam, sp, 20, 1, "J", grid, 2, seed=3, workers=64)
    b = mc_sup_tail(fam, sp, 20, 1, "J", grid, 2, seed=3, workers=1)
    mc_sup_tail(fam, sp, 20, 1, "J", grid, 7, seed=3, workers=3)
    assert sizes == [2, 3]
    assert a["probs"] == b["probs"]


@pytest.mark.parametrize("experiment", [
    lambda workers: symmetrization_experiment(
        interval_family(0.5, 8), uniform_space(8), 32, 0.3, 30, seed=2,
        workers=workers),
    lambda workers: decoupling_experiment(
        _canonical_singleton(4, 2, 9, uniform_space(4)), uniform_space(4), 24,
        2, [0.0, 0.5, 1.0, 2.0], 30, seed=3, workers=workers),
    lambda workers: counterexample_experiment(0.5, 64, 0.3, 30, seed=4,
                                              workers=workers),
], ids=["symmetrization", "decoupling", "counterexample"])
def test_experiment_worker_independence(experiment):
    (record1, curve1), (record3, curve3) = experiment(1), experiment(3)
    assert record3 == record1
    assert curve3 == curve1


def test_mc_sup_tail_validations():
    sp = uniform_space(3)
    fam = _canonical_singleton(3, 1, 1, sp)
    with pytest.raises(ValueError):
        mc_sup_tail(fam, sp, 10, 1, "J", [0.5], 0, seed=1)
    with pytest.raises(ValueError):
        mc_sup_tail(fam, sp, 10, 2, "J", [0.5], 5, seed=1)
    with pytest.raises(ValueError):
        mc_sup_tail(fam, sp, 10, 1, "V-statistic", [0.5], 5, seed=1)


def _eager_draw(space, n, k, seed, replica):
    """Every field of a replica drawn up front on its documented stream id."""
    b = replica * STREAMS_PER_DRAW
    u = stream_rng(seed, b + 1 + 2 * k).random(n)
    return types.SimpleNamespace(
        space=space, k=k,
        base=draw_sample(space, n, seed, b),
        decoupled=tuple(draw_sample(space, n, seed, b + 1 + s) for s in range(k)),
        mirrored=tuple(draw_sample(space, n, seed, b + 1 + k + s) for s in range(k)),
        signs=np.where(u < 0.5, -1.0, 1.0))


@pytest.mark.parametrize("k, kind", [(1, "J"), (1, "I"), (2, "J"), (2, "I"),
                                     (2, "decoupled-I")])
def test_mc_sup_tail_equals_eager_stream_reference(k, kind):
    sp = finite_space([0.05, 0.2, 0.0, 0.25, 0.1, 0.4])
    if k == 1:
        fam = interval_family(0.5, 6)
    else:
        base = KernelFunction(stream_rng(8, 0).uniform(-1, 1, size=(6, 6)))
        fam = BoxRestrictionFamily(base, 6)
    n, reps, seed = 40, 60, 19
    F = _member_matrix(fam)
    maxima = np.array([
        np.max(np.abs(F @ statistic_weights(kind, _eager_draw(sp, n, k, seed, r))))
        for r in range(reps)])
    grid = np.unique(maxima)  # every replication's maximum is a grid point
    curve = mc_sup_tail(fam, sp, n, k, kind, grid, reps, seed)
    expected = tail_curve(maxima, grid)
    assert curve["probs"] == expected["probs"]
    assert curve["ci_lo"] == expected["ci_lo"]


@pytest.fixture
def opened_streams(monkeypatch):
    """Stream ids opened through stream_rng, in order."""
    opened = []
    real = spaces.stream_rng

    def counting(seed, stream_id):
        opened.append(stream_id)
        return real(seed, stream_id)
    monkeypatch.setattr(spaces, "stream_rng", counting)
    monkeypatch.setattr(statistics, "stream_rng", counting)
    return opened


def _per_replica(opened, reps):
    per = [sorted(i - r * STREAMS_PER_DRAW for i in opened
                  if i // STREAMS_PER_DRAW == r) for r in range(reps)]
    assert sum(map(len, per)) == len(opened)
    return per


@pytest.mark.parametrize("k, kind, streams", [
    (1, "J", [0]), (1, "I", [0]), (1, "decoupled-I", [1]),
    (2, "J", [0]), (2, "I", [0]), (2, "decoupled-I", [1, 2])])
def test_sup_tail_opens_only_the_streams_it_reads(opened_streams, k, kind, streams):
    sp = uniform_space(4)
    fam = _canonical_singleton(4, k, 6, sp)
    mc_sup_tail(fam, sp, 12, k, kind, [0.5], 7, seed=2)
    assert _per_replica(opened_streams, 7) == [streams] * 7


def test_experiments_open_only_the_streams_they_read(opened_streams):
    sp = uniform_space(4)
    counterexample_experiment(0.5, 32, 0.1, 5, seed=1)
    assert _per_replica(opened_streams, 5) == [[0]] * 5
    opened_streams.clear()
    fam = _canonical_singleton(4, 1, 7, sp)
    symmetrization_experiment(fam, sp, 12, 0.5, 5, seed=1)
    assert _per_replica(opened_streams, 5) == [[0, 3]] * 5  # base and signs
    opened_streams.clear()
    fam = _canonical_singleton(4, 2, 8, sp)
    decoupling_experiment(fam, sp, 12, 2, [0.5], 5, seed=1)
    assert _per_replica(opened_streams, 5) == [[0, 1, 2]] * 5


# --- symmetrization --------------------------------------------------------

def test_symmetrization_zero_family():
    sp = uniform_space(3)
    fam = singleton_family(KernelFunction(np.zeros(3)))
    res, _ = symmetrization_experiment(fam, sp, 16, 0.5, 100, seed=4)
    assert res["lhs"] == 0.0
    assert res["rhs"] == 0.0


def test_symmetrization_cap_at_x_zero():
    sp = uniform_space(3)
    fam = _canonical_singleton(3, 1, 6, sp)
    res, _ = symmetrization_experiment(fam, sp, 16, 0.0, 100, seed=6)
    assert res["lhs"] == 1.0
    assert res["rhs"] == 1.0  # min(1, 4 * 1)


def test_symmetrization_population_inequality_with_slack():
    fam = interval_family(0.25, 16)
    sp = uniform_space(16)
    res, _ = symmetrization_experiment(fam, sp, 1024, 0.35, 2000, seed=7)
    # population inequality plus both confidence slacks
    assert res["lhs_interval"][0] <= res["rhs_interval"][1] + 1e-12


_ZERO_ATOM = finite_space([0.05, 0.2, 0.0, 0.25, 0.1, 0.4])
_ZERO_ATOM_LAST = finite_space([0.1, 0.2, 0.3, 0.4, 0.0])


@pytest.mark.parametrize("family, space, merged", [
    (interval_family(0.5, 6), _ZERO_ATOM, 0),
    (BoxRestrictionFamily(KernelFunction(stream_rng(8, 0).uniform(-1, 1, size=6)), 6),
     _ZERO_ATOM, 0),
    (_build_family({"kind": "random-canonical", "count": 4, "kernel_seed": 3},
                   "family", _ZERO_ATOM_LAST, 1), _ZERO_ATOM_LAST, 0),
    # centring merges the full and the empty window into one zero table
    (interval_family(1.0, 4), uniform_space(4), 1),
    (interval_family(1.0, 4), finite_space([0.1, 0.2, 0.3, 0.4]), 1),
], ids=["interval", "box", "random-canonical", "interval-full", "interval-full-skewed"])
def test_symmetrization_maxima_equal_the_centred_family_reference(family, space,
                                                                  merged):
    """Both sides carry their centring on the weights: sup |J| and its
    sign-randomized twin equal n^{-1/2} times the suprema of the plain and
    sign-weighted counts over the distinct centred tables f - mu f."""
    n, reps, seed = 60, 40, 23
    F = _member_matrix(family)
    centred = np.unique(F - (F @ space.weights)[:, None] + 0.0, axis=0)
    assert centred.shape[0] == F.shape[0] - merged
    want = np.empty((reps, 2))
    for r in range(reps):
        draw = draw_bundle(space, n, 1, seed, replica=r)
        counts = distinct_weights([draw.base], space.m)
        signed = distinct_weights([draw.base], space.m, draw.signs)
        want[r] = [np.max(np.abs(centred @ counts)),
                   np.max(np.abs(centred @ signed))]
    want /= np.sqrt(n)
    got = experiments._run_blocks(
        (family, space, n, 1, ("J", "randomized-J"), seed), reps, 1)
    np.testing.assert_allclose(got, want, rtol=1e-12, atol=0)


def test_randomized_j_is_defined_at_k1_only():
    draw = draw_bundle(uniform_space(3), 10, 2, seed=1)
    with pytest.raises(ValueError, match="randomized-J"):
        statistic_weights("randomized-J", draw)


def test_symmetrization_rejects_k2():
    sp = uniform_space(3)
    fam = _canonical_singleton(3, 2, 6, sp)
    with pytest.raises(ValueError):
        symmetrization_experiment(fam, sp, 16, 0.5, 50, seed=1)


# --- decoupling ------------------------------------------------------------

def test_decoupling_zero_family():
    sp = uniform_space(3)
    fam = singleton_family(KernelFunction(np.zeros((3, 3))))
    res, _ = decoupling_experiment(fam, sp, 16, 2, [0.1, 0.5], 50, seed=8)
    assert np.all(np.array(res["coupled"]["probs"]) == 0.0)
    assert np.all(np.array(res["decoupled"]["probs"]) == 0.0)


def test_decoupling_deterministic_per_seed():
    sp = uniform_space(4)
    fam = _canonical_singleton(4, 2, 9, sp)
    grid = [0.0, 0.5, 1.0]
    a, _ = decoupling_experiment(fam, sp, 24, 2, grid, 100, seed=9)
    b, _ = decoupling_experiment(fam, sp, 24, 2, grid, 100, seed=9)
    assert np.array_equal(a["coupled"]["probs"], b["coupled"]["probs"])
    assert np.array_equal(a["decoupled"]["probs"], b["decoupled"]["probs"])


def test_decoupling_product_kernel_fixture():
    """Regression fixture from the first verified run (seed 21)."""
    sp = uniform_space(4)
    g = canonicalize(KernelFunction(np.array([0.9, -0.3, 0.1, -0.7])), sp)
    fam = singleton_family(KernelFunction(np.outer(g.table, g.table)), sigma=1.0)
    res, _ = decoupling_experiment(fam, sp, 64, 2, [0.0, 0.25, 0.5, 1.0, 2.0],
                                   2000, seed=21)
    assert np.allclose(res["coupled"]["probs"], [1.0, 0.988, 0.977, 0.9565, 0.913])
    assert np.allclose(res["decoupled"]["probs"], [1.0, 0.9575, 0.916, 0.8425, 0.7105])


def test_decoupling_rejects_k1():
    sp = uniform_space(3)
    fam = _canonical_singleton(3, 1, 1, sp)
    with pytest.raises(ValueError):
        decoupling_experiment(fam, sp, 16, 1, [0.5], 50, seed=1)


# --- counterexample --------------------------------------------------------

def test_counterexample_deterministic():
    a, _ = counterexample_experiment(0.3, 500, 0.5, 40, seed=10)
    b, _ = counterexample_experiment(0.3, 500, 0.5, 40, seed=10)
    assert a["p_low"] == b["p_low"] and a["p_high"] == b["p_high"]


def test_counterexample_thresholds_bracket_x_star():
    res, _ = counterexample_experiment(0.3, 500, 0.25, 20, seed=11)
    assert res["x_low"] == pytest.approx(0.75 * res["x_star"])
    assert res["x_high"] == pytest.approx(1.25 * res["x_star"])
    assert res["p_low"] >= res["p_high"]


def test_counterexample_weak_separation_at_large_sigma():
    # near sigma = 1 the family is a single large interval; no small-interval
    # effect, so the two probabilities stay comparable
    res, _ = counterexample_experiment(0.9, 400, 0.5, 60, seed=12)
    assert 0.0 <= res["p_high"] <= res["p_low"] <= 1.0


def test_counterexample_validations():
    with pytest.raises(ValueError):
        counterexample_experiment(0.3, 500, 1.5, 10, seed=1)
    with pytest.raises(ValueError):
        counterexample_experiment(0.1, 50, 0.5, 10, seed=1)  # n sigma^2 too small


# --- exponent fitting ------------------------------------------------------

def _synthetic_curve(fn, xs):
    probs = [float(fn(x)) for x in xs]
    return {"x_grid": [float(x) for x in xs], "probs": probs, "ci_lo": probs,
            "ci_hi": probs, "replications": 10 ** 6}


def test_exponent_fit_gaussian_shape():
    xs = np.linspace(0.9, 2.5, 12)
    slope, stderr = exponent_fit(_synthetic_curve(lambda x: np.exp(-x ** 2), xs))
    assert slope == pytest.approx(2.0, abs=1e-9)
    assert stderr == pytest.approx(0.0, abs=1e-6)


def test_exponent_fit_exponential_shape():
    xs = np.linspace(0.8, 6.0, 12)
    slope, _ = exponent_fit(_synthetic_curve(lambda x: np.exp(-x), xs))
    assert slope == pytest.approx(1.0, abs=1e-9)


def test_exponent_fit_too_few_points():
    xs = [0.5, 1.0, 2.0]
    with pytest.raises(TooFewQualifyingPoints):
        exponent_fit(_synthetic_curve(lambda x: np.exp(-x ** 2), xs))


# --- linkage to Rademacher chaos ------------------------------------------

def _randomized_decoupled(f, draw, signs):
    """Decoupled U-statistic with each term weighted by its row signs."""
    cols = [draw.decoupled[s] for s in range(f.k)]
    w = distinct_weights(cols, f.m, signs)
    return float(f.table.ravel() @ w.ravel())


def test_conditional_statistic_is_a_chaos():
    sp = uniform_space(3)
    for k in (1, 2):
        draw = draw_bundle(sp, 6, k, seed=13)
        f = KernelFunction(np.random.default_rng(13).standard_normal((3,) * k))
        coeffs = conditional_chaos_coefficients(f, draw.decoupled)
        for bits in itertools.islice(itertools.product((-1.0, 1.0), repeat=6), 16):
            from empint.chaos import chaos_value
            assert _randomized_decoupled(f, draw, np.array(bits)) == pytest.approx(
                chaos_value(coeffs, np.array(bits)), abs=1e-10)


def test_conditional_tail_matches_exact_enumeration():
    """Conditionally on the sample, the randomized statistic's sign-tail
    equals the exact chaos tail."""
    sp = uniform_space(3)
    n, k = 8, 2
    draw = draw_bundle(sp, n, k, seed=14)
    f = KernelFunction(np.random.default_rng(14).standard_normal((3, 3)))
    coeffs = conditional_chaos_coefficients(f, draw.decoupled)
    values = []
    for bits in itertools.product((-1.0, 1.0), repeat=n):
        values.append(abs(_randomized_decoupled(f, draw, np.array(bits))))
    values = np.array(values)
    for x in (0.0, 0.2, 0.5, 1.0):
        direct = float(np.count_nonzero(values > x)) / values.size
        assert exact_chaos_tail(coeffs, x) == pytest.approx(direct, abs=1e-12)


def _conditional_chaos_by_permutations(f, draw):
    """Reference for conditional_chaos_coefficients: one coefficient per
    ordered distinct index tuple from itertools.permutations, zeros
    included."""
    k, n = f.k, draw.n
    idx, vals = [], []
    for tup in itertools.permutations(range(n), k):
        point = tuple(draw.decoupled[s][tup[s]] for s in range(k))
        idx.append(tup)
        vals.append(f.table[point] / factorial(k))
    return ChaosCoefficients(n=n, k=k,
                             index_tuples=np.array(idx, dtype=np.int64).reshape(-1, k),
                             values=np.array(vals))


@pytest.mark.parametrize("k, n", [(1, 5), (2, 6), (3, 6), (4, 5)])
def test_conditional_chaos_equals_permutation_loop(k, n):
    sp = uniform_space(3)
    draw = draw_bundle(sp, n, k, seed=20 + k)
    table = np.random.default_rng(k).standard_normal((3,) * k)
    table[np.random.default_rng(k + 10).random(table.shape) < 0.3] = 0.0
    f = KernelFunction(table)
    got = conditional_chaos_coefficients(f, draw.decoupled)
    ref = _conditional_chaos_by_permutations(f, draw)
    nonzero = ref.values != 0.0
    assert 0 < nonzero.sum() < ref.values.size  # the zero-dropping is exercised
    assert np.array_equal(got.index_tuples, ref.index_tuples[nonzero])
    assert np.array_equal(got.values, ref.values[nonzero])
    assert np.array_equal(chaos_values_all_signs(got), chaos_values_all_signs(ref))
