import dataclasses
import itertools
from math import comb, factorial, sqrt

import numpy as np
import pytest

from empint import spaces, statistics
from empint.decomposition import canonicalize
from empint.kernels import KernelFunction
from empint.spaces import (Sample, draw_sample, finite_space, stream_rng,
                           uniform_space)
from empint.statistics import (STREAMS_PER_DRAW, DegenerateSample,
                               ResidualTooLarge, SampleDraw, _partitions,
                               decoupled_u_statistic,
                               derive_expansion_coefficients,
                               distinct_weights, draw_bundle,
                               enumerate_configurations,
                               exact_decoupled_second_moment,
                               exact_u_statistic_moment, h_integral,
                               j_from_expansion, mirrored_contrast,
                               multiple_integral_j, ordered_distinct_tuple_count,
                               randomized_decoupled, u_statistic,
                               validate_expansion)


def _random_kernel(m, k, seed, canonical=False, space=None):
    f = KernelFunction(stream_rng(seed, 0).standard_normal((m,) * k))
    if canonical:
        f = canonicalize(f, space)
    return f


def _sample(values):
    return Sample(values=np.array(values, dtype=np.int64), source_seed=0, stream_id=0)


# --- multiple integral J ---------------------------------------------------

def test_j_zero_kernel():
    sp = uniform_space(3)
    s = draw_sample(sp, 5, seed=1)
    assert multiple_integral_j(KernelFunction(np.zeros((3, 3))), s, sp) == 0.0


def test_j_k1_formula():
    sp = finite_space([0.2, 0.3, 0.5])
    f = _random_kernel(3, 1, 4)
    s = draw_sample(sp, 9, seed=4)
    mean = float(f.table @ sp.weights)
    direct = (f.table[s.values] - mean).sum() / sqrt(9)
    assert multiple_integral_j(f, s, sp) == pytest.approx(direct, abs=1e-12)


def test_j_k2_brute_force_oracle():
    # indicator of the pair (0, 1) on a uniform 3-point space, sample [0, 1]
    sp = uniform_space(3)
    table = np.zeros((3, 3))
    table[0, 1] = 1.0
    s = _sample([0, 1])
    nu = np.array([0.5, 0.5, 0.0]) - sp.weights
    brute = sum(table[x, y] * nu[x] * nu[y]
                for x in range(3) for y in range(3) if x != y)
    expect = 2 ** 1 / factorial(2) * brute
    assert multiple_integral_j(KernelFunction(table), s, sp) == pytest.approx(expect)


def test_j_shape_mismatch():
    with pytest.raises(ValueError):
        multiple_integral_j(KernelFunction(np.zeros((3, 3))),
                            _sample([0, 1]), uniform_space(4))


def test_j_permutation_invariance():
    sp = uniform_space(4)
    f = _random_kernel(4, 2, 11)
    s = draw_sample(sp, 8, seed=11)
    perm = _sample(np.roll(s.values, 3))
    assert multiple_integral_j(f, s, sp) == pytest.approx(
        multiple_integral_j(f, perm, sp), abs=1e-12)


# --- U-statistics ----------------------------------------------------------

def test_u_statistic_symmetric_pairs():
    f = KernelFunction(np.array([[0.0, 2.0, 3.0], [2.0, 0.0, 5.0], [3.0, 5.0, 0.0]]))
    s = _sample([0, 1, 2])
    assert u_statistic(f, s) == pytest.approx(2.0 + 3.0 + 5.0)


def test_u_statistic_constant_counts():
    for n, k in [(4, 1), (5, 2), (6, 3)]:
        f = KernelFunction(np.ones((2,) * k))
        s = _sample([i % 2 for i in range(n)])
        assert u_statistic(f, s) == pytest.approx(comb(n, k))


def test_u_statistic_degenerate_sample():
    with pytest.raises(DegenerateSample):
        u_statistic(KernelFunction(np.zeros((2, 2))), _sample([0]))


@pytest.mark.parametrize("k", [1, 2, 3, 4])
def test_distinct_weights_match_brute_force(k):
    m, n = 3, 6
    rng = stream_rng(30 + k, 0)
    cols = [rng.integers(0, m, size=n) for _ in range(k)]
    signs = np.where(rng.random(n) < 0.5, -1.0, 1.0)
    plain = np.zeros((m,) * k)
    signed = np.zeros((m,) * k)
    for tup in itertools.permutations(range(n), k):
        point = tuple(cols[s][tup[s]] for s in range(k))
        plain[point] += 1.0
        signed[point] += np.prod(signs[list(tup)])
    assert np.allclose(distinct_weights(cols, m), plain / factorial(k),
                       rtol=0, atol=1e-12)
    assert np.allclose(distinct_weights(cols, m, signs), signed / factorial(k),
                       rtol=0, atol=1e-12)


def test_partitions_count_and_mobius_weights():
    for k, bell in zip(range(1, 6), (1, 2, 5, 15, 52)):
        parts = _partitions(k)
        assert len(parts) == bell
        assert len({frozenset(map(frozenset, p)) for p, _ in parts}) == bell
        for p, _ in parts:
            assert sorted(i for block in p for i in block) == list(range(k))
        if k >= 2:
            assert sum(w for _, w in parts) == 0


def test_u_statistic_matches_naive_sum():
    sp = uniform_space(3)
    f = _random_kernel(3, 3, 6)
    s = draw_sample(sp, 6, seed=6)
    naive = sum(f.table[s.values[a], s.values[b], s.values[c]]
                for a, b, c in itertools.permutations(range(6), 3))
    assert u_statistic(f, s) == pytest.approx(naive / factorial(3), abs=1e-10)


def test_u_statistic_zero_mean_exact():
    # canonical kernel: E[I] = 0 by full enumeration of configurations
    sp = finite_space([0.2, 0.3, 0.5])
    f = _random_kernel(3, 2, 8, canonical=True, space=sp)
    assert exact_u_statistic_moment(f, sp, n=4, power=1) == pytest.approx(0.0, abs=1e-12)


def test_u_statistic_permutation_invariance():
    f = _random_kernel(3, 2, 2)
    s = _sample([0, 1, 1, 2, 0])
    assert u_statistic(f, s) == pytest.approx(
        u_statistic(f, _sample([2, 0, 0, 1, 1])), abs=1e-12)


def test_statistic_linearity():
    sp = uniform_space(4)
    f = _random_kernel(4, 2, 3)
    g = _random_kernel(4, 2, 103)
    combo = KernelFunction(2.0 * f.table - 0.5 * g.table)
    s = draw_sample(sp, 7, seed=3)
    draw = draw_bundle(sp, 7, 2, seed=3)
    for stat in (lambda h: u_statistic(h, s),
                 lambda h: multiple_integral_j(h, s, sp),
                 lambda h: decoupled_u_statistic(h, draw),
                 lambda h: randomized_decoupled(h, draw)):
        assert stat(combo) == pytest.approx(2.0 * stat(f) - 0.5 * stat(g), abs=1e-12)


# --- decoupled / randomized ------------------------------------------------

def test_decoupled_k1_reads_copy_one():
    sp = uniform_space(3)
    draw = draw_bundle(sp, 6, 1, seed=5)
    f = _random_kernel(3, 1, 5)
    assert decoupled_u_statistic(f, draw) == pytest.approx(
        u_statistic(f, draw.decoupled[0]))


def test_decoupled_constant_counts():
    sp = uniform_space(2)
    draw = draw_bundle(sp, 5, 2, seed=9)
    f = KernelFunction(np.ones((2, 2)))
    assert decoupled_u_statistic(f, draw) == pytest.approx(comb(5, 2))


def test_randomized_with_unit_signs_is_decoupled():
    sp = uniform_space(3)
    draw = draw_bundle(sp, 6, 2, seed=10)
    draw = dataclasses.replace(draw, signs=np.ones(6))
    f = _random_kernel(3, 2, 10)
    assert randomized_decoupled(f, draw) == pytest.approx(
        decoupled_u_statistic(f, draw), abs=1e-12)


def test_randomized_sign_flip_negates_k1():
    sp = uniform_space(3)
    draw = draw_bundle(sp, 6, 1, seed=12)
    flipped = dataclasses.replace(draw, signs=-draw.signs)
    f = _random_kernel(3, 1, 12)
    assert randomized_decoupled(f, flipped) == pytest.approx(
        -randomized_decoupled(f, draw), abs=1e-12)


def test_randomized_mean_over_signs_is_zero():
    # every term carries k distinct signs, each to the first power
    sp = uniform_space(3)
    for k in (1, 2):
        draw = draw_bundle(sp, 6, k, seed=13)
        f = _random_kernel(3, k, 13)
        total = 0.0
        for bits in itertools.product((-1.0, 1.0), repeat=6):
            d = dataclasses.replace(draw, signs=np.array(bits))
            total += randomized_decoupled(f, d)
        assert total / 2 ** 6 == pytest.approx(0.0, abs=1e-10)


def test_signs_must_be_unit():
    sp = uniform_space(2)
    draw = draw_bundle(sp, 4, 1, seed=1)
    with pytest.raises(ValueError):
        dataclasses.replace(draw, signs=np.array([1.0, 0.5, -1.0, 1.0]))


def test_draw_bundle_reproducible():
    sp = uniform_space(4)
    a = draw_bundle(sp, 10, 2, seed=3, replica=7)
    b = draw_bundle(sp, 10, 2, seed=3, replica=7)
    assert np.array_equal(a.base.values, b.base.values)
    assert np.array_equal(a.signs, b.signs)
    assert all(np.array_equal(x.values, y.values)
               for x, y in zip(a.decoupled + a.mirrored, b.decoupled + b.mirrored))


def test_draw_bundle_replicas_differ():
    sp = uniform_space(4)
    a = draw_bundle(sp, 50, 2, seed=3, replica=0)
    b = draw_bundle(sp, 50, 2, seed=3, replica=1)
    assert not np.array_equal(a.base.values, b.base.values)


def _signs_on(seed, stream_id, n):
    return np.where(stream_rng(seed, stream_id).random(n) < 0.5, -1.0, 1.0)


def test_draw_bundle_fields_come_from_their_stream_ids():
    sp = finite_space([0.1, 0.0, 0.2, 0.3, 0.4])
    n, k, seed, replica = 9, 3, 21, 5
    b = replica * STREAMS_PER_DRAW
    draw = draw_bundle(sp, n, k, seed, replica)
    assert (draw.n, draw.k) == (n, k)
    # read in reverse of the stream order: values must not depend on it
    assert np.array_equal(draw.signs, _signs_on(seed, b + 1 + 2 * k, n))
    for s in reversed(range(k)):
        assert np.array_equal(draw.mirrored[s].values,
                              draw_sample(sp, n, seed, b + 1 + k + s).values)
        assert np.array_equal(draw.decoupled[s].values,
                              draw_sample(sp, n, seed, b + 1 + s).values)
    assert np.array_equal(draw.base.values, draw_sample(sp, n, seed, b).values)


def test_draw_bundle_fields_are_kept_and_read_only():
    draw = draw_bundle(uniform_space(3), 6, 2, seed=4)
    assert draw.base is draw.base and draw.decoupled is draw.decoupled
    with pytest.raises(ValueError):
        draw.signs[0] = 1.0
    with pytest.raises(dataclasses.FrozenInstanceError):
        draw.base = draw.decoupled[0]


def test_draw_bundle_rejects_nonpositive_n():
    with pytest.raises(ValueError):
        draw_bundle(uniform_space(3), 0, 1, seed=1)


def test_explicit_draw_without_space_cannot_draw_missing_fields():
    draw = SampleDraw(base=_sample([0, 1]), decoupled=(_sample([1, 0]),),
                      signs=np.ones(2), seed=0, replica=0)
    assert (draw.n, draw.k) == (2, 1)
    with pytest.raises(ValueError):
        draw.mirrored


# --- H integrals -----------------------------------------------------------

def test_h_integral_y_independent():
    sp = uniform_space(3)
    rho = uniform_space(4)
    draw = draw_bundle(sp, 6, 1, seed=14)
    g = _random_kernel(3, 1, 14)
    f = KernelFunction(np.repeat(g.table[:, None], 4, axis=1))
    stat = u_statistic(g, draw.decoupled[0])
    assert h_integral(f, draw, rho) == pytest.approx(stat ** 2, abs=1e-12)


def test_h_integral_zero():
    sp = uniform_space(3)
    draw = draw_bundle(sp, 5, 1, seed=15)
    assert h_integral(KernelFunction(np.zeros((3, 4))), draw, uniform_space(4)) == 0.0


def test_h_integral_nonnegative():
    sp = uniform_space(3)
    draw = draw_bundle(sp, 6, 2, seed=16)
    f = _random_kernel(3, 3, 16)
    assert h_integral(f, draw, uniform_space(3)) >= 0.0


# --- exact variance identities --------------------------------------------

def _symmetric_canonical(m, k, seed, space):
    f = _random_kernel(m, k, seed)
    table = f.table
    if k == 2:
        table = (table + table.T) / 2
    return canonicalize(KernelFunction(table), space)


def test_variance_identity_small():
    sp = finite_space([0.25, 0.35, 0.4])
    k = 2
    f = _symmetric_canonical(3, k, 17, sp)
    ef2 = float((f.table ** 2 @ sp.weights) @ sp.weights)
    for n in (2, 3, 4):
        second = exact_u_statistic_moment(f, sp, n=n, power=2)
        assert second == pytest.approx(comb(n, k) * ef2, abs=1e-10)


def test_decoupled_variance_identity():
    sp = finite_space([0.3, 0.7])
    f = _symmetric_canonical(2, 2, 18, sp)
    ef2 = float((f.table ** 2 @ sp.weights) @ sp.weights)
    n, k = 3, 2
    closed = ordered_distinct_tuple_count(n, k) * ef2 / factorial(k) ** 2
    assert exact_decoupled_second_moment(f, sp, n) == pytest.approx(closed, abs=1e-12)


def test_enumeration_probabilities_sum_to_one():
    sp = finite_space([0.2, 0.8])
    total = sum(p for _, p in enumerate_configurations(sp, 4))
    assert total == pytest.approx(1.0, abs=1e-12)


def test_ordered_distinct_tuple_count():
    assert ordered_distinct_tuple_count(4, 2) == 12
    assert ordered_distinct_tuple_count(1, 2) == 0


# --- mirrored contrast (the alternating decoupled sum) ---------------------

def test_mirrored_contrast_distributional_equality_micro():
    """Exhaustive m=2, n=2, k=1: the plain and sign-randomized alternating
    sums have identical distributions."""
    sp = uniform_space(2)
    f = _random_kernel(2, 1, 19)
    plain, rand = {}, {}
    n = 2
    for dec in itertools.product(range(2), repeat=n):
        for mir in itertools.product(range(2), repeat=n):
            prob_base = (0.5 ** n) * (0.5 ** n)
            draw0 = SampleDraw(base=_sample(dec), decoupled=(_sample(dec),),
                               mirrored=(_sample(mir),), signs=np.ones(n),
                               seed=0, replica=0)
            v = round(mirrored_contrast(f, draw0), 12)
            plain[v] = plain.get(v, 0.0) + prob_base
            for bits in itertools.product((-1.0, 1.0), repeat=n):
                d = dataclasses.replace(draw0, signs=np.array(bits))
                vr = round(mirrored_contrast(f, d, randomized=True), 12)
                rand[vr] = rand.get(vr, 0.0) + prob_base * 0.5 ** n
    assert set(plain) == set(rand)
    for v in plain:
        assert plain[v] == pytest.approx(rand[v], abs=1e-12)


# --- expansion into degenerate U-statistics --------------------------------

def test_expansion_k1_coefficients():
    sp = uniform_space(4)
    c = derive_expansion_coefficients(6, 1, sp, trials=10, seed=3)
    assert c.values[0] == pytest.approx(0.0, abs=1e-10)
    assert c.values[1] == pytest.approx(1.0, abs=1e-10)


def test_expansion_k2_fixture():
    sp = uniform_space(16)
    c = derive_expansion_coefficients(5, 2, sp, trials=30, seed=7)
    assert c.residual < 1e-8
    # regression fixture from the first verified run
    assert c.values == pytest.approx([-0.5, -1.0 / (2 * sqrt(5)), 1.0], abs=1e-9)


def test_expansion_k3_fixture():
    sp = uniform_space(16)
    c = derive_expansion_coefficients(6, 3, sp, trials=40, seed=7)
    assert c.residual < 1e-8
    assert c.values[-1] == pytest.approx(1.0, abs=1e-9)


def test_expansion_coefficients_bounded_over_n():
    sp = uniform_space(8)
    for k in (1, 2):
        for n in range(k, 2 * k + 5):
            if n < k:
                continue
            c = derive_expansion_coefficients(max(n, k), k, sp, trials=20, seed=5)
            assert np.max(np.abs(c.values)) < 10.0


def test_expansion_heldout_validation():
    sp = uniform_space(16)
    c = derive_expansion_coefficients(6, 2, sp, trials=30, seed=9)
    assert validate_expansion(c, sp, pairs=20, seed=9) < 1e-8


def test_j_from_expansion_shape_check():
    sp = uniform_space(16)
    c = derive_expansion_coefficients(5, 2, sp, trials=30, seed=7)
    f = _random_kernel(16, 2, 7)
    s = draw_sample(sp, 6, seed=7)  # wrong n
    with pytest.raises(ValueError):
        j_from_expansion(f, s, sp, c)


def test_expansion_rejects_too_few_trials():
    with pytest.raises(ValueError):
        derive_expansion_coefficients(5, 2, uniform_space(4), trials=5, seed=0)


def test_expansion_rejects_degenerate():
    with pytest.raises(DegenerateSample):
        derive_expansion_coefficients(1, 2, uniform_space(4), trials=30, seed=0)


def test_mirrored_contrast_degenerate_sample():
    draw = draw_bundle(uniform_space(3), 1, 2, seed=21)
    with pytest.raises(DegenerateSample):
        mirrored_contrast(_random_kernel(3, 2, 21), draw)


def test_expansion_holdout_streams_are_disjoint_from_the_fit(monkeypatch):
    """The holdout must not reuse a stream of the fit: neither the kernel
    stream nor a sample stream, at any trial count."""
    opened = []

    def recording_rng(seed, stream_id):
        opened[-1].add(stream_id)
        return stream_rng(seed, stream_id)

    monkeypatch.setattr(statistics, "stream_rng", recording_rng)
    monkeypatch.setattr(spaces, "stream_rng", recording_rng)
    sp = uniform_space(4)
    opened.append(set())
    c = derive_expansion_coefficients(3, 2, sp, trials=1002, seed=2)
    opened.append(set())
    validate_expansion(c, sp, pairs=3, seed=2)
    fit, holdout = opened
    assert len(fit) == 1003 and len(holdout) == 4
    assert fit.isdisjoint(holdout)
