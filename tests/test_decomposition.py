import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from empint.decomposition import (all_subsets, canonicalize,
                                  hoeffding_decompose, hoeffding_parts,
                                  is_canonical,
                                  project_p, project_q)
from empint.kernels import BoxRestrictionFamily, KernelFunction, sup_norm
from empint.spaces import finite_space, stream_rng, uniform_space


def _random_kernel(m, k, seed, scale=1.0):
    return KernelFunction(scale * stream_rng(seed, 0).standard_normal((m,) * k))


def _random_space(m, seed):
    return finite_space(stream_rng(seed, 1).uniform(0.05, 1.0, size=m))


def component_sum(parts):
    """Sum over V of the components f_V of a Hoeffding decomposition, each
    broadcast over the coordinates outside V: f itself."""
    k = max(len(V) for V in parts)
    m = parts[frozenset(range(1, k + 1))].m
    out = np.full((m,) * k, parts[frozenset()])
    for V, f in parts.items():
        if V:
            out = out + f.table.reshape([m if j in V else 1 for j in range(1, k + 1)])
    return out


def test_project_p_constant():
    sp = uniform_space(3)
    f = KernelFunction(np.full((3, 3), 2.5))
    out = project_p(f, 1, sp)
    assert np.allclose(out.table, 2.5)
    assert out.k == 1


def test_project_p_k1_scalar():
    sp = uniform_space(2)
    out = project_p(KernelFunction(np.array([1.0, 3.0])), 1, sp)
    assert out == pytest.approx(2.0)


def test_project_p_canonical_is_zero():
    sp = _random_space(4, 3)
    f = canonicalize(_random_kernel(4, 2, 3), sp)
    for coord in (1, 2):
        assert np.allclose(project_p(f, coord, sp).table, 0.0, atol=1e-12)


def test_project_p_coord_out_of_range():
    with pytest.raises(ValueError):
        project_p(KernelFunction(np.zeros((2, 2))), 3, uniform_space(2))


def test_project_q_constant_is_zero():
    sp = uniform_space(3)
    out = project_q(KernelFunction(np.full((3, 3), 1.7)), 2, sp)
    assert np.allclose(out.table, 0.0)


def test_project_q_idempotent():
    sp = _random_space(4, 8)
    f = _random_kernel(4, 2, 8)
    once = project_q(f, 1, sp)
    twice = project_q(once, 1, sp)
    assert np.allclose(once.table, twice.table, atol=1e-13)


def test_p_after_q_vanishes():
    sp = _random_space(5, 9)
    f = _random_kernel(5, 3, 9)
    for coord in (1, 2, 3):
        out = project_p(project_q(f, coord, sp), coord, sp)
        assert np.max(np.abs(out.table)) < 1e-13


def test_is_canonical_zero():
    assert is_canonical(KernelFunction(np.zeros((3, 3))), uniform_space(3))


def test_is_canonical_rejects_constant():
    assert not is_canonical(KernelFunction(np.full((3,), 0.2)), uniform_space(3))


def test_is_canonical_mean_zero_k1():
    assert is_canonical(KernelFunction(np.array([1.0, -1.0])), uniform_space(2))


def test_is_canonical_rejects_bad_tol():
    with pytest.raises(ValueError):
        is_canonical(KernelFunction(np.zeros(2)), uniform_space(2), tol=0.0)


def test_decompose_constant():
    sp = uniform_space(3)
    d = hoeffding_decompose(KernelFunction(np.full((3, 3), 0.4)), sp)
    assert d[frozenset()] == pytest.approx(0.4)
    for V in all_subsets(2):
        if V:
            assert np.allclose(d[V].table, 0.0, atol=1e-13)


def test_decompose_canonical_concentrates_on_full_set():
    sp = _random_space(4, 21)
    f = canonicalize(_random_kernel(4, 2, 21), sp)
    d = hoeffding_decompose(f, sp)
    assert abs(d[frozenset()]) < 1e-12
    assert np.allclose(d[frozenset({1, 2})].table, f.table, atol=1e-12)
    for V in (frozenset({1}), frozenset({2})):
        assert np.allclose(d[V].table, 0.0, atol=1e-12)


def test_decompose_reconstruction_and_canonicality():
    sp = _random_space(3, 4)
    f = _random_kernel(3, 2, 4)
    d = hoeffding_decompose(f, sp)
    assert np.max(np.abs(component_sum(d) - f.table)) < 1e-12
    for V in all_subsets(2):
        if V:
            assert is_canonical(d[V], sp, tol=1e-10)


@settings(max_examples=30, deadline=None)
@given(st.integers(min_value=2, max_value=5), st.integers(min_value=1, max_value=3),
       st.integers(min_value=0, max_value=10**6))
def test_decompose_property(m, k, seed):
    sp = _random_space(m, seed)
    f = _random_kernel(m, k, seed)
    d = hoeffding_decompose(f, sp)
    assert np.max(np.abs(component_sum(d) - f.table)) < 1e-10
    for V in all_subsets(k):
        if V:
            assert is_canonical(d[V], sp, tol=1e-10)


def _per_subset_component(f, sp, V):
    """f_V rebuilt on its own: P on every coordinate outside V, highest
    first, then Q on each remaining axis, i.e. on the coordinates of V."""
    table = f.table
    for coord in range(f.k, 0, -1):
        if coord not in V:
            table = np.tensordot(table, sp.weights, axes=([coord - 1], [0]))
    for axis in range(len(V)):
        p = np.tensordot(table, sp.weights, axes=([axis], [0]))
        table = table - np.expand_dims(p, axis)
    return table


@pytest.mark.parametrize("k", [1, 2, 3, 4])
def test_decompose_matches_per_subset_formula(k):
    sp = finite_space([0.3, 0.0, 0.5, 0.2])  # one zero-weight atom
    kernels = [_random_kernel(4, k, 40 + seed) for seed in range(3)]
    for f in kernels:
        d = hoeffding_decompose(f, sp)
        assert set(d) == set(all_subsets(k))
        assert type(d[frozenset()]) is float
        assert abs(d.pop(frozenset()) - float(_per_subset_component(f, sp, frozenset()))) < 1e-12
        for V, component in d.items():
            assert component.table.shape == (4,) * len(V)
            ref = _per_subset_component(f, sp, V)
            assert np.max(np.abs(component.table - ref)) < 1e-12
    # the same product over a stack of the kernels, batch axis first
    parts = hoeffding_parts(np.array([f.table for f in kernels]), sp.weights, k)
    assert set(parts) == set(all_subsets(k))
    for V, stack in parts.items():
        assert stack.shape == (len(kernels),) + (4,) * len(V)
        for f, table in zip(kernels, stack):
            assert np.max(np.abs(table - _per_subset_component(f, sp, V))) < 1e-12


def _l2_under(table, weight_list):
    g = table ** 2
    for w in reversed(weight_list):
        g = g @ w
    return float(np.sqrt(g))


def test_projection_contraction():
    """P and Q are L2 contractions under product measures rho x mu."""
    for seed in range(8):
        rho = _random_space(4, seed)
        mu = _random_space(4, seed + 100)
        f = _random_kernel(4, 2, seed)
        norm_f = _l2_under(f.table, [rho.weights, mu.weights])
        pf = project_p(f, 2, mu)
        assert _l2_under(pf.table, [rho.weights]) <= norm_f + 1e-12
        qf = project_q(f, 2, mu)
        assert _l2_under(qf.table, [rho.weights, mu.weights]) <= norm_f + 1e-12


def test_sup_norm_budget():
    for seed in range(6):
        sp = _random_space(5, seed)
        f = _random_kernel(5, 2, seed)
        assert sup_norm(project_q(f, 1, sp)) <= 2 * sup_norm(f) + 1e-12
        pf = project_p(f, 1, sp)
        assert sup_norm(pf) <= sup_norm(f) + 1e-12


def test_square_component_sup_bound():
    """Components of f^2 stay below 2^-(k+1) when |f| <= 2^-(k+1)."""
    k = 2
    cap = 2.0 ** -(k + 1)
    for seed in range(5):
        sp = _random_space(4, seed)
        f = _random_kernel(4, k, seed, scale=0.0)
        table = stream_rng(seed, 2).uniform(-cap, cap, size=(4,) * k)
        d = hoeffding_decompose(KernelFunction(table ** 2), sp)
        assert abs(d[frozenset()]) <= cap + 1e-12
        for V in all_subsets(k):
            if V:
                assert sup_norm(d[V]) <= cap + 1e-12


def test_net_preservation_under_q():
    """An eps/2-net maps through f -> Q f / 2 to an eps-net of the image."""
    from empint.kernels import epsilon_net
    base = np.zeros(8)
    base[:4] = stream_rng(3, 0).uniform(-1, 1, size=4)
    fam = BoxRestrictionFamily(KernelFunction(base), 8)
    mu = uniform_space(8)
    eps = 0.5
    net = epsilon_net(fam, mu, eps / 2)
    w = mu.weights
    reps = [project_q(fam.member(i), 1, mu).table / 2 for i in net]
    for j in range(len(fam)):
        g = project_q(fam.member(j), 1, mu).table / 2
        d2 = min(float(((g - r) ** 2) @ w) for r in reps)
        assert d2 < eps ** 2


# the tensordot projections that the one-coordinate product replaced, kept
# as its reference: random-canonical families rest on these bits
def _project_p_tensordot(table, coord, weights):
    return np.tensordot(table, weights, axes=([coord - 1], [0]))


def _project_q_tensordot(table, coord, weights):
    p = _project_p_tensordot(table, coord, weights)
    return table - np.expand_dims(p, coord - 1)


def _canonicalize_tensordot(table, weights):
    for coord in range(1, table.ndim + 1):
        table = _project_q_tensordot(table, coord, weights)
    return table


def _is_canonical_tensordot(table, weights, tol):
    return all(np.max(np.abs(_project_p_tensordot(table, coord, weights))) <= tol
               for coord in range(1, table.ndim + 1))


@pytest.mark.parametrize("m", [3, 5, 8])
@pytest.mark.parametrize("k", [1, 2, 3, 4])
def test_projections_are_bit_identical_to_tensordot(m, k):
    spaces = [uniform_space(m),
              finite_space(np.arange(1, m + 1) / (m * (m + 1) / 2)),
              finite_space(np.r_[0.0, np.full(m - 1, 1.0 / (m - 1))])]
    decisions = set()
    for sp in spaces:
        for seed in range(3):
            raw = _random_kernel(m, k, 70 + seed)
            canon = canonicalize(raw, sp)
            assert np.array_equal(canon.table,
                                  _canonicalize_tensordot(raw.table, sp.weights))
            for f in (raw, canon):
                for coord in range(1, k + 1):
                    p = project_p(f, coord, sp)
                    ref = _project_p_tensordot(f.table, coord, sp.weights)
                    assert np.array_equal(p if k == 1 else p.table, ref)
                    assert np.array_equal(project_q(f, coord, sp).table,
                                          _project_q_tensordot(f.table, coord,
                                                               sp.weights))
                for tol in (1e-10, 1e-14, 1e-17):
                    verdict = is_canonical(f, sp, tol)
                    assert verdict == _is_canonical_tensordot(f.table, sp.weights, tol)
                    decisions.add(verdict)
    assert decisions == {True, False}  # the grid reaches both verdicts
