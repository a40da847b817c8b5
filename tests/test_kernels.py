import itertools

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from empint.kernels import (BoxRestrictionFamily, BudgetExceeded,
                            ExplicitFamily, KernelFunction, epsilon_net,
                            interval_family, l2_norm, offdiag_mask,
                            product_weights, singleton_family, sup_norm)
from empint.spaces import finite_space, stream_rng, uniform_space


def test_sup_norm_zero():
    assert sup_norm(KernelFunction(np.zeros((3, 3)))) == 0.0


def test_sup_norm_constant():
    assert sup_norm(KernelFunction(np.full((2, 2), 0.25))) == 0.25


def test_sup_norm_direct_max():
    assert sup_norm(KernelFunction(np.array([-0.9, 0.3]))) == pytest.approx(0.9)


def test_l2_norm_constant():
    sp = uniform_space(3)
    assert l2_norm(KernelFunction(np.full((3, 3), -0.7)), sp) == pytest.approx(0.7)


def test_l2_norm_k1():
    sp = uniform_space(2)
    assert l2_norm(KernelFunction(np.array([1.0, -1.0])), sp) == pytest.approx(1.0)


def test_l2_norm_k2_outer():
    # brute force: 4 terms, each weight 1/4, each entry squared is 1
    sp = uniform_space(2)
    g = np.array([1.0, -1.0])
    assert l2_norm(KernelFunction(np.outer(g, g)), sp) == pytest.approx(1.0)


def test_l2_norm_shape_mismatch():
    with pytest.raises(ValueError):
        l2_norm(KernelFunction(np.zeros((3, 3))), uniform_space(4))


@settings(max_examples=40, deadline=None)
@given(st.integers(min_value=2, max_value=6), st.integers(min_value=1, max_value=3),
       st.integers(min_value=0, max_value=10**6))
def test_l2_at_most_sup(m, k, seed):
    sp = uniform_space(m)
    f = KernelFunction(stream_rng(seed, 0).standard_normal((m,) * k))
    assert l2_norm(f, sp) <= sup_norm(f) + 1e-12


# --- interval family -------------------------------------------------------

def test_interval_family_sigma_one():
    fam = interval_family(1.0, 4)
    # all sub-intervals of 1..4 cells: 4 + 3 + 2 + 1
    assert len(fam) == 10
    assert any(np.all(f.table == 1.0) for f in fam.members)


def test_interval_family_half():
    fam = interval_family(0.5, 8)
    # lengths of at most 2 grid cells (sigma^2 = 0.25 of 8 cells)
    assert all(f.table.sum() <= 2 for f in fam.members)
    assert max(f.table.sum() for f in fam.members) == 2


def test_interval_family_l2_within_sigma():
    sigma = 0.5
    fam = interval_family(sigma, 8)
    sp = uniform_space(8)
    for f in fam.members:
        assert l2_norm(f, sp) <= sigma + 1e-12


def test_interval_family_contains_disjoint_full_length_intervals():
    sigma = 0.5
    fam = interval_family(sigma, 8)
    # the 4 disjoint length-sigma^2 intervals
    want = [set(range(s, s + 2)) for s in range(0, 8, 2)]
    have = [set(np.nonzero(f.table)[0].tolist()) for f in fam.members]
    for w in want:
        assert w in have


def test_interval_family_grid_too_coarse():
    with pytest.raises(ValueError):
        interval_family(0.3, 8)  # needs ceil(1/0.09) = 12 cells


# --- box restriction family ------------------------------------------------

def _base_kernel(m=8, k=2, width=3, seed=0):
    table = np.zeros((m,) * k)
    block = stream_rng(seed, 0).uniform(-1, 1, size=(width,) * k)
    table[(slice(0, width),) * k] = block
    return KernelFunction(table)


def test_box_family_contains_identity_restriction():
    f = _base_kernel()
    fam = BoxRestrictionFamily(f, 8)
    full = [i for i, box in enumerate(fam.boxes)
            if all(u == 0 and v == 8 for u, v in box)]
    assert len(full) == 1
    assert np.array_equal(fam.member(full[0]).table, f.table)


def test_box_family_empty_box_is_zero():
    f = _base_kernel()
    fam = BoxRestrictionFamily(f, 8)
    empty = [i for i, box in enumerate(fam.boxes) if any(u == v for u, v in box)]
    assert empty
    assert np.all(fam.member(empty[0]).table == 0.0)


def test_box_family_nested_monotonicity():
    f = _base_kernel()
    fam = BoxRestrictionFamily(f, 8)
    inner = np.abs(fam.member(fam.boxes.index(((1, 3), (1, 3)))).table)
    outer = np.abs(fam.member(fam.boxes.index(((0, 4), (0, 4)))).table)
    assert np.all(inner <= outer + 1e-15)


def _slice_member(f, box):
    """Reference restriction: f copied onto zeros over one box's slices."""
    table = np.zeros_like(f.table)
    sl = tuple(slice(u, v) for u, v in box)
    table[sl] = f.table[sl]
    return table


def _clip_group(fam, support):
    """Reference group map: boxes keyed by their box clipped to f's per-axis
    support hull (None when the clip is empty), numbered in first-seen order."""
    seen, group = {}, []
    for box in fam.boxes:
        key = []
        for (u, v), (lo, hi) in zip(box, support):
            if max(u, lo) >= min(v, hi):
                key = None
                break
            key.append((max(u, lo), min(v, hi)))
        group.append(seen.setdefault(None if key is None else tuple(key),
                                     len(seen)))
    return group


def _support_hull(table):
    k = table.ndim
    hull = []
    for axis in range(k):
        nz = np.nonzero(np.any(table != 0, axis=tuple(a for a in range(k)
                                                      if a != axis)))[0]
        hull.append((int(nz[0]), int(nz[-1]) + 1) if nz.size else (0, 0))
    return hull


def _box_tables():
    """(k, m, table): f = 0, support touching both edges, negative entries
    and a support hull with interior zeros, at k = 1, 2, 3 and m <= 8."""
    rng = stream_rng(21, 0)
    for k, ms in ((1, (1, 2, 5, 8)), (2, (1, 3, 8)), (3, (2, 4))):
        for m in ms:
            yield k, m, np.zeros((m,) * k)
            yield k, m, rng.uniform(-1, 1, size=(m,) * k)
            sparse = rng.uniform(-1, 0, size=(m,) * k)
            yield k, m, np.where(rng.random((m,) * k) < 0.3, sparse, 0.0)
            if m >= 4:
                inner = np.zeros((m,) * k)
                inner[(slice(1, m - 1),) * k] = rng.uniform(
                    -1, 1, size=(m - 2,) * k)
                inner[(1,) * k] = 0.0
                yield k, m, inner


@pytest.mark.parametrize("k, m, table", list(_box_tables()))
def test_box_family_tables_equal_per_box_slices(k, m, table):
    f = KernelFunction(table)
    fam = BoxRestrictionFamily(f, m)
    tables, group = fam.unique_tables()
    expected = [_slice_member(f, box) for box in fam.boxes]
    assert group.tolist() == _clip_group(fam, _support_hull(table))
    members = fam.members
    assert len(members) == len(fam) == len(expected)
    for i, want in enumerate(expected):
        assert fam.member(i).table.tobytes() == want.tobytes()
        assert members[i] is fam.member(i)
        assert tables[group[i]].tobytes() == want.tobytes()
    if not table.any():
        assert tables.shape[0] == 1


def test_box_family_members_share_one_immutable_kernel():
    fam = BoxRestrictionFamily(_base_kernel(m=8, k=2, width=3), 8)
    tables, group = fam.unique_tables()
    twins = np.nonzero(group == group[-1])[0]
    assert twins.size > 1
    assert fam.member(int(twins[0])) is fam.member(int(twins[-1]))
    for a in (fam.member(0).table, tables, group):
        with pytest.raises(ValueError):
            a.flat[0] = 0.5


def test_box_family_rejects_unbounded_kernel():
    with pytest.raises(ValueError):
        BoxRestrictionFamily(KernelFunction(np.full((4, 4), 1.5)), 4)


def test_box_family_documented_budget():
    fam = BoxRestrictionFamily(_base_kernel(), 8)
    assert fam.L == 2 * 2
    assert fam.D == 2 ** (2 * 3)


# --- epsilon nets ----------------------------------------------------------

def test_net_single_member():
    f = KernelFunction(np.array([0.3, -0.2, 0.1]))
    net = epsilon_net(singleton_family(f), uniform_space(3), 0.5)
    assert len(net) == 1


def test_net_collapses_at_large_epsilon():
    sp = uniform_space(4)
    kernels = [KernelFunction(0.1 * np.eye(4)[i]) for i in range(4)]
    fam = ExplicitFamily(kernels, D=4.0, L=1.0)
    net = epsilon_net(fam, sp, 1.0)  # eps >= 2 * max sup_norm
    assert len(net) == 1


def test_net_deduplicates():
    sp = uniform_space(3)
    f = KernelFunction(np.array([1.0, 0.0, -1.0]))
    fam_dup = ExplicitFamily([f, f, f], D=3.0, L=1.0)
    fam_one = ExplicitFamily([f], D=3.0, L=1.0)
    eps = 0.25
    assert len(epsilon_net(fam_dup, sp, eps)) == len(epsilon_net(fam_one, sp, eps))


def _net_is_sound(fam, nu, eps):
    net = epsilon_net(fam, nu, eps)
    w = product_weights(nu, fam.k, fam.m)
    reps = [fam.member(i).table.ravel() for i in net.member_indices]
    for j in range(len(fam)):
        g = fam.member(j).table.ravel()
        d2 = min(float(((g - r) ** 2) @ w) for r in reps)
        if d2 >= net.cover_radius ** 2:
            return False
    return True


def test_net_soundness_interval_family():
    fam = interval_family(0.5, 8)
    sp = uniform_space(8)
    for eps in (1.0, 0.5, 0.25):
        assert _net_is_sound(fam, sp, eps)


def test_net_soundness_random_measures():
    fam = BoxRestrictionFamily(_base_kernel(m=8, k=1, width=4), 8)
    for t in range(5):
        raw = stream_rng(77, t).uniform(0.05, 1.0, size=8)
        nu = finite_space(raw)
        for eps in (1.0, 0.5, 0.25, 0.1):
            assert _net_is_sound(fam, nu, eps)


def test_net_covers_at_epsilon_on_duplicate_heavy_family():
    fam = BoxRestrictionFamily(_base_kernel(m=8, k=2, width=3), 8)
    tables, _ = fam.unique_tables()
    assert tables.shape[0] * 4 < len(fam)
    sp = uniform_space(8)
    for eps in (1.0, 0.5, 0.25, 0.1, 0.01):
        net = epsilon_net(fam, sp, eps)
        assert net.cover_radius == eps
        assert _net_is_sound(fam, sp, eps)


def test_net_budget_exceeded_signals():
    sp = uniform_space(4)
    kernels = [KernelFunction(np.eye(4)[i]) for i in range(4)]
    fam = ExplicitFamily(kernels, D=0.5, L=0.1)  # absurdly tight budget
    with pytest.raises(BudgetExceeded):
        epsilon_net(fam, sp, 0.5)


def test_net_rejects_bad_epsilon():
    fam = singleton_family(KernelFunction(np.array([1.0, 0.0])))
    with pytest.raises(ValueError):
        epsilon_net(fam, uniform_space(2), 0.0)


def test_subfamily_inheritance():
    """Any subfamily is L2-dense with the same exponent and parameter 2^L * D."""
    fam = BoxRestrictionFamily(_base_kernel(m=8, k=1, width=4), 8)
    rng = stream_rng(5, 0)
    for _ in range(5):
        pick = sorted(rng.choice(len(fam), size=30, replace=False).tolist())
        sub = ExplicitFamily([fam.member(i) for i in pick],
                             D=2.0 ** fam.L * fam.D, L=fam.L)
        for eps in (1.0, 0.5, 0.25):
            net = epsilon_net(sub, uniform_space(8), eps)
            assert len(net) <= sub.D * eps ** (-sub.L)


def test_family_growth_condition():
    fam = interval_family(0.5, 8)
    fam.beta = 1.0
    assert fam.check_budget(n=10)
    assert not fam.check_budget(n=3)


# --- the pairwise-distinct mask ---------------------------------------------

@pytest.mark.parametrize("m", range(1, 6))
@pytest.mark.parametrize("k", range(1, 5))
def test_offdiag_mask_is_pairwise_distinct(m, k):
    mask = offdiag_mask(m, k)
    assert mask.shape == (m,) * k and mask.dtype == bool
    for tup in itertools.product(range(m), repeat=k):
        assert mask[tup] == (len(set(tup)) == k)


def test_offdiag_mask_is_cached_and_read_only():
    mask = offdiag_mask(4, 3)
    assert offdiag_mask(4, 3) is mask
    assert not mask.flags.writeable
    with pytest.raises(ValueError):
        mask[0, 1, 2] = False
