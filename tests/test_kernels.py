import itertools
import pickle
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from empint.kernels import (BoxRestrictionFamily, BudgetExceeded,
                            ExplicitFamily, KernelFunction, epsilon_net,
                            interval_family, l2_norm, offdiag_mask,
                            product_weights, singleton_family, sup_norm)
from empint.spaces import (InvalidArgument, finite_space, stream_rng,
                           uniform_space)
from empint.statistics import derive_expansion_coefficients


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_kernel_rejects_non_finite_entries(bad):
    # a NaN member makes every Monte Carlo maximum NaN, which the tail
    # count reads as lying above every x
    with pytest.raises(ValueError, match="finite"):
        KernelFunction([bad, 0.5, 0.1, 0.2])


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
    # all sub-intervals of 1..4 cells, 4 + 3 + 2 + 1, and the 5 empty ones
    assert len(fam) == 15
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


@pytest.mark.parametrize("sigma, grid", [(0.1, 200), (0.5, 16), (1.0, 4)])
def test_interval_family_nonzero_tables_are_the_windows(sigma, grid):
    # one indicator per window of 1 to floor(sigma^2 grid) cells, built
    # window by window
    cap = int(np.floor(sigma ** 2 * grid + 1e-9))
    windows = set()
    for length in range(1, cap + 1):
        for start in range(grid - length + 1):
            table = np.zeros(grid)
            table[start:start + length] = 1.0
            windows.add(table.tobytes())
    tables = interval_family(sigma, grid).unique_tables()[0]
    nonzero = [t.tobytes() for t in tables if t.any()]
    assert len(nonzero) == len(windows)
    assert set(nonzero) == windows


def test_interval_family_size_check_counts_capped_windows():
    # the default grid of the sigma = 0.05 counterexample: windows of at
    # most 2 of 800 cells, 801 of them empty, 1,599 not
    fam = interval_family(0.05, 800)
    assert len(fam) == 2400
    assert fam.unique_tables()[0].shape[0] == 1600


def test_interval_family_at_the_table_cap_is_accepted():
    # 11,585 one-cell windows x 11,585 cells is 5,503 entries below 2^27, so
    # the family is accepted: the size check leaves out the zero table,
    # which would push it past by one row (construction builds no table)
    grid = 11585
    fam = interval_family((1.5 / grid) ** 0.5, grid)
    assert fam.max_cells == 1


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


def _key(table):
    """Bytes of a finite table with -0.0 read as 0.0: two keys are equal
    exactly when the tables are equal as numbers."""
    return (table + 0.0).tobytes()


def _box_tables():
    """(k, m, table): f = 0, support touching both edges, negative entries
    and a support hull with interior zeros, at k = 1, 2, 3 and m <= 8; then
    an interior zero slice and signed zeros."""
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
    yield 1, 3, np.array([1.0, 0.0, 1.0])
    yield 2, 3, np.array([[-0.0, 0.5, -0.0], [0.0, -0.0, 0.0],
                          [-0.0, 0.25, 0.0]])


@pytest.mark.parametrize("k, m, table", list(_box_tables()))
def test_box_family_tables_equal_per_box_slices(k, m, table):
    f = KernelFunction(table)
    fam = BoxRestrictionFamily(f, m)
    tables, group = fam.unique_tables()
    keys = [_key(_slice_member(f, box)) for box in fam.boxes]
    members = fam.members
    assert len(members) == len(fam) == len(keys)
    for i, key in enumerate(keys):
        assert _key(fam.member(i).table) == key
        assert members[i] is fam.member(i)
        assert _key(tables[group[i]]) == key
    # one row, one group and one kernel per distinct slice: group[i] ==
    # group[j] and member(i) is member(j) exactly when the slices are equal
    assert len({_key(t) for t in tables}) == tables.shape[0] == len(set(keys))
    assert len(set(zip(keys, group.tolist(), map(id, members)))) == \
        len(set(keys))
    if not table.any():
        assert tables.shape[0] == 1


def _capped_boxes(m, k, cap):
    """Every box with at most `cap` cells per axis, in member order."""
    windows = [(u, v) for u in range(m + 1) for v in range(u, min(u + cap, m) + 1)]
    return list(itertools.product(windows, repeat=k))


@pytest.mark.parametrize("cap", [0, 1, 2, "m"])
@pytest.mark.parametrize("k, m", [(1, 7), (2, 5)])
def test_capped_box_family_equals_tables_built_box_by_box(k, m, cap):
    cap = m if cap == "m" else cap
    # support hull from cell 1, with an interior zero, so that boxes with
    # different clips can give equal tables
    f = np.zeros((m,) * k)
    f[(slice(1, m),) * k] = stream_rng(31, k).uniform(-1, 1, size=(m - 1,) * k)
    f[(2,) * k] = 0.0
    boxes = _capped_boxes(m, k, cap)
    seen, group = {}, []
    for box in boxes:
        group.append(seen.setdefault(_key(_slice_member(KernelFunction(f), box)),
                                     len(seen)))
    fam = BoxRestrictionFamily(KernelFunction(f), m, max_cells=cap)
    tables, got = fam.unique_tables()
    assert fam.boxes == boxes
    assert [_key(t) for t in tables] == list(seen)  # first seen first
    assert got.tolist() == group
    if cap == m:
        full = BoxRestrictionFamily(KernelFunction(f), m).unique_tables()
        assert np.array_equal(full[0], tables) and np.array_equal(full[1], got)


def test_unique_tables_merge_tables_equal_as_numbers():
    # [1, 0, 1] on [1, 2) is the zero table, as on an empty box
    box = BoxRestrictionFamily(KernelFunction(np.array([1.0, 0.0, 1.0])), 3)
    assert box.unique_tables()[0].tolist() == [
        [0.0, 0.0, 0.0], [1.0, 0.0, 0.0], [1.0, 0.0, 1.0], [0.0, 0.0, 1.0]]
    explicit = ExplicitFamily([KernelFunction(np.array(r)) for r in
                               ([0.0, 1.0], [-0.0, 1.0], [1.0, 1.0])],
                              D=4.0, L=1.0)
    tables, group = explicit.unique_tables()
    assert tables.tolist() == [[0.0, 1.0], [1.0, 1.0]]
    assert group.tolist() == [0, 0, 1]
    assert explicit.member(0) is explicit.member(1)


def _explicit_with_twins():
    """Four separately built kernels holding two distinct tables."""
    rows = ([0.0, 1.0, 0.0], [0.5, 0.0, -0.5]) * 2
    return ExplicitFamily([KernelFunction(np.array(r)) for r in rows],
                          D=4.0, L=1.0)


@pytest.mark.parametrize("make", [
    lambda: BoxRestrictionFamily(_base_kernel(m=8, k=2, width=3), 8),
    _explicit_with_twins], ids=["box", "explicit"])
def test_box_family_members_share_one_immutable_kernel(make):
    fam = make()
    tables, group = fam.unique_tables()
    twins = np.nonzero(group == group[-1])[0]
    assert twins.size > 1
    assert fam.member(int(twins[0])) is fam.member(int(twins[-1]))
    for a in (fam.member(0).table, tables, group):
        with pytest.raises(ValueError):
            a.flat[0] = 0.5
    # one member per group entry, distinct tables in first-seen order
    members = fam.members
    assert len(fam) == len(members) == group.size
    first = np.unique(group, return_index=True)[1]
    assert np.all(np.diff(first) > 0)
    for u, i in enumerate(first.tolist()):
        assert tables[u].tobytes() == members[i].table.ravel().tobytes()


def test_fresh_family_pickles_without_its_tables():
    fam = BoxRestrictionFamily(_base_kernel(m=8, k=2, width=3), 8)
    blob = pickle.dumps(fam)
    tables, group = fam.unique_tables()
    assert len(blob) < min(tables.nbytes, group.nbytes) / 4
    copy_tables, copy_group = pickle.loads(blob).unique_tables()
    assert copy_tables.tobytes() == tables.tobytes()
    assert np.array_equal(copy_group, group)


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
    reps = [fam.member(i).table.ravel() for i in net]
    for j in range(len(fam)):
        g = fam.member(j).table.ravel()
        d2 = min(float(((g - r) ** 2) @ w) for r in reps)
        if d2 >= eps ** 2:
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


# --- the pairwise-distinct mask ---------------------------------------------

@pytest.mark.parametrize("m", range(1, 6))
@pytest.mark.parametrize("k", range(1, 5))
def test_offdiag_mask_is_pairwise_distinct(m, k):
    mask = offdiag_mask(m, k)
    assert mask.shape == (m,) * k and mask.dtype == bool
    for tup in itertools.product(range(m), repeat=k):
        assert mask[tup] == (len(set(tup)) == k)


def test_offdiag_mask_peaks_near_one_byte_per_entry():
    # 2.56 M entries; a temporary per entry (np.indices) would break the bound
    offdiag_mask.cache_clear()
    tracemalloc.start()
    try:
        mask = offdiag_mask(40, 4)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 2 * mask.size


def test_offdiag_mask_is_cached_and_read_only():
    mask = offdiag_mask(4, 3)
    assert offdiag_mask(4, 3) is mask
    assert not mask.flags.writeable
    with pytest.raises(ValueError):
        mask[0, 1, 2] = False


def test_box_family_rejects_table_of_wrong_shape():
    # only the first axis matched before; the rest failed in a broadcast
    with pytest.raises(ValueError, match="grid"):
        BoxRestrictionFamily(KernelFunction(np.full((4, 3), 0.5)), 4)


@pytest.mark.parametrize("nu", [
    [2.0, -1.0, 0.0, 0.0], [0.1] * 4, [np.nan, 0.5, 0.25, 0.25],
    [np.inf, 0.0, 0.0, 0.0], [0.5, 0.5]],
    ids=["negative", "mass-0.4", "nan", "inf", "size"])
def test_product_weights_validates_plain_arrays(nu):
    with pytest.raises(ValueError):
        product_weights(np.array(nu), 1, 4)
    with pytest.raises(ValueError):
        epsilon_net(interval_family(0.5, 4), np.array(nu), 0.5)


def test_product_weights_reads_every_input_alike():
    sp = finite_space([0.5, 0.25, 0.25, 0.0])
    want = product_weights(sp, 2, 4)
    for nu in (sp.weights, list(sp.weights)):
        np.testing.assert_array_equal(product_weights(nu, 2, 4), want)


@pytest.mark.parametrize("build, error", [
    # sigma=0.01 on 20,000 cells: 39,999 interval tables, 6.4 GB of float64
    (lambda: interval_family(0.01, 20000), InvalidArgument),
    # k=3 with full support on 16 cells: 136^3 + 1 tables of 4,096 entries
    (lambda: BoxRestrictionFamily(KernelFunction(np.full((16,) * 3, 0.5)), 16),
     ValueError),
    # one distinct table, but 16,384 * 16,385 / 2 boxes on 16,383 cells
    (lambda: BoxRestrictionFamily(KernelFunction(np.zeros(16383)), 16383),
     ValueError),
    # boxes of at most 3 x 3 cells on 400^2 cells: 1,197^2 nonempty tables
    # of 160,000 entries
    (lambda: BoxRestrictionFamily(KernelFunction(np.full((400, 400), 0.5)), 400,
                                  max_cells=3), ValueError),
    # expansion kernels of 1000^4 cells: 7.3 TiB of float64 per table
    (lambda: derive_expansion_coefficients(10, 4, uniform_space(1000), 15, 0),
     InvalidArgument)],
    ids=["interval", "box-tables", "box-members", "box-capped", "expansion"])
def test_family_too_big_to_tabulate_is_refused_before_allocating(build, error):
    tracemalloc.start()
    try:
        with pytest.raises(error, match="exceed 2\\^27 entries"):
            build()
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 16 * 2 ** 20


def test_box_family_table_count_follows_the_support_hull():
    # a one-cell support has one nonempty clip per axis, so 2 distinct
    # tables among the 45^3 boxes
    f = np.zeros((8,) * 3)
    f[3, 5, 2] = 1.0
    family = BoxRestrictionFamily(KernelFunction(f), 8)
    assert family.hulls == [(3, 4), (5, 6), (2, 3)]
    assert (len(family), family.unique_tables()[0].shape[0]) == (45 ** 3, 2)
