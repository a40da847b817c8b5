"""Tabulated kernel functions, function families and L2 epsilon-nets.

Kernels of k variables are dense tables of shape (m, ..., m) over a finite
space with m points; this keeps norms, projections and net distances exact.
Families carry an L2-density budget (parameter D, exponent L): for every
probability measure nu and radius eps there must be an eps-cover of size at
most D * eps**-L.
"""
from __future__ import annotations

import functools
import itertools
import math
from dataclasses import dataclass

import numpy as np

from .spaces import TABLE_LIMIT, InvalidArgument, ProbabilitySpace


class BudgetExceeded(Exception):
    """The constructed net is larger than the family's declared D * eps**-L."""

    def __init__(self, actual: int, allowed: float):
        super().__init__(f"net size {actual} exceeds budget {allowed:g}")
        self.actual = actual
        self.allowed = allowed


@dataclass(frozen=True)
class KernelFunction:
    """Real-valued function of k points, dense-tabulated; every entry finite."""

    table: np.ndarray

    def __post_init__(self):
        t = np.asarray(self.table, dtype=float)
        if not np.all(np.isfinite(t)):
            raise ValueError("kernel table entries must be finite")
        object.__setattr__(self, "table", t)
        t.setflags(write=False)

    @property
    def k(self) -> int:
        return self.table.ndim

    @property
    def m(self) -> int:
        return self.table.shape[0]


def sup_norm(f: KernelFunction) -> float:
    return float(np.max(np.abs(f.table)))


def _check_shape(f: KernelFunction, space: ProbabilitySpace):
    if f.table.shape != (space.m,) * f.k:
        raise ValueError(
            f"kernel table shape {f.table.shape} does not match space with {space.m} points"
        )


@functools.cache
def offdiag_mask(m: int, k: int) -> np.ndarray:
    """Read-only (m,)*k boolean table, True on pairwise-distinct tuples; one
    in-place comparison per pair of axes keeps it near one byte per entry."""
    idx = np.indices((m,) * k, sparse=True)
    mask = np.ones((m,) * k, dtype=bool)
    for i, j in itertools.combinations(range(k), 2):
        mask &= idx[i] != idx[j]
    mask.setflags(write=False)
    return mask


def l2_norm(f: KernelFunction, space: ProbabilitySpace) -> float:
    """sqrt of the integral of f**2 against the k-fold product measure."""
    _check_shape(f, space)
    return float(l2_norms(f.table.reshape(1, -1), space, f.k)[0])


def l2_norms(tables: np.ndarray, space: ProbabilitySpace, k: int) -> np.ndarray:
    """L2(space^k) norm of each flat row of `tables`, the one norm behind a
    family's sigma and the overlay's check; no tables ** 2 temporary."""
    return np.sqrt(np.einsum("ij,ij,j->i", tables, tables,
                             product_weights(space, k)))


def product_weights(space: ProbabilitySpace, k: int) -> np.ndarray:
    """Flattened k-fold product of the space's weights; the space has
    already been checked as a probability measure."""
    out = w = space.weights
    for _ in range(k - 1):
        out = np.multiply.outer(out, w)
    return out.ravel()


class FunctionFamily:
    """Indexed family of same-arity kernels with an L2-density budget."""

    def __init__(self, k: int, m: int, D: float, L: float, sigma: float = 1.0):
        self.k, self.m, self.D, self.L, self.sigma = k, m, D, L, sigma

    def _distinct(self):
        """(candidate flat tables, member -> candidate id): the one hook a
        subclass supplies; candidates may repeat, members derive from it."""
        raise NotImplementedError

    @functools.cached_property
    def _distinct_tables(self):
        """Candidates merged when equal as numbers, first seen first: each
        row is bucketed by the hash of its bytes (+ 0.0 turns -0.0 into 0.0)
        and a hit is confirmed by value, so no second copy is held."""
        # lazy, so a family shipped to workers carries no tables
        rows, group = self._distinct()
        buckets, keep = {}, []
        ids = np.empty(len(rows), dtype=np.int64)
        for i, row in enumerate(rows):
            bucket = buckets.setdefault(hash((row + 0.0).tobytes()), [])
            for u in bucket:
                if np.array_equal(rows[keep[u]], row):
                    break
            else:
                u = len(keep)
                keep.append(i)
                bucket.append(u)
            ids[i] = u
        pair = (rows if len(keep) == len(rows) else rows[keep]), ids[group]
        for a in pair:
            a.setflags(write=False)
        return pair

    @functools.cached_property
    def _shared_kernels(self) -> list:
        """One immutable kernel per distinct table, viewing its row."""
        return [KernelFunction(t.reshape((self.m,) * self.k))
                for t in self.unique_tables()[0]]

    def unique_tables(self):
        """(unique flat tables, member -> unique-id map) in first-seen order.

        Rows are pairwise unequal as numbers.  Members with equal tables are
        indistinguishable in any L2(nu) metric, so nets and suprema run over
        the unique representatives.
        Cached and read-only: families are immutable after construction.
        """
        return self._distinct_tables

    def __len__(self) -> int:
        return len(self.unique_tables()[1])

    def member(self, i: int) -> KernelFunction:
        return self._shared_kernels[self.unique_tables()[1][i]]

    @property
    def members(self):
        """Every member in order; members with equal tables are one kernel."""
        return [self._shared_kernels[g] for g in self.unique_tables()[1].tolist()]

    def budget_at(self, epsilon: float) -> float:
        return self.D * epsilon ** (-self.L)


class ExplicitFamily(FunctionFamily):
    def __init__(self, kernels, D: float, L: float, sigma: float = 1.0):
        kernels = list(kernels)
        if not kernels:
            raise ValueError("empty family")
        super().__init__(kernels[0].k, kernels[0].m, D, L, sigma)
        self.kernels = kernels

    def _distinct(self):
        return (np.array([f.table.ravel() for f in self.kernels]),
                np.arange(len(self.kernels)))


def singleton_family(f: KernelFunction, sigma: float = 1.0) -> ExplicitFamily:
    if not 0 < sigma <= 1:
        raise InvalidArgument("sigma", "must lie in (0, 1]")
    return ExplicitFamily([f], D=1.0, L=1.0, sigma=sigma)


def box_budget(k: int) -> tuple:
    """(D, L) declared for box restrictions in k axes, from the rectangular-box
    cover construction with d = 1: D = 2**(k*(k+1)*d*d), L = 2*k*d."""
    return float(2 ** (k * (k + 1))), float(2 * k)


def _window_count(cap: int, cells: int) -> int:
    """Nonempty windows [u, v) of at most `cap` cells within `cells` cells."""
    c = min(cap, cells)
    return c * (cells + 1) - c * (c + 1) // 2


def interval_family(sigma: float, grid: int) -> BoxRestrictionFamily:
    """Indicator kernels of all grid-aligned subintervals of [0,1] with
    length at most sigma**2, the empty one included, over the uniform grid
    with `grid` cells: the k=1 box family of f = 1 with a window cap.

    Includes the floor(1/sigma**2) disjoint intervals of exact length
    sigma**2 whenever the grid resolves them.
    """
    if not 0 < sigma <= 1:
        raise InvalidArgument("sigma", "must lie in (0, 1]")
    max_cells = int(np.floor(sigma ** 2 * grid + 1e-9))
    if max_cells < 1 or grid < int(np.ceil(1.0 / sigma ** 2)):
        raise InvalidArgument("grid", "too coarse to represent length-sigma^2 "
                                      "intervals")
    count = _window_count(max_cells, grid)
    if count * grid > TABLE_LIMIT:
        raise InvalidArgument("grid", f"{count} intervals x {grid} cells exceed 2^27 entries")
    return BoxRestrictionFamily(KernelFunction(np.ones(grid)), grid,
                                max_cells=max_cells, sigma=sigma)


class BoxRestrictionFamily(FunctionFamily):
    """Restrictions of a bounded kernel f to grid-aligned boxes, products of
    half-open cell index ranges [u_s, v_s) (d=1 per axis) of at most
    `max_cells` cells each (None: any), with budget box_budget(k)."""

    def __init__(self, f: KernelFunction, grid_per_axis: int,
                 max_cells: int | None = None, sigma: float = 1.0):
        if f.table.shape != (grid_per_axis,) * f.k:
            raise ValueError("base kernel is not tabulated on the stated grid")
        if max_cells is not None and max_cells < 0:
            raise ValueError("max_cells must be >= 0")
        super().__init__(f.k, f.m, *box_budget(f.k), sigma=sigma)
        self.f = f
        self.max_cells = f.m if max_cells is None else min(max_cells, f.m)
        # per-axis support hull [lo, hi) of f, (0, 0) when f is zero
        self.hulls = [(int(c.min()), int(c.max()) + 1) if c.size else (0, 0)
                      for c in np.nonzero(f.table)]
        # per axis: nonempty and m + 1 empty windows (members), nonempty clips
        members = (_window_count(self.max_cells, f.m) + f.m + 1) ** self.k
        tables = math.prod(_window_count(self.max_cells, hi - lo)
                           for lo, hi in self.hulls)
        if max(members, tables * f.m ** self.k) > TABLE_LIMIT:
            raise ValueError(f"{members} boxes, or {tables} nonempty tables x "
                             f"{f.m ** self.k} cells, exceed 2^27 entries")

    @functools.cached_property
    def _intervals(self) -> np.ndarray:
        """Per-axis windows (u, u + j), j <= max_cells, by u, then j."""
        u, j = np.divmod(np.arange((self.m + 1) * (self.max_cells + 1)),
                         self.max_cells + 1)
        keep = u + j <= self.m
        return np.stack([u[keep], u[keep] + j[keep]], axis=1)

    @property
    def boxes(self) -> list:
        """Each member's box, in member order."""
        return list(itertools.product(map(tuple, self._intervals.tolist()),
                                      repeat=self.k))

    def _distinct(self):
        """Candidate restrictions, grouped in one vectorised step.

        Restricting f to a box gives the same table as restricting it to the
        box clipped to f's per-axis support hull, so boxes are grouped by
        their clipped box, and every box with an empty clip by the zero
        table.  Each group's table is f on its first-seen box.  Boxes with
        different clips can still give equal tables (f = [1, 0, 1] on
        [1, 2) is zero), which the base class merges.
        """
        k, m, iv = self.k, self.m, self._intervals
        # code of a box: the per-axis (u, v) of its clipped box as digits in
        # base m + 1, or -1 when a clip is empty
        code = np.zeros((1,) * k, dtype=np.int64)
        empty = np.zeros((1,) * k, dtype=bool)
        for axis, (lo, hi) in enumerate(self.hulls):
            cu, cv = np.maximum(iv[:, 0], lo), np.minimum(iv[:, 1], hi)
            shape = (len(iv),) + (1,) * (k - 1 - axis)
            code = code * (m + 1) ** 2 + (cu * (m + 1) + cv).reshape(shape)
            empty = empty | (cu >= cv).reshape(shape)
        code = np.where(empty, -1, code).ravel()

        # ascending codes are already in first-seen order: box 0 is empty, and
        # per axis the first interval clipping to [a, b) is [a, b), or, when a
        # is the support's start, [u, b) from the least u the cap allows
        _, reps, group = np.unique(code, return_index=True, return_inverse=True)
        inside = (iv[:, :1] <= np.arange(m)) & (np.arange(m) < iv[:, 1:])
        mask = np.ones((reps.size,) + (1,) * k, dtype=bool)
        for axis, j in enumerate(np.unravel_index(reps, (len(iv),) * k)):
            shape = [reps.size] + [1] * k
            shape[axis + 1] = m
            mask = mask & inside[j].reshape(shape)
        return np.where(mask, self.f.table, 0.0).reshape(reps.size, -1), group


def epsilon_net(family: FunctionFamily, nu: ProbabilitySpace,
                epsilon: float) -> list:
    """Greedy L2(nu) epsilon-packing of the family, verified as a cover;
    returns the index of each net element's first member.

    Members are scanned in enumeration order; a member joins the net iff its
    distance to every current net member is >= epsilon.  A maximal packing is
    automatically an epsilon-cover, which is asserted over every member.
    Raises BudgetExceeded if the net is larger than D * eps**-L.

    nu is a probability space on the family's m points, extended to the
    k-fold product as a product measure (matching how family L2 norms are
    defined).
    """
    if not 0 < epsilon <= 1:
        raise ValueError("epsilon must lie in (0, 1]")
    if nu.m != family.m:
        raise ValueError(f"nu has {nu.m} points, the family's space {family.m}")
    w = product_weights(nu, family.k)
    tables, group = family.unique_tables()
    nuniq = tables.shape[0]

    sq = (tables ** 2) @ w  # not l2_norms: exact ties in d2 below decide membership
    gram_rhs = tables * w  # (U, m^k), reused for all distance rows

    # tables are in first-seen order, so scanning them scans members in order
    first_member = np.unique(group, return_index=True)[1]

    net_uids = []
    min_dist2 = np.full(nuniq, np.inf)
    for uid in range(nuniq):
        if min_dist2[uid] < epsilon ** 2:
            continue
        net_uids.append(uid)
        d2 = sq + sq[uid] - 2.0 * (tables @ gram_rhs[uid])
        np.minimum(min_dist2, np.maximum(d2, 0.0), out=min_dist2)
        min_dist2[uid] = 0.0  # not the rounding residue of its own distance

    # every member is in the net or was skipped as within epsilon of it
    assert np.all(min_dist2 < epsilon ** 2), "greedy packing is not an epsilon-cover"

    allowed = family.budget_at(epsilon)
    if len(net_uids) > allowed:
        raise BudgetExceeded(len(net_uids), allowed)
    return [int(first_member[u]) for u in net_uids]
