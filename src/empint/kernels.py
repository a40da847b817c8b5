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
from dataclasses import dataclass

import numpy as np

from .spaces import DiscreteMeasure, ProbabilitySpace


class BudgetExceeded(Exception):
    """The constructed net is larger than the family's declared D * eps**-L."""

    def __init__(self, actual: int, allowed: float):
        super().__init__(f"net size {actual} exceeds budget {allowed:g}")
        self.actual = actual
        self.allowed = allowed


@dataclass(frozen=True)
class KernelFunction:
    """Real-valued function of k points, dense-tabulated."""

    table: np.ndarray

    def __post_init__(self):
        t = np.asarray(self.table, dtype=float)
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
    """Read-only (m,)*k boolean table, True on pairwise-distinct tuples:
    those whose sorted coordinates strictly increase."""
    mask = np.all(np.diff(np.sort(np.indices((m,) * k), axis=0), axis=0) != 0,
                  axis=0)
    mask.setflags(write=False)
    return mask


def l2_norm(f: KernelFunction, space: ProbabilitySpace) -> float:
    """sqrt of the integral of f**2 against the k-fold product measure."""
    _check_shape(f, space)
    g = f.table ** 2
    for _ in range(f.k):
        g = g @ space.weights
    return float(np.sqrt(max(g, 0.0)))


def product_weights(nu, k: int, m: int) -> np.ndarray:
    """Flattened k-fold product of a base-space probability vector.

    Accepts a ProbabilitySpace or a (nonnegative, mass-1) DiscreteMeasure.
    """
    if isinstance(nu, ProbabilitySpace):
        w = nu.weights
    elif isinstance(nu, DiscreteMeasure):
        w = nu.weights
        if np.any(w < -1e-15) or abs(w.sum() - 1.0) > 1e-9:
            raise ValueError("nu must be a probability measure")
        w = np.clip(w, 0.0, None)
    else:
        w = np.asarray(nu, dtype=float)
    if w.size != m:
        raise ValueError("nu size does not match the family's space")
    out = w
    for _ in range(k - 1):
        out = np.multiply.outer(out, w)
    return out.ravel()


def _read_only(a: np.ndarray) -> np.ndarray:
    a.setflags(write=False)
    return a


class FunctionFamily:
    """Indexed family of same-arity kernels with an L2-density budget."""

    def __init__(self, k: int, m: int, D: float, L: float, beta: float = 0.0,
                 sigma: float = 1.0):
        self.k = k
        self.m = m
        self.D = D
        self.L = L
        self.beta = beta
        self.sigma = sigma

    def __len__(self) -> int:
        raise NotImplementedError

    def member(self, i: int) -> KernelFunction:
        raise NotImplementedError

    @property
    def members(self):
        return [self.member(i) for i in range(len(self))]

    def unique_tables(self):
        """(unique flat tables, member -> unique-id map) in first-seen order.

        Members with identical tables are indistinguishable in any L2(nu)
        metric, so nets and suprema run over the unique representatives.
        Cached and read-only: families are immutable after construction.
        """
        if getattr(self, "_unique_cache", None) is not None:
            return self._unique_cache
        seen = {}
        group = np.empty(len(self), dtype=np.int64)
        tables = []
        for i in range(len(self)):
            table = self.member(i).table
            key = table.tobytes()
            if key not in seen:
                seen[key] = len(tables)
                tables.append(table.ravel())
            group[i] = seen[key]
        self._unique_cache = (_read_only(np.array(tables)), _read_only(group))
        return self._unique_cache

    def budget_at(self, epsilon: float) -> float:
        return self.D * epsilon ** (-self.L)

    def check_budget(self, n: int) -> bool:
        """Eq-style growth condition: D <= n**beta."""
        return self.D <= float(n) ** self.beta


class ExplicitFamily(FunctionFamily):
    def __init__(self, kernels, D: float, L: float, beta: float = 0.0,
                 sigma: float = 1.0):
        kernels = list(kernels)
        if not kernels:
            raise ValueError("empty family")
        super().__init__(kernels[0].k, kernels[0].m, D, L, beta, sigma)
        self.kernels = kernels

    def __len__(self):
        return len(self.kernels)

    def member(self, i):
        return self.kernels[i]


def singleton_family(f: KernelFunction, sigma: float = 1.0) -> ExplicitFamily:
    return ExplicitFamily([f], D=1.0, L=1.0, sigma=sigma)


def interval_family(sigma: float, grid: int) -> ExplicitFamily:
    """Indicator kernels of all grid-aligned subintervals of [0,1] with
    length at most sigma**2, over the uniform grid with `grid` cells.

    Includes the floor(1/sigma**2) disjoint intervals of exact length
    sigma**2 whenever the grid resolves them.
    """
    if not 0 < sigma <= 1:
        raise ValueError("sigma must lie in (0, 1]")
    if grid < int(np.ceil(1.0 / sigma ** 2)):
        raise ValueError("grid too coarse to represent length-sigma^2 intervals")
    max_cells = int(np.floor(sigma ** 2 * grid + 1e-9))
    if max_cells < 1:
        raise ValueError("grid too coarse to represent length-sigma^2 intervals")
    kernels = []
    for length in range(1, max_cells + 1):
        for start in range(0, grid - length + 1):
            table = np.zeros(grid)
            table[start:start + length] = 1.0
            kernels.append(KernelFunction(table))
    # L2-density budget of the d=1 box construction at k=1
    return ExplicitFamily(kernels, D=4.0, L=2.0, sigma=sigma)


class BoxRestrictionFamily(FunctionFamily):
    """Restrictions of a bounded kernel f to all grid-aligned boxes.

    Realized for d=1 per axis: a box is a product of half-open cell index
    ranges [u_s, v_s). Budget documented from the rectangular-box cover
    construction: exponent L = 2*k*d and parameter D = 2**(k*(k+1)*d*d),
    with d = 1 here.
    """

    def __init__(self, f: KernelFunction, grid_per_axis: int):
        if sup_norm(f) > 1 + 1e-12:
            raise ValueError("base kernel must satisfy |f| <= 1")
        if f.m != grid_per_axis:
            raise ValueError("base kernel is not tabulated on the stated grid")
        k = f.k
        super().__init__(k, f.m, D=float(2 ** (k * (k + 1))), L=float(2 * k))
        self.f = f
        self.axis_intervals = [(u, v) for u in range(f.m + 1)
                               for v in range(u, f.m + 1)]
        self.boxes = list(itertools.product(self.axis_intervals, repeat=k))
        # per-axis support bounds of f, used to collapse identical restrictions
        self._support = []
        for axis in range(k):
            mask = np.any(np.abs(f.table) > 0, axis=tuple(a for a in range(k) if a != axis)) \
                if k > 1 else np.abs(f.table) > 0
            idx = np.nonzero(mask)[0]
            self._support.append((int(idx[0]), int(idx[-1]) + 1) if idx.size else (0, 0))

    def __len__(self):
        return len(self.boxes)

    def unique_tables(self):
        """The base class's (tables, group map), built in one vectorised step.

        Restricting f to a box gives the same table as restricting it to the
        box clipped to f's per-axis support hull, so boxes are grouped by
        their clipped box, and every box with an empty clip by the zero
        table.  Each group's table is f on its first-seen box.
        """
        if getattr(self, "_unique_cache", None) is not None:
            return self._unique_cache
        k, m = self.k, self.m
        iv = np.array(self.axis_intervals)
        # code of a box: the per-axis (u, v) of its clipped box as digits in
        # base m + 1, or -1 when a clip is empty
        code = np.zeros((1,) * k, dtype=np.int64)
        empty = np.zeros((1,) * k, dtype=bool)
        for axis, (lo, hi) in enumerate(self._support):
            cu, cv = np.maximum(iv[:, 0], lo), np.minimum(iv[:, 1], hi)
            shape = (len(iv),) + (1,) * (k - 1 - axis)
            code = code * (m + 1) ** 2 + (cu * (m + 1) + cv).reshape(shape)
            empty = empty | (cu >= cv).reshape(shape)
        code = np.where(empty, -1, code).ravel()

        # ascending codes are already in first-seen order: box 0 is empty,
        # and per axis the first interval clipping to [a, b) is [a, b), or
        # [0, b) when a is the support's start, which keeps the order
        _, reps, group = np.unique(code, return_index=True, return_inverse=True)
        inside = (iv[:, :1] <= np.arange(m)) & (np.arange(m) < iv[:, 1:])
        mask = np.ones((reps.size,) + (1,) * k, dtype=bool)
        for axis, j in enumerate(np.unravel_index(reps, (len(iv),) * k)):
            shape = [reps.size] + [1] * k
            shape[axis + 1] = m
            mask = mask & inside[j].reshape(shape)
        tables = np.where(mask, self.f.table, 0.0).reshape(reps.size, -1)
        self._unique_cache = (_read_only(tables), _read_only(group))
        return self._unique_cache

    def _shared_members(self) -> list:
        """One immutable kernel per distinct table, viewing its row."""
        if getattr(self, "_shared", None) is None:
            self._shared = [KernelFunction(t.reshape(self.f.table.shape))
                            for t in self.unique_tables()[0]]
        return self._shared

    def member(self, i) -> KernelFunction:
        return self._shared_members()[self.unique_tables()[1][i]]

    @property
    def members(self):
        shared = self._shared_members()
        return [shared[g] for g in self.unique_tables()[1].tolist()]


@dataclass
class EpsilonNet:
    member_indices: list
    epsilon: float
    nu: object
    cover_radius: float  # always epsilon: a maximal packing covers at its radius

    def __len__(self):
        return len(self.member_indices)


def epsilon_net(family: FunctionFamily, nu, epsilon: float) -> EpsilonNet:
    """Greedy L2(nu) epsilon-packing of the family, verified as a cover.

    Members are scanned in enumeration order; a member joins the net iff its
    distance to every current net member is >= epsilon.  A maximal packing is
    automatically an epsilon-cover, which is asserted over every member.
    Raises BudgetExceeded if the net is larger than D * eps**-L.

    nu is a probability measure on the base space, extended to the k-fold
    product as a product measure (matching how family L2 norms are defined).
    """
    if not 0 < epsilon <= 1:
        raise ValueError("epsilon must lie in (0, 1]")
    w = product_weights(nu, family.k, family.m)
    tables, group = family.unique_tables()
    nuniq = tables.shape[0]

    sq = (tables ** 2) @ w
    gram_rhs = tables * w  # (U, m^k), reused for all distance rows

    # first enumeration index per unique table; duplicate fancy-index
    # assignments resolve to the last write, so reversed order keeps the first
    first_member = np.full(nuniq, -1, dtype=np.int64)
    first_member[group[::-1]] = np.arange(len(group) - 1, -1, -1)

    net_uids = []
    min_dist2 = np.full(nuniq, np.inf)
    for uid in np.argsort(first_member, kind="stable"):
        if min_dist2[uid] < epsilon ** 2:
            continue
        net_uids.append(int(uid))
        d2 = sq + sq[uid] - 2.0 * (tables @ gram_rhs[uid])
        np.minimum(min_dist2, np.maximum(d2, 0.0), out=min_dist2)
        min_dist2[uid] = 0.0  # not the rounding residue of its own distance

    # every member is in the net or was skipped as within epsilon of it
    assert np.all(min_dist2 < epsilon ** 2), "greedy packing is not an epsilon-cover"

    allowed = family.budget_at(epsilon)
    if len(net_uids) > allowed:
        raise BudgetExceeded(len(net_uids), allowed)
    return EpsilonNet(
        member_indices=[int(first_member[u]) for u in net_uids],
        epsilon=epsilon,
        nu=nu,
        cover_radius=epsilon,
    )
