"""Random functionals of samples: multiple integrals, U-statistics and
their decoupled / sign-randomized variants.

The multiple integral J sums a kernel against the k-fold product of the
signed increment mu_n - mu with the point diagonals removed; on a finite
space this is an exact O(m^k) sum.  U-statistic style sums over distinct
sample *indices* are evaluated through a partition inclusion-exclusion, so
the cost is O(n*k + m^k) instead of O(n^k).
"""
from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from math import comb, factorial

import numpy as np

from .decomposition import all_subsets, hoeffding_decompose
from .kernels import KernelFunction, _check_shape
from .spaces import ProbabilitySpace, Sample, draw_sample, point_counts, \
    signed_increment, stream_rng


class DegenerateSample(Exception):
    """Raised when a U-statistic of order k is requested with n < k."""


class ResidualTooLarge(Exception):
    """The expansion least-squares fit failed; J, I or the decomposition is wrong."""


STREAMS_PER_DRAW = 64  # stream-id stride between Monte Carlo replicas


class _Drawn:
    """A SampleDraw field that, when not given, is drawn from its stream on
    first read and then kept.

    A data descriptor, so the dataclass __init__ (and dataclasses.replace)
    store given values through __set__; None, the default, means "draw"."""

    def __set_name__(self, owner, name):
        self.name = name

    def __get__(self, draw, owner=None):
        if draw is None:
            return None
        if self.name not in draw.__dict__:
            draw.__dict__[self.name] = draw._draw(self.name)
        return draw.__dict__[self.name]

    def __set__(self, draw, value):
        if value is not None:
            draw.__dict__[self.name] = value


@dataclass(frozen=True, kw_only=True, eq=False)
class SampleDraw:
    """One Monte Carlo realization: base sample, k decoupled copies, k
    mirrored copies and a Rademacher sign vector, all from one seed.

    Fields not given are drawn from `space` on first read, each from the
    stream id it always has: base from replica * STREAMS_PER_DRAW = b,
    decoupled copy s from b+1+s, mirrored copy s from b+1+k+s and the signs
    from b+1+2k.  A statistic thus opens only the streams it reads."""

    base: Sample = _Drawn()
    decoupled: tuple = _Drawn()
    mirrored: tuple = _Drawn()
    signs: np.ndarray = _Drawn()
    seed: int
    replica: int
    n: int = None  # from base when not given
    k: int = None  # from decoupled when not given
    space: ProbabilitySpace = field(default=None, repr=False)

    def __post_init__(self):
        if "signs" in self.__dict__:
            s = np.asarray(self.signs, dtype=float)
            if not np.all(np.abs(s) == 1.0):
                raise ValueError("signs must be exactly +/-1")
            s.setflags(write=False)
            self.__dict__["signs"] = s
        if self.n is None:
            object.__setattr__(self, "n", self.base.n)
        if self.k is None:
            object.__setattr__(self, "k", len(self.decoupled))

    def _draw(self, name: str):
        if self.space is None:
            raise ValueError(f"{name} was not given and there is no space to draw it from")
        base_id = self.replica * STREAMS_PER_DRAW
        if name == "base":
            return draw_sample(self.space, self.n, self.seed, base_id)
        if name == "signs":
            u = stream_rng(self.seed, base_id + 1 + 2 * self.k).random(self.n)
            signs = np.where(u < 0.5, -1.0, 1.0)
            signs.setflags(write=False)
            return signs
        first = base_id + 1 + (self.k if name == "mirrored" else 0)
        return tuple(draw_sample(self.space, self.n, self.seed, first + s)
                     for s in range(self.k))


def draw_bundle(space: ProbabilitySpace, n: int, k: int, seed: int,
                replica: int = 0) -> SampleDraw:
    """Base, decoupled and mirrored samples plus signs from distinct streams
    of one seed, each drawn when first read; replicas use disjoint stream-id
    blocks."""
    if k < 1 or 2 * k + 2 > STREAMS_PER_DRAW:
        raise ValueError("k out of supported range")
    if n < 1:
        raise ValueError("n must be >= 1")
    return SampleDraw(seed=seed, replica=replica, n=n, k=k, space=space)


# ---------------------------------------------------------------------------
# multiple integral J against (mu_n - mu)^k, diagonals omitted

_MASK_CACHE = {}


def _offdiag_mask(m: int, k: int) -> np.ndarray:
    key = (m, k)
    if key not in _MASK_CACHE:
        idx = np.indices((m,) * k)
        mask = np.ones((m,) * k, dtype=bool)
        for a, b in itertools.combinations(range(k), 2):
            mask &= idx[a] != idx[b]
        _MASK_CACHE[key] = mask
    return _MASK_CACHE[key]


def multiple_integral_j(f: KernelFunction, sample: Sample,
                        space: ProbabilitySpace) -> float:
    """(n^{k/2}/k!) * sum of f * prod(mu_n - mu) over distinct point tuples."""
    _check_shape(f, space)
    k = f.k
    nu = signed_increment(sample, space).weights
    prod = f.table
    for axis in range(k):
        shape = [1] * k
        shape[axis] = space.m
        prod = prod * nu.reshape(shape)
    total = prod[_offdiag_mask(space.m, k)].sum() if k > 1 else prod.sum()
    n = sample.n
    return float(n ** (k / 2) / factorial(k) * total)


# ---------------------------------------------------------------------------
# distinct-index sums via partition inclusion-exclusion (k <= 3)

# partitions of {0..k-1} as (blocks, Mobius coefficient)
_PARTITIONS = {
    1: [(((0,),), 1.0)],
    2: [(((0,), (1,)), 1.0), (((0, 1),), -1.0)],
    3: [
        (((0,), (1,), (2,)), 1.0),
        (((0, 1), (2,)), -1.0),
        (((0, 2), (1,)), -1.0),
        (((1, 2), (0,)), -1.0),
        (((0, 1, 2),), 2.0),
    ],
}


def _distinct_index_sum(table: np.ndarray, cols, weights=None) -> float:
    """Sum over distinct index tuples (j_1..j_k) of
    prod_s w[j_s] * table[cols[s][j_s], ...]."""
    k = table.ndim
    if k not in _PARTITIONS:
        raise ValueError(f"arity {k} not supported (k <= 3)")
    m = table.shape[0]
    total = 0.0
    for blocks, mobius in _PARTITIONS[k]:
        operands = [table, list(range(k))]
        for block in blocks:
            t = np.zeros((m,) * len(block))
            if weights is None or len(block) % 2 == 0:
                # sign weights square to 1 on even blocks
                np.add.at(t, tuple(cols[s] for s in block), 1.0)
            else:
                np.add.at(t, tuple(cols[s] for s in block), weights)
            operands.extend([t, list(block)])
        operands.append([])
        total += mobius * np.einsum(*operands)
    return float(total)


def u_statistic(f: KernelFunction, sample: Sample) -> float:
    """(1/k!) * sum of f over ordered distinct index tuples of one sample."""
    k = f.k
    if sample.n < k:
        raise DegenerateSample(f"n={sample.n} < k={k}")
    cols = [sample.values] * k
    return _distinct_index_sum(f.table, cols) / factorial(k)


def decoupled_u_statistic(f: KernelFunction, draw: SampleDraw) -> float:
    """As u_statistic but coordinate s reads from decoupled copy s."""
    k = f.k
    if draw.n < k:
        raise DegenerateSample(f"n={draw.n} < k={k}")
    cols = [draw.decoupled[s].values for s in range(k)]
    return _distinct_index_sum(f.table, cols) / factorial(k)


def randomized_decoupled(f: KernelFunction, draw: SampleDraw) -> float:
    """Decoupled U-statistic with each term weighted by the product of the
    signs of its row indices."""
    k = f.k
    if draw.n < k:
        raise DegenerateSample(f"n={draw.n} < k={k}")
    cols = [draw.decoupled[s].values for s in range(k)]
    return _distinct_index_sum(f.table, cols, weights=draw.signs) / factorial(k)


def mirrored_contrast(f: KernelFunction, draw: SampleDraw,
                      randomized: bool = False) -> float:
    """Alternating-sign sum over coordinate subsets V of decoupled
    U-statistics that read coordinate s from the decoupled copy if s is in V
    and from the mirrored copy otherwise; optionally sign-randomized.

    The randomized and plain versions have identical joint distributions,
    which the exhaustive micro-tests check.
    """
    k = f.k
    weights = draw.signs if randomized else None
    total = 0.0
    for V in all_subsets(k):
        cols = [draw.decoupled[s - 1].values if s in V else draw.mirrored[s - 1].values
                for s in range(1, k + 1)]
        term = _distinct_index_sum(f.table, cols, weights=weights) / factorial(k)
        total += (-1) ** len(V) * term
    return float(total)


def h_integral(f: KernelFunction, draw: SampleDraw, rho: ProbabilitySpace) -> float:
    """Integral over the auxiliary space of the squared decoupled statistic
    of the slices f(.,...,., y), weighted by rho."""
    k = f.k - 1
    if k < 1:
        raise ValueError("f must have arity k+1 with k >= 1")
    if f.table.shape[-1] != rho.m:
        raise ValueError("last coordinate of f does not match rho")
    if draw.n < k:
        raise DegenerateSample(f"n={draw.n} < k={k}")
    cols = [draw.decoupled[s].values for s in range(k)]
    total = 0.0
    for y in range(rho.m):
        stat = _distinct_index_sum(f.table[..., y], cols) / factorial(k)
        total += rho.weights[y] * stat ** 2
    return float(total)


# ---------------------------------------------------------------------------
# expansion of J into degenerate U-statistics of the Hoeffding components

@dataclass(frozen=True)
class ExpansionCoefficients:
    n: int
    k: int
    values: np.ndarray  # C(n, k, r) for r = 0..k
    residual: float

    def __post_init__(self):
        v = np.asarray(self.values, dtype=float)
        object.__setattr__(self, "values", v)
        v.setflags(write=False)


def _expansion_row(f: KernelFunction, sample: Sample,
                   space: ProbabilitySpace) -> np.ndarray:
    """Per-subset-size aggregates X_r = sum_{|V|=r} n^{-r/2} I_{n,r}(f_V).

    J never sees the kernel's values on point diagonals, so the expansion is
    built from the diagonal-free representative of f; with atoms this is
    what makes the identity exact."""
    k = f.k
    n = sample.n
    if k > 1:
        f = KernelFunction(f.table * _offdiag_mask(space.m, k))
    decomp = hoeffding_decompose(f, space)
    row = np.zeros(k + 1)
    row[0] = decomp.constant
    for V in all_subsets(k):
        r = len(V)
        if r == 0:
            continue
        row[r] += n ** (-r / 2) * u_statistic(decomp.component(V), sample)
    return row


def _random_kernel(space: ProbabilitySpace, k: int, rng: np.random.Generator) -> KernelFunction:
    return KernelFunction(rng.standard_normal((space.m,) * k))


def derive_expansion_coefficients(n: int, k: int, space: ProbabilitySpace,
                                  trials: int, seed: int,
                                  rel_tol: float = 1e-8) -> ExpansionCoefficients:
    """Solve for the coefficients C(n,k,r) by least squares over random
    (kernel, sample) pairs; the residual doubles as an integration test of
    J, the U-statistics and the decomposition."""
    if n < k:
        raise DegenerateSample(f"n={n} < k={k}")
    if trials < 3 * (k + 1):
        raise ValueError("trials must be at least 3*(k+1)")
    rng = stream_rng(seed, 0)
    rows = np.zeros((trials, k + 1))
    targets = np.zeros(trials)
    for t in range(trials):
        f = _random_kernel(space, k, rng)
        sample = draw_sample(space, n, seed, stream_id=1 + t)
        rows[t] = _expansion_row(f, sample, space)
        targets[t] = multiple_integral_j(f, sample, space)
    coeffs, _, _, _ = np.linalg.lstsq(rows, targets, rcond=None)
    residual = float(np.linalg.norm(rows @ coeffs - targets)
                     / max(np.linalg.norm(targets), 1e-300))
    if residual > rel_tol:
        raise ResidualTooLarge(f"relative residual {residual:.3e} > {rel_tol:g}")
    return ExpansionCoefficients(n=n, k=k, values=coeffs, residual=residual)


def j_from_expansion(f: KernelFunction, sample: Sample, space: ProbabilitySpace,
                     coeffs: ExpansionCoefficients) -> float:
    """Evaluate J through the degenerate U-statistic expansion."""
    if f.k != coeffs.k or sample.n != coeffs.n:
        raise ValueError("coefficients do not match (n, k)")
    row = _expansion_row(f, sample, space)
    return float(row @ coeffs.values)


def validate_expansion(coeffs: ExpansionCoefficients, space: ProbabilitySpace,
                       pairs: int, seed: int) -> float:
    """Max relative disagreement between J and its expansion on fresh
    random (kernel, sample) pairs."""
    rng = stream_rng(seed, 0)
    worst = 0.0
    for t in range(pairs):
        f = _random_kernel(space, coeffs.k, rng)
        sample = draw_sample(space, coeffs.n, seed, stream_id=1001 + t)
        direct = multiple_integral_j(f, sample, space)
        via = j_from_expansion(f, sample, space, coeffs)
        worst = max(worst, abs(direct - via) / max(abs(direct), 1e-12))
    return worst


# ---------------------------------------------------------------------------
# exhaustive enumeration over all sample configurations (tiny n, m)

def enumerate_configurations(space: ProbabilitySpace, n: int):
    """Yield (values array, probability) over all m^n sample configurations."""
    for combo in itertools.product(range(space.m), repeat=n):
        values = np.array(combo, dtype=np.int64)
        prob = float(np.prod(space.weights[values]))
        yield values, prob


def exact_u_statistic_moment(f: KernelFunction, space: ProbabilitySpace,
                             n: int, power: int = 2) -> float:
    """E[I_{n,k}(f)^power] by exact enumeration of all m^n configurations."""
    total = 0.0
    for values, prob in enumerate_configurations(space, n):
        sample = Sample(values=values, source_seed=0, stream_id=0)
        total += prob * u_statistic(f, sample) ** power
    return total


def exact_decoupled_second_moment(f: KernelFunction, space: ProbabilitySpace,
                                  n: int) -> float:
    """E[decoupled I^2] by enumerating all k independent copies."""
    k = f.k
    total = 0.0
    for configs in itertools.product(
            itertools.product(range(space.m), repeat=n), repeat=k):
        cols = [np.array(c, dtype=np.int64) for c in configs]
        prob = float(np.prod([np.prod(space.weights[c]) for c in cols]))
        stat = _distinct_index_sum(f.table, cols) / factorial(k)
        total += prob * stat ** 2
    return total


def ordered_distinct_tuple_count(n: int, k: int) -> int:
    return factorial(n) // factorial(n - k) if n >= k else 0


def binomial(n: int, k: int) -> int:
    return comb(n, k)
