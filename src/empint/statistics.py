"""Random functionals of samples: multiple integrals, U-statistics and
their decoupled / sign-randomized variants.

Each statistic of an arity-k kernel f is flat(f) . flat(w) for one weight
tensor w per sample over the m^k point tuples.  For the multiple integral J,
w is the k-fold product of the signed increment mu_n - mu with the point
diagonals removed.  For sums over distinct sample *indices*, w comes from an
inclusion-exclusion over set partitions, so the cost is O(n + m^k) per
partition instead of O(n^k).
"""
from __future__ import annotations

import functools
import itertools
from dataclasses import dataclass, field
from math import factorial, perm, prod

import numpy as np

from .decomposition import all_subsets, hoeffding_decompose
from .kernels import KernelFunction, _check_shape, offdiag_mask
from .spaces import ProbabilitySpace, Sample, draw_sample, signed_increment, \
    stream_rng


class DegenerateSample(Exception):
    """Raised when a U-statistic of order k is requested with n < k."""


class ResidualTooLarge(Exception):
    """The expansion least-squares fit failed; J, I or the decomposition is wrong."""


STREAMS_PER_DRAW = 64  # stream-id stride between Monte Carlo replicas
HOLDOUT_STREAMS = 2 ** 32  # first stream id of the expansion holdout


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
# weight tensors: each statistic of an arity-k kernel f is flat(f) . flat(w)

def increment_weights(sample: Sample, space: ProbabilitySpace, k: int) -> np.ndarray:
    """(n^{k/2}/k!) * prod_s nu(x_s), nu = mu_n - mu, on pairwise-distinct
    point tuples and 0 on the point diagonals."""
    nu = signed_increment(sample, space).weights
    w = nu
    for _ in range(k - 1):
        w = np.multiply.outer(w, nu)
    if k > 1:
        w = np.where(offdiag_mask(space.m, k), w, 0.0)
    return w * (sample.n ** (k / 2) / factorial(k))


@functools.cache
def _partitions(k: int) -> tuple:
    """The Bell(k) set partitions of {0..k-1}, each with its Mobius weight
    prod over blocks B of (-1)^(|B|-1) (|B|-1)!."""
    if k == 0:
        return (((), 1),)
    out = []
    for blocks, _ in _partitions(k - 1):
        # k-1 joins each existing block in turn, or opens its own
        for i in range(len(blocks)):
            out.append(blocks[:i] + (blocks[i] + (k - 1,),) + blocks[i + 1:])
        out.append(blocks + ((k - 1,),))
    return tuple((p, prod((-1) ** (len(b) - 1) * factorial(len(b) - 1) for b in p))
                 for p in out)


def distinct_weights(cols, m: int, signs=None) -> np.ndarray:
    """Tensor w over point tuples with flat(f) . flat(w) equal to (1/k!) times
    the sum over ordered distinct index tuples (j_1..j_k) of
    f(cols[0][j_1], ..., cols[k-1][j_k]), each term weighted by the product
    of signs[j_s] when signs are given.

    Inclusion-exclusion over set partitions of the coordinates: indices in
    one block coincide, so a block contributes the joint counts of its
    columns (sign-weighted when the block has odd size, as squared signs
    are 1).  Cost O((n + m^k) * Bell(k)) instead of O(n^k)."""
    k = len(cols)
    n = len(cols[0])
    if n < k:
        raise DegenerateSample(f"n={n} < k={k}")
    counts = {}
    w = np.zeros((m,) * k)
    for blocks, mobius in _partitions(k):
        operands = []
        for block in blocks:
            if block not in counts:
                t = np.zeros((m,) * len(block))
                odd = signs is not None and len(block) % 2 == 1
                np.add.at(t, tuple(cols[s] for s in block), signs if odd else 1.0)
                counts[block] = t
            operands.extend([counts[block], list(block)])
        w += mobius * np.einsum(*operands, list(range(k)))
    return w / factorial(k)


def _flat_dot(f: KernelFunction, w: np.ndarray) -> float:
    return float(f.table.ravel() @ w.ravel())


def multiple_integral_j(f: KernelFunction, sample: Sample,
                        space: ProbabilitySpace) -> float:
    """(n^{k/2}/k!) * sum of f * prod(mu_n - mu) over distinct point tuples."""
    _check_shape(f, space)
    return _flat_dot(f, increment_weights(sample, space, f.k))


def u_statistic(f: KernelFunction, sample: Sample) -> float:
    """(1/k!) * sum of f over ordered distinct index tuples of one sample."""
    return _flat_dot(f, distinct_weights([sample.values] * f.k, f.m))


def decoupled_u_statistic(f: KernelFunction, draw: SampleDraw) -> float:
    """As u_statistic but coordinate s reads from decoupled copy s."""
    cols = [draw.decoupled[s].values for s in range(f.k)]
    return _flat_dot(f, distinct_weights(cols, f.m))


def randomized_decoupled(f: KernelFunction, draw: SampleDraw) -> float:
    """Decoupled U-statistic with each term weighted by the product of the
    signs of its row indices."""
    cols = [draw.decoupled[s].values for s in range(f.k)]
    return _flat_dot(f, distinct_weights(cols, f.m, draw.signs))


def mirrored_contrast(f: KernelFunction, draw: SampleDraw,
                      randomized: bool = False) -> float:
    """Alternating-sign sum over coordinate subsets V of decoupled
    U-statistics that read coordinate s from the decoupled copy if s is in V
    and from the mirrored copy otherwise; optionally sign-randomized.

    The randomized and plain versions have identical joint distributions,
    which the exhaustive micro-tests check.
    """
    signs = draw.signs if randomized else None
    w = sum((-1) ** len(V) * distinct_weights(
        [(draw.decoupled if s in V else draw.mirrored)[s - 1].values
         for s in range(1, f.k + 1)], f.m, signs)
        for V in all_subsets(f.k))
    return _flat_dot(f, w)


def h_integral(f: KernelFunction, draw: SampleDraw, rho: ProbabilitySpace) -> float:
    """Integral over the auxiliary space of the squared decoupled statistic
    of the slices f(.,...,., y), weighted by rho."""
    k = f.k - 1
    if k < 1:
        raise ValueError("f must have arity k+1 with k >= 1")
    if f.table.shape[-1] != rho.m:
        raise ValueError("last coordinate of f does not match rho")
    w = distinct_weights([draw.decoupled[s].values for s in range(k)], f.m)
    stats = np.tensordot(w, f.table, k)  # one decoupled statistic per y
    return float(rho.weights @ stats ** 2)


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
    if k > 1:
        f = KernelFunction(f.table * offdiag_mask(space.m, k))
    decomp = hoeffding_decompose(f, space)
    row = np.zeros(k + 1)
    row[0] = decomp.constant
    for r in range(1, k + 1):
        # one weight tensor serves every component of arity r
        w = distinct_weights([sample.values] * r, space.m)
        row[r] = sample.n ** (-r / 2) * sum(
            _flat_dot(decomp.component(V), w)
            for V in itertools.combinations(range(1, k + 1), r))
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
    random (kernel, sample) pairs, drawn from streams the fit never opens."""
    rng = stream_rng(seed, HOLDOUT_STREAMS)
    worst = 0.0
    for t in range(pairs):
        f = _random_kernel(space, coeffs.k, rng)
        sample = draw_sample(space, coeffs.n, seed, HOLDOUT_STREAMS + 1 + t)
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
        total += prob * _flat_dot(f, distinct_weights(cols, space.m)) ** 2
    return total


def ordered_distinct_tuple_count(n: int, k: int) -> int:
    return perm(n, k)
