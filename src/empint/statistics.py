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
from math import factorial, prod

import numpy as np

# hoeffding_decompose is not called here; the traced benchmark run wraps it
# under this module's name
from .decomposition import all_subsets, hoeffding_decompose, hoeffding_parts  # noqa: F401
from .kernels import KernelFunction, _check_shape, offdiag_mask
from .spaces import TABLE_LIMIT, InvalidArgument, ProbabilitySpace, \
    draw_sample, point_counts, signed_increment, stream_rng


class DegenerateSample(InvalidArgument):
    """Raised when a U-statistic of order k is requested with n < k."""


class ResidualTooLarge(Exception):
    """The expansion least-squares fit failed; J, I or the decomposition is wrong."""


STREAMS_PER_DRAW = 64  # stream-id stride between Monte Carlo replicas
HOLDOUT_STREAMS = 2 ** 32  # first stream id of the expansion holdout
EXPANSION_REL_TOL = 1e-8  # largest relative residual of the expansion fit
# most kernel-table entries in one stack of expansion pairs (4 pairs at
# m = 16, k = 3); larger stacks save little more call overhead and raise
# peak memory (at 2^16 entries, about 1.7 MB more on a 40 MB audit run)
EXPANSION_CHUNK_ENTRIES = 2 ** 14


@dataclass(frozen=True, eq=False)
class SampleDraw:
    """One Monte Carlo realization: base sample, k decoupled copies, k
    mirrored copies and a Rademacher sign vector, all from one seed.

    Each is drawn from `space` on first read and then kept, from the stream
    id it always has: base from replica * STREAMS_PER_DRAW = b, decoupled
    copy s from b+1+s, mirrored copy s from b+1+k+s and the signs from
    b+1+2k.  A statistic thus opens only the streams it reads."""

    space: ProbabilitySpace = field(repr=False)
    n: int
    k: int
    seed: int
    replica: int

    def _stream(self, offset: int) -> int:
        return self.replica * STREAMS_PER_DRAW + offset

    def _copies(self, offset: int) -> tuple:
        return tuple(draw_sample(self.space, self.n, self.seed, self._stream(offset + s))
                     for s in range(self.k))

    @functools.cached_property
    def base(self) -> np.ndarray:
        return draw_sample(self.space, self.n, self.seed, self._stream(0))

    @functools.cached_property
    def decoupled(self) -> tuple:
        return self._copies(1)

    @functools.cached_property
    def mirrored(self) -> tuple:
        return self._copies(1 + self.k)

    @functools.cached_property
    def signs(self) -> np.ndarray:
        u = stream_rng(self.seed, self._stream(1 + 2 * self.k)).random(self.n)
        signs = np.where(u < 0.5, -1.0, 1.0)
        signs.setflags(write=False)
        return signs


def draw_bundle(space: ProbabilitySpace, n: int, k: int, seed: int,
                replica: int = 0) -> SampleDraw:
    """Base, decoupled and mirrored samples plus signs from distinct streams
    of one seed, each drawn when first read; replicas use disjoint stream-id
    blocks."""
    if k < 1 or 2 * k + 2 > STREAMS_PER_DRAW:
        raise ValueError("k out of supported range")
    return SampleDraw(space, n, k, seed, replica)


# ---------------------------------------------------------------------------
# weight tensors: each statistic of an arity-k kernel f is flat(f) . flat(w)

def increment_weights(sample: np.ndarray, space: ProbabilitySpace, k: int) -> np.ndarray:
    """(n^{k/2}/k!) * prod_s nu(x_s), nu = mu_n - mu, on pairwise-distinct
    point tuples and 0 on the point diagonals."""
    nu = signed_increment(sample, space)
    w = nu
    for _ in range(k - 1):
        w = np.multiply.outer(w, nu)
    if k > 1:
        w = np.where(offdiag_mask(space.m, k), w, 0.0)
    return w * (sample.size ** (k / 2) / factorial(k))


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
    of signs[j_s] when signs are given; each sign must be exactly +/-1.

    Inclusion-exclusion over set partitions of the coordinates: indices in
    one block coincide, so a block contributes the joint counts of its
    columns (sign-weighted when the block has odd size, as squared signs
    are 1).  Cost O((n + m^k) * Bell(k)) instead of O(n^k)."""
    k = len(cols)
    n = len(cols[0])
    if n < k:
        raise DegenerateSample("n", "must be >= k")
    if signs is not None and not np.all(np.abs(signs) == 1.0):
        raise ValueError("signs must be exactly +/-1")
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


def multiple_integral_j(f: KernelFunction, sample: np.ndarray,
                        space: ProbabilitySpace) -> float:
    """(n^{k/2}/k!) * sum of f * prod(mu_n - mu) over distinct point tuples."""
    _check_shape(f, space)
    return _flat_dot(f, increment_weights(sample, space, f.k))


def u_statistic(f: KernelFunction, sample: np.ndarray) -> float:
    """(1/k!) * sum of f over ordered distinct index tuples of one sample."""
    return _flat_dot(f, distinct_weights([sample] * f.k, f.m))


def mirrored_contrast(f: KernelFunction, decoupled, mirrored, signs=None) -> float:
    """Alternating-sign sum over coordinate subsets V of decoupled
    U-statistics that read coordinate s from decoupled copy s if s is in V
    and from mirrored copy s otherwise, each term weighted by the product of
    its row signs when signs are given.

    The sign-weighted and plain versions have identical joint distributions,
    which the exhaustive micro-tests check.
    """
    w = sum((-1) ** len(V) * distinct_weights(
        [(decoupled if s in V else mirrored)[s - 1]
         for s in range(1, f.k + 1)], f.m, signs)
        for V in all_subsets(f.k))
    return _flat_dot(f, w)


# ---------------------------------------------------------------------------
# expansion of J into degenerate U-statistics of the Hoeffding components

def _falling_contract(stack: np.ndarray, vec: np.ndarray) -> np.ndarray:
    """Per batch entry z, the sum over point tuples x of stack[z, x] times
    prod_j (vec[z, x_j] - #{i < j : x_i = x_j}).

    With vec the counts of one sample, the product counts the ordered
    distinct index tuples whose points are x: a point met t times takes the
    falling factorial c (c-1) ... (c-t+1).  The last point axis is contracted
    with vec (one batched matrix-vector product) less its diagonal with
    each earlier axis, until only the batch axis is left."""
    m = vec.shape[1]
    while stack.ndim > 1:
        last = stack.ndim - 1
        out = (stack.reshape(len(stack), -1, m) @ vec[:, :, None]).reshape(stack.shape[:-1])
        for axis in range(1, last):
            out -= np.moveaxis(np.diagonal(stack, axis1=axis, axis2=last), -1, axis)
        stack = out
    return stack


def _expansion_rows(tables: np.ndarray, counts: np.ndarray, n: int,
                    space: ProbabilitySpace):
    """Expansion rows X_r = sum_{|V|=r} n^{-r/2} I_{n,r}(f_V), r = 0..k, and
    J of a stack of (kernel, sample) pairs: kernel tables of shape
    (B,) + (m,)*k and the samples' point counts, shape (B, m).

    J never sees the kernel's values on point diagonals, so the expansion is
    built from the diagonal-free representative of f; with atoms this is
    what makes the identity exact.  As the U-statistic weight is symmetric,
    the components of one arity are summed first, and r! I_{n,r} is their
    falling-factorial contraction with the counts.  J is the same
    contraction of the diagonal-free stack with nu = mu_n - mu, whose
    subtracted diagonals are all 0."""
    k = tables.ndim - 1
    tables = tables * offdiag_mask(space.m, k)
    parts = hoeffding_parts(tables, space.weights, k)
    rows = np.empty((len(tables), k + 1))
    rows[:, 0] = parts.pop(frozenset())
    for r in range(1, k + 1):
        s = sum(t for V, t in parts.items() if len(V) == r)
        rows[:, r] = n ** (-r / 2) * _falling_contract(s, counts) / factorial(r)
    nu = counts / n - space.weights
    j = n ** (k / 2) / factorial(k) * _falling_contract(tables, nu)
    return rows, j


def _expansion_chunks(space: ProbabilitySpace, n: int, k: int, count: int,
                      seed: int, first: int):
    """`count` random (kernel, sample) pairs as stacks of at most
    EXPANSION_CHUNK_ENTRIES kernel entries: (kernel tables, point counts).
    The kernels come from stream `first`, drawn in order, and sample t from
    stream first + 1 + t."""
    rng = stream_rng(seed, first)
    size = max(1, EXPANSION_CHUNK_ENTRIES // space.m ** k)
    for start in range(0, count, size):
        stop = min(start + size, count)
        tables = rng.standard_normal((stop - start,) + (space.m,) * k)
        counts = np.array([point_counts(draw_sample(space, n, seed, first + 1 + t), space)
                           for t in range(start, stop)])
        yield tables, counts


def _expansion_pairs(space: ProbabilitySpace, n: int, k: int, count: int,
                     seed: int, first: int):
    """Expansion rows and J of `count` random (kernel, sample) pairs."""
    if n < k:
        raise DegenerateSample("n", "must be >= k")
    if space.m ** k > TABLE_LIMIT:
        raise InvalidArgument("k", f"{space.m}^{k} kernel cells exceed 2^27 entries")
    rows, targets = zip(*(_expansion_rows(tables, counts, n, space) for tables, counts
                          in _expansion_chunks(space, n, k, count, seed, first)))
    return np.concatenate(rows), np.concatenate(targets)


def derive_expansion_coefficients(n: int, k: int, space: ProbabilitySpace,
                                  trials: int, seed: int) -> dict:
    """Solve for the coefficients C(n,k,r), r = 0..k, by least squares over
    random (kernel, sample) pairs; the relative residual doubles as an
    integration test of J, the U-statistics and the decomposition."""
    if not 3 * (k + 1) <= trials <= TABLE_LIMIT:
        raise InvalidArgument("trials", f"must be in 3*(k+1)..2^27, here {3 * (k + 1)}..2^27")
    rows, targets = _expansion_pairs(space, n, k, trials, seed, 0)
    coeffs, _, rank, _ = np.linalg.lstsq(rows, targets, rcond=None)
    if rank < k + 1:
        raise ResidualTooLarge(f"expansion fit rank {rank} < k+1 = {k + 1}: "
                               "the coefficients are not determined")
    residual = float(np.linalg.norm(rows @ coeffs - targets)
                     / max(np.linalg.norm(targets), 1e-300))
    if residual > EXPANSION_REL_TOL:
        raise ResidualTooLarge(f"relative residual {residual:.3e} > {EXPANSION_REL_TOL:g}")
    return {"coefficients": coeffs.tolist(), "residual": residual}


def check_holdout_pairs(holdout_pairs: int) -> None:
    """The holdout's range rule; an audit checks it before the fit draws."""
    if not 1 <= holdout_pairs <= TABLE_LIMIT:
        raise InvalidArgument("holdout_pairs", "must be in 1..2^27")


def validate_expansion(coefficients, space: ProbabilitySpace, n: int,
                       holdout_pairs: int, seed: int) -> float:
    """max |J - sum_r c_r X_r| over fresh random (kernel, sample) pairs of
    order k = len(coefficients) - 1, from streams the fit never opens,
    relative to max |J|: the sup-norm twin of the fit's residual, to which a
    pair with J = 0 adds only its roundoff."""
    if len(coefficients) < 2:
        raise InvalidArgument("coefficients", "must hold C(n,k,r) for r = 0..k, k >= 1")
    check_holdout_pairs(holdout_pairs)
    rows, direct = _expansion_pairs(space, n, len(coefficients) - 1, holdout_pairs,
                                    seed, HOLDOUT_STREAMS)
    via = rows @ np.asarray(coefficients, dtype=float)
    return float(np.max(np.abs(direct - via)) / max(np.max(np.abs(direct)), 1e-300))


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
        total += prob * u_statistic(f, values) ** power
    return total


def exact_decoupled_second_moment(f: KernelFunction, space: ProbabilitySpace,
                                  n: int) -> float:
    """E[decoupled I^2] by enumerating all k independent copies."""
    return sum(prob * _flat_dot(f, distinct_weights(values.reshape(f.k, n), space.m)) ** 2
               for values, prob in enumerate_configurations(space, f.k * n))
