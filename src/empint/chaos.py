"""Homogeneous Rademacher chaos: the polynomial Z, its coefficient size S,
the explicit tail and hypercontractive moment bounds, and exact
enumeration over all sign vectors.

Enumeration is done with a fast Walsh-Hadamard transform: Z as a function
of the sign vector is a multilinear polynomial whose Fourier coefficients
are the symmetrized chaos coefficients, so all 2^n values come out of one
O(n 2^n) transform, run one cache-sized block at a time.
"""
from __future__ import annotations

from dataclasses import dataclass
from math import exp, factorial

import numpy as np

from .bounds import saturating_pow
from .kernels import offdiag_mask

ENUMERATION_LIMIT = 24
FWHT_BLOCK = 1 << 16  # entries the transform keeps in cache at once: 512 KiB
FWHT_LOW = 16  # levels h below this run on a block's (low, block/low) transpose


class EnumerationRefused(Exception):
    """2^n enumeration requested beyond the desk-scale cutoff."""

    def __init__(self, n: int):
        super().__init__(f"n={n} exceeds the 2^{ENUMERATION_LIMIT} enumeration cutoff")


@dataclass(frozen=True)
class ChaosCoefficients:
    """Coefficients a(j_1..j_k) over ordered pairwise-distinct k-tuples."""

    n: int
    k: int
    index_tuples: np.ndarray  # (T, k) int array; distinct rows of distinct entries
    values: np.ndarray  # (T,)

    def __post_init__(self):
        idx = np.asarray(self.index_tuples)
        if idx.size and not np.issubdtype(idx.dtype, np.integer):
            raise ValueError("index tuples must hold integers")
        idx = idx.astype(np.int64).reshape(-1, self.k)
        vals = np.asarray(self.values, dtype=float).ravel()
        if idx.shape[0] != vals.size:
            raise ValueError("index/value length mismatch")
        if not np.all(np.isfinite(vals)):
            raise ValueError("coefficient values must be finite")
        with np.errstate(over="ignore"):
            if not np.isfinite(np.sum(vals ** 2)):
                raise ValueError("the sum of squared coefficient values overflows")
        if idx.size and (idx.min() < 0 or idx.max() >= self.n):
            raise ValueError("index out of range")
        if np.any(np.diff(np.sort(idx, axis=1), axis=1) == 0):
            raise ValueError("coefficient tuple with repeated index")
        if len(set(map(tuple, idx.tolist()))) != len(idx):
            raise ValueError("repeated coefficient index tuple")
        object.__setattr__(self, "index_tuples", idx)
        object.__setattr__(self, "values", vals)
        idx.setflags(write=False)
        vals.setflags(write=False)

    @classmethod
    def from_dense(cls, a: np.ndarray) -> "ChaosCoefficients":
        """Build from a dense (n,)*k array, keeping its nonzero entries on
        pairwise-distinct tuples; diagonal entries are dropped."""
        a = np.asarray(a, dtype=float)
        keep = offdiag_mask(a.shape[0], a.ndim) & (a != 0)
        return cls(n=a.shape[0], k=a.ndim, index_tuples=np.argwhere(keep),
                   values=a[keep])


def chaos_value(coeffs: ChaosCoefficients, signs) -> float:
    """Z = sum of a(j_1..j_k) * eps_{j_1} ... eps_{j_k}."""
    signs = np.asarray(signs, dtype=float)
    if signs.size != coeffs.n:
        raise ValueError("sign vector has wrong length")
    prod = np.prod(signs[coeffs.index_tuples], axis=1)
    return float(coeffs.values @ prod)


def chaos_s(coeffs: ChaosCoefficients) -> float:
    """S: the coefficient L2 size, sqrt(sum of a^2)."""
    return float(np.sqrt(np.sum(coeffs.values ** 2)))


def symmetrized_s_bar_squared(coeffs: ChaosCoefficients) -> float:
    """S-bar^2: sum over unordered index sets of the squared symmetrized
    coefficient; equals E[Z^2] and is at most k! * S^2."""
    sym = {}
    for row, val in zip(coeffs.index_tuples, coeffs.values):
        key = tuple(sorted(row.tolist()))
        sym[key] = sym.get(key, 0.0) + val
    return float(sum(v * v for v in sym.values()))


def chaos_tail_bound(x: float, S: float, k: int) -> float:
    """min(1, e^k * exp(-(k / (2e (k!)^{1/k})) * (x/S)^{2/k}))."""
    if x < 0:
        raise ValueError("x must be >= 0")
    if S < 0:
        raise ValueError("S must be >= 0")
    if S == 0.0:
        return 1.0 if x == 0.0 else 0.0
    B = k / (2 * np.e * factorial(k) ** (1.0 / k))
    C = exp(k)
    return float(min(1.0, C * exp(-B * saturating_pow(x / S, 2.0 / k))))


def chaos_moment_bound(p: float, q: float, k: int, pth_moment: float) -> float:
    """((q-1)/(p-1))^{kq/2} * (E|Z|^p)^{q/p}."""
    if p <= 1:
        raise ValueError("p must be > 1")
    if q < p:
        raise ValueError("q must be >= p")
    if pth_moment < 0:
        raise ValueError("pth_moment must be >= 0")
    return float(((q - 1) / (p - 1)) ** (k * q / 2) * pth_moment ** (q / p))


def optimal_q_tail(x: float, S: float, k: int):
    """The Markov-optimized tail with q solving q (sqrt(k!) S / x)^{2/k} = 1/e.

    Returns (q, bound).  In the regime q >= 2 the bound is
    exp(-B (x/S)^{2/k}) without the e^k prefactor; below it the moment
    argument does not apply and the trivial bound 1 is returned.
    """
    if x <= 0 or S <= 0:
        raise ValueError("x and S must be positive")
    power = saturating_pow(x / S, 2.0 / k)
    q = (1.0 / (np.e * factorial(k) ** (1.0 / k))) * power
    if q >= 2:
        B = k / (2 * np.e * factorial(k) ** (1.0 / k))
        return float(q), float(exp(-B * power))
    return float(q), 1.0


# ---------------------------------------------------------------------------
# exact enumeration via the fast Walsh-Hadamard transform

def _butterfly(left: np.ndarray, right: np.ndarray, scratch: np.ndarray) -> None:
    """One level's butterflies on two equal-shape views: left becomes
    left + right and right becomes left - right; scratch holds the differences."""
    diff = scratch[:left.size].reshape(left.shape)
    np.subtract(left, right, out=diff)
    left += right
    right[...] = diff


def _fwht(v: np.ndarray) -> np.ndarray:
    """In-order Walsh-Hadamard transform, in place: v[b] becomes
    sum_s v[s] * (-1)^{popcount(b & s)}.  v must be a contiguous float array
    whose length is a power of two; it is returned.

    A level-h butterfly pairs entries h apart, so the levels below
    FWHT_BLOCK pair entries inside one block: each block runs all of them
    while it is in cache, the levels below FWHT_LOW on the block's
    (low, block/low) transpose, where level-h pairs are the long rows i and
    i + h.  The levels above the block run in chunks of pairs, so one block
    of scratch serves every n.  A level's pairs are disjoint, so every entry
    gets the additions and subtractions of the level-by-level transform in
    the same order and the bits do not depend on the block size.
    """
    block = min(FWHT_BLOCK, v.size)
    low = min(FWHT_LOW, block)
    scratch = np.empty(max(block // 2, 1))
    rows = np.empty((low, block // low))
    for start in range(0, v.size, block):
        b = v[start:start + block]
        cols = b.reshape(-1, low).T
        rows[...] = cols
        h = 1
        while h < low:
            pairs = rows.reshape(-1, 2, h * rows.shape[1])
            _butterfly(pairs[:, 0], pairs[:, 1], scratch)
            h *= 2
        cols[...] = rows
        while h < block:
            pairs = b.reshape(-1, 2, h)
            _butterfly(pairs[:, 0], pairs[:, 1], scratch)
            h *= 2
    h = block
    while h < v.size:
        for start in range(0, v.size, 2 * h):
            for lo in range(start, start + h, scratch.size):
                hi = lo + scratch.size
                _butterfly(v[lo:hi], v[lo + h:hi + h], scratch)
        h *= 2
    return v


def chaos_values_all_signs(coeffs: ChaosCoefficients) -> np.ndarray:
    """Z over all 2^n sign vectors; entry b corresponds to eps_j = (-1)^{bit j of b}."""
    n = coeffs.n
    if n > ENUMERATION_LIMIT:
        raise EnumerationRefused(n)
    c = np.zeros(1 << n)
    masks = np.bitwise_or.reduce(1 << coeffs.index_tuples.astype(np.int64), axis=1)
    np.add.at(c, masks, coeffs.values)
    return _fwht(c)


def exact_chaos_tail(coeffs: ChaosCoefficients, x):
    """Exact P(|Z| > x) by enumeration of all sign vectors.

    x is a scalar, giving a float, or an array, giving one tail per entry:
    all of them come from a single enumeration whose |Z| is sorted once.
    Nothing is enumerated when no x is >= 0, since every tail is then 1.
    """
    xs = np.asarray(x, dtype=float)
    if xs.size == 0 or xs.max() < 0:
        tails = np.ones(xs.shape)
    else:
        z = chaos_values_all_signs(coeffs)
        np.abs(z, out=z)
        z.sort()
        tails = (z.size - np.searchsorted(z, xs, side="right")) / z.size
    return float(tails) if xs.ndim == 0 else tails


def exact_chaos_moment(coeffs: ChaosCoefficients, q: float) -> float:
    """Exact E|Z|^q by enumeration."""
    z = chaos_values_all_signs(coeffs)
    return float(np.mean(np.abs(z) ** q))
