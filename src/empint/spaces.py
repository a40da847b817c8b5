"""Finite probability spaces, seeded sampling and empirical measures.

All randomness in the library flows through counter-based Philox streams
keyed by (seed, stream_id), so every sample is reproducible bit-for-bit
and independent replicas can be generated in parallel.
"""
from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np

WEIGHT_TOL = 1e-12
# most entries of one array an argument may ask for: 1 GiB of float64
TABLE_LIMIT = 2 ** 27
# uniforms per inverse-CDF pass of draw_sample, which bounds its temporaries
SAMPLE_CHUNK = 2 ** 16


class InvalidArgument(ValueError):
    """An argument outside the range its function accepts, with its `name`;
    the args are (name, problem), so unpickling rebuilds it."""

    def __init__(self, name: str, problem: str):
        super().__init__(name, problem)
        self.name, self.problem = name, problem

    def __str__(self):
        return f"{self.name}: {self.problem}"


@dataclass(frozen=True)
class ProbabilitySpace:
    """Finite support points 0..m-1 with probability weights."""

    weights: np.ndarray

    def __post_init__(self):
        w = np.asarray(self.weights, dtype=float)
        object.__setattr__(self, "weights", w)
        w.setflags(write=False)
        if w.ndim != 1 or w.size == 0:
            raise ValueError("weights must be a nonempty 1-d array")
        if not np.all(np.isfinite(w)):
            raise ValueError("weights must be finite")
        if np.any(w < 0):
            raise ValueError("negative weight")
        if abs(w.sum() - 1.0) > WEIGHT_TOL:
            raise ValueError("weights must sum to 1 within 1e-12")
        if np.count_nonzero(w) < 2:
            raise ValueError("need at least 2 points with positive weight")

    @property
    def m(self) -> int:
        return self.weights.size

    @property
    def cumulative(self) -> np.ndarray:
        return np.cumsum(self.weights)

    @cached_property
    def _guide(self):
        """Chen-Asau guide table for `inverse_cdf`, built once per space.

        `edges` holds the cumulative weights with the last positive atom's
        edge set to +inf, so rounding that leaves `cumulative[-1]` below 1
        can never carry a draw onto a trailing zero-weight atom.  The table
        is g[b] = searchsorted(edges, b/B, 'right') for a power of two
        B >= 4m, which keeps b/B and u*B exact in floating point."""
        last = int(np.flatnonzero(self.weights)[-1])
        edges = np.append(self.cumulative[:last], np.inf)
        buckets = 1 << (4 * self.m - 1).bit_length()
        table = np.searchsorted(edges, np.arange(buckets) / buckets, side="right")
        return edges, table, buckets

    def inverse_cdf(self, u: np.ndarray) -> np.ndarray:
        """Point index of each u in [0, 1): the number of cumulative weights
        <= u, as searchsorted(cumulative, u, 'right') gives it, clipped to
        the last atom with positive weight.

        The guide table entry for u's bucket is a lower bound on the index,
        so a forward scan over the edges reaches it exactly."""
        edges, table, buckets = self._guide
        idx = table[(u * buckets).astype(np.intp)]
        active = np.flatnonzero(edges[idx] <= u)
        while active.size:
            idx[active] += 1
            active = active[edges[idx[active]] <= u[active]]
        return idx


def finite_space(weights) -> ProbabilitySpace:
    """Normalize a finite nonnegative weight vector into a ProbabilitySpace."""
    w = np.asarray(weights, dtype=float)
    if not np.all(np.isfinite(w)):
        raise ValueError("weights must be finite")
    if np.any(w < 0) or not w.sum() > 0:
        raise ValueError("weights must be >= 0 and not all zero")
    return ProbabilitySpace(w / w.sum())


def uniform_space(m: int) -> ProbabilitySpace:
    return finite_space(np.ones(m))


def stream_rng(seed: int, stream_id: int) -> np.random.Generator:
    """Philox generator keyed by (seed, stream_id)."""
    key = np.array([seed, stream_id], dtype=np.uint64)
    return np.random.Generator(np.random.Philox(key=key))


def draw_sample(space: ProbabilitySpace, n: int, seed: int,
                stream_id: int = 0) -> np.ndarray:
    """n i.i.d. point indices by inverse-CDF over the cumulative weights, as
    a read-only int64 array.

    Ties in the CDF are broken toward the lower index (searchsorted 'right'),
    so results do not depend on the platform's floating-point quirks.
    Uniforms are read SAMPLE_CHUNK at a time; the chunks continue one stream.
    """
    if not 1 <= n <= TABLE_LIMIT:
        raise InvalidArgument("n", "must be in 1..2^27")
    rng = stream_rng(seed, stream_id)
    sample = np.empty(n, dtype=np.int64)
    for start in range(0, n, SAMPLE_CHUNK):
        u = rng.random(min(SAMPLE_CHUNK, n - start))
        sample[start:start + u.size] = space.inverse_cdf(u)
    sample.setflags(write=False)
    return sample


def point_counts(sample: np.ndarray, space: ProbabilitySpace) -> np.ndarray:
    if sample.size and (sample.min() < 0 or sample.max() >= space.m):
        raise ValueError("sample contains out-of-range point index")
    return np.bincount(sample, minlength=space.m).astype(float)


def signed_increment(sample: np.ndarray, space: ProbabilitySpace) -> np.ndarray:
    """The un-normalized signed measure mu_n - mu as read-only weights."""
    nu = point_counts(sample, space) / sample.size - space.weights
    nu.setflags(write=False)
    return nu
