"""Monte Carlo experiments probing the tail inequalities at desk scale.

Replications are independent tasks keyed by stream id, so results are
bit-identical regardless of how they are distributed over workers.
Empirical probabilities carry Wilson score intervals; inequality checks
against Monte Carlo estimates must include both sides' slack.
"""
from __future__ import annotations

from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass
from math import factorial, log, sqrt

import numpy as np

from .chaos import ChaosCoefficients
from .kernels import ExplicitFamily, FunctionFamily, KernelFunction, \
    interval_family
from .spaces import ProbabilitySpace, signed_increment, uniform_space
from .statistics import SampleDraw, distinct_weights, draw_bundle, \
    increment_weights

WILSON_Z = 1.959963984540054  # 95%


def wilson_interval(successes: int, trials: int):
    """Wilson score interval; behaves sensibly at p near 0 and 1."""
    if trials < 1:
        raise ValueError("trials must be >= 1")
    z2 = WILSON_Z ** 2
    phat = successes / trials
    denom = 1.0 + z2 / trials
    center = (phat + z2 / (2 * trials)) / denom
    half = WILSON_Z * sqrt(phat * (1 - phat) / trials + z2 / (4 * trials ** 2)) / denom
    return center - half, center + half


@dataclass(frozen=True)
class TailCurve:
    x_grid: np.ndarray
    probs: np.ndarray
    ci_lo: np.ndarray
    ci_hi: np.ndarray
    replications: int

    def __post_init__(self):
        for name in ("x_grid", "probs", "ci_lo", "ci_hi"):
            a = np.asarray(getattr(self, name), dtype=float)
            object.__setattr__(self, name, a)
            a.setflags(write=False)

    @property
    def wilson_halfwidths(self) -> np.ndarray:
        return (self.ci_hi - self.ci_lo) / 2.0

    @classmethod
    def from_maxima(cls, maxima: np.ndarray, x_grid) -> "TailCurve":
        x_grid = np.asarray(x_grid, dtype=float)
        reps = maxima.size
        probs = np.empty_like(x_grid)
        lo = np.empty_like(x_grid)
        hi = np.empty_like(x_grid)
        for i, x in enumerate(x_grid):
            hits = int(np.count_nonzero(maxima >= x))
            probs[i] = hits / reps
            lo[i], hi[i] = wilson_interval(hits, reps)
        return cls(x_grid=x_grid, probs=probs, ci_lo=lo, ci_hi=hi,
                   replications=reps)


# ---------------------------------------------------------------------------
# per-replication statistic weights: stat(f) = flat(f.table) @ weights

def _member_matrix(family: FunctionFamily) -> np.ndarray:
    """Distinct member tables, one per row: members with equal tables add
    nothing to a supremum."""
    return family.unique_tables()[0]


def statistic_weights(kind: str, draw: SampleDraw, space: ProbabilitySpace,
                      k: int) -> np.ndarray:
    """Flat weight vector so that the statistic of any arity-k kernel f is
    flat(f.table) @ weights.  Besides the sup_tail kinds, "randomized-I" is
    the sign-randomized I (symmetrization) and "increment" the bare signed
    increment mu_n - mu at k=1 (counterexample)."""
    if kind == "J":
        w = increment_weights(draw.base, space, k)
    elif kind == "I":
        w = distinct_weights([draw.base.values] * k, space.m)
    elif kind == "randomized-I":
        w = distinct_weights([draw.base.values] * k, space.m, draw.signs)
    elif kind == "decoupled-I":
        w = distinct_weights([s.values for s in draw.decoupled], space.m)
    elif kind == "increment":
        w = signed_increment(draw.base, space).weights
    else:
        raise ValueError(f"unknown statistic kind {kind!r}")
    return w.ravel()


def _sup_block(args):
    """(replications x kinds) suprema over the family of each statistic of
    one draw per replication; only "increment" is one-sided."""
    (family, space, n, k, kinds, seed, replicas) = args
    # built per block from the family's cache rather than shipped from the
    # caller: a wrapped _member_matrix may return an unpicklable subclass
    F = _member_matrix(family)
    out = np.empty((len(replicas), len(kinds)))
    for i, r in enumerate(replicas):
        draw = draw_bundle(space, n, k, seed, replica=r)
        for j, kind in enumerate(kinds):
            v = F @ statistic_weights(kind, draw, space, k)
            out[i, j] = np.max(v) if kind == "increment" else np.max(np.abs(v))
    return out


def _run_blocks(args_template, reps: int, workers: int) -> np.ndarray:
    """_sup_block over `reps` replications split into one block per worker."""
    blocks = np.array_split(np.arange(reps), max(1, min(workers, reps)))
    tasks = [args_template + (list(block),) for block in blocks if block.size]
    if workers <= 1:
        parts = [_sup_block(t) for t in tasks]
    else:
        with ProcessPoolExecutor(max_workers=len(tasks)) as pool:
            parts = list(pool.map(_sup_block, tasks))
    return np.concatenate(parts)


def mc_sup_tail(family: FunctionFamily, space: ProbabilitySpace, n: int, k: int,
                statistic_kind: str, x_grid, reps: int, seed: int,
                workers: int = 1) -> TailCurve:
    """Empirical exceedance curve of sup over the family of |statistic|."""
    if reps < 1:
        raise ValueError("reps must be >= 1")
    if family.k != k:
        raise ValueError("family arity does not match k")
    maxima = _run_blocks((family, space, n, k, (statistic_kind,), seed), reps,
                         workers)
    return TailCurve.from_maxima(maxima[:, 0], x_grid)


# ---------------------------------------------------------------------------
# symmetrization (k = 1)

@dataclass(frozen=True)
class SymmetrizationResult:
    x: float
    lhs: float
    lhs_interval: tuple
    rhs: float
    rhs_interval: tuple
    replications: int
    curve: TailCurve  # tail of the plain supremum at x; lhs is read from it


def symmetrization_experiment(family: FunctionFamily, space: ProbabilitySpace,
                              n: int, x: float, reps: int, seed: int,
                              workers: int = 1) -> SymmetrizationResult:
    """Compare P(sup |n^{-1/2} sum f(xi_j)| >= x) with four times the tail of
    its sign-randomized version at x/3.

    Members are centered against the space first (the comparison concerns
    canonical families; uncentered members carry a deterministic drift that
    the sign-randomized side cannot see).
    """
    if family.k != 1:
        raise ValueError("symmetrization experiment needs a k=1 family")
    F = _member_matrix(family)
    centered = ExplicitFamily([KernelFunction(row) for row in
                              F - (F @ space.weights)[:, None]],
                             D=family.D, L=family.L, beta=family.beta,
                             sigma=family.sigma)
    both = _run_blocks((centered, space, n, 1, ("I", "randomized-I"), seed),
                       reps, workers) / sqrt(n)
    curve = TailCurve.from_maxima(both[:, 0], [x])
    randomized = TailCurve.from_maxima(both[:, 1], [x / 3.0])
    return SymmetrizationResult(
        x=x,
        lhs=float(curve.probs[0]),
        lhs_interval=(float(curve.ci_lo[0]), float(curve.ci_hi[0])),
        rhs=min(1.0, 4.0 * float(randomized.probs[0])),
        rhs_interval=(min(1.0, 4.0 * float(randomized.ci_lo[0])),
                      min(1.0, 4.0 * float(randomized.ci_hi[0]))),
        replications=reps,
        curve=curve,
    )


# ---------------------------------------------------------------------------
# decoupling (k >= 2), report-only

@dataclass(frozen=True)
class DecouplingResult:
    coupled: TailCurve
    decoupled: TailCurve
    ratio: np.ndarray  # decoupled prob / coupled prob per grid point (nan-safe)


def decoupling_experiment(family: FunctionFamily, space: ProbabilitySpace,
                          n: int, k: int, x_grid, reps: int, seed: int,
                          workers: int = 1) -> DecouplingResult:
    """Paired tail curves of sup|I| and sup|decoupled I| on a shared grid.

    Report-only: the universal decoupling constants are not published, so no
    inequality is asserted here."""
    if k < 2:
        raise ValueError("decoupling is vacuous at k=1")
    both = _run_blocks((family, space, n, k, ("I", "decoupled-I"), seed), reps,
                       workers)
    coupled = TailCurve.from_maxima(both[:, 0], x_grid)
    dec = TailCurve.from_maxima(both[:, 1], x_grid)
    with np.errstate(divide="ignore", invalid="ignore"):
        ratio = np.where(coupled.probs > 0, dec.probs / coupled.probs, np.nan)
    return DecouplingResult(coupled=coupled, decoupled=dec, ratio=ratio)


# ---------------------------------------------------------------------------
# the small-x sharpness counterexample via the uniform empirical process

@dataclass(frozen=True)
class CounterexampleResult:
    sigma: float
    x_star: float
    x_low: float
    p_low: float
    x_high: float
    p_high: float
    replications: int
    grid: int
    curve: TailCurve  # tail at (x_low, x_high); p_low and p_high are read from it


def counterexample_experiment(sigma: float, n: int, epsilon: float, reps: int,
                              seed: int, grid: int | None = None,
                              workers: int = 1) -> CounterexampleResult:
    """Sup of the one-sided empirical increment over intervals of length at
    most sigma^2, evaluated just below and just above the threshold
    x* = sqrt(2 log(1/sigma)) * sigma.

    The sharpness signature at small sigma is p_low >> p_high."""
    if not 0 < epsilon < 1:
        raise ValueError("epsilon must lie in (0, 1)")
    if grid is None:
        grid = 2 * int(np.ceil(1.0 / sigma ** 2))
    family = interval_family(sigma, grid)
    space = uniform_space(grid)
    if n * sigma ** 2 < 8:
        raise ValueError("n sigma^2 too small for non-degenerate increments")
    sups = _run_blocks((family, space, n, 1, ("increment",), seed), reps,
                       workers)[:, 0] * sqrt(n)
    x_star = sqrt(2.0 * log(1.0 / sigma)) * sigma
    x_low = (1 - epsilon) * x_star
    x_high = (1 + epsilon) * x_star
    curve = TailCurve.from_maxima(sups, [x_low, x_high])
    return CounterexampleResult(
        sigma=sigma, x_star=x_star,
        x_low=x_low, p_low=float(curve.probs[0]),
        x_high=x_high, p_high=float(curve.probs[1]),
        replications=reps, grid=grid, curve=curve,
    )


# ---------------------------------------------------------------------------
# tail-exponent fitting

class TooFewQualifyingPoints(Exception):
    pass


def exponent_fit(curve: TailCurve):
    """Least-squares slope of log(-log p) against log x over grid points
    with p in (0.001, 0.5); the testable shadow of the exp(-alpha x^{2/k})
    tail shape.  Returns (slope, stderr)."""
    keep = (curve.probs > 0.001) & (curve.probs < 0.5) & (curve.x_grid > 0)
    if np.count_nonzero(keep) < 4:
        raise TooFewQualifyingPoints(
            f"only {np.count_nonzero(keep)} points with p in (0.001, 0.5)")
    lx = np.log(curve.x_grid[keep])
    ly = np.log(-np.log(curve.probs[keep]))
    A = np.stack([lx, np.ones_like(lx)], axis=1)
    coef, res, _, _ = np.linalg.lstsq(A, ly, rcond=None)
    slope = coef[0]
    dof = lx.size - 2
    if dof > 0 and res.size:
        s2 = res[0] / dof
        stderr = sqrt(s2 / np.sum((lx - lx.mean()) ** 2))
    else:
        stderr = 0.0
    return float(slope), float(stderr)


# ---------------------------------------------------------------------------
# linkage: conditionally on the sample values, the sign-randomized decoupled
# statistic is a Rademacher chaos in the signs

def conditional_chaos_coefficients(f, draw: SampleDraw) -> ChaosCoefficients:
    """Chaos coefficients a(j_1..j_k) = f(xi_{j_1,1},..,xi_{j_k,k}) / k!
    over ordered distinct index tuples of a fixed draw; zeros are dropped."""
    cols = [draw.decoupled[s].values for s in range(f.k)]
    return ChaosCoefficients.from_dense(f.table[np.ix_(*cols)] / factorial(f.k))
