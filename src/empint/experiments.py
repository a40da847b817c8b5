"""Monte Carlo experiments probing the tail inequalities at desk scale.

Replications are independent tasks keyed by stream id, so results are
bit-identical regardless of how they are distributed over workers.
Empirical probabilities carry Wilson score intervals; inequality checks
against Monte Carlo estimates must include both sides' slack.
"""
from __future__ import annotations

from concurrent.futures import ProcessPoolExecutor
from math import factorial, log, sqrt

import numpy as np

from .chaos import ChaosCoefficients
from .kernels import FunctionFamily, interval_family
from .spaces import TABLE_LIMIT, InvalidArgument, ProbabilitySpace, \
    uniform_space
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


def tail_curve(maxima: np.ndarray, x_grid) -> dict:
    """Tail P(max >= x) at each x, with Wilson intervals, as report.json
    prints it: plain lists of floats and the replication count."""
    x_grid = np.asarray(x_grid, dtype=float)
    reps = maxima.size
    hits = reps - np.searchsorted(np.sort(maxima), x_grid, side="left")
    ci = [wilson_interval(int(h), reps) for h in hits]
    return {"x_grid": x_grid.tolist(), "probs": (hits / reps).tolist(),
            "ci_lo": [lo for lo, _ in ci], "ci_hi": [hi for _, hi in ci],
            "replications": reps}


# ---------------------------------------------------------------------------
# per-replication statistic weights: stat(f) = flat(f.table) @ weights

def _member_matrix(family: FunctionFamily) -> np.ndarray:
    """Distinct member tables, one per row: members with equal tables add
    nothing to a supremum."""
    return family.unique_tables()[0]


def statistic_weights(kind: str, draw: SampleDraw) -> np.ndarray:
    """Flat weight vector so that the statistic of any arity-k kernel f is
    flat(f.table) @ weights.  "increment" is J read as a one-sided maximum;
    "randomized-J" (k=1) is n^{-1/2} sum_j s_j (f(xi_j) - mu f), centred by
    its weights: (f - mu f) . w = f . (w - (sum w) mu)."""
    space, k = draw.space, draw.k
    if kind in ("J", "increment"):
        w = increment_weights(draw.base, space, k)
    elif kind == "I":
        w = distinct_weights([draw.base] * k, space.m)
    elif kind == "randomized-J" and k == 1:
        w = distinct_weights([draw.base], space.m, draw.signs)
        w = (w - w.sum() * space.weights) / sqrt(draw.n)
    elif kind == "decoupled-I":
        w = distinct_weights(draw.decoupled, space.m)
    else:
        raise ValueError(f"unknown statistic kind {kind!r} at k={k}")
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
            v = F @ statistic_weights(kind, draw)
            out[i, j] = np.max(v) if kind == "increment" else np.max(np.abs(v))
    return out


def worker_count(workers: int, reps: int) -> int:
    """Processes that run `reps` replications when `workers` are allowed:
    one block of replications each, and no worker without a replication."""
    return max(1, min(workers, reps))


def _run_blocks(args_template, reps: int, workers: int) -> np.ndarray:
    """_sup_block over `reps` replications split into one block per worker."""
    family, _, _, k = args_template[:4]
    if family.k != k:
        raise InvalidArgument("family", f"member arity {family.k} does not match k={k}")
    if not 1 <= reps <= TABLE_LIMIT:
        raise InvalidArgument("reps", "must be in 1..2^27")
    blocks = np.array_split(np.arange(reps), worker_count(workers, reps))
    tasks = [args_template + (list(block),) for block in blocks]
    if workers <= 1:
        parts = [_sup_block(t) for t in tasks]
    else:
        with ProcessPoolExecutor(max_workers=len(tasks)) as pool:
            parts = list(pool.map(_sup_block, tasks))
    return np.concatenate(parts)


def mc_sup_tail(family: FunctionFamily, space: ProbabilitySpace, n: int, k: int,
                statistic_kind: str, x_grid, reps: int, seed: int,
                workers: int = 1) -> dict:
    """Empirical exceedance curve of the family supremum of |statistic|, or
    of the statistic itself for the one-sided "increment"."""
    maxima = _run_blocks((family, space, n, k, (statistic_kind,), seed), reps,
                         workers)
    return tail_curve(maxima[:, 0], x_grid)


# ---------------------------------------------------------------------------
# symmetrization (k = 1)

def symmetrization_experiment(family: FunctionFamily, space: ProbabilitySpace,
                              n: int, x: float, reps: int, seed: int,
                              workers: int = 1) -> tuple[dict, dict]:
    """Compare P(sup |J| >= x), J = n^{-1/2} sum (f(xi_j) - mu f), with four
    times the tail of its sign-randomized version at x/3.

    Both sides are centred against the space, as uncentred members carry a
    deterministic drift that the sign-randomized side cannot see.  Returns
    the record of both sides with their intervals, and the plain tail at x
    that lhs is read from.
    """
    if not x >= 0:
        raise InvalidArgument("x", "must be >= 0")
    both = _run_blocks((family, space, n, 1, ("J", "randomized-J"), seed),
                       reps, workers)
    curve = tail_curve(both[:, 0], [x])
    randomized = tail_curve(both[:, 1], [x / 3.0])
    rhs = [min(1.0, 4.0 * randomized[key][0]) for key in ("probs", "ci_lo", "ci_hi")]
    record = {"x": x, "lhs": curve["probs"][0],
              "lhs_interval": [curve["ci_lo"][0], curve["ci_hi"][0]],
              "rhs": rhs[0], "rhs_interval": rhs[1:], "replications": reps}
    return record, curve


# ---------------------------------------------------------------------------
# decoupling (k >= 2), report-only

def decoupling_experiment(family: FunctionFamily, space: ProbabilitySpace,
                          n: int, k: int, x_grid, reps: int, seed: int,
                          workers: int = 1) -> tuple[dict, dict]:
    """Paired tail curves of sup|I| and sup|decoupled I| on a shared grid,
    with the ratio decoupled / coupled per grid point (None where the coupled
    tail is 0).  Returns that record and the coupled curve.

    Report-only: the universal decoupling constants are not published, so no
    inequality is asserted here."""
    if k < 2:
        raise InvalidArgument("k", "decoupling requires k >= 2")
    both = _run_blocks((family, space, n, k, ("I", "decoupled-I"), seed), reps,
                       workers)
    coupled = tail_curve(both[:, 0], x_grid)
    dec = tail_curve(both[:, 1], x_grid)
    ratio = [d / c if c > 0 else None
             for c, d in zip(coupled["probs"], dec["probs"])]
    record = {"coupled": coupled, "decoupled": dec, "ratio": ratio}
    return record, coupled


# ---------------------------------------------------------------------------
# the small-x sharpness counterexample via the uniform empirical process

def counterexample_experiment(sigma: float, n: int, epsilon: float, reps: int,
                              seed: int, grid: int | None = None,
                              workers: int = 1) -> tuple[dict, dict]:
    """Sup of the one-sided empirical increment over intervals of length at
    most sigma^2, evaluated just below and just above the threshold
    x* = sqrt(2 log(1/sigma)) * sigma.  Returns the record of both tails and
    the curve at (x_low, x_high) they are read from.

    The sharpness signature at small sigma is p_low >> p_high."""
    if not 0 < epsilon < 1:
        raise InvalidArgument("epsilon", "must lie in (0, 1)")
    if not 0 < sigma < 1:
        raise InvalidArgument("sigma", "must lie in (0, 1)")
    if n * sigma ** 2 < 8:
        raise InvalidArgument("n", "n*sigma^2 must be >= 8")
    if grid is None:
        grid = 2 * int(np.ceil(1.0 / sigma ** 2))
    x_star = sqrt(2.0 * log(1.0 / sigma)) * sigma
    x_low = (1 - epsilon) * x_star
    x_high = (1 + epsilon) * x_star
    curve = mc_sup_tail(interval_family(sigma, grid), uniform_space(grid), n, 1,
                        "increment", [x_low, x_high], reps, seed, workers)
    record = {"x_star": x_star, "x_low": x_low, "p_low": curve["probs"][0],
              "x_high": x_high, "p_high": curve["probs"][1],
              "grid": grid, "replications": reps}
    return record, curve


# ---------------------------------------------------------------------------
# tail-exponent fitting

class TooFewQualifyingPoints(Exception):
    pass


def exponent_fit(curve: dict):
    """Least-squares slope of log(-log p) against log x over grid points
    with p in (0.001, 0.5); the testable shadow of the exp(-alpha x^{2/k})
    tail shape.  Returns (slope, stderr)."""
    x, p = np.asarray(curve["x_grid"]), np.asarray(curve["probs"])
    keep = (p > 0.001) & (p < 0.5) & (x > 0)
    if np.count_nonzero(keep) < 4:
        raise TooFewQualifyingPoints(
            f"only {np.count_nonzero(keep)} points with p in (0.001, 0.5)")
    lx = np.log(x[keep])
    ly = np.log(-np.log(p[keep]))
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

def conditional_chaos_coefficients(f, decoupled) -> ChaosCoefficients:
    """Chaos coefficients a(j_1..j_k) = f(xi_{j_1,1},..,xi_{j_k,k}) / k!
    over ordered distinct index tuples of fixed decoupled copies xi_{.,s};
    zeros are dropped."""
    cols = np.ix_(*decoupled[:f.k])
    return ChaosCoefficients.from_dense(f.table[cols] / factorial(f.k))
