"""The four benchmark workloads: configs generated from a seed, the unit of
work each one counts, and the checks its outputs must pass.

Every input the program sees is generated here from the workload seed and
written to a config file; the program receives only that file.

Why these four:
- mc_k1_interval: sampling is ~97% of a k=1 replication and the supremum is
  a small 399x200 matvec, so sampling changes show and family or supremum
  changes do not.  It also covers the counterexample path (same k=1 draw,
  signed increment and interval matvec).
- mc_k2_box: a 23,409x256 supremum matvec with only 1,297 distinct rows and a
  per-worker member-matrix build dominate; decoupled-I reads the k copies
  through inclusion-exclusion weights; the only workload with a process pool.
- chaos_n20: pure exact 2^n enumeration (FWHT redone at every x), no sampling
  and no family.
- expansion_k3: the only workload that drives the Hoeffding decomposition;
  many tiny tables, so per-call overhead sets the cost.
"""
from __future__ import annotations

import csv
import io
import json
import math
import random

CURVE_HEADER = "x,p,ci_lo,ci_hi,theorem_bound,corollary_bound,applicable"
# curve.csv prints 12 significant digits and the Wilson bounds come out of
# floating-point arithmetic (ci_lo at p=0 prints as 8.67e-19), so the
# ordering checks allow this much absolute slack.
ORDER_TOL = 1e-12
EXPANSION_TOL = 1e-8
DEFAULT_SEED = 0

NAMES = ("mc_k1_interval", "mc_k2_box", "chaos_n20", "expansion_k3")


def _bump(m: int, lo: int, hi: int) -> list:
    """Sine bump supported on cells [lo, hi) of an m-cell grid, |g| <= 1."""
    return [math.sin(math.pi * (i - lo + 0.5) / (hi - lo)) if lo <= i < hi
            else 0.0 for i in range(m)]


def _mc_k1(seed: int, smoke: bool) -> dict:
    m, n, reps, sigma, stop = (25, 400, 12, 0.5, 1.5) if smoke else \
        (200, 10_000, 1000, 0.1, 0.4)
    return {"experiment": "sup_tail", "seed": seed, "n": n, "k": 1,
            "reps": reps, "statistic": "J",
            "space": {"points": m, "weights": "uniform"},
            "family": {"kind": "interval", "sigma": sigma, "grid": m},
            "x_grid": {"start": 0.0, "stop": stop, "points": 8 if smoke else 21}}


def _mc_k2(seed: int, smoke: bool) -> dict:
    # the grid spans the observed maxima of decoupled-I at this n
    m, lo, hi, n, reps, grid = (8, 2, 6, 64, 12, (100.0, 350.0, 6)) if smoke \
        else (16, 4, 12, 2048, 400, (1.8e5, 2.5e5, 15))
    g = _bump(m, lo, hi)
    return {"experiment": "sup_tail", "seed": seed, "n": n, "k": 2,
            "reps": reps, "statistic": "decoupled-I",
            "space": {"points": m, "weights": "uniform"},
            "family": {"kind": "box", "table": [[a * b for b in g] for a in g]},
            "x_grid": {"start": grid[0], "stop": grid[1], "points": grid[2]}}


def _chaos(seed: int, smoke: bool) -> dict:
    n, count, stop, points = (10, 30, 15.0, 8) if smoke else (20, 200, 30.0, 16)
    rng = random.Random(seed)
    pairs = [[i, j] for i in range(n) for j in range(n) if i != j]
    return {"experiment": "chaos_audit", "seed": seed, "n": n, "k": 2,
            "coefficients": {"index_tuples": rng.sample(pairs, count),
                             "values": [rng.gauss(0.0, 1.0) for _ in range(count)]},
            "x_grid": {"start": 0.0, "stop": stop, "points": points}}


def _expansion(seed: int, smoke: bool) -> dict:
    n, m, trials, pairs = (4, 16, 40, 20) if smoke else (6, 16, 800, 400)
    return {"experiment": "expansion_audit", "seed": seed, "n": n, "k": 3,
            "space": {"points": m, "weights": "uniform"},
            "trials": trials, "holdout_pairs": pairs}


_MAKERS = {"mc_k1_interval": _mc_k1, "mc_k2_box": _mc_k2,
           "chaos_n20": _chaos, "expansion_k3": _expansion}


def make_config(name: str, seed: int, smoke: bool = False) -> dict:
    return _MAKERS[name](seed, smoke)


# the workloads that run a process pool, with their worker count
POOL_WORKERS = {"mc_k2_box": 2}


def workers(name: str, nproc: int) -> int:
    """Worker count of the timed runs; never more than there are cores."""
    return min(POOL_WORKERS.get(name, 1), nproc)


def units(cfg: dict) -> tuple:
    """(units of work in one run, what a unit is)."""
    exp = cfg["experiment"]
    if exp == "sup_tail":
        return cfg["reps"], "replications"
    if exp == "chaos_audit":
        return cfg["x_grid"]["points"], "x-grid tail evaluations"
    return cfg["trials"] + cfg["holdout_pairs"], "(kernel, sample) pairs"


def x_grid(cfg: dict) -> list:
    """The x values the program's linspace gives, to rounding."""
    g = cfg.get("x_grid", {"start": 0.0, "stop": 0.0, "points": 0})
    step = (g["stop"] - g["start"]) / max(g["points"] - 1, 1)
    return [g["start"] + i * step for i in range(g["points"])]


# ---------------------------------------------------------------------------
# output checks; each returns a list of problems (empty when the run is good)

def check_curve(text: str, cfg: dict) -> list:
    lines = text.splitlines()
    if not lines or lines[0] != CURVE_HEADER:
        return [f"curve.csv header is {lines[:1]!r}"]
    rows = list(csv.DictReader(io.StringIO(text)))
    grid = x_grid(cfg)
    if len(rows) != len(grid):
        return [f"curve.csv has {len(rows)} rows, expected {len(grid)}"]
    problems = []
    prev_p = math.inf
    for x, row in zip(grid, rows):
        xs, p, lo, hi = (float(row[c]) for c in ("x", "p", "ci_lo", "ci_hi"))
        if not math.isclose(xs, x, rel_tol=1e-9, abs_tol=1e-12):
            problems.append(f"x={xs} where the grid has {x}")
        if not (-ORDER_TOL <= lo <= p + ORDER_TOL and p <= hi + ORDER_TOL
                and hi <= 1 + ORDER_TOL):
            problems.append(f"x={xs}: not 0 <= ci_lo <= p <= ci_hi <= 1 "
                            f"({lo}, {p}, {hi})")
        if p > prev_p:
            problems.append(f"x={xs}: p={p} rises above {prev_p}")
        prev_p = p
    return problems


def check_report(report: dict, cfg: dict) -> list:
    payload = report.get("payload", {})
    exp = cfg["experiment"]
    if exp == "sup_tail":
        reps = payload.get("curve", {}).get("replications")
        return [] if reps == cfg["reps"] else \
            [f"replications={reps}, expected {cfg['reps']}"]
    if exp == "expansion_audit":
        problems = []
        for key in ("residual", "holdout_max_relative_error"):
            v = payload.get(key)
            if not isinstance(v, float) or not v < EXPANSION_TOL:
                problems.append(f"{key}={v} is not below {EXPANSION_TOL:g}")
        return problems
    if exp == "chaos_audit":
        tails = payload.get("exact_tail")
        if not isinstance(tails, list) or len(tails) != cfg["x_grid"]["points"]:
            return ["exact_tail missing or of the wrong length"]
        return []  # values: helper.py chaos-tails, once per benchmark run
    return [f"unknown experiment {exp}"]


def fingerprint(curve_text: str, report: dict) -> str:
    """What must repeat byte for byte across runs of one seed."""
    return curve_text + json.dumps(report.get("payload"), sort_keys=True)
