"""Configuration-driven entry point.

A run reads one JSON config, builds the space and family it names, executes
one experiment or calculator, and writes a structured report plus a flat
comma-separated curve table.  Exit codes: 0 success, 2 config validation
error, 3 numerical-check failure.
"""
from __future__ import annotations

import argparse
import json
import sys
import time

import numpy as np

from . import __version__
from .bounds import (BoundConstants, NotApplicable, chaining_schedule,
                     corollary2_bound, theorem_bound)
from .chaos import (ENUMERATION_LIMIT, ChaosCoefficients, chaos_s,
                    chaos_tail_bound, exact_chaos_tail, EnumerationRefused,
                    optimal_q_tail)
from .decomposition import canonicalize
from .kernels import (BoxRestrictionFamily, BudgetExceeded, ExplicitFamily,
                      KernelFunction, interval_family, l2_norm,
                      singleton_family)
from .spaces import ProbabilitySpace, finite_space, stream_rng, uniform_space
from .statistics import ResidualTooLarge, derive_expansion_coefficients, \
    validate_expansion
from .experiments import (counterexample_experiment, decoupling_experiment,
                          exponent_fit, mc_sup_tail, symmetrization_experiment,
                          TailCurve, TooFewQualifyingPoints)

CURVE_HEADER = "x,p,ci_lo,ci_hi,theorem_bound,corollary_bound,applicable"

EXPERIMENTS = ("sup_tail", "symmetrization", "decoupling", "counterexample",
               "chaos_audit", "expansion_audit", "schedule_audit")


class ConfigError(Exception):
    """Validation failure; message is a single line naming the field."""

    def __init__(self, field: str, problem: str):
        super().__init__(f"config error: {field}: {problem}")
        self.field = field


def _require(cfg: dict, field: str, types, cond=None, problem="invalid value"):
    if field not in cfg:
        raise ConfigError(field, "missing required field")
    v = cfg[field]
    if not isinstance(v, types) or isinstance(v, bool):
        raise ConfigError(field, f"expected {types}")
    if cond is not None and not cond(v):
        raise ConfigError(field, problem)
    return v


def _build_space(spec, field: str) -> ProbabilitySpace:
    if not isinstance(spec, dict):
        raise ConfigError(field, "expected an object")
    points = spec.get("points")
    weights = spec.get("weights", "uniform")
    if weights == "uniform":
        if not isinstance(points, int) or points < 2:
            raise ConfigError(f"{field}.points", "need an integer >= 2")
        return uniform_space(points)
    if not isinstance(weights, list) or len(weights) < 2:
        raise ConfigError(f"{field}.weights", "need \"uniform\" or a list of >= 2 weights")
    try:
        return finite_space(np.asarray(weights, dtype=float))
    except (ValueError, TypeError) as e:
        raise ConfigError(f"{field}.weights", str(e))


def _build_family(spec, field: str, space: ProbabilitySpace, k: int):
    if not isinstance(spec, dict) or "kind" not in spec:
        raise ConfigError(f"{field}.kind", "missing family kind")
    kind = spec["kind"]
    if kind == "interval":
        sigma = _require(spec, "sigma", (int, float), lambda v: 0 < v <= 1,
                         "must lie in (0, 1]")
        grid = _require(spec, "grid", int, lambda v: v >= 2, "must be >= 2")
        if grid != space.m:
            raise ConfigError(f"{field}.grid", "must equal the space point count")
        try:
            return interval_family(float(sigma), grid)
        except ValueError as e:
            raise ConfigError(f"{field}.grid", str(e))
    if kind == "box":
        table = _require(spec, "table", list)
        f = KernelFunction(np.asarray(table, dtype=float))
        try:
            return BoxRestrictionFamily(f, space.m)
        except ValueError as e:
            raise ConfigError(f"{field}.table", str(e))
    if kind == "singleton":
        table = _require(spec, "table", list)
        f = KernelFunction(np.asarray(table, dtype=float))
        if f.table.shape != (space.m,) * f.k:
            raise ConfigError(f"{field}.table", "shape does not match the space")
        sigma = _require(spec, "sigma", (int, float), lambda v: 0 < v <= 1,
                         "must lie in (0, 1]") if "sigma" in spec else 1.0
        return singleton_family(f, sigma=float(sigma))
    if kind == "random-canonical":
        count = _require(spec, "count", int, lambda v: v >= 1, "must be >= 1")
        kseed = _require(spec, "kernel_seed", int)
        rng = stream_rng(kseed, 0)
        kernels = []
        for _ in range(count):
            raw = KernelFunction(rng.standard_normal((space.m,) * k))
            kernels.append(canonicalize(raw, space))
        sigma = max(l2_norm(f, space) for f in kernels)
        if sigma > 1:
            # scale every member so sigma <= 1 holds; the 1e-12 slack keeps
            # the rescaled norms from rounding above 1
            kernels = [KernelFunction(f.table / (sigma * (1 + 1e-12)))
                       for f in kernels]
            sigma = max(l2_norm(f, space) for f in kernels)
        return ExplicitFamily(kernels, D=float(count), L=1.0, sigma=sigma)
    raise ConfigError(f"{field}.kind", f"unknown family kind {kind!r}")


def _build_constants(cfg: dict, k: int) -> BoundConstants:
    try:
        return BoundConstants.from_dict(k, cfg.get("constants"))
    except (ValueError, OverflowError) as e:
        raise ConfigError("constants", str(e))


def _build_x_grid(spec, field: str) -> np.ndarray:
    if isinstance(spec, list):
        grid = np.asarray(spec, dtype=float)
    elif isinstance(spec, dict):
        start = _require(spec, "start", (int, float))
        stop = _require(spec, "stop", (int, float), lambda v: v >= start,
                        "stop must be >= start")
        points = _require(spec, "points", int, lambda v: v >= 1, "must be >= 1")
        grid = np.linspace(float(start), float(stop), points)
    else:
        raise ConfigError(field, "expected a list or {start, stop, points}")
    if not np.all(np.isfinite(grid)) or np.any(grid < 0):
        raise ConfigError(field, "every x must be finite and >= 0")
    if grid.size and np.any(np.diff(grid) <= 0):
        raise ConfigError(field, "must be strictly increasing")
    return grid


def load_config(path: str) -> dict:
    try:
        with open(path) as fh:
            cfg = json.load(fh)
    except OSError as e:
        raise ConfigError("config", f"unreadable: {e}")
    except json.JSONDecodeError as e:
        raise ConfigError("config", f"not valid JSON: {e}")
    if not isinstance(cfg, dict):
        raise ConfigError("config", "top level must be an object")
    if cfg.get("experiment") not in EXPERIMENTS:
        raise ConfigError("experiment", f"must be one of {EXPERIMENTS}")
    return cfg


def _fmt(v) -> str:
    if isinstance(v, bool):
        return "1" if v else "0"
    if isinstance(v, (int, np.integer)):
        return str(int(v))
    return format(float(v), ".12g")


def overlay_bounds(curve: TailCurve, k: int, sigma: float, D: float, L: float,
                   beta: float, n: int, consts: BoundConstants):
    """Per-x rows: empirical p with interval, theorem and corollary bounds,
    applicability flag.  Report-only; the constants are exploratory."""
    rows = []
    for i, x in enumerate(curve.x_grid):
        tb, applicable = theorem_bound(float(x), n, k, sigma, D, L, beta, consts)
        cb = corollary2_bound(float(x), k, consts)
        rows.append({"x": float(x), "p": float(curve.probs[i]),
                     "ci_lo": float(curve.ci_lo[i]), "ci_hi": float(curve.ci_hi[i]),
                     "theorem_bound": tb, "corollary_bound": cb,
                     "applicable": applicable})
    return rows


def _write_curve(path, rows):
    lines = [CURVE_HEADER]
    for r in rows:
        lines.append(",".join(_fmt(r[c]) for c in CURVE_HEADER.split(",")))
    with open(path, "w") as fh:
        fh.write("\n".join(lines) + "\n")


def _curve_payload(curve: TailCurve):
    return {"x_grid": curve.x_grid.tolist(), "probs": curve.probs.tolist(),
            "ci_lo": curve.ci_lo.tolist(), "ci_hi": curve.ci_hi.tolist(),
            "replications": curve.replications}


def _family_payload(family):
    """Member count against distinct tables; read after the experiment has
    run, so the family's table cache is never shipped to workers."""
    return {"members": len(family),
            "unique_tables": int(family.unique_tables()[0].shape[0])}


def execute(cfg: dict, workers: int = 1):
    """Run the configured experiment; returns (payload dict, curve rows)."""
    exp = cfg["experiment"]
    seed = _require(cfg, "seed", int, lambda v: v >= 0, "must be >= 0")

    if exp in ("sup_tail", "symmetrization", "decoupling", "counterexample"):
        reps = _require(cfg, "reps", int, lambda v: v >= 1, "must be >= 1")

    if exp == "counterexample":
        sigma = _require(cfg, "sigma", (int, float), lambda v: 0 < v < 1,
                         "must lie in (0, 1)")
        n = _require(cfg, "n", int, lambda v: v >= 1, "must be >= 1")
        eps = _require(cfg, "epsilon", (int, float), lambda v: 0 < v < 1,
                       "must lie in (0, 1)")
        grid = cfg.get("grid")
        if grid is not None and (not isinstance(grid, int) or grid < 2):
            raise ConfigError("grid", "must be an integer >= 2")
        consts = _build_constants(cfg, 1)
        try:
            res = counterexample_experiment(float(sigma), n, float(eps), reps,
                                            seed, grid=grid, workers=workers)
        except ValueError as e:
            raise ConfigError("sigma", str(e))
        # D = 4, L = 2: the budget of interval_family
        rows = overlay_bounds(res.curve, 1, res.sigma, 4.0, 2.0, 0.0, n, consts)
        payload = {"x_star": res.x_star, "x_low": res.x_low, "p_low": res.p_low,
                   "x_high": res.x_high, "p_high": res.p_high,
                   "grid": res.grid, "replications": reps}
        return payload, rows

    if exp == "schedule_audit":
        n = _require(cfg, "n", int, lambda v: v >= 1, "must be >= 1")
        k = _require(cfg, "k", int, lambda v: v >= 1, "must be >= 1")
        sigma = _require(cfg, "sigma", (int, float), lambda v: 0 < v <= 1,
                         "must lie in (0, 1]")
        x = _require(cfg, "x", (int, float), lambda v: v > 0, "must be > 0")
        A_bar = _require(cfg, "A_bar", (int, float))
        D = _require(cfg, "D", (int, float), lambda v: v > 0, "must be > 0")
        L = _require(cfg, "L", (int, float), lambda v: v > 0, "must be > 0")
        sched = chaining_schedule(n, k, float(sigma), float(x), float(A_bar),
                                  float(D), float(L))
        payload = {"R": sched.R, "sigma_bar": sched.sigma_bar,
                   "net_sizes": sched.net_sizes,
                   "invariants_hold": sched.invariants_hold()}
        return payload, []

    if exp == "expansion_audit":
        n = _require(cfg, "n", int, lambda v: v >= 1, "must be >= 1")
        k = _require(cfg, "k", int, lambda v: 1 <= v <= 4, "must be in 1..4")
        if n < k:
            raise ConfigError("n", "must be >= k")
        space = _build_space(cfg.get("space"), "space")
        trials = _require(cfg, "trials", int, lambda v: v >= 1, "must be >= 1")
        pairs = _require(cfg, "holdout_pairs", int, lambda v: v >= 1, "must be >= 1")
        coeffs = derive_expansion_coefficients(n, k, space, trials, seed)
        worst = validate_expansion(coeffs, space, pairs, seed)
        payload = {"coefficients": coeffs.values.tolist(),
                   "residual": coeffs.residual,
                   "holdout_max_relative_error": worst}
        return payload, []

    if exp == "chaos_audit":
        n = _require(cfg, "n", int, lambda v: v >= 1, "must be >= 1")
        k = _require(cfg, "k", int, lambda v: v >= 1, "must be >= 1")
        if n > ENUMERATION_LIMIT:
            raise EnumerationRefused(n)
        spec = cfg.get("coefficients")
        if not isinstance(spec, dict):
            raise ConfigError("coefficients", "expected an object with index_tuples and values")
        try:
            coeffs = ChaosCoefficients(
                n=n, k=k,
                index_tuples=np.asarray(_require(spec, "index_tuples", list),
                                        dtype=np.int64),
                values=np.asarray(_require(spec, "values", list), dtype=float))
        except ValueError as e:
            raise ConfigError("coefficients", str(e))
        grid = _build_x_grid(cfg.get("x_grid", []), "x_grid")
        S = chaos_s(coeffs)
        rows = []
        for x, p in zip(grid.tolist(), exact_chaos_tail(coeffs, grid).tolist()):
            q, opt = optimal_q_tail(x, S, k) if x > 0 and S > 0 else (0.0, 1.0)
            rows.append({"x": x, "p": p, "ci_lo": p, "ci_hi": p,
                         "theorem_bound": chaos_tail_bound(x, S, k),
                         "corollary_bound": opt, "applicable": q >= 2})
        payload = {"S": S, "exact_tail": [[r["x"], r["p"]] for r in rows]}
        return payload, rows

    # sup_tail / symmetrization / decoupling share the space+family plumbing
    k = _require(cfg, "k", int, lambda v: 1 <= v <= 4, "must be in 1..4")
    n = _require(cfg, "n", int, lambda v: v >= 1, "must be >= 1")
    space = _build_space(cfg.get("space"), "space")
    family = _build_family(cfg.get("family"), "family", space, k)
    if family.k != k:
        raise ConfigError("family", f"member arity {family.k} does not match k={k}")
    consts = _build_constants(cfg, k)

    if exp == "symmetrization":
        x = _require(cfg, "x", (int, float), lambda v: v >= 0, "must be >= 0")
        if k != 1:
            raise ConfigError("k", "symmetrization requires k=1")
        res = symmetrization_experiment(family, space, n, float(x), reps, seed,
                                        workers=workers)
        payload = {"x": res.x, "lhs": res.lhs, "lhs_interval": list(res.lhs_interval),
                   "rhs": res.rhs, "rhs_interval": list(res.rhs_interval),
                   "replications": reps, "family": _family_payload(family)}
        rows = overlay_bounds(res.curve, k, family.sigma, family.D, family.L,
                              family.beta, n, consts)
        return payload, rows

    grid = _build_x_grid(cfg.get("x_grid"), "x_grid")
    if exp == "sup_tail":
        kind = cfg.get("statistic", "J")
        if kind not in ("J", "I", "decoupled-I"):
            raise ConfigError("statistic", "must be J, I or decoupled-I")
        if kind != "J" and n < k:  # J sums over distinct points, not indices
            raise ConfigError("n", "must be >= k")
        curve = mc_sup_tail(family, space, n, k, kind, grid, reps, seed,
                            workers=workers)
        rows = overlay_bounds(curve, k, family.sigma, family.D, family.L,
                              family.beta, n, consts)
        payload = {"curve": _curve_payload(curve), "statistic": kind,
                   "family": _family_payload(family)}
        try:
            slope, stderr = exponent_fit(curve)
            payload["exponent_fit"] = {"slope": slope, "stderr": stderr}
        except TooFewQualifyingPoints:
            payload["exponent_fit"] = None
        return payload, rows

    if exp == "decoupling":
        if k < 2:
            raise ConfigError("k", "decoupling requires k >= 2")
        if n < k:
            raise ConfigError("n", "must be >= k")
        res = decoupling_experiment(family, space, n, k, grid, reps, seed,
                                    workers=workers)
        rows = overlay_bounds(res.coupled, k, family.sigma, family.D, family.L,
                              family.beta, n, consts)
        payload = {"coupled": _curve_payload(res.coupled),
                   "decoupled": _curve_payload(res.decoupled),
                   "ratio": [None if np.isnan(r) else float(r) for r in res.ratio],
                   "family": _family_payload(family)}
        return payload, rows

    raise ConfigError("experiment", f"unknown experiment {exp!r}")


def run(config_path: str, out_dir: str, workers: int = 1,
        seed_override: int | None = None, fmt: str = "both") -> int:
    """Full run: validate, execute, write report/curve files. Returns the
    exit code."""
    import os
    try:
        cfg = load_config(config_path)
        if seed_override is not None:
            cfg["seed"] = seed_override
        t0 = time.monotonic()
        payload, rows = execute(cfg, workers=workers)
        elapsed = time.monotonic() - t0
    except ConfigError as e:
        print(str(e), file=sys.stderr)
        return 2
    except (ResidualTooLarge, BudgetExceeded, NotApplicable,
            EnumerationRefused) as e:
        print(f"numerical check failed: {e}", file=sys.stderr)
        return 3
    os.makedirs(out_dir, exist_ok=True)
    if fmt in ("table", "both"):
        _write_curve(os.path.join(out_dir, "curve.csv"), rows)
    if fmt in ("report", "both"):
        report = {"config": cfg, "payload": payload,
                  "wall_clock_seconds": elapsed, "workers": workers,
                  "version": __version__, "seed": cfg["seed"]}
        with open(os.path.join(out_dir, "report.json"), "w") as fh:
            json.dump(report, fh, indent=2, sort_keys=True)
            fh.write("\n")
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="empint",
        description="Experiments and calculators for tail bounds of "
                    "empirical multiple stochastic integrals.")
    sub = parser.add_subparsers(dest="command", required=True)
    runp = sub.add_parser("run", help="execute one experiment config")
    runp.add_argument("config", help="path to a JSON config file")
    runp.add_argument("--out", default=".", help="output directory")
    runp.add_argument("--workers", type=int, default=1)
    runp.add_argument("--seed", type=int, default=None, help="seed override")
    runp.add_argument("--format", choices=("table", "report", "both"),
                      default="both")
    args = parser.parse_args(argv)
    if args.command == "run":
        if args.workers < 1:
            print("config error: workers: must be >= 1", file=sys.stderr)
            return 2
        return run(args.config, args.out, workers=args.workers,
                   seed_override=args.seed, fmt=args.format)
    return 2


if __name__ == "__main__":
    sys.exit(main())
