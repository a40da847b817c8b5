"""Configuration-driven entry point.

A run reads one JSON config, builds the space and family it names, executes
one experiment or calculator, and writes a structured report plus a flat
comma-separated curve table.  Exit codes: 0 success, 2 config validation
error or an unusable output directory, 3 numerical-check failure.
"""
from __future__ import annotations

import argparse
import contextlib
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
from .kernels import (BoxRestrictionFamily, ExplicitFamily, FunctionFamily,
                      KernelFunction, _check_shape, interval_family, l2_norm,
                      l2_norms, singleton_family)
from .spaces import (TABLE_LIMIT, InvalidArgument, ProbabilitySpace,
                     finite_space, stream_rng, uniform_space)
from .statistics import (ResidualTooLarge, check_holdout_pairs,
                         derive_expansion_coefficients, validate_expansion)
from .experiments import (counterexample_experiment, decoupling_experiment,
                          exponent_fit, mc_sup_tail, symmetrization_experiment,
                          TooFewQualifyingPoints, worker_count)

CURVE_HEADER = "x,p,ci_lo,ci_hi,theorem_bound,corollary_bound,applicable"

AUDITS = ("chaos_audit", "expansion_audit", "schedule_audit")  # no replications
EXPERIMENTS = ("sup_tail", "symmetrization", "decoupling", "counterexample") + AUDITS


class ConfigError(InvalidArgument):
    """A config field refused under its dotted path: missing, mistyped,
    non-finite, against a CLI rule, or refused by the library."""


REQUIRED = object()
# seeds key Philox streams, whose keys are 64-bit words
SEED_RULE = (lambda v: 0 <= v < 2 ** 64, "must lie in [0, 2^64)")


def _numbers_only(v, depth: int = 8) -> bool:
    """Every entry of a list nested at most `depth` deep is an int or a float,
    not a bool; the depth cap keeps a deep list from exhausting the stack."""
    if isinstance(v, list):
        return depth > 0 and all(_numbers_only(e, depth - 1) for e in v)
    return type(v) in (int, float)


def _require(cfg: dict, path: str, types, cond=None, problem="invalid value",
             default=REQUIRED):
    """cfg[last part of the dotted `path`], or `default` if it is absent."""
    key = path.rsplit(".", 1)[-1]
    if key not in cfg:
        if default is REQUIRED:
            raise ConfigError(path, "missing required field")
        return default
    v = cfg[key]
    if not isinstance(v, types) or isinstance(v, bool):
        names = types if isinstance(types, tuple) else (types,)
        raise ConfigError(path, "expected " + " or ".join(
            {dict: "object"}.get(t, t.__name__) for t in names))
    # int-float comparison is exact: nan, +-inf and any int past the
    # largest float (such as 10**400) fail it
    if type(v) in (int, float) and not abs(v) <= sys.float_info.max:
        raise ConfigError(path, "must be finite")
    if isinstance(v, list) and not _numbers_only(v):
        raise ConfigError(path, "every entry must be a number")
    if cond is not None and not cond(v):
        raise ConfigError(path, problem)
    return v


@contextlib.contextmanager
def _section(path: str):
    """Name a refusal met while building section `path`: a library argument
    as `path.name`, any other ValueError, TypeError or OverflowError as `path`."""
    try:
        yield
    except ConfigError:
        raise
    except InvalidArgument as e:
        raise ConfigError(f"{path}.{e.name}", e.problem) from None
    except (ValueError, TypeError, OverflowError) as e:
        raise ConfigError(path, str(e)) from None


def _build_space(spec, field: str) -> ProbabilitySpace:
    weights = _require(spec, f"{field}.weights", (str, list), default="uniform")
    if weights == "uniform":
        points = _require(spec, f"{field}.points", int)
        with _section(f"{field}.points"):
            return uniform_space(points)
    with _section(f"{field}.weights"):
        return finite_space(np.asarray(weights, dtype=float))


def _build_family(spec, field: str, space: ProbabilitySpace, k: int):
    kind = _require(spec, f"{field}.kind", str)
    with _section(field):
        if kind == "interval":
            sigma = _require(spec, f"{field}.sigma", (int, float))
            grid = _require(spec, f"{field}.grid", int, lambda v: v == space.m,
                            "must equal the space point count")
            return interval_family(float(sigma), grid)
        if kind in ("box", "singleton"):
            table = _require(spec, f"{field}.table", list)
            with _section(f"{field}.table"):
                f = KernelFunction(np.asarray(table, dtype=float))
                if kind == "box":
                    return BoxRestrictionFamily(f, space.m)
                _check_shape(f, space)
            sigma = _require(spec, f"{field}.sigma", (int, float), default=1.0)
            return singleton_family(f, sigma=float(sigma))
        if kind == "random-canonical":
            count = _require(spec, f"{field}.count", int, lambda v: v >= 1,
                             "must be >= 1")
            if count * space.m ** k > TABLE_LIMIT:
                raise InvalidArgument("count", f"{count} kernels x {space.m ** k} "
                                               "cells exceed 2^27 entries")
            kseed = _require(spec, f"{field}.kernel_seed", int, *SEED_RULE)
            rng = stream_rng(kseed, 0)
            kernels = []
            for _ in range(count):
                raw = KernelFunction(rng.standard_normal((space.m,) * k))
                kernels.append(canonicalize(raw, space))
            sigma = max(l2_norm(f, space) for f in kernels)
            if sigma > 1:
                # scale every member so sigma <= 1 holds; the 1e-12 slack
                # keeps the rescaled norms from rounding above 1
                kernels = [KernelFunction(f.table / (sigma * (1 + 1e-12)))
                           for f in kernels]
                sigma = max(l2_norm(f, space) for f in kernels)
            return ExplicitFamily(kernels, D=float(count), L=1.0, sigma=sigma)
    raise ConfigError(f"{field}.kind", f"unknown family kind {kind!r}")


def _build_x_grid(spec, field: str) -> np.ndarray:
    with _section(field):
        if isinstance(spec, dict):
            start = _require(spec, f"{field}.start", (int, float))
            stop = _require(spec, f"{field}.stop", (int, float))
            points = _require(spec, f"{field}.points", int)
            spec = np.linspace(float(start), float(stop), points)
        grid = np.asarray(spec, dtype=float)
    if (grid.ndim != 1 or not np.all(np.isfinite(grid)) or np.any(grid < 0)
            or np.any(np.diff(grid) <= 0)):
        raise ConfigError(field, "must be a strictly increasing flat list of "
                                 "finite x >= 0")
    return grid


def load_config(path: str) -> dict:
    try:
        with open(path) as fh:
            cfg = json.load(fh)
    except OSError as e:
        raise ConfigError("config", f"unreadable: {e}")
    except (json.JSONDecodeError, RecursionError) as e:
        raise ConfigError("config", f"not valid JSON: {e}")
    if not isinstance(cfg, dict):
        raise ConfigError("config", "top level must be an object")
    _require(cfg, "experiment", str, lambda v: v in EXPERIMENTS,
             f"must be one of {EXPERIMENTS}")
    return cfg


def _fmt(v) -> str:
    return str(int(v)) if isinstance(v, bool) else format(float(v), ".12g")


def overlay_bounds(curve: dict, statistic: str, family: FunctionFamily,
                   space: ProbabilitySpace, n: int, consts: BoundConstants):
    """Per-x rows of a Monte Carlo curve of `statistic` over the `family`
    that ran on `space`: empirical p with interval, theorem and corollary
    bounds from the family's k, sigma, D and L, and the applicability flag;
    with the Theorem's hypotheses that fail, by name and measured value.

    The Theorem bounds the tail of sup |J| over members with |f| <= 1 and
    ||f||_2 <= sigma; the one-sided "increment" counts as J, since
    P(sup J >= x) <= P(sup |J| >= x), and the sigma slack covers
    interval_family's floor.  A row is applicable where no hypothesis fails
    and x lies in the region.  Report-only; the constants are exploratory."""
    k, tables = family.k, family.unique_tables()[0]
    failed = {} if statistic in ("J", "increment") else {"statistic": statistic}
    sup = float(max(tables.max(), -tables.min()))  # no |tables| temporary
    if sup > 1 + 1e-12:
        failed["sup_norm"] = sup
    l2 = float(l2_norms(tables, space, k).max())
    if l2 > family.sigma * (1 + 1e-9):
        failed["l2_norm"] = l2
    rows = []
    for x, p, lo, hi in zip(curve["x_grid"], curve["probs"], curve["ci_lo"],
                            curve["ci_hi"]):
        tb, applicable = theorem_bound(x, n, k, family.sigma, family.D,
                                       family.L, consts)
        rows.append({"x": x, "p": p, "ci_lo": lo, "ci_hi": hi,
                     "theorem_bound": tb,
                     "corollary_bound": corollary2_bound(x, k, consts),
                     "applicable": applicable and not failed})
    return rows, failed


def _write_curve(path, rows):
    lines = [CURVE_HEADER]
    for r in rows:
        lines.append(",".join(_fmt(r[c]) for c in CURVE_HEADER.split(",")))
    with open(path, "w") as fh:
        fh.write("\n".join(lines) + "\n")


def execute(cfg: dict, workers: int = 1):
    """Run the configured experiment; returns (payload dict, curve rows,
    the failed hypotheses of the bound overlay by name)."""
    exp = cfg["experiment"]
    seed = _require(cfg, "seed", int, *SEED_RULE)
    n = _require(cfg, "n", int, lambda v: v >= 1, "must be >= 1")

    if exp == "schedule_audit":
        k = _require(cfg, "k", int, lambda v: v >= 1, "must be >= 1")
        sigma = _require(cfg, "sigma", (int, float))
        x = _require(cfg, "x", (int, float))
        A_bar = _require(cfg, "A_bar", (int, float))
        D = _require(cfg, "D", (int, float))
        L = _require(cfg, "L", (int, float))
        return chaining_schedule(n, k, float(sigma), float(x), float(A_bar),
                                 float(D), float(L)), [], {}

    if exp == "expansion_audit":
        k = _require(cfg, "k", int, lambda v: 1 <= v <= 4, "must be in 1..4")
        space = _build_space(_require(cfg, "space", dict), "space")
        trials = _require(cfg, "trials", int)
        pairs = _require(cfg, "holdout_pairs", int)
        check_holdout_pairs(pairs)
        payload = derive_expansion_coefficients(n, k, space, trials, seed)
        payload["holdout_max_relative_error"] = validate_expansion(
            payload["coefficients"], space, n, pairs, seed)
        return payload, [], {}

    if exp == "chaos_audit":
        k = _require(cfg, "k", int, lambda v: v >= 1, "must be >= 1")
        if n > ENUMERATION_LIMIT:
            raise EnumerationRefused(n)
        spec = _require(cfg, "coefficients", dict)
        tuples = _require(spec, "coefficients.index_tuples", list)
        values = _require(spec, "coefficients.values", list)
        with _section("coefficients"):
            coeffs = ChaosCoefficients(n=n, k=k, index_tuples=np.asarray(tuples),
                                       values=np.asarray(values, dtype=float))
        grid = _build_x_grid(_require(cfg, "x_grid", (list, dict), default=[]),
                             "x_grid")
        S = chaos_s(coeffs)
        rows = []
        for x, p in zip(grid.tolist(), exact_chaos_tail(coeffs, grid).tolist()):
            q, opt = optimal_q_tail(x, S, k) if x > 0 and S > 0 else (0.0, 1.0)
            rows.append({"x": x, "p": p, "ci_lo": p, "ci_hi": p,
                         "theorem_bound": chaos_tail_bound(x, S, k),
                         "corollary_bound": opt, "applicable": q >= 2})
        payload = {"S": S, "exact_tail": [[r["x"], r["p"]] for r in rows]}
        return payload, rows, {}

    # Monte Carlo experiments: each returns its record and the one tail that
    # overlays the bounds of the family and space it ran
    reps = _require(cfg, "reps", int)
    k = 1 if exp == "counterexample" else _require(
        cfg, "k", int, lambda v: 1 <= v <= 4, "must be in 1..4")
    with _section("constants"):
        consts = BoundConstants.from_dict(k, cfg.get("constants"))
    if exp == "counterexample":
        sigma = float(_require(cfg, "sigma", (int, float)))
        eps = _require(cfg, "epsilon", (int, float))
        grid = _require(cfg, "grid", int, default=None)
        payload, curve = counterexample_experiment(sigma, n, float(eps), reps,
                                                   seed, grid=grid, workers=workers)
        # J(1_I) one-sided over the windows of the grid it ran
        family = interval_family(sigma, payload["grid"])
        space, kind = uniform_space(payload["grid"]), "increment"
    else:
        space = _build_space(_require(cfg, "space", dict), "space")
        family = _build_family(_require(cfg, "family", dict), "family", space, k)
        if family.k != k:
            raise ConfigError("family", f"member arity {family.k} does not match k={k}")
        if exp == "symmetrization":
            x = _require(cfg, "x", (int, float))
            payload, curve = symmetrization_experiment(family, space, n, float(x),
                                                       reps, seed, workers=workers)
            kind = "J"
        elif exp == "sup_tail":
            grid = _build_x_grid(_require(cfg, "x_grid", (list, dict)), "x_grid")
            kind = _require(cfg, "statistic", str,
                            lambda v: v in ("J", "I", "decoupled-I"),
                            "must be J, I or decoupled-I", default="J")
            curve = mc_sup_tail(family, space, n, k, kind, grid, reps, seed,
                                workers=workers)
            payload = {"curve": curve, "statistic": kind}
        elif exp == "decoupling":
            grid = _build_x_grid(_require(cfg, "x_grid", (list, dict)), "x_grid")
            payload, curve = decoupling_experiment(family, space, n, k, grid, reps,
                                                   seed, workers=workers)
            kind = "I"  # the coupled curve
        else:
            raise ConfigError("experiment", f"unknown experiment {exp!r}")
        # read after the run, so the family's table cache is never shipped to
        # workers; fitted after the table build, which peaks lower in RSS
        tables = family.unique_tables()[0]
        payload["family"] = {"members": len(family), "unique_tables": tables.shape[0]}
        if exp == "sup_tail":
            try:
                payload["exponent_fit"] = {"slope": exponent_fit(curve)}
            except TooFewQualifyingPoints:
                payload["exponent_fit"] = None
    rows, failed = overlay_bounds(curve, kind, family, space, n, consts)
    return payload, rows, failed


def run(config_path: str, out_dir: str, workers: int = 1,
        seed_override: int | None = None) -> int:
    """Full run: validate, execute, write curve.csv and report.json. Returns
    the exit code."""
    import os
    try:
        if os.path.exists(out_dir) and not os.path.isdir(out_dir):
            raise ConfigError("out", f"{out_dir} exists and is not a directory")
        cfg = load_config(config_path)
        if seed_override is not None:
            cfg["seed"] = seed_override
        t0 = time.monotonic()
        payload, rows, failed = execute(cfg, workers=workers)
        elapsed = time.monotonic() - t0
    except InvalidArgument as e:
        print(f"config error: {e}", file=sys.stderr)
        return 2
    except (ResidualTooLarge, NotApplicable, EnumerationRefused) as e:
        print(f"numerical check failed: {e}", file=sys.stderr)
        return 3
    # the processes that ran, not the ones allowed
    ran = 1 if cfg["experiment"] in AUDITS else worker_count(workers, cfg["reps"])
    report = {"config": cfg, "payload": payload,
              "wall_clock_seconds": elapsed, "workers": ran,
              "version": __version__, "seed": cfg["seed"]}
    if failed:
        report["failed_hypotheses"] = failed
    try:
        os.makedirs(out_dir, exist_ok=True)
        _write_curve(os.path.join(out_dir, "curve.csv"), rows)
        with open(os.path.join(out_dir, "report.json"), "w") as fh:
            json.dump(report, fh, indent=2, sort_keys=True)
            fh.write("\n")
    except OSError as e:
        print(f"config error: out: {e}", file=sys.stderr)
        return 2
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
    args = parser.parse_args(argv)
    if args.workers < 1:
        print("config error: workers: must be >= 1", file=sys.stderr)
        return 2
    return run(args.config, args.out, workers=args.workers,
               seed_override=args.seed)


if __name__ == "__main__":
    sys.exit(main())
