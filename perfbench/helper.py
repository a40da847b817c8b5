"""Numeric side jobs of the benchmark, run as subprocesses so that run.py
never imports numpy.  A child's peak RSS as os.wait4 reports it includes
the peak RSS of the process that spawned it, so the spawning process must
stay small for peak_rss_mb to measure the program alone.

    PYTHONPATH=src python perfbench/helper.py stamp
        imports empint.cli (filling the bytecode cache) and prints the
        numpy and BLAS versions as JSON
    PYTHONPATH=src python perfbench/helper.py oracle CONFIG REPORT
        recomputes the run's curve without empint and prints, as a JSON
        list, every point of REPORT that disagrees with it
"""
import json
import math
import sys

import numpy as np

import workloads as wl


def stamp() -> dict:
    import empint.cli  # noqa: F401  (fills the bytecode cache)
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{blas['name']} {blas['version']}"
    except (TypeError, KeyError):
        blas = "unknown"
    return {"numpy": np.__version__, "blas": blas}


def chaos_values(cfg: dict) -> np.ndarray:
    """Z(eps) = eps^T A eps over all 2^n sign vectors, by dense quadratic
    forms in row chunks.  Row b has eps_j = (-1)^(bit j of b), the program's
    ordering."""
    n = cfg["n"]
    spec = cfg["coefficients"]
    A = np.zeros((n, n))
    for (i, j), a in zip(spec["index_tuples"], spec["values"]):
        A[i, j] += a
    bits = np.arange(n)
    out = np.empty(1 << n)
    chunk = 1 << min(n, 15)
    for start in range(0, 1 << n, chunk):
        b = np.arange(start, start + chunk)[:, None]
        eps = 1.0 - 2.0 * ((b >> bits) & 1)
        out[start:start + chunk] = np.einsum("bi,bi->b", eps @ A, eps)
    return out


def sup_tail_maxima(cfg: dict) -> np.ndarray:
    """Per replication, the supremum over the family of |statistic|, from the
    program's documented random streams (Philox keyed (seed, 64 * replica +
    stream), inverse CDF) but with its own arithmetic: interval sums of the
    signed increment for J at k=1, and 2-d prefix sums of the decoupled
    weights for decoupled-I over boxes at k=2."""
    n, reps, seed, m = cfg["n"], cfg["reps"], cfg["seed"], cfg["space"]["points"]
    cumulative = np.cumsum(np.ones(m) / m)

    def sample(stream):
        key = np.array([seed, stream], dtype=np.uint64)
        u = np.random.Generator(np.random.Philox(key=key)).random(n)
        return np.minimum(np.searchsorted(cumulative, u, side="right"), m - 1)

    fam = cfg["family"]
    maxima = np.empty(reps)
    if cfg["statistic"] == "J" and fam["kind"] == "interval":
        longest = int(np.floor(fam["sigma"] ** 2 * m + 1e-9))
        for r in range(reps):
            nu = np.bincount(sample(64 * r), minlength=m) / n - 1.0 / m
            c = np.concatenate([[0.0], np.cumsum(nu)])
            maxima[r] = math.sqrt(n) * max(
                np.abs(c[length:] - c[:-length]).max()
                for length in range(1, longest + 1))
    elif cfg["statistic"] == "decoupled-I" and fam["kind"] == "box":
        f = np.asarray(fam["table"])
        lo, hi = np.triu_indices(m + 1)  # every axis interval [lo, hi)
        for r in range(reps):
            x, y = sample(64 * r + 1), sample(64 * r + 2)
            same_index = np.zeros((m, m))
            np.add.at(same_index, (x, y), 1.0)
            w = np.outer(np.bincount(x, minlength=m), np.bincount(y, minlength=m))
            P = np.zeros((m + 1, m + 1))
            P[1:, 1:] = np.cumsum(np.cumsum(f * (w - same_index) / 2, 0), 1)
            boxes = (P[hi][:, hi] - P[lo][:, hi] - P[hi][:, lo] + P[lo][:, lo])
            maxima[r] = np.abs(boxes).max()
    else:
        raise ValueError("no oracle for this statistic and family")
    return maxima


def _share_problems(values, x_grid, shares, strict: bool) -> list:
    """Each share of values beyond x (> x if strict, else >= x) must equal
    the reported one, up to values within rounding of x."""
    v = np.asarray(values)
    tol = 1e-9 * max(1.0, float(np.abs(v).max()))
    problems = []
    for x, p in zip(x_grid, shares):
        lo = int(np.count_nonzero(v > x + tol if strict else v >= x + tol)) / v.size
        hi = int(np.count_nonzero(v > x - tol if strict else v >= x - tol)) / v.size
        if not lo <= p <= hi:
            problems.append(f"x={x}: reported {p} but the oracle gives "
                            f"{lo if lo == hi else (lo, hi)}")
    return problems


def oracle_problems(cfg: dict, report: dict) -> list:
    payload = report["payload"]
    if cfg["experiment"] == "chaos_audit":
        tails = payload["exact_tail"]
        problems = [f"exact_tail x={x} where the grid has {gx}"
                    for (x, _), gx in zip(tails, wl.x_grid(cfg))
                    if not math.isclose(x, gx, rel_tol=1e-9, abs_tol=1e-12)]
        return problems + _share_problems(
            np.abs(chaos_values(cfg)), wl.x_grid(cfg), [p for _, p in tails],
            strict=True)
    return _share_problems(sup_tail_maxima(cfg), wl.x_grid(cfg),
                           payload["curve"]["probs"], strict=False)


if __name__ == "__main__":
    if sys.argv[1] == "stamp":
        print(json.dumps(stamp()))
    else:
        with open(sys.argv[2]) as fh:
            cfg = json.load(fh)
        with open(sys.argv[3]) as fh:
            report = json.load(fh)
        print(json.dumps(oracle_problems(cfg, report)))
