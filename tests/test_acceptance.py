"""Acceptance suite: end-to-end checks of the package's core guarantees.

Each test prints a single machine-greppable PASS/FAIL line with its runtime.
The numbered labels are stable identifiers for the release checklist.
"""
import itertools
import math
import time
from math import comb, factorial

import numpy as np

from empint.bounds import NotApplicable, chaining_schedule
from empint.chaos import (ChaosCoefficients, chaos_moment_bound, chaos_s,
                          chaos_tail_bound, chaos_values_all_signs)
from empint.cli import main
from empint.decomposition import (all_subsets, canonicalize,
                                  hoeffding_decompose, is_canonical)
from empint.experiments import exponent_fit, mc_sup_tail, \
    counterexample_experiment
from empint.kernels import (BoxRestrictionFamily, KernelFunction,
                            epsilon_net, l2_norm, singleton_family)
from empint.spaces import ProbabilitySpace, stream_rng, uniform_space
from empint.statistics import (derive_expansion_coefficients,
                               exact_u_statistic_moment, mirrored_contrast,
                               validate_expansion)
from test_decomposition import component_sum


def _verdict(num: int, label: str, ok: bool, t0: float, budget: float):
    elapsed = time.monotonic() - t0
    status = "PASS" if (ok and elapsed < budget) else "FAIL"
    print(f"acceptance {num:02d} {label}: {status} "
          f"({elapsed:.1f}s / budget {budget:.0f}s)")
    assert ok, f"{label}: property violated"
    assert elapsed < budget, f"{label}: runtime {elapsed:.1f}s over budget"


# -- 1: projection decomposition reconstructs exactly -----------------------

def test_01_decomposition_reconstruction_exact():
    t0 = time.monotonic()
    ok = True
    combos = list(itertools.product((3, 5), (1, 2, 3)))
    for i in range(200):
        m, k = combos[i % len(combos)]
        sp = uniform_space(m)
        f = KernelFunction(stream_rng(1000 + i, 0).standard_normal((m,) * k))
        decomp = hoeffding_decompose(f, sp)
        if np.max(np.abs(component_sum(decomp) - f.table)) > 1e-10:
            ok = False
        for V in all_subsets(k):
            if V and not is_canonical(decomp[V], sp, tol=1e-10):
                ok = False
    _verdict(1, "decomposition-reconstruction", ok, t0, 5.0)


# -- 2 and 3: exhaustive sign-enumeration vs the chaos bounds ---------------

def _random_sparse_coeffs(n, k, rng, max_terms=12):
    cap = min(max_terms, math.perm(n, k))
    T = int(rng.integers(1, cap + 1))
    tuples = set()
    while len(tuples) < T:
        t = tuple(int(v) for v in rng.integers(0, n, size=k))
        if len(set(t)) == k:
            tuples.add(t)
    idx = np.array(sorted(tuples), dtype=np.int64)
    return ChaosCoefficients(n=n, k=k, index_tuples=idx,
                             values=rng.standard_normal(len(idx)))


def _exact_abs_values_uniform(c) -> np.ndarray:
    """|Z| over the full 2^n sign hypercube, as equally likely values.

    The T monomial signs depend on the sign vector only through T parities,
    a GF(2)-linear image of the uniform hypercube; that image is uniform on a
    rank-r subspace, so the full distribution collapses to <= 2^T equally
    likely sign patterns.  Exact, and independent of the library's
    transform-based enumeration.
    """
    masks = np.bitwise_or.reduce(1 << c.index_tuples.astype(np.int64), axis=1)
    T = len(masks)
    basis = {}
    for j in range(c.n):
        cur = 0
        for t in range(T):
            if (int(masks[t]) >> j) & 1:
                cur |= 1 << t
        while cur:
            hb = cur.bit_length() - 1
            if hb in basis:
                cur ^= basis[hb]
            else:
                basis[hb] = cur
                break
    patterns = np.zeros(1, dtype=np.int64)
    for v in basis.values():
        patterns = np.concatenate([patterns, patterns ^ v])
    bits = (patterns[:, None] >> np.arange(T)) & 1
    return np.abs((1.0 - 2.0 * bits) @ c.values)


def test_02_chaos_tail_bound_sound_exhaustive():
    t0 = time.monotonic()
    violations = 0
    for k in (1, 2, 3):
        for n in range(6, 19):
            rng = stream_rng(2000 + 100 * k + n, 0)
            for i in range(100):
                c = _random_sparse_coeffs(n, k, rng)
                z = _exact_abs_values_uniform(c)
                if n <= 10 and i < 3:
                    # tie the subspace oracle to the library's 2^n enumeration
                    full = np.abs(chaos_values_all_signs(c))
                    for x in (0.0, float(np.median(z)), float(z.max()) / 2):
                        if abs(np.mean(z > x) - np.mean(full > x)) > 1e-12:
                            violations += 1
                S = chaos_s(c)
                for x in np.linspace(0.0, float(z.max()), 25):
                    p = float(np.mean(z > x))
                    if p > chaos_tail_bound(float(x), S, k) + 1e-12:
                        violations += 1
    _verdict(2, "chaos-tail-bound-soundness", violations == 0, t0, 60.0)


def test_03_chaos_moment_comparison_exhaustive():
    t0 = time.monotonic()
    violations = 0
    for k in (1, 2, 3):
        for n in range(6, 19):
            rng = stream_rng(3000 + 100 * k + n, 0)
            for _ in range(50):
                c = _random_sparse_coeffs(n, k, rng)
                z = _exact_abs_values_uniform(c)
                for p, q in ((2.0, 4.0), (2.0, 6.0), (3.0, 5.0)):
                    mq = float(np.mean(z ** q))
                    bound = chaos_moment_bound(p, q, k, float(np.mean(z ** p)))
                    if mq > bound * (1 + 1e-9):
                        violations += 1
    _verdict(3, "chaos-moment-comparison", violations == 0, t0, 60.0)


# -- 4: derived expansion reproduces the point statistic --------------------

def test_04_expansion_identity_holdout():
    t0 = time.monotonic()
    ok = True
    sp = uniform_space(16)
    for n, k in ((5, 2), (6, 2), (6, 3), (6, 4)):
        coeffs = derive_expansion_coefficients(n, k, sp, trials=30,
                                               seed=400 + 10 * n + k)
        worst = validate_expansion(coeffs["coefficients"], sp, n, holdout_pairs=20,
                                   seed=401)
        if worst >= 1e-8:
            ok = False
    _verdict(4, "expansion-identity", ok, t0, 30.0)


# -- 5: exact second moment of the distinct-index statistic -----------------

def test_05_variance_identity_exact():
    t0 = time.monotonic()
    ok = True
    sp = uniform_space(3)
    for k in (1, 2, 4):
        for n in range(max(2, k), 6):
            raw = stream_rng(500 + 10 * k + n, 0).standard_normal((3,) * k)
            sym = np.zeros_like(raw)
            for perm in itertools.permutations(range(k)):
                sym += raw.transpose(perm)
            f = canonicalize(KernelFunction(sym / factorial(k)), sp)
            second = exact_u_statistic_moment(f, sp, n, power=2)
            expected = comb(n, k) * l2_norm(f, sp) ** 2
            if abs(second - expected) > 1e-10:
                ok = False
    _verdict(5, "variance-identity", ok, t0, 10.0)


# -- 6: multiscale schedule invariants --------------------------------------

def test_06_schedule_invariants_random_sweep():
    t0 = time.monotonic()
    rng = stream_rng(600, 0)
    made, ok = 0, True
    while made < 1000:
        k = int(rng.integers(1, 4))
        sigma = float(rng.uniform(0.05, 1.0))
        n = int(rng.integers(10, 10 ** 6))
        xmax = sigma * (n * sigma ** 2) ** (k / 2.0)
        if xmax <= 1e-9:
            continue
        x = float(rng.uniform(0, xmax)) or xmax
        try:
            sched = chaining_schedule(n, k, sigma, x,
                                      A_bar=float(2 ** k * rng.uniform(1.0, 4.0)),
                                      D=float(rng.uniform(0.5, 16.0)),
                                      L=float(rng.uniform(0.5, 6.0)))
        except NotApplicable:
            continue
        if not sched["invariants_hold"]:
            ok = False
        made += 1
    _verdict(6, "schedule-invariants", ok, t0, 1.0)


# -- 7: net sizes stay inside the declared density budget -------------------

def _bump(grid, lo, hi):
    # smooth profile supported on cells [lo, hi), bounded by 1
    x = np.zeros(grid)
    idx = np.arange(lo, hi)
    x[idx] = np.sin(np.pi * (idx - lo + 0.5) / (hi - lo))
    return x


def test_07_net_budget_and_cover():
    t0 = time.monotonic()
    ok = True
    grid = 32
    g = _bump(grid, 12, 20)
    base = {1: KernelFunction(g), 2: KernelFunction(np.outer(g, g))}
    for k in (1, 2):
        fam = BoxRestrictionFamily(base[k], grid)
        rng = stream_rng(700 + k, 0)
        for _ in range(50):
            nu = ProbabilitySpace(rng.dirichlet(np.ones(grid)))
            for eps in (1.0, 0.5, 0.25, 0.1):
                net = epsilon_net(fam, nu, eps)  # raises BudgetExceeded on fail
                if len(net) > fam.budget_at(eps):
                    ok = False
    _verdict(7, "net-budget-and-cover", ok, t0, 30.0)


# -- 8: small-interval family shows the sharp tail cutoff -------------------

def test_08_counterexample_signature():
    t0 = time.monotonic()
    res, _ = counterexample_experiment(0.1, 10 ** 4, 0.5, 500, seed=800)
    ok = res["p_low"] >= 0.8 and res["p_high"] <= 0.5 * res["p_low"]
    _verdict(8, "counterexample-signature", ok, t0, 120.0)


# -- 9: fitted tail exponent tracks 2/k -------------------------------------

def test_09_tail_exponent_shape():
    t0 = time.monotonic()
    ok = True
    sp = uniform_space(8)
    for k, grid_span in ((1, (1.4, 3.4)), (2, (1.0, 8.0))):
        f = canonicalize(
            KernelFunction(stream_rng(900 + k, 0).standard_normal((8,) * k)), sp)
        sigma = l2_norm(f, sp)
        fam = singleton_family(f, sigma=min(1.0, sigma))
        grid = sigma * np.linspace(*grid_span, 16)
        curve = mc_sup_tail(fam, sp, 2048, k, "J", grid, 10 ** 4, seed=900 + k)
        slope = exponent_fit(curve)
        target = 2.0 / k
        if not 0.65 * target <= slope <= 1.35 * target:
            ok = False
    _verdict(9, "tail-exponent-shape", ok, t0, 180.0)


# -- 10: sign randomization leaves the contrast's law unchanged -------------

def test_10_randomization_invariance_exact():
    t0 = time.monotonic()
    sp = uniform_space(2)
    f = KernelFunction(stream_rng(1010, 0).standard_normal(2))
    n = 2
    plain, rand = {}, {}
    for dec in itertools.product(range(2), repeat=n):
        for mir in itertools.product(range(2), repeat=n):
            prob = 0.5 ** (2 * n)
            decoupled = (np.array(dec, dtype=np.int64),)
            mirrored = (np.array(mir, dtype=np.int64),)
            v = round(mirrored_contrast(f, decoupled, mirrored), 12)
            plain[v] = plain.get(v, 0.0) + prob
            for bits in itertools.product((-1.0, 1.0), repeat=n):
                vr = round(mirrored_contrast(f, decoupled, mirrored,
                                             np.array(bits)), 12)
                rand[vr] = rand.get(vr, 0.0) + prob * 0.5 ** n
    ok = set(plain) == set(rand) and all(
        abs(plain[v] - rand[v]) < 1e-12 for v in plain)
    _verdict(10, "randomization-invariance", ok, t0, 1.0)


# -- 11: runs are reproducible and worker-count independent -----------------

def test_11_determinism(tmp_path):
    t0 = time.monotonic()
    import json
    cfg = {"experiment": "sup_tail", "seed": 110, "n": 128, "k": 1,
           "reps": 300, "space": {"points": 8, "weights": "uniform"},
           "family": {"kind": "interval", "sigma": 0.5, "grid": 8},
           "x_grid": {"start": 0.0, "stop": 2.0, "points": 9},
           "statistic": "J"}
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(cfg))
    outs = {}
    for name, workers in (("a", "1"), ("b", "1"), ("c", "8")):
        out = tmp_path / name
        code = main(["run", str(path), "--out", str(out), "--workers", workers])
        assert code == 0
        outs[name] = (out / "curve.csv").read_bytes()
    ok = outs["a"] == outs["b"] == outs["c"]
    _verdict(11, "determinism", ok, t0, 60.0)
