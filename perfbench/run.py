"""Benchmark of `empint run`: end-to-end metrics per workload, and a traced
run that splits the time over the package's layers.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --workload all ...   # every workload, one table
    python3 perfbench/run.py --smoke ...          # tiny sizes, seconds in all

Run it from a checkout of the repository; it needs src/ and writes only under
.perfbench_work/.  The last line of standard output is one JSON object with
the keys correct, attempted, failed and metrics.

--trace 0 (end to end).  The workload's config is generated from the seed.
For --seconds (at least MIN_RUNS times), a fresh interpreter builds the
set-up (probe.py) and then `python -m empint.cli run` runs, closed loop, one
subprocess at a time; alternating the two times both under the same machine
load.  Every run's outputs are checked: a run
fails on a nonzero exit, a timeout or a failed check, and counts in
fail_frac.  Reported: medians over the runs of wall_s (spawn to exit),
cpu_s (user+sys of the process tree, from os.wait4) and peak_rss_mb
(largest resident set in the tree), the median set-up time setup_s, and
units_per_s = units / (wall_s - setup_s).

The times are reported at a fixed reference speed of the host.  A shared
host's CPU speed moves by 10-20% within seconds to minutes, which would
swamp the program's own changes.  So just before each probe-and-run pair, a fixed
pure-Python loop that does not use the program (calibrate()) is timed, and
the pair's wall times are scaled by CAL_REF_S / (the loop's wall time): the
time the pair would take on a host where the loop takes CAL_REF_S.  cpu_s
is scaled the same way by the loop's CPU time, since time the host takes
away from the process slows its wall clock but not its CPU clock.  The raw
medians are printed beside the scaled ones.

--trace 1 (per layer).  Every workload is run once untraced and once under
traced.py, which wraps the calls into each module at the module boundary;
mc_k2_box is traced at workers 1 and 2.  Each per-layer metric name starts
with the workload it is measured on, so one traced run reports all of them.
Counts marked computed in the output are derived from operand sizes.
--seconds does not apply: each traced run is made once.

Subprocesses start with every *_NUM_THREADS variable unset, so BLAS uses its
default thread count, as it does for users.
"""
from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
import threading
from dataclasses import dataclass
from pathlib import Path
from time import perf_counter, process_time, sleep

import workloads as wl

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORK = ROOT / ".perfbench_work"
NPROC = len(os.sched_getaffinity(0))
MIN_RUNS = 3
RUN_TIMEOUT_S = 120
# calibrate()'s wall time at the reference speed: about its median on the
# 2-vCPU x86-64 host (Python 3.11) the benchmark was defined on
CAL_REF_S = 0.35

END_TO_END = (("wall_s", "s"), ("setup_s", "s"), ("units_per_s", "1/s"),
              ("cpu_s", "s"), ("peak_rss_mb", "MB"))

# ROADMAP "Recent": per-replication split of mc_k1_interval's loop, in ms
ROADMAP_K1_MS = {"draw_bundle": 3.49, "base sample": 1.08,
                 "statistic_weights": 0.04, "sup matvec": 0.03}


def child_env() -> dict:
    env = {k: v for k, v in os.environ.items() if not k.endswith("_NUM_THREADS")}
    src = str(ROOT / "src")
    env["PYTHONPATH"] = src + os.pathsep + env["PYTHONPATH"] \
        if env.get("PYTHONPATH") else src
    return env


@dataclass
class Run:
    wall: float
    cpu: float
    rss_mb: float
    code: int
    timed_out: bool


def launch(cmd: list, log: Path, timeout: float = RUN_TIMEOUT_S) -> Run:
    """Run one subprocess to exit; time it from spawn to exit and read the
    resource usage of its whole process tree from os.wait4."""
    fired = []

    def kill():
        fired.append(True)
        _kill_group(proc.pid)

    with open(log, "wb") as out:
        t0 = perf_counter()
        proc = subprocess.Popen(cmd, cwd=ROOT, env=child_env(), stdout=out,
                                stderr=subprocess.STDOUT, start_new_session=True)
        timer = threading.Timer(timeout, kill)
        timer.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        finally:
            timer.cancel()
        wall = perf_counter() - t0
    proc.returncode = code = os.waitstatus_to_exitcode(status)
    if code != 0:
        _kill_group(proc.pid)  # pool workers left behind by a failed run
    return Run(wall, usage.ru_utime + usage.ru_stime, usage.ru_maxrss / 1024.0,
               code, bool(fired))


def _kill_group(pgid: int) -> None:
    """SIGKILL a process group and wait, up to 10 s, until it is empty."""
    for _ in range(1000):
        try:
            os.killpg(pgid, signal.SIGKILL)
        except (ProcessLookupError, PermissionError):
            return
        sleep(0.01)


def calibrate(n: int = 1_500_000) -> tuple:
    """(wall, CPU) time of a fixed interpreter-bound loop: the host's speed."""
    t0, c0 = perf_counter(), process_time()
    acc, table = 0, {}
    for i in range(n):
        acc = (acc * 31 + i) & 0xFFFFFFF
        table[i & 1023] = acc
    return perf_counter() - t0, process_time() - c0


def helper(*args: str):
    """JSON output of one helper.py job (numpy stays out of this process,
    whose peak RSS every child's peak_rss_mb would include), or None."""
    try:
        proc = subprocess.run([sys.executable, str(HERE / "helper.py"), *args],
                              cwd=ROOT, env=child_env(), capture_output=True,
                              text=True, timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        return None
    return json.loads(proc.stdout) if proc.returncode == 0 else None


def cli_cmd(cfg_path: Path, out: Path, workers: int) -> list:
    return [sys.executable, "-m", "empint.cli", "run", str(cfg_path),
            "--out", str(out), "--workers", str(workers)]


def read_outputs(out: Path):
    return (out / "curve.csv").read_text(), \
        json.loads((out / "report.json").read_text())


def check_run(run: Run, out: Path, cfg: dict) -> tuple:
    """(problems, fingerprint) of one finished run."""
    if run.timed_out:
        return [f"timed out after {RUN_TIMEOUT_S} s"], None
    if run.code != 0:
        return [f"exit code {run.code}; see {out.name}.log"], None
    try:
        curve, report = read_outputs(out)
    except (OSError, json.JSONDecodeError) as e:
        return [f"unreadable output: {e}"], None
    problems = wl.check_curve(curve, cfg) + wl.check_report(report, cfg)
    return problems, wl.fingerprint(curve, report)


def check_references(name: str, cfg: dict, cfg_path: Path, out: Path,
                     smoke: bool) -> list:
    """Checks made once per benchmark run on one good run's outputs: the
    oracle of helper.py, and the outputs recorded for the reference seed."""
    curve, report = read_outputs(out)
    problems = []
    if cfg["experiment"] in ("chaos_audit", "sup_tail"):
        found = helper("oracle", str(cfg_path), str(out / "report.json"))
        problems += ["the oracle did not run"] if found is None else found
    ref = json.loads((HERE / "reference.json").read_text())
    ref = ref.get(name)
    if smoke or ref is None or cfg["seed"] != ref["seed"]:
        return problems
    if "curve_sha256" in ref:
        got = hashlib.sha256(curve.encode()).hexdigest()
        if got != ref["curve_sha256"]:
            problems.append(f"curve.csv sha256 {got} differs from the "
                            f"default-seed reference {ref['curve_sha256']}")
    if "exact_tail" in ref and report["payload"]["exact_tail"] != ref["exact_tail"]:
        problems.append("exact tails differ from the default-seed reference")
    return problems


def prepare(name: str, seed: int, smoke: bool) -> tuple:
    wdir = WORK / name
    shutil.rmtree(wdir, ignore_errors=True)
    wdir.mkdir(parents=True)
    cfg = wl.make_config(name, seed, smoke)
    cfg_path = wdir / "config.json"
    cfg_path.write_text(json.dumps(cfg))
    return wdir, cfg, cfg_path


# ---------------------------------------------------------------------------
# end to end

def bench_workload(name: str, seed: int, seconds: float, smoke: bool) -> dict:
    wdir, cfg, cfg_path = prepare(name, seed, smoke)
    workers = wl.workers(name, NPROC)
    problems = []

    probe = [sys.executable, str(HERE / "probe.py"), str(cfg_path)]
    setup, runs, failed, expected, referenced = [], [], 0, None, False
    if workers > 1:
        # outputs must not depend on the worker count
        ref = launch(cli_cmd(cfg_path, wdir / "w1", 1), wdir / "w1.log")
        errs, expected = check_run(ref, wdir / "w1", cfg)
        if errs:
            failed += 1
            problems += [f"workers=1 reference: {e}" for e in errs]
    loops = []  # the host speed just before each pair
    start = perf_counter()
    while True:
        elapsed = perf_counter() - start
        if len(runs) >= MIN_RUNS and elapsed + elapsed / len(runs) > seconds:
            break
        loops.append(calibrate())
        r = launch(probe, wdir / "probe.log")
        if r.code == 0:
            setup.append((r.wall, len(runs)))
        elif not any(p.startswith("set-up probe") for p in problems):
            problems.append(f"set-up probe exit code {r.code}; see probe.log")
        out = wdir / f"run{len(runs)}"
        run = launch(cli_cmd(cfg_path, out, workers), wdir / f"{out.name}.log")
        runs.append(run)
        errs, fp = check_run(run, out, cfg)
        if fp is not None:
            if expected is None:
                expected = fp
            elif fp != expected:
                errs.append("outputs differ from " + (
                    "the workers=1 run" if workers > 1 else "the first run"))
            if not referenced:
                referenced = True
                errs += check_references(name, cfg, cfg_path, out, smoke)
        if errs:
            failed += 1
            problems += [f"{out.name}: {e}" for e in errs]
        if run.code != 0 and not runs[:-1]:
            break  # a program that fails at once is not timed further

    speed, cpu_speed = ([CAL_REF_S / loop[k] for loop in loops] for k in (0, 1))
    wall = statistics.median(r.wall * f for r, f in zip(runs, speed))
    # a failed probe is reported above; its set-up time reads 0
    setup_s = statistics.median(t * speed[i] for t, i in setup) if setup else 0.0
    n_units, unit = wl.units(cfg)
    attempted = len(runs) + (workers > 1)
    return {
        "name": name, "workers": workers, "runs": len(runs), "unit": unit,
        "attempted": attempted, "failed": failed, "problems": problems,
        "walls": [r.wall for r in runs], "setups": [t for t, _ in setup],
        "cpus": [r.cpu for r in runs], "speed": speed,
        "metrics": {
            "wall_s": wall,
            "setup_s": setup_s,
            "units_per_s": n_units / (wall - setup_s),
            "cpu_s": statistics.median(r.cpu * f for r, f in zip(runs, cpu_speed)),
            "peak_rss_mb": statistics.median(r.rss_mb for r in runs),
        },
    }


def print_end_to_end(res: dict) -> None:
    m = res["metrics"]
    print(f"{res['name']}: {res['runs']} runs closed loop, workers="
          f"{res['workers']}, {len(res['setups'])} set-up probes")
    walls, med = sorted(res["walls"]), statistics.median
    speed = sorted(res["speed"])
    print(f"  host speed   {med(speed):.4f} of the reference (min "
          f"{speed[0]:.4f}, max {speed[-1]:.4f}); raw times in brackets")
    print(f"  wall_s       {m['wall_s']:.4f} s   [{med(walls):.4f}; median of "
          f"{len(walls)}, min {walls[0]:.4f}, max {walls[-1]:.4f}]")
    print(f"  setup_s      {m['setup_s']:.4f} s   "
          f"[{med(res['setups']) if res['setups'] else 0.0:.4f}]")
    print(f"  units_per_s  {m['units_per_s']:.4f} 1/s   ({res['unit']})")
    print(f"  cpu_s        {m['cpu_s']:.4f} s   [{med(res['cpus']):.4f}]")
    print(f"  peak_rss_mb  {m['peak_rss_mb']:.2f} MB")
    print(f"  fail_frac    {res['failed'] / res['attempted']:.4f}   "
          f"({res['failed']} of {res['attempted']} runs)")
    for p in res["problems"]:
        print(f"  FAILED CHECK {p}")


# ---------------------------------------------------------------------------
# traced split

def reduce_spans(spans: list) -> tuple:
    """Per span name: inclusive time, self time (duration minus the part its
    child spans cover) and calls; plus the time covered by top-level spans."""
    covered = [0.0] * len(spans)
    for _, start, end, parent in spans:
        if parent >= 0:
            covered[parent] += end - start
    stats, top = {}, 0.0
    for i, (name, start, end, parent) in enumerate(spans):
        s = stats.setdefault(name, {"incl": 0.0, "self": 0.0, "calls": 0})
        s["incl"] += end - start
        s["self"] += end - start - covered[i]
        s["calls"] += 1
        if parent < 0:
            top += end - start
    return stats, top


def traced_run(name: str, cfg: dict, cfg_path: Path, wdir: Path, workers: int,
               expected: str) -> tuple:
    tag = f"traced_w{workers}"
    trace_path = wdir / f"{tag}.json"
    cmd = [sys.executable, str(HERE / "traced.py"),
           str(cfg_path), str(wdir / tag), str(workers), str(trace_path)]
    run = launch(cmd, wdir / f"{tag}.log")
    errs, fp = check_run(run, wdir / tag, cfg)
    if fp is not None and fp != expected:
        errs.append("traced outputs differ from the untraced run")
    trace = json.loads(trace_path.read_text()) if run.code == 0 else None
    return run, trace, [f"{tag}: {e}" for e in errs]


def trace_workload(name: str, seed: int, smoke: bool) -> dict:
    wdir, cfg, cfg_path = prepare(name, seed, smoke)
    workers = wl.workers(name, NPROC)
    plain = launch(cli_cmd(cfg_path, wdir / "untraced", workers),
                   wdir / "untraced.log")
    problems, expected = check_run(plain, wdir / "untraced", cfg)
    if expected is not None:
        problems += check_references(name, cfg, cfg_path, wdir / "untraced",
                                     smoke)
    problems = [f"untraced: {e}" for e in problems]
    attempted, failed = 1, int(bool(problems))
    traces = {}
    for w in sorted({1, workers}):
        run, trace, errs = traced_run(name, cfg, cfg_path, wdir, w, expected)
        attempted += 1
        failed += bool(errs)
        problems += errs
        if trace is not None:
            stats, top = reduce_spans(trace["spans"])
            traces[w] = {"run": run, "trace": trace, "stats": stats, "top": top}
    return {"name": name, "cfg": cfg, "workers": workers, "plain": plain,
            "traces": traces, "attempted": attempted, "failed": failed,
            "problems": problems}


def _self(st: dict, span: str) -> float:
    return st.get(span, {}).get("self", 0.0)


def _calls(st: dict, span: str) -> int:
    return st.get(span, {}).get("calls", 0)


def _per_call_ms(st: dict, span: str) -> float:
    return _self(st, span) * 1e3 / max(_calls(st, span), 1)


def layer_metrics(res: dict) -> dict:
    """Per-layer metrics of one traced workload, named <workload>.<layer>...
    Times are self times, from the workers=1 trace; cli.* and the tracing
    overhead come from the trace at the workload's own worker count."""
    name, cfg, workers = res["name"], res["cfg"], res["workers"]
    if workers not in res["traces"] or 1 not in res["traces"]:
        return {}
    main, split = res["traces"][workers], res["traces"][1]
    st, counts = split["stats"], split["trace"]["counts"]
    wall = main["run"].wall - main["trace"]["driven_s"]
    out = {
        "cli.import_s": main["stats"]["cli.import"]["incl"],
        "cli.self_s": wall - main["top"],
        "trace.overhead_frac": (wall - res["plain"].wall) / res["plain"].wall,
    }
    exp = cfg["experiment"]
    if exp == "sup_tail":
        reps = cfg["reps"]
        per_rep_ms = 1e3 / reps
        out.update({
            "spaces.draw_sample.ms": _self(st, "spaces.draw_sample") * per_rep_ms,
            "spaces.draw_sample.calls_per_rep": _calls(st, "spaces.draw_sample") / reps,
            "spaces.uniforms_per_rep": counts.get("spaces.uniforms", 0) / reps,
            "statistics.draw_bundle.ms":
                _self(st, "statistics.draw_bundle") * per_rep_ms,
            "statistics.draw_bundle.streams_per_rep":
                counts.get("spaces.streams", 0) / reps,
            "experiments.statistic_weights.ms":
                _self(st, "experiments.statistic_weights") * per_rep_ms,
            "experiments.sup_matvec.ms":
                _self(st, "experiments.sup_matvec") * per_rep_ms,
            "experiments.sup_matvec.flops":
                counts.get("experiments.sup_matvec.flops", 0) / reps,
            "experiments.sup_matvec.bytes":
                counts.get("experiments.sup_matvec.bytes", 0) / reps,
            "kernels.member_tables.s": _self(st, "kernels.member_tables"),
            "kernels.unique_tables.s": _self(st, "kernels.unique_tables"),
            "kernels.members": counts.get("kernels.members", 0),
            "kernels.unique": counts.get("kernels.unique", 0),
            "bounds.overlay.ms": _self(st, "bounds.overlay") * 1e3,
            "bounds.theorem_bound.calls": counts.get("bounds.theorem_bound", 0),
        })
        if name in wl.POOL_WORKERS:
            out["experiments.mc_sup_tail.parallel_eff"] = \
                st["experiments.mc_sup_tail"]["incl"] \
                / (workers * main["stats"]["experiments.mc_sup_tail"]["incl"])
            # the largest of the program's np.array_split blocks
            out["experiments.reps_per_worker"] = -(-reps // min(workers, reps))
    elif exp == "chaos_audit":
        enum = _calls(st, "chaos.chaos_values_all_signs")
        out.update({
            "chaos.chaos_values_all_signs.ms":
                _per_call_ms(st, "chaos.chaos_values_all_signs"),
            "chaos.exact_chaos_tail.ms": _per_call_ms(st, "chaos.exact_chaos_tail"),
            "chaos.enumerations": enum,
            "chaos.fwht.adds": enum * cfg["n"] * 2 ** cfg["n"],
        })
    else:
        out.update({
            "statistics.u_statistic.ms": _per_call_ms(st, "statistics.u_statistic"),
            "statistics.u_statistic.calls": _calls(st, "statistics.u_statistic"),
            "statistics.multiple_integral_j.ms":
                _per_call_ms(st, "statistics.multiple_integral_j"),
            "statistics.derive_expansion_coefficients.s":
                _self(st, "statistics.derive_expansion_coefficients"),
            "statistics.validate_expansion.s":
                _self(st, "statistics.validate_expansion"),
            "decomposition.hoeffding_decompose.ms":
                _per_call_ms(st, "decomposition.hoeffding_decompose"),
            "decomposition.hoeffding_decompose.calls":
                _calls(st, "decomposition.hoeffding_decompose"),
        })
    return {f"{name}.{k}": v for k, v in out.items()}


def layer_unit(metric: str) -> str:
    if metric.endswith((".ms",)):
        return "ms"
    if metric.endswith((".s", "_s")):
        return "s"
    if metric.endswith((".bytes",)):
        return "bytes"
    if metric.endswith((".flops", ".adds")):
        return "ops"
    if metric.endswith(("_frac", "_eff")):
        return "ratio"
    return "count"


COMPUTED = (".flops", ".bytes", ".adds", "reps_per_worker")


def print_trace(res: dict, metrics: dict) -> None:
    print(f"{res['name']} traced (untraced wall {res['plain'].wall:.4f} s, "
          f"workers={res['workers']})")
    for w, t in sorted(res["traces"].items()):
        print(f"  workers={w}: traced wall {t['run'].wall:.4f} s; "
              f"span  calls  inclusive_s  self_s")
        for span, s in sorted(t["stats"].items(), key=lambda kv: -kv[1]["incl"]):
            print(f"    {span:44s} {s['calls']:7d} {s['incl']:11.5f} {s['self']:9.5f}")
    for k, v in metrics.items():
        if k.startswith(res["name"] + "."):
            label = "  (computed from sizes)" if k.endswith(COMPUTED) else \
                "  (exact count)" if layer_unit(k) == "count" else ""
            print(f"  {k:56s} {v:.6g} {layer_unit(k)}{label}")
    for p in res["problems"]:
        print(f"  FAILED CHECK {p}")


def print_comparisons(results: dict) -> None:
    k1 = results.get("mc_k1_interval")
    if k1 and 1 in k1["traces"]:
        st = k1["traces"][1]["stats"]
        reps = k1["cfg"]["reps"]

        def incl(span):
            return st.get(span, {}).get("incl", 0.0) * 1e3 / reps
        measured = {
            "draw_bundle": incl("statistics.draw_bundle"),
            "base sample": incl("spaces.draw_sample") * reps
            / max(_calls(st, "spaces.draw_sample"), 1),
            "statistic_weights": incl("experiments.statistic_weights"),
            "sup matvec": incl("experiments.sup_matvec"),
        }
        print("mc_k1_interval per-replication split against ROADMAP's baseline "
              "(inclusive ms):")
        for key, base in ROADMAP_K1_MS.items():
            print(f"  {key:18s} baseline {base:6.3f}  measured {measured[key]:7.4f}"
                  f"  ({measured[key] / base - 1:+.0%})")
    k2 = results.get("mc_k2_box")
    if k2 and len(k2["traces"]) == 2:
        t = {w: v["stats"]["experiments.mc_sup_tail"]["incl"]
             for w, v in k2["traces"].items()}
        cpu = {w: v["run"].cpu for w, v in k2["traces"].items()}
        w = k2["workers"]
        verdict = "slower" if t[w] > t[1] else "faster"
        print(f"mc_k2_box mc_sup_tail: workers=1 {t[1]:.3f} s ({cpu[1]:.2f} "
              f"CPU-s for the run), workers={w} {t[w]:.3f} s ({cpu[w]:.2f} "
              f"CPU-s): workers={w} is {verdict}")


# ---------------------------------------------------------------------------

def _git_sha():
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).exists():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def env_stamp(numeric, workers) -> dict:
    digest = hashlib.sha256()
    for path in sorted((ROOT / "src").rglob("*.py")):
        digest.update(path.relative_to(ROOT).as_posix().encode())
        digest.update(path.read_bytes())
    return {
        "git_sha": _git_sha(), "src_sha256": digest.hexdigest(),
        "python": platform.python_version(),
        **(numeric or {"numpy": None, "blas": None}),
        "nproc": NPROC, "workers": workers,
        "thread_env": {k: v for k, v in os.environ.items()
                       if k.endswith("_NUM_THREADS")},
        "thread_env_in_runs": "all *_NUM_THREADS unset",
        "platform": platform.platform(),
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", choices=wl.NAMES + ("all",), default="all")
    parser.add_argument("--seed", type=int, default=wl.DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true",
                        help="tiny sizes: every workload in seconds")
    args = parser.parse_args(argv)
    if not (ROOT / "src" / "empint" / "cli.py").is_file():
        print(f"perfbench: no src/empint under {ROOT}; run it from a checkout "
              f"of the repository", file=sys.stderr)
        return 2
    names = wl.NAMES if args.workload == "all" or args.trace else (args.workload,)
    WORK.mkdir(exist_ok=True)
    numeric = helper("stamp")  # also fills the bytecode cache, as users have it

    metrics, attempted, failed, ok = {}, 0, 0, True
    if args.trace:
        results = {}
        for name in names:
            res = results[name] = trace_workload(name, args.seed, args.smoke)
            layer = layer_metrics(res)
            if not layer:
                ok = False
            metrics.update(layer)
            print_trace(res, layer)
            attempted += res["attempted"]
            failed += res["failed"]
        print_comparisons(results)
        units = {k: layer_unit(k) for k in metrics}
        workers = {n: wl.workers(n, NPROC) for n in names}
    else:
        units, workers = {}, {}
        for name in names:
            res = bench_workload(name, args.seed, args.seconds, args.smoke)
            print_end_to_end(res)
            prefix = "" if len(names) == 1 else name + "."
            for key, unit in END_TO_END:
                metrics[prefix + key] = res["metrics"][key]
                units[prefix + key] = unit
            attempted += res["attempted"]
            failed += res["failed"]
            ok = ok and not res["problems"]
            workers[name] = res["workers"]
    stamp = env_stamp(numeric, workers)
    result = {"correct": ok and failed == 0, "attempted": attempted,
              "failed": failed,
              "metrics": {k: {"value": v, "unit": units[k]}
                          for k, v in metrics.items()}}
    (WORK / "last_result.json").write_text(
        json.dumps({"args": vars(args), "env": stamp, **result}, indent=1))
    print("env " + json.dumps(stamp, sort_keys=True))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
