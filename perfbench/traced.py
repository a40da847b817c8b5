"""Traced run: the same work as `python -m empint.cli run`, with the calls
into each module's public functions wrapped at the module boundary.

Spans (name, start, end, parent) and exact counts are kept in memory and
written to a JSON file when the run ends; run.py reduces them to self time.
Nothing under src/ changes: the wrappers replace the names the calling
module looks up (e.g. `empint.experiments.draw_bundle`), so the program runs
its own code paths and writes the same outputs.  Spans recorded inside pool
workers are not collected; the per-layer split comes from workers=1 runs.

Usage (from the repository root):
    PYTHONPATH=src python perfbench/traced.py CONFIG OUT_DIR WORKERS TRACE_JSON
"""
import functools
import json
import sys
from collections import Counter
from time import perf_counter


class Tracer:
    def __init__(self):
        self.spans = []  # [name, start, end, parent index or -1]
        self.stack = []
        self.counts = Counter()

    def open(self, name: str) -> int:
        i = len(self.spans)
        self.spans.append([name, perf_counter(), 0.0,
                           self.stack[-1] if self.stack else -1])
        self.stack.append(i)
        return i

    def close(self, i: int) -> None:
        self.stack.pop()
        self.spans[i][2] = perf_counter()

    def span(self, owner, attr: str, name: str) -> None:
        """Record a span around every call of owner.attr."""
        fn = getattr(owner, attr)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            i = self.open(name)
            try:
                return fn(*args, **kwargs)
            finally:
                self.close(i)
        setattr(owner, attr, traced)

    def count(self, owner, attr: str, name: str) -> None:
        """Count the calls of owner.attr without timing them."""
        fn = getattr(owner, attr)

        @functools.wraps(fn)
        def counted(*args, **kwargs):
            self.counts[name] += 1
            return fn(*args, **kwargs)
        setattr(owner, attr, counted)


def instrument(tracer: Tracer) -> list:
    """Wrap the layer boundaries the workloads cross; returns the list that
    collects every family whose member tables the program builds."""
    import numpy as np
    from empint import chaos, cli, experiments, kernels, spaces, statistics

    class CountingRng:
        """Generator proxy that counts the uniforms drawn through it."""

        def __init__(self, rng):
            self._rng = rng

        def random(self, size=None, *args, **kwargs):
            tracer.counts["spaces.uniforms"] += 1 if size is None \
                else int(np.prod(size))
            return self._rng.random(size, *args, **kwargs)

        def __getattr__(self, name):
            return getattr(self._rng, name)

    stream_rng = spaces.stream_rng

    def counting_stream_rng(seed, stream_id):
        tracer.counts["spaces.streams"] += 1
        return CountingRng(stream_rng(seed, stream_id))
    spaces.stream_rng = statistics.stream_rng = counting_stream_rng

    class TimedMatrix(np.ndarray):
        """Member matrix whose `F @ w` is the supremum matvec span; flops and
        bytes are computed from the operand sizes."""

        def __matmul__(self, other):
            i = tracer.open("experiments.sup_matvec")
            try:
                out = np.matmul(self.view(np.ndarray), other)
            finally:
                tracer.close(i)
            tracer.counts["experiments.sup_matvec.flops"] += \
                2 * self.size * (other.size // other.shape[0])
            tracer.counts["experiments.sup_matvec.bytes"] += \
                self.nbytes + other.nbytes + out.nbytes
            return out

    families = []
    member_matrix = experiments._member_matrix

    def member_tables(family):
        families.append(family)
        i = tracer.open("kernels.member_tables")
        try:
            F = member_matrix(family)
        finally:
            tracer.close(i)
        return F.view(TimedMatrix)
    experiments._member_matrix = member_tables

    tracer.span(statistics, "draw_sample", "spaces.draw_sample")
    tracer.span(experiments, "draw_bundle", "statistics.draw_bundle")
    tracer.span(experiments, "statistic_weights", "experiments.statistic_weights")
    tracer.span(cli, "mc_sup_tail", "experiments.mc_sup_tail")
    tracer.span(cli, "overlay_bounds", "bounds.overlay")
    tracer.count(cli, "theorem_bound", "bounds.theorem_bound")
    tracer.span(kernels.FunctionFamily, "unique_tables", "kernels.unique_tables")
    tracer.span(kernels.BoxRestrictionFamily, "unique_tables",
                "kernels.unique_tables")
    tracer.span(cli, "exact_chaos_tail", "chaos.exact_chaos_tail")
    tracer.span(chaos, "chaos_values_all_signs", "chaos.chaos_values_all_signs")
    tracer.span(cli, "derive_expansion_coefficients",
                "statistics.derive_expansion_coefficients")
    tracer.span(cli, "validate_expansion", "statistics.validate_expansion")
    tracer.span(statistics, "multiple_integral_j", "statistics.multiple_integral_j")
    tracer.span(statistics, "u_statistic", "statistics.u_statistic")
    tracer.span(statistics, "hoeffding_decompose",
                "decomposition.hoeffding_decompose")
    return families


def main(config: str, out_dir: str, workers: int, trace_path: str) -> int:
    tracer = Tracer()
    t0 = perf_counter()
    from empint import cli
    tracer.spans.append(["cli.import", t0, perf_counter(), -1])
    families = instrument(tracer)
    code = cli.run(config, out_dir, workers=workers)

    # Unique tables feed setup and nets, not the sup_tail loop, so one call
    # is made here (a cache hit when the run built them); run.py subtracts
    # its time from the traced wall time.
    driven_s = 0.0
    if families:
        t = perf_counter()
        tables, _ = families[0].unique_tables()
        driven_s = perf_counter() - t
        tracer.counts["kernels.members"] = len(families[0])
        tracer.counts["kernels.unique"] = int(tables.shape[0])

    with open(trace_path, "w") as fh:
        json.dump({"spans": tracer.spans, "counts": tracer.counts,
                   "driven_s": driven_s, "exit_code": code}, fh)
    return code


if __name__ == "__main__":
    sys.exit(main(sys.argv[1], sys.argv[2], int(sys.argv[3]), sys.argv[4]))
