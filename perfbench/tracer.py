"""Run one evclt CLI command with a span around each layer's entry points.

    PYTHONPATH=src python perfbench/tracer.py TRACE.json <evclt arguments...>

The command runs exactly as ``evclt <arguments>`` would and exits with its
code; in addition, TRACE.json receives per-span call counts, total and self
seconds, error counts, and the layer counters (streams, draws, kernel rows,
computed kernel bytes, simulated and distinct replicates).

Names are patched where they are looked up: ``from .rng import uniforms``
binds a copy of the name in each importing module, so ``evclt.harness``,
``evclt.asymptotics`` and ``evclt.design`` are each patched, not
``evclt.rng``. Methods are patched on their class. Each thread keeps its own
span stack, so under ``--workers 2`` a kernel call on a pool thread is a root
span of that thread and its time is never taken off a span of another thread.
A span's self time is its duration minus the durations of its direct
children on the same thread.
"""

from __future__ import annotations

import functools
import inspect
import json
import pathlib
import sys
import threading
import time

FLOAT_BYTES = 8  # kernel inputs are float64


class Tracer:
    """Span aggregates and counters, safe to update from several threads."""

    def __init__(self) -> None:
        self._local = threading.local()
        self._lock = threading.Lock()
        self.spans: dict[str, dict] = {}
        self.counters: dict[str, int] = {}
        self._distinct: dict[tuple[int, int], int] = {}

    def _stack(self) -> list[list[float]]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def add(self, name: str, value: int) -> None:
        with self._lock:
            self.counters[name] = self.counters.get(name, 0) + int(value)

    def add_replicates(self, seed: int, n: int, replicates: int) -> None:
        """Count replicates simulated, and distinct (seed, n, replicate) keys."""
        self.add("harness.replicates_simulated", replicates)
        with self._lock:
            key = (int(seed), int(n))
            self._distinct[key] = max(self._distinct.get(key, 0), int(replicates))

    def replicates_distinct(self) -> int:
        with self._lock:
            return sum(self._distinct.values())

    def _record(self, name: str, duration: float, self_time: float, failed: bool) -> None:
        with self._lock:
            span = self.spans.setdefault(
                name, {"calls": 0, "total_s": 0.0, "self_s": 0.0, "errors": 0}
            )
            span["calls"] += 1
            span["total_s"] += duration
            span["self_s"] += self_time
            span["errors"] += int(failed)

    def wrap(self, name: str, fn, count=None):
        """``fn`` inside a span called ``name``; ``count(tracer, bound_args,
        result)`` records the call's work after it returns."""
        signature = inspect.signature(fn)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            stack = self._stack()
            frame = [0.0]  # time covered by direct children
            stack.append(frame)
            failed = True
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
                failed = False
            finally:
                duration = time.perf_counter() - start
                stack.pop()
                if stack:
                    stack[-1][0] += duration
                self._record(name, duration, duration - frame[0], failed)
            if count is not None:
                count(self, signature.bind(*args, **kwargs).arguments, result)
            return result

        return traced

    def to_dict(self) -> dict:
        with self._lock:
            spans = {k: dict(v) for k, v in sorted(self.spans.items())}
            counters = dict(sorted(self.counters.items()))
        counters["harness.replicates_distinct"] = self.replicates_distinct()
        return {"spans": spans, "counters": counters}


def _count_streams(tracer: Tracer, args: dict, result) -> None:
    tracer.add("rng.uniforms.calls", 1)
    tracer.add("rng.uniforms.draws", result.size)


def _count_mc_streams(tracer: Tracer, args: dict, result) -> None:
    _count_streams(tracer, args, result)
    tracer.add("asymptotics.lindeberg_sum.draws", result.size)


def _count_sample(tracer: Tracer, args: dict, result) -> None:
    tracer.add("model.sample.draws", result.size)


def _count_fit(tracer: Tracer, args: dict, result) -> None:
    xi, eta = args["xi"], args["eta"]
    tracer.add("kernels.fit_batch.rows", len(xi))
    tracer.add("kernels.fit_batch.bytes_in", FLOAT_BYTES * (xi.size + eta.size))


def _count_decompose(tracer: Tracer, args: dict, result) -> None:
    size = sum(args[k].size for k in ("x", "xi", "eps", "delta"))
    tracer.add("kernels.decompose_batch.rows", len(args["xi"]))
    tracer.add("kernels.decompose_batch.bytes_in", FLOAT_BYTES * size)


def _count_grid_point(tracer: Tracer, args: dict, result) -> None:
    replicates = int(args["replicates"])
    tracer.add_replicates(args["seed"], args["n"], replicates)
    tracer.add("harness.skipped", replicates - int(result.valid.sum()))


def install(tracer: Tracer) -> None:
    """Patch every traced entry point of the imported evclt modules."""
    import evclt.asymptotics
    import evclt.cli
    import evclt.design
    import evclt.harness
    import evclt.kernels
    from evclt.design import DesignSequence
    from evclt.model import ErrorDistribution

    def patch(owner, attr: str, name: str, count=None) -> None:
        setattr(owner, attr, tracer.wrap(name, getattr(owner, attr), count))

    patch(evclt.harness, "uniforms", "rng.uniforms", _count_streams)
    patch(evclt.design, "uniforms", "rng.uniforms", _count_streams)
    patch(evclt.asymptotics, "uniforms", "rng.uniforms", _count_mc_streams)
    patch(ErrorDistribution, "sample", "model.sample", _count_sample)
    patch(evclt.kernels, "fit_batch", "kernels.fit_batch", _count_fit)
    patch(evclt.kernels, "decompose_batch", "kernels.decompose_batch", _count_decompose)
    patch(evclt.cli, "run_experiment", "harness.run_experiment")
    patch(evclt.harness, "_simulate_grid_point", "harness.grid_point", _count_grid_point)
    patch(evclt.cli, "counterexample_run", "harness.counterexample_run")
    patch(evclt.harness, "counterexample_run", "harness.counterexample_run")
    for attr in ("ks_statistic", "coverage", "singular_threshold"):
        patch(evclt.harness, attr, "harness.stats")
    patch(DesignSequence, "generate", "design.generate")
    patch(evclt.design, "summarize", "design.summarize")
    patch(evclt.harness, "summarize", "design.summarize")
    patch(evclt.cli, "diagnostics_report", "asymptotics.diagnostics_report")
    patch(
        evclt.cli,
        "lindeberg_sum",
        "asymptotics.lindeberg_sum",
        lambda t, args, result: t.add("asymptotics.lindeberg_sum.calls", 1),
    )
    patch(evclt.cli, "load_config", "config.load_config")
    for attr in (
        "_write_json",
        "_write_csv",
        "_write_manifest",
        "_write_counterexample_csv",
        "export_design_csv",
        "report_json_bytes",
    ):
        patch(evclt.cli, attr, "cli.write")
    # report.json is written with Path.write_bytes straight from _cmd_simulate.
    patch(pathlib.Path, "write_bytes", "cli.write")


def _out_dir(argv: list[str]) -> pathlib.Path:
    return pathlib.Path(argv[argv.index("--out") + 1])


def main() -> int:
    trace_path, argv = sys.argv[1], sys.argv[2:]
    start = time.perf_counter()
    import evclt.cli

    import_s = time.perf_counter() - start
    tracer = Tracer()
    install(tracer)
    code = tracer.wrap("cli.main", evclt.cli.main)(argv)
    trace = tracer.to_dict()
    trace["import_s"] = import_s
    trace["counters"]["cli.bytes_written"] = sum(
        p.stat().st_size for p in _out_dir(argv).rglob("*") if p.is_file()
    )
    with open(trace_path, "w", encoding="utf-8") as fh:
        json.dump(trace, fh, sort_keys=True, indent=2)
    return code


if __name__ == "__main__":
    sys.exit(main())
