"""The repository benchmark: host cost, set-up, memory and fidelity.

Run from the root of a checkout::

    python3 perfbench/run.py --workload saturated --seed 1 --seconds 10 --trace 0

``--trace 0`` runs the workload's cells back to back, in passes, until
``--seconds`` have gone by (at least ``MIN_PASSES`` passes), checking
every cell as it finishes, and reports the end-to-end metrics.
``--trace 1`` runs one clean pass and one pass under ``cProfile``, checks
that both give the same digests and engine counters, and reports the
per-layer metrics (``layers.py`` says which module is in which layer).
The last line of standard output is one JSON object:
``{"correct", "attempted", "failed", "metrics"}``.

Everything runs in this one process on one thread; the only other
processes are the short ``python3 -c "import repro..."`` children that
time the package import before anything is measured.
"""

from __future__ import annotations

import argparse
import contextlib
import cProfile
import gc
import json
import resource
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path

import calibrate

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
HERE = Path(__file__).resolve().parent

#: Fewest timed passes a ``--trace 0`` run makes, however short
#: ``--seconds`` is, so each time is a median of at least this many.
MIN_PASSES = 2
#: Fresh interpreters that time the package import (median taken).
IMPORT_SAMPLES = 5
#: The modules a workload needs, imported by the set-up timer.
IMPORTS = (
    "repro.runner.aggregate",
    "repro.fleet",
    "repro.experiments.fig5_efficiency",
    "repro.churn",
)
#: Where a traced run writes its layer split and hottest functions.
TRACE_DIR = ROOT / ".perfbench"

#: Units of the per-layer metrics that are times (scaled to reference).
TIME_UNITS = {"us/pkt", "us", "s"}

END_TO_END_UNITS = {
    "us_per_pkt": "us/pkt",
    "wall_s": "s",
    "setup_s": "s",
    "peak_rss_mb": "MiB",
    "enforce_err": "ratio",
    "jain": "index",
}


def import_seconds() -> float:
    """Median time a fresh interpreter takes to import the workloads'
    modules of ``repro`` (reference seconds)."""
    code = (
        "import sys, time; sys.path.insert(0, sys.argv[1]); "
        "t = time.perf_counter(); "
        + "".join(f"import {m}; " for m in IMPORTS)
        + "print(time.perf_counter() - t)"
    )
    samples = []
    with calibrate.Scaled() as scaled:
        for _ in range(IMPORT_SAMPLES):
            out = subprocess.run(
                [sys.executable, "-c", code, str(SRC)],
                check=True, capture_output=True, text=True, timeout=60,
            )
            samples.append(float(out.stdout.strip().splitlines()[-1]))
    return statistics.median(samples) * scaled.factor


class Checker:
    """Counts attempted and failed cells; one cell fails on an
    exception, a failed check, or a digest that differs from the
    reference for its seed (``reference.json`` for the default seed,
    else the cell's first run in this process)."""

    def __init__(self, workload: str, reference: dict) -> None:
        self.workload = workload
        self.expected: dict[str, str] = dict(reference) if reference else {}
        self.attempted = 0
        self.failed = 0

    def run(self, cell, **kwargs):
        """Run ``cell`` and check it; ``None`` if it failed to run."""
        self.attempted += 1
        try:
            result = cell.run(**kwargs)
        except Exception:  # one broken cell must not abort the workload
            self.failed += 1
            print(f"[{self.workload}] cell {cell.name} raised:", file=sys.stderr)
            traceback.print_exc(file=sys.stderr)
            return None
        problems = list(result.problems)
        want = self.expected.setdefault(result.name, result.digest)
        if result.digest != want:
            problems.append(
                f"digest {result.digest[:16]} != reference {want[:16]}"
            )
        if problems:
            self.failed += 1
            for problem in problems:
                print(f"[{self.workload}] cell {cell.name}: {problem}",
                      file=sys.stderr)
        return result


def run_pass(workloads, workload: str, seed: int, checker: Checker,
             gc_timer: "GcTimer | None" = None, **kwargs):
    """One pass over the workload's cells; returns (results, wall s).

    Cells are built afresh each pass (a churned run mutates its policy)
    and each starts from a collected heap, so one cell's garbage never
    lands in the next one's time or peak memory.  ``gc_timer`` times the
    collector while the cells run.
    """
    start = time.perf_counter()
    results = []
    for cell in workloads.cells_for(workload, seed):
        gc.collect()
        with gc_timer or contextlib.nullcontext():
            results.append(checker.run(cell, **kwargs))
    return results, time.perf_counter() - start


def cross_check_shards(workloads, seed: int, checker: Checker) -> None:
    """The 1-shard fleet digest must equal a 2-shard run's."""
    cell = workloads.FleetCell("bcpqp", workloads.fleet_spec(seed), shards=2)
    checker.run(cell)


def timed_passes(workloads, workload: str, seed: int, checker: Checker,
                 seconds: float) -> list:
    """Passes until ``seconds`` have gone by (at least ``MIN_PASSES``);
    each is ``(results, wall s, scale factor to reference seconds)``.
    Also returns the peak RSS (MiB) after the first ``MIN_PASSES``."""
    passes = []
    kernel = calibrate.kernel_seconds()
    deadline = time.perf_counter() + seconds
    while len(passes) < MIN_PASSES or time.perf_counter() < deadline:
        with calibrate.Scaled(before=kernel) as scaled:
            results, wall = run_pass(workloads, workload, seed, checker)
        kernel = scaled.after
        passes.append((results, wall, scaled.factor))
        if len(passes) == MIN_PASSES:
            # Later passes only add allocator fragmentation noise.
            peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    return passes, peak_rss_mb


def end_to_end(passes, import_s: float, peak_rss_mb: float) -> dict[str, float]:
    """End-to-end metrics over the timed passes: times are medians over
    passes, in reference seconds (see ``calibrate.py``)."""
    done = [([r for r in results if r is not None], wall, factor)
            for results, wall, factor in passes]
    done = [row for row in done if row[0]]
    if not done:
        raise RuntimeError("every cell of every pass failed")
    us = [
        sum(r.run_s for r in results) / sum(r.arrived for r in results)
        * 1e6 * factor
        for results, _, factor in done
    ]
    setup = [sum(r.setup_s for r in results) * factor
             for results, _, factor in done]
    first = done[0][0]
    return {
        "us_per_pkt": statistics.median(us),
        "wall_s": statistics.median(wall * factor for _, wall, factor in passes),
        "setup_s": import_s + statistics.median(setup),
        "peak_rss_mb": peak_rss_mb,
        "enforce_err": sum(r.enforce_err for r in first) / len(first),
        "jain": sum(r.jain for r in first) / len(first),
    }


class GcTimer:
    """Collector pauses, from ``gc.callbacks`` (no ``repro`` code involved)."""

    def __init__(self) -> None:
        self.pause_s = 0.0
        self.gen2 = 0
        self._start = 0.0

    def __call__(self, phase: str, info: dict) -> None:
        if phase == "start":
            self._start = time.perf_counter()
            return
        self.pause_s += time.perf_counter() - self._start
        if info["generation"] == 2:
            self.gen2 += 1

    def __enter__(self) -> "GcTimer":
        gc.callbacks.append(self)
        return self

    def __exit__(self, *exc) -> None:
        gc.callbacks.remove(self)


def traced(workloads, layers, workload: str, seed: int, checker: Checker):
    """One clean and one profiled pass; returns (per-layer metrics,
    problems, the trace record written to ``TRACE_DIR``).  Times are in
    reference seconds; traced ones include the profiler's cost."""
    with calibrate.Scaled() as scaled:
        metrics, problems, record = _traced(workloads, layers, workload, seed, checker)
    metrics = {
        name: (value * scaled.factor if unit in TIME_UNITS else value, unit)
        for name, (value, unit) in metrics.items()
    }
    return metrics, problems, record


def _traced(workloads, layers, workload, seed, checker):
    gc_timer = GcTimer()
    clean, clean_wall = run_pass(workloads, workload, seed, checker, gc_timer)
    cells = workloads.cells_for(workload, seed)
    for i, result in enumerate(clean):
        if result is not None and result.engine is None:
            # Fleet cells reach their simulator only through capture.
            clean[i] = checker.run(cells[i], capture=True)
    profiler = cProfile.Profile()
    traced_results, traced_wall = run_pass(
        workloads, workload, seed, checker, profiler=profiler
    )
    # The checker already holds each traced digest to the untraced one.
    pairs = [(u, t) for u, t in zip(clean, traced_results) if u and t]
    if not pairs:
        raise RuntimeError("every cell failed; no layer split")
    clean = [u for u, _ in pairs]
    traced_results = [t for _, t in pairs]

    problems = []
    for untraced, trace in pairs:
        for name in workloads.ENGINE_COUNTERS:
            if untraced.engine[name] != trace.engine[name]:
                problems.append(
                    f"{trace.name}: {name} traced {trace.engine[name]} "
                    f"!= untraced {untraced.engine[name]}"
                )

    entries = profiler.getstats()
    layer_map = layers.LayerMap(SRC / "repro")
    split = layers.split(entries, layer_map)
    if abs(split.accounted_s - split.total_s) > 1e-9 * max(1.0, split.total_s):
        problems.append(
            f"layer self times sum to {split.accounted_s!r}, "
            f"traced total is {split.total_s!r}"
        )
    runs = layers.calls_of(entries, "sim/simulator.py", "Simulator.run")
    if runs != len(traced_results):
        problems.append(
            f"profile saw Simulator.run {runs} times for "
            f"{len(traced_results)} cells: the trace missed the event loop"
        )

    pkts = sum(r.arrived for r in traced_results)
    engine = {k: sum(r.engine[k] for r in traced_results)
              for k in workloads.ENGINE_COUNTERS}
    peak_heap = max(r.engine["peak_heap"] for r in traced_results)
    counters = {k: sum(r.counters[k] for r in traced_results)
                for k in traced_results[0].counters}
    process_ack = layers.calls_of(entries, "cc/endpoint.py", "TcpSender._process_ack")
    ack_fast = layers.calls_of(entries, "cc/endpoint.py", "TcpSender._ack_fast")
    updates = counters["updates_applied"] + counters["updates_rejected"]
    update_calls, update_cum = layers.cumulative(
        entries, "limiters/base.py", "RateLimiter.apply_update"
    )
    lookups = (
        layers.calls_of(entries, "policy/tree.py", "Policy.fluid_rate_of")
        + layers.calls_of(entries, "policy/tree.py", "Policy.fluid_rates")
    )
    recomputes = (
        layers.calls_of(entries, "policy/tree.py", "Policy._assign",
                        caller="Policy._rates_for")
        + layers.calls_of(entries, "~", "<built-in method builtins.min>",
                          caller="Policy._flat_winners")
    )

    metrics: dict[str, tuple[float, str]] = {}
    for layer in layers.LAYERS:
        metrics[f"{layer}.self_us_per_pkt"] = (split.self_s[layer] / pkts * 1e6, "us/pkt")
        metrics[f"{layer}.calls_per_pkt"] = (split.calls_in[layer] / pkts, "calls/pkt")
    metrics["unattributed.self_us_per_pkt"] = (
        split.self_s[layers.UNATTRIBUTED] / pkts * 1e6, "us/pkt")
    metrics["trace.total_us_per_pkt"] = (split.total_s / pkts * 1e6, "us/pkt")
    metrics["trace.overhead"] = (traced_wall / clean_wall, "x")
    metrics["sim.events_per_pkt"] = (engine["events"] / pkts, "events/pkt")
    metrics["sim.heap_pushes_per_pkt"] = (engine["heap_pushes"] / pkts, "pushes/pkt")
    metrics["sim.peak_heap"] = (peak_heap, "count")
    metrics["sim.inline_advances_per_pkt"] = (engine["inline_advances"] / pkts, "1/pkt")
    metrics["sim.batched_deliveries"] = (engine["batched_deliveries"], "count")
    metrics["gc.pause_s"] = (gc_timer.pause_s, "s")
    metrics["gc.gen2_collections"] = (gc_timer.gen2, "count")
    metrics["cc.retransmits_per_pkt"] = (counters["retransmits"] / pkts, "1/pkt")
    metrics["cc.timeouts"] = (counters["timeouts"], "count")
    metrics["cc.dup_pkts"] = (counters["dup_pkts"], "count")
    metrics["cc.reference_ack_share"] = (
        process_ack / (process_ack + ack_fast) if process_ack + ack_fast else 0.0,
        "ratio")
    metrics["limiters.modeled_cycles_per_pkt"] = (counters["cycles"] / pkts, "cycles/pkt")
    metrics["limiters.drop_rate"] = (counters["dropped"] / pkts, "ratio")
    metrics["limiters.magic_ops"] = (counters["magic_ops"], "count")
    metrics["limiters.update_us"] = (
        update_cum / update_calls * 1e6 if update_calls else 0.0, "us")
    metrics["limiters.update_reject_share"] = (
        counters["updates_rejected"] / updates if updates else 0.0, "ratio")
    metrics["policy.memo_miss_ratio"] = (
        recomputes / lookups if lookups else 0.0, "ratio")
    metrics["metrics.post_s"] = (sum(r.post_s for r in clean), "s")
    metrics["fleet.setup_us_per_agg"] = (
        sum(r.setup_s for r in clean) / sum(r.aggregates for r in clean) * 1e6,
        "us")

    record = {
        "workload": workload,
        "seed": seed,
        "packets": pkts,
        "traced_total_s": split.total_s,
        "self_s": split.self_s,
        "calls_in": split.calls_in,
        "layer_calls": split.calls,
        "top_functions": [
            {"function": name, "layer": layer, "calls": calls,
             "self_s": tt, "cum_s": ct}
            for name, layer, calls, tt, ct in split.functions[:40]
        ],
    }
    return metrics, problems, record


def print_table(title: str, metrics: dict[str, tuple[float, str]]) -> None:
    print(title)
    for name, (value, unit) in metrics.items():
        print(f"  {name:36s} {value:>16.6g} {unit}")


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=None,
                        help="input seed (default: the reference seed)")
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "repro" / "__init__.py").is_file():
        print(f"error: {SRC / 'repro'} not found; run from a checkout "
              "of the repository", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import layers
    import workloads

    if args.workload not in workloads.WORKLOADS:
        parser.error(f"--workload must be one of {', '.join(workloads.WORKLOADS)}")
    if args.seed is None:
        args.seed = workloads.DEFAULT_SEED
    references = json.loads((HERE / "reference.json").read_text())
    reference = (
        references["digests"][args.workload]
        if args.seed == references["seed"] else {}
    )
    checker = Checker(args.workload, reference)

    if args.trace:
        metrics, problems, record = traced(
            workloads, layers, args.workload, args.seed, checker
        )
        for problem in problems:
            print(f"[{args.workload}] trace: {problem}", file=sys.stderr)
        TRACE_DIR.mkdir(exist_ok=True)
        out = TRACE_DIR / f"trace-{args.workload}-seed{args.seed}.json"
        out.write_text(json.dumps(record, indent=1) + "\n")
        print(f"layer split written to {out.relative_to(ROOT)}")
        correct = not problems
    else:
        import_s = import_seconds()
        passes, peak_rss_mb = timed_passes(
            workloads, args.workload, args.seed, checker, args.seconds
        )
        values = end_to_end(passes, import_s, peak_rss_mb)
        print("calibration: kernel "
              + " ".join(f"{calibrate.REFERENCE_KERNEL_S / f * 1e3:.2f}"
                         for _, _, f in passes)
              + f" ms per pass (reference {calibrate.REFERENCE_KERNEL_S * 1e3:g} ms)")
        metrics = {name: (values[name], unit)
                   for name, unit in END_TO_END_UNITS.items()}
        correct = True
    if args.workload == "fleet_1k":
        cross_check_shards(workloads, args.seed, checker)
    correct = correct and checker.failed == 0

    shown = dict(metrics)
    shown["failed_frac"] = (checker.failed / checker.attempted, "ratio")
    print_table(
        f"{args.workload} seed={args.seed} trace={args.trace}: "
        f"{checker.attempted} cells, {checker.failed} failed", shown)
    print(json.dumps({
        "correct": correct,
        "attempted": checker.attempted,
        "failed": checker.failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
