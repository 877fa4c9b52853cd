"""Fleet-scale enforcement: 10^4-10^6 aggregates, sharded (§6.1 scale).

The paper's deployment rate-limits ~100k subscriber aggregates on a
single machine.  This entry point runs that population shape through the
sharded fleet driver (:mod:`repro.fleet`): the aggregate id space is
split into contiguous shards, each shard simulates its block in its own
worker process, and the streamed columnar summaries are merged into one
:class:`~repro.metrics.merge.FleetMetrics` — whose digest is
byte-identical for every shard count.

Run via the experiments CLI (``python -m repro.experiments fleet``; it is
*not* part of the default all-figures run) or standalone with richer
knobs::

    PYTHONPATH=src python -m repro.experiments.fleet_scale \
        --aggregates 100000 --shards 100 --scheme bcpqp
"""

from __future__ import annotations

import argparse
import json
import sys
from dataclasses import dataclass, replace

from repro.experiments import common
from repro.experiments.common import ResultCache, print_table
from repro.fleet import FleetResult, FleetSpec, run_fleet
from repro.runner.journal import SweepJournal, grid_hash

__all__ = ["Config", "main", "run"]


@dataclass
class Config:
    """Default demo fleet: big enough to exercise sharding, small enough
    to finish in seconds."""

    aggregates: int = 2000
    shards: int = 4
    scheme: str = "bcpqp"
    seed: int = 1
    horizon: float = 1.2
    warmup: float = 0.2
    isolate: bool = False

    def spec(self) -> FleetSpec:
        return FleetSpec(
            aggregates=self.aggregates,
            seed=self.seed,
            scheme=self.scheme,
            horizon=self.horizon,
            warmup=self.warmup,
        )


def run(
    config: Config | None = None,
    *,
    jobs: int | None = None,
    cache: ResultCache | None = None,
) -> FleetResult:
    """Run the fleet under the session execution options."""
    config = config or Config()
    spec = config.spec()
    if common._FORCE_VALIDATE and not spec.validate:
        spec = replace(spec, validate=True)
    options = common._EXECUTION
    journal = None
    if options.journal_root is not None:
        digest = grid_hash(
            "repro.fleet.shard.simulate_shard",
            [repr(spec), str(config.shards)],
        )
        journal = SweepJournal(
            options.journal_root / f"fleet-{digest[:16]}.jsonl"
        )
    retries = options.retries
    if options.supervised and retries is None:
        retries = 2
    return run_fleet(
        spec,
        shards=config.shards,
        jobs=jobs,
        cache=cache,
        retries=retries,
        task_timeout=options.task_timeout,
        journal=journal,
        fail_fast=options.fail_fast,
        isolate=config.isolate,
    )


def _report(result: FleetResult) -> None:
    m = result.metrics
    print(
        f"Fleet: {m.aggregates} aggregates ({result.total_flows} flows), "
        f"{result.shards} shard(s), scheme={m.scheme}"
    )
    print_table(
        ["metric", "value"],
        [
            ["arrived packets", f"{m.arrived_packets}"],
            ["forwarded packets", f"{m.forwarded_packets}"],
            ["drop rate", f"{m.drop_rate:.3f}"],
            ["goodput (MB)", f"{m.goodput_bytes / 1e6:.2f}"],
            ["mean normalized goodput", f"{m.mean_normalized_goodput:.3f}"],
            ["fairness across aggregates",
             f"{m.fairness_across_aggregates:.4f}"],
            ["mean intra-aggregate fairness",
             f"{m.mean_intra_aggregate_fairness:.4f}"],
            ["modeled cycles/pkt", f"{m.cycles_per_packet:.1f}"],
            ["us/pkt (sum of shard run time)",
             f"{result.us_per_packet:.2f}"],
            ["setup s (summed)", f"{result.setup_seconds:.2f}"],
            ["run s (summed)", f"{result.run_seconds:.2f}"],
            ["wall s", f"{result.wall_seconds:.2f}"],
            ["peak shard RSS (MB)",
             f"{result.peak_rss_bytes / 1e6:.1f}"],
            ["digest", m.digest[:32]],
        ],
    )


def as_json(result: FleetResult) -> dict:
    """JSON-ready fleet summary (what ``--json`` and the benchmark
    harness emit)."""
    m = result.metrics
    return {
        "aggregates": m.aggregates,
        "shards": result.shards,
        "scheme": m.scheme,
        "flows": result.total_flows,
        "arrived_packets": m.arrived_packets,
        "forwarded_packets": m.forwarded_packets,
        "dropped_packets": m.dropped_packets,
        "drop_rate": m.drop_rate,
        "goodput_bytes": m.goodput_bytes,
        "mean_normalized_goodput": m.mean_normalized_goodput,
        "fairness_across_aggregates": m.fairness_across_aggregates,
        "mean_intra_aggregate_fairness": m.mean_intra_aggregate_fairness,
        "cycles_per_packet": m.cycles_per_packet,
        "us_per_packet": result.us_per_packet,
        "setup_seconds": result.setup_seconds,
        "run_seconds": result.run_seconds,
        "wall_seconds": result.wall_seconds,
        "peak_rss_bytes": result.peak_rss_bytes,
        "peak_rss_per_shard_bytes": [
            s.peak_rss_bytes for s in result.summaries
        ],
        "digest": m.digest,
    }


def main(
    config: Config | None = None,
    *,
    jobs: int | None = None,
    cache: ResultCache | None = None,
) -> FleetResult:
    """Run the fleet demo and print its summary table."""
    result = run(config, jobs=jobs, cache=cache)
    _report(result)
    return result


def _cli(argv: list[str] | None = None) -> None:
    parser = argparse.ArgumentParser(
        prog="python -m repro.experiments.fleet_scale",
        description="Sharded fleet-scale rate enforcement run.",
    )
    parser.add_argument("--aggregates", "-n", type=int, default=2000)
    parser.add_argument("--shards", "-k", type=int, default=4)
    parser.add_argument("--scheme", default="bcpqp")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--horizon", type=float, default=1.2)
    parser.add_argument("--warmup", type=float, default=0.2)
    parser.add_argument(
        "--jobs", "-j", type=int, default=None,
        help="worker processes for the shard sweep (default: serial)",
    )
    parser.add_argument(
        "--cache", metavar="DIR", default=None,
        help="on-disk result cache for shard summaries",
    )
    parser.add_argument(
        "--validate", action="store_true",
        help="attach the invariant checker inside every shard",
    )
    parser.add_argument(
        "--isolate", action="store_true",
        help="run every shard in a disposable supervised process "
        "(exact per-shard RSS, crash isolation)",
    )
    parser.add_argument(
        "--json", action="store_true",
        help="emit a JSON summary instead of the table",
    )
    args = parser.parse_args(argv)
    if args.validate:
        common.set_validate(True)
    config = Config(
        aggregates=args.aggregates,
        shards=args.shards,
        scheme=args.scheme,
        seed=args.seed,
        horizon=args.horizon,
        warmup=args.warmup,
        isolate=args.isolate,
    )
    cache = ResultCache(args.cache) if args.cache else None
    result = run(config, jobs=args.jobs, cache=cache)
    if args.json:
        json.dump(as_json(result), sys.stdout, indent=2)
        print()
    else:
        _report(result)


if __name__ == "__main__":
    _cli()
