"""The benchmark's workloads: cells, how one runs, and its checks.

A workload is a fixed batch of simulated cells made from a seed.  A cell
runs exactly the code a user's run takes (the steps of
``repro.runner.aggregate.simulate_aggregate`` for one aggregate, or
``repro.fleet.run_fleet`` for a fleet), timed in three parts: set-up up
to the first simulated event, the simulation itself, and the post-run
measurement.  Each run is checked as it finishes (conservation, churn
accounting) and reduced to a sha256 digest of its outcome.

Workloads (see ``BENCHMARK.json`` for why each is there):

* ``saturated`` -- the five Figure 5 cells (§6.2): one 25 Mbps aggregate
  with four long-lived reno/cubic/bbr/vegas flows for 12 s, per scheme.
  The seed draws the flows' start offsets (0-10 ms).
* ``fleet_1k`` -- 1,000 bcpqp aggregates in one shard (§6.1 shape),
  plans drawn from the seed by ``FleetSpec``.
* ``churn_lossy`` -- bcpqp and the shaper under a nested policy, on/off
  flows, 1% loss with 2 ms jitter and ~100 seeded policy updates per
  simulated second.
"""

from __future__ import annotations

import hashlib
import sys
import time
from dataclasses import dataclass, field, replace

from repro.churn import ChurnPlan, draw_plan
from repro.cc.endpoint import FlowDemux, TcpSender
from repro.experiments import fig5_efficiency
from repro.fleet import FleetSpec, run_fleet
from repro.limiters.base import RateLimiter
from repro.limiters.shaper import Shaper
from repro.net.impair import ImpairmentSpec
from repro.policy.tree import Policy
from repro.runner.aggregate import AggregateConfig, build_scenario, measure
from repro.sim.rng import RngFactory
from repro.sim.simulator import Simulator
from repro.units import mbps, ms
from repro.workload.spec import FlowSpec, OnOffSpec

DEFAULT_SEED = 1

WORKLOADS = ("saturated", "fleet_1k", "churn_lossy")

#: Flow start offsets the seed draws for ``saturated`` (seconds).
SATURATED_START_JITTER = 0.01

FLEET_AGGREGATES = 1000

CHURN_SCHEMES = ("bcpqp", "shaper")
CHURN_RATE = mbps(20)
#: 24 s, not the 12 s of the other cells: the churned bcpqp error moves
#: with the seed's plan, and doubling the run cut that spread from 13%
#: to 5% across seeds.
CHURN_HORIZON = 24.0
CHURN_UPDATES_PER_S = 100
#: ``rate`` would make the enforced rate a moving target (and
#: ``enforce_err`` meaningless); ``capacity`` compounds across actions,
#: so the work per run would swing with the seed.
CHURN_KINDS = ("weights", "priorities", "resize", "noop")
CHURN_IMPAIR = ImpairmentSpec(loss=0.01, jitter=ms(2))

#: Engine counters compared between the untraced and traced runs of a cell.
ENGINE_COUNTERS = (
    "events", "heap_pushes", "inline_advances", "batched_deliveries",
)


@dataclass
class CellResult:
    """What one run of one cell produced."""

    name: str
    digest: str
    arrived: int
    aggregates: int
    setup_s: float
    run_s: float
    post_s: float
    enforce_err: float
    jain: float
    #: Failed checks; empty when the cell is correct.
    problems: list[str] = field(default_factory=list)
    #: ``ENGINE_COUNTERS`` plus ``peak_heap``; ``None`` when the cell's
    #: simulator was not reachable (a fleet run without capture).
    engine: dict[str, int] | None = None
    #: Per-layer counters (cc, limiters), when the run's objects were
    #: reachable.
    counters: dict[str, float] | None = None


def engine_counters(sims) -> dict[str, int]:
    """Summed engine counters (max for the peak heap) over ``sims``."""
    return {
        "events": sum(s.events_processed for s in sims),
        "heap_pushes": sum(s.heap_pushes for s in sims),
        "inline_advances": sum(s.inline_advances for s in sims),
        "batched_deliveries": sum(s.batched_deliveries for s in sims),
        "peak_heap": max((s.peak_heap_size for s in sims), default=0),
    }


def endpoint_counters(senders, receivers, limiters) -> dict[str, float]:
    """TCP and limiter counters summed over one run's objects."""
    return {
        "retransmits": sum(s.retransmits for s in senders),
        "timeouts": sum(s.timeouts for s in senders),
        "dup_pkts": sum(getattr(r, "duplicates", 0) for r in receivers),
        "cycles": sum(lim.cost.cycles() for lim in limiters),
        "dropped": sum(lim.stats.dropped_packets for lim in limiters),
        "magic_ops": sum(
            getattr(lim, "magic_fills", 0) + getattr(lim, "magic_reclaims", 0)
            for lim in limiters
        ),
    }


def conservation_problems(limiter: RateLimiter) -> list[str]:
    """``arrived = forwarded + dropped`` (+ what a shaper still holds)."""
    stats = limiter.stats
    held = 0
    if isinstance(limiter, Shaper):
        held = sum(len(q) for q in limiter._queues) + (1 if limiter._busy else 0)
    if stats.arrived_packets != stats.forwarded_packets + stats.dropped_packets + held:
        return [
            f"{limiter.name}: conservation broken: arrived="
            f"{stats.arrived_packets} forwarded={stats.forwarded_packets} "
            f"dropped={stats.dropped_packets} held={held}"
        ]
    return []


def window_error(normalized) -> float:
    """RMS of ``throughput / enforced rate - 1`` over 250 ms windows.

    Per window, not ``|mean - 1|``: on saturated cells the mean sits
    within ~0.002 of the rate, so its distance from 1 is mostly seed
    noise (60% spread across seeds), while the per-window error is what
    enforcement accuracy (Figure 4) is about and moves little with the
    seed.
    """
    values = list(normalized)
    return (sum((v - 1.0) ** 2 for v in values) / len(values)) ** 0.5


def fleet_window_error(summaries) -> float:
    """Mean over aggregates of each one's :func:`window_error`."""
    errors = []
    for summary in summaries:
        nbins = summary.nbins
        for row, rate in enumerate(summary.rates):
            bins = summary.binned_bytes[row * nbins:(row + 1) * nbins]
            errors.append(window_error(b / (rate * summary.window) for b in bins))
    return sum(errors) / len(errors)


def outcome_digest(outcome) -> str:
    """sha256 over every measured field of an ``AggregateOutcome``."""
    slots = sorted(outcome.slot_series.items())
    payload = repr((
        outcome.scheme,
        outcome.rate,
        outcome.aggregate_series.times,
        outcome.aggregate_series.values,
        [(slot, s.times, s.values) for slot, s in slots],
        outcome.drop_rate,
        outcome.cycles_per_packet,
        outcome.arrived_packets,
        outcome.flow_records,
        outcome.bottleneck_drops,
        outcome.magic_fills,
        outcome.magic_reclaims,
        outcome.updates_applied,
        outcome.updates_rejected,
    ))
    return hashlib.sha256(payload.encode()).hexdigest()


class AggregateCell:
    """One aggregate, run the way ``simulate_aggregate`` runs it."""

    def __init__(self, name: str, config: AggregateConfig) -> None:
        self.name = name
        self.config = config

    def run(self, profiler=None, capture: bool = False) -> CellResult:
        """Simulate, measure and check; ``profiler`` (a
        ``cProfile.Profile``) traces the simulation and measurement."""
        config = self.config
        start = time.perf_counter()
        sim = Simulator(batch_limit=config.batch)
        limiter, scenario = build_scenario(config, sim)
        built = time.perf_counter()
        if profiler is not None:
            profiler.enable()
        try:
            scenario.run()
            ran = time.perf_counter()
            outcome = measure(config, limiter, scenario)
        finally:
            if profiler is not None:
                profiler.disable()
        measured = time.perf_counter()

        problems = conservation_problems(limiter)
        if config.churn is not None:
            planned = len(config.churn.actions)
            done = outcome.updates_applied + outcome.updates_rejected
            if done != planned:
                problems.append(
                    f"{self.name}: churn applied {outcome.updates_applied} + "
                    f"rejected {outcome.updates_rejected} != {planned} planned"
                )
        senders = [s for runner in scenario.runners for s in runner.senders]
        receivers = list(scenario.demux._sinks.values())
        return CellResult(
            name=self.name,
            digest=outcome_digest(outcome),
            arrived=outcome.arrived_packets,
            aggregates=1,
            setup_s=built - start,
            run_s=ran - built,
            post_s=measured - ran,
            enforce_err=window_error(outcome.normalized_series),
            jain=outcome.fairness,
            problems=problems,
            engine=engine_counters([sim]),
            counters={
                **endpoint_counters(senders, receivers, [limiter]),
                "updates_applied": outcome.updates_applied,
                "updates_rejected": outcome.updates_rejected,
            },
        )


class _Capture:
    """A ``sys.settrace`` hook that collects the objects a fleet shard
    builds, without touching any ``repro`` code.

    It records ``self`` at every call of the watched constructors during
    set-up.  When ``Simulator.run`` is entered it removes itself (so the
    simulation runs untraced) and, if given a profiler, enables it: the
    interpreter calls the trace hook before the profile hook on a call,
    so the profiler sees ``Simulator.run`` itself enter.
    """

    def __init__(self, profiler=None) -> None:
        self.profiler = profiler
        self.objects: dict[str, list] = {
            "sims": [], "senders": [], "demuxes": [], "limiters": [],
        }
        self._watch = {
            Simulator.__init__.__code__: self.objects["sims"],
            TcpSender.__init__.__code__: self.objects["senders"],
            FlowDemux.__init__.__code__: self.objects["demuxes"],
            RateLimiter.__init__.__code__: self.objects["limiters"],
        }
        self._run = Simulator.run.__code__

    def __call__(self, frame, event, arg):
        code = frame.f_code
        if code is self._run:
            sys.settrace(None)
            if self.profiler is not None:
                self.profiler.enable()
            return None
        bucket = self._watch.get(code)
        if bucket is not None:
            bucket.append(frame.f_locals["self"])
        return None


class FleetCell:
    """A whole fleet, in process, as one shard."""

    def __init__(self, name: str, spec: FleetSpec, shards: int = 1) -> None:
        self.name = name
        self.spec = spec
        self.shards = shards

    def run(self, profiler=None, capture: bool = False) -> CellResult:
        """Simulate, merge and check.  ``capture`` (implied by a
        profiler) collects the shard's objects for the engine and
        endpoint counters; it slows set-up, not the simulation."""
        hook = _Capture(profiler) if capture or profiler is not None else None
        if hook is not None:
            sys.settrace(hook)
        try:
            result = run_fleet(self.spec, shards=self.shards, jobs=1)
        finally:
            if hook is not None:
                sys.settrace(None)
            if profiler is not None:
                profiler.disable()
        metrics = result.metrics
        problems = []
        for summary in result.summaries:
            for row in range(summary.hi - summary.lo):
                arrived = summary.arrived_packets[row]
                passed = summary.forwarded_packets[row] + summary.dropped_packets[row]
                if arrived != passed:
                    problems.append(
                        f"{self.name}: aggregate {summary.lo + row} "
                        f"conservation broken: arrived={arrived} "
                        f"forwarded+dropped={passed}"
                    )
        setup = result.setup_seconds
        run = result.run_seconds
        cell = CellResult(
            name=self.name,
            digest=metrics.digest,
            arrived=metrics.arrived_packets,
            aggregates=metrics.aggregates,
            setup_s=setup,
            run_s=run,
            post_s=result.wall_seconds - setup - run,
            enforce_err=fleet_window_error(result.summaries),
            jain=metrics.mean_intra_aggregate_fairness,
            problems=problems,
        )
        if hook is not None:
            objects = hook.objects
            receivers = [r for d in objects["demuxes"] for r in d._sinks.values()]
            cell.engine = engine_counters(objects["sims"])
            cell.counters = {
                **endpoint_counters(
                    objects["senders"], receivers, objects["limiters"]
                ),
                "updates_applied": metrics.updates_applied,
                "updates_rejected": metrics.updates_rejected,
            }
        return cell


def saturated(seed: int) -> list[AggregateCell]:
    """The Figure 5 grid with seed-drawn flow start offsets."""
    configs = fig5_efficiency.grid(fig5_efficiency.Config(seed=seed))
    rng = RngFactory(seed).stream("perfbench", "saturated-starts")
    starts = [rng.uniform(0.0, SATURATED_START_JITTER) for _ in configs[0].specs]
    cells = []
    for config in configs:
        specs = tuple(replace(s, start=t) for s, t in zip(config.specs, starts))
        cells.append(AggregateCell(config.scheme, replace(config, specs=specs)))
    return cells


def fleet_spec(seed: int) -> FleetSpec:
    """The ``BENCH_fleet`` baseline fleet at ``seed``."""
    return FleetSpec(aggregates=FLEET_AGGREGATES, seed=seed)


def fleet_1k(seed: int) -> list[FleetCell]:
    return [FleetCell("bcpqp", fleet_spec(seed))]


def churn_specs() -> tuple[FlowSpec, ...]:
    """Eight slots: all four CCs, odd slots on/off, RTTs 10-45 ms."""
    ccs = ("reno", "cubic", "bbr", "vegas")
    on_off = OnOffSpec(burst_packets_mean=300.0, off_time_mean=0.3)
    return tuple(
        FlowSpec(
            slot=i,
            cc=ccs[i % 4],
            rtt=ms(10 + 5 * i),
            on_off=on_off if i % 2 else None,
        )
        for i in range(8)
    )


def churn_policy() -> Policy:
    """Three groups (3+3+2 queues): weighted 2:1 at priority 0, the
    third group at priority 1."""
    return Policy.nested(
        [[1.0, 1.0, 1.0], [2.0, 1.0, 1.0], [1.0, 1.0]],
        group_weights=[2.0, 1.0, 1.0],
        group_priorities=[0, 0, 1],
    )


def churn_lossy(seed: int) -> list[AggregateCell]:
    specs = churn_specs()
    plan = draw_plan(
        RngFactory(seed).stream("perfbench", "churn-plan"),
        num_queues=len(specs),
        rate=CHURN_RATE,
        horizon=CHURN_HORIZON,
        actions=int(CHURN_UPDATES_PER_S * CHURN_HORIZON),
        kinds=CHURN_KINDS,
    )
    # A resize's capacity_scale compounds across actions exactly like the
    # excluded ``capacity`` kind (at seed 1 bcpqp's capacity grew until it
    # stopped enforcing), so resizes keep their queue-count change at the
    # current capacity.
    plan = ChurnPlan(tuple(replace(a, capacity_scale=None) for a in plan.actions))
    return [
        AggregateCell(
            scheme,
            AggregateConfig(
                scheme=scheme,
                specs=specs,
                rate=CHURN_RATE,
                max_rtt=max(s.rtt for s in specs),
                horizon=CHURN_HORIZON,
                warmup=2.0,
                seed=seed,
                policy=churn_policy(),
                impair=CHURN_IMPAIR,
                churn=plan,
            ),
        )
        for scheme in CHURN_SCHEMES
    ]


def cells_for(workload: str, seed: int) -> list:
    """The cells of ``workload`` at ``seed``."""
    if workload == "saturated":
        return saturated(seed)
    if workload == "fleet_1k":
        return fleet_1k(seed)
    if workload == "churn_lossy":
        return churn_lossy(seed)
    raise ValueError(f"unknown workload {workload!r}; choose from {WORKLOADS}")
