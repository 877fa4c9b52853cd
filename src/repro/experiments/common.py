"""Shared plumbing for the per-figure experiments.

Figure grids are expressed as lists of picklable
:class:`~repro.runner.AggregateConfig` cells and submitted through
:func:`run_aggregates`, which fans out over the process-pool sweep runner
(``jobs > 1``) or falls back to bit-for-bit serial execution.  The
original in-process :func:`run_aggregate` entry point is kept for tests,
examples and one-off cells that want the live limiter/scenario objects.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from pathlib import Path
from typing import Callable, Sequence, TypeVar

from repro.limiters.base import RateLimiter
from repro.policy.tree import Policy
from repro.runner import (
    MEASUREMENT_WINDOW,
    AggregateConfig,
    AggregateOutcome,
    ResultCache,
    SweepJournal,
    run_tasks,
    simulate_aggregate,
)
from repro.runner.aggregate import build_scenario, measure
from repro.runner.journal import grid_hash
from repro.runner.pool import _task_name
from repro.scenario import AggregateScenario, BottleneckSpec
from repro.sim.simulator import Simulator
from repro.units import to_mbps
from repro.workload.spec import FlowSpec

C = TypeVar("C")
R = TypeVar("R")

__all__ = [
    "MEASUREMENT_WINDOW",
    "AggregateConfig",
    "AggregateOutcome",
    "AggregateResult",
    "ExecutionOptions",
    "ResultCache",
    "fmt_mbps",
    "print_table",
    "run_aggregate",
    "run_aggregates",
    "run_cells",
    "set_execution",
    "set_validate",
]

#: Session-wide validation toggle (the experiments CLI's ``--validate``).
#: When True every config submitted through :func:`run_aggregates` runs
#: with the invariant checker attached.
_FORCE_VALIDATE = False


def set_validate(enabled: bool) -> None:
    """Force invariant checking on (or off) for subsequent sweeps."""
    global _FORCE_VALIDATE
    _FORCE_VALIDATE = bool(enabled)


@dataclass(frozen=True)
class ExecutionOptions:
    """Session-wide fault-tolerance knobs (the CLI's ``--retries``,
    ``--task-timeout``, ``--resume``, ``--fail-fast``).

    With everything at its default the sweeps run through the plain
    pool, byte-identical to the pre-supervisor implementation; setting
    any knob routes every figure's cell sweep through the supervised
    pool (:mod:`repro.runner.supervisor`).
    """

    retries: int | None = None
    task_timeout: float | None = None
    fail_fast: bool = False
    #: Directory holding one write-ahead journal per sweep grid
    #: (``--resume DIR``); interrupted sweeps replay completed cells.
    journal_root: Path | None = None

    @property
    def supervised(self) -> bool:
        return (
            self.retries is not None
            or self.task_timeout is not None
            or self.fail_fast
            or self.journal_root is not None
        )


_EXECUTION = ExecutionOptions()


def set_execution(
    *,
    retries: int | None = None,
    task_timeout: float | None = None,
    fail_fast: bool = False,
    journal_root: str | Path | None = None,
) -> None:
    """Configure fault-tolerant execution for subsequent sweeps."""
    global _EXECUTION
    _EXECUTION = ExecutionOptions(
        retries=retries,
        task_timeout=task_timeout,
        fail_fast=fail_fast,
        journal_root=Path(journal_root) if journal_root else None,
    )


def run_cells(
    fn: Callable[[C], R],
    cells: Sequence[C],
    *,
    jobs: int | None = None,
    cache: ResultCache | None = None,
    fingerprint: str | Callable[[C], str] | None = None,
) -> list[R]:
    """Run any figure's cell sweep under the session execution options.

    The figure modules route every grid through here so the CLI's
    fault-tolerance knobs apply uniformly.  When a journal root is set,
    each distinct grid gets its own journal file (named by the grid
    hash), so ``--resume`` never mixes results across figures or
    configurations.
    """
    options = _EXECUTION
    if not options.supervised:
        return run_tasks(fn, cells, jobs=jobs, cache=cache,
                         fingerprint=fingerprint)
    journal = None
    if options.journal_root is not None:
        digest = grid_hash(_task_name(fn), [repr(cell) for cell in cells])
        journal = SweepJournal(
            options.journal_root / f"sweep-{digest[:16]}.jsonl"
        )
    return run_tasks(
        fn,
        cells,
        jobs=jobs,
        cache=cache,
        fingerprint=fingerprint,
        retries=options.retries if options.retries is not None else 2,
        task_timeout=options.task_timeout,
        journal=journal,
        fail_fast=options.fail_fast,
    )


@dataclass
class AggregateResult(AggregateOutcome):
    """An :class:`~repro.runner.AggregateOutcome` that also exposes the live
    limiter and scenario (serial in-process runs only)."""

    limiter: RateLimiter = field(default=None, repr=False)  # type: ignore[assignment]
    scenario: AggregateScenario = field(default=None, repr=False)  # type: ignore[assignment]


def run_aggregate(
    scheme: str,
    specs: Sequence[FlowSpec],
    *,
    rate: float,
    max_rtt: float,
    horizon: float,
    warmup: float,
    seed: int = 1,
    bottleneck: BottleneckSpec | None = None,
    weights: list[float] | None = None,
    policy: Policy | None = None,
    queue_bytes: float | None = None,
    batch: int | None = None,
) -> AggregateResult:
    """Simulate one aggregate under ``scheme`` and measure it (in-process)."""
    config = AggregateConfig(
        scheme=scheme,
        specs=tuple(specs),
        rate=rate,
        max_rtt=max_rtt,
        horizon=horizon,
        warmup=warmup,
        seed=seed,
        bottleneck=bottleneck,
        weights=tuple(weights) if weights else None,
        policy=policy,
        queue_bytes=queue_bytes,
        batch=batch,
    )
    sim = Simulator(batch_limit=config.batch)
    limiter, scenario = build_scenario(config, sim)
    scenario.run()
    outcome = measure(config, limiter, scenario)
    return AggregateResult(
        **outcome.__dict__, limiter=limiter, scenario=scenario
    )


def run_aggregates(
    configs: Sequence[AggregateConfig],
    *,
    jobs: int | None = None,
    cache: ResultCache | None = None,
    validate: bool | None = None,
) -> list[AggregateOutcome]:
    """Run a grid of aggregate configs through the sweep runner.

    Results come back in input order.  ``jobs=None``/``1`` executes
    serially in-process and matches parallel output bit for bit; a cache
    keyed per-scheme skips cells whose config and scheme code are
    unchanged since a previous run.

    ``validate`` attaches the invariant checker to every cell
    (``None`` defers to the session toggle, :func:`set_validate`).
    Validated configs carry their own cache keys and a fingerprint that
    covers the checker sources, so flipping validation on never poisons
    cached unvalidated results.
    """
    if validate is None:
        validate = _FORCE_VALIDATE
    if validate:
        configs = [
            c if c.validate else replace(c, validate=True) for c in configs
        ]
    return run_cells(
        simulate_aggregate,
        configs,
        jobs=jobs,
        cache=cache,
        fingerprint=AggregateConfig.code_fingerprint,
    )


def fmt_mbps(rate_bytes: float) -> str:
    """Format a bytes/s rate as Mbit/s."""
    return f"{to_mbps(rate_bytes):6.2f}"


def print_table(headers: Sequence[str], rows: Sequence[Sequence[object]]) -> None:
    """Print a plain aligned table (the harness's figure output format)."""
    widths = [
        max(len(str(h)), *(len(str(r[i])) for r in rows)) if rows else len(str(h))
        for i, h in enumerate(headers)
    ]
    line = "  ".join(str(h).ljust(w) for h, w in zip(headers, widths))
    print(line)
    print("-" * len(line))
    for row in rows:
        print("  ".join(str(c).ljust(w) for c, w in zip(row, widths)))
