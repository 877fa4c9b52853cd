"""Tests of the benchmark itself.

    PYTHONPATH=src python -m pytest -q perfbench
"""

from __future__ import annotations

import cProfile
import sys
from dataclasses import replace
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
PACKAGE = HERE.parent / "src" / "repro"
sys.path[:0] = [str(HERE.parent / "src"), str(HERE)]

import layers  # noqa: E402
import workloads  # noqa: E402


def test_every_module_has_a_layer():
    """A new module under src/repro must be given a layer in the table."""
    missing = []
    for path in sorted(PACKAGE.rglob("*.py")):
        relpath = path.relative_to(PACKAGE).as_posix()
        if layers.layer_of_relpath(relpath) not in layers.LAYERS:
            missing.append(relpath)
    assert not missing, f"modules with no layer in MODULE_LAYERS: {missing}"


def test_table_names_only_layers():
    assert set(layers.MODULE_LAYERS.values()) <= set(layers.LAYERS)
    # A new root module or package is not covered until it is listed.
    assert layers.layer_of_relpath("newmodule.py") is None
    assert layers.layer_of_relpath("newpkg/mod.py") is None


def _small(cell):
    """The same cell over a shorter run."""
    return workloads.AggregateCell(
        cell.name, replace(cell.config, horizon=2.0, warmup=1.0)
    )


def test_trace_is_faithful_and_adds_up():
    """A profiled run gives the untraced digest and engine counters, and
    its layer self times plus ``unattributed`` sum to the traced total."""
    cell = _small(workloads.saturated(1)[3])
    untraced = cell.run()
    profiler = cProfile.Profile()
    traced = cell.run(profiler=profiler)
    assert traced.digest == untraced.digest
    assert traced.engine == untraced.engine

    entries = profiler.getstats()
    split = layers.split(entries, layers.LayerMap(PACKAGE))
    assert split.total_s > 0
    assert split.accounted_s == pytest.approx(split.total_s, rel=1e-9)
    assert split.self_s[layers.UNATTRIBUTED] < 0.01 * split.total_s
    assert layers.calls_of(entries, "sim/simulator.py", "Simulator.run") == 1
    assert split.calls_in["cc"] > 0 and split.calls_in["core"] > 0

    # Call counts are exact: a second trace repeats them call for call.
    again = cProfile.Profile()
    cell.run(profiler=again)
    repeat = layers.split(again.getstats(), layers.LayerMap(PACKAGE))
    assert repeat.calls_in == split.calls_in
    assert repeat.calls == split.calls


def test_fleet_capture_sees_the_event_loop():
    """The capture hook hands the profiler over as the fleet's
    simulation starts, and changes nothing the fleet computes."""
    spec = replace(workloads.fleet_spec(1), aggregates=20)
    plain = workloads.FleetCell("bcpqp", spec).run()
    profiler = cProfile.Profile()
    traced = workloads.FleetCell("bcpqp", spec).run(profiler=profiler)
    captured = workloads.FleetCell("bcpqp", spec).run(capture=True)
    assert plain.engine is None
    assert traced.digest == plain.digest == captured.digest
    assert traced.engine == captured.engine
    assert layers.calls_of(
        profiler.getstats(), "sim/simulator.py", "Simulator.run"
    ) == 1


def _first_cell_digest(workload: str, seed: int) -> str:
    cell = workloads.cells_for(workload, seed)[0]
    if isinstance(cell, workloads.FleetCell):
        cell = workloads.FleetCell(
            cell.name, replace(cell.spec, aggregates=50)
        )
    else:
        cell = _small(cell)
    return cell.run().digest


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_seed_reaches_the_program(workload):
    """Same seed, same digest; another seed, another digest."""
    first = _first_cell_digest(workload, 7)
    assert _first_cell_digest(workload, 7) == first
    assert _first_cell_digest(workload, 8) != first
