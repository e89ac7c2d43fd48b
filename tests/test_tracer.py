"""The benchmark's tracer still fits the package it wraps.

``benchmarks/tracing.py`` patches package attributes by name and replays
localization through the public stage functions. A traced demo_11 run
must give the untraced run's metrics bytes and boxes, count one
interrupter check per fall event, and leave every attribute as it was.
"""

import importlib.util
from pathlib import Path

from laserberry import controller, gantry, geometry, laser, pipeline
from laserberry.pipeline import simulate_scenario
from laserberry.scenario import bundled_scenario_path, load_scenario

TRACING = Path(__file__).parents[1] / "benchmarks" / "tracing.py"

#: (owner, attribute) of every wrapper ``tracing.instrument`` installs.
PINNED = [(geometry.KdTree, "pairs_within"), (gantry.GantrySim, "step"),
          (gantry.GantrySim, "command_move"), (controller, "check_interrupters"),
          (controller, "etch_step"), (laser.CutModel, "cp"), (controller, "run_cycle"),
          (pipeline, "load_datasets"), (pipeline, "generate_scene"),
          (pipeline, "localize"), (pipeline, "run_demo")]


def _tracing():
    spec = importlib.util.spec_from_file_location("tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _boxes(result):
    return [(b.rank, b.point_count, b.centroid.tolist(), b.box.min.tolist(),
             b.box.max.tolist()) for b in result.boxes]


def test_traced_demo_run_equals_untraced():
    tracing = _tracing()
    scenario = load_scenario(bundled_scenario_path("demo_11"))
    plain = simulate_scenario(scenario)
    originals = [owner.__dict__[attr] for owner, attr in PINNED]
    tracer = tracing.Tracer()
    with tracing.instrument(tracer):
        assert all(owner.__dict__[attr] is not original
                   for (owner, attr), original in zip(PINNED, originals))
        traced = simulate_scenario(scenario)
    assert [owner.__dict__[attr] for owner, attr in PINNED] == originals
    assert traced.metrics.to_csv().encode() == plain.metrics.to_csv().encode()
    assert _boxes(traced) == _boxes(plain)
    checks = sum(tot.get("gantry.interrupter#calls", 0)
                 for tot in tracer.op_totals().values())
    assert checks == plain.metrics.successes == 11
