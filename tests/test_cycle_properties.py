"""Machine invariants of the harvest cycle over generated worlds.

Each world is a fruit layout drawn from a seed (some fruit beyond the x
stroke, some too low to approach, some stems off their box) plus drawn toughness, timestep, gantry
speed limit, beam speed and timeouts, so every failure path is reachable.
"""

import itertools
import math
from unittest import mock

import numpy as np
from hypothesis import given, settings, strategies as st

from laserberry import (Aabb, BerryBox, CutModel, GantryConfig, GantrySim,
                        HarvestConfig, controller, load_datasets, run_demo)
from laserberry.controller import CYCLE_ORDER, HarvestPhase
from laserberry.scene import FruitBody
from stepping import stepped_wait

REASONS = {"", "plan", "trap-miss", "cut-timeout", "fall-timeout"}
FINE = load_datasets().fine


class _LogSim(GantrySim):
    """GantrySim that logs laser and trapper commands with the trapper's mode."""

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        self.log = []

    def set_laser(self, on):
        super().set_laser(on)
        self.log.append(("laser", on, self.trapper.closed))

    def set_trapper(self, closed):
        self.log.append(("trapper", closed, self.laser_on))
        super().set_trapper(closed)


class _CountedFruit(FruitBody):
    """FruitBody that counts how often it is marked attempted."""

    def __setattr__(self, name, value):
        if name == "attempted" and value:
            self.__dict__["attempts"] = self.__dict__.get("attempts", 0) + 1
        super().__setattr__(name, value)


def _box(cx, cy, cz, half=0.0144):
    return BerryBox(box=Aabb(np.array([cx - half, cy - half, cz - half]),
                             np.array([cx + half, cy + half, cz + half])),
                    centroid=np.array([cx, cy, cz]), point_count=600, rank=0)


@st.composite
def worlds(draw, max_fruit, max_toughness):
    return dict(
        fruit=draw(st.integers(0, max_fruit)),
        seed=draw(st.integers(0, 2**32 - 1)),
        toughness=draw(st.floats(0.1, max_toughness)),
        dt=draw(st.floats(0.0005, 0.002)),
        speed=draw(st.floats(0.05, 0.5)),
        lateral=draw(st.sampled_from([10.0, 50.0, 96.0, 5.0])),   # 5 is below v_l_min
        cut_timeout=draw(st.sampled_from([30.0, 30.0, 3.0])),     # 3 s cuts some
        fall_timeout=draw(st.sampled_from([2.0, 2.0, 0.03])),     # 0.03 s sees some
    )


def _run(world):
    rng = np.random.default_rng(world["seed"])
    n = world["fruit"]
    low = rng.random(n) < 0.2      # approach depth under these leaves the z stroke
    centers = np.column_stack([rng.uniform(-0.30, 0.30, n),     # x stroke is ±0.24
                               rng.uniform(-0.10, 0.10, n),
                               np.where(low, rng.uniform(0.01, 0.04, n),
                                        rng.uniform(0.52, 0.66, n))])
    stem_dx = np.where(rng.random(n) < 0.2, rng.uniform(-0.03, 0.03, n), 0.0)
    bodies = [_CountedFruit(uid=i, x=x + dx, y=y, z=z, stem_x=x + dx, stem_y=y,
                            stem_diameter_mm=float(d),
                            toughness=world["toughness"] * float(k))
              for i, ((x, y, z), dx, d, k) in enumerate(zip(
                  centers.tolist(), stem_dx, rng.uniform(2.0, 2.4, n),
                  rng.uniform(0.5, 1.5, n)))]
    sim = _LogSim(GantryConfig(max_velocity=world["speed"],
                               home_position=(0.0, 0.0, 0.45)))
    config = HarvestConfig(lateral_velocity_mm_s=world["lateral"], dt_s=world["dt"],
                           cut_timeout_s=world["cut_timeout"],
                           fall_timeout_s=world["fall_timeout"])
    metrics = run_demo(sim, bodies, [_box(*c) for c in centers.tolist()],
                       CutModel(FINE), config)
    return metrics.records, sim, bodies


def _state(records, sim, bodies):
    return (records, sim.time, sim.tool_position(), sim.lens.position_mm,
            sim.trapper.angle_deg, sim.laser_on, sim.log,
            [(f.x, f.y, f.z, f.prev_z, f.fall_velocity, f.attached, f.landed)
             for f in bodies], set(sim.interrupters._fired))


@settings(max_examples=15, derandomize=True, deadline=None)
@given(worlds(max_fruit=15, max_toughness=3.0))
def test_cycle_invariants(world):
    records, sim, bodies = _run(world)
    assert len(records) == world["fruit"]
    for r in records:
        # motion is cycle - cut; their float sum can miss the cycle by one
        # rounding (e.g. 4.179999999999607 + 2.6804999999990327 at dt 0.5 ms)
        assert r.motion_time_s == r.cycle_time_s - r.cut_time_s
        assert abs(r.motion_time_s + r.cut_time_s - r.cycle_time_s) \
            <= math.ulp(r.cycle_time_s)
        assert r.failure_reason in REASONS
        assert r.success == (r.failure_reason == "")
        if r.success:
            assert r.phases == CYCLE_ORDER
        else:
            assert r.phases[-1] is HarvestPhase.FAILED
            assert r.phases[:-1] == CYCLE_ORDER[:len(r.phases) - 1]
            assert r.failure_reason != "plan" or r.phases == (
                HarvestPhase.HOMING_LENS, HarvestPhase.FAILED)
    assert all(getattr(f, "attempts", 0) <= 1 for f in bodies)
    severed = sum(r.failure_reason in ("", "fall-timeout") for r in records)
    assert sum(not f.attached for f in bodies) == severed
    # the laser is switched on only into a closed trapper, and the trapper
    # is never opened while the laser is on
    for kind, value, other in sim.log:
        if kind == "laser" and value:
            assert other is True
        if kind == "trapper" and not value:
            assert other is False
    assert not sim.laser_on
    assert _state(*_run(world)) == _state(records, sim, bodies)


@settings(max_examples=10, derandomize=True, deadline=None)
@given(worlds(max_fruit=3, max_toughness=1.0))   # stepping is slow
def test_jumped_run_equals_stepping(world):
    jumped = _state(*_run(world))
    with mock.patch.object(controller._Cycle, "_wait", stepped_wait):
        stepped = _state(*_run(world))
    assert jumped == stepped


# wrong closed-form ends, from the sim time, the end and the timestep
_WRONG_ENDS = {
    "zero": lambda now, end, dt: 0.0,
    "half": lambda now, end, dt: now + (end - now) / 2,
    "double": lambda now, end, dt: now + 2 * (end - now),
    "tick early": lambda now, end, dt: end - dt,
    "tick late": lambda now, end, dt: end + dt,
    "inf": lambda now, end, dt: math.inf,
    "past": lambda now, end, dt: now - dt,
}


@settings(max_examples=10, derandomize=True, deadline=None)
@given(worlds(max_fruit=3, max_toughness=1.0),
       st.lists(st.sampled_from(sorted(_WRONG_ENDS)), min_size=1, max_size=7))
def test_a_wrong_end_only_costs_probes(world, wrong):
    """The check alone picks each landing tick: waits given wrong ends, one
    per wait in turn, still leave the run exactly as stepping does."""
    wait, turn = controller._Cycle._wait, itertools.cycle(wrong)

    def misled(cycle, done, end):
        return wait(cycle, done, _WRONG_ENDS[next(turn)](cycle.sim.time, end, cycle.cfg.dt_s))

    with mock.patch.object(controller._Cycle, "_wait", misled):
        jumped = _state(*_run(world))
    with mock.patch.object(controller._Cycle, "_wait", stepped_wait):
        stepped = _state(*_run(world))
    assert jumped == stepped
