"""Harvest-cycle state machine: planning, phases, timing, failure paths."""

import math

import numpy as np
import pytest

from laserberry import (Aabb, BerryBox, CutModel, GantryConfig, GantrySim,
                        HarvestConfig, HarvestPhase, cut_time, load_datasets,
                        plan_approach, run_cycle, run_demo)
from laserberry.controller import (CYCLE_ORDER, FAIL_CUT_TIMEOUT, FAIL_PLAN, FAIL_TRAP)
from laserberry.errors import MotionError, ValidationError
from laserberry.scene import FruitBody

DT = 0.001


@pytest.fixture(scope="module")
def model():
    return CutModel(records=load_datasets().fine, toughness=1.0)


def _box(cx, cy, cz, half=0.0144, rank=0):
    lo = np.array([cx - half, cy - half, cz - half])
    hi = np.array([cx + half, cy + half, cz + half])
    return BerryBox(box=Aabb(lo, hi), centroid=np.array([cx, cy, cz]),
                    point_count=600, rank=rank)


def _fruit(uid, cx, cy, cz, stem=2.2):
    return FruitBody(uid=uid, x=cx, y=cy, z=cz, stem_x=cx, stem_y=cy,
                     stem_diameter_mm=stem, toughness=1.0)


# ---------------------------------------------------------------------------
# approach planning

def test_plan_approach_waypoints():
    box = _box(0.10, 0.00, 0.62, half=0.02)
    wps = plan_approach(box, GantryConfig())
    assert wps[0] == pytest.approx((0.10, 0.00, 0.57))    # 30 mm under the floor
    assert wps[1] == pytest.approx((0.10, 0.00, 0.66))    # 20 mm over the ceiling
    assert wps[2] == wps[1]   # retract pose coincides: stem is on the groove line


def test_plan_approach_rejects_unreachable():
    box = _box(0.30, 0.0, 0.60)   # beyond the 0.24 m half-stroke
    with pytest.raises(MotionError, match="out of reach"):
        plan_approach(box, GantryConfig())
    # z too deep also fails
    with pytest.raises(MotionError):
        plan_approach(_box(0.0, 0.0, 0.02), GantryConfig())


# ---------------------------------------------------------------------------
# a single successful cycle

class _LaserLogSim(GantrySim):
    """GantrySim that timestamps laser switching for the tests."""

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        self.laser_log = []

    def set_laser(self, on):
        super().set_laser(on)
        self.laser_log.append((self.time, on))


def _single_cycle(model, fruit_dx=0.0, stem=2.2):
    sim = _LaserLogSim(GantryConfig(max_velocity=0.168))
    cx, cy, cz = 0.05, -0.02, 0.60
    box = _box(cx, cy, cz)
    world = [_fruit(0, cx + fruit_dx, cy, cz, stem=stem)]
    sim.home_lens()
    while not sim.lens.homing_done_at(sim.time):
        sim.step(DT)
    record = run_cycle(sim, world, box, model)
    return sim, world, record


def test_cycle_success_phases_and_timing(model):
    sim, world, record = _single_cycle(model)
    assert record.success
    assert record.failure_reason == ""
    assert record.phases == CYCLE_ORDER
    # cut time within one step of the closed-form prediction
    expected = cut_time(2.2, model, 0.9, 50.0)
    assert abs(record.cut_time_s - expected) <= DT + 1e-9
    # cycle decomposes exactly
    assert record.cycle_time_s == pytest.approx(
        record.motion_time_s + record.cut_time_s, abs=1e-12)
    # the fruit was severed, fell, and the rig is safe again
    fruit = world[0]
    assert not fruit.attached
    assert not sim.laser_on
    assert sim.trapper.angle_deg == sim.trapper.target_deg == sim.trapper.open_angle_deg


def test_laser_switches_off_only_after_fall_event(model):
    sim, _, record = _single_cycle(model)
    (t_on, on), (t_off, off) = sim.laser_log
    assert on and not off
    # beam on for the whole cut plus the free fall to the first beam
    # plane below the fruit (~45 mm drop from ~34 mm start offset)
    fall = t_off - t_on - record.cut_time_s
    assert 0.02 < fall < 0.09
    assert record.success


def test_cycle_captures_within_funnel_reach(model):
    # 15 mm offset: the groove still funnels the stem in
    sim, world, record = _single_cycle(model, fruit_dx=0.015)
    assert record.success
    # snap put the stem exactly on the groove center
    assert world[0].x == pytest.approx(0.05)


def test_cycle_trap_miss_beyond_funnel(model):
    sim, world, record = _single_cycle(model, fruit_dx=0.025)
    assert not record.success
    assert record.failure_reason == FAIL_TRAP
    assert record.cut_time_s == 0.0
    assert record.cycle_time_s == pytest.approx(record.motion_time_s)
    assert world[0].attached          # never cut
    assert not sim.laser_on           # cleanup left the rig safe
    assert sim.trapper.idle and sim.trapper.angle_deg == sim.trapper.open_angle_deg


def test_cut_timeout_leaves_the_stem_uncut_and_the_laser_off(model):
    sim = GantrySim(GantryConfig(max_velocity=0.168))
    box, fruit = _box(0.05, -0.02, 0.60), _fruit(0, 0.05, -0.02, 0.60)
    record = run_cycle(sim, [fruit], box, model, HarvestConfig(cut_timeout_s=0.5))
    assert record.failure_reason == FAIL_CUT_TIMEOUT
    assert fruit.attached and not sim.laser_on
    # the cut stopped at the timeout (a tick past it at most, as the clock's
    # float sum drifts), and the cleanup's dark waits left it there
    assert not sim.etch.severed
    assert 0.5 <= sim.etch.cut_area / sim.etch_rate <= 0.5 + 2 * DT


def test_cycle_plan_failure_is_immediate(model):
    sim = GantrySim()
    box = _box(0.30, 0.0, 0.60)
    world = [_fruit(0, 0.30, 0.0, 0.60)]
    record = run_cycle(sim, world, box, model)
    assert not record.success
    assert record.failure_reason == FAIL_PLAN
    assert record.phases[-1] == HarvestPhase.FAILED
    assert record.cut_time_s == 0.0


def test_cut_scales_with_stem_diameter(model):
    _, _, thin = _single_cycle(model, stem=2.0)
    _, _, thick = _single_cycle(model, stem=2.4)
    assert thin.cut_time_s < thick.cut_time_s
    assert thick.cut_time_s == pytest.approx(
        cut_time(2.4, model, 0.9, 50.0), abs=DT + 1e-9)


# ---------------------------------------------------------------------------
# multi-fruit runs

def test_run_demo_small_world(model):
    sim = GantrySim(GantryConfig(max_velocity=0.168))
    layout = [(-0.06, -0.05, 0.58), (0.04, 0.00, 0.61), (0.10, 0.08, 0.57)]
    boxes = [_box(*c, rank=i) for i, c in enumerate(layout)]
    world = [_fruit(i, *c) for i, c in enumerate(layout)]
    metrics = run_demo(sim, world, boxes, model)
    assert metrics.attempted == 3
    assert metrics.successes == 3
    # one reference homing plus one per cycle
    assert sim.homing_count == 4
    for rec in metrics.records:
        assert rec.cycle_time_s == pytest.approx(
            rec.motion_time_s + rec.cut_time_s, abs=1e-12)
    assert all(f.landed for f in world)


def test_run_demo_skips_unreachable_and_continues(model):
    sim = GantrySim(GantryConfig(max_velocity=0.168))
    layout = [(-0.06, -0.05, 0.58), (0.30, 0.00, 0.61), (0.10, 0.08, 0.57)]
    boxes = [_box(*c, rank=i) for i, c in enumerate(layout)]
    world = [_fruit(i, *c) for i, c in enumerate(layout)]
    metrics = run_demo(sim, world, boxes, model)
    assert metrics.attempted == 3
    assert metrics.successes == 2
    assert metrics.records[1].failure_reason == FAIL_PLAN
    assert metrics.records[0].success and metrics.records[2].success


def test_per_fruit_toughness_scales_cut(model):
    sim = GantrySim(GantryConfig(max_velocity=0.168))
    box = _box(0.05, 0.0, 0.60)
    tough = _fruit(0, 0.05, 0.0, 0.60)
    tough.toughness = 2.0
    metrics = run_demo(sim, [tough], [box], model)
    assert metrics.records[0].cut_time_s == pytest.approx(
        2.0 * cut_time(2.2, model, 0.9, 50.0), abs=DT + 1e-9)


def test_toughness_comes_from_the_body_cut(model):
    # fruit 0 is nearest both boxes, but its stem sits 25 mm off the groove:
    # the first cycle misses it, so the second cuts fruit 1 (toughness 3)
    missed = _fruit(0, 0.0, 0.0, 0.60)
    missed.stem_x += 0.025
    tough = _fruit(1, 0.015, 0.0, 0.60)
    tough.toughness = 3.0
    sim = GantrySim(GantryConfig(max_velocity=0.168))
    boxes = [_box(0.0, 0.0, 0.60), _box(0.0, 0.0, 0.60, rank=1)]
    metrics = run_demo(sim, [missed, tough], boxes, model)
    first, second = metrics.records
    assert first.failure_reason == FAIL_TRAP and missed.attached
    assert second.success and not tough.attached
    assert second.cut_time_s == pytest.approx(
        3.0 * cut_time(2.2, model, 0.9, 50.0), abs=DT)


def test_metrics_csv_shape(model):
    sim = GantrySim(GantryConfig(max_velocity=0.168))
    box = _box(0.05, 0.0, 0.60)
    metrics = run_demo(sim, [_fruit(0, 0.05, 0.0, 0.60)], [box], model)
    text = metrics.to_csv()
    lines = text.splitlines()
    assert lines[0] == "fruit_index,success,motion_time_s,cut_time_s,cycle_time_s,failure_reason"
    assert lines[1].startswith("0,1,")
    assert lines[-2].startswith("# successes=1 attempted=1")
    assert lines[-1].startswith("# mean_motion_time_s=")


def test_harvest_config_validation():
    with pytest.raises(Exception):
        HarvestConfig(dt_s=0.0)


@pytest.mark.parametrize("name", ["dt_s", "cut_timeout_s", "fall_timeout_s"])
@pytest.mark.parametrize("value", [math.nan, math.inf, 0.0, -0.5])
def test_harvest_config_timing_must_be_positive_and_finite(name, value):
    with pytest.raises(ValidationError, match=f"{name} must be positive and finite"):
        HarvestConfig(**{name: value})


@pytest.mark.parametrize("name", ["spot_diameter_mm", "lateral_velocity_mm_s"])
@pytest.mark.parametrize("value", [math.nan, math.inf, 0.0, -0.5])
def test_harvest_config_cut_parameters_must_be_positive_and_finite(name, value):
    with pytest.raises(ValidationError, match=f"{name} must be positive and finite"):
        HarvestConfig(**{name: value})


def test_harvest_config_takes_any_finite_beam_speed():
    # the lens sweeps by its period, so no speed's sweep overflows, however long
    for speed, timeout in ((1e308, 30.0), (1.7976931348623157e308, 1e8), (1e-300, 30.0)):
        config = HarvestConfig(lateral_velocity_mm_s=speed, cut_timeout_s=timeout)
        assert config.lateral_velocity_mm_s == speed
