"""Axis kinematics, lens, trapper, interrupters, and the stepping sim."""

import math
import re

import numpy as np
import pytest

from laserberry import GantryConfig, GantrySim, MotionProfile, ValidationError
from laserberry.errors import MotionError
from laserberry.gantry import (AxisState, FallEvent, InterrupterBank,
                               LensAxis, LensMode, TrapperState)
from laserberry.scenario import _KEYS
from laserberry.scene import FruitBody
from stepping import (check, check_interrupters, fall_step, sample, slew, step,
                      tick)

DT = 0.001


def _step_until_idle(axis, t, dt=DT, limit=60.0):
    steps = 0
    while not axis.idle:
        t += dt
        axis.advance(t)
        steps += 1
        assert steps * dt < limit
    return t, steps


# ---------------------------------------------------------------------------
# motion profiles

def test_triangular_profile_duration():
    # 0.1 m at a=2 with v_max=0.5: too short to cruise, t = 2*sqrt(d/a)
    prof = MotionProfile.plan(0.0, 0.1, 0.0, 0.5, 2.0)
    assert prof.t_cruise == 0.0
    assert prof.duration == pytest.approx(2.0 * math.sqrt(0.1 / 2.0))
    assert prof.duration == pytest.approx(0.4472, abs=1e-4)


def test_trapezoid_profile_duration():
    # 1 m at v=0.5, a=2: t = d/v + v/a = 2.0 + 0.25
    prof = MotionProfile.plan(0.0, 1.0, 0.0, 0.5, 2.0)
    assert prof.t_cruise > 0.0
    assert prof.duration == pytest.approx(2.25)
    # cruise leg actually runs at v_max
    pos, vel = sample(prof, prof.t_acc + prof.t_cruise / 2.0)
    assert vel == pytest.approx(0.5)


def test_profile_sample_endpoints_and_monotonicity():
    prof = MotionProfile.plan(0.2, -0.3, 1.0, 0.5, 2.0)
    p0, v0 = sample(prof, 1.0)
    assert (p0, v0) == (0.2, 0.0)
    p1, v1 = sample(prof, 1.0 + prof.duration + 5.0)
    assert (p1, v1) == (-0.3, 0.0)
    ts = np.linspace(1.0, 1.0 + prof.duration, 500)
    ps = [sample(prof, t)[0] for t in ts]
    assert all(b <= a + 1e-12 for a, b in zip(ps, ps[1:]))   # descending move


def test_profile_respects_limits_throughout():
    rng = np.random.default_rng(55)
    for _ in range(30):
        start, end = rng.uniform(-0.5, 0.5, size=2)
        v_max = float(rng.uniform(0.05, 1.0))
        a_max = float(rng.uniform(0.5, 5.0))
        prof = MotionProfile.plan(start, end, 0.0, v_max, a_max)
        ts = np.linspace(0.0, prof.duration, 200)
        vs = np.array([sample(prof, t)[1] for t in ts])
        assert np.all(np.abs(vs) <= v_max + 1e-9)
        dv = np.diff(vs) / np.diff(ts)
        assert np.all(np.abs(dv) <= a_max + 1e-6)


def test_stepped_axis_matches_closed_form_fuzz():
    # stepping an axis at 1 ms must finish within one step of the
    # analytic profile duration
    rng = np.random.default_rng(66)
    for trial in range(50):
        start = float(rng.uniform(-0.2, 0.2))
        target = float(rng.uniform(-0.24, 0.24))
        v_max = float(rng.uniform(0.05, 0.6))
        a_max = float(rng.uniform(0.5, 4.0))
        axis = AxisState("x", start, (-0.24, 0.24), v_max, a_max)
        t = 0.0
        axis.command(target, t)
        expected = MotionProfile.plan(start, target, 0.0, v_max, a_max).duration
        t, steps = _step_until_idle(axis, t)
        assert axis.position == target
        assert abs(steps * DT - expected) <= DT + 1e-9, f"trial {trial}"


def test_axis_rejects_targets_outside_travel():
    axis = AxisState("x", 0.0, (-0.24, 0.24), 0.5, 2.0)
    with pytest.raises(MotionError):
        axis.command(0.25, 0.0)
    axis.command(0.24, 0.0)   # the limit itself is reachable


def test_zero_length_move_is_instant():
    axis = AxisState("z", 0.3, (0.0, 0.8), 0.5, 2.0)
    axis.command(0.3, 0.0)
    assert axis.idle


def test_retargeting_mid_move_starts_where_the_axis_is():
    axis = AxisState("x", 0.0, (-0.24, 0.24), 0.5, 2.0)
    axis.command(0.2, 0.0)
    axis.advance(0.1)
    here = axis.position
    assert 0.0 < here < 0.2
    axis.command(-0.1, 0.1)
    assert axis.profile.start == here
    axis.advance(0.15)
    here = axis.position
    axis.command(here, 0.15)        # already there: stops where it is
    assert axis.idle and axis.position == here


# ---------------------------------------------------------------------------
# lens

def test_lens_homing_takes_half_second():
    lens = LensAxis()   # powered up at 5 mm, homing at 10 mm/s
    lens.begin_homing(0.0)
    assert not lens.homing_done_at(0.0)
    t, steps = 0.0, 0
    while not lens.homing_done_at(t):
        t += DT
        lens.advance(t)
        steps += 1
    assert steps == pytest.approx(500, abs=1)
    assert lens.position_mm == 0.0
    assert lens.homed


def test_lens_rehoming_from_switch_is_instant():
    lens = LensAxis(position_mm=0.0)
    lens.begin_homing(3.0)
    assert lens.homed and lens.homing_done_at(3.0)


def test_oscillation_requires_homing():
    lens = LensAxis()
    with pytest.raises(ValidationError):
        lens.begin_oscillation(50.0, 0.0)


def test_oscillation_triangle_wave():
    lens = LensAxis(position_mm=0.0, homed=True)
    lens.begin_oscillation(50.0, 0.0)
    # 50 mm/s over a 4 mm stroke: reaches the far end at 80 ms,
    # returns to home at 160 ms
    lens.advance(0.040)
    assert lens.position_mm == pytest.approx(2.0)
    lens.advance(0.080)
    assert lens.position_mm == pytest.approx(4.0)
    lens.advance(0.120)
    assert lens.position_mm == pytest.approx(2.0)
    lens.advance(0.160)
    assert lens.position_mm == pytest.approx(0.0)
    for t in np.linspace(0, 1.0, 997):
        lens.advance(float(t))
        assert -1e-9 <= lens.position_mm <= 4.0 + 1e-9


# ---------------------------------------------------------------------------
# trapper

def test_trapper_close_takes_200ms():
    trap = TrapperState()
    trap.command(closed=True)
    assert not trap.idle
    steps = 0
    while not trap.idle:
        slew(trap, DT)
        steps += 1
    assert steps == 200   # 30 deg at 150 deg/s
    assert trap.mode.value == "closed"
    trap.command(closed=False)
    steps = 0
    while not trap.idle:
        slew(trap, DT)
        steps += 1
    assert steps == 200
    assert trap.mode.value == "open"


# ---------------------------------------------------------------------------
# interrupters and falling fruit

def _fruit(x=0.0, y=0.0, z=0.5):
    return FruitBody(uid=0, x=x, y=y, z=z, stem_x=x, stem_y=y,
                     stem_diameter_mm=2.2, toughness=1.0)


def test_freefall_beam_crossing_time():
    # fruit released at the groove: first beam 30 mm down, so
    # t = sqrt(2 * 0.030 / 9.81) = 78.2 ms
    fruit = _fruit(z=0.5)
    fruit.attached = False
    bank = InterrupterBank()
    t, event = 0.0, None
    while event is None:
        fall_step(fruit, DT, 9.81)
        t += DT
        event = check(bank, t, (0.0, 0.0, 0.5), [fruit])
        assert t < 1.0
    assert event.beam_index == 0
    expected = math.sqrt(2.0 * 0.030 / 9.81)
    assert abs(event.time - expected) <= 2 * DT


def test_interrupter_fires_once_per_fruit():
    fruit = _fruit(z=0.5)
    fruit.attached = False
    bank = InterrupterBank()
    events = []
    for k in range(400):
        fall_step(fruit, DT, 9.81)
        e = check(bank, k * DT, (0.0, 0.0, 0.5), [fruit])
        if e is not None:
            events.append(e)
    # crosses all three planes but reports only the first
    assert len(events) == 1


def test_interrupter_ignores_lateral_misses_and_attached():
    bank = InterrupterBank()
    offside = _fruit(x=0.02, z=0.5)     # 20 mm off-axis > 12.5 mm halfspan
    offside.attached = False
    hanging = _fruit(z=0.5)             # still attached
    for k in range(400):
        fall_step(offside, DT, 9.81)
        hanging.prev_z = hanging.z      # no motion
        assert check(bank, k * DT, (0.0, 0.0, 0.5), [offside, hanging]) is None


def test_check_interrupters_wrapper():
    sim = GantrySim()
    tx, ty, tz = sim.tool_position()
    fruit = FruitBody(uid=3, x=tx, y=ty, z=tz, stem_x=tx, stem_y=ty,
                      stem_diameter_mm=2.2, toughness=1.0)
    fruit.attached = False
    event = None
    while event is None:
        fall_step(fruit, DT, 9.81)
        sim.step(DT)
        event = check_interrupters(sim, [fruit])
    assert isinstance(event, FallEvent)
    assert event.fruit_uid == 3


def _landing_rig(tool_z):
    """A detached fruit 10 mm above the ground, under a groove at ``tool_z``."""
    sim = GantrySim(GantryConfig(home_position=(0.0, -0.25, tool_z)))
    fruit = FruitBody(uid=0, x=0.0, y=-0.25, z=0.01, stem_x=0.0, stem_y=-0.25,
                      stem_diameter_mm=2.0, toughness=1.0, attached=False)
    return sim, fruit


def _tick(sim, fruit):
    return tick(sim, [fruit], DT)


def test_stepped_beam_sees_a_fruit_landing_but_not_at_rest():
    # the lowest plane lies on the ground, so the fruit crosses it on the
    # tick it lands
    sim, fruit = _landing_rig(0.03)
    event = None
    while not fruit.landed:
        assert event is None
        event = _tick(sim, fruit)
    assert event is not None and event.beam_index == 0
    # a fruit that landed unseen keeps its last few millimetres of fall for
    # one tick; a plane sweeping through them later must not fire
    sim, fruit = _landing_rig(0.30)
    while not fruit.landed:
        assert _tick(sim, fruit) is None
    lo, hi = fruit.z, fruit.prev_z
    sim.command_move(0.0, -0.25, 0.0)
    planes = []
    while not sim.axes_done_at(sim.time):
        assert _tick(sim, fruit) is None
        planes.append(sim.tool_position()[2] - 0.03)
    assert any(lo <= p < hi for p in planes)
    assert fruit.prev_z == fruit.z == lo


def test_replayed_beam_sees_a_fruit_landing_but_not_at_rest():
    sim, fruit = _landing_rig(0.03)
    block = sim.replay(300, DT, [fruit])
    ref, ref_fruit = _landing_rig(0.03)
    ticks = 1
    while _tick(ref, ref_fruit) is None:
        ticks += 1
    assert ref_fruit.landed and block.beam == ticks
    sim, fruit = _landing_rig(0.30)
    while not fruit.landed:
        _tick(sim, fruit)
    ref, ref_fruit = _landing_rig(0.30)
    while not ref_fruit.landed:
        _tick(ref, ref_fruit)
    for s in (sim, ref):
        s.command_move(0.0, -0.25, 0.0)
    block = sim.replay(900, DT, [fruit])
    assert block.beam == 901
    block.land(sim, 900)
    for _ in range(900):
        assert _tick(ref, ref_fruit) is None
    assert ref.axes_done_at(ref.time)
    assert ((sim.time, sim.tool_position(), fruit.z, fruit.prev_z, fruit.landed)
            == (ref.time, ref.tool_position(), ref_fruit.z, ref_fruit.prev_z, True))
    assert fruit.prev_z == fruit.z


# ---------------------------------------------------------------------------
# the integrated sim

def test_sim_move_and_capture():
    sim = GantrySim()
    sim.command_move(0.1, 0.0, 0.5)
    steps = 0
    while not sim.axes_done_at(sim.time):
        sim.step(DT)
        steps += 1
        assert steps < 20_000
    assert sim.tool_position() == pytest.approx((0.1, 0.0, 0.5))
    # capture reach is 20 mm planar
    assert sim.captures(0.115, 0.0)
    assert sim.captures(0.1, -0.0199)
    assert not sim.captures(0.125, 0.0)


def test_sim_laser_interlock():
    sim = GantrySim()
    with pytest.raises(ValidationError):
        sim.set_laser(True)     # trapper open
    sim.set_trapper(closed=True)
    while not sim.trapper.idle:
        sim.step(DT)
    sim.set_laser(True)
    assert sim.laser_on
    sim.set_laser(False)


def test_sim_requires_positive_dt():
    sim = GantrySim()
    with pytest.raises(ValidationError):
        sim.step(0.0)


def test_sim_homing_counter():
    sim = GantrySim()
    assert sim.homing_count == 0
    sim.home_lens()
    while not sim.lens.homing_done_at(sim.time):
        sim.step(DT)
    sim.home_lens()     # already referenced: instant, still counted
    assert sim.lens.homing_done_at(sim.time)
    assert sim.homing_count == 2


def test_sim_determinism():
    def run():
        sim = GantrySim(GantryConfig(max_velocity=0.168))
        trace = []
        sim.command_move(0.12, -0.1, 0.55)
        for _ in range(2000):
            sim.step(DT)
            trace.append(sim.tool_position())
        return trace

    a, b = run(), run()
    assert a == b


@pytest.mark.parametrize("dt", [math.nan, math.inf, 0.0, -0.001])
def test_sim_rejects_bad_timestep_before_moving(dt):
    sim = GantrySim()
    sim.command_move(0.12, -0.1, 0.55)
    sim.set_trapper(closed=True)
    for advance in (sim.step, lambda dt: sim.advance_to(sim.time + dt)):
        with pytest.raises(ValidationError, match="positive and finite"):
            advance(dt)
    assert sim.time == 0.0
    assert sim.tool_position() == GantryConfig().home_position
    assert sim.trapper.angle_deg == sim.trapper.open_angle_deg


@pytest.mark.parametrize("limit", ["max_velocity", "max_accel"])
@pytest.mark.parametrize("value", [math.nan, math.inf, 0.0])
def test_gantry_speed_limits_must_be_positive_and_finite(limit, value):
    with pytest.raises(ValidationError, match="positive and finite"):
        GantryConfig(**{limit: value})


def test_jump_then_advance_to_matches_stepping():
    def run(advance=None):
        sim = GantrySim(GantryConfig(max_velocity=0.168))
        sim.home_lens()
        sim.command_move(0.12, -0.1, 0.55)
        sim.set_trapper(closed=True)
        if advance is None:     # replay the clock and the trapper, then commit once
            now = sim.time
            for _ in range(700):
                now += DT
                slew(sim.trapper, DT)
            sim.advance_to(now)
        else:
            for _ in range(700):
                advance(sim, DT)
        return (sim.time, sim.tool_position(), sim.lens.position_mm,
                sim.lens.mode, sim.trapper.angle_deg, sim.axes_done_at(sim.time))

    assert run() == run(step) == run(GantrySim.step)


def test_position_at_matches_sample_fuzz():
    """The array form and an axis advanced tick by tick read the scalar
    reference's positions, float for float, during a move and after it."""
    rng = np.random.default_rng(31)
    for _ in range(200):
        start, end = rng.uniform(-0.3, 0.3, 2).tolist()
        t0 = float(rng.uniform(0.0, 50.0))
        v_max, a_max = float(rng.uniform(0.05, 0.5)), float(rng.uniform(0.5, 20.0))
        profile = MotionProfile.plan(start, end, t0, v_max, a_max)
        t = t0 + np.concatenate([rng.uniform(-0.1, profile.duration + 0.1, 50),
                                 [0.0, profile.t_acc, profile.t_acc + profile.t_cruise,
                                  profile.duration]])
        assert profile.position_at(t).tolist() == [sample(profile, x)[0] for x in t.tolist()]
        axis = AxisState("x", start, (-0.3, 0.3), v_max, a_max)
        axis.command(end, t0)
        assert axis.profile == profile
        for x in sorted(t.tolist()) + [t0 + profile.duration + 1.0]:
            axis.advance(x)
            assert axis.position == sample(profile, x)[0]
        assert axis.idle and axis.position == end


@pytest.mark.parametrize("move_z,heights,n", [
    (0.40, (0.36, 0.05, 0.30), 600),    # the rising tool's beam meets fruit 0
    (0.05, (0.05,), 1800),              # the falling beam sweeps past a landed fruit
])
def test_replay_matches_stepping(move_z, heights, n):
    """Clock, trapper, tool, fall and the first beam tick equal stepping's."""
    def setup():
        sim = GantrySim(GantryConfig(max_velocity=0.168))
        sim.command_move(0.0, -0.25, move_z)
        sim.set_trapper(closed=True)
        fruits = [FruitBody(uid=i, x=0.0, y=-0.25 + 0.01 * i, z=z, stem_x=0.0,
                            stem_y=-0.25, stem_diameter_mm=2.0, toughness=1.0,
                            attached=i == 2)
                  for i, z in enumerate(heights)]
        return sim, fruits

    def state(sim, fruits):
        return (sim.time, sim.tool_position(), sim.trapper.angle_deg,
                [(f.z, f.prev_z, f.fall_velocity, f.landed) for f in fruits])

    sim, fruits = setup()
    block = sim.replay(n, DT, fruits)
    stepped, beam, first = [state(sim, fruits)], None, None
    ref, ref_fruits = setup()
    for k in range(1, n + 1):
        event = tick(ref, ref_fruits, DT)
        if event is not None and beam is None:
            beam, first = k, event
        stepped.append(state(ref, ref_fruits))
    low = heights.index(0.05)                   # lands unseen inside the block
    landing = next(k for k, s in enumerate(stepped) if s[3][low][3])
    assert not fruits[low].landed
    assert (beam is None) == (len(heights) == 1)    # a fruit at rest is never seen
    assert block.beam == (beam or n + 1)
    seen = block.seen and (block.seen[0].uid, block.seen[1])
    assert seen == (first and (first.fruit_uid, first.beam_index))
    for k in (0, 1, 57, 198, 199, 200, 201, landing - 1, landing, landing + 1,
              (beam or n) - 1, n):
        sim, fruits = setup()
        sim.replay(n, DT, fruits).land(sim, k)
        assert state(sim, fruits) == stepped[k]


@pytest.mark.parametrize("value", [math.nan, math.inf, 0.0, -5.0])
def test_lens_oscillation_speed_must_be_positive_and_finite(value):
    lens = LensAxis(position_mm=0.0)
    lens.begin_homing(0.0)
    with pytest.raises(ValidationError, match="lateral_velocity_mm_s must be positive"):
        lens.begin_oscillation(value, 0.0)
    assert lens.mode is LensMode.IDLE


#: The field item each ``[gantry]`` key sets (``x_min`` is ``x_limits[0]``).
#: Built in code, a config names the item; the loader names the key.
_ITEM = {key: label for key, (label, _) in _KEYS["gantry"]["gantry"][1].items()}


@pytest.mark.parametrize("field,value,key", [
    ("x_limits", (math.nan, 0.24), "x_min"), ("z_limits", (0.0, math.inf), "z_max"),
    ("home_position", (math.nan, -0.25, 0.30), "home_x"),
    ("home_position", (0.0, -0.25, -math.inf), "home_z")])
def test_gantry_config_rejects_non_finite_geometry(field, value, key):
    with pytest.raises(ValidationError, match=rf"^{re.escape(_ITEM[key])} must be finite"):
        GantryConfig(**{field: value})


@pytest.mark.parametrize("home,key", [((-0.25, -0.25, 0.30), "home_x"),
                                      ((0.0, 100.0, 0.30), "home_y"),
                                      ((0.0, -0.25, -0.01), "home_z")])
def test_gantry_config_rejects_a_home_pose_outside_the_travel(home, key):
    lo, hi = _ITEM[f"{key[-1]}_min"], _ITEM[f"{key[-1]}_max"]
    within = f"{_ITEM[key]} must lie within [{lo}, {hi}] = "
    with pytest.raises(ValidationError, match="^" + re.escape(within)):
        GantryConfig(home_position=home)


@pytest.mark.parametrize("limits", [(0.1, 0.1), (0.1, -0.1)])
def test_gantry_config_rejects_a_travel_pair_that_does_not_increase(limits):
    with pytest.raises(ValidationError, match=re.escape(
            f"y_limits[1] must be above y_limits[0] = 0.1, got {limits[1]:g}")):
        GantryConfig(y_limits=limits, home_position=(0.0, 0.1, 0.3))
