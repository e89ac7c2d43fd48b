"""The machine stepped one tick at a time: the reference the replay must equal.

``laserberry`` states each machine rule once, as arrays, in ``gantry``: axes
through :meth:`MotionProfile.position_at`, beams through
:meth:`InterrupterBank.crossings`, and every tick (clock, trapper, cut and
fall) through :meth:`GantrySim.replay`, which builds blocks of ticks as
numpy running sums and reports the fruit and beam of the first beam tick;
one :meth:`GantrySim.jump` call runs each wait and fires its beam ticks.
This module states the same rules as scalar code, one float operation after
another: the profile's position and velocity at one time, the beam check
over the world in order, and a wait that takes every tick in turn. The
wait etches the cut while the cycle is in its cutting phase, so the jumped
runs, whose machine etches while the laser is on, are checked against the
cycle's phases too. Patching ``_Cycle._wait`` with :func:`stepped_wait`
gives the oracle the jumped runs are compared with; a run's start-up
homing, a plain ``jump`` in ``run_demo`` that watches no fruit, is stepped
by patching ``GantrySim.jump`` with :func:`stepped_jump` as well.
"""

from laserberry.controller import HarvestPhase
from laserberry.gantry import GRAVITY, FallEvent
from laserberry.laser import etch_step


def sample(profile, t):
    """(position, velocity) of a ``MotionProfile`` at absolute sim time ``t``."""
    tau = t - profile.t0
    if tau <= 0.0:
        return profile.start, 0.0
    t_acc, t_cruise = profile.t_acc, profile.t_cruise
    if tau >= profile.duration:
        return profile.end, 0.0
    a = profile.accel if profile.v_peak >= 0 else -profile.accel
    if tau < t_acc:
        return profile.start + 0.5 * a * tau * tau, a * tau
    d_acc = 0.5 * a * t_acc * t_acc
    if tau < t_acc + t_cruise:
        return profile.start + d_acc + profile.v_peak * (tau - t_acc), profile.v_peak
    td = tau - t_acc - t_cruise   # time into deceleration leg
    return (profile.start + d_acc + profile.v_peak * t_cruise
            + profile.v_peak * td - 0.5 * a * td * td,
            profile.v_peak - a * td)


def check(bank, now, tool_xyz, fruits):
    """The ``InterrupterBank`` on one tick: the first detached, unseen fruit
    in order whose center crossed a plane inside the window, at the lowest
    such beam, marked fired; ``None`` if none."""
    tx, ty, tz = tool_xyz
    for fruit in fruits:
        if fruit.attached or fruit.uid in bank._fired:
            continue
        x, y, z_now = fruit.center
        z_prev = fruit.prev_z
        if abs(x - tx) > bank.halfspan_m or abs(y - ty) > bank.halfspan_m:
            continue
        for i, off in enumerate(bank.offsets_m):
            plane = tz - off
            if z_prev > plane >= z_now:
                bank._fired.add(fruit.uid)
                return FallEvent(now, fruit.uid, i)
    return None


def check_interrupters(sim, fruits):
    """:func:`check` on the sim's beams at its clock and tool position."""
    return check(sim.interrupters, sim.time, sim.tool_position(), fruits)


def slew(trapper, dt):
    """One tick of the trapper: a slew step toward its target, onto it once
    within a step."""
    delta = trapper.target_deg - trapper.angle_deg
    step = trapper.rate_deg_s * dt
    if abs(delta) <= step:
        trapper.angle_deg = trapper.target_deg
    else:
        trapper.angle_deg += step if delta > 0 else -step


def fall_step(fruit, dt, gravity=GRAVITY):
    """One tick of the fall. A landed fruit rests: its heights become equal,
    so no beam plane sweeping past later sees it cross."""
    fruit.prev_z = fruit.z
    if fruit.landed:
        return
    fruit.fall_velocity += gravity * dt
    fruit.z -= fruit.fall_velocity * dt
    if fruit.z <= 0.0:
        fruit.landed = True


def step(sim, dt):
    """One tick of the clock, the axes, the lens and the trapper."""
    sim.advance_to(sim.time + dt)
    slew(sim.trapper, dt)


def tick(sim, world, dt):
    """One tick of the machine and the detached fruit, then the beam check."""
    step(sim, dt)
    for fruit in world:
        if not fruit.attached:
            fall_step(fruit, dt)
    return check_interrupters(sim, world)


def stepped_wait(cycle, done, end):
    """``_Cycle._wait`` one tick at a time: tick, check the beams, etch a cut.
    The closed-form ``end`` only sizes the jumped wait's blocks; stepping
    ignores it."""
    sim, cfg, world = cycle.sim, cycle.cfg, cycle.world
    cutting = cycle.phases[-1:] == [HarvestPhase.CUTTING]
    while not done(sim.time):
        event = tick(sim, world, cfg.dt_s)
        if event is not None and event.fruit_uid == getattr(cycle.target, "uid", None):
            cycle.fall_event = event
        if cutting:
            sim.etch = etch_step(sim.etch, cfg.dt_s, sim.laser_on, cycle.model,
                                 cfg.spot_diameter_mm, cfg.lateral_velocity_mm_s)


def stepped_jump(sim, dt, done, end, fruits, beam):
    """``GantrySim.jump`` one tick at a time, for a wait that watches no fruit."""
    assert not fruits
    while not done(sim.time):
        step(sim, dt)
