"""The machine stepped one tick at a time: the reference the replay must equal.

``laserberry`` runs every tick through :meth:`GantrySim.replay`, which
builds blocks of ticks as numpy running sums, and lands each wait on the
tick where its check holds or a beam may fire. This module states the same
tick as scalar code, one float operation after another, and a wait that
takes every tick in turn. Patching ``_Cycle._wait`` with :func:`stepped_wait`
gives the oracle the jumped runs are compared with.
"""

from laserberry.controller import HarvestPhase
from laserberry.gantry import GRAVITY, check_interrupters
from laserberry.laser import etch_step


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


def stepped_wait(cycle, done):
    """``_Cycle._wait`` one tick at a time: tick, check the beams, etch a cut."""
    sim, cfg, world = cycle.sim, cycle.cfg, cycle.world
    cutting = cycle.phases[-1:] == [HarvestPhase.CUTTING]
    while not done(sim.time):
        event = tick(sim, world, cfg.dt_s)
        if event is not None and event.fruit_uid == getattr(cycle.target, "uid", None):
            cycle.fall_event = event
        if cutting:
            cycle.etch = etch_step(cycle.etch, cfg.dt_s, sim.laser_on, cycle.model,
                                   cfg.spot_diameter_mm, cfg.lateral_velocity_mm_s)
