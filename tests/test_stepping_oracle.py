"""Jumping to each phase boundary reproduces 1 ms stepping bit for bit.

The controller jumps to the tick where each phase's check first holds, or
where a beam may see a fruit. Patching ``_Cycle._wait`` with the scalar
reference in ``stepping.py`` steps every tick instead, which serves as the
oracle: both runs must leave every record, the sim clock, the tool, the
lens, the fruit and the beams in exactly the same state.
"""

import dataclasses
import tracemalloc

import numpy as np
import pytest

from laserberry import (Aabb, BerryBox, CutModel, GantryConfig, GantrySim,
                        HarvestConfig, controller, load_datasets, run_demo)
from laserberry.controller import HarvestPhase, _Cycle
from laserberry.gantry import _FIRST_BLOCK, _MAX_BLOCK, TickBlock
from laserberry.pipeline import simulate_scenario
from laserberry.scenario import bundled_scenario_path, load_scenario
from laserberry.scene import FruitBody
from stepping import stepped_jump, stepped_wait

LAYOUT = [(-0.02, -0.03, 0.58), (0.03, 0.00, 0.61), (0.00, 0.03, 0.57),
          (0.05, 0.05, 0.60)]


@dataclasses.dataclass(frozen=True)
class World:
    speed: float = 0.3
    toughness: float = 1.0
    lateral: float = 50.0
    dt: float = 0.001
    fruit: int = 3
    cut_timeout: float = 30.0
    fall_timeout: float = 2.0
    stem_offsets: tuple = ()        # (fruit, dx) pairs: fruit off its box
    unreachable: bool = False       # last box beyond the x stroke
    low: bool = False               # last box so low its approach leaves the z stroke
    lift: float = 0.0               # raises fruit, home and z stroke, m
    gantry: tuple = ()              # (key, value) GantryConfig overrides
    parts: tuple = ()               # (part, key, value) set on the sim's lens, trapper, beams


FAST = (("max_accel", 20.0),)
FAST_PARTS = (("lens", "homing_speed_mm_s", 100.0), ("trapper", "rate_deg_s", 1500.0))

WORLDS = [
    World(speed=0.05, toughness=0.5),
    World(speed=0.50, toughness=3.0, lateral=90.0, fruit=4),
    World(speed=0.168, toughness=0.5, lateral=10.0, dt=0.002),
    World(speed=0.30, lateral=5.0, cut_timeout=0.3),                  # cut-timeout
    World(speed=0.25, toughness=0.5, fall_timeout=0.02),              # fall-timeout
    World(speed=0.40, toughness=0.5, stem_offsets=((1, 0.021),), dt=0.0007),
    World(speed=0.12, toughness=0.5, stem_offsets=((0, -0.021),), dt=0.002),
    World(speed=0.50, toughness=2.0, dt=0.0007),
    World(speed=0.20, toughness=0.5, unreachable=True),               # plan failure
    World(speed=0.35, toughness=1.5, lateral=30.0, dt=0.002, fruit=4,
          stem_offsets=((2, 0.021),)),
    World(speed=0.08, toughness=0.5, lateral=70.0, dt=0.0007),
    World(speed=0.45, lateral=5.0, cut_timeout=0.05, dt=0.002, fruit=4),
    # fruit 0 and 2 land below a beam set under the ground, unseen, and two
    # successful cycles follow with them on the floor
    World(fruit=4, parts=(("interrupters", "offsets_m", (0.62,)),)),
    # falls from ~4.6 m outlast the next fast cycle: two fruit in the air
    World(speed=0.5, toughness=0.1, fall_timeout=0.02, lift=4.0, gantry=FAST,
          parts=FAST_PARTS),
    # a near-instant lens homing starts the next move before the fruit
    # reaches a beam: an unseen fruit falls while the tool moves
    World(speed=0.5, toughness=0.1, fall_timeout=0.01,
          gantry=FAST, parts=FAST_PARTS + (("lens", "homing_speed_mm_s", 1000.0),)),
    # the cycle before a low fruit descends to the floor of the z stroke,
    # and the low fruit fails its own plan
    World(speed=0.3, toughness=0.5, low=True),
]


def _box(cx, cy, cz, half=0.0144):
    return BerryBox(box=Aabb(np.array([cx - half, cy - half, cz - half]),
                             np.array([cx + half, cy + half, cz + half])),
                    centroid=np.array([cx, cy, cz]), point_count=600, rank=0)


def _run(world: World):
    centers = [(x, y, z + world.lift) for x, y, z in LAYOUT[:world.fruit]]
    if world.unreachable:
        centers = centers[:-1] + [(0.30, 0.0, 0.60)]
    if world.low:
        centers = centers[:-1] + [(0.05, 0.05, 0.035)]
    offsets = dict(world.stem_offsets)
    bodies = [FruitBody(uid=i, x=x + offsets.get(i, 0.0), y=y, z=z,
                        stem_x=x + offsets.get(i, 0.0), stem_y=y,
                        stem_diameter_mm=2.0 + 0.1 * i, toughness=world.toughness)
              for i, (x, y, z) in enumerate(centers)]
    sim = GantrySim(GantryConfig(max_velocity=world.speed,
                                 home_position=(0.0, 0.0, 0.50 + world.lift),
                                 z_limits=(0.0, 0.80 + world.lift), **dict(world.gantry)))
    for part, key, value in world.parts:
        setattr(getattr(sim, part), key, value)
    config = HarvestConfig(lateral_velocity_mm_s=world.lateral, dt_s=world.dt,
                           cut_timeout_s=world.cut_timeout,
                           fall_timeout_s=world.fall_timeout)
    metrics = run_demo(sim, bodies, [_box(*c) for c in centers],
                       CutModel(load_datasets().fine), config)
    return (metrics.records, sim.time, sim.tool_position(), sim.lens.position_mm,
            sim.trapper.angle_deg,
            [(f.z, f.prev_z, f.fall_velocity, f.landed) for f in bodies],
            set(sim.interrupters._fired))


@pytest.mark.parametrize("world", WORLDS)
def test_jumped_cycle_matches_stepping(world, monkeypatch):
    jumped = _run(world)
    monkeypatch.setattr(_Cycle, "_wait", stepped_wait)
    stepped = _run(world)
    assert jumped == stepped


@pytest.mark.parametrize("world", WORLDS)
def test_jumped_run_matches_stepping_from_the_start_up_homing(world, monkeypatch):
    """``run_demo`` homes the lens with a plain ``jump`` outside any cycle;
    stepping that wait too leaves the same state."""
    jumped = _run(world)
    monkeypatch.setattr(_Cycle, "_wait", stepped_wait)
    monkeypatch.setattr(GantrySim, "jump", stepped_jump)
    assert jumped == _run(world)


def test_worlds_cover_every_outcome():
    reasons = {r.failure_reason for w in WORLDS for r in _run(w)[0]}
    assert reasons == {"", "plan", "trap-miss", "cut-timeout", "fall-timeout"}


def test_demo_run_steps_only_near_events(monkeypatch):
    calls = {"step": 0, "replay": 0, "ticks": 0, "at": 0, "cp": 0}
    events, check_interrupters, replay = [], controller.check_interrupters, GantrySim.replay

    def counted(name, fn):
        def wrapper(*args, **kwargs):
            calls[name] += 1
            return fn(*args, **kwargs)
        return wrapper

    def check(*args):
        events.append(check_interrupters(*args))
        return events[-1]

    def replayed(sim, n, dt, fruits=()):
        calls["ticks"] += n
        return replay(sim, n, dt, fruits)

    monkeypatch.setattr(GantrySim, "step", counted("step", GantrySim.step))
    monkeypatch.setattr(GantrySim, "replay", counted("replay", replayed))
    monkeypatch.setattr(TickBlock, "at", counted("at", TickBlock.at))
    monkeypatch.setattr(CutModel, "cp", counted("cp", CutModel.cp))
    monkeypatch.setattr(controller, "check_interrupters", check)
    result = simulate_scenario(load_scenario(bundled_scenario_path("demo_11")))
    assert result.metrics.attempted == 11
    assert calls["step"] == 0
    # each wait replays one block sized to its closed-form end and checks
    # its last two ticks, the last after landing; the run lands 61,706 ticks
    # in 99 replays, 62,052 ticks replayed and 148 probes
    assert calls["replay"] <= 105
    assert calls["ticks"] <= 66_000
    assert calls["at"] <= 300
    # one check per fall event, each on the tick its beam fires
    assert len(events) == result.metrics.successes == 11
    assert None not in events
    assert calls["cp"] <= 2 * result.metrics.attempted


def test_one_jump_runs_each_wait(monkeypatch):
    """Every wait of a run is one ``GantrySim.jump`` call: a wait whose check
    already holds (each RETRACT onto the pose the rise ended at) and the
    start-up homing, which ``run_demo`` runs outside any cycle, included."""
    calls, held = {"jump": 0, "_wait": 0}, []
    jump, wait = GantrySim.jump, _Cycle._wait

    def jumped(sim, dt, done, end, *args):
        calls["jump"] += 1
        held.append(done(sim.time))
        return jump(sim, dt, done, end, *args)

    def waited(*args):
        calls["_wait"] += 1
        return wait(*args)

    monkeypatch.setattr(GantrySim, "jump", jumped)
    monkeypatch.setattr(_Cycle, "_wait", waited)
    result = simulate_scenario(load_scenario(bundled_scenario_path("demo_11")))
    # ten waits per harvested fruit, and the start-up homing
    assert result.metrics.successes == result.metrics.attempted == 11
    assert calls["jump"] == calls["_wait"] + 1 == 111
    assert sum(held) == 12


@pytest.mark.parametrize("heights,dt,until,beam", [
    pytest.param((0.55, 0.55), 0.001, 0.5, 2, id="same-plane"),
    # fruit 0 crosses beam 1 on the tick fruit 1 crosses beam 0 (tick 49);
    # the wait ends before fruit 1 reaches beam 1 (tick 74)
    pytest.param((0.567, 0.582), 0.001, 0.06, 1, id="world-order"),
    # one 0.2 s tick takes the fruit past all three planes
    pytest.param((0.58,), 0.2, 0.5, 0, id="three-planes"),
])
def test_two_fruits_crossing_on_one_tick(heights, dt, until, beam, monkeypatch):
    """A beam reports one fruit per tick, the first in world order, at its
    lowest crossed beam; the other passes its plane unseen."""
    def run():
        bodies = [FruitBody(uid=i, x=0.005 * i, y=0.0, z=z, stem_x=0.005 * i,
                            stem_y=0.0, stem_diameter_mm=2.0, toughness=1.0,
                            attached=False) for i, z in enumerate(heights)]
        sim = GantrySim(GantryConfig(home_position=(0.0, 0.0, 0.60)))
        cycle = _Cycle(sim, bodies, _box(0.0, 0.0, 0.55), CutModel(load_datasets().fine),
                       HarvestConfig(dt_s=dt), None)
        cycle.target = bodies[0]
        cycle.phases.append(HarvestPhase.AWAIT_FALL)
        cycle._wait(lambda now: now >= until, until)
        return (sim.time, [(f.z, f.prev_z, f.fall_velocity, f.landed) for f in bodies],
                sim.interrupters._fired, cycle.fall_event)

    jumped = run()
    monkeypatch.setattr(_Cycle, "_wait", stepped_wait)
    assert jumped == run()
    assert jumped[2] == {0}
    assert (jumped[3].fruit_uid, jumped[3].beam_index) == (0, beam)


def test_a_beam_tick_starts_the_blocks_again(monkeypatch):
    """Past ``end``, blocks grow ×4 from ``_FIRST_BLOCK``; each beam tick on
    the way starts them again, so two falls cost two small blocks more."""
    blocks, events = [], []
    replay, check = GantrySim.replay, controller.check_interrupters

    def counted(sim, n, dt, fruits=()):
        blocks.append(n)
        return replay(sim, n, dt, fruits)

    monkeypatch.setattr(GantrySim, "replay", counted)
    monkeypatch.setattr(controller, "check_interrupters",
                        lambda *args: events.append(args[1][0].uid) or check(*args))
    bodies = [FruitBody(uid=i, x=0.005 * i, y=0.0, z=z, stem_x=0.005 * i, stem_y=0.0,
                        stem_diameter_mm=2.0, toughness=1.0, attached=False)
              for i, z in enumerate((0.58, 0.65))]
    sim = GantrySim(GantryConfig(home_position=(0.0, 0.0, 0.60)))
    cycle = _Cycle(sim, bodies, _box(0.0, 0.0, 0.55), CutModel(load_datasets().fine),
                   HarvestConfig(), None)
    cycle._wait(lambda now: now >= 0.5, 0.0)            # due at 0.5 s; end says now
    assert events == [0, 1]                             # at ticks 45 and 128
    assert blocks == [_FIRST_BLOCK] * 3 + [4 * _FIRST_BLOCK]
    assert sim.time == pytest.approx(0.5)


def test_long_wait_replays_in_small_blocks(monkeypatch):
    """10^7 ticks of a cut that never severs take few blocks and flat memory."""
    blocks, checks = [], []
    replay, check = GantrySim.replay, controller.check_interrupters

    def counted(sim, n, dt, fruits=()):
        blocks.append(n)
        return replay(sim, n, dt, fruits)

    monkeypatch.setattr(GantrySim, "replay", counted)
    monkeypatch.setattr(controller, "check_interrupters",
                        lambda *args: checks.append(args) or check(*args))
    fruit = FruitBody(uid=0, x=0.0, y=0.0, z=0.6, stem_x=0.0, stem_y=0.0,
                      stem_diameter_mm=2.0, toughness=1.0)
    sim = GantrySim(GantryConfig(home_position=(0.0, 0.0, 0.50)))
    config = HarvestConfig(lateral_velocity_mm_s=5.0, cut_timeout_s=1e4)   # 5 < v_l_min
    tracemalloc.start()
    try:
        record = controller.run_cycle(sim, [fruit], _box(0.0, 0.0, 0.6),
                                      CutModel(load_datasets().fine), config)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert record.failure_reason == "cut-timeout"
    assert record.cycle_time_s > 1e4
    assert max(blocks) == _MAX_BLOCK
    # the cut's 10^7 ticks in full blocks, plus a few for the other waits
    assert len(blocks) <= 1e4 / config.dt_s / _MAX_BLOCK + 30
    assert checks == []
    assert peak < 4e6
