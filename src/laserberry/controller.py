"""Harvest cycle driving the gantry simulation.

Each fruit is processed by one cycle: re-reference the lens, move below
the localized box, rise past it, retract onto the stem line, close the
trapper (which either funnels the stem into the groove or misses), cut
with the oscillating laser until the etch model severs the stem, keep the
laser on until an interrupter beam confirms the fall, then open the
trapper and descend toward the next fruit. Cycle time splits into motion
time plus laser-on-to-severed cut time: motion is ``cycle - cut``, so the
float sum ``motion + cut`` matches the cycle to within one rounding.

A cycle is straight-line code: each phase is its action followed by a wait for
the check that ends it. One :meth:`GantrySim.jump` call runs each wait, a
run's start-up homing included, on 1 ms ticks (``HarvestConfig.dt_s``), given
the check and the sim time it is due in closed form; a check that already
holds takes no tick. ``gantry`` holds every tick rule, the cut's too, and
hands each beam tick on the way to the cycle, where :func:`check_interrupters` fires.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from enum import Enum
from pathlib import Path
from typing import Callable

from .errors import MotionError, ValidationError, require
from .gantry import GRAVITY, FallEvent, GantryConfig, GantrySim, check_interrupters
from .laser import CutModel, EtchState, etch_rate
from .laser import etch_step  # noqa: F401 -- wrapped by benchmarks/tracing.py
from .localization import BerryBox
from .scene import FruitBody


class HarvestPhase(Enum):
    HOMING_LENS = "homing-lens"
    MOVE_BELOW_XY = "move-below-xy"
    RAISE_Z = "raise-z"
    RETRACT = "retract"
    CLOSE_TRAPPER = "close-trapper"
    CUTTING = "cutting"
    AWAIT_FALL = "await-fall"
    LASER_OFF = "laser-off"
    OPEN_TRAPPER = "open-trapper"
    DESCEND_Z = "descend-z"
    DONE = "done"
    FAILED = "failed"


#: The only forward order a healthy cycle may take.
CYCLE_ORDER = (
    HarvestPhase.HOMING_LENS, HarvestPhase.MOVE_BELOW_XY, HarvestPhase.RAISE_Z,
    HarvestPhase.RETRACT, HarvestPhase.CLOSE_TRAPPER, HarvestPhase.CUTTING,
    HarvestPhase.AWAIT_FALL, HarvestPhase.LASER_OFF, HarvestPhase.OPEN_TRAPPER,
    HarvestPhase.DESCEND_Z, HarvestPhase.DONE,
)

FAIL_PLAN = "plan"
FAIL_TRAP = "trap-miss"
FAIL_CUT_TIMEOUT = "cut-timeout"
FAIL_FALL_TIMEOUT = "fall-timeout"


_BELOW_OFFSET_M = 0.030    # approach depth under the box floor
_ABOVE_OFFSET_M = 0.020    # rise margin over the box ceiling


@dataclass(frozen=True)
class HarvestConfig:
    """Cut parameters, timestep, and timeouts (a scenario's ``[laser]`` cut
    keys and its ``[demo]`` keys)."""

    spot_diameter_mm: float = 0.9
    lateral_velocity_mm_s: float = 50.0
    dt_s: float = 0.001
    cut_timeout_s: float = 30.0
    fall_timeout_s: float = 2.0

    def __post_init__(self):
        require("positive and finite", **vars(self))
        # LensAxis.advance takes speed * elapsed; the factor 2 is a margin for rounding
        longest = self.cut_timeout_s + self.fall_timeout_s + 3.0 * self.dt_s
        if not 2.0 * self.lateral_velocity_mm_s * longest < math.inf:
            raise ValidationError(
                f"lateral_velocity_mm_s {self.lateral_velocity_mm_s:g} mm/s sweeps past the "
                f"largest float over the longest beam oscillation, {longest:g} s "
                f"(cut_timeout_s + fall_timeout_s + 3 ticks)")


@dataclass(frozen=True)
class CycleRecord:
    """Outcome and timing of one harvest cycle."""

    fruit_index: int
    success: bool
    motion_time_s: float
    cut_time_s: float
    cycle_time_s: float
    failure_reason: str              # empty on success
    phases: tuple[HarvestPhase, ...] = ()


@dataclass(frozen=True)
class CycleMetrics:
    """All cycle records of a run plus aggregate means over successes."""

    records: tuple[CycleRecord, ...]

    @property
    def attempted(self) -> int:
        return len(self.records)

    @property
    def successes(self) -> int:
        return sum(1 for r in self.records if r.success)

    def _mean(self, attr: str) -> float:
        ok = [getattr(r, attr) for r in self.records if r.success]
        return sum(ok) / len(ok) if ok else 0.0

    @property
    def mean_cycle_s(self) -> float:
        return self._mean("cycle_time_s")

    @property
    def mean_cut_s(self) -> float:
        return self._mean("cut_time_s")

    @property
    def mean_motion_s(self) -> float:
        return self._mean("motion_time_s")

    def to_csv(self) -> str:
        lines = ["fruit_index,success,motion_time_s,cut_time_s,cycle_time_s,failure_reason"]
        for r in self.records:
            lines.append(f"{r.fruit_index},{int(r.success)},{r.motion_time_s:.3f},"
                         f"{r.cut_time_s:.3f},{r.cycle_time_s:.3f},{r.failure_reason}")
        lines.append(f"# successes={self.successes} attempted={self.attempted}")
        lines.append(f"# mean_motion_time_s={self.mean_motion_s:.3f} "
                     f"mean_cut_time_s={self.mean_cut_s:.3f} "
                     f"mean_cycle_time_s={self.mean_cycle_s:.3f}")
        return "\n".join(lines) + "\n"

    def write_csv(self, path: str | Path) -> None:
        Path(path).write_text(self.to_csv())


def _approach_z(box: BerryBox) -> float:
    """Height of the approach under ``box``, where a cycle starts its rise."""
    return float(box.box.min[2]) - _BELOW_OFFSET_M


def plan_approach(box: BerryBox, gantry: GantryConfig) -> list[tuple[float, float, float]]:
    """Waypoints for one fruit: under the box, over it, then the cut pose.

    The first waypoint sits below the box floor at the centroid's x-y, the
    second rises past the box ceiling, and the third is the retract pose
    that puts the groove center on the stem line — coincident with the
    second in this kinematic model, where the stem hangs straight above
    the centroid.

    Raises
    ------
    MotionError
        If any waypoint falls outside the gantry travel limits
        (fruit out of reach).
    """
    cx, cy = float(box.centroid[0]), float(box.centroid[1])
    z_high = float(box.box.max[2]) + _ABOVE_OFFSET_M
    waypoints = [(cx, cy, _approach_z(box)), (cx, cy, z_high), (cx, cy, z_high)]
    for x, y, z in waypoints:
        for value, (lo, hi), axis in ((x, gantry.x_limits, "x"),
                                      (y, gantry.y_limits, "y"),
                                      (z, gantry.z_limits, "z")):
            if not lo <= value <= hi:
                raise MotionError(
                    f"fruit out of reach: waypoint {axis}={value:.4f} m outside "
                    f"[{lo}, {hi}] m")
    return waypoints


_APPROACH = (HarvestPhase.MOVE_BELOW_XY, HarvestPhase.RAISE_Z, HarvestPhase.RETRACT)


class _Cycle:
    """One fruit's harvest, run as straight-line code by :meth:`run`."""

    def __init__(self, sim: GantrySim, world: list[FruitBody], box: BerryBox,
                 model: CutModel, config: HarvestConfig,
                 next_box: BerryBox | None = None):
        self.sim = sim
        self.world = world
        self.box = box
        self.model = model
        self.cfg = config
        self.next_box = next_box
        self.phases: list[HarvestPhase] = []
        self.failure = ""
        self.cut_time = 0.0
        self.target: FruitBody | None = None
        self.fall_event: FallEvent | None = None

    def _enter(self, phase: HarvestPhase) -> None:
        self.phases.append(phase)

    def _fail(self, reason: str) -> None:
        self.failure = reason
        self._enter(HarvestPhase.FAILED)

    def _pick_target(self) -> FruitBody | None:
        cx, cy, cz = map(float, self.box.centroid)
        best, best_d = None, math.inf
        for fruit in self.world:
            if fruit.attempted or not fruit.attached:
                continue
            # float products: a fruit far enough to overflow is at inf, unwarned
            dx, dy, dz = fruit.x - cx, fruit.y - cy, fruit.z - cz
            d = dx * dx + dy * dy + dz * dz
            if d < best_d:
                best, best_d = fruit, d
        return best

    def _wait(self, done: Callable[[float], bool], end: float) -> None:
        """Run the machine until ``done(sim.time)`` holds, due at sim time ``end``."""
        self.sim.jump(self.cfg.dt_s, done, end, self.world, self._seen)

    def _seen(self, seen) -> None:          # a beam tick: fire it, keep the target's
        event = check_interrupters(self.sim, seen)
        if event.fruit_uid == getattr(self.target, "uid", None):
            self.fall_event = event

    def run(self) -> None:
        """Run the phases in order; a failure sets ``failure`` and returns."""
        sim, cfg = self.sim, self.cfg
        self._enter(HarvestPhase.HOMING_LENS)
        sim.home_lens()
        self._wait(sim.lens.homing_done_at, sim.lens.homing_end)

        target = self.target = self._pick_target()
        if target is not None and target.toughness != self.model.toughness:
            self.model = replace(self.model, toughness=target.toughness)
        try:
            waypoints = plan_approach(self.box, sim.config)
        except MotionError:
            return self._fail(FAIL_PLAN)
        if target is not None:
            target.attempted = True
        for phase, waypoint in zip(_APPROACH, waypoints):
            sim.command_move(*waypoint)
            self._enter(phase)
            self._wait(sim.axes_done_at, sim.axes_end)

        sim.set_trapper(closed=True)
        self._enter(HarvestPhase.CLOSE_TRAPPER)
        self._wait(lambda now: sim.trapper.idle, sim.trapper.slew_end(sim.time))
        if target is None or not sim.captures(target.stem_x, target.stem_y):
            return self._fail(FAIL_TRAP)

        target.snap_to(*sim.tool_position()[:2])
        sim.start_lens_oscillation(cfg.lateral_velocity_mm_s)
        sim.set_laser(True)
        t_laser_on = sim.time
        sim.etch = EtchState.for_stem(target.stem_diameter_mm)
        rate = sim.etch_rate = etch_rate(self.model, cfg.spot_diameter_mm,
                                         cfg.lateral_velocity_mm_s)
        self._enter(HarvestPhase.CUTTING)
        sever_s = sim.etch.target_area / rate if rate else math.inf
        self._wait(lambda now: sim.etch.severed or now - t_laser_on >= cfg.cut_timeout_s,
                   t_laser_on + min(cfg.cut_timeout_s, sever_s))
        if not sim.etch.severed:
            return self._fail(FAIL_CUT_TIMEOUT)
        self.cut_time = sim.time - t_laser_on

        # the laser stays energized until a beam confirms the fall
        target.attached = False
        target.fall_velocity = 0.0
        deadline = sim.time + cfg.fall_timeout_s
        self._enter(HarvestPhase.AWAIT_FALL)
        drop = target.z - sim.z.position + max(sim.interrupters.offsets_m)   # lowest beam
        self._wait(lambda now: self.fall_event is not None or now >= deadline,
                   min(deadline, sim.time + math.sqrt(2.0 * max(drop, 0.0) / GRAVITY)))
        if self.fall_event is None:
            return self._fail(FAIL_FALL_TIMEOUT)
        self._enter(HarvestPhase.LASER_OFF)
        self._wait(lambda now: now > self.fall_event.time, sim.time + cfg.dt_s)   # one tick

        self._enter(HarvestPhase.OPEN_TRAPPER)
        self.cleanup()
        follow = self.next_box if self.next_box is not None else self.box
        x, y, _ = sim.tool_position()
        lo, hi = sim.config.z_limits     # a fruit out of reach fails its own plan
        sim.command_move(x, y, min(max(_approach_z(follow), lo), hi))
        self._enter(HarvestPhase.DESCEND_Z)
        self._wait(sim.axes_done_at, sim.axes_end)
        self._enter(HarvestPhase.DONE)

    def cleanup(self) -> None:
        """Leave the machine safe (laser off, lens stopped, trapper open), cut or failed."""
        sim = self.sim
        sim.set_laser(False)
        sim.stop_lens_oscillation()
        sim.set_trapper(closed=False)
        self._wait(lambda now: sim.trapper.idle, sim.trapper.slew_end(sim.time))


def run_cycle(sim: GantrySim, world: list[FruitBody], box: BerryBox,
              model: CutModel, config: HarvestConfig = HarvestConfig(),
              next_box: BerryBox | None = None,
              fruit_index: int = 0) -> CycleRecord:
    """Harvest one localized fruit; see the module docstring for the cycle.

    The body cut is the nearest attached, unattempted fruit to the box
    centroid; its toughness overrides ``model.toughness``. On failure the
    mechanism is left safe (laser off, trapper open) and the record
    carries the failure reason; ``motion == cycle - cut`` always.
    """
    t_start = sim.time
    cycle = _Cycle(sim, world, box, model, config, next_box)
    cycle.run()
    if cycle.failure:
        cycle.cleanup()
    cycle_time = sim.time - t_start
    return CycleRecord(
        fruit_index=fruit_index,
        success=not cycle.failure,
        motion_time_s=cycle_time - cycle.cut_time,
        cut_time_s=cycle.cut_time,
        cycle_time_s=cycle_time,
        failure_reason=cycle.failure,
        phases=tuple(cycle.phases),
    )


def run_demo(sim: GantrySim, world: list[FruitBody], boxes: list[BerryBox],
             model: CutModel, config: HarvestConfig = HarvestConfig()) -> CycleMetrics:
    """Harvest every localized fruit in rank order.

    The lens is referenced once at the start of operation and again by
    every cycle, so a run over n fruits homes n + 1 times. Each cut takes
    its toughness from the body being cut, as in :func:`run_cycle`.
    """
    sim.home_lens()                                     # watching no fruit
    sim.jump(config.dt_s, sim.lens.homing_done_at, sim.lens.homing_end, (), None)
    records = []
    for i, box in enumerate(boxes):
        next_box = boxes[i + 1] if i + 1 < len(boxes) else None
        records.append(run_cycle(sim, world, box, model, config,
                                 next_box=next_box, fruit_index=i))
    return CycleMetrics(tuple(records))
