"""Harvest-cycle state machine driving the gantry simulation.

Each fruit is processed by one cycle: re-reference the lens, move below
the localized box, rise past it, retract onto the stem line, close the
trapper (which either funnels the stem into the groove or misses), cut
with the oscillating laser until the etch model severs the stem, keep the
laser on until an interrupter beam confirms the fall, then open the
trapper and descend toward the next fruit. Cycle time decomposes exactly
into motion time plus laser-on-to-severed cut time.

The semantics are 1 ms ticks (``HarvestConfig.dt_s``), evaluated by jumping:
before each step the loop skips to the tick before the current phase's
check first holds, then takes that tick as an ordinary step, bit-identical
to stepping every tick. Only a falling or unseen severed fruit is stepped.
"""

from __future__ import annotations

import dataclasses
import math
from dataclasses import dataclass
from enum import Enum
from pathlib import Path

from .errors import MotionError, require_positive
from .gantry import GRAVITY, GantryConfig, GantrySim, check_interrupters
from .laser import CutModel, EtchState, etch_step
from .localization import BerryBox
from .scene import FruitBody


class HarvestPhase(Enum):
    IDLE = "idle"
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


@dataclass(frozen=True)
class HarvestConfig:
    """Controller offsets, cut parameters, timestep, and timeouts."""

    below_offset_m: float = 0.030    # approach depth under the box
    above_offset_m: float = 0.020    # rise margin over the box
    spot_diameter_mm: float = 0.9
    lateral_velocity_mm_s: float = 50.0
    dt_s: float = 0.001
    cut_timeout_s: float = 30.0
    fall_timeout_s: float = 2.0

    def __post_init__(self):
        require_positive(**{name: getattr(self, name) for name in (
            "below_offset_m", "above_offset_m", "spot_diameter_mm",
            "lateral_velocity_mm_s", "dt_s", "cut_timeout_s", "fall_timeout_s")})


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


def plan_approach(box: BerryBox, gantry: GantryConfig,
                  below_offset_m: float = 0.030,
                  above_offset_m: float = 0.020) -> list[tuple[float, float, float]]:
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
    z_low = float(box.box.min[2]) - below_offset_m
    z_high = float(box.box.max[2]) + above_offset_m
    waypoints = [(cx, cy, z_low), (cx, cy, z_high), (cx, cy, z_high)]
    for x, y, z in waypoints:
        for value, (lo, hi), axis in ((x, gantry.x_limits, "x"),
                                      (y, gantry.y_limits, "y"),
                                      (z, gantry.z_limits, "z")):
            if not lo <= value <= hi:
                raise MotionError(
                    f"fruit out of reach: waypoint {axis}={value:.4f} m outside "
                    f"[{lo}, {hi}] m")
    return waypoints


class _Cycle:
    """Runs the state machine for a single fruit."""

    def __init__(self, sim: GantrySim, world: list[FruitBody], box: BerryBox,
                 model: CutModel, config: HarvestConfig,
                 next_box: BerryBox | None, fruit_index: int):
        self.sim = sim
        self.world = world
        self.box = box
        self.model = model
        self.cfg = config
        self.next_box = next_box
        self.fruit_index = fruit_index
        self.phase = HarvestPhase.IDLE
        self.phases: list[HarvestPhase] = []
        self.failure = ""
        self.t_start = sim.time
        self.t_laser_on = math.nan
        self.t_severed = math.nan
        self.cut_time = 0.0
        self.target: FruitBody | None = None
        self.etch: EtchState | None = None
        self.etch_rate = 0.0             # mm^2/s while cutting, as in etch_step
        self.waypoints: list[tuple[float, float, float]] = []
        self.fall_deadline = math.inf

    # -- helpers -----------------------------------------------------------

    def _goto(self, phase: HarvestPhase) -> None:
        if phase is not HarvestPhase.FAILED:
            here = CYCLE_ORDER.index(self.phase) if self.phase in CYCLE_ORDER else -1
            if CYCLE_ORDER.index(phase) != here + 1:
                raise AssertionError(f"illegal transition {self.phase} -> {phase}")
        self.phase = phase
        self.phases.append(phase)

    def _fail(self, reason: str) -> None:
        self.failure = reason
        self._goto(HarvestPhase.FAILED)

    def _pick_target(self) -> FruitBody | None:
        cx, cy, cz = self.box.centroid
        best, best_d = None, math.inf
        for fruit in self.world:
            if fruit.attempted or not fruit.attached:
                continue
            d = (fruit.x - cx) ** 2 + (fruit.y - cy) ** 2 + (fruit.z - cz) ** 2
            if d < best_d:
                best, best_d = fruit, d
        return best

    def _world_step(self, dt: float) -> None:
        for fruit in self.world:
            if not fruit.attached and not fruit.landed:
                fruit.fall_step(dt, GRAVITY)

    def _skip_to_event(self, phase: HarvestPhase) -> None:
        """Jump to the tick before ``phase``'s check first holds, unless watching."""
        sim, dt = self.sim, self.cfg.dt_s
        if sim.interrupters.watching(self.world):
            return
        ticks = _ticks_to_event(sim, dt, phase, self) - 1
        sim.skip(ticks, dt)
        if phase is HarvestPhase.CUTTING and ticks > 0:
            area, target = self.etch.cut_area, self.etch.target_area
            for _ in range(ticks):
                area = min(target, area + dt * self.etch_rate)
            self.etch = EtchState(area, target, False)

    # -- the state machine --------------------------------------------------

    def run(self) -> CycleRecord:
        sim, cfg = self.sim, self.cfg
        self._goto(HarvestPhase.HOMING_LENS)
        sim.home_lens()
        fall_event = None
        while True:
            # phase completion checks run before stepping so zero-length
            # actions finish without consuming a timestep
            advanced = True
            while advanced and self.phase not in (HarvestPhase.DONE, HarvestPhase.FAILED):
                advanced = self._try_advance(fall_event)
            if self.phase in (HarvestPhase.DONE, HarvestPhase.FAILED):
                break
            self._skip_to_event(self.phase)
            sim.step(cfg.dt_s)
            self._world_step(cfg.dt_s)
            event = check_interrupters(sim, self.world)
            if event is not None and self.target is not None \
                    and event.fruit_uid == self.target.uid:
                fall_event = event
            if self.phase is HarvestPhase.CUTTING:
                self._etch_once()
        cycle_time = sim.time - self.t_start
        return CycleRecord(
            fruit_index=self.fruit_index,
            success=self.phase is HarvestPhase.DONE,
            motion_time_s=cycle_time - self.cut_time,
            cut_time_s=self.cut_time,
            cycle_time_s=cycle_time,
            failure_reason=self.failure,
            phases=tuple(self.phases),
        )

    def _etch_once(self) -> None:
        self.etch = etch_step(self.etch, self.cfg.dt_s, self.sim.laser_on,
                              self.model, self.cfg.spot_diameter_mm,
                              self.cfg.lateral_velocity_mm_s)
        if self.etch.severed:
            self.t_severed = self.sim.time
            self.cut_time = self.t_severed - self.t_laser_on

    def _try_advance(self, fall_event) -> bool:
        """Run one phase-transition check; True if the phase changed."""
        sim, cfg, phase = self.sim, self.cfg, self.phase

        if phase is HarvestPhase.HOMING_LENS:
            if not sim.lens.homing_done:
                return False
            self.target = self._pick_target()
            if self.target is not None and self.target.toughness != self.model.toughness:
                self.model = dataclasses.replace(self.model, toughness=self.target.toughness)
            try:
                self.waypoints = plan_approach(self.box, sim.config,
                                               cfg.below_offset_m, cfg.above_offset_m)
            except MotionError:
                self._fail(FAIL_PLAN)
                return True
            if self.target is not None:
                self.target.attempted = True
            sim.command_move(*self.waypoints[0])
            self._goto(HarvestPhase.MOVE_BELOW_XY)
            return True

        if phase is HarvestPhase.MOVE_BELOW_XY:
            if not sim.axes_idle:
                return False
            sim.command_move(*self.waypoints[1])
            self._goto(HarvestPhase.RAISE_Z)
            return True

        if phase is HarvestPhase.RAISE_Z:
            if not sim.axes_idle:
                return False
            sim.command_move(*self.waypoints[2])
            self._goto(HarvestPhase.RETRACT)
            return True

        if phase is HarvestPhase.RETRACT:
            if not sim.axes_idle:
                return False
            sim.set_trapper(closed=True)
            self._goto(HarvestPhase.CLOSE_TRAPPER)
            return True

        if phase is HarvestPhase.CLOSE_TRAPPER:
            if not sim.trapper.idle:
                return False
            if self.target is None or \
                    not sim.captures(self.target.stem_x, self.target.stem_y):
                self._fail(FAIL_TRAP)
                return True
            gx, gy, _ = sim.tool_position()
            self.target.snap_to(gx, gy)
            sim.start_lens_oscillation(cfg.lateral_velocity_mm_s)
            sim.set_laser(True)
            self.t_laser_on = sim.time
            self.etch = EtchState.for_stem(self.target.stem_diameter_mm)
            if cfg.lateral_velocity_mm_s >= self.model.v_l_min:
                self.etch_rate = self.model.cp(cfg.spot_diameter_mm) / self.model.toughness
            self._goto(HarvestPhase.CUTTING)
            return True

        if phase is HarvestPhase.CUTTING:
            if self.etch.severed:
                self.target.attached = False
                self.target.fall_velocity = 0.0
                self.fall_deadline = sim.time + cfg.fall_timeout_s
                self._goto(HarvestPhase.AWAIT_FALL)
                return True
            if sim.time - self.t_laser_on >= cfg.cut_timeout_s:
                self._fail(FAIL_CUT_TIMEOUT)
                return True
            return False

        if phase is HarvestPhase.AWAIT_FALL:
            # the laser stays energized until a beam confirms the fall
            if fall_event is not None:
                self._goto(HarvestPhase.LASER_OFF)
                return False  # hold one step so laser-off lands after the event
            if sim.time >= self.fall_deadline:
                self._fail(FAIL_FALL_TIMEOUT)
                return True
            return False

        if phase is HarvestPhase.LASER_OFF:
            if fall_event is None or sim.time <= fall_event.time:
                return False
            sim.set_laser(False)
            sim.stop_lens_oscillation()
            sim.set_trapper(closed=False)
            self._goto(HarvestPhase.OPEN_TRAPPER)
            return True

        if phase is HarvestPhase.OPEN_TRAPPER:
            if not sim.trapper.idle:
                return False
            follow = self.next_box if self.next_box is not None else self.box
            z_next = float(follow.box.min[2]) - cfg.below_offset_m
            x, y, _ = sim.tool_position()
            sim.command_move(x, y, z_next)
            self._goto(HarvestPhase.DESCEND_Z)
            return True

        if phase is HarvestPhase.DESCEND_Z:
            if not sim.axes_idle:
                return False
            self._goto(HarvestPhase.DONE)
            return True

        return False

    def cleanup(self) -> None:
        """Leave the mechanism safe after a failed cycle."""
        sim = self.sim
        if sim.laser_on:
            sim.set_laser(False)
        sim.stop_lens_oscillation()
        sim.set_trapper(closed=False)
        while not sim.trapper.idle:
            self._skip_to_event(HarvestPhase.OPEN_TRAPPER)   # the same trapper wait
            sim.step(self.cfg.dt_s)
            self._world_step(self.cfg.dt_s)


_AXIS_PHASES = (HarvestPhase.MOVE_BELOW_XY, HarvestPhase.RAISE_Z,
                HarvestPhase.RETRACT, HarvestPhase.DESCEND_Z)


def _ticks_to_event(sim: GantrySim, dt: float, phase: HarvestPhase,
                    cycle: _Cycle | None = None) -> int:
    """Ticks of ``dt`` until the check that ends ``phase`` first holds.

    Replays on scalars the float operations of stepping (``time += dt``,
    the trapper slew, the etch update) and tests each tick with the stepped
    predicate. Phases that end on a fall event answer 1: they are stepped.
    """
    now, ticks = sim.time + dt, 1
    if phase is HarvestPhase.HOMING_LENS:
        while not sim.lens.homing_done_at(now):
            now += dt
            ticks += 1
    elif phase in _AXIS_PHASES:
        for axis in (sim.x, sim.y, sim.z):     # each check only turns true
            while not axis.done_at(now):
                now += dt
                ticks += 1
    elif phase in (HarvestPhase.CLOSE_TRAPPER, HarvestPhase.OPEN_TRAPPER):
        probe = dataclasses.replace(sim.trapper)
        probe.advance(dt)
        while not probe.idle:
            probe.advance(dt)
            ticks += 1
    elif phase is HarvestPhase.CUTTING:
        target, rate = cycle.etch.target_area, cycle.etch_rate
        t_on, timeout = cycle.t_laser_on, cycle.cfg.cut_timeout_s
        area = min(target, cycle.etch.cut_area + dt * rate)
        while not (area == target or now - t_on >= timeout):
            now += dt
            area = min(target, area + dt * rate)
            ticks += 1
    return ticks


def run_cycle(sim: GantrySim, world: list[FruitBody], box: BerryBox,
              model: CutModel, config: HarvestConfig | None = None,
              next_box: BerryBox | None = None,
              fruit_index: int = 0) -> CycleRecord:
    """Harvest one localized fruit; see the module docstring for the cycle.

    The body cut is the nearest attached, unattempted fruit to the box
    centroid; its toughness overrides ``model.toughness``. On failure the
    mechanism is left safe (laser off, trapper open) and the record
    carries the failure reason; timing always satisfies
    ``cycle == motion + cut`` exactly.
    """
    cfg = config if config is not None else HarvestConfig()
    cycle = _Cycle(sim, world, box, model, cfg, next_box, fruit_index)
    record = cycle.run()
    if not record.success:
        cycle.cleanup()
        cycle_time = sim.time - cycle.t_start
        record = dataclasses.replace(record, cycle_time_s=cycle_time,
                                     motion_time_s=cycle_time - record.cut_time_s)
    return record


def run_demo(sim: GantrySim, world: list[FruitBody], boxes: list[BerryBox],
             model: CutModel, config: HarvestConfig | None = None) -> CycleMetrics:
    """Harvest every localized fruit in rank order.

    The lens is referenced once at the start of operation and again by
    every cycle, so a run over n fruits homes n + 1 times. Each cut takes
    its toughness from the body being cut, as in :func:`run_cycle`.
    """
    cfg = config if config is not None else HarvestConfig()
    sim.home_lens()
    while not sim.lens.homing_done:
        sim.skip(_ticks_to_event(sim, cfg.dt_s, HarvestPhase.HOMING_LENS) - 1, cfg.dt_s)
        sim.step(cfg.dt_s)
    records = []
    for i, box in enumerate(boxes):
        next_box = boxes[i + 1] if i + 1 < len(boxes) else None
        records.append(run_cycle(sim, world, box, model, cfg,
                                 next_box=next_box, fruit_index=i))
    return CycleMetrics(tuple(records))
