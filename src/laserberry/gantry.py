"""Kinematic simulation of the three-axis harvester gantry on fixed ticks.

Axes follow trapezoidal velocity profiles (triangular when the move is too
short to reach cruise speed), the focus lens homes against a limit switch
and oscillates the beam laterally, the v-groove trapper sweeps between its
open and closed angles, and three interrupter beams below the groove report
when a severed fruit falls past. Everything advances on fixed ticks by one
rule, :meth:`GantrySim.replay`: axes and lens are closed forms of sim time,
and the clock, the trapper and the fall of detached fruit run over a block
of ticks as numpy running sums that add left to right. The replay also
finds the first tick a beam sees a fruit, and the fruit and beam it reports,
from the tool path in closed form. ``tests/stepping.py`` states each rule as
the scalar tick the replay is checked against.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from enum import Enum

import numpy as np

from .errors import MotionError, ValidationError, require

GRAVITY = 9.81  # m/s^2


# ---------------------------------------------------------------------------
# axis motion profiles

@dataclass(frozen=True)
class MotionProfile:
    """Closed-form trapezoidal (or triangular) move between two positions."""

    start: float
    end: float
    t0: float          # sim time when the move was commanded, s
    t_acc: float       # acceleration leg duration, s
    t_cruise: float    # constant-velocity leg duration, s
    v_peak: float      # signed cruise/peak velocity, m/s
    accel: float       # unsigned acceleration magnitude, m/s^2

    @property
    def duration(self) -> float:
        return 2.0 * self.t_acc + self.t_cruise

    @classmethod
    def plan(cls, start: float, end: float, t0: float, v_max: float,
             a_max: float) -> "MotionProfile":
        d = abs(end - start)
        sign = 1.0 if end >= start else -1.0
        if d == 0.0:
            return cls(start, end, t0, 0.0, 0.0, 0.0, a_max)
        if d >= v_max * v_max / a_max:
            # long move: accelerate to v_max, cruise, decelerate
            t_acc = v_max / a_max
            t_cruise = (d - v_max * v_max / a_max) / v_max
            v_peak = sign * v_max
        else:
            # short move: triangular profile peaking below v_max
            t_acc = math.sqrt(d / a_max)
            t_cruise = 0.0
            v_peak = sign * a_max * t_acc
        return cls(start, end, t0, t_acc, t_cruise, v_peak, a_max)

    def position_at(self, t: np.ndarray) -> np.ndarray:
        """Positions at the sim times ``t``: the start before ``t0``, the end
        after the move, and each leg's polynomial in between."""
        tau = t - self.t0
        t_acc, t_cruise = self.t_acc, self.t_cruise
        a = self.accel if self.v_peak >= 0 else -self.accel
        d_acc = 0.5 * a * t_acc * t_acc
        td = tau - t_acc - t_cruise
        return np.select(
            [tau <= 0.0, tau >= self.duration, tau < t_acc, tau < t_acc + t_cruise],
            [self.start, self.end, self.start + 0.5 * a * tau * tau,
             self.start + d_acc + self.v_peak * (tau - t_acc)],
            self.start + d_acc + self.v_peak * t_cruise
            + self.v_peak * td - 0.5 * a * td * td)


@dataclass
class AxisState:
    """One linear axis: rest position, travel limits, and the active profile,
    evaluated at the last advanced time only when :attr:`position` is read."""

    name: str
    rest: float                     # m, where it rests or its move began
    limits: tuple[float, float]     # m, (low, high)
    max_velocity: float             # m/s
    max_accel: float                # m/s^2
    profile: MotionProfile | None = None
    now: float = field(default=0.0, init=False)   # s, the last advanced sim time

    @property
    def position(self) -> float:
        return self.rest if self.profile is None else float(self.profile.position_at(self.now))

    def command(self, target: float, now: float) -> None:
        lo, hi = self.limits
        if not lo <= target <= hi:
            raise MotionError(
                f"{self.name}-axis target {target:.4f} m outside travel [{lo}, {hi}] m")
        self.rest = self.position
        if target == self.rest:
            self.profile = None   # already there: completes immediately
            return
        self.profile = MotionProfile.plan(self.rest, target, now,
                                          self.max_velocity, self.max_accel)

    def advance(self, now: float) -> None:
        self.now = now
        if self.profile is not None and self.done_at(now):
            self.rest, self.profile = self.profile.end, None

    def done_at(self, now: float) -> bool:
        """Whether the active move, if any, is complete at sim time ``now``."""
        return self.profile is None or now - self.profile.t0 >= self.profile.duration

    @property
    def idle(self) -> bool:
        return self.profile is None


# ---------------------------------------------------------------------------
# lens, trapper, interrupters

class LensMode(Enum):
    IDLE = "idle"
    HOMING = "homing"
    OSCILLATING = "oscillating"


@dataclass
class LensAxis:
    """Focus-lens axis: limit-switch homing and lateral beam oscillation.

    Positions are millimetres on a short stroke. Oscillation sweeps the
    beam as a triangle wave from the home end; it is refused until the
    axis has been referenced at least once.
    """

    stroke_mm: float = 4.0          # oscillation sweep length
    homing_speed_mm_s: float = 10.0
    position_mm: float = 5.0        # powered up at the far end, unreferenced
    homed: bool = False
    mode: LensMode = LensMode.IDLE
    _t_start: float = 0.0
    _start_pos: float = 0.0
    _osc_speed: float = 0.0         # mm/s

    def begin_homing(self, now: float) -> None:
        if self.position_mm == 0.0:
            self.homed = True      # already on the switch
            self.mode = LensMode.IDLE
            return
        self.mode = LensMode.HOMING
        self._t_start = now
        self._start_pos = self.position_mm

    def begin_oscillation(self, lateral_velocity_mm_s: float, now: float) -> None:
        if not self.homed:
            raise ValidationError("lens oscillation requested before homing")
        require("positive and finite", lateral_velocity_mm_s=lateral_velocity_mm_s)
        self.mode = LensMode.OSCILLATING
        self._t_start = now
        self._start_pos = self.position_mm
        self._osc_speed = lateral_velocity_mm_s

    def stop(self) -> None:
        self.mode = LensMode.IDLE

    def advance(self, now: float) -> None:
        if self.mode is LensMode.HOMING:
            if self.homing_done_at(now):
                self.position_mm = 0.0
                self.homed = True
                self.mode = LensMode.IDLE
            else:
                self.position_mm = (self._start_pos
                                    - self.homing_speed_mm_s * (now - self._t_start))
        elif self.mode is LensMode.OSCILLATING:
            # triangle wave over [0, stroke] starting from the home end
            u = (self._osc_speed * (now - self._t_start)) % (2.0 * self.stroke_mm)
            self.position_mm = u if u <= self.stroke_mm else 2.0 * self.stroke_mm - u

    def homing_done_at(self, now: float) -> bool:
        """Whether homing, if under way, has reached the switch by ``now``."""
        return (self.mode is not LensMode.HOMING
                or self.homing_speed_mm_s * (now - self._t_start) >= self._start_pos)

    @property
    def homing_end(self) -> float:      # when homing_done_at first holds, homing under way
        return self._t_start + self._start_pos / self.homing_speed_mm_s


class TrapperMode(Enum):
    OPEN = "open"
    CLOSED = "closed"
    MOVING = "moving"


@dataclass
class TrapperState:
    """V-groove trapper jaw: angle slews between open and closed stops."""

    open_angle_deg: float = 90.0
    closed_angle_deg: float = 120.0
    rate_deg_s: float = 150.0
    angle_deg: float = open_angle_deg      # powered up open
    target_deg: float = open_angle_deg
    capture_halfwidth_m: float = 0.020   # stem funneling reach of the groove

    def command(self, closed: bool) -> None:
        self.target_deg = self.closed_angle_deg if closed else self.open_angle_deg

    @property
    def mode(self) -> TrapperMode:
        if self.angle_deg == self.open_angle_deg == self.target_deg:
            return TrapperMode.OPEN
        if self.angle_deg == self.closed_angle_deg == self.target_deg:
            return TrapperMode.CLOSED
        return TrapperMode.MOVING

    @property
    def idle(self) -> bool:
        return self.angle_deg == self.target_deg

    def slew_end(self, now: float) -> float:     # when a slew from sim time now ends
        return now + abs(self.target_deg - self.angle_deg) / self.rate_deg_s


@dataclass(frozen=True)
class FallEvent:
    """A severed fruit crossed an interrupter beam."""

    time: float
    fruit_uid: int
    beam_index: int


@dataclass
class InterrupterBank:
    """Three horizontal light beams below the trapper groove.

    Beam planes sit at fixed drops below the groove center; each spans a
    limited lateral window in the tool frame. A fruit triggers at most one
    event, on the first tick its center crosses any beam plane inside that
    window.
    """

    offsets_m: tuple[float, ...] = (0.030, 0.045, 0.060)
    halfspan_m: float = 0.0125
    _fired: set = field(default_factory=set)

    def crossings(self, tool, fruit, z_prev, z_now) -> np.ndarray:
        """Beams × ticks: where ``fruit`` crosses a plane inside the window;
        ``tool`` (groove x, y, z) and the heights are per tick or constant."""
        tx, ty, tz = tool
        plane = tz - np.array(self.offsets_m)[:, None]
        return ((z_prev > plane) & (plane >= z_now)
                & ~((np.abs(fruit.x - tx) > self.halfspan_m)
                    | (np.abs(fruit.y - ty) > self.halfspan_m)))


@dataclass
class TickBlock:
    """Ticks ``0..n`` of the machine from now (tick 0), built by
    :meth:`GantrySim.replay`. At tick ``beam`` a beam reports ``seen``: the
    first fruit in world order crossing a plane there, at its lowest beam."""

    time: np.ndarray               # clock per tick
    trapper: np.ndarray | None     # trapper angle per tick; None while idle
    falls: list                    # (fruit, speeds, heights) per tick
    beam: int                      # first tick a beam fires at; n + 1 if none
    seen: tuple | None             # (fruit, beam index); None if no beam fires

    def at(self, sim: "GantrySim", k: int) -> float:
        """Set the trapper to tick ``k`` and return that tick's time."""
        if self.trapper is not None:
            sim.trapper.angle_deg = float(self.trapper[k])
        return float(self.time[k])

    def land(self, sim: "GantrySim", k: int) -> None:
        """Leave the machine and the falling fruit at tick ``k``; the clock
        goes first, so a bad timestep raises before anything moves."""
        if not k:
            return
        sim.advance_to(float(self.time[k]))
        if self.trapper is not None:
            sim.trapper.angle_deg = float(self.trapper[k])
        for fruit, v, z in self.falls:
            fruit.fall_velocity, fruit.prev_z, fruit.z = float(v[k]), float(z[k - 1]), float(z[k])
            fruit.landed = bool(z[k] <= 0.0)


# ---------------------------------------------------------------------------
# the gantry

@dataclass(frozen=True)
class GantryConfig:
    """Travel limits, speed limits, and the power-up pose.

    The x stroke is the full 0.48 m of the frame; per-axis speed and
    acceleration limits apply to all three axes. Lens, trapper and beams
    are fixed parts, built from their own defaults.
    """

    max_velocity: float = 0.5       # m/s
    max_accel: float = 2.0          # m/s^2
    x_limits: tuple[float, float] = (-0.24, 0.24)
    y_limits: tuple[float, float] = (-0.30, 0.30)
    z_limits: tuple[float, float] = (0.0, 0.80)
    home_position: tuple[float, float, float] = (0.0, -0.25, 0.30)

    def __post_init__(self):
        require("positive and finite", max_velocity=self.max_velocity, max_accel=self.max_accel)
        require("finite", x_limits=self.x_limits, y_limits=self.y_limits,
                z_limits=self.z_limits, home_position=self.home_position)
        for i, pair in enumerate(("x_limits", "y_limits", "z_limits")):
            (lo, hi), home = getattr(self, pair), self.home_position[i]
            if not lo < hi:
                raise ValidationError(f"{pair}[1] must be above {pair}[0] = {lo:g}, got {hi:g}")
            if not lo <= home <= hi:
                raise ValidationError(f"home_position[{i}] must lie within [{pair}[0], {pair}[1]]"
                                      f" = [{lo:g}, {hi:g}], got {home:g}")


class GantrySim:
    """Mutable simulation state for the gantry, lens, trapper, and beams."""

    def __init__(self, config: GantryConfig = GantryConfig()):
        self.config = c = config
        hx, hy, hz = c.home_position
        self.time = 0.0
        self.x = AxisState("x", hx, c.x_limits, c.max_velocity, c.max_accel)
        self.y = AxisState("y", hy, c.y_limits, c.max_velocity, c.max_accel)
        self.z = AxisState("z", hz, c.z_limits, c.max_velocity, c.max_accel)
        self.lens = LensAxis()
        self.trapper = TrapperState()
        self.interrupters = InterrupterBank()
        self.laser_on = False
        self.homing_count = 0

    # -- commands ----------------------------------------------------------

    def command_move(self, x: float, y: float, z: float) -> None:
        """Retarget all three axes; they move concurrently.

        Raises :class:`MotionError` for targets outside the travel limits.
        A command equal to the current pose completes immediately.
        """
        now = self.time
        self.x.command(x, now)
        self.y.command(y, now)
        self.z.command(z, now)

    def home_lens(self) -> None:
        """Reference the lens against its limit switch at homing speed."""
        self.homing_count += 1
        self.lens.begin_homing(self.time)

    def start_lens_oscillation(self, lateral_velocity_mm_s: float) -> None:
        self.lens.begin_oscillation(lateral_velocity_mm_s, self.time)

    def stop_lens_oscillation(self) -> None:
        self.lens.stop()

    def set_trapper(self, closed: bool) -> None:
        self.trapper.command(closed)

    def set_laser(self, on: bool) -> None:
        if on and self.trapper.mode is not TrapperMode.CLOSED:
            raise ValidationError("laser may only be energized with the trapper closed")
        self.laser_on = on

    # -- queries -----------------------------------------------------------

    def tool_position(self) -> tuple[float, float, float]:
        """Groove-center position in the base frame, metres."""
        return (self.x.position, self.y.position, self.z.position)

    def axes_done_at(self, now: float) -> bool:
        """Whether every axis has finished its move by sim time ``now``."""
        return self.x.done_at(now) and self.y.done_at(now) and self.z.done_at(now)

    @property
    def axes_end(self) -> float:        # when axes_done_at first holds: the last move's end
        return max((a.profile.t0 + a.profile.duration for a in (self.x, self.y, self.z)
                    if a.profile is not None), default=-math.inf)

    def tool_path(self, t: np.ndarray) -> tuple:
        """Groove positions at the sim times ``t``, as stepping there reads them."""
        return tuple(a.rest if a.profile is None else a.profile.position_at(t)
                     for a in (self.x, self.y, self.z))

    def captures(self, stem_x: float, stem_y: float) -> bool:
        """Would closing the trapper funnel a stem at (x, y) into the groove?"""
        dx = stem_x - self.x.position
        dy = stem_y - self.y.position
        return math.hypot(dx, dy) <= self.trapper.capture_halfwidth_m

    # -- integration -------------------------------------------------------

    def step(self, dt: float) -> None:
        """Advance the mechanism, fruit aside, by one tick of ``dt`` seconds."""
        self.replay(1, dt).land(self, 1)

    def advance_to(self, now: float) -> None:
        """Set the clock to ``now`` and bring the axes and the lens there.

        They are closed forms of time, so after a jump over many ticks one
        call lands them where stepping would. The trapper is not slewed: its
        angle takes one float operation per tick, which :meth:`replay` runs.
        Raises :class:`ValidationError` before anything moves unless ``now``
        is finite and later than the clock.
        """
        require("positive and finite", timestep=now - self.time)
        self.time = now
        self.x.advance(now)
        self.y.advance(now)
        self.z.advance(now)
        self.lens.advance(now)

    def replay(self, n: int, dt: float, fruits=()) -> TickBlock:
        """The next ``n`` ticks of the clock, the trapper slew and the fall of
        the detached ``fruits``, as arrays.

        The block's ``beam`` is the first tick at which a beam sees a fruit,
        and ``seen`` the fruit and beam it reports there; the caller that
        lands on that tick fires the event.
        """
        time = np.full(n + 1, dt)
        time[0] = self.time
        np.add.accumulate(time, out=time)
        angle, tr = None, self.trapper
        if not tr.idle:
            step = tr.rate_deg_s * dt
            angle = np.full(n + 1, step if tr.target_deg > tr.angle_deg else -step)
            angle[0] = tr.angle_deg
            np.add.accumulate(angle, out=angle)
            there = np.abs(tr.target_deg - angle) <= step
            j = int(there.argmax())
            if there[j]:
                angle[j + 1:] = tr.target_deg
        falls, beam, seen, tool = [], n + 1, None, None
        for fruit in fruits:
            if fruit.attached or (fruit.landed and fruit.prev_z == fruit.z):
                continue                        # a tick leaves it as it is
            v, z = fruit.fall_track(n, dt, GRAVITY)
            falls.append((fruit, v, z))
            if fruit.landed or fruit.uid in self.interrupters._fired:
                continue                        # at rest or seen: no beam fires
            tool = tool or self.tool_path(time[1:])
            hit = self.interrupters.crossings(tool, fruit, z[:-1], z[1:])[:, :beam - 1]
            ticks = np.flatnonzero(hit.any(axis=0))
            if ticks.size:                      # earlier than any fruit before it
                beam, seen = int(ticks[0]) + 1, (fruit, int(hit[:, ticks[0]].argmax()))
        return TickBlock(time, angle, falls, beam, seen)


def check_interrupters(sim: GantrySim, seen) -> FallEvent:
    """The event of ``seen``, the (fruit, beam index) a block reports on the
    tick ``sim`` has landed on; the fruit is marked so it fires only once."""
    fruit, beam = seen
    sim.interrupters._fired.add(fruit.uid)
    return FallEvent(sim.time, fruit.uid, beam)
