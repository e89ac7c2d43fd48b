"""Calibrate the demo gantry speed against the bench cycle cadence.

The physical rig averaged about 5.56 s per harvested fruit, of which
about 2.88 s was the laser cut.  The cut share is fixed by the stem
diameters and the pierce-constant table, so the remaining knob is how
fast the axes are allowed to move between fruit.  Mean cycle time is
monotone decreasing in ``max_velocity``, which makes a plain bisection
sufficient: run the full eleven-fruit demo at the midpoint speed,
compare the mean successful cycle to the target, and halve the bracket.

The converged value is frozen into ``data/scenarios/demo_11.ini`` so
ordinary runs don't re-calibrate; re-run this script after touching
motion planning, approach offsets, or the trapper timing.

Run with::

    python3 demos/calibrate_gantry_speed.py
"""

import dataclasses

from laserberry import GantrySim, load_scenario, run_demo
from laserberry.pipeline import cut_model_for, localize_scenario
from laserberry.scenario import bundled_scenario_path
from laserberry.scene import make_world

TARGET_CYCLE_S = 5.56


def harvester(scenario):
    """The demo's mean successful cycle as a function of gantry speed. Only the
    gantry changes between calls, so the scene is generated and localized once
    and each call only harvests it."""
    model = cut_model_for(scenario)
    model.check_spot(scenario.harvest.spot_diameter_mm)
    boxes, truth = localize_scenario(scenario)

    def mean_cycle(velocity: float) -> float:
        gantry = dataclasses.replace(scenario.gantry, max_velocity=velocity)
        m = run_demo(GantrySim(gantry), make_world(truth), boxes, model, scenario.harvest)
        if m.successes != m.attempted:
            raise RuntimeError(f"demo lost fruit at v={velocity:.4f} "
                               f"({m.successes}/{m.attempted})")
        return m.mean_cycle_s

    return mean_cycle


def main() -> None:
    mean_cycle = harvester(load_scenario(bundled_scenario_path("demo_11")))
    lo, hi = 0.05, 0.50          # m/s bracket; slow end overshoots the target
    print(f"target mean cycle: {TARGET_CYCLE_S} s")
    for step in range(24):
        mid = 0.5 * (lo + hi)
        cycle = mean_cycle(mid)
        print(f"  step {step:2d}: v = {mid:.5f} m/s -> mean cycle {cycle:.4f} s")
        if cycle > TARGET_CYCLE_S:
            lo = mid             # too slow, raise the floor
        else:
            hi = mid
    v = 0.5 * (lo + hi)
    print(f"calibrated max_velocity = {v:.4f} m/s")
    print(f"mean cycle at frozen 3-decimal value {round(v, 3):.3f}: "
          f"{mean_cycle(round(v, 3)):.4f} s")


if __name__ == "__main__":
    main()
