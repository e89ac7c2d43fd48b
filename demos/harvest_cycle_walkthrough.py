"""
One full harvest run, cycle by cycle
====================================

Generates the eleven-fruit scene, localizes it, and drives the gantry
through every harvest cycle, printing the phase sequence of the first
cycle and the per-fruit timing of the rest.

Run with::

    python3 demos/harvest_cycle_walkthrough.py
"""

from laserberry import GantrySim, load_scenario, run_demo
from laserberry.pipeline import cut_model_for, localize_scenario
from laserberry.scenario import bundled_scenario_path
from laserberry.scene import make_world

scenario = load_scenario(bundled_scenario_path("demo_11"))

# Localization and ground truth come from the same synthetic scene, so
# the run below harvests what the cameras actually reported, not what
# the generator knows.
boxes, truth = localize_scenario(scenario)
print(f"localized {len(boxes)} fruit")

sim = GantrySim(scenario.gantry)
world = make_world(truth)
model = cut_model_for(scenario)
config = scenario.harvest    # [laser] cut settings and [demo] timing

metrics = run_demo(sim, world, boxes, model, config)

# A cycle touches every mechanism once: home the lens, slide under the
# fruit, rise so the stem enters the groove, close the trapper (which
# funnels the stem to the groove center), oscillate the beam until the
# stem severs, hold the beam until an interrupter sees the fruit fall,
# then open up and descend toward the next fruit.
print("\nphases of the first cycle:")
for phase in metrics.records[0].phases:
    print(f"  {phase.value}")

print("\nper-fruit timing:")
print("  fruit   motion s   cut s   cycle s   outcome")
for r in metrics.records:
    outcome = "ok" if r.success else r.failure_reason
    print(f"  {r.fruit_index:4d}    {r.motion_time_s:7.3f} {r.cut_time_s:7.3f}"
          f"  {r.cycle_time_s:8.3f}   {outcome}")

print(f"\nharvested {metrics.successes}/{metrics.attempted} | "
      f"mean motion {metrics.mean_motion_s:.3f} s | "
      f"mean cut {metrics.mean_cut_s:.3f} s | "
      f"mean cycle {metrics.mean_cycle_s:.3f} s")
print(f"lens homings: {sim.homing_count} (one at power-up plus one per cycle)")
