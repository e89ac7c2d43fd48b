"""End-to-end scenario runs shared by the CLI, the demos, and the tests."""

from __future__ import annotations

from dataclasses import dataclass

from .controller import CycleMetrics, run_demo
from .gantry import GantrySim
from .laser import CutModel, embedded_pierce
from .laser import load_datasets  # noqa: F401 -- wrapped by benchmarks/tracing.py
from .localization import BerryBox, localize
from .scenario import Scenario
from .scene import SceneTruth, generate_scene, make_world


def cut_model_for(scenario: Scenario) -> CutModel:
    """The cut model a scenario asks for; only its pierce sweep (fine or coarse) is parsed."""
    return CutModel(embedded_pierce(scenario.laser.dataset), toughness=scenario.laser.toughness)


@dataclass(frozen=True, eq=False)
class SimulationResult:
    """Everything a full scenario run produces."""

    boxes: list[BerryBox]
    metrics: CycleMetrics
    truth: SceneTruth


def localize_scenario(scenario: Scenario) -> tuple[list[BerryBox], SceneTruth]:
    """Generate the scenario's scene and localize it."""
    cloud1, cloud2, truth = generate_scene(scenario)
    boxes = localize(cloud1, cloud2, scenario.camera_1, scenario.camera_2,
                     scenario.localization)
    return boxes, truth


def simulate_scenario(scenario: Scenario) -> SimulationResult:
    """Generate, localize, and harvest a scenario; a spot off the cut table fails first."""
    model = cut_model_for(scenario)
    model.check_spot(scenario.harvest.spot_diameter_mm)
    boxes, truth = localize_scenario(scenario)
    metrics = run_demo(GantrySim(scenario.gantry), make_world(truth), boxes, model,
                       scenario.harvest)
    return SimulationResult(boxes=boxes, metrics=metrics, truth=truth)
