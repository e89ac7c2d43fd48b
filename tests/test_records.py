"""Every dataclass of the package, built from the bundled demo_11 scenario, its
scene and its run: ``==`` against an equal twin and ``hash()`` never raise, and
every frozen record still refuses field assignment.
"""

import dataclasses
import importlib
import inspect
import pkgutil

import pytest

import laserberry
from laserberry import (GantrySim, MotionProfile, calibration_reference,
                        load_datasets, load_scenario, run_demo, simulate_scenario,
                        verify_tables)
from laserberry.gantry import FallEvent
from laserberry.laser import EtchState
from laserberry.pipeline import cut_model_for
from laserberry.scenario import bundled_scenario_path
from laserberry.scene import generate_scene, make_world

#: The package's mutable records; every other dataclass is frozen.
MUTABLE = {"AxisState", "FruitBody", "InterrupterBank", "LensAxis", "TickBlock", "TrapperState"}


def _package_dataclasses() -> set[type]:
    modules = [importlib.import_module(f"laserberry.{m.name}")
               for m in pkgutil.iter_modules(laserberry.__path__)]
    return {obj for mod in modules for obj in vars(mod).values()
            if inspect.isclass(obj) and dataclasses.is_dataclass(obj)
            and obj.__module__ == mod.__name__}


def _records() -> dict[str, object]:
    """One instance of each dataclass, from demo_11, its scene and its run."""
    scenario = load_scenario(bundled_scenario_path("demo_11"))
    cloud, _, truth = generate_scene(scenario)
    result = simulate_scenario(scenario)
    sim, world, model = GantrySim(scenario.gantry), make_world(truth), cut_model_for(scenario)
    run_demo(sim, world, result.boxes, model, scenario.harvest)
    datasets = load_datasets()
    audit = verify_tables(datasets)
    gantry = scenario.gantry
    made = [
        scenario, scenario.berries[0], scenario.palette, scenario.colors, scenario.laser,
        scenario.harvest, scenario.gantry, scenario.localization,
        scenario.localization.reduced_window,
        scenario.localization.cluster, scenario.camera_1, cloud, truth, world[0], result,
        result.metrics, result.metrics.records[0], result.boxes[0], result.boxes[0].box,
        calibration_reference(cloud, 45.0, 45.0, 45.0), datasets, datasets.fine[0],
        datasets.lateral[0], model, EtchState.for_stem(float(truth.stem_diameters_mm[0])),
        audit, audit.deviations[0], sim.x, sim.lens, sim.trapper, sim.interrupters,
        sim.replay(3, scenario.harvest.dt_s), FallEvent(sim.time, world[0].uid, 0),
        MotionProfile.plan(*gantry.x_limits, 0.0, gantry.max_velocity, gantry.max_accel),
    ]
    return {type(r).__name__: r for r in made}


@pytest.fixture(scope="module")
def twins():
    return _records(), _records()


def test_the_table_covers_every_dataclass(twins):
    records, _ = twins
    assert {type(r) for r in records.values()} == _package_dataclasses()
    assert len(records) == 34


@pytest.mark.parametrize("name", sorted(c.__name__ for c in _package_dataclasses()))
def test_equality_and_hash_never_raise(twins, name):
    a, b = twins[0][name], twins[1][name]
    assert a is not b
    assert a == a
    assert isinstance(a == b, bool)
    if type(a).__hash__ is not None:
        hash(a)
    params = type(a).__dataclass_params__
    assert params.frozen == (name not in MUTABLE)
    if params.frozen:
        field = dataclasses.fields(a)[0].name
        with pytest.raises(dataclasses.FrozenInstanceError):
            setattr(a, field, getattr(a, field))


def test_scenarios_clouds_boxes_and_transforms_compare_and_hash():
    path = bundled_scenario_path("demo_11")
    a, b = load_scenario(path), load_scenario(path)
    assert a != b                   # equal values, but each pose is its own object
    same_poses = dataclasses.replace(b, camera_1=a.camera_1, camera_2=a.camera_2)
    assert a == same_poses and hash(a) == hash(same_poses)
    cloud, box = generate_scene(a)[0], simulate_scenario(a).boxes[0]
    for record in (cloud, box, box.box, a.camera_1):
        hash(record)
        assert record == record and record != dataclasses.replace(record)  # by identity
