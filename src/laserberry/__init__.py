"""Software twin of a table-top laser stem-cutting strawberry harvester.

Three layers, importable separately:

* perception — point clouds, rigid transforms, color-window filtering
  and Euclidean clustering, plus ``KdTree``, an x-sorted radius query that
  clustering does not use (:mod:`geometry`, :mod:`localization`, :mod:`pcdio`);
* laser — calibrated pierce/cut model, spot-diameter optimization and
  calibration-table audit (:mod:`laser`, :mod:`datasets`);
* machine — gantry kinematics, lens/trapper/interrupter peripherals and
  the harvest-cycle state machine (:mod:`gantry`, :mod:`controller`).

Scenario files tie the layers together (:mod:`scenario`, :mod:`scene`,
:mod:`pipeline`); the ``laserberry`` CLI fronts the common runs.
"""

from .controller import (HarvestConfig, HarvestPhase, plan_approach, run_cycle,
                         run_demo)
from .datasets import load_datasets, load_lateral_csv, load_pierce_csv
from .errors import (CalibrationError, DomainError, MotionError,
                     PcdParseError, ScenarioError, UnsupportedRegimeError,
                     ValidationError)
from .gantry import GantryConfig, GantrySim, MotionProfile
from .geometry import Aabb, KdTree, PointCloud, RigidTransform
from .laser import (CutModel, EtchState, PierceRecord, cut_time, etch_step,
                    optimal_spot, pierce_constant, pierce_velocity,
                    verify_tables)
from .localization import (BerryBox, ClusterParams, ColorReference,
                           SpatialWindow, bounding_boxes,
                           calibration_reference, euclidean_clusters, localize)
from .pcdio import read_pcd, write_pcd
from .pipeline import simulate_scenario
from .scenario import load_scenario

__version__ = "0.1.0"

__all__ = [
    "Aabb", "BerryBox", "CalibrationError", "ClusterParams", "ColorReference",
    "CutModel", "DomainError", "EtchState", "GantryConfig", "GantrySim",
    "HarvestConfig", "HarvestPhase", "KdTree", "MotionError", "MotionProfile",
    "PcdParseError", "PierceRecord", "PointCloud", "RigidTransform",
    "ScenarioError", "SpatialWindow", "UnsupportedRegimeError",
    "ValidationError", "bounding_boxes", "calibration_reference", "cut_time",
    "etch_step", "euclidean_clusters", "load_datasets", "load_lateral_csv",
    "load_pierce_csv", "load_scenario", "localize", "optimal_spot",
    "pierce_constant", "pierce_velocity", "plan_approach", "read_pcd",
    "run_cycle", "run_demo", "simulate_scenario", "verify_tables", "write_pcd",
]
