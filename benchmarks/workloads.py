"""The three benchmark workloads.

Each workload builds a pool of inputs from the workload seed at set-up and
runs one operation per call of :meth:`Workload.run`, always in the calling
thread. The runner times the call, cycles through the pool, and passes the
output to :meth:`Workload.check`.

- ``dense_frames``: ``localize`` on ``perf_300k``-layout frame pairs
  (300,900 points, ~5.5k red). Perception under clutter; the machine
  layers do no work.
- ``harvest_sweep``: ``simulate_scenario`` on ``demo_11`` over the
  calibration demo's speed bracket, with ``demo_overreach`` interleaved
  for the plan-failure path. The machine twin dominates.
- ``pcd_capture``: write a ``demo_11``-layout pair of clouds with
  ``write_pcd`` (the ``gen-scene`` export), read them back with
  ``read_pcd`` and ``localize`` them (the ``localize --cloud1 --cloud2``
  path). Few points, all of them clustered; PCD text I/O dominates.
"""

from __future__ import annotations

import contextlib
import dataclasses
import hashlib
import os
import statistics
from pathlib import Path
from time import perf_counter

import numpy as np

from laserberry.localization import localize
from laserberry.pcdio import read_pcd, write_pcd
from laserberry.pipeline import simulate_scenario
from laserberry.scenario import bundled_scenario_path, load_scenario
from laserberry.scene import generate_scene

import checks
from tracing import Tracer, traced_localize

#: Gantry speed bracket of ``demos/calibrate_gantry_speed.py``, m/s.
SPEED_BRACKET = (0.05, 0.50)


class Workload:
    """Pool of seeded inputs plus the operation and its output check."""

    name = ""
    #: Percentile reported as the tail; ``min_ops`` keeps at least ten
    #: samples beyond it in every full run.
    tail_pct = 50.0
    min_ops = 1
    #: Default-seed CLI cases whose output digests are checked.
    reference_cases: tuple[str, ...] = ()
    #: Reference kernel parts (see ``run.make_reference_kernel``): the
    #: kind of work the operation spends its time on.
    kernel_parts: tuple[str, ...] = ("interpreter", "array")

    def __init__(self, seed: int, quick: bool, tracer: Tracer, work: Path):
        self.rng = np.random.default_rng(seed)
        self.quick = quick
        self.tracer = tracer
        self.work = work
        self.pool: list = []

    def _scenario_seeds(self, n: int) -> list[int]:
        return [int(s) for s in self.rng.integers(0, 2**31 - 1, size=n)]

    def _load(self, name: str):
        with self.tracer.span("scenario.load"):
            return load_scenario(bundled_scenario_path(name))

    def _generate(self, scenario):
        with self.tracer.span("scene.generate"):
            cloud1, cloud2, truth = generate_scene(scenario)
        self.tracer.count("scene.points", len(cloud1) + len(cloud2))
        self.tracer.count("scene.scenes", 1)
        return cloud1, cloud2, truth

    def _first_localize(self, scenario, cloud1, cloud2):
        with self.tracer.span("localization.first_call"):
            localize(cloud1, cloud2, scenario.camera_1, scenario.camera_2,
                     scenario.localization)

    def setup(self) -> None:
        """Build the pool, make the first call and warm up."""
        raise NotImplementedError

    def run(self, item: int, traced: bool):
        """One operation on pool entry ``item``: returns (output, parts),
        where ``parts`` holds sub-timings and simulated seconds."""
        raise NotImplementedError

    def check(self, item: int, output) -> list[str]:
        raise NotImplementedError

    def fingerprint(self, output):
        """A value equal for bit-identical outputs of one input."""
        raise NotImplementedError

    def warm_up(self, items: list[int], min_runs: int, window: int,
                tol: float = 0.25, max_runs: int = 40) -> None:
        """Run until the last ``window`` timings agree within ``tol`` of
        their median, after at least ``min_runs`` runs."""
        if self.quick:
            min_runs = max_runs = 1
        times: list[float] = []
        while len(times) < max_runs:
            item = items[len(times) % len(items)]
            t0 = perf_counter()
            self.run(item, traced=False)
            times.append(perf_counter() - t0)
            if len(times) >= max(min_runs, window):
                last = times[-window:]
                if (max(last) - min(last)) <= tol * statistics.median(last):
                    break

    def summary(self, ops, op_time: dict) -> dict[str, tuple[float, str]]:
        """Workload-specific end-to-end figures under their own names;
        ``op_time`` holds the median and tail of the whole operation, s."""
        return {}


def _no_span(name):
    return contextlib.nullcontext()


def _localize(tracer, traced, cloud1, cloud2, scenario):
    args = (cloud1, cloud2, scenario.camera_1, scenario.camera_2, scenario.localization)
    return traced_localize(tracer, *args) if traced else localize(*args)


def _boxes_fingerprint(boxes):
    return tuple((b.rank, b.point_count, b.centroid.tobytes(), b.box.min.tobytes(),
                  b.box.max.tobytes()) for b in boxes)


class DenseFrames(Workload):
    name = "dense_frames"
    tail_pct = 95.0
    min_ops = 200
    reference_cases = ("perf_300k",)
    pool_size = 4

    def setup(self):
        base = self._load("perf_300k")
        seeds = self._scenario_seeds(1 if self.quick else self.pool_size)
        for s in seeds:
            scenario = dataclasses.replace(base, seed=s)
            self.pool.append((scenario, *self._generate(scenario)))
        self._first_localize(*self.pool[0][:3])
        self.warm_up(list(range(len(self.pool))), min_runs=2 * len(self.pool), window=3)

    def run(self, item, traced):
        scenario, cloud1, cloud2, _ = self.pool[item]
        return _localize(self.tracer, traced, cloud1, cloud2, scenario), {}

    def check(self, item, boxes):
        scenario, _, _, truth = self.pool[item]
        return checks.check_boxes(boxes, truth.berry_centers, scenario.localization.reduced_window)

    def fingerprint(self, boxes):
        return _boxes_fingerprint(boxes)

    def summary(self, ops, op_time):
        return {"frame_ms": (op_time["median"] * 1e3, "ms"),
                "frame_tail_ms": (op_time["tail"] * 1e3, "ms")}


class HarvestSweep(Workload):
    name = "harvest_sweep"
    tail_pct = 75.0
    min_ops = 40
    reference_cases = ("demo_11", "demo_overreach")
    kernel_parts = ("interpreter", "objects")
    #: Speed strata; every ``overreach_every``-th entry is demo_overreach.
    pool_size = 8
    overreach_every = 4

    def setup(self):
        bases = {name: self._load(name) for name in ("demo_11", "demo_overreach")}
        n = 2 if self.quick else self.pool_size
        lo, hi = SPEED_BRACKET
        # one speed per stratum of the bracket, so every pool spans it evenly
        speeds = lo + (np.arange(n) + self.rng.uniform(size=n)) * (hi - lo) / n
        self.unreachable = []
        for k, (s, v) in enumerate(zip(self._scenario_seeds(n), self.rng.permutation(speeds))):
            base = bases["demo_overreach" if k % self.overreach_every == 1 else "demo_11"]
            gantry = dataclasses.replace(base.gantry, max_velocity=float(v))
            self.pool.append(dataclasses.replace(base, seed=s, gantry=gantry))
            self.unreachable.append(self._unreachable_ranks(self.pool[-1]))
        first = self.pool[0]
        self._first_localize(first, *self._generate(first)[:2])
        self.warm_up([0], min_runs=2, window=2, max_runs=5)

    @staticmethod
    def _unreachable_ranks(scenario) -> set[int]:
        centers = np.array([b.center for b in scenario.berries])
        g = scenario.gantry
        return {rank for rank, i in enumerate(
                    checks.expected_berries(centers, scenario.localization.reduced_window))
                if not (g.x_limits[0] <= centers[i, 0] <= g.x_limits[1]
                        and g.y_limits[0] <= centers[i, 1] <= g.y_limits[1])}

    def run(self, item, traced):
        result = simulate_scenario(self.pool[item])
        return result, {"simulated_s": sum(r.cycle_time_s for r in result.metrics.records)}

    def check(self, item, result):
        scenario = self.pool[item]
        return (checks.check_cycles(result.metrics, self.unreachable[item])
                + checks.check_boxes(result.boxes, result.truth.berry_centers,
                                     scenario.localization.reduced_window))

    def fingerprint(self, result):
        return hashlib.sha256(result.metrics.to_csv().encode()).hexdigest()

    def summary(self, ops, op_time):
        host = sum(o.seconds for o in ops)
        return {"harvest_s": (op_time["median"], "s"),
                "harvest_tail_s": (op_time["tail"], "s"),
                "sim_rtf": (sum(o.parts["simulated_s"] for o in ops) / host, "ratio")}


class PcdCapture(Workload):
    name = "pcd_capture"
    tail_pct = 90.0
    min_ops = 100
    reference_cases = ("capture",)
    kernel_parts = ("text",)
    pool_size = 4

    def setup(self):
        base = self._load("demo_11")
        for s in self._scenario_seeds(1 if self.quick else self.pool_size):
            scenario = dataclasses.replace(base, seed=s)
            self.pool.append((scenario, *self._generate(scenario)))
        self.paths = (self.work / "camera1.pcd", self.work / "camera2.pcd")
        self._first_localize(*self.pool[0][:3])
        self.warm_up(list(range(len(self.pool))), min_runs=len(self.pool), window=3)

    def run(self, item, traced):
        scenario, cloud1, cloud2, _ = self.pool[item]
        span = self.tracer.span if traced else _no_span
        t0 = perf_counter()
        for cloud, path in zip((cloud1, cloud2), self.paths):
            with span("pcdio.write"):
                write_pcd(cloud, path)
        t1 = perf_counter()
        read = []
        for path in self.paths:
            with span("pcdio.read"):
                read.append(read_pcd(path))
        boxes = _localize(self.tracer, traced, read[0], read[1], scenario)
        t2 = perf_counter()
        if traced:
            self.tracer.count("pcdio.rows", len(cloud1) + len(cloud2))
            self.tracer.count("pcdio.bytes", sum(os.path.getsize(p) for p in self.paths))
        return (read[0], read[1], boxes), {"export_s": t1 - t0, "capture_s": t2 - t1}

    def check(self, item, output):
        scenario, cloud1, cloud2, truth = self.pool[item]
        read1, read2, boxes = output
        return (checks.check_round_trip(cloud1, read1) + checks.check_round_trip(cloud2, read2)
                + checks.check_boxes(boxes, truth.berry_centers, scenario.localization.reduced_window))

    def fingerprint(self, output):
        return _boxes_fingerprint(output[2])

    def summary(self, ops, op_time):
        capture = [o.parts["capture_s"] * 1e3 for o in ops]
        return {"export_ms": (statistics.median(o.parts["export_s"] for o in ops) * 1e3, "ms"),
                "capture_to_boxes_ms": (statistics.median(capture), "ms"),
                "capture_tail_ms": (float(np.percentile(capture, self.tail_pct)), "ms")}


WORKLOADS = {w.name: w for w in (DenseFrames, HarvestSweep, PcdCapture)}
