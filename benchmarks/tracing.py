"""In-memory spans for the traced run, recorded from outside the package.

A span has a name, a start and end (``perf_counter_ns``), the index of its
parent span and an operation id. Calls that happen tens of thousands of
times per operation (``GantrySim.step``, ``CutModel.cp`` ...) are *leaves*:
instead of one span each, they add their count and time to a roll-up kept
on the innermost open span, keyed by the chain of enclosing leaves (so the
time of ``CutModel.cp`` called from ``etch_step`` is kept under
``("laser.etch", "laser.cp")`` and never counted twice).

:func:`instrument` installs the wrappers on the attributes the callers
resolve and removes them on exit; the package source is never edited.
:func:`traced_localize` replays ``localize_clusters`` through its public
stage functions, one span per stage.
"""

from __future__ import annotations

import functools
import json
from collections import defaultdict
from contextlib import contextmanager
from time import perf_counter_ns

import numpy as np
from scipy.sparse import coo_matrix
from scipy.sparse.csgraph import connected_components

from laserberry import controller, gantry, geometry, laser, pipeline
from laserberry.geometry import BASE_FRAME, transform_cloud
from laserberry.localization import (LocalizationConfig, bounding_boxes,
                                     calibration_reference, euclidean_clusters,
                                     extract_window, filter_red, merge_clouds)


class Tracer:
    """Spans, leaf roll-ups and per-operation counters of one run."""

    def __init__(self):
        self.spans: list[list] = []          # [name, start_ns, end_ns, parent, op]
        self.rollups: list[dict] = []        # per span: leaf path -> [count, ns]
        self.counts: dict = defaultdict(lambda: defaultdict(float))
        self.op = "setup"
        self._stack: list[int] = []
        self._leaf_path: tuple[str, ...] = ()
        self._pending_pairs: list[tuple[str, int, np.ndarray]] = []

    @contextmanager
    def span(self, name: str):
        if self._leaf_path:
            raise RuntimeError(f"span {name!r} opened inside leaf {self._leaf_path}")
        parent = self._stack[-1] if self._stack else -1
        idx = len(self.spans)
        record = [name, perf_counter_ns(), 0, parent, self.op]
        self.spans.append(record)
        self.rollups.append({})
        self._stack.append(idx)
        try:
            yield
        finally:
            record[2] = perf_counter_ns()
            self._stack.pop()

    def leaf(self, name: str, fn):
        """Wrap ``fn`` so each call adds to the innermost span's roll-up."""
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            outer = self._leaf_path
            self._leaf_path = path = outer + (name,)
            t0 = perf_counter_ns()
            try:
                return fn(*args, **kwargs)
            finally:
                dt = perf_counter_ns() - t0
                self._leaf_path = outer
                acc = self.rollups[self._stack[-1]].setdefault(path, [0, 0])
                acc[0] += 1
                acc[1] += dt
        return wrapper

    def spanned(self, name: str, fn, after=None):
        """Wrap ``fn`` in a span; ``after(result)`` runs once the span closes."""
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            with self.span(name):
                result = fn(*args, **kwargs)
            if after is not None:
                after(result)
            return result
        return wrapper

    def count(self, name: str, n: float) -> None:
        self.counts[self.op][name] += n

    def defer_components(self, n: int, pairs: np.ndarray) -> None:
        """Keep a pair graph of ``n`` points for :meth:`settle` to count."""
        self._pending_pairs.append((self.op, n, pairs))

    def settle(self) -> None:
        """Count connected components of the pair graphs captured so far.

        Runs between operations, so the graph search adds no time to any
        span.
        """
        for op, n, pairs in self._pending_pairs:
            if len(pairs):
                adj = coo_matrix((np.ones(len(pairs), dtype=np.int8),
                                  (pairs[:, 0], pairs[:, 1])), shape=(n, n))
                components = connected_components(adj, directed=False)[0]
            else:
                components = n
            self.counts[op]["localization.components"] += components
        self._pending_pairs.clear()

    # -- reading the trace ----------------------------------------------------

    def duration(self, idx: int) -> int:
        return self.spans[idx][2] - self.spans[idx][1]

    def op_totals(self) -> dict[str, dict[str, float]]:
        """Per operation: total ns per span name and per leaf name,
        plus ``controller.self`` and ``localization.self``."""
        children: dict[int, int] = defaultdict(int)
        for idx, (_, _, _, parent, _) in enumerate(self.spans):
            if parent >= 0:
                children[parent] += self.duration(idx)
        totals: dict[str, dict[str, float]] = defaultdict(lambda: defaultdict(float))
        for idx, (name, _, _, _, op) in enumerate(self.spans):
            tot = totals[op]
            tot[name] += self.duration(idx)
            tot[name + "#calls"] += 1
            direct_leaves = 0
            for path, (calls, ns) in self.rollups[idx].items():
                tot[path[-1]] += ns
                tot[path[-1] + "#calls"] += calls
                if len(path) == 1:
                    direct_leaves += ns
            if name in ("controller.cycle", "localization.localize"):
                own = name.split(".")[0] + ".self"
                tot[own] += self.duration(idx) - children[idx] - direct_leaves
        return totals

    def nesting_violations(self) -> list[str]:
        """Spans (or leaf totals) whose children took longer than they did."""
        children: dict[int, int] = defaultdict(int)
        for idx, (_, start, end, parent, _) in enumerate(self.spans):
            if end < start:
                return [f"span {idx} ends before it starts"]
            if parent >= 0:
                children[parent] += self.duration(idx)
        bad = []
        for idx, (name, _, _, _, op) in enumerate(self.spans):
            rolled = self.rollups[idx]
            inner = children[idx] + sum(ns for p, (_, ns) in rolled.items() if len(p) == 1)
            if inner > self.duration(idx):
                bad.append(f"{op} {name}: children {inner} ns > span {self.duration(idx)} ns")
            for path, (_, ns) in rolled.items():
                sub = sum(v for p, (_, v) in rolled.items()
                          if len(p) == len(path) + 1 and p[:-1] == path)
                if sub > ns:
                    bad.append(f"{op} {name}/{'/'.join(path)}: children {sub} ns > {ns} ns")
        return bad

    def write_jsonl(self, path) -> None:
        with open(path, "w") as fh:
            for idx, (name, start, end, parent, op) in enumerate(self.spans):
                leaves = {"/".join(p): {"calls": c, "ns": ns}
                          for p, (c, ns) in self.rollups[idx].items()}
                fh.write(json.dumps({"id": idx, "name": name, "start_ns": start,
                                     "end_ns": end, "parent": parent, "op": op,
                                     "leaves": leaves}) + "\n")


def traced_localize(tracer: Tracer, cloud_1, cloud_2, t_base_cam1, t_base_cam2,
                    config: LocalizationConfig | None = None):
    """``localize`` replayed stage by stage, one span per stage.

    Mirrors ``localize_clusters`` followed by ``bounding_boxes``; the
    traced run checks that both give identical boxes.
    """
    cfg = config if config is not None else LocalizationConfig()
    span = tracer.span
    red_parts, kept = [], defaultdict(int)
    with span("localization.localize"):
        for cloud, pose in ((cloud_1, t_base_cam1), (cloud_2, t_base_cam2)):
            with span("geometry.transform"):
                base = transform_cloud(pose, cloud, BASE_FRAME)
            with span("localization.palette_crop"):
                palette = extract_window(base, cfg.palette_window)
            with span("localization.calibrate"):
                ref = calibration_reference(palette, cfg.r_th, cfg.g_th, cfg.b_th)
            with span("localization.reduced_crop"):
                scene = extract_window(base, cfg.reduced_window)
            with span("localization.color_filter"):
                red = filter_red(scene, ref)
            red_parts.append(red)
            kept["points_in"] += len(cloud)
            kept["palette_kept"] += len(palette)
            kept["reduced_kept"] += len(scene)
            kept["red_kept"] += len(red)
        with span("localization.merge"):
            merged = merge_clouds(red_parts[0], red_parts[1])
        with span("localization.cluster"):
            clusters = euclidean_clusters(merged, cfg.cluster)
        with span("localization.box"):
            boxes = bounding_boxes(clusters)
    for name, n in kept.items():
        tracer.count("localization." + name, n)
    tracer.count("localization.merged", len(merged))
    tracer.count("localization.clusters_kept", len(clusters))
    return boxes


@contextmanager
def instrument(tracer: Tracer):
    """Install tracing wrappers on the package for the duration of the block."""
    def pairs_within(tree, radius):
        with tracer.span("geometry.pair_query"):
            pairs = orig_pairs(tree, radius)
        tracer.count("geometry.pairs", len(pairs))
        tracer.defer_components(len(tree), pairs)
        return pairs

    def generate_scene(scenario):
        with tracer.span("pipeline.generate"), tracer.span("scene.generate"):
            result = orig_generate(scenario)
        tracer.count("scene.points", len(result[0]) + len(result[1]))
        tracer.count("scene.scenes", 1)
        return result

    def localize(*args, **kwargs):
        with tracer.span("pipeline.localize"):
            return traced_localize(tracer, *args, **kwargs)

    def after_demo(metrics):
        tracer.count("controller.simulated_s", sum(r.cycle_time_s for r in metrics.records))
        tracer.count("controller.successes", metrics.successes)
        tracer.count("controller.attempted", metrics.attempted)

    orig_pairs = geometry.KdTree.pairs_within
    orig_generate = pipeline.generate_scene
    patches = [
        (geometry.KdTree, "pairs_within", pairs_within),
        (gantry.GantrySim, "step", tracer.leaf("gantry.step", gantry.GantrySim.step)),
        (gantry.GantrySim, "command_move",
         tracer.leaf("gantry.move", gantry.GantrySim.command_move)),
        (controller, "check_interrupters",
         tracer.leaf("gantry.interrupter", controller.check_interrupters)),
        (controller, "etch_step", tracer.leaf("laser.etch", controller.etch_step)),
        (laser.CutModel, "cp", tracer.leaf("laser.cp", laser.CutModel.cp)),
        (controller, "run_cycle", tracer.spanned("controller.cycle", controller.run_cycle)),
        (pipeline, "load_datasets", tracer.spanned("datasets.load", pipeline.load_datasets)),
        (pipeline, "generate_scene", generate_scene),
        (pipeline, "localize", localize),
        (pipeline, "run_demo", tracer.spanned("pipeline.run_demo", pipeline.run_demo,
                                              after=after_demo)),
    ]
    saved = [(owner, attr, owner.__dict__[attr]) for owner, attr, _ in patches]
    try:
        for owner, attr, wrapper in patches:
            setattr(owner, attr, wrapper)
        yield
    finally:
        for owner, attr, original in saved:
            setattr(owner, attr, original)
