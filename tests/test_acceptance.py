"""Acceptance criteria, one test per criterion.

Run ``pytest -v tests/test_acceptance.py`` to get one pass/fail line per
criterion; each test also prints the measured number it gated on.
"""

import dataclasses
import time

import numpy as np
import pytest

from laserberry import (CutModel, EtchState, GantrySim, KdTree, PointCloud,
                        cut_time, etch_step, load_datasets, load_scenario,
                        localize, optimal_spot, run_demo, verify_tables)
from laserberry.controller import FAIL_TRAP
from laserberry.gantry import AxisState, MotionProfile
from laserberry.localization import ClusterParams, euclidean_clusters
from laserberry.pipeline import cut_model_for, simulate_scenario
from laserberry.scenario import bundled_scenario_path
from laserberry.scene import apply_color_gain, generate_scene, make_world

DT = 0.001
BENCH_CUT_S = 2.88      # measured mean laser-cut share of a cycle
BENCH_CYCLE_S = 5.56    # measured mean full-cycle cadence


@pytest.fixture(scope="module")
def datasets():
    return load_datasets()


@pytest.fixture(scope="module")
def demo_scenario():
    return load_scenario(bundled_scenario_path("demo_11"))


@pytest.fixture(scope="module")
def demo_scene(demo_scenario):
    return generate_scene(demo_scenario)


@pytest.fixture(scope="module")
def demo_boxes(demo_scenario, demo_scene):
    cloud1, cloud2, _ = demo_scene
    return localize(cloud1, cloud2, demo_scenario.camera_1,
                    demo_scenario.camera_2, demo_scenario.localization)


def test_criterion_01_table_audit(datasets):
    t0 = time.perf_counter()
    audit = verify_tables(datasets, tolerance=0.03)
    elapsed = time.perf_counter() - t0
    assert audit.passed, audit.failures()
    assert elapsed < 1.0
    print(f"criterion 1 PASS: max deviation {audit.max_deviation:.4f} <= 0.03 "
          f"in {elapsed * 1e3:.0f} ms")


def test_criterion_02_optimal_spots(datasets):
    t0 = time.perf_counter()
    fine = optimal_spot(datasets.fine, 0.5, 1.1)
    coarse = optimal_spot(datasets.coarse, 0.09, 3.79)
    elapsed = time.perf_counter() - t0
    assert fine == 0.9
    assert coarse == 0.71
    assert elapsed < 1.0
    print(f"criterion 2 PASS: fine sweep -> {fine} mm, coarse sweep -> "
          f"{coarse} mm in {elapsed * 1e3:.1f} ms")


def test_criterion_03_cut_model(datasets):
    model = CutModel(records=datasets.fine, toughness=1.0)
    predicted = cut_time(2.2, model, 0.9, 50.0)
    assert abs(predicted - BENCH_CUT_S) / BENCH_CUT_S < 0.10
    # stepping the etch integrator at 1 ms reaches severed within one step
    state, t = EtchState.for_stem(2.2), 0.0
    while not state.severed:
        state = etch_step(state, DT, True, model, 0.9, 50.0)
        t += DT
        assert t < 30.0
    assert abs(t - predicted) <= DT + 1e-12
    print(f"criterion 3 PASS: cut_time(2.2 mm) = {predicted:.4f} s "
          f"(bench {BENCH_CUT_S} s), etch sever at {t:.3f} s")


def test_criterion_04_demo_run(demo_scenario):
    t0 = time.perf_counter()
    result = simulate_scenario(demo_scenario)
    elapsed = time.perf_counter() - t0
    m = result.metrics
    assert m.successes == m.attempted == 11
    assert abs(m.mean_cut_s - BENCH_CUT_S) / BENCH_CUT_S < 0.10
    assert abs(m.mean_cycle_s - BENCH_CYCLE_S) / BENCH_CYCLE_S < 0.10
    assert elapsed < 10.0
    print(f"criterion 4 PASS: 11/11 fruit, mean cut {m.mean_cut_s:.3f} s, "
          f"mean cycle {m.mean_cycle_s:.3f} s, wall {elapsed:.2f} s")


def test_criterion_05_localization_accuracy(demo_scenario, demo_scene, demo_boxes):
    cloud1, cloud2, truth = demo_scene
    assert len(demo_boxes) == 11
    ys = [b.centroid[1] for b in demo_boxes]
    assert ys == sorted(ys)
    centers = truth.berry_centers
    order = np.lexsort((centers[:, 0], centers[:, 1]))
    worst = 0.0
    for box, i in zip(demo_boxes, order):
        err = float(np.linalg.norm(np.asarray(box.centroid) - centers[i]))
        worst = max(worst, err)
        assert err <= 0.005
    # a uniform 0.7 brightness gain must not change the result
    dim = localize(apply_color_gain(cloud1, 0.7), apply_color_gain(cloud2, 0.7),
                   demo_scenario.camera_1, demo_scenario.camera_2,
                   demo_scenario.localization)
    assert len(dim) == 11
    for a, b in zip(demo_boxes, dim):
        assert np.allclose(a.centroid, b.centroid, atol=1e-4)
    print(f"criterion 5 PASS: 11 boxes, worst centroid error "
          f"{worst * 1e3:.2f} mm <= 5 mm, gain-0.7 invariant")


def test_criterion_06_localization_speed():
    scenario = load_scenario(bundled_scenario_path("perf_300k"))
    cloud1, cloud2, _ = generate_scene(scenario)
    n = len(cloud1) + len(cloud2)
    assert n >= 300_000
    times = []
    for _ in range(20):
        t0 = time.perf_counter()
        boxes = localize(cloud1, cloud2, scenario.camera_1, scenario.camera_2,
                         scenario.localization)
        times.append(time.perf_counter() - t0)
    median = float(np.median(times))
    assert len(boxes) == 11
    assert median <= 0.100
    print(f"criterion 6 PASS: {n} points localized in median "
          f"{median * 1e3:.1f} ms <= 100 ms over 20 runs")


def test_criterion_07_capture_tolerance(demo_scenario, demo_scene, demo_boxes):
    _, _, truth = demo_scene
    model = cut_model_for(demo_scenario)
    config = demo_scenario.harvest

    def run_shifted(dx):
        sim = GantrySim(demo_scenario.gantry)
        world = make_world(truth)
        for f in world:
            f.x += dx
            f.stem_x += dx
        return run_demo(sim, world, demo_boxes, model, config)

    ok = run_shifted(0.015)
    assert ok.successes == ok.attempted == 11
    missed = run_shifted(0.025)
    assert missed.successes == 0
    assert all(r.failure_reason == FAIL_TRAP for r in missed.records)
    print("criterion 7 PASS: 15 mm offset -> 11/11 captured, "
          "25 mm offset -> trap-miss on every cycle")


def _union_find_clusters(xyz, tol, lo, hi):
    # brute-force pairwise distances, then plain union-find over the edges
    d2 = ((xyz[:, None, :] - xyz[None, :, :]) ** 2).sum(-1)
    ii, jj = np.nonzero(np.triu(d2 <= tol * tol, k=1))
    parent = list(range(len(xyz)))

    def find(i):
        while parent[i] != i:
            parent[i] = parent[parent[i]]
            i = parent[i]
        return i

    for i, j in zip(ii.tolist(), jj.tolist()):
        ri, rj = find(i), find(j)
        if ri != rj:
            parent[ri] = rj
    groups = {}
    for i in range(len(xyz)):
        groups.setdefault(find(i), []).append(i)
    return {frozenset(g) for g in groups.values() if lo <= len(g) <= hi}


def test_criterion_08_spatial_oracles():
    rng = np.random.default_rng(2024)
    # clustering against the quadratic reference on 200 random clouds
    params = ClusterParams(tolerance=0.012, min_size=1, max_size=100_000)
    for trial in range(200):
        n = int(rng.integers(2, 501))
        mix = rng.random()
        blob = rng.normal(scale=0.005, size=(int(n * mix), 3))
        bg = rng.uniform(-0.08, 0.08, size=(n - int(n * mix), 3))
        xyz = np.vstack([blob, bg])
        idx = np.arange(n)
        rgb = np.stack([idx // 256, idx % 256, np.zeros(n, int)], 1).astype(np.uint8)
        got = set()
        for c in euclidean_clusters(PointCloud(xyz, rgb, "harvester-base"), params):
            r = c.rgb.astype(np.int64)
            got.add(frozenset((r[:, 0] * 256 + r[:, 1]).tolist()))
        want = _union_find_clusters(xyz, 0.012, 1, 100_000)
        assert got == want, f"cloud {trial}"
    # radius search against the linear scan on 1000 queries
    checked = 0
    while checked < 1000:
        xyz = rng.uniform(-1, 1, size=(int(rng.integers(1, 800)), 3))
        tree = KdTree(xyz)
        for _ in range(25):
            q = rng.uniform(-1.1, 1.1, size=3)
            r = float(rng.uniform(0, 0.9))
            want = np.flatnonzero(((xyz - q) ** 2).sum(1) <= r * r)
            np.testing.assert_array_equal(tree.radius_search(q, r), want)
            checked += 1
    print("criterion 8 PASS: clustering matched union-find on 200 clouds, "
          f"radius search matched linear scan on {checked} queries")


def test_criterion_09_deterministic_metrics(demo_scenario):
    a = simulate_scenario(demo_scenario).metrics.to_csv().encode()
    b = simulate_scenario(demo_scenario).metrics.to_csv().encode()
    assert a == b
    print(f"criterion 9 PASS: metrics CSV byte-identical across runs "
          f"({len(a)} bytes)")


def test_criterion_10_motion_against_closed_form():
    rng = np.random.default_rng(4096)
    worst = 0.0
    for _ in range(50):
        start = float(rng.uniform(-0.2, 0.2))
        target = float(rng.uniform(-0.24, 0.24))
        v_max = float(rng.uniform(0.05, 0.6))
        a_max = float(rng.uniform(0.5, 4.0))
        axis = AxisState("x", start, (-0.24, 0.24), v_max, a_max)
        axis.command(target, 0.0)
        expected = MotionProfile.plan(start, target, 0.0, v_max, a_max).duration
        t, steps = 0.0, 0
        while not axis.idle:
            t += DT
            axis.advance(t)
            steps += 1
            assert steps < 100_000
        err = abs(steps * DT - expected)
        worst = max(worst, err)
        assert err <= DT + 1e-9
        assert axis.position == target
    print(f"criterion 10 PASS: 50 fuzzed moves, worst timing error "
          f"{worst * 1e3:.2f} ms <= one 1 ms step")
