"""The two reaches of the grid clustering, and the sort that boxes its labels.

Reach 1 links cells one apart. Reach 2 tests cells two apart, and only in
the 2x2x2-cell blocks that lie beside a block of another component. The
clouds here put blob pairs at gaps straddling the tolerance, and one and
two cells apart, across odd and even block edges, and compare the result
with the pair route and the union-find oracle of ``test_clustering``. The
fruit rows of the bundled dense scenes must never need reach 2.
"""

import tracemalloc

import numpy as np
import pytest

from laserberry import localization
from laserberry.localization import ClusterParams
from laserberry.scenario import bundled_scenario_path, load_scenario
from laserberry.scene import generate_scene
from test_clustering import _check

DIRECTIONS = [(1, 0, 0), (0, 1, 0), (0, 0, 1), (1, 1, 0), (0, 1, -1), (1, -1, 1)]


def _count_reach_two(monkeypatch):
    """Cells handed to reach 2, one entry per call."""
    cells = []
    original = localization._cell_pairs

    def counting(keys, stride, reach):
        if reach == 2:
            cells.append(len(keys))
        return original(keys, stride, reach)

    monkeypatch.setattr(localization, "_cell_pairs", counting)
    return cells


def _blob_pairs(tol, parity, rng):
    """Pairs of three-point blobs, each pair 12 cells from the next along x.

    A point at the origin pins the grid, so a point at ``x`` lies in cell
    ``floor(x / side) + 2`` along each axis, and cells 2k and 2k + 1 share a
    block. The first blob of each pair sits at a cell of the given parity, at
    the start, middle or end of it; the second lies one or two cells, or
    just under or over the tolerance, away in one of six directions.
    """
    side = tol * localization._CELL_SIDE
    gaps = [side, 2 * side, 0.99 * tol, 0.999 * tol, 1.001 * tol, 1.01 * tol]
    rows = [np.zeros((1, 3))]
    at = 8
    for direction in DIRECTIONS:
        unit = np.array(direction) / np.linalg.norm(direction)
        for gap in gaps:
            for frac in (0.02, 0.5, 0.98):
                first = (np.array([at, 8, 8]) + parity + frac) * side
                second = first + gap * unit
                for center in (first, second):
                    rows.append(center + rng.uniform(-0.01, 0.01, size=(3, 3)) * side)
                at += 12
    return np.vstack(rows)


@pytest.mark.parametrize("tol", [0.01, 0.0137])
@pytest.mark.parametrize("parity", [0, 1])
def test_blob_pairs_across_block_edges_match_both_oracles(monkeypatch, tol, parity):
    xyz = _blob_pairs(tol, parity, np.random.default_rng(31 + parity))
    reached = _count_reach_two(monkeypatch)
    got = _check(xyz, ClusterParams(tolerance=tol, min_size=1, max_size=len(xyz)))
    pairs = (len(xyz) - 1) // 6
    joined = sum(len(g) == 6 for g in got)
    # each pair either joins or stays two blobs; both outcomes occur, and
    # the pairs two cells apart can only join in reach 2
    assert sorted({len(g) for g in got}) == [1, 3, 6]
    assert 0 < joined < pairs and len(got) == 1 + joined + 2 * (pairs - joined)
    assert sum(reached) > 0


@pytest.mark.parametrize("name", ["demo_11", "perf_300k"])
def test_bundled_fruit_rows_never_enter_reach_two(monkeypatch, name):
    scenario = load_scenario(bundled_scenario_path(name))
    cloud_1, cloud_2, _ = generate_scene(scenario)
    xyz, _ = localization._fruit_rows(cloud_1, cloud_2, scenario.camera_1,
                                      scenario.camera_2, scenario.localization)
    reached = _count_reach_two(monkeypatch)
    labels = localization._component_labels(xyz, scenario.localization.cluster.tolerance)
    assert labels.max() + 1 >= 11 and reached == []


def test_pick_runs_orders_tied_labels_by_row(monkeypatch):
    # more than 2**16 distinct labels, each held by one to four rows in
    # shuffled order: the runs must keep the rows of each label ascending
    rng = np.random.default_rng(16)
    labels = rng.permutation(np.repeat(np.arange(70_000), rng.integers(1, 5, size=70_000)))
    monkeypatch.setattr(localization, "_component_labels", lambda xyz, tol: labels)
    xyz = rng.uniform(-1.0, 1.0, size=(len(labels), 3))
    _, size, _, order, start = localization._pick_runs(xyz, ClusterParams(min_size=1))
    np.testing.assert_array_equal(order, np.argsort(labels, kind="stable"))
    np.testing.assert_array_equal(start, np.cumsum(size) - size)
    tied = np.array([2, 0, 2, 1, 0, 2, 1])
    monkeypatch.setattr(localization, "_component_labels", lambda xyz, tol: tied)
    order = localization._pick_runs(xyz[:7], ClusterParams(min_size=1))[3]
    assert order.tolist() == [1, 4, 3, 6, 0, 2, 5]


def test_a_sparse_cloud_is_labelled_in_under_eight_times_its_size():
    # nearly every cell is its own 2x2x2 block: the block test's arrays are
    # cell-length, so the points' own grid coordinates must be gone by then
    xyz = np.random.default_rng(0).uniform(0, 3, (200_000, 3))
    tracemalloc.start()
    try:
        labels = localization._grid_labels(xyz, 0.01)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert len(np.unique(labels)) > 190_000
    assert peak < 8 * xyz.nbytes, f"peak {peak / xyz.nbytes:.2f}x the input"
