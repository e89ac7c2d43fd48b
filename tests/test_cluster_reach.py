"""The two reaches of the grid clustering, and the sort that boxes its labels.

Reach 1 links cells one apart. Reach 2 tests cells two apart, and only in
the 2x2x2-cell blocks that lie beside a block of another component. The
clouds here put blob pairs at gaps straddling the tolerance, and one and
two cells apart, across odd and even block edges, and compare the result
with the pair route and the union-find oracle of ``test_clustering``. The
fruit rows of the bundled dense scenes must never need reach 2. Before the
block search, the cell boxes of the components are compared: two lattices
whose boxes lie three cells apart skip it, two cells apart do not.
"""

import itertools
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


def _forward_pairs(q, reach):
    """Every pair ``i < j`` of the cells ``q`` (sorted by key) at most ``reach``
    apart on every axis, as ``i * n + j``, by comparing every cell with every other."""
    n = q.shape[1]
    found = []
    for lo in range(0, n, 512):
        i, j = np.nonzero(np.abs(q[:, lo:lo + 512, None] - q[:, None]).max(axis=0) <= reach)
        found.append((i + lo) * n + j)
    found = np.concatenate(found)
    return np.sort(found[found // n < found % n])


@pytest.mark.parametrize("cells, block", [(4500, None), (600, 7), (40, 1)])
@pytest.mark.parametrize("reach", [1, 2])
def test_cell_pairs_are_every_forward_pair_within_reach(monkeypatch, cells, block, reach):
    # keys drawn from a padded grid, its eight inner corners always among them, so
    # that the searches run to the grid edge and across _CELL_BLOCK seams
    if block is not None:
        monkeypatch.setattr(localization, "_CELL_BLOCK", block)
    pad = localization._REACH
    rng = np.random.default_rng(cells + reach)
    dims = np.array([20, 16, 18]) + 2 * pad
    inner = np.array(list(np.ndindex(*(dims - 2 * pad)))).T + pad
    corners = [(x, y, z) for x in (pad, dims[0] - 1 - pad) for y in (pad, dims[1] - 1 - pad)
               for z in (pad, dims[2] - 1 - pad)]
    pick = rng.choice(inner.shape[1], size=cells, replace=False)
    q = np.unique(np.hstack([inner[:, pick], np.array(corners).T]), axis=1)
    stride = np.array([dims[1] * dims[2], dims[2], 1])
    key = stride @ q
    order = np.argsort(key)
    key, q = key[order], q[:, order]
    got = [a * len(key) + b for a, b in localization._cell_pairs(key, stride, reach)]
    assert len(got) == -(-len(key) // localization._CELL_BLOCK)
    got = np.sort(np.concatenate(got))
    assert (got // len(key) < got % len(key)).all() and (np.diff(got) > 0).all()
    np.testing.assert_array_equal(got, _forward_pairs(q, reach))


def _two_lattices(axis, apart, frac, tol):
    """Two lattices of points 0.5 cells apart, each three cells wide per axis. A
    point at the origin pins the grid; the second lattice's first cell along
    ``axis`` lies ``apart`` cells past the first's last, ``frac`` cells into it."""
    side = tol * localization._CELL_SIDE
    ticks = np.arange(0.0, 2.6, 0.5)
    first = np.array(list(itertools.product(ticks, repeat=3))) * side
    second = first.copy()
    second[:, axis] += (2 + apart + frac) * side
    return np.vstack([first, second])


def _record_touching(monkeypatch):
    """The cells each :func:`_touching` call returns, and every ``_cell_pairs`` reach."""
    touched, reaches = [], []
    touching, cell_pairs = localization._touching, localization._cell_pairs

    def recording_touching(*args):
        touched.append(touching(*args))
        return touched[-1]

    def recording_cell_pairs(keys, stride, reach):
        reaches.append(reach)
        return cell_pairs(keys, stride, reach)

    monkeypatch.setattr(localization, "_touching", recording_touching)
    monkeypatch.setattr(localization, "_cell_pairs", recording_cell_pairs)
    return touched, reaches


@pytest.mark.parametrize("axis", [0, 1, 2])
@pytest.mark.parametrize("frac, joined", [(0.02, True), (0.9, False)])
def test_boxes_two_cells_apart_are_searched(monkeypatch, axis, frac, joined):
    # the nearest points lie 1.52 or 2.4 cells (0.88 or 1.39 tolerances) apart
    tol = 0.01
    xyz = _two_lattices(axis, 2, frac, tol)
    touched, reaches = _record_touching(monkeypatch)
    got = _check(xyz, ClusterParams(tolerance=tol, min_size=1, max_size=len(xyz)))
    assert len(got) == (1 if joined else 2)
    assert len(touched) == 1 and len(touched[0]) > 0 and 2 in reaches


@pytest.mark.parametrize("axis", [0, 1, 2])
def test_boxes_three_cells_apart_are_skipped(monkeypatch, axis):
    # the first lattice ends in an even cell, so the blocks of the two lattices
    # are neighbours: only the box comparison can tell that they cannot meet
    tol = 0.01
    xyz = _two_lattices(axis, 3, 0.02, tol)
    touched, reaches = _record_touching(monkeypatch)
    got = _check(xyz, ClusterParams(tolerance=tol, min_size=1, max_size=len(xyz)))
    assert len(got) == 2
    assert len(touched) == 1 and len(touched[0]) == 0 and reaches == [1]


def test_more_components_than_the_box_gate_apart_along_x_skip_the_block_search(monkeypatch):
    # too many components to compare boxes pairwise, but no two have cells
    # within two of each other along x
    count = localization._BOX_GATE + 16
    side = 0.01 * localization._CELL_SIDE
    xyz = np.repeat(np.arange(count) * 4.0 * side, 8)[:, None] + np.array(
        list(itertools.product((0.1, 0.6), repeat=3)) * count) * side
    touched, reaches = _record_touching(monkeypatch)
    got = _check(xyz, ClusterParams(tolerance=0.01, min_size=1, max_size=len(xyz)))
    assert len(got) == count
    assert [len(t) for t in touched] == [0] and reaches == [1]


@pytest.mark.parametrize("name", ["demo_11", "perf_300k"])
def test_bundled_fruit_rows_need_no_block_search(monkeypatch, name):
    scenario = load_scenario(bundled_scenario_path(name))
    cloud_1, cloud_2, _ = generate_scene(scenario)
    xyz, _ = localization._fruit_rows(cloud_1, cloud_2, scenario.camera_1,
                                      scenario.camera_2, scenario.localization)
    touched, reaches = _record_touching(monkeypatch)
    localization._component_labels(xyz, scenario.localization.cluster.tolerance)
    assert [len(t) for t in touched] == [0] and reaches == [1]
