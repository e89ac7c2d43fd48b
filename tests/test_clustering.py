"""Grid clustering against two references, on edge cases and under a memory cap.

``euclidean_clusters`` must return exactly what the pair route returns:
every linked pair from scipy's ``cKDTree.query_pairs``, sparse connected
components, the size band, then the order of the (y, x) centroids that
:func:`bounding_boxes` reports (same clusters, same point order).
Membership is also checked against the O(n^2) union-find oracle of
criterion 8. Each point's index is written into its colour so
a cluster can be mapped back to input rows.
"""

import tracemalloc

import numpy as np
import pytest
from scipy.sparse import coo_matrix
from scipy.sparse.csgraph import connected_components
from scipy.spatial import cKDTree

from laserberry import localization
from laserberry.geometry import PointCloud
from laserberry.localization import ClusterParams, bounding_boxes, euclidean_clusters
from test_acceptance import _union_find_clusters


def _cloud(xyz):
    n = len(xyz)
    idx = np.arange(n)
    rgb = np.stack([idx // 65536, idx // 256 % 256, idx % 256], axis=1)
    return PointCloud(xyz, rgb.astype(np.uint8), "harvester-base")


def _indices(cluster):
    r = cluster.rgb.astype(np.int64)
    return r[:, 0] * 65536 + r[:, 1] * 256 + r[:, 2]


def _pair_route(xyz, params):
    """Clusters as index arrays, computed from every linked pair."""
    n = len(xyz)
    pairs = cKDTree(xyz).query_pairs(params.tolerance, output_type="ndarray")
    adj = coo_matrix((np.ones(len(pairs), dtype=np.int8), (pairs[:, 0], pairs[:, 1])),
                     shape=(n, n))
    labels = connected_components(adj, directed=False)[1]
    groups = [np.flatnonzero(labels == lab) for lab in range(labels.max() + 1)]
    groups = [g for g in groups if params.min_size <= len(g) <= params.max_size]
    # the groups come in first-index order, which the stable sort keeps on (y, x) ties
    boxes = bounding_boxes([_cloud(xyz[g]) for g in groups])
    keys = [(b.centroid[1], b.centroid[0]) for b in boxes]
    return [groups[k] for k in sorted(range(len(groups)), key=keys.__getitem__)]


def _check(xyz, params, oracle=True):
    got = [_indices(c) for c in euclidean_clusters(_cloud(xyz), params)]
    want = _pair_route(xyz, params)
    assert len(got) == len(want)
    for g, w in zip(got, want):
        np.testing.assert_array_equal(g, w)
    if oracle:
        with np.errstate(over="ignore"):
            uf = _union_find_clusters(xyz, params.tolerance, params.min_size,
                                      params.max_size)
        assert {frozenset(g.tolist()) for g in got} == uf
    return got


def _fuzz_cloud(rng, tol, n):
    """Blobs a few tolerances wide over a sparse background, offset far
    from the origin (often to negative coordinates)."""
    k = int(rng.integers(1, 6))
    centers = rng.uniform(-20 * tol, 20 * tol, size=(k, 3))
    blob = centers[rng.integers(0, k, size=n // 2)] + rng.normal(scale=0.6 * tol,
                                                                 size=(n // 2, 3))
    bg = rng.uniform(-25 * tol, 25 * tol, size=(n - n // 2, 3))
    offset = rng.choice([0.0, -1.0, 1.0]) * 10 ** rng.uniform(0, 5, size=3)
    return np.vstack([blob, bg]) + offset


@pytest.mark.parametrize("cell_block,pair_chunk", [(None, None), (7, 5)])
def test_grid_matches_pair_route_and_oracle_fuzz(monkeypatch, cell_block, pair_chunk):
    # the small blocks split the neighbour lookup and the exhaustive pair
    # tests the way a cloud of thousands of cells would
    if cell_block is not None:
        monkeypatch.setattr(localization, "_CELL_BLOCK", cell_block)
        monkeypatch.setattr(localization, "_PAIR_CHUNK", pair_chunk)
    rng = np.random.default_rng(8080)
    for trial in range(120):
        tol = float(np.exp(rng.uniform(np.log(0.003), np.log(0.3))))
        n = int(rng.integers(2, 400))
        xyz = _fuzz_cloud(rng, tol, n)
        lo = int(rng.integers(1, 4))
        params = ClusterParams(tolerance=tol, min_size=lo,
                               max_size=int(rng.integers(lo, n + 2)))
        _check(xyz, params)


def test_single_point_duplicates_and_tolerance_wider_than_cloud():
    params = ClusterParams(tolerance=0.01, min_size=1, max_size=10_000)
    assert [g.tolist() for g in _check(np.array([[-3.0, 2.0, 1e4]]), params)] == [[0]]
    rng = np.random.default_rng(5)
    dup = np.repeat(rng.uniform(-1, 1, size=(4, 3)), 50, axis=0)
    got = _check(dup[rng.permutation(len(dup))], params)
    assert sorted(len(g) for g in got) == [50, 50, 50, 50]
    cloud = rng.uniform(-0.05, 0.05, size=(300, 3))
    got = _check(cloud, ClusterParams(tolerance=0.3, min_size=1, max_size=10_000))
    assert [len(g) for g in got] == [300]


def test_exact_tolerance_distance_links():
    # a pair exactly `tol` apart along an axis, and one a hair further
    tol = 0.25
    xyz = np.array([[0.0, 0.0, 0.0], [tol, 0.0, 0.0], [0.0, 0.0, 2.0],
                    [np.nextafter(tol, 1.0), 0.0, 2.0]])
    got = _check(xyz, ClusterParams(tolerance=tol, min_size=1, max_size=10))
    assert sorted(g.tolist() for g in got) == [[0, 1], [2], [3]]


def _count_grid_calls(monkeypatch):
    calls = []
    original = localization._grid_labels

    def counting(xyz, tol):
        calls.append(len(xyz))
        return original(xyz, tol)

    monkeypatch.setattr(localization, "_grid_labels", counting)
    return calls


def test_extreme_extent_is_cut_at_gaps(monkeypatch):
    # points near +-1e300: no int64 cell key fits, and the differences
    # overflow, so the cloud is cut into slabs, each far one holding one x
    rng = np.random.default_rng(77)
    near = rng.normal(scale=0.004, size=(60, 3))
    far = np.array([[1e300, -1e300, 5e299], [1e300, -1e300, 5e299],
                    [-1e300, 1e300, -1e300], [1.7e308, -1.7e308, 0.0],
                    [1e300, -1e300, 5e299 + 1e284]])
    xyz = np.vstack([near, far, near[:5] - 1e300])
    params = ClusterParams(tolerance=0.01, min_size=1, max_size=1000)
    assert localization._grid_labels(xyz, params.tolerance) is None
    calls = _count_grid_calls(monkeypatch)
    got = [_indices(c) for c in euclidean_clusters(_cloud(xyz), params)]
    assert calls[0] == len(xyz) and len(calls) <= 12
    with np.errstate(over="ignore", invalid="ignore"):
        uf = _union_find_clusters(xyz, params.tolerance, 1, 1000)
    assert {frozenset(g.tolist()) for g in got} == uf
    assert frozenset({60, 61}) in uf
    # a wide but ordinary cloud stays on one grid
    wide = np.vstack([near, near + 3000.0])
    assert localization._grid_labels(wide, params.tolerance) is not None


def test_tolerance_whose_square_overflows_links_every_pair():
    # tol * tol is inf, so by the rule every pair is linked however far apart;
    # the x extent overflows the grid, and the slab width overflows too
    xyz = np.array([[-1.7e308, 0.0, 0.0], [1.7e308, 0.0, 0.0], [0.0, 1e300, 0.0]])
    params = ClusterParams(tolerance=1e303, min_size=1, max_size=10)
    with np.errstate(over="ignore"):
        assert _union_find_clusters(xyz, params.tolerance, 1, 10) == {frozenset({0, 1, 2})}
    got = euclidean_clusters(_cloud(xyz), params)
    assert [_indices(c).tolist() for c in got] == [[0, 1, 2]]


def test_gap_free_run_too_wide_for_the_grid_is_cut_into_slabs(monkeypatch):
    # such a run needs about a million points at the real grid limit; a
    # tiny limit makes an ordinary cloud exercise the same routes
    monkeypatch.setattr(localization, "_MAX_CELLS", 16)
    rng = np.random.default_rng(12)
    chain = rng.uniform(0.0, 0.003, size=(200, 3))
    chain[:, 0] = np.cumsum(rng.uniform(0.001, 0.008, size=200))
    params = ClusterParams(tolerance=0.01, min_size=1, max_size=1000)
    calls = _count_grid_calls(monkeypatch)
    euclidean_clusters(_cloud(chain), params)
    # the chain misses the grid once; its overlapping slabs cover every point
    assert calls[0] == 200 and max(calls[1:]) < 200 and sum(calls[1:]) >= 200
    assert len(_check(chain, params)) == 1
    for trial in range(40):
        tol = float(np.exp(rng.uniform(np.log(0.003), np.log(0.3))))
        n = int(rng.integers(2, 300))
        _check(_fuzz_cloud(rng, tol, n), ClusterParams(tolerance=tol, min_size=1,
                                                       max_size=n))


def test_chain_with_many_gaps_takes_few_grid_calls(monkeypatch):
    # about half the gaps exceed the tolerance: cutting at each of them would
    # label ~1,900 runs one grid call at a time, while the chain spans four slabs
    monkeypatch.setattr(localization, "_MAX_CELLS", 2 ** 12)
    rng = np.random.default_rng(12)
    chain = rng.uniform(0.0, 0.003, size=(4000, 3))
    chain[:, 0] = np.cumsum(rng.uniform(0.001, 0.0185, size=4000))
    params = ClusterParams(tolerance=0.01, min_size=1, max_size=4000)
    calls = _count_grid_calls(monkeypatch)
    got = _check(chain, params, oracle=False)
    assert len(calls) <= 8
    assert sum(len(g) for g in got) == 4000


def test_parallel_sheets_phase_two_is_chunked(monkeypatch):
    tol = 0.01
    g = np.arange(100) * 0.002
    x, y = (a.ravel() for a in np.meshgrid(g, g))
    rng = np.random.default_rng(3)
    sheet = np.stack([x, y, np.zeros_like(x)], axis=1)
    sheet[:, :2] += rng.uniform(-2e-4, 2e-4, size=(len(sheet), 2))
    xyz = np.vstack([sheet, sheet + [0.0, 0.0, 1.05 * tol]])
    cloud = _cloud(xyz)
    params = ClusterParams(tolerance=tol, min_size=1, max_size=100_000)

    tested = []
    original = localization._any_pair_within

    def counting(xs, start, count, a, b, tol):
        tested.append(int((count[a] * count[b]).sum()))
        return original(xs, start, count, a, b, tol)

    monkeypatch.setattr(localization, "_any_pair_within", counting)
    tracemalloc.start()
    try:
        clusters = euclidean_clusters(cloud, params)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert sum(tested) > 1_000_000
    assert peak < 64 * 2 ** 20, f"peak {peak / 2 ** 20:.1f} MB"
    assert [len(c) for c in clusters] == [10_000, 10_000]
    want = _pair_route(xyz, params)
    for c, w in zip(clusters, want):
        np.testing.assert_array_equal(_indices(c), w)


@pytest.mark.parametrize("tol", [0.003, 0.3])
def test_dense_surfaces_match_pair_route(tol):
    # a dense berry-like surface: many points per cell, few cells
    rng = np.random.default_rng(int(tol * 1000))
    d = rng.normal(size=(3000, 3))
    xyz = 0.012 * d / np.linalg.norm(d, axis=1, keepdims=True)
    xyz[1500:] += [0.05, -0.02, 0.01]
    _check(xyz, ClusterParams(tolerance=tol, min_size=40, max_size=50_000), oracle=False)


def test_exact_centroid_tie_keeps_first_point_order():
    # equal (mean y, mean x): the cluster holding the lower point index
    # comes first, although its grid cells sort after the other's
    blob = np.array([[0.0, 0.0, 0.0], [0.002, 0.0, 0.0], [-0.002, 0.0, 0.0]])
    xyz = np.vstack([blob + [0.0, 0.0, 1.0], blob])
    got = _check(xyz, ClusterParams(tolerance=0.01, min_size=1, max_size=10))
    assert [g.tolist() for g in got] == [[0, 1, 2], [3, 4, 5]]
