"""Correctness checks applied to every operation the benchmark runs.

Each check returns a list of problems; an empty list means the output is
right. A problem counts the operation as failed.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import math
from pathlib import Path

import numpy as np

from laserberry import cli
from laserberry.controller import FAIL_PLAN

#: Criterion 5: a box centroid lies within this distance of its berry centre.
CENTROID_TOL_M = 0.005

#: sha256 of files the CLI writes for the bundled scenarios at their own
#: seeds, recorded at the commit that introduced the benchmark.
REFERENCE_SHA256 = {
    ("demo_11", "metrics.csv"):
        "c6f7fe8782f767e1b5050c84c9eea4c6cfe6a55e88654f978542d7d80ad9a2e2",
    ("demo_11", "boxes.csv"):
        "b20dcb063541ed2c8f1c40f23813b95f8ed511acfb2e9c5dd08d7b18ae2cd741",
    ("demo_overreach", "metrics.csv"):
        "2598b1b2fe7a03793141dd3a6bb898332b5f50660b92779ef0216c13285ced7f",
    ("demo_overreach", "boxes.csv"):
        "a5f8c25f9c565620cf11591bf85ba23aa4a49356fc8d4af2f2f137cc67a51c96",
    ("perf_300k", "metrics.csv"):
        "e02e627fb82b802bcd42e1ce1c7d179e6c2606d7ae407978db8494a9b475cfdf",
    ("perf_300k", "boxes.csv"):
        "dc5d21c3d2485dde21fdea08ae4ac22f9f749ec0234c02a0571730d0ca109df8",
    ("demo_11", "camera1.pcd"):
        "92a0f56b8f04bf1501c43022cc11d59adf627177f8bb67af35b22a9f3101af91",
    ("demo_11", "camera2.pcd"):
        "de7a10f26b1e938516898dac08a5ef3110e3989aa6f9f8178e8e393b80a2599c",
    ("demo_11", "captured-boxes.csv"):
        "b20dcb063541ed2c8f1c40f23813b95f8ed511acfb2e9c5dd08d7b18ae2cd741",
}


def expected_berries(centers: np.ndarray, window) -> np.ndarray:
    """Indices of the berry centres inside the reduced window, in pick
    order (ascending y, ties by x)."""
    inside = np.flatnonzero(window.mask(centers)) if len(centers) else np.empty(0, int)
    order = np.lexsort((centers[inside, 0], centers[inside, 1]))
    return inside[order]


def check_boxes(boxes, centers: np.ndarray, window) -> list[str]:
    """One box per berry in the window, ranked by y, each within 5 mm of
    its true centre."""
    want = expected_berries(centers, window)
    if len(boxes) != len(want):
        return [f"{len(boxes)} boxes for {len(want)} berries in the window"]
    problems = []
    ys = [float(b.centroid[1]) for b in boxes]
    if ys != sorted(ys) or [b.rank for b in boxes] != list(range(len(boxes))):
        problems.append("boxes not ranked by ascending y")
    for box, i in zip(boxes, want):
        err = float(np.linalg.norm(box.centroid - centers[i]))
        if not err <= CENTROID_TOL_M:
            problems.append(f"rank {box.rank}: centroid {err * 1e3:.2f} mm from berry {i}")
    return problems


def check_cycles(metrics, unreachable: set[int]) -> list[str]:
    """cycle == motion + cut on every record; every reachable fruit is
    harvested and every unreachable one fails at planning."""
    problems = []
    for r in metrics.records:
        if not math.isclose(r.cycle_time_s, r.motion_time_s + r.cut_time_s,
                            rel_tol=0.0, abs_tol=1e-9):
            problems.append(f"fruit {r.fruit_index}: cycle != motion + cut")
        if r.fruit_index in unreachable:
            if r.success or r.failure_reason != FAIL_PLAN:
                problems.append(f"fruit {r.fruit_index}: expected a {FAIL_PLAN} failure, "
                                f"got {r.failure_reason or 'success'}")
        elif not r.success:
            problems.append(f"fruit {r.fruit_index}: failed ({r.failure_reason})")
    return problems


def check_round_trip(written, read) -> list[str]:
    """Colours exact; coordinates equal to their float32 values."""
    problems = []
    if read.frame != written.frame:
        problems.append(f"frame {read.frame!r} != {written.frame!r}")
    if not np.array_equal(read.rgb, written.rgb):
        problems.append("colours changed in the PCD round trip")
    if not np.array_equal(read.xyz, written.xyz.astype(np.float32).astype(np.float64)):
        problems.append("coordinates differ from their float32 values")
    return problems


def reference_commands(case: str, work: Path) -> list[tuple[str, list[str], dict]]:
    """CLI runs of one default-seed reference case: (label, argv, files).

    ``case`` is a bundled scenario name (``simulate`` and ``localize``) or
    ``"capture"`` (``gen-scene demo_11``, then ``localize`` the written
    clouds). ``files`` maps each :data:`REFERENCE_SHA256` key the run
    checks to the file it writes.
    """
    out = work / case
    if case == "capture":
        clouds = (out / "camera1.pcd", out / "camera2.pcd")
        return [
            ("gen-scene", ["gen-scene", "--scenario", "demo_11", "--out", str(out)],
             {("demo_11", "camera1.pcd"): clouds[0], ("demo_11", "camera2.pcd"): clouds[1]}),
            ("localize", ["localize", "--scenario", "demo_11", "--cloud1", str(clouds[0]),
                          "--cloud2", str(clouds[1]), "--out", str(out / "captured")],
             {("demo_11", "captured-boxes.csv"): out / "captured" / "boxes.csv"}),
        ]
    return [
        ("simulate", ["simulate", "--scenario", case, "--out", str(out)],
         {(case, "metrics.csv"): out / "metrics.csv"}),
        ("localize", ["localize", "--scenario", case, "--out", str(out)],
         {(case, "boxes.csv"): out / "boxes.csv"}),
    ]


def run_reference(argv: list[str], files: dict) -> list[str]:
    """Run the CLI in-process (output discarded) and check the file digests."""
    with contextlib.redirect_stdout(io.StringIO()):
        code = cli.main(argv)
    if code != 0:
        return [f"laserberry {' '.join(argv)} exited {code}"]
    problems = []
    for key, path in files.items():
        got = hashlib.sha256(path.read_bytes()).hexdigest()
        if got != REFERENCE_SHA256[key]:
            problems.append(f"{'/'.join(key)}: sha256 {got[:12]}... != reference "
                            f"{REFERENCE_SHA256[key][:12]}...")
    return problems
