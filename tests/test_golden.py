"""Golden outputs: ``simulate`` and ``localize`` reproduce committed bytes.

The ``*.metrics.csv`` files under ``tests/golden/`` were written by
``laserberry simulate --scenario <name>`` while the machine was still
advanced one 1 ms step at a time. The ``*.boxes.csv`` files were written
by ``laserberry localize --scenario <name>`` while clustering still went
through every linked pair and a sparse connected-components search; the
``clusters.pcd`` written beside them is pinned by digest only, which
covers cluster membership and point order. None of these is ever
regenerated; a mismatch means the machine's or the perception's results
changed.
"""

import hashlib
from pathlib import Path

import pytest

from laserberry.cli import main

GOLDEN = Path(__file__).parent / "golden"

#: sha256 of each golden file, pinned so the files cannot drift silently.
GOLDEN_SHA256 = {
    "demo_11": "c6f7fe8782f767e1b5050c84c9eea4c6cfe6a55e88654f978542d7d80ad9a2e2",
    "demo_overreach": "2598b1b2fe7a03793141dd3a6bb898332b5f50660b92779ef0216c13285ced7f",
    "perf_300k": "e02e627fb82b802bcd42e1ce1c7d179e6c2606d7ae407978db8494a9b475cfdf",
}


@pytest.mark.parametrize("name", sorted(GOLDEN_SHA256))
def test_simulate_matches_golden_metrics(name, tmp_path, capsys):
    golden = (GOLDEN / f"{name}.metrics.csv").read_bytes()
    assert hashlib.sha256(golden).hexdigest() == GOLDEN_SHA256[name]
    assert main(["simulate", "--scenario", name, "--out", str(tmp_path)]) == 0
    capsys.readouterr()
    assert (tmp_path / "metrics.csv").read_bytes() == golden


#: sha256 of each golden boxes file (equal to the benchmark's references).
GOLDEN_BOXES_SHA256 = {
    "demo_11": "b20dcb063541ed2c8f1c40f23813b95f8ed511acfb2e9c5dd08d7b18ae2cd741",
    "demo_overreach": "a5f8c25f9c565620cf11591bf85ba23aa4a49356fc8d4af2f2f137cc67a51c96",
    "perf_300k": "dc5d21c3d2485dde21fdea08ae4ac22f9f749ec0234c02a0571730d0ca109df8",
}

#: sha256 of the ``clusters.pcd`` that ``localize --out`` writes beside
#: each golden boxes file.
GOLDEN_CLUSTERS_SHA256 = {
    "demo_11": "93f1668c28f5dd73ea137849da412ee5c0b5f7841a6998dd838b6d67fab28d93",
    "demo_overreach": "f10046f5d6d2ccab3d08a48f7289886d581f0a0fc35fdf4c77953bc27c800452",
    "perf_300k": "fb6d7ca3b28adfa0d7128f853003a7d7bb92a3492feeff451807c5fd98cb8362",
}


@pytest.mark.parametrize("name", sorted(GOLDEN_BOXES_SHA256))
def test_localize_matches_golden_boxes(name, tmp_path, capsys):
    golden = (GOLDEN / f"{name}.boxes.csv").read_bytes()
    assert hashlib.sha256(golden).hexdigest() == GOLDEN_BOXES_SHA256[name]
    assert main(["localize", "--scenario", name, "--out", str(tmp_path)]) == 0
    capsys.readouterr()
    assert (tmp_path / "boxes.csv").read_bytes() == golden
    clusters = hashlib.sha256((tmp_path / "clusters.pcd").read_bytes()).hexdigest()
    assert clusters == GOLDEN_CLUSTERS_SHA256[name]
