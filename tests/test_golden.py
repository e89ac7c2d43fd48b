"""Golden metrics: ``simulate`` reproduces the committed CSVs byte for byte.

The files under ``tests/golden/`` were written by ``laserberry simulate
--scenario <name>`` while the machine was still advanced one 1 ms step at
a time. They are never regenerated; a mismatch means the machine's
results changed.
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
