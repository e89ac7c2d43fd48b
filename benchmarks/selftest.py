"""Self-tests of the benchmark harness. Run from the repository root::

    python3 benchmarks/selftest.py

1. Quick runs of every workload, untraced and traced: the last line is the
   result object, its metrics are exactly those ``BENCHMARK.json`` names,
   each with its unit, every check passed, and the traced counts repeat
   exactly across two runs with the same seed.
2. Corrupted outputs count as failures, both in the checks and in the
   runner's failure count.
3. In a directory holding only ``BENCHMARK.json`` and the benchmark's
   files, the runner exits non-zero without printing a result.

Exits 0 when every test passes; prints each failure otherwise.
"""

from __future__ import annotations

import dataclasses
import json
import shutil
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path[:0] = [str(ROOT / "src"), str(HERE)]

import numpy as np  # noqa: E402

import checks  # noqa: E402
from run import run_ops  # noqa: E402
from tracing import Tracer  # noqa: E402
from workloads import WORKLOADS, HarvestSweep, PcdCapture  # noqa: E402

FAILURES: list[str] = []


def expect(cond: bool, what: str) -> None:
    print(f"  {'ok  ' if cond else 'FAIL'} {what}")
    if not cond:
        FAILURES.append(what)


def run_bench(workload: str, trace: int, seed: int = 7, cwd: Path = ROOT):
    cmd = [sys.executable, "benchmarks/run.py", "--workload", workload, "--seed", str(seed),
           "--seconds", "1", "--trace", str(trace), "--quick"]
    return subprocess.run(cmd, cwd=cwd, capture_output=True, text=True, timeout=170)


def test_quick_runs() -> None:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    for workload in WORKLOADS:
        print(f"quick runs: {workload}")
        counts = []
        for trace, key in ((0, "end_to_end"), (1, "per_layer"), (1, "per_layer")):
            done = run_bench(workload, trace)
            expect(done.returncode == 0, f"trace {trace} exits 0 ({done.stderr[-300:]})")
            try:
                result = json.loads(done.stdout.strip().splitlines()[-1])
            except (IndexError, json.JSONDecodeError):
                expect(False, f"trace {trace} ends with a JSON result")
                continue
            expect(set(result) == {"correct", "attempted", "failed", "metrics"},
                   f"trace {trace}: result has exactly the four keys")
            expect(result["correct"] and result["failed"] == 0 and result["attempted"] >= 1,
                   f"trace {trace}: correct, {result['failed']} of "
                   f"{result['attempted']} failed")
            want = {m["name"]: m["unit"] for m in spec[key]}
            got = {k: v["unit"] for k, v in result["metrics"].items()}
            expect(got == want, f"trace {trace}: every {key} metric printed with its unit")
            expect(all(isinstance(v["value"], (int, float)) for v in result["metrics"].values()),
                   f"trace {trace}: every value is a number")
            if trace:
                counts.append({k: v["value"] for k, v in result["metrics"].items()
                               if v["unit"] in ("count", "bytes")})
        if len(counts) == 2:
            expect(counts[0] == counts[1], "traced counts repeat exactly for the same seed")


def test_corrupted_outputs() -> None:
    print("corrupted outputs")
    wl = PcdCapture(3, True, Tracer(), HERE / ".work" / "selftest")
    wl.work.mkdir(parents=True, exist_ok=True)
    wl.setup()
    scenario, cloud1, cloud2, truth = wl.pool[0]
    (read1, read2, boxes), _ = wl.run(0, traced=False)
    window = scenario.localization.reduced_window
    centers = truth.berry_centers
    expect(wl.check(0, (read1, read2, boxes)) == [], "an honest operation passes")

    shifted = list(boxes)
    shifted[3] = dataclasses.replace(
        boxes[3], centroid=boxes[3].centroid + [0.006, 0, 0],
        box=dataclasses.replace(boxes[3].box, max=boxes[3].box.max + [0.006, 0, 0]))
    expect(checks.check_boxes(shifted, centers, window) != [], "a box shifted 6 mm fails")
    expect(checks.check_boxes(boxes[::-1], centers, window) != [], "reversed ranking fails")
    expect(checks.check_boxes(boxes[:-1], centers, window) != [], "a missing box fails")

    rgb = read1.rgb.copy()
    rgb[0, 0] ^= 1
    expect(checks.check_round_trip(cloud1, dataclasses.replace(read1, rgb=rgb)) != [],
           "a changed colour in the round trip fails")
    xyz = read1.xyz.copy()
    xyz[0, 0] = np.nextafter(xyz[0, 0], 1.0)
    expect(checks.check_round_trip(cloud1, dataclasses.replace(read1, xyz=xyz)) != [],
           "a coordinate off its float32 value fails")

    harvest = HarvestSweep(3, True, Tracer(), wl.work)
    harvest.setup()
    result, _ = harvest.run(1, traced=False)    # the demo_overreach entry
    expect(harvest.check(1, result) == [], "an honest harvest passes")
    records = result.metrics.records
    fake = dataclasses.replace(records[0], cut_time_s=records[0].cut_time_s + 0.001)
    lost = dataclasses.replace(records[2], success=False, failure_reason="trap-miss")
    for what, index, bad in (("cycle != motion + cut", 0, fake), ("a lost fruit", 2, lost)):
        corrupt = list(records)
        corrupt[index] = bad
        metrics = dataclasses.replace(result.metrics, records=tuple(corrupt))
        expect(checks.check_cycles(metrics, harvest.unreachable[1]) != [], f"{what} fails")
    expect(checks.check_cycles(result.metrics, set()) != [],
           "an unreachable fruit not expected to fail is reported")

    real_run = wl.run

    def shifted_run(item, traced):
        (r1, r2, b), parts = real_run(item, traced)
        b = [dataclasses.replace(x, centroid=x.centroid + [0, 0, 0.006],
                                 box=dataclasses.replace(x.box, max=x.box.max + [0, 0, 0.006]))
             for x in b]
        return (r1, r2, b), parts

    wl.run = shifted_run
    ops = run_ops(wl, wl.tracer, "corrupt", 0.0, 3, False, {})
    expect(len(ops) == 3 and all(o.problems for o in ops),
           "the runner counts every shifted-box operation as failed")
    shutil.rmtree(wl.work, ignore_errors=True)


def test_bare_directory() -> None:
    print("bare directory")
    bare = HERE / ".work" / "bare"
    shutil.rmtree(bare, ignore_errors=True)
    shutil.copytree(HERE, bare / "benchmarks",
                    ignore=shutil.ignore_patterns(".work", "results", "__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", bare)
    try:
        done = run_bench("dense_frames", 0, cwd=bare)
        last = (done.stdout.strip().splitlines() or [""])[-1]
        expect(done.returncode != 0, f"exits non-zero (got {done.returncode})")
        expect('"correct"' not in last, "prints no result")
    finally:
        shutil.rmtree(bare, ignore_errors=True)


if __name__ == "__main__":
    test_corrupted_outputs()
    test_bare_directory()
    test_quick_runs()
    print(f"{len(FAILURES)} failure(s)" if FAILURES else "all self-tests passed")
    sys.exit(1 if FAILURES else 0)
