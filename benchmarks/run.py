"""Benchmark runner: one workload, one seed, one closed loop.

Run from the repository root::

    python3 benchmarks/run.py --workload dense_frames --seed 1 --seconds 20 --trace 0

One client in one process calls the package and starts the next operation
only after the previous one has returned. ``--trace 0`` prints the
end-to-end metrics named in ``BENCHMARK.json``; ``--trace 1`` runs the same
loop untraced for half the time and traced for the other half, and prints
the per-layer metrics. Every operation's output is checked; the last line
of standard output is one JSON object::

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

A fuller record (provenance, sample counts, workload-specific figures) is
written to ``benchmarks/results/``; traced runs also write their spans
there as JSON lines. See ``benchmarks/NOTES.md``.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import traceback
from dataclasses import dataclass, field
from pathlib import Path
from time import perf_counter

T_START = perf_counter()

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
RESULTS = HERE / "results"

#: One client, no extra threads: pin BLAS pools unless the caller chose.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ.setdefault(_var, "1")

#: Setups per full untraced run; ``setup_s`` is their median.
SETUP_REPEATS = 3


@dataclass
class OpRecord:
    op: str
    item: int
    seconds: float
    ref_seconds: float = 0.0    # reference kernel time around the operation
    parts: dict = field(default_factory=dict)
    problems: list = field(default_factory=list)


class _KernelAxis:
    def __init__(self):
        self.position = 0.0
        self.velocity = 0.0

    def advance(self, dt: float) -> None:
        self.velocity += 0.5 * dt
        self.position += self.velocity * dt


def make_reference_kernel(parts: tuple[str, ...]):
    """A timer for a fixed computation made of the named ``parts``.

    ``interpreter`` is a 20,000-step Python loop, ``array`` a numpy sort of
    200,000 floats, ``objects`` 2,500 steps of three small objects through
    a method call each (the shape of the stepped machine), and ``text`` a
    float32 format-and-parse round trip of 1,200 values, the kind of work
    ``write_pcd``/``read_pcd`` do. None of them calls the package.

    The shared host's speed changes by up to 1.5x for a minute or more at
    a time, and a kernel doing the same kind of work as the workload slows
    down with it. An operation's time over the kernel's time measured next
    to it therefore stays steady while raw times swing; the gated metrics
    are these ratios.
    """
    import numpy as np
    rng = np.random.default_rng(0)
    data = rng.random(200_000)
    values = rng.random(1_200).astype(np.float32)

    def interpreter():
        total = 0
        for i in range(20_000):
            total += i * i

    def array():
        np.sort(data)

    def objects():
        axes = [_KernelAxis() for _ in range(3)]
        for _ in range(2_500):
            for axis in axes:
                axis.advance(0.001)

    def text():
        lines = [np.format_float_positional(v, unique=True, trim="0") for v in values]
        [float(np.float32(line)) for line in lines]

    steps = [{"interpreter": interpreter, "array": array, "objects": objects,
              "text": text}[p] for p in parts]

    def kernel() -> float:
        t0 = perf_counter()
        for step in steps:
            step()
        return perf_counter() - t0
    return kernel


def _import_package():
    """Import the package from this checkout's ``src``, never from elsewhere."""
    if not (SRC / "laserberry" / "__init__.py").is_file():
        sys.exit(f"error: no package source at {SRC / 'laserberry'}")
    sys.path.insert(0, str(SRC))
    import laserberry  # noqa: F401  (timed as part of set-up)
    if Path(laserberry.__file__).resolve().parent != (SRC / "laserberry").resolve():
        sys.exit(f"error: imported laserberry from {laserberry.__file__}, not {SRC}")


def run_ops(wl, tracer, phase: str, seconds: float, min_ops: int, traced: bool,
            seen: dict, kernel=None) -> list[OpRecord]:
    """Closed loop over the pool for ``seconds`` (and at least ``min_ops``).

    ``seen`` maps a pool entry to the fingerprint of its first untraced
    output; every later output of that entry must match it. With a
    ``kernel``, each operation also records the mean of the reference
    kernel times just before and just after it.
    """
    ops: list[OpRecord] = []
    before = kernel() if kernel else 0.0
    deadline = perf_counter() + seconds
    while perf_counter() < deadline or len(ops) < min_ops:
        item = len(ops) % len(wl.pool)
        rec = OpRecord(f"{phase}:{len(ops)}", item, 0.0)
        tracer.op = rec.op
        t0 = perf_counter()
        try:
            if traced:
                with tracer.span("op"):
                    output, rec.parts = wl.run(item, traced=True)
            else:
                output, rec.parts = wl.run(item, traced=False)
            rec.seconds = perf_counter() - t0
            rec.problems = wl.check(item, output)
            fp = wl.fingerprint(output)
            if item not in seen and not traced:
                seen[item] = fp
            elif seen.get(item) != fp:
                rec.problems.append(("traced output differs from untraced output"
                                     if traced else "output differs from an earlier run")
                                    + f" of pool entry {item}")
        except Exception:  # one failed operation must not end the run
            rec.seconds = rec.seconds or perf_counter() - t0
            rec.problems.append(traceback.format_exc(limit=3).strip())
        if traced:
            tracer.settle()
        if kernel:
            after = kernel()
            rec.ref_seconds = (before + after) / 2
            before = after
        ops.append(rec)
    return ops


def run_references(wl, tracer, traced: bool) -> list[OpRecord]:
    """The workload's default-seed CLI runs, each checked against its digest."""
    from checks import reference_commands, run_reference
    recs = []
    for case in wl.reference_cases:
        for label, argv, files in reference_commands(case, wl.work):
            rec = OpRecord(f"reference:{case}:{label}", -1, 0.0)
            tracer.op = rec.op
            t0 = perf_counter()
            try:
                if traced:
                    with tracer.span("op"):
                        rec.problems = run_reference(argv, files)
                else:
                    rec.problems = run_reference(argv, files)
            except Exception:  # reported as a failed operation
                rec.problems.append(traceback.format_exc(limit=3).strip())
            rec.seconds = perf_counter() - t0
            if traced:
                tracer.settle()
            recs.append(rec)
    return recs


def percentile(values, pct: float) -> float:
    import numpy as np
    return float(np.percentile(values, pct))


def timing(values, pct: float) -> dict:
    """Median, 10th percentile and tail of a list of seconds, with the
    counts behind them."""
    tail = percentile(values, pct)
    return {"median": statistics.median(values), "p10": percentile(values, 10.0),
            "tail": tail, "tail_pct": pct, "samples": len(values),
            "beyond_tail": sum(v > tail for v in values)}


def end_to_end(wl, ops, setup_s: float, setups: list[float]) -> tuple[dict, dict]:
    import resource
    t = timing([o.seconds for o in ops], wl.tail_pct)
    rel = timing([o.seconds / o.ref_seconds for o in ops], wl.tail_pct)
    metrics = {
        "op_ref": (rel["median"], "ref"),
        "op_tail_ref": (rel["tail"], "ref"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB"),
        "setup_s": (setup_s, "s"),
        "op_ms": (t["median"] * 1e3, "ms"),
        "op_p10_ms": (t["p10"] * 1e3, "ms"),
        "op_tail_ms": (t["tail"] * 1e3, "ms"),
        "ref_kernel_ms": (statistics.median(o.ref_seconds for o in ops) * 1e3, "ms"),
    }
    detail = {"op": t, "op_ref": rel, "setup_samples_s": setups,
              "op_seconds": [o.seconds for o in ops],
              "ref_seconds": [o.ref_seconds for o in ops]}
    return {**metrics, **wl.summary(ops, t)}, detail


def per_layer(wl, tracer, traced_ops, untraced_ops) -> tuple[dict, dict]:
    """Per-layer metrics from the traced operations (see NOTES.md)."""
    totals = tracer.op_totals()
    ids = [o.op for o in traced_ops]
    census = ids[:len(wl.pool)]

    def med_ms(key):
        return statistics.median(totals[i].get(key, 0) for i in ids) / 1e6

    def per_call_ms(name):
        durs = [tracer.duration(k) for k, s in enumerate(tracer.spans) if s[0] == name]
        return statistics.median(durs) / 1e6 if durs else 0.0

    def census_sum(key):
        return sum(tracer.counts[i].get(key, 0) + totals[i].get(key + "#calls", 0)
                   for i in census)

    def per_op(key):
        return census_sum(key) / len(census)

    def ratio(num, den):
        return num / den if den else 0.0

    scene_ops = ["setup"] + census
    points = sum(tracer.counts[i].get("scene.points", 0) for i in scene_ops)
    scenes = sum(tracer.counts[i].get("scene.scenes", 0) for i in scene_ops)
    components = census_sum("localization.components")
    kept = census_sum("localization.clusters_kept")
    m = {
        "scenario.load_ms": (per_call_ms("scenario.load"), "ms"),
        "scene.generate_ms": (per_call_ms("scene.generate"), "ms"),
        "scene.points": (ratio(points, scenes), "count"),
        "datasets.loads": (per_op("datasets.load"), "count"),
        "datasets.load_ms": (med_ms("datasets.load"), "ms"),
        "geometry.transform_ms": (med_ms("geometry.transform"), "ms"),
        "geometry.pair_query_ms": (med_ms("geometry.pair_query"), "ms"),
        "geometry.pairs": (per_op("geometry.pairs"), "count"),
    }
    for stage in ("palette_crop", "reduced_crop", "calibrate", "color_filter", "merge",
                  "cluster", "box", "self"):
        m[f"localization.{stage}_ms"] = (med_ms(f"localization.{stage}"), "ms")
    m["localization.first_call_ms"] = (per_call_ms("localization.first_call"), "ms")
    for count in ("points_in", "palette_kept", "reduced_kept", "red_kept"):
        m[f"localization.{count}"] = (per_op(f"localization.{count}"), "count")
    m["localization.components"] = (components / len(census), "count")
    m["localization.clusters_kept"] = (kept / len(census), "count")
    m["localization.clusters_dropped"] = ((components - kept) / len(census), "count")
    m["localization.red_yield"] = (ratio(census_sum("localization.red_kept"),
                                         census_sum("localization.points_in")), "ratio")
    m["localization.union_yield"] = (ratio(census_sum("localization.merged") - components,
                                           census_sum("geometry.pairs")), "ratio")
    m.update({
        "pcdio.write_ms": (med_ms("pcdio.write"), "ms"),
        "pcdio.read_ms": (med_ms("pcdio.read"), "ms"),
        "pcdio.rows": (per_op("pcdio.rows"), "count"),
        "pcdio.bytes": (per_op("pcdio.bytes"), "bytes"),
        "gantry.steps": (per_op("gantry.step"), "count"),
        "gantry.step_ms": (med_ms("gantry.step"), "ms"),
        "gantry.interrupter_checks": (per_op("gantry.interrupter"), "count"),
        "gantry.interrupter_ms": (med_ms("gantry.interrupter"), "ms"),
        "gantry.moves": (per_op("gantry.move"), "count"),
        "laser.etch_calls": (per_op("laser.etch"), "count"),
        "laser.etch_ms": (med_ms("laser.etch"), "ms"),
        "laser.cp_calls": (per_op("laser.cp"), "count"),
        "laser.cp_ms": (med_ms("laser.cp"), "ms"),
        "controller.cycles": (per_op("controller.cycle"), "count"),
        "controller.cycle_ms": (med_ms("controller.cycle"), "ms"),
        "controller.self_ms": (med_ms("controller.self"), "ms"),
        "controller.simulated_s": (per_op("controller.simulated_s"), "s"),
        "controller.successes": (per_op("controller.successes"), "count"),
        "controller.attempted": (per_op("controller.attempted"), "count"),
        "pipeline.generate_ms": (med_ms("pipeline.generate"), "ms"),
        "pipeline.localize_ms": (med_ms("pipeline.localize"), "ms"),
        "pipeline.run_demo_ms": (med_ms("pipeline.run_demo"), "ms"),
    })
    # tracing overhead: per pool entry, the traced median of operation time
    # over reference kernel time against the untraced median
    by_item = {}
    for label, ops in (("untraced", untraced_ops), ("traced", traced_ops)):
        for o in ops:
            by_item.setdefault(o.item, {}).setdefault(label, []).append(
                o.seconds / o.ref_seconds)
    both = [v for v in by_item.values() if len(v) == 2]
    untraced = sum(statistics.median(v["untraced"]) for v in both)
    traced = sum(statistics.median(v["traced"]) for v in both)
    m["trace.overhead_pct"] = (100.0 * (traced / untraced - 1.0), "%")
    detail = {"traced_ops": len(ids), "census_ops": len(census),
              "untraced_ops": len(untraced_ops), "overhead_pool_entries": len(both)}
    return m, detail


def reference_counts(tracer, refs) -> dict:
    totals = tracer.op_totals()
    keys = {"gantry.steps": "gantry.step#calls", "laser.cp_calls": "laser.cp#calls",
            "controller.cycles": "controller.cycle#calls"}
    out = {}
    for r in refs:
        c = {name: totals[r.op].get(key, 0) for name, key in keys.items()}
        c["geometry.pairs"] = tracer.counts[r.op].get("geometry.pairs", 0)
        out[r.op.split(":", 1)[1]] = c
    return out


def provenance(seed: int) -> dict:
    import hashlib
    import platform

    import numpy
    import scipy
    info = {"seed": seed, "python": platform.python_version(), "numpy": numpy.__version__,
            "scipy": scipy.__version__, "nproc": os.cpu_count(),
            "affinity": len(os.sched_getaffinity(0)), "platform": platform.platform()}
    try:
        info["git_commit"] = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True,
            timeout=10, check=True).stdout.strip()
    except (OSError, subprocess.SubprocessError):
        info["git_commit"] = "unknown (not a git checkout)"
    digest = hashlib.sha256()
    for path in sorted((SRC / "laserberry").rglob("*")):
        if path.is_file() and "__pycache__" not in path.parts:
            digest.update(str(path.relative_to(SRC)).encode() + b"\0" + path.read_bytes())
    info["src_sha256"] = digest.hexdigest()
    info["cpu_model"] = "unknown"
    try:
        with open("/proc/cpuinfo") as fh:
            info["cpu_model"] = next((ln.split(":", 1)[1].strip() for ln in fh
                                      if ln.startswith("model name")), "unknown")
    except OSError:
        pass
    blas = numpy.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    info["blas"] = f"{blas.get('name', 'unknown')} {blas.get('version', '')}".strip()
    info["blas_threads"] = _blas_threads()
    info["blas_threads_env"] = {v: os.environ.get(v) for v in
                                ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")}
    return info


def _blas_threads():
    """Thread count reported by the OpenBLAS that numpy bundles, if any."""
    import ctypes

    import numpy
    libs = Path(numpy.__file__).resolve().parent.parent / "numpy.libs"
    for lib in sorted(libs.glob("libscipy_openblas*.so")):
        for sym in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                    "openblas_get_num_threads"):
            fn = getattr(ctypes.CDLL(str(lib)), sym, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                return int(fn())
    return None


def _setup_in_subprocess(args) -> float:
    cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", "0", "--trace", "0", "--setup-only"]
    done = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=150)
    if done.returncode != 0:
        raise RuntimeError(f"set-up subprocess exited {done.returncode}: {done.stderr[-500:]}")
    return json.loads(done.stdout.strip().splitlines()[-1])["setup_s"]


def _print_table(title: str, metrics: dict) -> None:
    print(title)
    for name, (value, unit) in metrics.items():
        print(f"  {name:34s} {value:>16.6f} {unit}")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    parser.add_argument("--quick", action="store_true",
                        help="one-entry pools, minimal warm-up, no sample minimum")
    parser.add_argument("--setup-only", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)

    _import_package()
    sys.path.insert(0, str(HERE))
    from tracing import Tracer, instrument
    from workloads import WORKLOADS
    if args.workload not in WORKLOADS:
        parser.error(f"unknown workload {args.workload!r}; choose from {sorted(WORKLOADS)}")
    import_s = perf_counter() - T_START

    work = HERE / ".work" / f"{args.workload}-{os.getpid()}"
    work.mkdir(parents=True, exist_ok=True)
    try:
        tracer = Tracer()
        wl = WORKLOADS[args.workload](args.seed, args.quick, tracer, work)
        t0 = perf_counter()
        wl.setup()
        setup_s = import_s + perf_counter() - t0
        if args.setup_only:
            print(json.dumps({"setup_s": setup_s}))
            return 0

        min_ops = 1 if args.quick else wl.min_ops
        seen: dict = {}
        if args.trace == 0:
            setups = [setup_s]
            if not args.quick:
                setups += [_setup_in_subprocess(args) for _ in range(SETUP_REPEATS - 1)]
            ops = run_ops(wl, tracer, "run", args.seconds, min_ops, False, seen,
                          kernel=make_reference_kernel(wl.kernel_parts))
            refs = run_references(wl, tracer, traced=False)
            metrics, detail = end_to_end(wl, ops, statistics.median(setups), setups)
            gated = ("op_ref", "op_tail_ref", "peak_rss_mb", "setup_s")
            problems_ok = True
        else:
            half = args.seconds / 2
            kernel = make_reference_kernel(wl.kernel_parts)
            untraced = run_ops(wl, tracer, "untraced", half, len(wl.pool), False, seen, kernel)
            with instrument(tracer):
                traced = run_ops(wl, tracer, "traced", half, len(wl.pool), True, seen, kernel)
                refs = run_references(wl, tracer, traced=True)
            ops = untraced + traced
            metrics, detail = per_layer(wl, tracer, traced, untraced)
            detail["reference_counts"] = reference_counts(tracer, refs)
            nesting = tracer.nesting_violations()
            detail["nesting_violations"] = nesting[:20]
            problems_ok = not nesting
            gated = tuple(metrics)

        all_ops = ops + refs
        failed = [o for o in all_ops if o.problems]
        metrics["fail_ratio"] = (len(failed) / len(all_ops), "ratio")
        for o in failed[:5]:
            print(f"FAILED {o.op} (pool entry {o.item}): {'; '.join(o.problems)}",
                  file=sys.stderr)
        result = {"correct": not failed and problems_ok, "attempted": len(all_ops),
                  "failed": len(failed),
                  "metrics": {k: {"value": metrics[k][0], "unit": metrics[k][1]}
                              for k in gated}}

        RESULTS.mkdir(exist_ok=True)
        stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
        record = {"workload": args.workload, "quick": args.quick, "seconds": args.seconds,
                  "provenance": provenance(args.seed), "result": result,
                  "all_metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
                  "samples": detail,
                  "failures": [{"op": o.op, "item": o.item, "problems": o.problems}
                               for o in failed]}
        (RESULTS / f"{stem}.json").write_text(json.dumps(record, indent=1) + "\n")
        if args.trace:
            tracer.write_jsonl(RESULTS / f"{stem}.spans.jsonl")
            for case, counts in detail["reference_counts"].items():
                print(f"reference {case} (bundled seed): "
                      + ", ".join(f"{k}={v:g}" for k, v in counts.items()))
        _print_table(f"{args.workload} seed {args.seed} "
                     f"({'traced' if args.trace else 'untraced'}):", metrics)
        print(json.dumps(result))
        return 0
    finally:
        shutil.rmtree(work, ignore_errors=True)


if __name__ == "__main__":
    sys.exit(main())
