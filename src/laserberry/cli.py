"""Command line front-end.

Subcommands: ``localize``, ``simulate``, ``optimize-spot``,
``verify-tables``, ``gen-scene``. Exit codes: 0 on success, 1 for file
and parse problems, 2 for domain or validation problems (including a
failed table audit).
"""

from __future__ import annotations

import argparse
import dataclasses
import sys
from pathlib import Path

import numpy as np

from . import __version__
from .controller import CycleMetrics
from .errors import (CalibrationError, PcdParseError, ScenarioError,
                     ValidationError)
from .geometry import BASE_FRAME, PointCloud
from .laser import (CutModel, embedded_pierce, load_datasets, load_lateral_csv,
                    load_pierce_csv, optimal_spot, verify_tables)
from .localization import bounding_boxes, localize_clusters
from .pcdio import read_pcd, write_pcd
from .pipeline import simulate_scenario
from .scenario import Scenario, bundled_scenario_path, load_scenario
from .scene import generate_scene

_CLUSTER_COLORS = np.array([
    (230, 60, 60), (60, 160, 230), (60, 200, 120), (230, 170, 50),
    (170, 90, 220), (240, 120, 180), (120, 200, 210), (200, 200, 80),
    (150, 110, 70), (90, 120, 230), (240, 90, 40), (100, 180, 90),
], dtype=np.uint8)


def _scenario(args) -> Scenario:
    """The ``--scenario`` file or bundled name, with ``--seed`` applied."""
    path = Path(args.scenario)
    if not path.exists():
        path = bundled_scenario_path(args.scenario)
        if path is None:
            raise FileNotFoundError(f"scenario not found: {args.scenario}")
    scenario = load_scenario(path)
    return scenario if args.seed is None else dataclasses.replace(scenario, seed=args.seed)


def _out_dir(args) -> Path | None:
    """The ``--out`` directory, made before any work so a bad path fails first."""
    if args.out is None:
        return None
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    return out


# ---------------------------------------------------------------------------
# tiny deterministic SVG writers (no plotting dependency)

_W, _H, _M = 640, 400, 60     # page width, height and plot margin, px


def _svg_plot(path: Path, body: list[str], title: str, x_label: str, y_label: str) -> None:
    """Write a page with ``title``, both axes, ``body`` and the axis labels."""
    w, h, m = _W, _H, _M
    lines = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{w}" height="{h}" '
        f'viewBox="0 0 {w} {h}">',
        f'<rect width="{w}" height="{h}" fill="white"/>',
        f'<text x="{w // 2}" y="20" text-anchor="middle" '
        f'font-family="sans-serif" font-size="14">{title}</text>',
        f'<line x1="{m}" y1="{h - m}" x2="{w - m}" y2="{h - m}" stroke="black"/>',
        f'<line x1="{m}" y1="{m}" x2="{m}" y2="{h - m}" stroke="black"/>',
        *body,
        f'<text x="{w // 2}" y="{h - 12}" text-anchor="middle" '
        f'font-family="sans-serif" font-size="12">{x_label}</text>',
        f'<text x="16" y="{h // 2}" text-anchor="middle" '
        f'font-family="sans-serif" font-size="12" '
        f'transform="rotate(-90 16 {h // 2})">{y_label}</text>',
        "</svg>",
    ]
    path.write_text("\n".join(lines) + "\n")


def _svg_curve(path: Path, xs, ys, title: str, x_label: str, y_label: str) -> None:
    w, h, m = _W, _H, _M
    x0, x1 = min(xs), max(xs)
    y0, y1 = 0.0, max(ys) * 1.1
    # one knot (x1 == x0) is drawn at the middle of the axis
    sx = lambda x: m + ((x - x0) / (x1 - x0) if x1 > x0 else 0.5) * (w - 2 * m)
    sy = lambda y: h - m - (y - y0) / (y1 - y0) * (h - 2 * m)
    pts = " ".join(f"{sx(x):.1f},{sy(y):.1f}" for x, y in zip(xs, ys))
    body = [f'<polyline points="{pts}" fill="none" stroke="crimson" stroke-width="2"/>']
    for x, y in zip(xs, ys):
        body.append(f'<circle cx="{sx(x):.1f}" cy="{sy(y):.1f}" r="4" fill="crimson"/>')
        body.append(f'<text x="{sx(x):.1f}" y="{h - m + 16}" text-anchor="middle" '
                    f'font-family="sans-serif" font-size="10">{x:g}</text>')
    body.append(f'<text x="{m - 8}" y="{sy(y1):.1f}" text-anchor="end" '
                f'font-family="sans-serif" font-size="10">{y1:.2f}</text>')
    body.append(f'<text x="{m - 8}" y="{sy(0) + 4:.1f}" text-anchor="end" '
                f'font-family="sans-serif" font-size="10">0</text>')
    _svg_plot(path, body, title, x_label, y_label)


def _svg_bars(path: Path, values, title: str, x_label: str, y_label: str) -> None:
    w, h, m = _W, _H, _M
    n = max(len(values), 1)
    top = max(values, default=1.0) * 1.15
    band = (w - 2 * m) / n
    body = []
    for i, v in enumerate(values):
        bh = v / top * (h - 2 * m)
        x = m + i * band + band * 0.15
        body.append(f'<rect x="{x:.1f}" y="{h - m - bh:.1f}" width="{band * 0.7:.1f}" '
                    f'height="{bh:.1f}" fill="seagreen"/>')
        body.append(f'<text x="{m + i * band + band / 2:.1f}" y="{h - m + 16}" '
                    f'text-anchor="middle" font-family="sans-serif" font-size="10">{i}</text>')
        body.append(f'<text x="{m + i * band + band / 2:.1f}" y="{h - m - bh - 6:.1f}" '
                    f'text-anchor="middle" font-family="sans-serif" font-size="9">{v:.2f}</text>')
    _svg_plot(path, body, title, x_label, y_label)


# ---------------------------------------------------------------------------
# subcommands

def _boxes_csv(boxes) -> str:
    lines = ["rank,centroid_x_m,centroid_y_m,centroid_z_m,"
             "min_x_m,min_y_m,min_z_m,max_x_m,max_y_m,max_z_m,point_count"]
    for b in boxes:
        c, lo, hi = b.centroid, b.box.min, b.box.max
        lines.append(f"{b.rank}," + ",".join(f"{v:.6f}" for v in (*c, *lo, *hi))
                     + f",{b.point_count}")
    return "\n".join(lines) + "\n"


def cmd_localize(args) -> int:
    scenario = _scenario(args)
    if (args.cloud1 is None) != (args.cloud2 is None):
        raise ValidationError("--cloud1 and --cloud2 must be given together")
    out = _out_dir(args)
    if args.cloud1 is not None:
        cloud1, cloud2 = read_pcd(args.cloud1), read_pcd(args.cloud2)
    else:
        cloud1, cloud2, _ = generate_scene(scenario)
    clusters = localize_clusters(cloud1, cloud2, scenario.camera_1,
                                 scenario.camera_2, scenario.localization)
    boxes = bounding_boxes(clusters)
    print(f"localized {len(boxes)} fruit")
    for b in boxes:
        c = b.centroid
        print(f"  rank {b.rank}: centroid ({c[0]:+.4f}, {c[1]:+.4f}, {c[2]:+.4f}) m, "
              f"{b.point_count} points")
    if out is not None:
        (out / "boxes.csv").write_text(_boxes_csv(boxes))
        # written when no fruit is found too, so no earlier run's clusters stay
        xyz = np.vstack([c.xyz for c in clusters] or [np.empty((0, 3))])
        rgb = np.repeat(_CLUSTER_COLORS[np.arange(len(clusters)) % len(_CLUSTER_COLORS)],
                        [len(c) for c in clusters], axis=0)
        write_pcd(PointCloud(xyz, rgb, BASE_FRAME), out / "clusters.pcd")
    return 0


def _print_metrics(metrics: CycleMetrics) -> None:
    for r in metrics.records:
        status = "ok" if r.success else f"FAILED ({r.failure_reason})"
        print(f"  fruit {r.fruit_index}: motion {r.motion_time_s:.3f} s, "
              f"cut {r.cut_time_s:.3f} s, cycle {r.cycle_time_s:.3f} s  [{status}]")
    print(f"harvested {metrics.successes}/{metrics.attempted} fruit | "
          f"mean motion {metrics.mean_motion_s:.3f} s | "
          f"mean cut {metrics.mean_cut_s:.3f} s | "
          f"mean cycle {metrics.mean_cycle_s:.3f} s")


def cmd_simulate(args) -> int:
    scenario = _scenario(args)
    out = _out_dir(args)
    result = simulate_scenario(scenario)
    _print_metrics(result.metrics)
    if out is not None:
        (out / "metrics.csv").write_text(result.metrics.to_csv())
        if args.svg:
            _svg_bars(out / "cycle_times.svg",
                      [r.cycle_time_s for r in result.metrics.records],
                      "Harvest cycle times", "fruit index", "cycle time (s)")
    return 0


def cmd_optimize_spot(args) -> int:
    model = CutModel(load_pierce_csv(args.dataset) if args.dataset is not None
                     else embedded_pierce(args.table or "fine"))
    out = _out_dir(args)
    lo = args.lo if args.lo is not None else float(model.knots[0])
    hi = args.hi if args.hi is not None else float(model.knots[-1])
    spot = optimal_spot(model.records, lo, hi, continuous=args.continuous)
    print(f"optimal spot diameter: {spot:g} mm (pierce constant {model.cp(spot):.4g} "
          f"mm^2/s) over [{lo:g}, {hi:g}] mm")
    if args.svg:
        _svg_curve(out / "cp_curve.svg", model.knots, model.cps,
                   "Pierce constant vs spot diameter",
                   "spot diameter (mm)", "pierce constant (mm^2/s)")
    return 0


def cmd_verify_tables(args) -> int:
    external = (("coarse", load_pierce_csv, args.pierce_coarse),
                ("fine", load_pierce_csv, args.pierce_fine),
                ("lateral", load_lateral_csv, args.lateral))
    ds = dataclasses.replace(load_datasets(), **{table: load(path) for table, load, path
                                                 in external if path is not None})
    audit = verify_tables(ds, tolerance=args.tolerance)
    for dev in audit.failures():
        print(f"FAIL {dev.describe()}")
    verdict = "PASS" if audit.passed else "FAIL"
    print(f"{len(audit.deviations)} derived values audited; max deviation "
          f"{audit.max_deviation:.4f} (tolerance {audit.tolerance:g}): {verdict}")
    return 0 if audit.passed else 2


def cmd_gen_scene(args) -> int:
    scenario = _scenario(args)
    out = _out_dir(args)
    cloud1, cloud2, truth = generate_scene(scenario)
    write_pcd(cloud1, out / "camera1.pcd")
    try:
        write_pcd(cloud2, out / "camera2.pcd")
    except ValidationError:             # raised before camera2.pcd is opened
        (out / "camera1.pcd").unlink()
        raise
    lines = ["berry_index,x_m,y_m,z_m,stem_diameter_mm,stem_bottom_z_m,"
             "stem_top_z_m,toughness"]
    for i, c in enumerate(truth.berry_centers):
        lines.append(f"{i},{c[0]:.6f},{c[1]:.6f},{c[2]:.6f},"
                     f"{truth.stem_diameters_mm[i]:.4f},{truth.stem_bottom_z[i]:.6f},"
                     f"{truth.stem_top_z[i]:.6f},{truth.toughness[i]:.3f}")
    (out / "truth.csv").write_text("\n".join(lines) + "\n")
    print(f"wrote {len(cloud1)} + {len(cloud2)} points and "
          f"{len(truth.berry_centers)} truth rows to {out}")
    return 0


# ---------------------------------------------------------------------------

def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="laserberry",
        description="Software twin of a table-top laser stem-cutting strawberry harvester.")
    parser.add_argument("--version", action="version", version=f"laserberry {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)
    scenario = argparse.ArgumentParser(add_help=False)
    scenario.add_argument("--scenario", required=True,
                          help="scenario file path or bundled name (e.g. demo_11)")
    scenario.add_argument("--seed", type=int, default=None, help="override the scenario seed")

    p = sub.add_parser("localize", parents=[scenario], help="locate fruit in a scene")
    p.add_argument("--cloud1", default=None, help="camera-1 PCD (with --cloud2)")
    p.add_argument("--cloud2", default=None, help="camera-2 PCD (with --cloud1)")
    p.add_argument("--out", default=None, help="directory for boxes.csv and clusters.pcd")
    p.set_defaults(func=cmd_localize)

    p = sub.add_parser("simulate", parents=[scenario], help="run the harvest demo")
    p.add_argument("--out", default=None, help="directory for metrics.csv")
    p.add_argument("--svg", action="store_true",
                   help="also write cycle_times.svg (needs --out)")
    p.set_defaults(func=cmd_simulate)

    p = sub.add_parser("optimize-spot", help="best spot diameter for cutting")
    table = p.add_mutually_exclusive_group()
    table.add_argument("--table", choices=("fine", "coarse"),
                       help="embedded pierce sweep to search (default fine)")
    table.add_argument("--dataset", default=None, help="external pierce-sweep CSV to search")
    p.add_argument("--lo", type=float, default=None, help="lower spot diameter bound, mm")
    p.add_argument("--hi", type=float, default=None, help="upper spot diameter bound, mm")
    p.add_argument("--continuous", action="store_true",
                   help="exact maximum of the interpolated curve, ends included")
    p.add_argument("--out", default=None, help="directory for cp_curve.svg")
    p.add_argument("--svg", action="store_true", help="also write cp_curve.svg (needs --out)")
    p.set_defaults(func=cmd_optimize_spot)

    p = sub.add_parser("verify-tables", help="audit the calibration tables")
    p.add_argument("--tolerance", type=float, default=0.03,
                   help="max allowed deviation (default 0.03)")
    p.add_argument("--pierce-coarse", default=None, help="external coarse pierce CSV")
    p.add_argument("--pierce-fine", default=None, help="external fine pierce CSV")
    p.add_argument("--lateral", default=None, help="external lateral sweep CSV")
    p.set_defaults(func=cmd_verify_tables)

    p = sub.add_parser("gen-scene", parents=[scenario],
                       help="write a scenario's clouds and ground truth")
    p.add_argument("--out", required=True, help="output directory")
    p.set_defaults(func=cmd_gen_scene)
    return parser


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        if getattr(args, "svg", False) and args.out is None:    # before any file is read
            raise ValidationError("--svg needs --out")
        return args.func(args)
    except (OSError, PcdParseError, ScenarioError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except (ValidationError, CalibrationError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
