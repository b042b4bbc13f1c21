"""Command-line surface: reproduce the figures and tables as CSV/JSON/SVG.

Configuration comes from an optional JSON document plus flag overrides; all
resolved values are echoed into emitted JSON reports for provenance. Exit
codes: 0 success, 2 validation error, 3 numerical-convergence failure.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import sys
from pathlib import Path

import numpy as np

from . import io
from .dynamics import simulate
from .linearization import pencil_eigenvalues
from .model import BookTable, ConvergenceError, PhaseState, ValidationError
from .momentum import bifurcation_diagram, classify_fiber, in_image, inner_radius, momentum_map
from .monodromy import (
    continue_theta,
    loop_around_origin,
    radial_period_quadrature,
    radial_period_simulated,
)

OUT_DIR_ENV = "BILLIARDBOOK_OUT"


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="billiardbook",
        description="Circular billiard books with a repelling Hooke potential.",
    )
    parser.add_argument("--config", type=Path, help="JSON file with default parameters")
    parser.add_argument("--out-dir", type=Path, help=f"output directory (or ${OUT_DIR_ENV})")
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p):
        p.add_argument("-k", type=float, default=None, help="Hooke coefficient, negative")
        p.add_argument("-n", "--sheets", type=int, default=None, help="number of sheets")

    p = sub.add_parser("simulate", help="propagate a trajectory, write CSV (and SVG)")
    common(p)
    p.add_argument("--initial", type=float, nargs=4, metavar=("X", "Y", "VX", "VY"))
    p.add_argument("--sheet", type=int, default=None)
    p.add_argument("--reflections", type=int, default=None)
    p.add_argument("--time", type=float, default=None)
    p.add_argument("--seed", type=int, default=None, help="random initial state seed")
    p.add_argument("--samples-per-segment", type=int, default=None)
    # store-true flags default to None so that an unset flag defers to --config
    p.add_argument(
        "--svg", action="store_true", default=None, help="also draw the orbit and annulus"
    )

    p = sub.add_parser("diagram", help="bifurcation diagram CSV (and SVG)")
    common(p)
    p.add_argument("--f-min", type=float, default=None)
    p.add_argument("--f-max", type=float, default=None)
    p.add_argument("--resolution", type=int, default=None)
    p.add_argument("--svg", action="store_true", default=None)

    p = sub.add_parser("classify", help="classify fibers at a value or on a grid")
    common(p)
    p.add_argument("--h", type=float, default=None)
    p.add_argument("--f", type=float, default=None)
    p.add_argument("--grid", action="store_true", default=None)
    p.add_argument("--h-min", type=float, default=None)
    p.add_argument("--h-max", type=float, default=None)
    p.add_argument("--f-min", type=float, default=None)
    p.add_argument("--f-max", type=float, default=None)
    p.add_argument("--resolution", type=int, default=None)

    p = sub.add_parser("eigen", help="pencil spectrum JSON report")
    common(p)
    p.add_argument("--lam", type=float, default=None)
    p.add_argument("--mu", type=float, default=None)

    p = sub.add_parser("rotation", help="radial period and angular advance at (h, f)")
    common(p)
    p.add_argument("--h", type=float, required=True)
    p.add_argument("--f", type=float, required=True)
    p.add_argument("--compare-sim", action="store_true", default=None)

    p = sub.add_parser("monodromy", help="continue theta along a loop, report m")
    common(p)
    p.add_argument("--c", type=float, default=None, help="inner-radius loop parameter")
    p.add_argument("--f-max", type=float, default=None)
    p.add_argument("--points-per-arc", type=int, default=None)

    p = sub.add_parser("plot", help="orbit SVG from an existing trajectory CSV")
    p.add_argument("--trajectory", type=Path, required=True)
    p.add_argument("--output", type=Path, default=None)

    return parser


class _Config:
    """Layered lookup: CLI flag, then config-file key, then builtin default."""

    def __init__(self, args: argparse.Namespace):
        self.args = args
        self.file: dict = {}
        if args.config is not None:
            self.file = json.loads(Path(args.config).read_text())
        self.resolved: dict = {}

    def get(self, key: str, default=None):
        value = getattr(self.args, key.replace("-", "_"), None)
        if value is None:
            value = self.file.get(key, default)
        self.resolved[key] = value
        return value


def _out_dir(args: argparse.Namespace) -> Path:
    out = args.out_dir or os.environ.get(OUT_DIR_ENV) or "."
    out = Path(out)
    out.mkdir(parents=True, exist_ok=True)
    return out


def _table(cfg: _Config) -> BookTable:
    k = cfg.get("k", -1.0)
    n = cfg.get("sheets", 1)
    return BookTable(k=k, sheets=n)


def _cmd_simulate(args, cfg: _Config, out: Path) -> int:
    table = _table(cfg)
    stop_reflections = cfg.get("reflections")
    stop_time = cfg.get("time")
    if stop_reflections is None and stop_time is None:
        raise ValidationError(
            "a stop condition is required: --reflections N or --time T"
        )
    initial = cfg.get("initial")
    sheet = cfg.get("sheet", 1) or 1
    if initial is None:
        seed = cfg.get("seed", 0)
        rng = np.random.default_rng(seed)
        r = 0.9 * math.sqrt(rng.uniform())
        ang = rng.uniform(0.0, 2.0 * math.pi)
        vx, vy = rng.uniform(-1.0, 1.0, size=2)
        initial = [r * math.cos(ang), r * math.sin(ang), vx, vy]
    state = PhaseState(sheet, *map(float, initial))
    segments = simulate(
        table, state, max_reflections=stop_reflections, max_time=stop_time
    )
    samples = cfg.get("samples-per-segment", 16)
    io.write_trajectory_csv(out / "trajectory.csv", table, segments, samples)
    print(out / "trajectory.csv")
    if cfg.get("svg", False):
        mv = momentum_map(state, table.k)
        inner = inner_radius(mv.h, mv.f, table.k) if in_image(mv.h, mv.f, table.k) else None
        io.write_orbit_svg(out / "orbit.svg", table, segments, inner=inner)
        print(out / "orbit.svg")
    return 0


def _cmd_diagram(args, cfg: _Config, out: Path) -> int:
    k = cfg.get("k", -1.0)
    diagram = bifurcation_diagram(
        k,
        f_min=cfg.get("f-min", -1.5),
        f_max=cfg.get("f-max", 1.5),
        resolution=cfg.get("resolution", 201),
    )
    io.write_diagram_csv(out / "diagram.csv", diagram)
    print(out / "diagram.csv")
    if cfg.get("svg", False):
        io.write_diagram_svg(out / "diagram.svg", diagram)
        print(out / "diagram.svg")
    return 0


def _cmd_classify(args, cfg: _Config, out: Path) -> int:
    table = _table(cfg)
    if cfg.get("grid", False):
        h = np.linspace(cfg.get("h-min", -1.5), cfg.get("h-max", 1.5), cfg.get("resolution", 201))
        f = np.linspace(cfg.get("f-min", -1.5), cfg.get("f-max", 1.5), cfg.get("resolution", 201))
        path = out / "classification.csv"
        with open(path, "w") as fh:
            fh.write("h,f,tag,pinches\n")
            for hv in h:
                for fv in f:
                    fiber = classify_fiber(table, float(hv), float(fv))
                    fh.write(
                        f"{io.fmt(hv)},{io.fmt(fv)},{fiber.tag.value},"
                        f"{fiber.pinches if fiber.pinches is not None else ''}\n"
                    )
        print(path)
        return 0
    h, f = cfg.get("h"), cfg.get("f")
    if h is None or f is None:
        raise ValidationError("classify needs --h and --f (or --grid)")
    fiber = classify_fiber(table, h, f)
    doc = {
        "h": h,
        "f": f,
        "tag": fiber.tag.value,
        "pinches": fiber.pinches,
        "contains_focus_focus": fiber.contains_focus_focus,
        "config": cfg.resolved,
    }
    json.dump(doc, sys.stdout, indent=2, sort_keys=True)
    print()
    return 0


def _cmd_eigen(args, cfg: _Config, out: Path) -> int:
    k = cfg.get("k", -1.0)
    if not k < 0:
        raise ValidationError("k must be negative")
    spectrum = pencil_eigenvalues(k, cfg.get("lam", 1.0), cfg.get("mu", 1.0))
    doc = io.spectrum_report_dict(k, spectrum)
    doc["config"] = cfg.resolved
    io.write_json(out / "spectrum.json", doc)
    print(out / "spectrum.json")
    return 0


def _cmd_rotation(args, cfg: _Config, out: Path) -> int:
    table = _table(cfg)
    h, f = cfg.get("h"), cfg.get("f")
    sample = radial_period_quadrature(table, h, f)
    doc = {
        "h": h,
        "f": f,
        "T_r": sample.T_r,
        "dphi": sample.dphi,
        "theta": sample.theta,
        "config": cfg.resolved,
    }
    if cfg.get("compare-sim", False):
        sim = radial_period_simulated(table, h, f)
        doc["T_r_sim"] = sim.T_r
        doc["dphi_sim"] = sim.dphi
    json.dump(doc, sys.stdout, indent=2, sort_keys=True)
    print()
    return 0


def _cmd_monodromy(args, cfg: _Config, out: Path) -> int:
    table = _table(cfg)
    loop = loop_around_origin(
        table,
        c=cfg.get("c", 0.5),
        f_max=cfg.get("f-max", 0.8),
        points_per_arc=cfg.get("points-per-arc", 64),
    )
    report = continue_theta(table, loop)
    io.write_json(out / "monodromy.json", io.monodromy_report_dict(report, cfg.resolved))
    io.write_continuation_csv(out / "continuation.csv", report)
    print(out / "monodromy.json")
    print(out / "continuation.csv")
    return 0


def _cmd_plot(args, cfg: _Config, out: Path) -> int:
    meta, rows = io.read_trajectory_csv(args.trajectory)
    table = BookTable(k=meta["k"], sheets=meta["n"])
    # one polyline per segment, through the sampled CSV rows themselves
    by_segment: dict[int, list[dict]] = {}
    for row in rows:
        by_segment.setdefault(row["segment"], []).append(row)
    polylines = [
        (pts[0]["sheet"], [(row["x"], row["y"]) for row in pts])
        for _, pts in sorted(by_segment.items())
    ]
    h, f = rows[0]["h"], rows[0]["f"]
    inner = inner_radius(h, f, table.k) if in_image(h, f, table.k) else None
    output = args.output or out / "orbit.svg"
    io.write_polylines_svg(output, polylines, inner=inner)
    print(output)
    return 0


_COMMANDS = {
    "simulate": _cmd_simulate,
    "diagram": _cmd_diagram,
    "classify": _cmd_classify,
    "eigen": _cmd_eigen,
    "rotation": _cmd_rotation,
    "monodromy": _cmd_monodromy,
    "plot": _cmd_plot,
}


def main(argv: list[str] | None = None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        cfg = _Config(args)
        out = _out_dir(args)
        return _COMMANDS[args.command](args, cfg, out)
    except ValidationError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except ConvergenceError as exc:
        print(f"convergence failure: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
