"""Command-line surface: reproduce the figures and tables as CSV/JSON/SVG.

Each option resolves once, in the parser: a flag beats a --config file value,
which beats the builtin default. JSON reports echo every option of their
command at its resolved value, for provenance. Exit codes: 0 success, 2
validation error, 3 numerical-convergence failure.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import re
import sys
from pathlib import Path

import numpy as np

from . import io
from .dynamics import simulate
from .linearization import pencil_eigenvalues
from .model import (
    BookTable, ConvergenceError, PhaseState, ValidationError, require_count, require_fits,
)
from .momentum import bifurcation_diagram, classify_fiber, in_image, inner_radius, momentum_map
from .monodromy import (
    continue_theta,
    loop_around_origin,
    radial_period_quadrature,
    radial_period_simulated,
)

OUT_DIR_ENV = "BILLIARDBOOK_OUT"


def _finite(token: str) -> float:
    """The float type of every float option: NaN and +-inf are bad input."""
    try:
        value = float(token)
    except ValueError:
        value = math.nan
    if not math.isfinite(value):
        raise argparse.ArgumentTypeError(f"invalid finite float value: {token.strip()!r}")
    return value


def _build_parser() -> tuple[argparse.ArgumentParser, dict[str, argparse.ArgumentParser]]:
    """The parser and, by command name, its subcommand parsers."""
    parser = argparse.ArgumentParser(
        prog="billiardbook",
        description="Circular billiard books with a repelling Hooke potential.",
    )
    parser.add_argument("--config", type=Path, help="JSON file with default parameters")
    parser.add_argument("--out-dir", type=Path, help=f"output directory (or ${OUT_DIR_ENV})")
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p, sheets=True):
        p.add_argument("-k", type=_finite, default=-1.0, help="Hooke coefficient, negative")
        if sheets:  # diagram and eigen do not depend on the sheet count
            p.add_argument("-n", "--sheets", type=int, default=1, help="number of sheets")

    p = sub.add_parser("simulate", help="propagate a trajectory, write CSV (and SVG)")
    common(p)
    p.add_argument("--initial", type=_finite, nargs=4, metavar=("X", "Y", "VX", "VY"))
    p.add_argument("--sheet", type=int, default=1)
    p.add_argument("--reflections", type=int)
    p.add_argument("--time", type=_finite)
    p.add_argument("--seed", type=int, default=0, help="random initial state seed")
    p.add_argument("--samples-per-segment", type=int, default=16)
    p.add_argument("--svg", action="store_true", help="also draw the orbit and annulus")

    p = sub.add_parser("diagram", help="bifurcation diagram CSV (and SVG)")
    common(p, sheets=False)
    p.add_argument("--f-min", type=_finite, default=-1.5)
    p.add_argument("--f-max", type=_finite, default=1.5)
    p.add_argument("--resolution", type=int, default=201)
    p.add_argument("--svg", action="store_true")

    p = sub.add_parser("classify", help="classify fibers at a value or on a grid")
    common(p)
    p.add_argument("--h", type=_finite)
    p.add_argument("--f", type=_finite)
    p.add_argument("--grid", action="store_true")
    p.add_argument("--h-min", type=_finite, default=-1.5)
    p.add_argument("--h-max", type=_finite, default=1.5)
    p.add_argument("--f-min", type=_finite, default=-1.5)
    p.add_argument("--f-max", type=_finite, default=1.5)
    p.add_argument("--resolution", type=int, default=201)

    p = sub.add_parser("eigen", help="pencil spectrum JSON report")
    common(p, sheets=False)
    p.add_argument("--lam", type=_finite, default=1.0)
    p.add_argument("--mu", type=_finite, default=1.0)

    p = sub.add_parser("rotation", help="radial period and angular advance at (h, f)")
    common(p)
    p.add_argument("--h", type=_finite, required=True)
    p.add_argument("--f", type=_finite, required=True)
    p.add_argument("--compare-sim", action="store_true")

    p = sub.add_parser("monodromy", help="continue theta along a loop, report m")
    common(p)
    p.add_argument("--c", type=_finite, default=0.5, help="inner-radius loop parameter")
    p.add_argument("--f-max", type=_finite, default=0.8)
    p.add_argument("--points-per-arc", type=int, default=64)

    p = sub.add_parser("plot", help="orbit SVG from an existing trajectory CSV")
    p.add_argument("--trajectory", type=Path, required=True)
    p.add_argument("--output", type=Path)

    return parser, sub.choices


def _fits(kind, nargs, value) -> bool:
    """Whether a JSON value has the type an option of this type and nargs parses to."""
    if nargs == 0:  # store-true flag
        return isinstance(value, bool)
    if isinstance(nargs, int):
        return (
            isinstance(value, list)
            and len(value) == nargs
            and all(_fits(kind, None, v) for v in value)
        )
    if isinstance(value, bool):
        return False
    if kind is _finite:  # json.loads reads NaN and Infinity as floats; a huge int fails too
        return isinstance(value, (int, float)) and abs(value) <= sys.float_info.max
    return isinstance(value, int if kind is int else str)


def _file_defaults(path: Path, command: argparse.ArgumentParser) -> dict:
    """The values of a --config file that name an option of command (by long name, as
    sheets, f-max, compare-sim), by dest, each checked against its option's type."""
    try:
        doc = json.loads(path.read_text())
    except (OSError, ValueError) as exc:  # ValueError covers bad JSON and bad UTF-8
        raise ValidationError(f"cannot read --config {path}: {exc}") from None
    if not isinstance(doc, dict):
        raise ValidationError(f"--config {path} is not a JSON object")
    options = {a.dest.replace("_", "-"): a for a in command._actions if a.dest != "help"}
    chosen = {options[key]: value for key, value in doc.items() if key in options}
    for action, value in chosen.items():
        if not _fits(action.type, action.nargs, value):
            raise ValidationError(
                f"--config {path}: {value!r} does not fit {action.option_strings[-1]}"
            )
        if action.type is _finite:  # an int becomes the float that its flag parses to
            chosen[action] = [*map(float, value)] if isinstance(value, list) else float(value)
    return {action.dest: value for action, value in chosen.items()}


def _out_dir(args: argparse.Namespace) -> Path:
    out = Path(args.out_dir or os.environ.get(OUT_DIR_ENV) or ".")
    try:
        out.mkdir(parents=True, exist_ok=True)
    except (FileExistsError, NotADirectoryError) as exc:  # a file stands in the way
        raise ValidationError(f"cannot use --out-dir {out}: {exc}") from None
    return out


def _report(args: argparse.Namespace, doc: dict, path: Path | None = None) -> None:
    """Emit a JSON report whose config is each option of the command, by long name, at its
    resolved value: to path (then print it), or to stdout."""
    before = ("config", "out_dir", "command")  # the options before the command
    doc["config"] = {d.replace("_", "-"): v for d, v in vars(args).items() if d not in before}
    if path is None:
        sys.stdout.write(io.json_text(doc))
    else:
        io.write_json(path, doc)
        print(path)


def _table(args: argparse.Namespace) -> BookTable:
    return BookTable(k=args.k, sheets=args.sheets)


def _cmd_simulate(args, out: Path) -> None:
    table = _table(args)
    if args.reflections is None and args.time is None:
        raise ValidationError("a stop condition is required: --reflections N or --time T")
    initial = args.initial
    if initial is None:
        if args.seed < 0:
            raise ValidationError(f"--seed must be non-negative, got {args.seed}")
        rng = np.random.default_rng(args.seed)
        r = 0.9 * math.sqrt(rng.uniform())
        ang = rng.uniform(0.0, 2.0 * math.pi)
        vx, vy = rng.uniform(-1.0, 1.0, size=2)
        initial = [r * math.cos(ang), r * math.sin(ang), vx, vy]
    state = PhaseState(args.sheet, *map(float, initial))
    trajectory = simulate(table, state, max_reflections=args.reflections, max_time=args.time)
    if args.svg:  # refused before either file is written
        segments = len(trajectory)
        require_fits(io.ORBIT_SEGMENT_BYTES * segments, "an orbit figure of %d segments", segments)
    io.write_trajectory_csv(out / "trajectory.csv", table, trajectory, args.samples_per_segment)
    print(out / "trajectory.csv")
    if args.svg:
        mv = momentum_map(state, table.k)
        inner = inner_radius(mv.h, mv.f, table.k) if in_image(mv.h, mv.f, table.k) else None
        io.write_orbit_svg(out / "orbit.svg", table, trajectory, inner=inner)
        print(out / "orbit.svg")
    if trajectory.stop_reason in ("grazing", "stable-manifold"):
        print(
            f"stopped early: {trajectory.stop_reason}; "
            f"reflections made: {trajectory.reflections}",
            file=sys.stderr,
        )


def _cmd_diagram(args, out: Path) -> None:
    diagram = bifurcation_diagram(args.k, args.f_min, args.f_max, args.resolution)
    io.write_diagram_csv(out / "diagram.csv", diagram)
    print(out / "diagram.csv")
    if args.svg:
        io.write_diagram_svg(out / "diagram.svg", diagram)
        print(out / "diagram.svg")


def _cmd_classify(args, out: Path) -> None:
    table = _table(args)
    if args.grid:
        resolution = args.resolution
        require_count(resolution, "resolution", 2)
        require_fits(56 * resolution**2, "resolution=%r", resolution)  # the writer's 7 words a cell
        h = np.linspace(args.h_min, args.h_max, resolution)
        f = np.linspace(args.f_min, args.f_max, resolution)
        io.write_classification_csv(out / "classification.csv", table, h, f)
        print(out / "classification.csv")
        return
    h, f = args.h, args.f
    if h is None or f is None:
        raise ValidationError("classify needs --h and --f (or --grid)")
    fiber = classify_fiber(table, h, f)
    doc = {
        "h": h,
        "f": f,
        "tag": fiber.tag.value,
        "pinches": fiber.pinches,
        "contains_focus_focus": fiber.contains_focus_focus,
    }
    _report(args, doc)


def _cmd_eigen(args, out: Path) -> None:
    spectrum = pencil_eigenvalues(args.k, args.lam, args.mu)
    _report(args, io.spectrum_report_dict(args.k, spectrum), out / "spectrum.json")


def _cmd_rotation(args, out: Path) -> None:
    table = _table(args)
    h, f = args.h, args.f
    sample = radial_period_quadrature(table, h, f)
    doc = {
        "h": h,
        "f": f,
        "T_r": sample.T_r,
        "dphi": sample.dphi,
        "theta": sample.theta,
    }
    if args.compare_sim:
        sim = radial_period_simulated(table, h, f)
        doc["T_r_sim"] = sim.T_r
        doc["dphi_sim"] = sim.dphi
    _report(args, doc)


def _cmd_monodromy(args, out: Path) -> None:
    table = _table(args)
    loop = loop_around_origin(table, c=args.c, f_max=args.f_max, points_per_arc=args.points_per_arc)
    report = continue_theta(table, loop)
    _report(args, io.monodromy_report_dict(report), out / "monodromy.json")
    io.write_continuation_csv(out / "continuation.csv", report)
    print(out / "continuation.csv")


def _cmd_plot(args, out: Path) -> None:
    try:
        meta, columns = io.read_trajectory_csv(args.trajectory)
        table = BookTable(k=meta["k"], sheets=meta["n"])
        columns = {name: columns[name] for name in ("segment", "sheet", "x", "y", "h", "f")}
    except (OSError, ValueError, KeyError) as exc:  # KeyError: no k, n or column of that name
        raise ValidationError(f"cannot read --trajectory {args.trajectory}: {exc}") from None
    sheets, points, inner = (), (), None
    if len(columns["segment"]):
        # one polyline per segment, through the sampled CSV rows themselves
        firsts = np.flatnonzero(np.diff(columns["segment"])) + 1
        sheets = columns["sheet"][np.r_[0, firsts]]
        points = np.split(np.column_stack((columns["x"], columns["y"])), firsts)
        h, f = float(columns["h"][0]), float(columns["f"][0])
        inner = inner_radius(h, f, table.k) if in_image(h, f, table.k) else None
    output = args.output or out / "orbit.svg"
    try:
        io.write_polylines_svg(output, sheets, points, inner=inner)
    except ValidationError as exc:  # a path that cannot take the file
        raise ValidationError(f"--output: {exc}") from None
    print(output)


_COMMANDS = {
    "simulate": _cmd_simulate,
    "diagram": _cmd_diagram,
    "classify": _cmd_classify,
    "eigen": _cmd_eigen,
    "rotation": _cmd_rotation,
    "monodromy": _cmd_monodromy,
    "plot": _cmd_plot,
}


def _as_value(token: str) -> str:
    """token with a leading space, which float() and int() ignore, if it is a negative
    number that argparse would take for an option: any but a plain decimal (-1, -0.5).
    No option of this CLI looks like a number, so -1e-12 is always a value.
    """
    if not re.match(r"-[\d.]", token) or re.fullmatch(r"-\d+|-\d*\.\d+", token):
        return token
    try:
        float(token)
    except ValueError:
        return token
    return " " + token


def main(argv: list[str] | None = None) -> int:
    parser, commands = _build_parser()
    argv = [_as_value(a) for a in (sys.argv[1:] if argv is None else argv)]
    args = parser.parse_args(argv)
    try:
        if args.config is not None:  # the file's values become defaults, which a flag beats
            command = commands[args.command]
            command.set_defaults(**_file_defaults(args.config, command))
            args = parser.parse_args(argv)
        _COMMANDS[args.command](args, _out_dir(args))
    except ValidationError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except ConvergenceError as exc:
        print(f"convergence failure: {exc}", file=sys.stderr)
        return 3
    return 0


if __name__ == "__main__":
    sys.exit(main())
