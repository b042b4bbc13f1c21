"""CSV, JSON, and SVG serialization of simulation and analysis results.

Numeric CSV columns are written with 17 significant digits so conservation
properties remain auditable downstream; every writer has a matching reader so
emitted files round-trip through the package itself. SVG output is built by
hand from a fixed template, which keeps it byte-deterministic and diff-able.
"""

from __future__ import annotations

import csv
import json
import math
from fractions import Fraction
from pathlib import Path

from .dynamics import TrajectorySegment, sample_segment
from .linearization import PencilSpectrum
from .model import BookTable
from .momentum import BifurcationDiagram, momentum_map
from .monodromy import MonodromyReport


def fmt(x: float) -> str:
    return f"{x:.17g}"


# ---------------------------------------------------------------------------
# trajectory CSV

TRAJECTORY_COLUMNS = ["segment", "sheet", "t", "x", "y", "vx", "vy", "h", "f"]


def write_trajectory_csv(
    path: str | Path,
    table: BookTable,
    segments: list[TrajectorySegment],
    samples_per_segment: int = 16,
) -> None:
    """Rows sample each segment at equal time steps, endpoints included."""
    with open(path, "w", newline="") as fh:
        fh.write(f"# billiardbook trajectory k={fmt(table.k)} n={table.sheets}\n")
        writer = csv.writer(fh)
        writer.writerow(TRAJECTORY_COLUMNS)
        t_abs = 0.0
        for i, seg in enumerate(segments):
            states = sample_segment(seg, table.k, samples_per_segment)
            for j, state in enumerate(states):
                t = t_abs + seg.duration * j / samples_per_segment
                mv = momentum_map(state, table.k)
                writer.writerow(
                    [i, state.sheet]
                    + [fmt(v) for v in (t, state.x, state.y, state.vx, state.vy, mv.h, mv.f)]
                )
            t_abs += seg.duration


def read_trajectory_csv(path: str | Path) -> tuple[dict, list[dict]]:
    """Returns (header metadata, rows as dicts of floats/ints)."""
    with open(path, newline="") as fh:
        first = fh.readline().strip()
        meta = {}
        for tok in first.lstrip("# ").split():
            if "=" in tok:
                key, val = tok.split("=")
                meta[key] = float(val) if key == "k" else int(val)
        rows = []
        for row in csv.DictReader(fh):
            rows.append(
                {
                    key: (int(val) if key in ("segment", "sheet") else float(val))
                    for key, val in row.items()
                }
            )
    return meta, rows


# ---------------------------------------------------------------------------
# bifurcation diagram CSV

DIAGRAM_COLUMNS = ["f", "h_parabola", "singular_point"]


def write_diagram_csv(path: str | Path, diagram: BifurcationDiagram) -> None:
    """Parabola samples plus the isolated point (0, 0) as a flagged row."""
    with open(path, "w", newline="") as fh:
        fh.write(f"# billiardbook diagram k={fmt(diagram.k)}\n")
        writer = csv.writer(fh)
        writer.writerow(DIAGRAM_COLUMNS)
        for f, h in zip(diagram.f, diagram.h):
            writer.writerow([fmt(f), fmt(h), 0])
        writer.writerow([fmt(diagram.isolated_point[1]), fmt(diagram.isolated_point[0]), 1])


def read_diagram_csv(path: str | Path) -> tuple[dict, list[dict]]:
    with open(path, newline="") as fh:
        first = fh.readline().strip()
        meta = {"k": float(first.split("k=")[1])}
        rows = [
            {
                "f": float(row["f"]),
                "h_parabola": float(row["h_parabola"]),
                "singular_point": int(row["singular_point"]),
            }
            for row in csv.DictReader(fh)
        ]
    return meta, rows


# ---------------------------------------------------------------------------
# monodromy continuation CSV and report JSON

CONTINUATION_COLUMNS = ["arc_index", "h", "f", "T_r", "dphi", "theta_unwrapped"]


def write_continuation_csv(path: str | Path, report: MonodromyReport) -> None:
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(CONTINUATION_COLUMNS)
        for i, (sample, theta) in enumerate(zip(report.samples, report.theta_unwrapped)):
            writer.writerow(
                [i] + [fmt(v) for v in (sample.h, sample.f, sample.T_r, sample.dphi, theta)]
            )


def read_continuation_csv(path: str | Path) -> list[dict]:
    with open(path, newline="") as fh:
        return [
            {key: (int(val) if key == "arc_index" else float(val)) for key, val in row.items()}
            for row in csv.DictReader(fh)
        ]


def _fraction_str(r: Fraction | float) -> str:
    if isinstance(r, float) and math.isinf(r):
        return "inf"
    return str(r)


def monodromy_report_dict(report: MonodromyReport, provenance: dict | None = None) -> dict:
    doc = {
        "m": report.m,
        "delta_theta": report.delta_theta,
        "unwrap_margin": report.unwrap_margin,
        "monodromy_matrix": [list(row) for row in report.monodromy_matrix],
        "gluing_matrix_hpos": (
            [list(row) for row in report.gluing_matrix_hpos]
            if report.gluing_matrix_hpos is not None
            else None
        ),
        "labels": (
            {
                "r_hneg": "inf",
                "r_hpos": _fraction_str(report.labels.r_hpos),
                "epsilon": report.labels.epsilon,
                "derived_from_m": report.labels.derived_from_m,
            }
            if report.labels is not None
            else None
        ),
        "loop": [[h, f] for h, f in report.loop],
    }
    if provenance is not None:
        doc["config"] = provenance
    return doc


def spectrum_report_dict(k: float, spectrum: PencilSpectrum) -> dict:
    return {
        "k": k,
        "lambda": spectrum.lam,
        "mu": spectrum.mu,
        "eigenvalues": [[e.real, e.imag] for e in spectrum.eigenvalues],
        "classification": spectrum.classification.value,
    }


def write_json(path: str | Path, doc: dict) -> None:
    with open(path, "w") as fh:
        json.dump(doc, fh, indent=2, sort_keys=True)
        fh.write("\n")


def read_json(path: str | Path) -> dict:
    with open(path) as fh:
        return json.load(fh)


# ---------------------------------------------------------------------------
# SVG figures

_SVG_SIZE = 560
_PALETTE = ["#1f77b4", "#d62728", "#2ca02c", "#9467bd", "#ff7f0e", "#8c564b"]


def _svg_open(x0: float, y0: float, width: float, height: float) -> list[str]:
    return [
        '<?xml version="1.0" encoding="UTF-8"?>',
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{_SVG_SIZE}" height="{_SVG_SIZE}" '
        f'viewBox="{x0:g} {y0:g} {width:g} {height:g}">',
    ]


def write_orbit_svg(
    path: str | Path,
    table: BookTable,
    segments: list[TrajectorySegment],
    inner: float | None = None,
    samples_per_segment: int = 48,
) -> None:
    """Unit circle, the inner circle r0, and one orbit polyline per segment."""
    polylines = []
    for seg in segments:
        states = sample_segment(seg, table.k, samples_per_segment)
        polylines.append((seg.start.sheet, [(s.x, s.y) for s in states]))
    write_polylines_svg(path, polylines, inner=inner)


def write_polylines_svg(
    path: str | Path,
    polylines: list[tuple[int, list[tuple[float, float]]]],
    inner: float | None = None,
) -> None:
    """Unit circle, the inner circle r0, and (sheet, points) polylines by sheet.

    Polylines are drawn grouped by sheet, one color per sheet. The y axis is
    flipped so the figure uses the usual mathematical orientation.
    """
    lines = _svg_open(-1.15, -1.15, 2.3, 2.3)
    lines.append(
        '<circle cx="0" cy="0" r="1" fill="none" stroke="#000000" stroke-width="0.01"/>'
    )
    if inner is not None and inner > 0.0:
        lines.append(
            f'<circle cx="0" cy="0" r="{inner:.6f}" fill="none" stroke="#888888" '
            'stroke-width="0.005" stroke-dasharray="0.03,0.03"/>'
        )
    per_sheet: dict[int, list[list[tuple[float, float]]]] = {}
    for sheet, points in polylines:
        per_sheet.setdefault(sheet, []).append(points)
    for sheet in sorted(per_sheet):
        color = _PALETTE[(sheet - 1) % len(_PALETTE)]
        for points in per_sheet[sheet]:
            pts = " ".join(f"{x:.6f},{-y:.6f}" for x, y in points)
            lines.append(
                f'<polyline points="{pts}" fill="none" stroke="{color}" stroke-width="0.006"/>'
            )
    lines.append("</svg>")
    Path(path).write_text("\n".join(lines) + "\n")


def write_diagram_svg(path: str | Path, diagram: BifurcationDiagram) -> None:
    """Bifurcation diagram in (f, h) axes: parabola plus the isolated point."""
    f_lo, f_hi = float(diagram.f.min()), float(diagram.f.max())
    h_lo, h_hi = float(diagram.h.min()), float(diagram.h.max())
    pad_f = 0.1 * (f_hi - f_lo)
    pad_h = 0.1 * (h_hi - h_lo)
    lines = _svg_open(f_lo - pad_f, -h_hi - pad_h, (f_hi - f_lo) + 2 * pad_f, (h_hi - h_lo) + 2 * pad_h)
    pts = " ".join(f"{f:.6f},{-h:.6f}" for f, h in zip(diagram.f, diagram.h))
    lines.append(
        f'<polyline points="{pts}" fill="none" stroke="#1f77b4" stroke-width="0.01"/>'
    )
    h0, f0 = diagram.isolated_point
    lines.append(f'<circle cx="{f0:g}" cy="{-h0:g}" r="0.02" fill="#d62728"/>')
    lines.append("</svg>")
    Path(path).write_text("\n".join(lines) + "\n")
