"""CSV, JSON, and SVG serialization of simulation and analysis results.

Each output format is written here and only here, one way: CSV rows by
_write_rows(), with 17 significant digits so conservation stays auditable;
JSON reports by json_text(); SVG polylines by _polyline(), in a fixed
template that keeps figures byte-deterministic. read_csv() reads the
trajectory, diagram and continuation CSVs back as numpy columns by name;
classification.csv, whose tag column is text, does not read back. Every
writer opens its file through _create(), which refuses a path that cannot
take the file (a directory, a missing parent, no permission) as bad input.
"""

from __future__ import annotations

import json
import warnings
from pathlib import Path

import numpy as np

from .dynamics import _CHUNK, Trajectory, _sample_trajectory
from .linearization import PencilSpectrum
from .model import BookTable, ValidationError, require_count, require_fits
from .momentum import FIBER_TAGS, BifurcationDiagram, FiberTag, classify_grid, h_and_f
from .monodromy import MonodromyReport


def fmt(x: float) -> str:
    return f"{x:.17g}"


def _create(path: str | Path, newline: str | None = None):
    """open(path, "w"); a path that cannot take the file is bad input."""
    try:
        return open(path, "w", newline=newline)
    except (IsADirectoryError, NotADirectoryError, FileNotFoundError, PermissionError) as exc:
        raise ValidationError(f"cannot write {path}: {exc.strerror}") from None


def _write_rows(fh, line: str, rows) -> None:
    """Write ``line % row`` for every row of a 2-D array, _CHUNK rows per write."""
    rows = np.asarray(rows)
    for lo in range(0, len(rows), _CHUNK):
        block = rows[lo : lo + _CHUNK]
        fh.write((line * len(block)) % tuple(block.ravel().tolist()))


#: columns read_csv() returns as ints; every other column is a float
_INT_COLUMNS = ("segment", "sheet", "arc_index", "singular_point")


def read_csv(path: str | Path) -> tuple[dict, dict[str, np.ndarray]]:
    """(header metadata, numpy columns by name) of a CSV written here.

    The metadata are the ``key=value`` words of a leading ``#`` line: ``k`` a
    float, the rest ints, and none without such a line.
    """
    with open(path) as fh:
        line = fh.readline()
        meta = {}
        if line.startswith("#"):
            for key, _, val in (word.partition("=") for word in line.split() if "=" in word):
                meta[key] = float(val) if key == "k" else int(val)
            line = fh.readline()
        names = line.strip().split(",")
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", UserWarning)  # a header-only file has no rows
            body = np.loadtxt(fh, delimiter=",", ndmin=2).reshape(-1, len(names))
    return meta, {
        name: body[:, i].astype(int) if name in _INT_COLUMNS else body[:, i]
        for i, name in enumerate(names)
    }


# ---------------------------------------------------------------------------
# trajectory CSV

TRAJECTORY_COLUMNS = ["segment", "sheet", "t", "x", "y", "vx", "vy", "h", "f"]


def write_trajectory_csv(
    path: str | Path,
    table: BookTable,
    trajectory: Trajectory,
    samples_per_segment: int = 16,
) -> None:
    """Rows sample each segment at equal time steps, endpoints included.

    A ``#`` line with k and n precedes the header. Rows are segment and sheet
    as ints, then t, x, y, vx, vy, h and f to 17 digits, ending in ``\\r\\n``.
    """
    k, count = table.k, samples_per_segment
    require_count(count, "samples_per_segment", 1)
    chunk_rows = min(len(trajectory), _CHUNK) * (int(count) + 1)  # 9 floats a row
    require_fits(9 * 8 * chunk_rows, "samples_per_segment=%r", count)
    line = "%d,%d" + ",%.17g" * 7 + "\r\n"
    # each segment's start time: the durations before it, summed in order
    t_start = np.cumsum(np.concatenate(([0.0], trajectory.duration[:-1])))
    sheet = trajectory.sheet
    with _create(path, "") as fh:
        fh.write(f"# billiardbook trajectory k={fmt(table.k)} n={table.sheets}\n")
        fh.write(",".join(TRAJECTORY_COLUMNS) + "\r\n")
        for lo, tau, states in _sample_trajectory(trajectory, k, count):
            hi = lo + len(tau)
            rows = np.empty(tau.shape + (9,))
            rows[..., 0] = np.arange(lo, hi)[:, None]
            rows[..., 1] = sheet[lo:hi, None]
            rows[..., 2] = t_start[lo:hi, None] + tau
            rows[..., 3:7] = states
            rows[..., 7], rows[..., 8] = h_and_f(*np.moveaxis(states, -1, 0), k)
            _write_rows(fh, line, rows.reshape(-1, 9))


#: the name ``billiardbook plot`` reads a trajectory by: metadata k and n, and the columns
read_trajectory_csv = read_csv


# ---------------------------------------------------------------------------
# bifurcation diagram CSV

DIAGRAM_COLUMNS = ["f", "h_parabola", "singular_point"]


def write_diagram_csv(path: str | Path, diagram: BifurcationDiagram) -> None:
    """Parabola samples plus the isolated point (0, 0) as a flagged row."""
    h0, f0 = diagram.isolated_point
    rows = np.column_stack((diagram.f, diagram.h, np.zeros(diagram.f.size)))
    rows = np.vstack((rows, (f0, h0, 1)))
    with _create(path, "") as fh:
        fh.write(f"# billiardbook diagram k={fmt(diagram.k)}\n")
        fh.write(",".join(DIAGRAM_COLUMNS) + "\r\n")
        _write_rows(fh, "%.17g,%.17g,%d\r\n", rows)


# ---------------------------------------------------------------------------
# fiber classification CSV (no reader: the tag column is text)


def write_classification_csv(
    path: str | Path, table: BookTable, h: np.ndarray, f: np.ndarray
) -> None:
    """Rows h, f, tag, pinches for every grid value, all f at the first h first.

    Only a pinched torus fills pinches (with the sheet count); ``\\n`` line ends.
    """
    labels = np.array([  # "tag,pinches" of each FIBER_TAGS index
        f"{tag.value},{table.sheets if tag is FiberTag.PINCHED_TORUS else ''}" for tag in FIBER_TAGS
    ], dtype=object)
    codes = classify_grid(table, h[:, None], f)
    # each h and f becomes a Python float once, not once per grid cell
    h, f = np.broadcast_arrays(h.astype(object)[:, None], f.astype(object))
    rows = np.column_stack((h.ravel(), f.ravel(), labels[codes].ravel()))
    with _create(path) as fh:
        fh.write("h,f,tag,pinches\n")
        _write_rows(fh, "%.17g,%.17g,%s\n", rows)


# ---------------------------------------------------------------------------
# monodromy continuation CSV and report JSON

CONTINUATION_COLUMNS = ["arc_index", "h", "f", "T_r", "dphi", "theta_unwrapped"]


def write_continuation_csv(path: str | Path, report: MonodromyReport) -> None:
    """One row per continuation sample: its index, then 17-digit floats."""
    s = report.samples
    rows = np.column_stack((np.arange(len(s)), s.h, s.f, s.T_r, s.dphi, report.theta_unwrapped))
    with _create(path, "") as fh:
        fh.write(",".join(CONTINUATION_COLUMNS) + "\r\n")
        _write_rows(fh, "%d" + ",%.17g" * 5 + "\r\n", rows)


def monodromy_report_dict(report: MonodromyReport) -> dict:
    gluing, labels = report.gluing_matrix_hpos, report.labels
    return {
        "m": report.m,
        "delta_theta": report.delta_theta,
        "unwrap_margin": report.unwrap_margin,
        "bisections": report.bisections,
        "samples": len(report.samples),
        "monodromy_matrix": [list(row) for row in report.monodromy_matrix],
        "gluing_matrix_hpos": None if gluing is None else [list(row) for row in gluing],
        "labels": None if labels is None else {
            "r_hneg": "inf",
            "r_hpos": str(labels.r_hpos),
            "epsilon": labels.epsilon,
            "derived_from_m": labels.derived_from_m,
        },
        "loop": [[h, f] for h, f in report.loop],
    }


def spectrum_report_dict(k: float, spectrum: PencilSpectrum) -> dict:
    return {
        "k": k,
        "lambda": spectrum.lam,
        "mu": spectrum.mu,
        "eigenvalues": [[e.real, e.imag] for e in spectrum.eigenvalues],
        "classification": spectrum.classification.value,
    }


def json_text(doc: dict) -> str:
    """A JSON report as written to its file or to stdout: sorted keys, indent 2."""
    return json.dumps(doc, indent=2, sort_keys=True) + "\n"


def write_json(path: str | Path, doc: dict) -> None:
    with _create(path) as fh:
        fh.write(json_text(doc))


# ---------------------------------------------------------------------------
# SVG figures

_SVG_SIZE = 560
#: samples per segment along each orbit polyline of write_orbit_svg()
_ORBIT_SAMPLES = 48
#: bytes write_orbit_svg() holds a segment: the (x, y) float points of its polyline
ORBIT_SEGMENT_BYTES = 2 * 8 * (_ORBIT_SAMPLES + 1)
_PALETTE = ["#1f77b4", "#d62728", "#2ca02c", "#9467bd", "#ff7f0e", "#8c564b"]


def _polyline(xy, color: str, width: float) -> str:
    """An SVG polyline through (x, y) points, y flipped, with 6 decimals."""
    flipped = np.column_stack((xy[:, 0], -xy[:, 1])).ravel().tolist()
    pts = " ".join(["%.6f,%.6f"] * len(xy)) % tuple(flipped)
    return f'<polyline points="{pts}" fill="none" stroke="{color}" stroke-width="{width:g}"/>'


def _svg_open(x0: float, y0: float, width: float, height: float) -> list[str]:
    return [
        '<?xml version="1.0" encoding="UTF-8"?>',
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{_SVG_SIZE}" height="{_SVG_SIZE}" '
        f'viewBox="{x0:g} {y0:g} {width:g} {height:g}">',
    ]


def write_orbit_svg(
    path: str | Path, table: BookTable, trajectory: Trajectory, inner: float | None = None
) -> None:
    """Unit circle, the inner circle r0, and one orbit polyline per segment.

    Each polyline runs through _ORBIT_SAMPLES + 1 equally spaced states of its segment, whose
    (x, y) fill one block first: ORBIT_SEGMENT_BYTES a segment.
    """
    points = np.empty((len(trajectory), _ORBIT_SAMPLES + 1, 2))
    for lo, _, states in _sample_trajectory(trajectory, table.k, _ORBIT_SAMPLES):
        points[lo : lo + len(states)] = states[..., :2]
    write_polylines_svg(path, trajectory.sheet, points, inner=inner)


def write_polylines_svg(path: str | Path, sheets, points, inner: float | None = None) -> None:
    """Unit circle, the inner circle r0, and polyline i through the (m, 2) floats ``points[i]``.

    Polyline i lies on sheet ``sheets[i]``. The polylines are drawn grouped by sheet, in order
    within a sheet, one color per sheet, and each is written as soon as it is formatted. The
    y axis is flipped so the figure uses the usual mathematical orientation.
    """
    lines = _svg_open(-1.15, -1.15, 2.3, 2.3)
    lines.append('<circle cx="0" cy="0" r="1" fill="none" stroke="#000000" stroke-width="0.01"/>')
    if inner is not None and inner > 0.0:
        lines.append(
            f'<circle cx="0" cy="0" r="{inner:.6f}" fill="none" stroke="#888888" '
            'stroke-width="0.005" stroke-dasharray="0.03,0.03"/>'
        )
    with _create(path) as fh:
        fh.write("\n".join(lines) + "\n")
        for i in np.argsort(sheets, kind="stable"):
            color = _PALETTE[(sheets[i] - 1) % len(_PALETTE)]
            fh.write(_polyline(points[i], color, 0.006) + "\n")
        fh.write("</svg>\n")


def write_diagram_svg(path: str | Path, diagram: BifurcationDiagram) -> None:
    """Bifurcation diagram in (f, h) axes: parabola plus the isolated point."""
    f_lo, f_hi = float(diagram.f.min()), float(diagram.f.max())
    h_lo, h_hi = float(diagram.h.min()), float(diagram.h.max())
    pad_f = 0.1 * (f_hi - f_lo)
    pad_h = 0.1 * (h_hi - h_lo)
    lines = _svg_open(f_lo - pad_f, -h_hi - pad_h, (f_hi - f_lo) + 2 * pad_f, (h_hi - h_lo) + 2 * pad_h)
    lines.append(_polyline(np.column_stack((diagram.f, diagram.h)), "#1f77b4", 0.01))
    h0, f0 = diagram.isolated_point
    lines.append(f'<circle cx="{f0:g}" cy="{-h0:g}" r="0.02" fill="#d62728"/>')
    lines.append("</svg>")
    with _create(path) as fh:
        fh.write("\n".join(lines) + "\n")
