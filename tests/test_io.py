"""Trajectory writers against per-row sampling of each segment."""

import xml.etree.ElementTree as ET

import pytest

from billiardbook import BookTable, PhaseState, io, momentum_map, sample_segment, simulate

RUNS = [
    # numpy columns, reflection-stopped
    (BookTable(k=-1.0, sheets=3), PhaseState(1, 0.5, 0.0, 0.0, 1.0), {"max_reflections": 300}),
    # numpy columns with a max_time tail
    (BookTable(k=-4.0, sheets=2), PhaseState(2, 0.2, -0.4, 0.9, 0.3), {"max_time": 40.3}),
    # a one-reflection run, whose columns are made when the writer reads them
    (BookTable(k=-0.25, sheets=5), PhaseState(4, -0.1, 0.3, 0.2, -0.6), {"max_reflections": 1}),
    # the boundary critical orbit
    (BookTable(k=-1.0, sheets=1), PhaseState(1, 1.0, 0.0, 0.0, 0.5), {"max_time": 4.0}),
]
IDS = ["reflections", "time", "short", "boundary-orbit"]


def reference_rows(table, trajectory, count):
    """Rows as written one at a time, from sample_segment() and momentum_map()."""
    rows, t_abs = [], 0.0
    for i, seg in enumerate(trajectory):
        for j, state in enumerate(sample_segment(seg, table.k, count)):
            mv = momentum_map(state, table.k)
            t = t_abs + seg.duration * j / count
            rows.append([i, state.sheet, t, state.x, state.y, state.vx, state.vy, mv.h, mv.f])
        t_abs += seg.duration
    return rows


@pytest.mark.parametrize("table,start,stop", RUNS, ids=IDS)
def test_csv_rows_match_per_row_sampling(tmp_path, table, start, stop):
    trajectory = simulate(table, start, **stop)
    path = tmp_path / "trajectory.csv"
    io.write_trajectory_csv(path, table, trajectory, samples_per_segment=16)
    header, _, body = path.read_bytes().decode().partition("\n")
    assert header == f"# billiardbook trajectory k={io.fmt(table.k)} n={table.sheets}"
    lines = body.split("\r\n")
    assert lines[0] == ",".join(io.TRAJECTORY_COLUMNS) and lines[-1] == ""
    expected = reference_rows(table, trajectory, 16)
    got = [line.split(",") for line in lines[1:-1]]
    assert len(got) == len(expected) == 17 * len(trajectory)
    worst = 0.0
    for row, ref in zip(got, expected):
        assert [int(row[0]), int(row[1])] == ref[:2]
        # 17 significant digits, as fmt() writes them
        assert all(io.fmt(float(v)) == v for v in row[2:])
        worst = max(worst, max(abs(float(v) - r) for v, r in zip(row[2:], ref[2:])))
    assert worst <= 1e-12
    meta, rows = io.read_trajectory_csv(path)
    assert meta == {"k": table.k, "n": table.sheets} and len(rows) == len(expected)


@pytest.mark.parametrize("table,start,stop", RUNS, ids=IDS)
def test_svg_points_match_per_row_sampling(tmp_path, table, start, stop):
    trajectory = simulate(table, start, **stop)
    path = tmp_path / "orbit.svg"
    io.write_orbit_svg(path, table, trajectory, inner=0.25)
    polylines = [el for el in ET.parse(path).getroot().iter() if el.tag.endswith("polyline")]
    assert len(polylines) == len(trajectory)
    # drawn grouped by sheet, in segment order within a sheet
    order = sorted(range(len(trajectory)), key=lambda i: trajectory[i].start.sheet)
    worst = 0.0
    for el, i in zip(polylines, order):
        points = [tuple(map(float, p.split(","))) for p in el.get("points").split()]
        expected = [(s.x, -s.y) for s in sample_segment(trajectory[i], table.k, 48)]
        assert len(points) == len(expected) == 49
        worst = max(worst, max(abs(a - b) for p, q in zip(points, expected) for a, b in zip(p, q)))
    # six decimals round by at most 5e-7
    assert worst <= 5e-7 + 1e-12
