"""Writers against per-state sampling of each segment and against csv.writer."""

import csv
import re
import tracemalloc
import xml.etree.ElementTree as ET

import numpy as np
import pytest

from billiardbook import (
    BookTable,
    PhaseState,
    ValidationError,
    bifurcation_diagram,
    continue_theta,
    io,
    loop_around_origin,
    momentum_map,
    simulate,
)
from billiardbook import cli
from billiardbook.dynamics import _sample_trajectory, sample_segment
from billiardbook.model import require_fits
from test_dynamics import sampled_states

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
ROW_RUNS = RUNS + [
    # a velocity component far below |x|, which the flow at tau = 0 rounds
    (BookTable(k=-1.0, sheets=1), PhaseState(1, 1.0, 0.0, -1e-12, 0.3), {"max_reflections": 2}),
    # more segments than one chunk of the sampler
    (BookTable(k=-4.0, sheets=2), PhaseState(2, 0.2, -0.4, 0.9, 0.3), {"max_reflections": 2100}),
]
ROW_IDS = IDS + ["small-velocity", "two-chunks"]


def reference_rows(table, trajectory, count):
    """Rows as written one at a time, from sampled_states() and momentum_map()."""
    rows, t_abs = [], 0.0
    states = sampled_states(trajectory, table.k, count).tolist()
    segments = zip(trajectory.sheet.tolist(), trajectory.duration.tolist(), states)
    for i, (sheet, duration, segment) in enumerate(segments):
        for j, state in enumerate(segment):
            mv = momentum_map(PhaseState(sheet, *state), table.k)
            rows.append([i, sheet, t_abs + duration * j / count, *state, mv.h, mv.f])
        t_abs += duration
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
    meta, columns = io.read_trajectory_csv(path)
    assert meta == {"k": table.k, "n": table.sheets} and len(columns["t"]) == len(expected)


@pytest.mark.parametrize("table,start,stop", RUNS, ids=IDS)
def test_svg_points_match_per_row_sampling(tmp_path, table, start, stop):
    trajectory = simulate(table, start, **stop)
    path = tmp_path / "orbit.svg"
    io.write_orbit_svg(path, table, trajectory, inner=0.25)
    polylines = [el for el in ET.parse(path).getroot().iter() if el.tag.endswith("polyline")]
    assert len(polylines) == len(trajectory)
    # drawn grouped by sheet, in segment order within a sheet
    order = np.argsort(trajectory.sheet, kind="stable").tolist()
    states = sampled_states(trajectory, table.k, 48)
    worst = 0.0
    for el, i in zip(polylines, order):
        points = [tuple(map(float, p.split(","))) for p in el.get("points").split()]
        expected = [(x, -y) for x, y in states[i, :, :2].tolist()]
        assert len(points) == len(expected) == 49
        worst = max(worst, max(abs(a - b) for p, q in zip(points, expected) for a, b in zip(p, q)))
    # six decimals round by at most 5e-7
    assert worst <= 5e-7 + 1e-12


@pytest.mark.parametrize("table,start,stop", ROW_RUNS, ids=ROW_IDS)
def test_each_segment_starts_at_its_start_row(tmp_path, table, start, stop):
    trajectory = simulate(table, start, **stop)
    path = tmp_path / "trajectory.csv"
    io.write_trajectory_csv(path, table, trajectory, samples_per_segment=4)
    rows = path.read_text().splitlines()[2:]
    assert len(rows) == 5 * len(trajectory)
    for i, row in enumerate(rows[::5]):
        assert row.split(",")[3:7] == [io.fmt(v) for v in trajectory.start[i].tolist()]


@pytest.mark.parametrize("table,start,stop", ROW_RUNS, ids=ROW_IDS)
def test_sample_segment_is_the_one_row_run(table, start, stop):
    # the segment sampler bench/ wraps: row i of the writers' sampler, bit for bit, on the
    # segment's sheet, and its first state is the start row itself
    trajectory = simulate(table, start, **stop)
    rows = np.concatenate([states for _, _, states in _sample_trajectory(trajectory, table.k, 8)])
    for i in range(len(trajectory)):
        states = sample_segment(trajectory[i], table.k, 8)
        got = np.array([(s.x, s.y, s.vx, s.vy) for s in states])
        assert got.tobytes() == rows[i].tobytes()
        assert got[0].tobytes() == trajectory.start[i].tobytes()
        assert {s.sheet for s in states} == {trajectory.sheet[i]}


def written_columns(path):
    """A CSV's columns parsed value by value, after its metadata line if it has one."""
    lines = path.read_text().splitlines()
    if lines[0].startswith("#"):
        lines = lines[1:]
    names, rows = lines[0].split(","), [line.split(",") for line in lines[1:]]
    ints = ("segment", "sheet", "arc_index", "singular_point")
    return {
        name: (int if name in ints else float, [row[i] for row in rows])
        for i, name in enumerate(names)
    }


def write_and_read(kind, path):
    table, start = BookTable(k=-4.0, sheets=2), PhaseState(2, 0.2, -0.4, 0.9, 0.3)
    if kind in ("trajectory", "empty-trajectory"):
        stop = {"max_time": 40.3} if kind == "trajectory" else {"max_reflections": 0}
        io.write_trajectory_csv(path, table, simulate(table, start, **stop))
        return io.read_trajectory_csv(path)
    if kind == "diagram":
        io.write_diagram_csv(path, bifurcation_diagram(-4.0, resolution=21))
        return io.read_csv(path)
    report = continue_theta(table, loop_around_origin(table, c=0.5, f_max=1.6, points_per_arc=8))
    io.write_continuation_csv(path, report)
    return io.read_csv(path)


@pytest.mark.parametrize("kind", ["trajectory", "empty-trajectory", "diagram", "continuation"])
def test_readers_return_the_written_columns(tmp_path, kind):
    path = tmp_path / "out.csv"
    meta, columns = write_and_read(kind, path)
    assert meta == {
        "trajectory": {"k": -4.0, "n": 2},
        "empty-trajectory": {"k": -4.0, "n": 2},
        "diagram": {"k": -4.0},
        "continuation": {},
    }[kind]
    written = written_columns(path)
    assert list(columns) == list(written)
    for name, (parse, values) in written.items():
        assert columns[name].dtype == np.dtype(parse) and columns[name].shape == (len(values),)
        assert columns[name].tolist() == [parse(v) for v in values]
    # a header-only file gives empty columns of the same dtypes
    assert all(len(column) == 0 for column in columns.values()) == (kind == "empty-trajectory")


def reference_diagram_csv(path, diagram):
    """write_diagram_csv as it was written with csv.writer, row by row."""
    with open(path, "w", newline="") as fh:
        fh.write(f"# billiardbook diagram k={io.fmt(diagram.k)}\n")
        writer = csv.writer(fh)
        writer.writerow(io.DIAGRAM_COLUMNS)
        for f, h in zip(diagram.f, diagram.h):
            writer.writerow([io.fmt(f), io.fmt(h), 0])
        writer.writerow([io.fmt(diagram.isolated_point[1]), io.fmt(diagram.isolated_point[0]), 1])


def reference_continuation_csv(path, report):
    """write_continuation_csv as it was written with csv.writer, row by row."""
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(io.CONTINUATION_COLUMNS)
        s = report.samples
        columns = (s.h, s.f, s.T_r, s.dphi)
        for i, row in enumerate(zip(*(c.tolist() for c in columns), report.theta_unwrapped)):
            writer.writerow([i] + [io.fmt(v) for v in row])


@pytest.mark.parametrize("resolution", [21, 201])
def test_diagram_csv_bytes_match_the_csv_writer_form(tmp_path, resolution):
    diagram = bifurcation_diagram(-4.0, resolution=resolution)
    io.write_diagram_csv(tmp_path / "got.csv", diagram)
    reference_diagram_csv(tmp_path / "ref.csv", diagram)
    assert (tmp_path / "got.csv").read_bytes() == (tmp_path / "ref.csv").read_bytes()


def test_continuation_csv_bytes_match_the_csv_writer_form(tmp_path):
    table = BookTable(k=-1.0, sheets=5)
    loop = loop_around_origin(table, c=0.5, f_max=0.55, points_per_arc=4)
    report = continue_theta(table, loop)
    assert len(report.samples) > len(loop) + 1  # the loop is bisected
    io.write_continuation_csv(tmp_path / "got.csv", report)
    reference_continuation_csv(tmp_path / "ref.csv", report)
    assert (tmp_path / "got.csv").read_bytes() == (tmp_path / "ref.csv").read_bytes()


def test_read_trajectory_csv_is_read_csv():
    # one reader, under the name plot calls it by
    assert io.read_trajectory_csv is io.read_csv


def test_samples_beyond_memory_rejected(tmp_path):
    # refused before the file is opened or numpy allocates
    table, start, _ = RUNS[0]
    traj = simulate(table, start, max_reflections=1)
    with pytest.raises(ValidationError, match=r"^samples_per_segment=10+ would take .*physical"):
        io.write_trajectory_csv(tmp_path / "trajectory.csv", table, traj, 10**14)
    assert not (tmp_path / "trajectory.csv").exists()


@pytest.mark.parametrize("count", [0, -1])
def test_fewer_than_one_sample_per_segment_rejected(tmp_path, count):
    table, start, stop = RUNS[0]
    traj = simulate(table, start, **stop)
    with pytest.raises(ValidationError, match="^samples_per_segment must be an integer >= 1, got "):
        io.write_trajectory_csv(tmp_path / "trajectory.csv", table, traj, count)
    assert not (tmp_path / "trajectory.csv").exists()


WRITER_RUNS = {
    "classification-400x400": ["classify", "--grid", "--resolution", "400"],
    # one segment of 20 000 samples: its rows are formatted _CHUNK at a time
    "trajectory-one-segment": [
        "simulate", "--seed", "1", "--reflections", "1", "--samples-per-segment", "20000"
    ],
    "trajectory-2000-reflections": ["simulate", "--seed", "1", "--reflections", "2000"],
}


@pytest.mark.parametrize("name", WRITER_RUNS)
def test_writer_temporaries_stay_near_the_counted_bytes(tmp_path, monkeypatch, capsys, name):
    # the size check counts the float64 columns; formatting them as one
    # text would hold about 8.5 times that in Python floats and strings
    counted = []

    def record(size, what, *args):
        counted.append(size)
        require_fits(size, what, *args)

    monkeypatch.setattr(cli, "require_fits", record)
    monkeypatch.setattr(io, "require_fits", record)
    tracemalloc.start()
    try:
        assert cli.main(["--out-dir", str(tmp_path)] + WRITER_RUNS[name]) == 0
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert len(counted) == 1 and peak <= 5 * counted[0]


def test_orbit_figure_holds_its_points_block(tmp_path, monkeypatch):
    # the figure of a 40 000-segment run holds its (x, y) points, the bytes the CLI counts for
    # it, and each polyline only while it is written. Formatting 3.9 million floats under
    # tracemalloc takes seconds, so a new string of a polyline's length stands in for each.
    table = BookTable(k=-1.0, sheets=3)
    traj = simulate(table, PhaseState(1, 0.3, 0.1, 0.5, 0.7), max_reflections=40_000)
    monkeypatch.setattr(io, "_polyline", lambda xy, color, width: " " * (20 * len(xy)))
    tracemalloc.start()
    try:
        io.write_orbit_svg(tmp_path / "orbit.svg", table, traj)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert len(traj) == 40_000 and (tmp_path / "orbit.svg").stat().st_size > 980 * 40_000
    assert peak <= 1600 * 40_000 and peak <= 5 * io.ORBIT_SEGMENT_BYTES * 40_000


def writers(table, traj):
    """Each writer of this module, as a call on one path."""
    diagram = bifurcation_diagram(-1.0, resolution=5)
    report = continue_theta(table, loop_around_origin(table, points_per_arc=4))
    h = f = np.linspace(-1.0, 1.0, 3)
    return [
        lambda path: io.write_trajectory_csv(path, table, traj),
        lambda path: io.write_diagram_csv(path, diagram),
        lambda path: io.write_classification_csv(path, table, h, f),
        lambda path: io.write_continuation_csv(path, report),
        lambda path: io.write_json(path, {"k": -1.0}),
        lambda path: io.write_orbit_svg(path, table, traj),
        lambda path: io.write_diagram_svg(path, diagram),
    ]


@pytest.mark.parametrize("where", ["a-directory", "under-a-file", "in-a-missing-directory"])
def test_writers_refuse_a_path_that_cannot_take_the_file(tmp_path, where):
    table, start, stop = RUNS[0]
    (tmp_path / "file").write_text("")
    path = {"a-directory": tmp_path, "under-a-file": tmp_path / "file/out",
            "in-a-missing-directory": tmp_path / "nodir/out"}[where]
    for write in writers(table, simulate(table, start, **stop)):
        with pytest.raises(ValidationError, match=f"^cannot write {re.escape(str(path))}: "):
            write(path)
    assert [p.name for p in tmp_path.iterdir()] == ["file"]
