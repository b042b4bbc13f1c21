"""Self-test of the benchmark's oracles and output checks.

Run from the repository root with ``python -m pytest bench/test_checks.py``.
Each check first accepts a genuine result of the program, then rejects the
same result with one deliberate corruption. The closed-form oracle is also
held against limits known without it.
"""

import contextlib
import csv
import dataclasses
import io
import json
import math
import random
import sys
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))

import billiardbook  # noqa: E402
from billiardbook import BookTable, cli, monodromy, simulate  # noqa: E402

import oracle  # noqa: E402
from oracle import CheckFailed  # noqa: E402
from workloads import Verifier, random_state  # noqa: E402

K = -1.0


def rejects(check, *args, **kwargs):
    with pytest.raises(CheckFailed):
        check(*args, **kwargs)


# ---------------------------------------------------------------------------
# the closed-form oracle against known limits


@pytest.mark.parametrize("k", [-0.25, -1.0, -4.0])
@pytest.mark.parametrize("h", [0.05, 0.5, 2.0])
def test_diameter_orbit_period(k, h):
    t_r, dphi = oracle.period_advance(k, h, 0.0)
    assert t_r == pytest.approx(oracle.diameter_period(k, h), rel=1e-13)
    assert dphi == math.pi


@pytest.mark.parametrize("k", [-0.25, -1.0, -4.0])
def test_advance_tends_to_pi_as_f_vanishes_above_zero(k):
    for f in (1e-6, 1e-9, 1e-12):
        assert oracle.period_advance(k, 0.5, f)[1] == pytest.approx(math.pi, abs=10 * f)
        assert oracle.period_advance(k, 0.5, -f)[1] == pytest.approx(-math.pi, abs=10 * f)


@pytest.mark.parametrize("k", [-0.25, -1.0, -4.0])
def test_advance_tends_to_zero_as_f_vanishes_below_zero(k):
    h = k / 4.0
    for f in (1e-6, 1e-9, 1e-12):
        assert abs(oracle.period_advance(k, h, f)[1]) <= 10 * f


def test_oracle_matches_a_direct_integration():
    # midpoint rule on the desingularised radial integrals, independent of both
    # the closed form and the program's quadrature
    k, h, f = -1.0, 0.3, 0.6
    rho0 = oracle.inner_rho(k, h, f)
    rho_neg = f * f / (k * rho0)
    steps = 200_000
    t_sum = phi_sum = 0.0
    for i in range(steps):
        s = (i + 0.5) * (math.pi / 2) / steps
        rho = rho0 + (1.0 - rho0) * math.sin(s) ** 2
        base = 2.0 * math.sqrt(1.0 - rho0) / math.sqrt(-k) * math.cos(s) / math.sqrt(rho - rho_neg)
        t_sum += base
        phi_sum += f / rho * base
    t_r, dphi = oracle.period_advance(k, h, f)
    assert t_sum * (math.pi / 2) / steps == pytest.approx(t_r, abs=1e-9)
    assert phi_sum * (math.pi / 2) / steps == pytest.approx(dphi, abs=1e-9)


def test_fiber_rule():
    assert oracle.fiber_tag(K, -1.0, 0.0) == "outside-image"
    assert oracle.fiber_tag(K, 0.0, 0.0) == "pinched-torus"
    assert oracle.fiber_tag(K, -0.5, 0.0) == "atom-A-circle"
    assert oracle.fiber_tag(K, 0.2, 0.3) == "regular-torus"


# ---------------------------------------------------------------------------
# in-process results


@pytest.fixture(scope="module")
def orbit():
    table = BookTable(k=K, sheets=3)
    start = random_state(random.Random(5), 2)
    return table, start, simulate(table, start, max_reflections=200)


def test_orbit_check_accepts_and_rejects(orbit):
    table, start, segs = orbit
    assert oracle.check_orbit(K, 3, start, segs, max_reflections=200) == 200
    rejects(oracle.check_orbit, K, 3, start, segs[:50] + segs[51:], max_reflections=199)
    rejects(oracle.check_orbit, K, 3, start, segs[:-1], max_reflections=200)
    rejects(oracle.check_orbit, K, 2, start, segs, max_reflections=200)
    hit = segs[10].end
    moved = dataclasses.replace(hit, vx=hit.vx + 1e-8)
    rejects(
        oracle.check_orbit, K, 3, start,
        segs[:10] + [dataclasses.replace(segs[10], end=moved)] + segs[11:], max_reflections=200,
    )
    late = dataclasses.replace(segs[20], duration=segs[20].duration + 1e-7)
    rejects(oracle.check_orbit, K, 3, start, segs[:20] + [late] + segs[21:], max_reflections=200)
    outside = dataclasses.replace(hit, x=hit.x * 1.01, y=hit.y * 1.01)
    rejects(
        oracle.check_orbit, K, 3, start,
        segs[:10] + [dataclasses.replace(segs[10], end=outside)] + segs[11:], max_reflections=200,
    )


def _push_out(k, x, y, vx, vy, eps):
    """The state at r^2 = 1 + eps on the ray through (x, y) with the same H, F
    and sign of radial velocity, so only the wall rule can tell it apart."""
    h, f = oracle.energy(k, x, y, vx, vy), oracle.angular_momentum(x, y, vx, vy)
    r = math.sqrt(1.0 + eps)
    s = r / math.hypot(x, y)
    x, y, v_r = x * s, y * s, x * vx + y * vy
    v_t = f / r
    v_r = math.copysign(math.sqrt(2.0 * h - k * r * r - v_t * v_t), v_r)
    return x, y, (v_r * x - v_t * y) / r, (v_r * y + v_t * x) / r


def test_orbit_check_wall_rule(orbit):
    """A hit may sit 1e-10 outside the wall but not 1e-8 outside."""
    _, start, segs = orbit

    def pushed(eps):
        end, nxt = segs[10].end, segs[11].start
        x, y, vx, vy = _push_out(K, end.x, end.y, end.vx, end.vy, eps)
        _, _, wx, wy = _push_out(K, nxt.x, nxt.y, nxt.vx, nxt.vy, eps)
        return (
            segs[:10]
            + [dataclasses.replace(segs[10], end=dataclasses.replace(end, x=x, y=y, vx=vx, vy=vy))]
            + [dataclasses.replace(segs[11], start=dataclasses.replace(nxt, x=x, y=y, vx=wx, vy=wy))]
            + segs[12:]
        )

    assert oracle.check_orbit(K, 3, start, pushed(1e-10), max_reflections=200) == 200
    rejects(oracle.check_orbit, K, 3, start, pushed(1e-8), max_reflections=200)


def test_time_stopped_orbit_check(orbit):
    table, start, _ = orbit
    segs = simulate(table, start, max_time=7.5)
    oracle.check_orbit(K, 3, start, segs, max_time=7.5)
    rejects(oracle.check_orbit, K, 3, start, segs, max_time=7.5 + 1e-6)
    rejects(oracle.check_orbit, K, 3, start, segs[:-1], max_time=7.5)


def test_period_sample_checks():
    table = BookTable(k=K, sheets=2)
    quad = monodromy.radial_period_quadrature(table, 0.4, 0.5)
    sim = monodromy.radial_period_simulated(table, 0.4, 0.5)
    oracle.check_simulated_period(K, 2, quad, sim)
    rejects(oracle.check_period_sample, K, 2, dataclasses.replace(quad, T_r=quad.T_r + 1e-8))
    rejects(oracle.check_period_sample, K, 3, quad)
    off = dataclasses.replace(sim, dphi=sim.dphi + 1e-5)
    rejects(oracle.check_simulated_period, K, 2, quad, off)
    oracle.check_center_limit(3, 3 * math.pi + 0.005)
    rejects(oracle.check_center_limit, 3, 3 * math.pi + 0.02)


def test_monodromy_check():
    n = 3
    table = BookTable(k=K, sheets=n)
    report = monodromy.continue_theta(table, monodromy.loop_around_origin(table))
    neg = monodromy.molecule_labels(table, -1, report=report)
    pos = monodromy.molecule_labels(table, +1, report=report)
    oracle.check_monodromy(K, n, report, neg, pos)
    rejects(oracle.check_monodromy, K, n, dataclasses.replace(report, m=n + 1), neg, pos)
    rejects(oracle.check_monodromy, K, n + 1, report, neg, pos)
    rejects(
        oracle.check_monodromy, K, n,
        dataclasses.replace(report, monodromy_matrix=((1, 0), (n - 1, 1))), neg, pos,
    )
    wrong_label = dataclasses.replace(pos, r_hpos=pos.r_hpos + 1)
    rejects(oracle.check_monodromy, K, n, report, neg, wrong_label)
    bad = dataclasses.replace(report.samples[7], dphi=report.samples[7].dphi + 1e-7)
    samples = report.samples[:7] + (bad,) + report.samples[8:]
    rejects(oracle.check_monodromy, K, n, dataclasses.replace(report, samples=samples), neg, pos)


# ---------------------------------------------------------------------------
# CLI files and stdout


@pytest.fixture(scope="module")
def cli_outputs(tmp_path_factory):
    out = tmp_path_factory.mktemp("cli")

    def run(*argv):
        buf = io.StringIO()
        with contextlib.redirect_stdout(buf):
            assert cli.main(["--out-dir", str(out), *argv]) == 0
        return buf.getvalue()

    run("simulate", "-k", "-1", "-n", "3", "--seed", "4", "--reflections", "40", "--svg")
    run("diagram", "-k", "-1", "--svg")
    run("classify", "-k", "-1", "-n", "3", "--grid", "--resolution", "21")
    run("eigen", "-k", "-1", "--lam", "1.5", "--mu", "0.5")
    run("monodromy", "-k", "-1", "-n", "3")
    return {
        "rotation": json.loads(
            run("rotation", "-k", "-1", "-n", "2", "--h", "0.3", "--f", "0.4", "--compare-sim")
        ),
        "classify": json.loads(run("classify", "-k", "-1", "-n", "3", "--h", "0", "--f", "0")),
        **{name: (out / name).read_text() for name in (
            "trajectory.csv", "orbit.svg", "diagram.csv", "diagram.svg",
            "classification.csv", "spectrum.json", "monodromy.json", "continuation.csv",
        )},
    }


def _edit_csv(text: str, row: int, column: str, edit) -> str:
    """Apply edit to one cell of a CSV (data rows counted from 0)."""
    head = ""
    if text.startswith("#"):
        head, _, text = text.partition("\n")
        head += "\n"
    rows = list(csv.reader(io.StringIO(text)))
    rows[row + 1][rows[0].index(column)] = edit(rows[row + 1][rows[0].index(column)])
    buf = io.StringIO()
    csv.writer(buf, lineterminator="\n").writerows(rows)
    return head + buf.getvalue()


def _nudge(delta):
    return lambda cell: repr(float(cell) + delta)


def _set(value):
    return lambda cell: value


def test_trajectory_csv_check(cli_outputs):
    text = cli_outputs["trajectory.csv"]
    assert oracle.check_trajectory_csv(text, K, 3, 16, reflections=40) == 40
    rejects(oracle.check_trajectory_csv, _edit_csv(text, 100, "h", _nudge(1e-6)), K, 3, 16)
    rejects(oracle.check_trajectory_csv, _edit_csv(text, 100, "vx", _nudge(1e-6)), K, 3, 16)
    rejects(oracle.check_trajectory_csv, _edit_csv(text, 100, "sheet", _set("1")), K, 3, 16)
    lines = text.splitlines(keepends=True)
    rejects(oracle.check_trajectory_csv, "".join(lines[:50] + lines[51:]), K, 3, 16)
    rejects(oracle.check_trajectory_csv, "".join(lines[:-17]), K, 3, 16, reflections=40)
    rejects(oracle.check_trajectory_csv, text, K, 2, 16)


def _push_row(text: str, row: int, eps: float) -> str:
    """Move one CSV row to r^2 = 1 + eps, keeping its H and F."""
    rows = list(csv.DictReader(io.StringIO(text.partition("\n")[2])))
    state = _push_out(K, *(float(rows[row][c]) for c in ("x", "y", "vx", "vy")), eps)
    for column, value in zip(("x", "y", "vx", "vy"), state):
        text = _edit_csv(text, row, column, _set(repr(value)))
    return text


def test_trajectory_csv_wall_rule(cli_outputs):
    """Rows at the wall may sit 1e-10 outside, other rows not 1e-10 outside."""
    text = cli_outputs["trajectory.csv"]
    for wall_row in (16, 17, 40 * 17 - 1):  # a hit, the next segment's start, the last hit
        assert oracle.check_trajectory_csv(_push_row(text, wall_row, 1e-10), K, 3, 16) == 40
        rejects(oracle.check_trajectory_csv, _push_row(text, wall_row, 1e-8), K, 3, 16)
    rejects(oracle.check_trajectory_csv, _push_row(text, 8, 1e-10), K, 3, 16)


def test_diagram_checks(cli_outputs):
    text = cli_outputs["diagram.csv"]
    span = (K, 201, -1.5, 1.5)
    oracle.check_diagram_csv(text, *span)
    rejects(oracle.check_diagram_csv, _edit_csv(text, 30, "h_parabola", _nudge(1e-9)), *span)
    rejects(oracle.check_diagram_csv, _edit_csv(text, 30, "singular_point", _set("1")), *span)
    rejects(oracle.check_diagram_csv, _edit_csv(text, 201, "f", _nudge(0.1)), *span)
    svg = cli_outputs["diagram.svg"]
    oracle.check_diagram_svg(svg, 201)
    rejects(oracle.check_diagram_svg, svg.replace('<circle cx="0"', '<rect cx="0"'), 201)


def test_classification_checks(cli_outputs):
    text = cli_outputs["classification.csv"]
    oracle.check_classification_csv(text, K, 3, 21)
    regular = next(i for i, line in enumerate(text.splitlines()[1:]) if "regular-torus" in line)
    retagged = _edit_csv(text, regular, "tag", _set("atom-A-circle"))
    rejects(oracle.check_classification_csv, retagged, K, 3, 21)
    singular = next(i for i, line in enumerate(text.splitlines()[1:]) if "pinched-torus" in line)
    repinched = _edit_csv(text, singular, "pinches", _set("2"))
    rejects(oracle.check_classification_csv, repinched, K, 3, 21)
    doc = cli_outputs["classify"]
    oracle.check_classify_single(doc, K, 3, 0.0, 0.0)
    rejects(oracle.check_classify_single, {**doc, "pinches": 2}, K, 3, 0.0, 0.0)
    rejects(oracle.check_classify_single, doc, K, 3, 0.0, 0.5)


def test_spectrum_check(cli_outputs):
    doc = json.loads(cli_outputs["spectrum.json"])
    oracle.check_spectrum(doc, K, 1.5, 0.5)
    bad = json.loads(cli_outputs["spectrum.json"])
    bad["eigenvalues"][2][1] += 1e-9
    rejects(oracle.check_spectrum, bad, K, 1.5, 0.5)
    rejects(oracle.check_spectrum, doc, K, 1.5, 0.6)


def test_rotation_check(cli_outputs):
    doc = cli_outputs["rotation"]
    oracle.check_rotation(doc, K, 2, 0.3, 0.4)
    rejects(oracle.check_rotation, {**doc, "T_r": doc["T_r"] + 1e-8}, K, 2, 0.3, 0.4)
    rejects(oracle.check_rotation, {**doc, "dphi_sim": doc["dphi_sim"] + 1e-5}, K, 2, 0.3, 0.4)
    rejects(oracle.check_rotation, doc, K, 3, 0.3, 0.4)


def test_monodromy_files_check(cli_outputs):
    doc = json.loads(cli_outputs["monodromy.json"])
    cont = cli_outputs["continuation.csv"]
    oracle.check_monodromy_files(doc, cont, K, 3)
    rejects(oracle.check_monodromy_files, {**doc, "m": 4}, cont, K, 3)
    rejects(oracle.check_monodromy_files, doc, cont, K, 4)
    rejects(oracle.check_monodromy_files, doc, _edit_csv(cont, 12, "T_r", _nudge(1e-8)), K, 3)
    rejects(
        oracle.check_monodromy_files, doc,
        _edit_csv(cont, len(doc["loop"]), "theta_unwrapped", _nudge(-2 * math.pi)), K, 3,
    )


def test_orbit_svg_check(cli_outputs):
    svg = cli_outputs["orbit.svg"]
    oracle.check_orbit_svg(svg, 40)
    rejects(oracle.check_orbit_svg, svg, 39)
    first = svg.index('points="') + len('points="')
    rejects(oracle.check_orbit_svg, svg[:first] + "1.010000,0.000000 " + svg[first:], 40)
    line_start = svg.index("<polyline")
    line_end = svg.index("\n", line_start) + 1
    rejects(oracle.check_orbit_svg, svg[:line_start] + svg[line_end:], 40)


def test_package_is_the_checkout():
    assert Path(billiardbook.__file__).resolve().is_relative_to(
        Path(__file__).resolve().parents[1] / "src"
    )


def test_verifier_checks_every_new_output(orbit):
    """Only an output equal to the one already checked skips the full check."""
    _, start, segs = orbit
    verifier, checked = Verifier(), []
    unhashable = [{"a set"}]
    for output in (segs, list(segs), segs[:-1] + [segs[-1]], segs[:-1], unhashable, unhashable):
        verifier.verify(0, output, lambda output=output: checked.append(len(output)))
    assert checked == [200, 199, 1, 1]
    with pytest.raises(CheckFailed):
        Verifier().verify(0, segs[:-1], lambda: oracle.check_orbit(
            K, 3, start, segs[:-1], max_reflections=200
        ))
