import json
import math
import os
import re
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import billiardbook
from billiardbook import BookTable, classify_fiber, cli, io, model
from billiardbook.cli import main


def run(tmp_path, *argv):
    return main(["--out-dir", str(tmp_path)] + list(argv))


class TestSimulate:
    def test_writes_trajectory_and_svg(self, tmp_path, capsys):
        code = run(
            tmp_path,
            "simulate", "-k", "-1", "-n", "3",
            "--initial", "0.5", "0", "0", "1",
            "--reflections", "25", "--svg",
        )
        assert code == 0
        meta, columns = io.read_trajectory_csv(tmp_path / "trajectory.csv")
        assert meta == {"k": -1.0, "n": 3}
        assert columns["h"][0] == pytest.approx(0.375)
        assert set(columns["sheet"].tolist()) == {1, 2, 3}
        svg = (tmp_path / "orbit.svg").read_text()
        assert svg.startswith("<?xml") and "<polyline" in svg

    def test_early_stop_is_reported(self, tmp_path, capsys):
        # the first hit reflects the orbit onto the stable manifold of the
        # equilibrium, so one segment is written for the three reflections asked
        code = run(
            tmp_path,
            "simulate", "-k", "-4", "-n", "3",
            "--initial", "0.034623887808666015", "-0.09591432775180372",
            "-0.06924777561733216", "0.19182865550360778",
            "--reflections", "3",
        )
        assert code == 0
        assert capsys.readouterr().err == "stopped early: stable-manifold; reflections made: 1\n"
        _, columns = io.read_trajectory_csv(tmp_path / "trajectory.csv")
        assert set(columns["segment"].tolist()) == {0}

    @pytest.mark.parametrize("initial,made", [
        (("0.5", "0", "-0.5", "0"), 0),  # inbound on the stable ray
        (("0", "0", "0", "0"), 0),  # the rest state
        # outbound on the unstable ray: its first reflection lies on the stable ray
        (("-0.44975331817138364", "-0.21845354836630632") * 2, 1),
    ], ids=["stable-ray", "rest", "unstable-ray"])
    def test_separatrix_start_stops_on_the_stable_manifold(self, tmp_path, capsys, initial, made):
        code = run(tmp_path, "simulate", "-k", "-1", "--initial", *initial, "--reflections", "3")
        assert code == 0
        assert capsys.readouterr().err == f"stopped early: stable-manifold; reflections made: {made}\n"
        _, columns = io.read_trajectory_csv(tmp_path / "trajectory.csv")
        assert set(columns["segment"].tolist()) == set(range(made))

    def test_full_run_reports_nothing(self, tmp_path, capsys):
        code = run(
            tmp_path, "simulate", "-k", "-1", "--initial", "0.5", "0", "0", "1",
            "--reflections", "3",
        )
        assert code == 0 and capsys.readouterr().err == ""

    def test_missing_stop_condition_exits_2(self, tmp_path, capsys):
        code = run(tmp_path, "simulate", "-k", "-1", "--initial", "0.5", "0", "0", "1")
        assert code == 2
        assert "stop condition" in capsys.readouterr().err

    def test_sheet_off_the_book_exits_2(self, tmp_path, capsys):
        for sheet in ("0", "4"):
            code = run(tmp_path, "simulate", "-k", "-1", "--sheet", sheet, "--reflections", "5")
            assert code == 2
            assert capsys.readouterr().err == f"error: sheet must be in 1..1, got {sheet}\n"
        assert not (tmp_path / "trajectory.csv").exists()

    @pytest.mark.parametrize(
        "name,text,message",
        [
            ("missing.json", None, "cannot read --config"),
            ("bad.json", '{"k": -1.0,', "cannot read --config"),
            ("list.json", "[-1.0]", "is not a JSON object"),
            ("string-k.json", '{"k": "x"}', "'x' does not fit -k"),
            ("list-lam.json", '{"lam": [1.0]}', "[1.0] does not fit --lam"),
            ("bool-mu.json", '{"mu": true}', "True does not fit --mu"),
        ],
        ids=["missing", "invalid-json", "not-an-object", "string-k", "list-lam", "bool-mu"],
    )
    def test_bad_config_exits_2(self, tmp_path, capsys, name, text, message):
        config = tmp_path / name
        if text is not None:
            config.write_text(text)
        code = main(["--config", str(config), "--out-dir", str(tmp_path), "eigen"])
        assert code == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and message in err and err.count("\n") == 1

    @pytest.mark.parametrize(
        "argv,message",
        [
            (["--initial", "0.5", "0", "0", "1", "--time", "1e15"], "wall hits"),
            (["--initial", "0.5", "0", "0", "1", "--time", "1e30"], "wall hits"),
            (["--seed", "1", "--reflections", "3", "--samples-per-segment", "0"],
             "samples_per_segment must be an integer >= 1"),
            (["--seed", "1", "--reflections", "3", "--samples-per-segment", "-1"],
             "samples_per_segment must be an integer >= 1"),
            (["--initial", "0.5", "0", "0", "1e160", "--reflections", "3"], "H and F"),
            (["--seed", "1", "--reflections", "1", "--samples-per-segment", "100000000000000"],
             "samples_per_segment="),
        ],
        ids=["time-1e15", "time-1e30", "samples-0", "samples-minus-1", "overflowing-h",
             "samples-1e14"],
    )
    def test_run_that_cannot_be_written_exits_2(self, tmp_path, capsys, argv, message):
        assert run(tmp_path, "simulate", *argv) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and message in err and err.count("\n") == 1
        assert not (tmp_path / "trajectory.csv").exists()

    def test_figure_beyond_memory_exits_2_before_either_file(self, tmp_path, capsys, monkeypatch):
        # the figure holds 49 (x, y) points a segment; the run and its CSV count fewer bytes
        argv = ["simulate", "--seed", "1", "--reflections", "100", "--samples-per-segment", "1",
                "--svg"]
        figure = 16 * 49 * 100
        monkeypatch.setattr(model, "MEMORY_BYTES", figure - 1)
        assert run(tmp_path, *argv) == 2
        message = f"an orbit figure of 100 segments would take {figure} bytes; physical memory is "
        assert capsys.readouterr() == ("", f"error: {message}{figure - 1}\n")
        assert list(tmp_path.iterdir()) == []
        monkeypatch.setattr(model, "MEMORY_BYTES", figure)
        assert run(tmp_path, *argv) == 0
        assert sorted(p.name for p in tmp_path.iterdir()) == ["orbit.svg", "trajectory.csv"]

    def test_invalid_k_exits_2(self, tmp_path, capsys):
        code = run(tmp_path, "simulate", "-k", "1", "--reflections", "5")
        assert code == 2

    def test_seeded_runs_reproduce_byte_identical_output(self, tmp_path):
        a, b = tmp_path / "a", tmp_path / "b"
        for out in (a, b):
            out.mkdir()
            assert main(
                ["--out-dir", str(out), "simulate", "-k", "-1",
                 "--seed", "42", "--reflections", "50"]
            ) == 0
        assert (a / "trajectory.csv").read_bytes() == (b / "trajectory.csv").read_bytes()

    def test_config_file_with_flag_override(self, tmp_path):
        config = tmp_path / "config.json"
        config.write_text(json.dumps({"k": -1.0, "reflections": 5, "seed": 1}))
        code = main(
            ["--config", str(config), "--out-dir", str(tmp_path),
             "simulate", "-n", "2"]
        )
        assert code == 0
        meta, columns = io.read_trajectory_csv(tmp_path / "trajectory.csv")
        assert meta["n"] == 2
        assert columns["segment"][-1] == 4

    def test_huge_sheet_count_costs_what_the_rows_cost(self, tmp_path):
        n = 10**12
        assert run(tmp_path, "simulate", "-n", str(n), "--seed", "1", "--reflections", "3") == 0
        meta, columns = io.read_trajectory_csv(tmp_path / "trajectory.csv")
        assert meta["n"] == n
        assert np.unique(columns["sheet"]).tolist() == [1, 2, 3]

    def test_config_file_sets_store_true_flags(self, tmp_path, capsys):
        def config(**doc):
            path = tmp_path / "config.json"
            path.write_text(json.dumps(doc))
            return ["--config", str(path), "--out-dir", str(tmp_path)]

        assert main(config(svg=True, k=-1.0, reflections=5, seed=1) + ["simulate"]) == 0
        assert (tmp_path / "orbit.svg").exists()
        assert main(config(grid=True, k=-1.0, resolution=5) + ["classify"]) == 0
        assert (tmp_path / "classification.csv").exists()
        capsys.readouterr()
        assert main(
            config(**{"compare-sim": True, "k": -1.0}) + ["rotation", "--h", "0.375", "--f", "0.5"]
        ) == 0
        assert "dphi_sim" in json.loads(capsys.readouterr().out)

    def test_negative_value_in_scientific_notation(self, tmp_path, capsys):
        code = run(
            tmp_path, "simulate", "-k", "-1", "--initial", "1", "0", "-1e-12", "0.3",
            "--reflections", "2",
        )
        assert code == 0
        # a start on the wall moving inward at 1e-12 grazes at once
        assert capsys.readouterr().err == "stopped early: grazing; reflections made: 0\n"
        # the first row is the start state itself; the flow at tau = 0 would
        # give vx = -1.0000333894311098e-12
        rows = (tmp_path / "trajectory.csv").read_text().splitlines()
        assert rows[2].split(",")[3:7] == ["1", "0", "-9.9999999999999998e-13", "0.29999999999999999"]

    def test_out_dir_env_override(self, tmp_path, monkeypatch):
        monkeypatch.setenv("BILLIARDBOOK_OUT", str(tmp_path / "envout"))
        code = main(["simulate", "-k", "-1", "--seed", "3", "--reflections", "2"])
        assert code == 0
        assert (tmp_path / "envout" / "trajectory.csv").exists()


class TestDiagram:
    def test_csv_roundtrip_and_flagged_singular_row(self, tmp_path):
        assert run(tmp_path, "diagram", "-k", "-1", "--svg") == 0
        meta, columns = io.read_csv(tmp_path / "diagram.csv")
        assert meta["k"] == -1.0
        f, h, flag = columns["f"], columns["h_parabola"], columns["singular_point"]
        assert (f[flag == 1].tolist(), h[flag == 1].tolist()) == ([0.0], [0.0])
        assert h[(flag == 0) & (f == 0.0)][0] == -0.5
        assert (tmp_path / "diagram.svg").exists()

    def test_svg_deterministic(self, tmp_path):
        a, b = tmp_path / "a", tmp_path / "b"
        for out in (a, b):
            out.mkdir()
            main(["--out-dir", str(out), "diagram", "-k", "-1", "--svg"])
        assert (a / "diagram.svg").read_bytes() == (b / "diagram.svg").read_bytes()


class TestClassify:
    def test_single_value_stdout(self, tmp_path, capsys):
        assert run(tmp_path, "classify", "-k", "-1", "-n", "3", "--h", "0", "--f", "0") == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["tag"] == "pinched-torus"
        assert doc["pinches"] == 3

    def test_grid_csv(self, tmp_path):
        assert run(
            tmp_path, "classify", "-k", "-1", "--grid", "--resolution", "21"
        ) == 0
        text = (tmp_path / "classification.csv").read_text().splitlines()
        assert text[0] == "h,f,tag,pinches"
        assert len(text) == 1 + 21 * 21

    def test_grid_resolution_below_2_exits_2(self, tmp_path, capsys):
        code = run(tmp_path, "classify", "-k", "-1", "--grid", "--resolution", "-1")
        assert code == 2
        assert capsys.readouterr().err == "error: resolution must be an integer >= 2, got -1\n"

    def test_grid_counts_the_bytes_its_writer_holds(self, tmp_path, capsys, monkeypatch):
        # codes, labels, h, f and the three stacked columns: 56 bytes a cell
        cells = 56 * 21 * 21
        monkeypatch.setattr(model, "MEMORY_BYTES", cells - 1)
        assert run(tmp_path, "classify", "--grid", "--resolution", "21") == 2
        message = f"error: resolution=21 would take {cells} bytes; physical memory is {cells - 1}\n"
        assert capsys.readouterr().err == message and list(tmp_path.iterdir()) == []
        monkeypatch.setattr(model, "MEMORY_BYTES", cells)
        assert run(tmp_path, "classify", "--grid", "--resolution", "21") == 0

    @pytest.mark.parametrize("resolution", [7, 201])
    def test_grid_csv_matches_the_per_value_rule(self, tmp_path, resolution):
        # 7 points per axis put grid values on the parabola and at (0, 0)
        assert run(
            tmp_path, "classify", "-k", "-1", "-n", "3", "--grid",
            "--resolution", str(resolution),
        ) == 0
        table = BookTable(k=-1.0, sheets=3)
        values = np.linspace(-1.5, 1.5, resolution)
        rows = ["h,f,tag,pinches"]
        for h in values:
            for f in values:
                fiber = classify_fiber(table, float(h), float(f))
                pinches = fiber.pinches if fiber.pinches is not None else ""
                rows.append(f"{io.fmt(h)},{io.fmt(f)},{fiber.tag.value},{pinches}")
        assert (tmp_path / "classification.csv").read_text() == "\n".join(rows) + "\n"


class TestEigen:
    def test_spectrum_report(self, tmp_path):
        assert run(tmp_path, "eigen", "-k", "-1") == 0
        doc = json.loads((tmp_path / "spectrum.json").read_text())
        assert doc["classification"] == "focus-focus"
        assert sorted(map(tuple, doc["eigenvalues"])) == [
            (-1.0, -1.0), (-1.0, 1.0), (1.0, -1.0), (1.0, 1.0),
        ]

    def test_k_in_scientific_notation(self, tmp_path):
        assert run(tmp_path, "eigen", "-k", "-1e0") == 0
        doc = json.loads((tmp_path / "spectrum.json").read_text())
        assert doc["k"] == doc["config"]["k"] == -1.0

    def test_positive_k_rejected(self, tmp_path):
        assert run(tmp_path, "eigen", "-k", "1") == 2


class TestRotation:
    def test_quadrature_and_sim_agree(self, tmp_path, capsys):
        assert run(
            tmp_path, "rotation", "-k", "-1", "-n", "2",
            "--h", "0.375", "--f", "0.5", "--compare-sim",
        ) == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["T_r"] == pytest.approx(doc["T_r_sim"], abs=1e-6)
        assert doc["dphi"] == pytest.approx(doc["dphi_sim"], abs=1e-6)
        assert doc["theta"] == pytest.approx(2 * doc["dphi"], abs=1e-12)

    def test_singular_value_exits_2(self, tmp_path):
        assert run(tmp_path, "rotation", "-k", "-1", "--h", "0", "--f", "0") == 2


class TestMonodromy:
    def test_report_and_continuation(self, tmp_path):
        assert run(tmp_path, "monodromy", "-k", "-1", "-n", "3") == 0
        doc = json.loads((tmp_path / "monodromy.json").read_text())
        assert doc["m"] == 3
        assert doc["monodromy_matrix"] == [[1, 0], [3, 1]]
        assert doc["labels"] == {
            "r_hneg": "inf", "r_hpos": "1/3", "epsilon": 1, "derived_from_m": 3,
        }
        assert doc["config"]["c"] == 0.5
        assert 0.0 < doc["unwrap_margin"] < 1.0
        _, columns = io.read_csv(tmp_path / "continuation.csv")
        assert doc["bisections"] == 0
        assert doc["samples"] == len(columns["arc_index"]) == len(doc["loop"]) + 1
        assert columns["arc_index"][0] == 0
        span = columns["theta_unwrapped"][-1] - columns["theta_unwrapped"][0]
        assert span == pytest.approx(3 * 2 * math.pi, abs=1e-9)

    def test_huge_sheet_count_is_measured_exactly(self, tmp_path):
        assert run(tmp_path, "monodromy", "-n", "1000000000000000000") == 0
        doc = json.loads((tmp_path / "monodromy.json").read_text())
        assert doc["m"] == 10**18 and doc["labels"]["r_hpos"] == "1/1000000000000000000"

    def test_coarse_loop_measures_the_sheet_count(self, tmp_path):
        assert run(tmp_path, "monodromy", "-k", "-1", "-n", "3", "--points-per-arc", "2") == 0
        assert json.loads((tmp_path / "monodromy.json").read_text())["m"] == 3

    def test_bisected_loop_reports_its_counters(self, tmp_path):
        assert run(
            tmp_path, "monodromy", "-n", "5", "--c", "0.5", "--f-max", "0.55", "--points-per-arc", "4"
        ) == 0
        doc = json.loads((tmp_path / "monodromy.json").read_text())
        _, columns = io.read_csv(tmp_path / "continuation.csv")
        assert doc["m"] == 5
        assert doc["samples"] == len(columns["arc_index"])
        assert doc["bisections"] == doc["samples"] - len(doc["loop"]) - 1 > 0

    def test_bisection_through_the_singular_value_exits_3(self, tmp_path, capsys):
        # a chord from h = 2e14 to the arc's waypoint at (-3.1, 0) passes 1.3e-7 from (0, 0),
        # the singular value, and bisection cannot resolve the turn of dphi there
        code = run(
            tmp_path, "monodromy", "-k", "-33.492171382786005", "-n", "1",
            "--c", "0.18540157019670336", "--f-max", "26038828.531481273", "--points-per-arc", "6",
        )
        assert code == 3
        assert capsys.readouterr().err.startswith(
            "convergence failure: dphi unwrapping did not stabilize"
        )


class TestPlot:
    def test_orbit_from_existing_csv(self, tmp_path):
        assert run(
            tmp_path, "simulate", "-k", "-1",
            "--initial", "0.5", "0", "0", "1", "--reflections", "10",
        ) == 0
        assert main(
            ["--out-dir", str(tmp_path), "plot",
             "--trajectory", str(tmp_path / "trajectory.csv")]
        ) == 0
        assert "<polyline" in (tmp_path / "orbit.svg").read_text()

    def test_header_only_csv_draws_the_unit_circle(self, tmp_path):
        assert run(
            tmp_path, "simulate", "-k", "-1",
            "--initial", "0.5", "0", "0", "1", "--reflections", "0",
        ) == 0
        assert main(
            ["--out-dir", str(tmp_path), "plot",
             "--trajectory", str(tmp_path / "trajectory.csv")]
        ) == 0
        svg = (tmp_path / "orbit.svg").read_text()
        assert svg.count("<circle") == 1 and 'r="1"' in svg and "<polyline" not in svg

    def test_boundary_orbit_stays_on_the_disk(self, tmp_path):
        # the critical orbit slides along the wall; its rows lie on r = 1
        assert run(
            tmp_path, "simulate", "-k", "-1",
            "--initial", "1", "0", "0", "1", "--time", "5",
        ) == 0
        assert main(
            ["--out-dir", str(tmp_path), "plot",
             "--trajectory", str(tmp_path / "trajectory.csv")]
        ) == 0
        points = re.findall(r'<polyline points="([^"]*)"', (tmp_path / "orbit.svg").read_text())
        radii = [math.hypot(*map(float, p.split(","))) for line in points for p in line.split()]
        assert radii and max(radii) <= 1.0 + 1e-5

    def test_polylines_run_through_the_rows_by_sheet_then_segment(self, tmp_path):
        # sheets 1, 2, 3, 1, 2, 3, 1: the figure draws segments 0, 3, 6, then 1, 4, then 2, 5
        assert run(tmp_path, "simulate", "-n", "3", "--seed", "1", "--reflections", "7",
                   "--samples-per-segment", "3") == 0
        assert run(tmp_path, "plot", "--trajectory", str(tmp_path / "trajectory.csv")) == 0
        _, rows = io.read_csv(tmp_path / "trajectory.csv")
        drawn = re.findall(r'<polyline points="([^"]*)" fill="none" stroke="([^"]*)"',
                           (tmp_path / "orbit.svg").read_text())
        expected = []
        for sheet in (1, 2, 3):
            for segment in range(7):
                at = (rows["segment"] == segment) & (rows["sheet"] == sheet)
                if at.any():
                    xy = zip(rows["x"][at], rows["y"][at])
                    points = " ".join(f"{x:.6f},{-y:.6f}" for x, y in xy)
                    expected.append((points, io._PALETTE[sheet - 1]))
        assert rows["sheet"][::4].tolist() == [1, 2, 3, 1, 2, 3, 1]
        assert len(expected) == 7 and drawn == expected

    def test_start_on_the_parabola_draws_its_inner_circle(self, tmp_path):
        # this wall start's h - (f^2 + k)/2 rounds to -5.6e-17: classify_fiber calls it an
        # atom-A circle, and the image test is the classifier's, so r0 = 1 is drawn both ways
        x, y = math.cos(1.0), math.sin(1.0)
        initial = [repr(v) for v in (x, y, -0.7 * y, 0.7 * x)]
        assert run(tmp_path, "simulate", "--initial", *initial, "--time", "3", "--svg") == 0
        assert main(
            ["--out-dir", str(tmp_path), "plot", "--trajectory", str(tmp_path / "trajectory.csv"),
             "--output", str(tmp_path / "plot.svg")]
        ) == 0
        for name in ("orbit.svg", "plot.svg"):
            assert '<circle cx="0" cy="0" r="1.000000"' in (tmp_path / name).read_text()


class TestSameAnswerAtEveryK:
    """Inputs at small |k| answer as the k = -1 inputs they are in the w = 1 frame."""

    def test_regular_value_near_zero(self, tmp_path, capsys):
        # (1e-10, 1e-10) at k = -1e-12 is (100, 1e-4) at k = -1
        assert run(tmp_path, "classify", "-k", "-1e-12", "--h", "1e-10", "--f", "1e-10") == 0
        assert json.loads(capsys.readouterr().out)["tag"] == "regular-torus"

    def test_value_far_outside_the_image(self, tmp_path, capsys):
        # (h - (f^2 + k)/2)/|k| is about -1e239 here
        argv = ["classify", "-k", "-3.7e-249", "--h", "-1.55e-26", "--f", "2.96e-5"]
        assert run(tmp_path, *argv) == 0
        assert json.loads(capsys.readouterr().out)["tag"] == "outside-image"

    def test_weak_repulsion_is_focus_focus(self, tmp_path):
        assert run(tmp_path, "eigen", "-k", "-1e-22") == 0
        doc = json.loads((tmp_path / "spectrum.json").read_text())
        assert doc["classification"] == "focus-focus"

    @pytest.mark.parametrize("k,f_max,n", [("-1e-20", "1e-10", 2), ("-1e-12", "1e-6", 3)])
    def test_loop_at_small_k_measures_the_sheet_count(self, tmp_path, k, f_max, n):
        # the loop with c = 0.5 and f_max = 2 c w, as monodromy -k -1 --c 0.5 --f-max 1
        argv = ["monodromy", "-k", k, "--c", "0.5", "--f-max", f_max, "-n", str(n)]
        assert run(tmp_path, *argv) == 0
        assert json.loads((tmp_path / "monodromy.json").read_text())["m"] == n

    def test_start_at_small_k_reflects_as_its_twin(self, tmp_path, capsys):
        # (0.5, 0, 3e-14, 7e-14) at k = -1e-26 is (0.5, 0, 0.3, 0.7) at k = -1, and
        # --time 1e14 is --time 10 there
        initial = ["--initial", "0.5", "0", "3e-14", "7e-14"]
        assert run(tmp_path, "simulate", "-k", "-1e-26", *initial, "--reflections", "5") == 0
        assert capsys.readouterr().err == ""
        reflections = []
        for argv in (["-k", "-1e-26", *initial, "--time", "1e14"],
                     ["-k", "-1", "--initial", "0.5", "0", "0.3", "0.7", "--time", "10"]):
            assert run(tmp_path, "simulate", *argv) == 0
            _, columns = io.read_trajectory_csv(tmp_path / "trajectory.csv")
            reflections.append(int(columns["segment"].max()))  # the last segment is cut
        assert reflections == [6, 6]


@pytest.mark.parametrize(
    "argv,path",
    [
        (["classify", "-k", "-1", "-n", "3", "--h", "0", "--f", "0"], None),
        (["eigen", "--lam", "1.5", "--mu", "0.7"], "spectrum.json"),
        (["rotation", "--h", "0.375", "--f", "0.5", "--compare-sim"], None),
        (["monodromy", "-n", "2"], "monodromy.json"),
    ],
    ids=["classify", "eigen", "rotation", "monodromy"],
)
def test_json_reports_carry_the_config_in_one_form(tmp_path, capsys, argv, path):
    assert run(tmp_path, *argv) == 0
    out = capsys.readouterr().out
    text = out if path is None else (tmp_path / path).read_text()
    doc = json.loads(text)
    assert doc["config"]["k"] == -1.0
    assert text == json.dumps(doc, indent=2, sort_keys=True) + "\n"


# Per command: the flags it requires; an option of each kind it has, as (long name, flag argv,
# flag value, file value, builtin default); the argv of a run that writes a JSON report and the
# long names of all its options, which that report's config holds; and a file value that does
# not fit an option the run does not read, with the argv that leaves it unread.
RESOLUTION = {
    "simulate": ([], [
        ("k", ["-k", "-2"], -2.0, -3.0, -1.0),
        ("seed", ["--seed", "3"], 3, 7, 0),
        ("initial", ["--initial", "0.1", "0", "0", "1"], [0.1, 0.0, 0.0, 1.0], [0.2, 0, 0, 1], None),
        ("svg", ["--svg"], True, True, False),
    ], None, None, ({"seed": "x"}, ["--initial", "0.5", "0", "0", "1", "--reflections", "1"])),
    "diagram": ([], [
        ("f-min", ["--f-min", "-1"], -1.0, -2.0, -1.5),
        ("resolution", ["--resolution", "5"], 5, 7, 201),
        ("svg", ["--svg"], True, True, False),
    ], None, None, ({"k": "x"}, ["-k", "-1"])),
    "classify": ([], [
        ("h-max", ["--h-max", "1"], 1.0, 2.0, 1.5),
        ("resolution", ["--resolution", "5"], 5, 7, 201),
        ("grid", ["--grid"], True, True, False),
    ], ["--h", "0.3", "--f", "0.2"],
        {"k", "sheets", "h", "f", "grid", "h-min", "h-max", "f-min", "f-max", "resolution"},
        ({"h-min": [0]}, ["--h", "0.3", "--f", "0.2"])),
    "eigen": ([], [
        ("lam", ["--lam", "2"], 2.0, 3.0, 1.0),
    ], [], {"k", "lam", "mu"}, ({"mu": True}, ["--mu", "2"])),
    "rotation": (["--h", "0.375", "--f", "0.5"], [
        ("k", ["-k", "-2"], -2.0, -3.0, -1.0),
        ("sheets", ["-n", "2"], 2, 3, 1),
        ("compare-sim", ["--compare-sim"], True, True, False),
    ], [], {"k", "sheets", "h", "f", "compare-sim"}, ({"sheets": 2.5}, ["-n", "2"])),
    "monodromy": ([], [
        ("c", ["--c", "0.4"], 0.4, 0.45, 0.5),
        ("points-per-arc", ["--points-per-arc", "8"], 8, 16, 64),
    ], ["--points-per-arc", "4"], {"k", "sheets", "c", "f-max", "points-per-arc"},
        ({"c": "0.4"}, ["--c", "0.4"])),
    "plot": (["--trajectory", "t.csv"], [
        ("output", ["--output", "a.svg"], "a.svg", "b.svg", None),
    ], None, None, ({"output": 3}, ["--output", "a.svg"])),
}


@pytest.mark.parametrize("command", RESOLUTION)
def test_each_option_resolves_flag_then_file_then_builtin(tmp_path, capsys, monkeypatch, command):
    required, kinds, report_argv, names, (misfit, unread_argv) = RESOLUTION[command]
    config = tmp_path / "config.json"

    def call(doc, *argv):
        config.write_text(json.dumps(doc))
        return main(["--config", str(config), "--out-dir", str(tmp_path / "out"), command, *argv])

    # refused before the run, and before --out-dir is made, though the run would not read it
    assert call(misfit, *required, *unread_argv) == 2
    assert "does not fit" in capsys.readouterr().err
    assert not (tmp_path / "out").exists()

    if report_argv is not None:  # the report echoes each option of the command, by long name
        assert call({}, *required, *report_argv) == 0
        out = capsys.readouterr().out
        path = {"eigen": "spectrum.json", "monodromy": "monodromy.json"}.get(command)
        doc = json.loads(out if path is None else (tmp_path / "out" / path).read_text())
        assert set(doc["config"]) == names

    seen = {}
    monkeypatch.setitem(cli._COMMANDS, command, lambda args, out: seen.update(vars(args)) or 0)

    def resolved(dest, doc, *argv):
        assert call(doc, *required, *argv) == 0
        value = seen[dest]
        return str(value) if isinstance(value, Path) else value

    for name, flag_argv, flag, file, builtin in kinds:
        dest = name.replace("-", "_")
        assert resolved(dest, {}) == builtin
        assert resolved(dest, {name: file}) == file
        # a store-true flag can only beat a file's false
        assert resolved(dest, {name: file if file != flag else False}, *flag_argv) == flag


@pytest.mark.parametrize(
    "command, doc, argv, path",
    [
        ("eigen", {"k": -4}, ["-k", "-4"], "spectrum.json"),
        ("monodromy", {"k": -4, "f-max": 3}, ["-k", "-4", "--f-max", "3"], "monodromy.json"),
    ],
    ids=["eigen", "monodromy"],
)
def test_config_int_for_a_float_option_is_a_float(tmp_path, monkeypatch, command, doc, argv, path):
    # the file's -4 writes the bytes that the flag's -4 writes
    config = tmp_path / "config.json"
    config.write_text(json.dumps(doc))
    assert main(["--config", str(config), "--out-dir", str(tmp_path / "file"), command]) == 0
    assert main(["--out-dir", str(tmp_path / "flag"), command, *argv]) == 0
    text = (tmp_path / "file" / path).read_text()
    assert '"k": -4.0,' in text and text == (tmp_path / "flag" / path).read_text()
    # and each entry of a list, while an int option keeps its int
    seen = {}
    monkeypatch.setitem(cli._COMMANDS, "simulate", lambda args, out: seen.update(vars(args)))
    config.write_text(json.dumps({"initial": [0, 0, 1, 0], "sheet": 1}))
    assert main(["--config", str(config), "--out-dir", str(tmp_path / "file"), "simulate"]) == 0
    assert [type(v) for v in seen["initial"]] == [float] * 4 and type(seen["sheet"]) is int


NON_FINITE_FLAGS = {
    "rotation-h": ["rotation", "--h", "nan", "--f", "0.5"],
    "classify-h": ["classify", "--h", "nan", "--f", "0.2"],
    "eigen-lam": ["eigen", "--lam", "nan"],
    "simulate-time": ["simulate", "--seed", "1", "--time", "inf"],
    "simulate-initial": ["simulate", "--initial", "nan", "0", "0.1", "0.2", "--reflections", "3"],
}
# json.dumps writes NaN and Infinity, and json.loads reads them back; rotation
# requires --h and --f as flags, so its config case is k
NON_FINITE_CONFIGS = {
    "rotation-k": ({"k": -math.inf}, ["rotation", "--h", "0.375", "--f", "0.5"]),
    "classify-h": ({"h": math.nan, "f": 0.2}, ["classify"]),
    "eigen-lam": ({"lam": math.nan}, ["eigen"]),
    "simulate-time": ({"time": math.inf, "seed": 1}, ["simulate"]),
    "simulate-initial": ({"initial": [math.nan, 0, 0.1, 0.2], "reflections": 3}, ["simulate"]),
    "eigen-k-past-the-float-range": ({"k": -(10**400)}, ["eigen"]),
}


@pytest.mark.parametrize("name", NON_FINITE_FLAGS)
def test_non_finite_flag_exits_2(tmp_path, capsys, name):
    with pytest.raises(SystemExit) as exc:
        run(tmp_path, *NON_FINITE_FLAGS[name])
    assert exc.value.code == 2
    out, err = capsys.readouterr()
    assert out == "" and "invalid finite float value" in err
    assert list(tmp_path.iterdir()) == []


@pytest.mark.parametrize("token", ["abc", "-1e"])
def test_malformed_float_flag_exits_2(tmp_path, capsys, token):
    # -1e is no number, so argparse reads it as an option and --h as missing its value
    with pytest.raises(SystemExit) as exc:
        run(tmp_path, "classify", "--h", token, "--f", "0.2")
    assert exc.value.code == 2
    out, err = capsys.readouterr()
    assert out == "" and "argument --h: " in err
    assert list(tmp_path.iterdir()) == []


@pytest.mark.parametrize("command", ["diagram", "eigen"])
def test_sheet_count_is_refused_where_it_changes_nothing(tmp_path, capsys, command):
    # the bifurcation diagram and the pencil spectrum do not depend on n
    with pytest.raises(SystemExit) as exc:
        run(tmp_path, command, "-n", "3")
    assert exc.value.code == 2
    assert "unrecognized arguments: -n 3" in capsys.readouterr().err
    assert list(tmp_path.iterdir()) == []


@pytest.mark.parametrize("name", NON_FINITE_CONFIGS)
def test_non_finite_config_value_exits_2(tmp_path, capsys, name):
    doc, argv = NON_FINITE_CONFIGS[name]
    config, out_dir = tmp_path / "config.json", tmp_path / "out"
    config.write_text(json.dumps(doc))
    assert main(["--config", str(config), "--out-dir", str(out_dir)] + argv) == 2
    out, err = capsys.readouterr()
    assert out == "" and "does not fit" in err
    assert not out_dir.exists()  # refused before --out-dir is made


# inputs refused before any output is written: sizes beyond physical memory
# (above the 2^47-byte address space, so nothing is ever allocated), values
# whose h^2 - k f^2 overflows, an empty f range, and a classify given no value
REFUSED = {
    "diagram-resolution": (["diagram", "--resolution", "100000000000000"], "resolution="),
    "monodromy-points": (["monodromy", "--points-per-arc", "100000000000000"], "points_per_arc="),
    "classify-grid": (["classify", "--grid", "--resolution", "10000000"], "resolution="),
    "rotation-h-1e200": (["rotation", "--h", "1e200", "--f", "0.5"], "overflows h^2 - k f^2"),
    "monodromy-f-max-1e200": (["monodromy", "--f-max", "1e200"], "overflows h^2 - k f^2"),
    "monodromy-f-max-1e154": (["monodromy", "--f-max", "1e154"], "overflows h^2 - k f^2"),
    "diagram-empty-f-range": (["diagram", "--f-min", "0.5", "--f-max", "0.5", "--svg"],
                              "f_min and f_max must differ"),
    # cosh(w T_r) rounds to 1 or below, so T_r and dphi would read 0 or acosh fail
    "rotation-h-1e150": (["rotation", "--h", "1e150", "--f", "0.5"], "rounds T_r to 0"),
    "rotation-h-1e16-f-1e8": (["rotation", "--h", "1e16", "--f", "1e8"], "rounds T_r to 0"),
    "rotation-k-1e-20": (["rotation", "-k", "-1e-20", "--h", "0.3", "--f", "0.5"],
                         "rounds T_r to 0"),
    "monodromy-f-max-1e8": (["monodromy", "--f-max", "1e8"], "loop corner (1e+16, "),
    "monodromy-f-max-1e10": (["monodromy", "--f-max", "1e10"], "loop corner (1e+20, "),
    "simulate-seed-negative": (["simulate", "--seed", "-1", "--reflections", "3"],
                               "--seed must be non-negative"),
    "classify-without-value-or-grid": (["classify", "-k", "-1"], "--h and --f"),
    "rotation-n-past-2**62": (["rotation", "-n", str(2**62 + 1), "--h", "0.375", "--f", "0.5"],
                              f"n must be at most 2**62, got {2**62 + 1}"),
    # each count one below its least, in the library's words (test_model.py's one count rule)
    "count-n": (["classify", "-n", "0", "--h", "0", "--f", "0"],
                "n must be an integer >= 1, got 0"),
    "count-max-reflections": (["simulate", "--seed", "1", "--reflections", "-1"],
                              "max_reflections must be an integer >= 0, got -1"),
    "count-points-per-arc": (["monodromy", "--points-per-arc", "1"],
                             "points_per_arc must be an integer >= 2, got 1"),
    "count-samples-per-segment": (["simulate", "--seed", "1", "--reflections", "3",
                                   "--samples-per-segment", "0"],
                                  "samples_per_segment must be an integer >= 1, got 0"),
    "count-diagram-resolution": (["diagram", "--resolution", "1"],
                                 "resolution must be an integer >= 2, got 1"),
    "count-grid-resolution": (["classify", "--grid", "--resolution", "1"],
                              "resolution must be an integer >= 2, got 1"),
}


@pytest.mark.parametrize("name", REFUSED)
def test_refused_input_exits_2_before_any_output(tmp_path, capsys, name):
    argv, message = REFUSED[name]
    assert run(tmp_path, *argv) == 2
    out, err = capsys.readouterr()
    assert out == "" and err.startswith("error: ") and message in err and err.count("\n") == 1
    assert list(tmp_path.iterdir()) == []


def test_cli_import_does_not_load_scipy():
    # a fresh interpreter, since this one may have imported scipy elsewhere
    path = [str(Path(billiardbook.__file__).resolve().parents[1]), os.environ.get("PYTHONPATH")]
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, path)))
    code = "import sys, billiardbook.cli; assert 'scipy' not in sys.modules, 'scipy imported'"
    result = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True)
    assert result.returncode == 0, result.stderr


def test_negative_seed_from_config_exits_2(tmp_path, capsys):
    config = tmp_path / "config.json"
    config.write_text(json.dumps({"seed": -1, "reflections": 3}))
    out = tmp_path / "out"
    assert main(["--config", str(config), "--out-dir", str(out), "simulate"]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: --seed must be non-negative") and err.count("\n") == 1
    assert list(out.iterdir()) == []


def _plot_argv(tmp_path, trajectory):
    return ["--out-dir", str(tmp_path / "out"), "plot", "--trajectory", str(trajectory)]


UNUSABLE_PATHS = {
    # a file where the output directory should be
    "out-dir-is-a-file": (lambda p: ["--out-dir", str(p / "file"), "eigen"], "--out-dir"),
    "out-dir-under-a-file": (lambda p: ["--out-dir", str(p / "file/sub"), "eigen"], "--out-dir"),
    "trajectory-missing": (lambda p: _plot_argv(p, p / "missing.csv"), "--trajectory"),
    "trajectory-is-a-directory": (lambda p: _plot_argv(p, p / "dir"), "--trajectory"),
    "trajectory-not-a-trajectory": (lambda p: _plot_argv(p, p / "other.csv"), "--trajectory"),
    "trajectory-without-columns": (lambda p: _plot_argv(p, p / "header.csv"), "--trajectory"),
    "output-is-a-directory": (
        lambda p: _plot_argv(p, p / "trajectory.csv") + ["--output", str(p / "dir")], "--output"
    ),
}


@pytest.mark.parametrize("name", UNUSABLE_PATHS)
def test_unusable_user_path_exits_2(tmp_path, capsys, name):
    argv, option = UNUSABLE_PATHS[name]
    (tmp_path / "file").write_text("")
    (tmp_path / "dir").mkdir()
    (tmp_path / "other.csv").write_text("a,b\n1,2\n")
    (tmp_path / "header.csv").write_text("# billiardbook trajectory k=-1 n=2\nsegment,t\n0,0\n")
    assert main(["--out-dir", str(tmp_path), "simulate", "--seed", "1", "--reflections", "3"]) == 0
    before = sorted(tmp_path.rglob("*"))
    capsys.readouterr()
    assert main(argv(tmp_path)) == 2
    out, err = capsys.readouterr()
    assert out == "" and err.startswith("error: ") and option in err and err.count("\n") == 1
    assert sorted(p for p in tmp_path.rglob("*") if p.is_file()) == [
        p for p in before if p.is_file()
    ]


UNWRITABLE_OUTPUTS = {
    # plot's --output in a directory that does not exist
    "output-in-a-missing-directory": (
        lambda p: ["--out-dir", str(p), "plot", "--trajectory", str(p / "trajectory.csv"),
                   "--output", str(p / "nodir/x.svg")],
        "--output: cannot write ", "nodir/x.svg",
    ),
    # a directory where simulate writes trajectory.csv
    "trajectory-csv-is-a-directory": (
        lambda p: ["--out-dir", str(p / "taken"), "simulate", "--seed", "1", "--reflections", "3"],
        "cannot write ", "taken/trajectory.csv",
    ),
}


@pytest.mark.parametrize("name", UNWRITABLE_OUTPUTS)
def test_output_path_that_cannot_take_the_file_exits_2(tmp_path, capsys, name):
    argv, message, path = UNWRITABLE_OUTPUTS[name]
    assert main(["--out-dir", str(tmp_path), "simulate", "--seed", "1", "--reflections", "3"]) == 0
    (tmp_path / "taken/trajectory.csv").mkdir(parents=True)
    before = sorted(tmp_path.rglob("*"))
    capsys.readouterr()
    assert main(argv(tmp_path)) == 2
    out, err = capsys.readouterr()
    assert out == "" and err.startswith("error: " + message) and err.count("\n") == 1
    assert path in err and sorted(tmp_path.rglob("*")) == before


def test_first_hit_off_the_wall_exits_3(tmp_path, capsys):
    # |v|/w = 1e6: the wall-hit solver misses the wall, which no input is at fault for
    code = run(tmp_path, "simulate", "--initial", "0.3", "0.1", "6e5", "-8e5", "--reflections", "10")
    assert code == 3
    out, err = capsys.readouterr()
    assert out == "" and err.startswith("convergence failure: the first wall hit is off the wall")
    assert "|r^2 - 1| = " in err and not (tmp_path / "trajectory.csv").exists()
