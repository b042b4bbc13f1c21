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
from billiardbook import BookTable, classify_fiber, io
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
             "samples per segment"),
            (["--seed", "1", "--reflections", "3", "--samples-per-segment", "-1"],
             "samples per segment"),
            (["--initial", "0.5", "0", "0", "1e160", "--reflections", "3"], "H and F"),
        ],
        ids=["time-1e15", "time-1e30", "samples-0", "samples-minus-1", "overflowing-h"],
    )
    def test_run_that_cannot_be_written_exits_2(self, tmp_path, capsys, argv, message):
        assert run(tmp_path, "simulate", *argv) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and message in err and err.count("\n") == 1
        assert not (tmp_path / "trajectory.csv").exists()

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
        meta, columns = io.read_diagram_csv(tmp_path / "diagram.csv")
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
        assert capsys.readouterr().err == "error: resolution must be >= 2\n"

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
        doc = io.read_json(tmp_path / "spectrum.json")
        assert doc["classification"] == "focus-focus"
        assert sorted(map(tuple, doc["eigenvalues"])) == [
            (-1.0, -1.0), (-1.0, 1.0), (1.0, -1.0), (1.0, 1.0),
        ]

    def test_k_in_scientific_notation(self, tmp_path):
        assert run(tmp_path, "eigen", "-k", "-1e0") == 0
        doc = io.read_json(tmp_path / "spectrum.json")
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
        doc = io.read_json(tmp_path / "monodromy.json")
        assert doc["m"] == 3
        assert doc["monodromy_matrix"] == [[1, 0], [3, 1]]
        assert doc["labels"] == {
            "r_hneg": "inf", "r_hpos": "1/3", "epsilon": 1, "derived_from_m": 3,
        }
        assert doc["config"]["c"] == 0.5
        assert 0.0 < doc["unwrap_margin"] < 1.0
        columns = io.read_continuation_csv(tmp_path / "continuation.csv")
        assert columns["arc_index"][0] == 0
        span = columns["theta_unwrapped"][-1] - columns["theta_unwrapped"][0]
        assert span == pytest.approx(3 * 2 * math.pi, abs=1e-9)

    def test_coarse_loop_measures_the_sheet_count(self, tmp_path):
        assert run(tmp_path, "monodromy", "-k", "-1", "-n", "3", "--points-per-arc", "2") == 0
        assert io.read_json(tmp_path / "monodromy.json")["m"] == 3

    def test_bisection_through_the_singular_value_exits_3(self, tmp_path, capsys):
        code = run(
            tmp_path, "monodromy", "-k", "-1", "--c", "0.5", "--f-max", "1.5",
            "--points-per-arc", "3",
        )
        assert code == 3
        assert capsys.readouterr().err.startswith("convergence failure: ")


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
}


@pytest.mark.parametrize("name", NON_FINITE_FLAGS)
def test_non_finite_flag_exits_2(tmp_path, capsys, name):
    with pytest.raises(SystemExit) as exc:
        run(tmp_path, *NON_FINITE_FLAGS[name])
    assert exc.value.code == 2
    out, err = capsys.readouterr()
    assert out == "" and "invalid finite float value" in err
    assert list(tmp_path.iterdir()) == []


@pytest.mark.parametrize("name", NON_FINITE_CONFIGS)
def test_non_finite_config_value_exits_2(tmp_path, capsys, name):
    doc, argv = NON_FINITE_CONFIGS[name]
    config, out_dir = tmp_path / "config.json", tmp_path / "out"
    config.write_text(json.dumps(doc))
    assert main(["--config", str(config), "--out-dir", str(out_dir)] + argv) == 2
    out, err = capsys.readouterr()
    assert out == "" and "does not fit" in err
    assert list(out_dir.iterdir()) == []


def test_cli_import_does_not_load_scipy():
    # a fresh interpreter, since this one may have imported scipy elsewhere
    path = [str(Path(billiardbook.__file__).resolve().parents[1]), os.environ.get("PYTHONPATH")]
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, path)))
    code = "import sys, billiardbook.cli; assert 'scipy' not in sys.modules, 'scipy imported'"
    result = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True)
    assert result.returncode == 0, result.stderr
