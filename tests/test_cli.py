import json
import math
import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

import billiardbook
from billiardbook import io
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
        meta, rows = io.read_trajectory_csv(tmp_path / "trajectory.csv")
        assert meta == {"k": -1.0, "n": 3}
        assert rows[0]["h"] == pytest.approx(0.375)
        assert {row["sheet"] for row in rows} == {1, 2, 3}
        svg = (tmp_path / "orbit.svg").read_text()
        assert svg.startswith("<?xml") and "<polyline" in svg

    def test_missing_stop_condition_exits_2(self, tmp_path, capsys):
        code = run(tmp_path, "simulate", "-k", "-1", "--initial", "0.5", "0", "0", "1")
        assert code == 2
        assert "stop condition" in capsys.readouterr().err

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
        meta, rows = io.read_trajectory_csv(tmp_path / "trajectory.csv")
        assert meta["n"] == 2
        assert rows[-1]["segment"] == 4

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

    def test_out_dir_env_override(self, tmp_path, monkeypatch):
        monkeypatch.setenv("BILLIARDBOOK_OUT", str(tmp_path / "envout"))
        code = main(["simulate", "-k", "-1", "--seed", "3", "--reflections", "2"])
        assert code == 0
        assert (tmp_path / "envout" / "trajectory.csv").exists()


class TestDiagram:
    def test_csv_roundtrip_and_flagged_singular_row(self, tmp_path):
        assert run(tmp_path, "diagram", "-k", "-1", "--svg") == 0
        meta, rows = io.read_diagram_csv(tmp_path / "diagram.csv")
        assert meta["k"] == -1.0
        singular = [row for row in rows if row["singular_point"] == 1]
        assert singular == [{"f": 0.0, "h_parabola": 0.0, "singular_point": 1}]
        mid = [row for row in rows if row["singular_point"] == 0 and row["f"] == 0.0]
        assert mid[0]["h_parabola"] == -0.5
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


class TestEigen:
    def test_spectrum_report(self, tmp_path):
        assert run(tmp_path, "eigen", "-k", "-1") == 0
        doc = io.read_json(tmp_path / "spectrum.json")
        assert doc["classification"] == "focus-focus"
        assert sorted(map(tuple, doc["eigenvalues"])) == [
            (-1.0, -1.0), (-1.0, 1.0), (1.0, -1.0), (1.0, 1.0),
        ]

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
        rows = io.read_continuation_csv(tmp_path / "continuation.csv")
        assert rows[0]["arc_index"] == 0
        span = rows[-1]["theta_unwrapped"] - rows[0]["theta_unwrapped"]
        assert span == pytest.approx(3 * 2 * math.pi, abs=1e-9)


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


def test_cli_import_does_not_load_scipy():
    # a fresh interpreter, since this one may have imported scipy elsewhere
    path = [str(Path(billiardbook.__file__).resolve().parents[1]), os.environ.get("PYTHONPATH")]
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, path)))
    code = "import sys, billiardbook.cli; assert 'scipy' not in sys.modules, 'scipy imported'"
    result = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True)
    assert result.returncode == 0, result.stderr
