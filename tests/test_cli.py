"""End-to-end runs of the command-line front end.

Everything goes through ``main(argv)`` in-process so exit codes, stdout
lines, and written files can all be asserted cheaply; one subprocess smoke
checks the module is runnable as installed.
"""

from __future__ import annotations

import json
import math
import subprocess
import sys

import numpy as np
import pytest

from polymer_lab.cli import main
from polymer_lab.heatflow import ConvergenceTable
from polymer_lab.potentials import scaled_ball_potential
from polymer_lab.zerorange import ZeroRangeParams, sample_paths

FREE_KERNEL_AT_1_1 = math.exp(-0.5) / math.sqrt(2.0 * math.pi)


class TestKernelCommand:
    def test_value_and_manifest(self, tmp_path, capsys):
        code = main(["kernel", "--gamma", "0", "--rho", "1", "--t", "1",
                     "--out", str(tmp_path)])
        assert code == 0
        printed = float(capsys.readouterr().out.strip())
        assert printed == pytest.approx(FREE_KERNEL_AT_1_1, rel=1e-10)

        payload = json.loads((tmp_path / "kernel.json").read_text())
        assert payload["value"] == printed
        assert payload == {"gamma": 0.0, "rho": 1.0, "t": 1.0, "value": printed}

        manifest = json.loads((tmp_path / "manifest.json").read_text())
        assert manifest["exit_code"] == 0
        assert manifest["outputs"] == ["kernel.json"]
        assert manifest["wall_time_s"] >= 0.0
        assert set(manifest["versions"]) == {"polymer_lab", "numpy", "scipy", "python"}
        cfg = manifest["config"]
        # every knob is materialized, including untouched defaults
        for key in ("command", "potential", "chi", "gamma", "T_list", "times",
                    "t", "rho", "n_paths", "dt", "seed", "out_dir", "nodes",
                    "fmt", "steps"):
            assert key in cfg, key
        assert cfg["n_paths"] == 50000
        assert cfg["seed"] == 0

    def test_node_count_override_matches(self, tmp_path, capsys):
        main(["kernel", "--gamma", "1", "--rho", "0.5", "--t", "0.8",
              "--out", str(tmp_path / "a")])
        a = float(capsys.readouterr().out.strip())
        code = main(["kernel", "--gamma", "1", "--rho", "0.5", "--t", "0.8",
                     "--nodes", "800", "--out", str(tmp_path / "b")])
        b = float(capsys.readouterr().out.strip())
        assert code == 0
        assert a == pytest.approx(b, rel=1e-9)

    def test_negative_time_rejected(self, tmp_path, capsys):
        code = main(["kernel", "--t", "-1", "--out", str(tmp_path)])
        assert code == 1
        assert "error" in capsys.readouterr().err


class TestSpectralCommand:
    def test_summary_lines(self, tmp_path, capsys):
        code = main(["spectral", "--out", str(tmp_path)])
        assert code == 0
        out = capsys.readouterr().out.splitlines()
        values = {}
        for line in out:
            name, _, text = line.partition(" = ")
            values[name] = float(text)
        assert set(values) == {"beta_cr", "gamma1", "c", "kappa"}
        assert values["beta_cr"] == pytest.approx(1.0, abs=5e-4)
        assert json.loads((tmp_path / "spectral.json").read_text())[
            "beta_cr"
        ] == values["beta_cr"]

    def test_csv_potential_with_sidecar(self, tmp_path, capsys):
        v = scaled_ball_potential(0.5, 0.25)
        pot = tmp_path / "well.csv"
        v.to_csv(pot)
        (tmp_path / "well.csv.json").write_text(json.dumps({"r_support": 0.5}))
        code = main(["spectral", "--potential", str(pot), "--out", str(tmp_path / "csv")])
        assert code == 0
        got = json.loads((tmp_path / "csv" / "spectral.json").read_text())
        # square well: beta_cr * V * eps^2 = pi^2 / 8
        height = float(v.values[0])
        assert got["beta_cr"] == pytest.approx(
            (math.pi**2 / 8.0) / (height * 0.25), rel=5e-4
        )
        # the CSV route must agree with the preset route to the bit
        main(["spectral", "--potential", "ball(0.5,0.25)", "--out", str(tmp_path / "pre")])
        preset = json.loads((tmp_path / "pre" / "spectral.json").read_text())
        assert got == preset

    def test_missing_file_and_sidecar(self, tmp_path, capsys):
        assert main(["spectral", "--potential", str(tmp_path / "nope.csv"),
                     "--out", str(tmp_path)]) == 1
        assert "does not exist" in capsys.readouterr().err

        pot = tmp_path / "well.csv"
        scaled_ball_potential(0.5, 0.0).to_csv(pot)
        assert main(["spectral", "--potential", str(pot), "--out", str(tmp_path)]) == 1
        assert "sidecar" in capsys.readouterr().err

        (tmp_path / "well.csv.json").write_text(json.dumps({"radius": 0.5}))
        assert main(["spectral", "--potential", str(pot), "--out", str(tmp_path)]) == 1
        assert "r_support" in capsys.readouterr().err

        (tmp_path / "well.csv.json").write_text(json.dumps({"r_support": 0.25}))
        assert main(["spectral", "--potential", str(pot), "--out", str(tmp_path)]) == 1
        assert "cuts the grid short" in capsys.readouterr().err


class TestMarginalCommand:
    def test_csv_tables(self, tmp_path, capsys):
        code = main(["marginal", "--gamma", "1", "--times", "0.5,1",
                     "--out", str(tmp_path)])
        assert code == 0
        for name in ("marginal_t0.5.csv", "marginal_t1.csv"):
            lines = (tmp_path / name).read_text().splitlines()
            assert lines[0] == "r,density"
            assert len(lines) > 100

    def test_json_tables(self, tmp_path, capsys):
        code = main(["marginal", "--gamma", "1", "--times", "0.5", "--format",
                     "json", "--out", str(tmp_path)])
        assert code == 0
        payload = json.loads((tmp_path / "marginal_t0.5.json").read_text())
        assert payload["gamma"] == 1.0
        assert len(payload["r"]) == len(payload["density"])


class TestSampleCommand:
    def test_paths_csv(self, tmp_path, capsys):
        code = main(["sample", "--gamma", "1", "--n-paths", "50", "--steps", "4",
                     "--seed", "3", "--out", str(tmp_path)])
        assert code == 0
        lines = (tmp_path / "paths.csv").read_text().splitlines()
        assert lines[0].startswith("path,0.0,0.25,")
        assert len(lines) == 51
        want = sample_paths(ZeroRangeParams(1.0), 4, 50, 3)
        first = [float(x) for x in lines[1].split(",")[1:]]
        assert np.allclose(first, want[0], rtol=0, atol=0)

    def test_env_seed_fallback_and_override(self, tmp_path, capsys, monkeypatch):
        monkeypatch.setenv("POLYMER_LAB_SEED", "91")
        main(["sample", "--gamma", "0.5", "--n-paths", "20", "--steps", "4",
              "--out", str(tmp_path / "env")])
        env_csv = (tmp_path / "env" / "paths.csv").read_text()
        env_seed = json.loads((tmp_path / "env" / "manifest.json").read_text())["config"]["seed"]
        assert env_seed == 91

        monkeypatch.setenv("POLYMER_LAB_SEED", "5")
        main(["sample", "--gamma", "0.5", "--n-paths", "20", "--steps", "4",
              "--seed", "91", "--out", str(tmp_path / "flag")])
        assert (tmp_path / "flag" / "paths.csv").read_text() == env_csv

    def test_bad_env_seed(self, tmp_path, capsys, monkeypatch):
        monkeypatch.setenv("POLYMER_LAB_SEED", "ninety-one")
        assert main(["sample", "--out", str(tmp_path)]) == 1
        assert "POLYMER_LAB_SEED" in capsys.readouterr().err


class TestVerifyCommands:
    def test_prop3_pass(self, tmp_path, capsys):
        code = main(["verify-prop3", "--chi", "1", "--T", "9,25",
                     "--out", str(tmp_path)])
        assert code == 0
        out = capsys.readouterr().out
        assert "PASS: errors strictly decreasing" in out
        assert (tmp_path / "prop3.csv").read_text().splitlines()[0] == "T,error"
        assert json.loads((tmp_path / "manifest.json").read_text())["exit_code"] == 0

    def test_prop3_json_format(self, tmp_path, capsys):
        code = main(["verify-prop3", "--chi", "1", "--T", "9,25",
                     "--format", "json", "--out", str(tmp_path)])
        assert code == 0
        payload = json.loads((tmp_path / "prop3.json").read_text())
        assert payload["parameter"] == "T"
        assert len(payload["rows"]) == 2

    def test_failed_verification_exits_2(self, tmp_path, capsys, monkeypatch):
        import polymer_lab.heatflow

        def fake(*args, **kwargs):
            return ConvergenceTable("T", ((9.0, 0.1), (25.0, 0.2)), meta={})

        monkeypatch.setattr(polymer_lab.heatflow, "verify_prop3", fake)
        code = main(["verify-prop3", "--T", "9,25", "--out", str(tmp_path)])
        assert code == 2
        assert "FAIL" in capsys.readouterr().out
        assert json.loads((tmp_path / "manifest.json").read_text())["exit_code"] == 2

    def test_collapsed_theorem_run_exits_3(self, tmp_path, capsys):
        code = main(["verify-theorem", "--chi", "2", "--T", "25", "--times", "1",
                     "--n-paths", "2000", "--seed", "3", "--out", str(tmp_path)])
        assert code == 3
        assert "INCONCLUSIVE" in capsys.readouterr().out
        payload = json.loads((tmp_path / "theorem2.json").read_text())
        assert payload["inconclusive"] is True
        assert payload["passed"] is None


class TestUsage:
    def test_unknown_command(self, capsys):
        assert main(["frobnicate"]) == 1
        assert "usage error" in capsys.readouterr().err

    def test_malformed_list(self, capsys):
        assert main(["verify-prop3", "--T", "9;25"]) == 1
        assert "comma-separated" in capsys.readouterr().err

    def test_module_is_runnable(self, tmp_path):
        proc = subprocess.run(
            [sys.executable, "-m", "polymer_lab.cli", "kernel", "--out", str(tmp_path)],
            capture_output=True, text=True, timeout=120,
        )
        assert proc.returncode == 0
        assert (tmp_path / "manifest.json").exists()
