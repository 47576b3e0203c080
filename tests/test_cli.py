"""End-to-end runs of the command-line front end.

Everything goes through ``main(argv)`` in-process so exit codes, stdout
lines, and written files can all be asserted cheaply; one subprocess smoke
checks the module is runnable as installed.
"""

from __future__ import annotations

import csv
import hashlib
import io
import json
import math
import re
import subprocess
import sys
import tempfile
from pathlib import Path

import hypothesis.extra.numpy as hnp
import numpy as np
import pytest
from hypothesis import example, given
from hypothesis import strategies as st

from polymer_lab import cli, montecarlo
from polymer_lab.cli import _TABLE_ROWS, _write_json, main
from polymer_lab.heatflow import ConvergenceTable
from polymer_lab.potentials import scaled_ball_potential, unit_ball_potential
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
        assert set(manifest["versions"]) == {"polymer_lab", "numpy", "python"}
        cfg = manifest["config"]
        # every knob is materialized, including untouched defaults
        for key in ("command", "potential", "chi", "gamma", "T_list", "times",
                    "t", "rho", "n_paths", "dt", "seed", "out_dir",
                    "steps"):
            assert key in cfg, key
        assert cfg["n_paths"] == 50000
        assert cfg["seed"] == 0

    def test_negative_time_rejected(self, tmp_path, capsys):
        code = main(["kernel", "--t", "-1", "--out", str(tmp_path)])
        assert code == 1
        assert "error" in capsys.readouterr().err

    @pytest.mark.parametrize("flag,value,reason", [
        ("--t", "inf", "t must be finite"),
        ("--t", "nan", "t must be finite"),
        ("--rho", "inf", "rho must be finite"),
        ("--rho", "-inf", "rho must be finite"),
        ("--t", "0", "t must be > 0"),
        ("--rho", "-1", "rho must be > 0"),
    ])
    def test_error_names_the_failed_condition(self, tmp_path, capsys, flag, value, reason):
        assert main(["kernel", f"{flag}={value}", "--out", str(tmp_path)]) == 1
        assert capsys.readouterr().err == f"error: {reason}\n"

    @pytest.mark.parametrize("gamma,rho", [("60", "0.1"), ("100", "40")])
    def test_non_finite_kernel_exits_1(self, tmp_path, capsys, gamma, rho):
        # e^{-gamma rho + gamma^2 t/2} overflows a double: the kernel is inf at both
        code = main(["kernel", "--gamma", gamma, "--rho", rho, "--t", "1",
                     "--out", str(tmp_path)])
        assert code == 1
        err = capsys.readouterr().err
        assert f"(gamma, rho, t) = ({float(gamma)!r}, {float(rho)!r}, 1.0)" in err
        assert not (tmp_path / "kernel.json").exists()


class TestOverflowPaths:
    @pytest.mark.parametrize("argv", [
        ["kernel", "--gamma", "100", "--rho", "40", "--t", "1"],
        ["marginal", "--gamma", "37.8"],
    ])
    def test_stderr_is_one_error_line(self, tmp_path, argv):
        # a real process, so numpy's RuntimeWarnings would reach its stderr
        proc = subprocess.run(
            [sys.executable, "-m", "polymer_lab.cli", *argv, "--out", str(tmp_path)],
            capture_output=True, text=True, timeout=120,
        )
        assert proc.returncode == 1
        assert proc.stdout == ""
        assert len(proc.stderr.splitlines()) == 1
        assert proc.stderr.startswith("error: ")


_WELL = "r,v\n0.0,3.0\n0.5,0.0\n"


def _assert_one_error_line(tmp_path, capsys, argv, reason):
    assert main(argv + ["--out", str(tmp_path)]) == 1
    out, err = capsys.readouterr()
    assert out == ""
    assert len(err.splitlines()) == 1
    assert err.startswith("error: ") and reason in err
    assert "Traceback" not in err
    # the failed run still leaves its manifest, with the printed message
    manifest = json.loads((tmp_path / "manifest.json").read_text())
    assert list(manifest) == ["config", "versions", "wall_time_s", "outputs",
                              "exit_code", "error"]
    assert manifest["config"]["command"] == argv[0]
    assert manifest["outputs"] == [] and manifest["exit_code"] == 1
    assert manifest["error"] == err.removeprefix("error: ").removesuffix("\n")


class TestDegenerateInputs:
    @pytest.mark.parametrize("argv,reason", [
        (["verify-prop1", "--T", "0"], "every horizon T must be positive and finite"),
        (["verify-prop3", "--T", "0"], "every horizon T must be positive and finite"),
        (["verify-prop2", "--T", "0"], "every horizon T must be positive and finite"),
        (["verify-prop2", "--T", "inf"], "every horizon T must be positive and finite"),
        (["verify-theorem", "--T", "inf"], "every horizon T must be positive and finite"),
        (["verify-theorem", "--dt", "0", "--T", "1"], "dt must be positive and finite"),
        (["verify-prop2", "--dt", "0", "--T", "1"], "dt must be positive and finite"),
        (["spectral", "--potential", "ball(1e-300,1)"], "the well height is not finite"),
        (["verify-prop1", "--T", "400,100,25"], "T_list must be non-empty and strictly increasing"),
        (["verify-prop3", "--T", "100,100"], "T_list must be non-empty and strictly increasing"),
        (["verify-theorem", "--T", "4,4"], "T_list must be non-empty and strictly increasing"),
        (["verify-prop2", "--T", "4,4"], "T_list must be non-empty and strictly increasing"),
        (["verify-prop1", "--t", "0"], "t must be positive and finite, got 0.0"),
        (["verify-prop3", "--t", "inf"], "t must be positive and finite, got inf"),
        # 1e11 steps: the sampler's buffers alone would take 3.2 TB
        (["verify-theorem", "--T", "1000000000", "--n-paths", "1000"], "n = 1000 paths need"),
    ], ids=["prop1-T0", "prop3-T0", "prop2-T0", "prop2-Tinf", "theorem-Tinf", "theorem-dt0",
            "prop2-dt0", "ball-underflow", "prop1-unsorted", "prop3-repeated",
            "theorem-repeated", "prop2-repeated", "prop1-t0", "prop3-tinf", "theorem-T1e9"])
    def test_one_error_line(self, tmp_path, capsys, argv, reason):
        _assert_one_error_line(tmp_path, capsys, argv, reason)

    @pytest.mark.parametrize("csv_text,sidecar,reason", [
        (_WELL, '{"r_support": null}', "finite number r_support"),
        (_WELL, '{"r_support": [1]}', "finite number r_support"),
        (_WELL, "5", "finite number r_support"),
        (_WELL, '"r_support"', "finite number r_support"),
        (_WELL, '{"r_support": Infinity}', "finite number r_support"),
        (_WELL, '{"r_support": NaN}', "finite number r_support"),
        (_WELL, '{"r_support": 1' + "0" * 400 + "}", "finite number r_support"),
        ("", '{"r_support": 1}', "is empty"),
        ("r,v\n0.0,3.0\n\n0.5,0.0\n", '{"r_support": 0.5}',
         "potential file {well!r} line 3: expected two numbers r,v, got []"),
        ("r,v\n0.0,3.0,1.0\n0.5,0.0\n", '{"r_support": 0.5}',
         "potential file {well!r} line 2: expected two numbers r,v, got ['0.0', '3.0', '1.0']"),
        ("r,v\n0.0,3.0\n0.5,abc\n", '{"r_support": 0.5}',
         "potential file {well!r} line 3: expected two numbers r,v, got ['0.5', 'abc']"),
        ("radius,value\n0.0,3.0\n0.5,0.0\n", '{"r_support": 0.5}',
         "potential file {well!r} line 1: expected header 'r,v', got ['radius', 'value']"),
        ("r,v\n0.5,0.0\n", '{"r_support": 0.5}',
         "potential file {well!r} needs at least two rows"),
        ("r,v\n0.0,3.0\n0.5,1.0\n", '{"r_support": 0.5}',
         "potential file {well!r}: last row must close the support with v = 0"),
    ], ids=["null", "list", "number", "string", "inf", "nan", "past-a-double", "empty-csv",
            "blank-row", "three-cells", "not-a-number", "wrong-header", "one-row",
            "open-support"])
    def test_malformed_potential_file(self, tmp_path, capsys, csv_text, sidecar, reason):
        well = tmp_path / "well.csv"
        well.write_text(csv_text)
        Path(f"{well}.json").write_text(sidecar)
        _assert_one_error_line(tmp_path, capsys, ["spectral", "--potential", str(well)],
                               reason.format(well=str(well)))

    @pytest.mark.parametrize("command", ["spectral", "verify-prop3"])
    @pytest.mark.parametrize("csv_text,r_support,reason", [
        ("r,v\n0,1e300\n1e-300,0\n1,0\n", "1", "no sign change of u'(R) found"),
        ("r,v\n0,1e-300\n1,0\n", "1", "gamma1 does not fit a double"),
        ("r,v\n0,1e300\n1,0\n", "1", "gamma1 does not fit a double"),
        ("r,v\n0,1\n1e200,0\n", "1e200", "coupling scale (pi^2/8)/(v_max R^2) does not fit"),
        ("r,v\n0,1\n1e-200,0\n", "1e-200", "coupling scale (pi^2/8)/(v_max R^2) does not fit"),
    ], ids=["thin-spike", "shallow", "deep", "wide", "narrow"])
    def test_extreme_well(self, tmp_path, capsys, command, csv_text, r_support, reason):
        # each constant of these wells, or a step on the way to it, leaves a
        # double's range
        well = tmp_path / "well.csv"
        well.write_text(csv_text)
        Path(f"{well}.json").write_text(f'{{"r_support": {r_support}}}')
        _assert_one_error_line(tmp_path, capsys, [command, "--potential", str(well)], reason)

    def test_unnormalized_marginal_names_its_mass_in_a_short_line(self, tmp_path, capsys):
        _assert_one_error_line(tmp_path, capsys, ["marginal", "--gamma", "1", "--times", "1e-300"],
                               "marginal integrates to")
        message = json.loads((tmp_path / "manifest.json").read_text())["error"]
        mass = re.fullmatch(r"marginal integrates to (\S+), outside 1 \+- 0\.001", message)
        assert mass and float(mass[1]) > 1e100
        assert len(message) < 80

    def test_single_rung_ladder_fails(self, tmp_path, capsys):
        # one horizon shows no decrease, so it cannot pass
        assert main(["verify-prop1", "--T", "25", "--out", str(tmp_path)]) == 2
        assert capsys.readouterr().out.splitlines()[-1] == "FAIL: errors not decreasing"

    def test_unwritable_failure_manifest_keeps_one_error_line(self, tmp_path, capsys):
        # the manifest's own path is taken, so the failed run cannot write it
        (tmp_path / "manifest.json").mkdir()
        assert main(["kernel", "--t", "inf", "--out", str(tmp_path)]) == 1
        assert capsys.readouterr() == ("", "error: t must be finite\n")


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
        code = main(["marginal", "--gamma", "1", "--times", "0.5", "--out", str(tmp_path)])
        assert code == 0
        payload = json.loads((tmp_path / "marginal_t0.5.json").read_text())
        assert payload["gamma"] == 1.0
        assert len(payload["r"]) == len(payload["density"])

    def test_writes_json_and_csv_per_time(self, tmp_path, capsys):
        code = main(["marginal", "--gamma", "1", "--times", "0.5,1", "--out", str(tmp_path)])
        assert code == 0
        assert capsys.readouterr().out == "wrote 2 marginal table(s)\n"
        names = ["marginal_t0.5.json", "marginal_t0.5.csv", "marginal_t1.json", "marginal_t1.csv"]
        assert json.loads((tmp_path / "manifest.json").read_text())["outputs"] == names
        for t in ("0.5", "1"):
            payload = json.loads((tmp_path / f"marginal_t{t}.json").read_text())
            rows = (tmp_path / f"marginal_t{t}.csv").read_text().splitlines()[1:]
            assert [[float(x) for x in row.split(",")] for row in rows] == [
                list(pair) for pair in zip(payload["r"], payload["density"])
            ]

    def test_kernel_past_a_double_still_writes(self, tmp_path, capsys):
        # at t = 1, I(37.6, r, 1) overflows near r = 0 while the density,
        # I/zeta at most about gamma^2/2, fits a double
        code = main(["marginal", "--gamma", "37.6", "--times", "0.5,1", "--out", str(tmp_path)])
        assert code == 0
        for t in ("0.5", "1"):
            payload = json.loads((tmp_path / f"marginal_t{t}.json").read_text())
            r, dens = np.array(payload["r"]), np.array(payload["density"])
            assert np.all(np.isfinite(dens)) and np.all(dens >= 0.0)
            assert np.trapezoid(dens, r) == pytest.approx(1.0, abs=1e-3)

    def test_finite_tables_keep_their_bytes(self, tmp_path, capsys):
        # at gamma 37.4 the plain product is finite everywhere, so the
        # overflow fallback must leave these digests alone.  Re-pinned once
        # when erfcx's reflection moved to the package's own erfcx (largest
        # relative change 5.7e-14; old and new tables are both within 3.1e-13
        # of 50-digit values)
        assert main(["marginal", "--gamma", "37.4", "--out", str(tmp_path)]) == 0
        digests = {
            "marginal_t0.5.csv": "af16f9d544386833efd415ee91883d89f71848e2dccb5040c8acfa8b2b1f6f9a",
            "marginal_t0.5.json": "da1728bd14648a823d3d9d3d23262b803351f035baa35570ef10e7e4e404d372",
            "marginal_t1.csv": "b970dafa1aa7302660a2ad60f9827ab7b52d3317de6760d68d4e1c4f91ca61a9",
            "marginal_t1.json": "0a8b42e47e0b13ed1d08c902d622432acdbd7771aa89e2471a75abef836df583",
        }
        for name, digest in digests.items():
            assert hashlib.sha256((tmp_path / name).read_bytes()).hexdigest() == digest, name

    def test_overflowing_coupling_exits_1(self, tmp_path, capsys):
        # zeta(60) ~ e^{1800}/30 and zeta(37.8) ~ e^{714}/19 overflow a double
        for gamma in ("60", "37.8"):
            code = main(["marginal", "--gamma", gamma, "--out", str(tmp_path)])
            assert code == 1
            out, err = capsys.readouterr()
            assert out == ""
            assert err == f"error: zeta(gamma) overflows a double at gamma = {float(gamma)!r}\n"
            assert not list(tmp_path.glob("marginal_*"))


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

    def test_paths_csv_bytes_match_csv_writer(self, tmp_path, capsys):
        assert main(["sample", "--gamma", "-0.5", "--n-paths", "40", "--steps", "6",
                     "--seed", "8", "--out", str(tmp_path)]) == 0
        paths = sample_paths(ZeroRangeParams(-0.5), 6, 40, 8)
        ref = io.StringIO(newline="")
        writer = csv.writer(ref)
        writer.writerow(["path"] + [repr(float(t)) for t in np.arange(7) / 6])
        for i, row in enumerate(paths):
            writer.writerow([i] + [repr(float(r)) for r in row])
        assert (tmp_path / "paths.csv").read_bytes() == ref.getvalue().encode()

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

    def test_oversized_n_exits_1(self, tmp_path, capsys):
        code = main(["sample", "--n-paths", "1000000000000", "--steps", "8",
                     "--out", str(tmp_path)])
        assert code == 1
        out, err = capsys.readouterr()
        assert out == ""
        assert len(err.splitlines()) == 1
        assert err.startswith("error: n = 1000000000000 paths need")
        assert not (tmp_path / "paths.csv").exists()

    def test_512_steps_complete(self, tmp_path, capsys):
        assert main(["sample", "--steps", "512", "--n-paths", "1000",
                     "--out", str(tmp_path)]) == 0
        lines = (tmp_path / "paths.csv").read_text().splitlines()
        assert len(lines) == 1001 and lines[0].count(",") == 513

    def test_too_many_steps_for_the_grid_exit_1(self, tmp_path, capsys):
        # the rows' trapezoid totals drift past 1e-3 of their exact mass
        _assert_one_error_line(tmp_path, capsys,
                               ["sample", "--steps", "4096", "--n-paths", "1000"],
                               "the grid is too coarse for 4096 steps; use fewer steps")

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
                     "--out", str(tmp_path)])
        assert code == 0
        payload = json.loads((tmp_path / "prop3.json").read_text())
        assert payload["parameter"] == "T"
        assert len(payload["rows"]) == 2

    @pytest.mark.parametrize("chi,reason", [
        ("40", "the limit value is not finite (chi = 40.0"),  # kernel at gamma 49.3 overflows
        ("1000", "the limit value is not finite (chi = 1000.0"),  # nan kernel at gamma 1233.7
    ], ids=["limit-overflow", "cn-range"])
    def test_non_finite_ladder_exits_1(self, tmp_path, capsys, chi, reason):
        code = main(["verify-prop1", "--chi", chi, "--T", "25,100", "--out", str(tmp_path)])
        assert code == 1
        out, err = capsys.readouterr()
        assert out == ""
        assert len(err.splitlines()) == 1
        assert err.startswith("error: ") and reason in err
        assert not list(tmp_path.glob("prop1.*"))

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

    def test_inconclusive_line_names_horizon_and_reason(self, tmp_path, capsys):
        # the realized ESS ratio stays above 1% on both horizons here; only
        # the predicted weight second moment at T = 25 rules the run out
        code = main(["verify-theorem", "--chi", "0", "--T", "9,25", "--times", "0.5,1",
                     "--n-paths", "8000", "--seed", "0", "--out", str(tmp_path)])
        assert code == 3
        assert "INCONCLUSIVE: T = 25.0: predicted_moment" in capsys.readouterr().out
        payload = json.loads((tmp_path / "theorem2.json").read_text())
        assert min(payload["ess"].values()) > 0.01 * 8000
        assert payload["inconclusive_reasons"] == {"25.0": "predicted_moment"}

    def test_prop2_inconclusive_line_names_horizon_and_reason(self, tmp_path, capsys):
        # at this seed the standard error exceeds the gap at T = 9, while at
        # T = 25 the gap is resolved but the predicted weight second moment
        # (22.8) exceeds 2 ln 1000
        code = main(["verify-prop2", "--chi", "2", "--T", "9,25", "--times", "1",
                     "--n-paths", "1000", "--seed", "2", "--out", str(tmp_path)])
        assert code == 3
        out = capsys.readouterr().out
        assert "INCONCLUSIVE: T = 9.0: standard_error; T = 25.0: predicted_moment" in out
        payload = json.loads((tmp_path / "prop2.json").read_text())
        assert payload["inconclusive_reasons"] == {
            "9.0": "standard_error", "25.0": "predicted_moment",
        }

    def test_out_of_memory_exits_1(self, tmp_path, capsys):
        # 1e14 steps per path: even a one-path block's buffers (3.2e15 bytes)
        # exceed the address space, and the sampler's memory estimate, which
        # counts them, refuses the sample before anything is allocated
        code = main(["verify-theorem", "--chi", "0", "--T", "1e12", "--times", "1",
                     "--n-paths", "1000", "--out", str(tmp_path)])
        assert code == 1
        out, err = capsys.readouterr()
        assert out == ""
        assert len(err.splitlines()) == 1
        assert err.startswith("error: n = 1000 paths need")
        assert not (tmp_path / "theorem2.json").exists()

    def test_worker_error_exits_1_from_either_worker(self, tmp_path, capsys, monkeypatch):
        # at T = 2 a block holds 64 paths and blocks are dealt round-robin,
        # so with two workers block 0 runs on the first and block 1 on the
        # second; an error in either must reach the CLI the same way
        real = montecarlo._simulate_block
        monkeypatch.setattr(montecarlo, "_usable_cores", lambda: 2)
        errs = []
        for failing_lo in (0, 64):
            def block(rngs, lo, *args, failing_lo=failing_lo):
                if lo == failing_lo:
                    raise MemoryError("cannot allocate block buffers")
                real(rngs, lo, *args)

            monkeypatch.setattr(montecarlo, "_simulate_block", block)
            out_dir = tmp_path / str(failing_lo)
            code = main(["verify-theorem", "--chi", "0", "--T", "2", "--times", "1",
                         "--n-paths", "1000", "--out", str(out_dir)])
            assert code == 1
            out, err = capsys.readouterr()
            assert out == ""
            assert not (out_dir / "theorem2.json").exists()
            errs.append(err)
        assert errs[0] == errs[1] == "error: cannot allocate block buffers\n"

    def test_error_without_message_prints_its_type(self, tmp_path, capsys, monkeypatch):
        # an allocation failure deep in numpy raises a bare MemoryError()
        from polymer_lab import cli

        def handler(cfg):
            raise MemoryError()

        monkeypatch.setitem(cli._DISPATCH, "spectral", handler)
        code = main(["spectral", "--out", str(tmp_path)])
        assert code == 1
        out, err = capsys.readouterr()
        assert out == ""
        assert err == "error: MemoryError\n"


def _reject_constant(name):
    raise ValueError(f"non-finite JSON constant {name}")


class TestReportFiles:
    """Each verify command writes <name>.json and <name>.csv through one writer."""

    @pytest.mark.parametrize("argv,name,header,rows_key,context_key", [
        (["verify-prop3", "--chi", "1", "--T", "9,25"], "prop3", "T,error", "rows", "meta"),
        (["verify-poten", "--gamma", "0.5"], "poten", "eps,error", "rows", "meta"),
        (["verify-theorem", "--chi", "2", "--T", "4,9", "--n-paths", "2000", "--seed", "3"],
         "theorem2", "T,t,ks", "table", "notes"),
        (["verify-prop2", "--chi", "1", "--T", "4,9", "--n-paths", "2000", "--seed", "3"],
         "prop2", "T,estimate,reference,rel_gap,se", "rows", "notes"),
    ], ids=["prop3", "poten", "theorem", "prop2"])
    def test_json_and_csv(self, tmp_path, capsys, argv, name, header, rows_key, context_key):
        main(argv + ["--out", str(tmp_path)])
        manifest = json.loads((tmp_path / "manifest.json").read_text())
        assert manifest["outputs"] == [f"{name}.json", f"{name}.csv"]
        payload = json.loads((tmp_path / f"{name}.json").read_text(),
                             parse_constant=_reject_constant)
        assert payload[context_key]
        raw = (tmp_path / f"{name}.csv").read_bytes()
        lines = raw.decode().split("\r\n")
        assert lines[0] == header and lines[-1] == ""
        rows = [[float(x) for x in line.split(",")] for line in lines[1:-1]]
        assert rows == payload[rows_key]

    def test_format_flag_is_gone(self, tmp_path, capsys):
        assert main(["kernel", "--format", "json", "--out", str(tmp_path)]) == 1
        assert "usage error" in capsys.readouterr().err
        assert not (tmp_path / "manifest.json").exists()


class TestUsage:
    def test_unknown_command(self, capsys):
        assert main(["frobnicate"]) == 1
        assert "usage error" in capsys.readouterr().err

    def test_malformed_list(self, capsys):
        assert main(["verify-prop3", "--T", "9;25"]) == 1
        assert "comma-separated" in capsys.readouterr().err

    @pytest.mark.parametrize("argv", [
        ["kernel", "--gamma", "-1e-3"],
        ["kernel", "--gamma", "-.5E1", "--rho", "2"],
        ["kernel", "--gamma", "-inf"],
        ["verify-prop1", "--chi", "-1e300", "--T", "4,9"],
        ["marginal", "--times", "-1e-3,1"],
    ], ids=["exponent", "point-first", "inf", "prop1-huge", "list"])
    def test_negative_numbers_read_as_after_equals(self, tmp_path, capsys, argv):
        joined = argv[:1] + [f"{flag}={value}" for flag, value in zip(argv[1::2], argv[2::2])]
        runs = []
        for name, args in (("spaced", argv), ("joined", joined)):
            code = main(args + ["--out", str(tmp_path / name)])
            files = {p.name: p.read_bytes() for p in (tmp_path / name).iterdir()}
            manifest = json.loads(files.pop("manifest.json"))
            del manifest["config"]["out_dir"], manifest["wall_time_s"]
            runs.append((code, capsys.readouterr(), files, manifest))
        assert "usage error" not in runs[0][1].err
        assert runs[0] == runs[1]
        if argv[0] == "kernel" and argv[2] == "-1e-3":
            assert runs[0][0] == 0 and set(runs[0][2]) == {"kernel.json"}

    def test_import_loads_no_scipy(self):
        # a fresh interpreter, as for every command: SciPy is a test
        # dependency only, and the package loads no module of it
        code = (
            "import sys, polymer_lab.cli; "
            "print(sorted(m for m in sys.modules if m.partition('.')[0] == 'scipy'))"
        )
        proc = subprocess.run([sys.executable, "-c", code], capture_output=True,
                              text=True, timeout=120)
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.strip() == "[]"

    def test_every_command_runs_without_scipy(self, tmp_path):
        # every scipy import fails in this interpreter, and each attempt is
        # recorded, so even an import whose failure is caught shows up
        code = _WITHOUT_SCIPY + _EVERY_COMMAND_AND_BENCH_CALL
        proc = subprocess.run([sys.executable, "-c", code, str(tmp_path)],
                              capture_output=True, text=True, timeout=300)
        assert proc.returncode == 0, proc.stderr
        result = json.loads(proc.stdout.splitlines()[-1])
        assert result["codes"] == {
            "spectral": 0, "spectral-well": 0, "kernel": 0, "marginal": 0, "sample": 0,
            "verify-prop1": 0, "verify-prop3": 0, "verify-poten": 0,
            "verify-theorem": 3, "verify-prop2": 3,
        }
        # the same draws and KS distances as in this interpreter
        control = montecarlo.verify_theorem2(unit_ball_potential(), 0.0, (4.0, 9.0),
                                             (0.5, 1.0), n=2000, seed=1,
                                             beta_override=0.4, model="wiener")
        assert result["control_table"] == [list(row) for row in control.table]
        assert result["blocked"] == [] and result["scipy_modules"] == []

    def test_module_is_runnable(self, tmp_path):
        proc = subprocess.run(
            [sys.executable, "-m", "polymer_lab.cli", "kernel", "--out", str(tmp_path)],
            capture_output=True, text=True, timeout=120,
        )
        assert proc.returncode == 0
        assert (tmp_path / "manifest.json").exists()


_WITHOUT_SCIPY = """
import sys

blocked = []


class _BlockSciPy:
    def find_spec(self, name, path=None, target=None):
        if name.partition(".")[0] == "scipy":
            blocked.append(name)
            raise ImportError(f"{name} is blocked")
        return None


sys.meta_path.insert(0, _BlockSciPy())
"""

# the nine commands (spectral also on a CSV well) and the library calls the
# bench makes, then a report of what happened as one JSON line
_EVERY_COMMAND_AND_BENCH_CALL = """
import json, os

import numpy as np

from polymer_lab import cli, laplace, montecarlo, spectral, zerorange
from polymer_lab.potentials import unit_ball_potential

out = sys.argv[1]
well = os.path.join(out, "well.csv")
with open(well, "w") as fh:
    fh.write("r,v\\n0.0,3.0\\n0.2,1.5\\n0.5,0.0\\n")
with open(well + ".json", "w") as fh:
    fh.write('{"r_support": 0.7}')
runs = {
    "spectral": ["spectral"],
    "spectral-well": ["spectral", "--potential", well],
    "kernel": ["kernel"],
    "marginal": ["marginal", "--gamma", "37.6"],
    "sample": ["sample", "--steps", "16", "--n-paths", "500"],
    "verify-prop1": ["verify-prop1", "--chi", "1"],
    "verify-prop3": ["verify-prop3", "--chi", "1"],
    "verify-poten": ["verify-poten"],
    "verify-theorem": ["verify-theorem", "--chi", "2", "--T", "9,25", "--n-paths", "2000"],
    "verify-prop2": ["verify-prop2", "--chi", "1", "--T", "9,25", "--times", "1",
                     "--n-paths", "1000"],
}
codes = {name: cli.main(argv + ["--out", os.path.join(out, name)])
         for name, argv in runs.items()}

ball = unit_ball_potential()
beta_cr = spectral.critical_beta(ball)
spectral.gamma1_via_expansion(ball, beta_cr=beta_cr)
spectral.principal_eigenvalue(ball, beta_cr + 0.01)
control = montecarlo.verify_theorem2(ball, 0.0, (4.0, 9.0), (0.5, 1.0), n=2000, seed=1,
                                     beta_override=0.4, model="wiener")
p = zerorange.ZeroRangeParams(0.5)
x, y = np.array([0.3, 0.4, 0.0]), np.array([-0.2, 0.1, 0.9])
laplace.kernel_integral(0.5, 1.2, 0.7)
laplace.kernel_closed_form(0.5, 1.2, 0.7)
laplace.zbar_correction(0.5, 1.2, 0.7)
zerorange.pbar(p, 0.4, x, y)
zerorange.zbar(p, 0.4, x)
zerorange.fdd_density(p, 0.9, x, np.array([0.2, 0.5]), [y, x])
zerorange.transition_R(p, 0.2, 0.6, y, x)
zerorange.marginal_radial(p, 0.5).cdf()

print(json.dumps({
    "codes": codes,
    "control_table": control.table,
    "blocked": blocked,
    "scipy_modules": sorted(m for m in sys.modules if m.partition(".")[0] == "scipy"),
}))
"""


def _plain(x):
    """x with every array replaced by its tolist(), as json.dumps needs it."""
    if isinstance(x, np.ndarray):
        return x.tolist()
    if isinstance(x, dict):
        return {k: _plain(v) for k, v in x.items()}
    if isinstance(x, (list, tuple)):
        return [_plain(v) for v in x]
    return x


def _emit(x) -> str:
    """The text _write_json writes for x, without its closing newline."""
    with tempfile.TemporaryDirectory() as d:
        path = Path(d, "out.json")
        _write_json(str(path), x)
        text = path.read_text()
    assert text.endswith("\n")
    return text[:-1]


_FLOATS = st.floats(width=64)
_FLOAT_ARRAYS = st.one_of(
    hnp.arrays(np.float64, hnp.array_shapes(min_dims=1, max_dims=2, min_side=0),
               elements=st.floats(allow_nan=False, allow_infinity=False)),
    hnp.arrays(np.float64, st.tuples(st.integers(0, 6), st.just(2)),
               elements=st.floats(allow_nan=False, allow_infinity=False)),
    hnp.arrays(np.float64, hnp.array_shapes(min_dims=1, max_dims=2, min_side=0), elements=_FLOATS),
)
_KEYS = st.one_of(st.text(), st.integers(), _FLOATS, st.booleans(), st.none())
_JSON = st.recursive(
    st.one_of(st.text(), st.integers(), st.booleans(), st.none(), _FLOATS, _FLOAT_ARRAYS),
    lambda children: st.one_of(
        st.lists(children, max_size=4),
        st.lists(children, max_size=4).map(tuple),
        st.dictionaries(_KEYS, children, max_size=4),
        st.dictionaries(st.text(), children, max_size=4),
    ),
    max_leaves=20,
)


class TestJsonWriter:
    """The CLI's JSON text is json.dump(indent=2)'s, byte for byte."""

    @given(_JSON)
    @example({"psi": np.array([[0.0, -0.0], [5e-324, 1e300]]), "t": float("nan"),
              float("inf"): [-math.inf, "\x00\u00e9\u2028\U0001f600"], True: None, 3: ()})
    def test_matches_json_dumps(self, x):
        assert _emit(x) == json.dumps(_plain(x), indent=2)

    @pytest.mark.parametrize("shape", [(2 * _TABLE_ROWS + 3,), (2 * _TABLE_ROWS + 3, 2),
                                       (_TABLE_ROWS, 3), (_TABLE_ROWS + 1, 1)])
    def test_tables_longer_than_a_block(self, shape):
        scales = np.logspace(-300, 300, shape[0]).reshape((-1,) + (1,) * (len(shape) - 1))
        table = np.random.default_rng(7).standard_normal(shape) * scales
        x = {"table": table, "after": [table[:3]]}
        assert _emit(x) == json.dumps(_plain(x), indent=2)

    @pytest.mark.parametrize("bad", [
        {1, 2}, np.int64(3), np.float32(0.5), object(), np.array([1, 2]),
        np.zeros((2, 2, 2)), np.array(1.0),
    ], ids=["set", "int64", "float32", "object", "int-array", "3-d", "0-d"])
    def test_rejects_what_json_rejects(self, bad):
        for payload in ([1.0, bad], {"k": bad}):
            with pytest.raises(TypeError) as want:
                json.dumps(payload, indent=2)
            with pytest.raises(TypeError, match=re.escape(str(want.value))):
                _emit(payload)

    @pytest.mark.parametrize("key", [np.int64(3), np.float32(0.5), object(), (1, 2)],
                             ids=["int64", "float32", "object", "tuple"])
    def test_rejects_keys_json_rejects(self, key):
        with pytest.raises(TypeError) as want:
            json.dumps({key: 1}, indent=2)
        with pytest.raises(TypeError, match=re.escape(str(want.value))):
            _emit({key: 1})

    def test_float_tables_take_the_table_writer(self, tmp_path, capsys, monkeypatch):
        shapes = []
        table = cli._json_table

        def counted(a, level, write):
            shapes.append(a.shape)
            table(a, level, write)

        monkeypatch.setattr(cli, "_json_table", counted)
        assert main(["spectral", "--out", str(tmp_path / "s")]) == 0
        assert main(["marginal", "--times", "1", "--out", str(tmp_path / "m")]) == 0
        assert shapes == [(8193, 2), (2048,), (2048,)]

    def test_every_command_writes_json_dumps_text(self, tmp_path, capsys):
        well = tmp_path / "well.csv"
        well.write_text("r,v\n0.0,3.0\n0.2,1.5\n0.5,0.0\n")
        (tmp_path / "well.csv.json").write_text(json.dumps({"r_support": 0.7}))
        runs = {
            "spectral_ball": ["spectral"],
            "spectral_well": ["spectral", "--potential", str(well)],
            "kernel": ["kernel", "--gamma", "1.3", "--rho", "0.7", "--t", "0.4"],
            "marginal": ["marginal", "--gamma", "37.6"],
            "prop1": ["verify-prop1", "--chi", "1", "--T", "4,9"],
            "prop3": ["verify-prop3", "--chi", "1", "--T", "4,9"],
            "poten": ["verify-poten", "--gamma", "0.5"],
            "theorem": ["verify-theorem", "--chi", "2", "--T", "1,4", "--n-paths", "1000"],
            "prop2": ["verify-prop2", "--chi", "1", "--T", "1,4", "--n-paths", "1000"],
            "sample": ["sample", "--steps", "4", "--n-paths", "50"],
        }
        for name, argv in runs.items():
            out = tmp_path / name
            assert main(argv + ["--seed", "3", "--out", str(out)]) in (0, 2, 3), name
            written = sorted(out.glob("*.json"))
            assert "manifest.json" in [p.name for p in written]
            assert len(written) > 1 or name == "sample"
            for path in written:
                text = path.read_text()
                assert text == json.dumps(json.loads(text), indent=2) + "\n", path


def _repr_csv(rows, index=False) -> bytes:
    """The CSV text of rows under a one-cell header, from repr() itself."""
    lines = ["x"] + [(f"{i}," if index else "") + ",".join(map(repr, row))
                     for i, row in enumerate(np.asarray(rows, dtype=float).tolist())]
    return "".join(line + "\r\n" for line in lines).encode()


def _written_csv(rows, index=False) -> bytes:
    with tempfile.TemporaryDirectory() as d:
        path = Path(d, "out.csv")
        cli._write_csv(str(path), ("x",), rows, index=index)
        return path.read_bytes()


def _tiled(values, ncols: int) -> np.ndarray:
    """All of values, repeated into a table of ncols columns that takes the vectorized route."""
    rows = max(len(values), cli._VECTOR_MIN) // ncols + 1
    return np.resize(np.asarray(values, dtype=float), (rows, ncols))


def _float_families() -> dict:
    rng = np.random.default_rng(2024)
    exps = rng.integers(-4, 16, 400).tolist()

    def ties(digits):
        # a decimal of digits + 1 significant digits ending in 5, between two
        # digits-digit roundings, read to the nearest double
        heads = rng.integers(10 ** (digits - 1), 10 ** digits, 400).tolist()
        return [float(f"{h}5e{x - digits}") for h, x in zip(heads, exps)]

    edges = [b + j * np.spacing(b) for b in (1e-4, 1e16) for j in range(-40, 41)]
    integers = np.concatenate([rng.integers(0, 2**53, 400), 2**53 - np.arange(100),
                               np.arange(-1000, 1000)]).astype(float)
    subnormals = np.concatenate([rng.integers(1, 2**52, 400).view(np.float64),
                                 [5e-324, 2.2250738585072014e-308,
                                  np.nextafter(2.2250738585072014e-308, 0.0)]])
    families = {
        "edges": edges,
        "powers-of-two": 2.0 ** np.arange(-1074, 1024),
        "ties-15": ties(15),
        "ties-16": ties(16),
        "ties-17": ties(17),
        "integers": integers,
        "subnormals": subnormals,
        "specials": [0.0, -0.0, math.nan, math.inf, -math.inf],
    }
    return {name: np.concatenate([values, np.negative(values)])
            for name, values in families.items()}


_FAMILIES = _float_families()


class TestTableWriter:
    """Every float table the CLI writes holds repr()'s bytes."""

    @given(_FLOATS)
    @example(0.1)
    @example(-0.0)
    @example(9999999999999998.0)
    @example(1e-4)
    @example(math.nan)
    def test_single_values_are_repr(self, x):
        rows = _tiled([x], 1)
        assert _written_csv(rows) == _repr_csv(rows)

    @given(hnp.arrays(np.float64, st.tuples(st.integers(1, 30), st.integers(1, 9)),
                      elements=_FLOATS), st.booleans())
    def test_tables_are_repr(self, table, index):
        rows = np.tile(table, (cli._VECTOR_MIN // table.size + 1, 1))
        assert _written_csv(rows, index) == _repr_csv(rows, index)

    @pytest.mark.parametrize("family", sorted(_FAMILIES))
    @pytest.mark.parametrize("ncols", [1, 7])
    def test_families(self, family, ncols):
        rows = _tiled(_FAMILIES[family], ncols)
        assert _written_csv(rows, index=True) == _repr_csv(rows, index=True)
        finite = rows[np.isfinite(rows).all(axis=1)]
        x = {"table": finite, "column": finite[:, 0]}
        assert _emit(x) == json.dumps(_plain(x), indent=2)

    @pytest.mark.parametrize("offset", [-1, 0, 1])
    def test_size_crossover(self, monkeypatch, offset):
        n = cli._VECTOR_MIN + offset
        blocks = []
        format_block = cli._format_block

        def counted(v, *args):
            blocks.append(len(v))
            return format_block(v, *args)

        monkeypatch.setattr(cli, "_format_block", counted)
        rng = np.random.default_rng(n)
        rows = (rng.standard_normal(n) * 10.0 ** rng.integers(-6, 18, n)).reshape(-1, 1)
        assert _written_csv(rows, index=True) == _repr_csv(rows, index=True)
        assert blocks == ([] if n < cli._VECTOR_MIN else [n])

    def test_files_keep_their_bytes(self, tmp_path, capsys):
        # digests of what the writer that called repr() once a number wrote
        well = tmp_path / "well.csv"
        well.write_text("r,v\n0.0,3.0\n0.2,1.5\n0.5,0.0\n")
        (tmp_path / "well.csv.json").write_text(json.dumps({"r_support": 0.7}))
        runs = {
            "sample/paths.csv": (["sample", "--steps", "64", "--n-paths", "2000", "--seed", "1"],
                                 "00f853bb43174360c5d147264a070abffde32f602e259030389cd4f3fb943301"),
            "ball/spectral.json": (["spectral"],
                                   "3a1983df22828605a36b7d7bb70db60a0c4fe6b434cb4d1c5ab7d525d223e22d"),
            "well/spectral.json": (["spectral", "--potential", str(well)],
                                   "07b8fd82b95b86f680a6613d6e0532ae68c9c707c7b184ce16b0633406a93840"),
        }
        for name, (argv, digest) in runs.items():
            out = tmp_path / name.partition("/")[0]
            assert main(argv + ["--out", str(out)]) == 0
            assert hashlib.sha256((tmp_path / name).read_bytes()).hexdigest() == digest, name
