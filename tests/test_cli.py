"""End-to-end command-line checks run through subprocess."""

import json
import math
import os
import subprocess
import sys
from pathlib import Path

import pytest

import tubeflux

CLI = [sys.executable, "-m", "tubeflux.cli"]
# the child interpreters import the same tubeflux as this one
SRC = str(Path(tubeflux.__file__).resolve().parent.parent)
ENV = {**os.environ,
       "PYTHONPATH": os.pathsep.join(filter(None, [SRC, os.environ.get("PYTHONPATH")]))}


def run(*args, cwd=None):
    return subprocess.run(
        CLI + [str(a) for a in args], capture_output=True, text=True, cwd=cwd, env=ENV
    )


def test_cli_import_leaves_scipy_optimize_unloaded():
    # only calibration needs brentq; analyze and modulus should not pay for it
    code = "import sys, tubeflux.cli; print('scipy.optimize' in sys.modules)"
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True,
                          text=True, env=ENV)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "False"


def write_config(tmp_path, name="config.json", **fields):
    path = tmp_path / name
    path.write_text(json.dumps(fields))
    return path


class TestAnalyze:
    def test_catenoid_report(self, tmp_path):
        cfg = write_config(tmp_path, R=2.0, g="z", c=1.0)
        proc = run("analyze", cfg)
        assert proc.returncode == 0, proc.stderr
        report = json.loads(proc.stdout)
        assert report["verdict"] == "tube"
        assert report["closed"] is True
        assert report["univalent"] == "passed"
        assert report["omits_zero"] == "passed"
        assert report["Q"][0] == 0 and report["Q"][1] == 0
        assert report["Q"][2] == pytest.approx(2.0 * math.pi, rel=1e-11)
        assert report["alpha"] == 0
        assert report["tan_alpha"] == 0
        assert report["bound"] == "inf"
        assert report["margin"] == "inf"
        assert report["satisfied"] is True
        assert report["hypothesis"] == "ok"
        assert report["life"][0] == pytest.approx(-math.log(2.0), rel=1e-9)
        assert report["lifetime"]["measured"] == pytest.approx(2.0 * math.log(2.0), rel=1e-9)
        assert report["config"] == {"R": 2.0, "g": "z", "c": 1.0}

    def test_reports_are_byte_identical(self, tmp_path):
        cfg = write_config(tmp_path, R=2.0, g="z + 0.1/z", c=1.5)
        out1, out2 = tmp_path / "r1.json", tmp_path / "r2.json"
        assert run("analyze", cfg, "--out", out1).returncode == 0
        assert run("analyze", cfg, "--out", out2).returncode == 0
        assert out1.read_bytes() == out2.read_bytes()

    def test_file_output_matches_stdout(self, tmp_path):
        cfg = write_config(tmp_path, R=2.0, g="z", c=1.0)
        streamed = run("analyze", cfg).stdout
        out = tmp_path / "report.json"
        run("analyze", cfg, "--out", out)
        assert out.read_text() == streamed

    def test_sections_are_emitted(self, tmp_path):
        cfg = write_config(tmp_path, R=2.0, g="z", c=1.0)
        proc = run("analyze", cfg, "--sections", "0.0,0.25")
        assert proc.returncode == 0
        report = json.loads(proc.stdout)
        assert set(report["sections"]) == {"0", "0.25"}
        ring = report["sections"]["0.25"]
        assert len(ring) == 257
        assert ring[0] == ring[-1]
        heights = {round(p[2], 9) for p in ring}
        assert heights == {0.25}

    def test_sections_starting_negative_need_equals_form(self, tmp_path):
        cfg = write_config(tmp_path, R=2.0, g="z", c=1.0)
        proc = run("analyze", cfg, "--sections=-0.3,0.2")
        assert proc.returncode == 0, proc.stderr
        assert set(json.loads(proc.stdout)["sections"]) == {"-0.3", "0.2"}

    def test_section_outside_life_interval_fails(self, tmp_path):
        cfg = write_config(tmp_path, R=2.0, g="z", c=1.0)
        proc = run("analyze", cfg, "--sections", "1.0")
        assert proc.returncode == 1
        assert "outside the open life interval" in proc.stderr

    def test_malformed_sections_argument(self, tmp_path):
        cfg = write_config(tmp_path, R=2.0, g="z", c=1.0)
        proc = run("analyze", cfg, "--sections", "a,b")
        assert proc.returncode == 1
        assert "comma-separated" in proc.stderr

    def test_open_seam_reports_not_a_tube(self, tmp_path):
        cfg = write_config(tmp_path, R=2.0, g="z + 2", c=1.0)
        proc = run("analyze", cfg)
        assert proc.returncode == 2
        report = json.loads(proc.stdout)
        assert report["verdict"] == "not a tube"
        assert report["defect"][0] == pytest.approx(0.0, abs=1e-9)
        assert report["defect"][1] == pytest.approx(-7.853982, abs=1e-6)
        assert report["defect"][2] == pytest.approx(0.0, abs=1e-9)

    def test_folded_cover_exits_with_hypothesis_failure(self, tmp_path):
        cfg = write_config(tmp_path, R=2.0, g="z^2", c=1.0)
        proc = run("analyze", cfg)
        assert proc.returncode == 2
        report = json.loads(proc.stdout)
        assert report["closed"] is True
        assert report["hypothesis"] == "univalence violated"
        assert report["verdict"] == "not a tube"

    def test_explicit_quadrature_size(self, tmp_path):
        cfg = write_config(tmp_path, R=2.0, g="z", c=1.0, N=64)
        assert run("analyze", cfg).returncode == 0


class TestAnalyzeValidation:
    def test_malformed_json_reports_position(self, tmp_path):
        path = tmp_path / "broken.json"
        path.write_text('{"R": 2.0, "g": ')
        proc = run("analyze", path)
        assert proc.returncode == 1
        assert "malformed JSON" in proc.stderr
        assert "line 1" in proc.stderr

    def test_missing_file(self, tmp_path):
        proc = run("analyze", tmp_path / "nope.json")
        assert proc.returncode == 1
        assert "cannot read" in proc.stderr

    @pytest.mark.parametrize(
        "fields",
        [
            {"g": "z", "c": 1.0},  # R missing
            {"R": 1.0, "g": "z", "c": 1.0},  # R too small
            {"R": 2.0, "c": 1.0},  # g missing
            {"R": 2.0, "g": "z"},  # neither f nor c
            {"R": 2.0, "g": "z", "c": 1.0, "f": "1"},  # both f and c
            {"R": 2.0, "g": "z", "c": 1.0, "mode": "fast"},  # unknown field
            {"R": 2.0, "g": "z", "c": 1.0, "N": 7},  # N too small
            {"R": 2.0, "g": "z", "c": 1.0, "N": 8},  # N below quadrature's 16
            {"R": 2.0, "g": "z", "c": 1.0, "N": 17},  # N odd
            {"R": 2.0, "g": "z", "c": 1.0, "N": True},  # N not an int
        ],
    )
    def test_schema_violations(self, tmp_path, fields):
        cfg = write_config(tmp_path, **fields)
        proc = run("analyze", cfg)
        assert proc.returncode == 1
        assert "config error" in proc.stderr

    def test_unparseable_gauss_map(self, tmp_path):
        cfg = write_config(tmp_path, R=2.0, g="w + 1", c=1.0)
        proc = run("analyze", cfg)
        assert proc.returncode == 1
        assert "bad expression" in proc.stderr


class TestSweepBound:
    def test_single_row_matches_closed_forms(self, tmp_path):
        out = tmp_path / "bound.csv"
        proc = run("sweep", "bound", "--lambda-min", 1.0, "--lambda-max", 1.0,
                   "--steps", 1, "--out", out)
        assert proc.returncode == 0, proc.stderr
        header, row = out.read_text().splitlines()
        assert header == "lambda,lnR0,modD"
        lam, lnR0, modD = row.split(",")
        assert lam == "1"
        assert lnR0 == format(math.pi**2 / math.asinh(1.0), ".12g")
        assert modD == format(math.pi / math.asinh(1.0), ".12g")

    def test_degenerate_slit_row_is_pi(self, tmp_path):
        out = tmp_path / "bound.csv"
        lam = math.sinh(math.pi)
        proc = run("sweep", "bound", "--lambda-min", lam, "--lambda-max", lam,
                   "--steps", 1, "--out", out)
        assert proc.returncode == 0
        row = out.read_text().splitlines()[1]
        assert row.split(",")[1] == format(math.pi, ".12g")

    def test_grid_validation(self, tmp_path):
        out = tmp_path / "bound.csv"
        assert run("sweep", "bound", "--lambda-min", 1, "--lambda-max", 2,
                   "--steps", 0, "--out", out).returncode == 1
        assert run("sweep", "bound", "--lambda-min", 0, "--lambda-max", 2,
                   "--steps", 2, "--out", out).returncode == 1
        assert run("sweep", "bound", "--lambda-min", 3, "--lambda-max", 2,
                   "--steps", 2, "--out", out).returncode == 1


class TestSweepConjecture:
    def test_small_sweep(self, tmp_path):
        out = tmp_path / "sweep.csv"
        proc = run("sweep", "conjecture", "--q-min", 0.1, "--q-max", 0.3,
                   "--steps", 3, "--out", out)
        assert proc.returncode == 0, proc.stderr
        lines = out.read_text().splitlines()
        assert lines[0] == "q,R,lambda,lnR,lnR0,ratio"
        assert len(lines) == 4
        for line in lines[1:]:
            q, R, lam, lnR, lnR0, ratio = map(float, line.split(","))
            assert 0.0 < ratio < 1.0
            assert R == pytest.approx(q**-0.5, rel=1e-11)
        assert not (tmp_path / "sweep.csv.errors.log").exists()

    def test_sweep_is_byte_identical(self, tmp_path):
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        for out in (a, b):
            assert run("sweep", "conjecture", "--q-min", 0.15, "--q-max", 0.45,
                       "--steps", 2, "--out", out).returncode == 0
        assert a.read_bytes() == b.read_bytes()

    def test_grid_validation(self, tmp_path):
        out = tmp_path / "sweep.csv"
        proc = run("sweep", "conjecture", "--q-min", 0.01, "--q-max", 0.3,
                   "--steps", 2, "--out", out)
        assert proc.returncode == 1
        assert "0.02" in proc.stderr
        assert run("sweep", "conjecture", "--q-min", 0.1, "--q-max", 0.96,
                   "--steps", 2, "--out", out).returncode == 1


class TestModulus:
    def test_square_conductor(self, tmp_path):
        dom = tmp_path / "dom.json"
        dom.write_text(json.dumps({"kind": "box_conductor", "width": 1.0, "height": 1.0}))
        proc = run("modulus", "--domain", dom, "--h", 0.1)
        assert proc.returncode == 0, proc.stderr
        report = json.loads(proc.stdout)
        assert set(report) == {"domain", "h", "module", "indicator",
                               "truncation_sensitivity", "dof", "exact"}
        assert report["module"] == pytest.approx(1.0, abs=1e-9)
        assert report["exact"] == 1
        assert report["domain"]["kind"] == "box_conductor"

    def test_round_ring(self, tmp_path):
        dom = tmp_path / "dom.json"
        dom.write_text(json.dumps({"kind": "annulus", "ratio": math.e}))
        proc = run("modulus", "--domain", dom, "--h", 0.2)
        assert proc.returncode == 0
        report = json.loads(proc.stdout)
        assert report["module"] == pytest.approx(2.0 * math.pi, rel=0.01)
        assert report["exact"] == pytest.approx(2.0 * math.pi, rel=1e-12)

    def test_domain_validation(self, tmp_path):
        dom = tmp_path / "dom.json"
        dom.write_text(json.dumps({"kind": "annulus", "ratio": 0.5}))
        proc = run("modulus", "--domain", dom, "--h", 0.1)
        assert proc.returncode == 1
        assert "domain error" in proc.stderr

    def test_step_validation(self, tmp_path):
        dom = tmp_path / "dom.json"
        dom.write_text(json.dumps({"kind": "box_conductor", "width": 1.0, "height": 1.0}))
        proc = run("modulus", "--domain", dom, "--h", -0.1)
        assert proc.returncode == 1
        assert "--h must be positive" in proc.stderr

    def test_malformed_domain_file(self, tmp_path):
        dom = tmp_path / "dom.json"
        dom.write_text("{oops")
        assert run("modulus", "--domain", dom, "--h", 0.1).returncode == 1

    def test_oversized_grid_fails_cleanly(self, tmp_path):
        dom = tmp_path / "dom.json"
        dom.write_text(json.dumps({"kind": "annulus", "ratio": 535.0}))
        proc = run("modulus", "--domain", dom, "--h", 0.1)
        assert proc.returncode == 1
        assert "estimate failed" in proc.stderr
        assert "coarsen h" in proc.stderr


class TestUsage:
    def test_no_arguments(self):
        assert run().returncode == 1

    def test_unknown_command(self):
        assert run("frobnicate").returncode == 1

    def test_sweep_requires_a_kind(self):
        assert run("sweep").returncode == 1
