"""End-to-end command-line checks.

They call ``cli.main`` in this interpreter with its streams captured.  A
child interpreter runs the command only where the process itself is tested:
the modules it loads, byte identity from run to run, and the exit status of
``python -m tubeflux.cli``.
"""

import ast
import contextlib
import io
import json
import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import tubeflux
from tubeflux import cli, slitmap

CLI = [sys.executable, "-m", "tubeflux.cli"]
# the child interpreters import the same tubeflux as this one
SRC = str(Path(tubeflux.__file__).resolve().parent.parent)
ENV = {**os.environ,
       "PYTHONPATH": os.pathsep.join(filter(None, [SRC, os.environ.get("PYTHONPATH")]))}


def run(*args):
    """The command in this interpreter; argparse's SystemExit gives the code."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = cli.main([str(a) for a in args])
        except SystemExit as exc:
            code = exc.code
    return subprocess.CompletedProcess(args, code, out.getvalue(), err.getvalue())


def run_process(*args):
    """The command in a child interpreter, through ``python -m tubeflux.cli``."""
    return subprocess.run(
        CLI + [str(a) for a in args], capture_output=True, text=True, env=ENV
    )


def test_cli_import_leaves_scipy_optimize_unloaded(tmp_path):
    # calibration takes the slit level in closed form, so nothing needs
    # scipy.optimize; the grid network needs no labelling, so nothing needs
    # scipy.ndimage.  scipy.sparse is imported by the grid solve alone: the
    # import, analyze and both sweeps leave it unloaded, and modulus loads it.
    cfg = write_config(tmp_path, R=2.0, g="z", c=1.0)
    dom = tmp_path / "dom.json"
    dom.write_text(json.dumps({"kind": "box_conductor", "width": 1.0, "height": 1.0}))
    commands = [
        ["analyze", cfg],
        ["sweep", "bound", "--lambda-min", 0.5, "--lambda-max", 1.0, "--steps", 2,
         "--out", tmp_path / "bound.csv"],
        ["sweep", "conjecture", "--q-min", 0.1, "--q-max", 0.1, "--steps", 1,
         "--out", tmp_path / "conjecture.csv"],
        ["modulus", "--domain", dom, "--h", 0.1],
    ]
    code = ("import contextlib, io, sys\n"
            "from tubeflux import cli\n"
            "def loaded():\n"
            "    print(sorted(m for m in ('scipy.optimize', 'scipy.ndimage', 'scipy.sparse')\n"
            "                 if m in sys.modules))\n"
            "loaded()\n"
            f"for argv in {[[str(a) for a in c] for c in commands]!r}:\n"
            "    with contextlib.redirect_stdout(io.StringIO()):\n"
            "        assert cli.main(argv) == 0, argv\n"
            "    loaded()")
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True,
                          text=True, env=ENV)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.split() == ["[]"] * 4 + ["['scipy.sparse']"]


def test_only_main_returns_the_refusal_code():
    # a command refuses by raising; main alone prints the line and returns 1
    tree = ast.parse(Path(cli.__file__).read_text())
    returning_one = sorted(
        fn.name for fn in ast.walk(tree)
        if isinstance(fn, (ast.FunctionDef, ast.AsyncFunctionDef))
        for node in ast.walk(fn)
        if isinstance(node, ast.Return) and isinstance(node.value, ast.Constant)
        and type(node.value.value) is int and node.value.value == 1)
    assert returning_one == ["main"]


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
        assert run_process("analyze", cfg, "--out", out1).returncode == 0
        assert run_process("analyze", cfg, "--out", out2).returncode == 0
        assert out1.read_bytes() == out2.read_bytes()

    def test_report_into_a_missing_directory(self, tmp_path):
        cfg = write_config(tmp_path, R=2.0, g="z", c=1.0)
        out = tmp_path / "missing" / "report.json"
        proc = run("analyze", cfg, "--out", out)
        assert proc.returncode == 1
        assert proc.stdout == ""
        assert proc.stderr.startswith(f"tubeflux: cannot write {out}: ")
        assert proc.stderr.count("\n") == 1

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

    def test_diverged_newton_iterates_leave_stderr_empty(self, tmp_path):
        # the witness search's Newton iterates on z^-2 run off towards 1e300;
        # rounding them for the sort overflowed, and numpy's warning reached
        # stderr in a child interpreter
        proc = run_process("analyze", write_config(tmp_path, R=1.5, g="z^-2", c=1))
        assert (proc.returncode, proc.stderr) == (2, "")
        assert json.loads(proc.stdout)["hypothesis"] == "univalence violated"

    def test_pole_hidden_by_a_zero_is_not_a_tube(self, tmp_path):
        # g has a zero at 0.5 and a pole at -2, both inside 1/3 < |z| < 3, so
        # its zero count is 1 - 1 = 0, yet f = c/(2 z g) has a pole at 0.5
        proc = run("analyze", write_config(tmp_path, R=3.0, g="2*(z - 0.5)/(z + 2)", c=1.0))
        assert proc.returncode == 2, proc.stderr
        report = json.loads(proc.stdout)
        assert report["verdict"] == "not a tube"
        assert report["error"].startswith("cannot certify that the Gauss map omits zero")
        assert "g has a pole between the circles" in report["error"]

    def test_explicit_quadrature_size(self, tmp_path):
        cfg = write_config(tmp_path, R=2.0, g="z", c=1.0, N=64)
        assert run("analyze", cfg).returncode == 0

    def test_nearly_vertical_flux_gets_a_finite_bound(self, tmp_path, capsys):
        # |w| ~ 1e-9: both closed forms of the bound must agree there
        cfg = write_config(tmp_path, R=2.0, g="z + 0.000000001", c=1.0)
        assert cli.main(["analyze", str(cfg)]) == 0
        report = json.loads(capsys.readouterr().out)
        assert math.isfinite(report["bound"]) and report["satisfied"] is True


class TestFluxScale:
    """The tube verdict does not depend on the size of the flux constant c."""

    @pytest.mark.parametrize("g, c", [("z", 1e-12), ("z + 0.1/z", 1e160)])
    def test_tube_at_any_scale(self, tmp_path, g, c):
        # c = 1e-12 used to snap J3 to zero ("not a tube"); c = 1e160
        # overflowed the squares of the flux norm
        proc = run("analyze", write_config(tmp_path, R=2.0, g=g, c=c))
        assert proc.returncode == 0, proc.stderr
        report = json.loads(proc.stdout)
        assert (report["verdict"], report["hypothesis"], report["satisfied"]) == \
            ("tube", "ok", True)

    def test_bent_height_profile_at_any_scale(self, tmp_path):
        # the height bends by 1.9e-13 against a half-range |s| ln R of
        # 6.8e-13; under an absolute floor of 1e-7 this passed as a tube
        cfg = write_config(tmp_path, R=2.0, g="z", f="1e-12*(0.5/z^2 + 0.05)")
        proc = run("analyze", cfg)
        assert proc.returncode == 2, proc.stderr
        report = json.loads(proc.stdout)
        assert report["verdict"] == "not a tube"
        assert "deviates from a radial log profile by 1.91e-13" in report["error"]

    def test_downward_flux_is_not_a_tube(self, tmp_path):
        proc = run("analyze", write_config(tmp_path, R=2.0, g="z", f="-0.5/z^2"))
        assert proc.returncode == 2, proc.stderr
        report = json.loads(proc.stdout)
        assert report["verdict"] == "not a tube"
        assert "J3=-6.28319 is not positive" in report["error"]

    @pytest.mark.parametrize("c", [1e-10, 1e-12])
    def test_torn_seam_at_any_scale(self, tmp_path, c):
        # at c = 1e-10 the period defect 1.05e-9 exceeds J3 = 6.3e-10, yet
        # passed under an absolute tolerance floor of 1e-8
        proc = run("analyze", write_config(tmp_path, R=2.0, g="z + 3", c=c))
        assert proc.returncode == 2, proc.stderr
        report = json.loads(proc.stdout)
        assert report["verdict"] == "not a tube"
        assert "period defect" in report["error"]


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
            {"R": 2.0, "g": "z", "c": 1.0, "N": 131072},  # N above MAX_N
            {"R": math.nan, "g": "z", "c": 1.0},
            {"R": math.inf, "g": "z", "c": 1.0},
            {"R": 2.0, "g": "z", "c": 0},
            {"R": 2.0, "g": "z", "c": -1},
            {"R": 2.0, "g": "z", "c": math.nan},
            {"R": 2.0, "g": "z", "c": math.inf},
            {"R": 2.0, "g": "z", "f": 3},  # f not a string
            {"R": 2.0, "g": "z", "c": "1"},  # c not a number
        ],
    )
    def test_schema_violations(self, tmp_path, fields):
        cfg = write_config(tmp_path, **fields)
        proc = run("analyze", cfg)
        assert proc.returncode == 1
        assert proc.stdout == ""
        assert proc.stderr.startswith("tubeflux: config error: ")
        assert proc.stderr.count("\n") == 1

    @pytest.mark.parametrize("text, message", [
        ('{"R": 1e400, "g": "z", "c": 1}',
         "config error: field 'R' must be finite and exceed 1, got inf"),
        ('{"R": 2, "g": "z", "c": 1' + "0" * 400 + "}",
         "config error: field 'c' must be finite and exceed 0"),
        ('{"R": 2, "g": "z", "c": 1' + "0" * 5000 + "}", "malformed JSON in "),
    ], ids=["overflowing float", "integer beyond float", "integer beyond the digit limit"])
    def test_numbers_beyond_float_range_are_refused(self, tmp_path, capsys, text, message):
        cfg = tmp_path / "config.json"
        cfg.write_text(text)
        assert cli.main(["analyze", str(cfg)]) == 1
        err = capsys.readouterr().err
        assert err.startswith(f"tubeflux: {message}") and err.count("\n") == 1

    def test_bytes_that_are_not_utf8_are_refused(self, tmp_path):
        cfg = tmp_path / "config.json"
        cfg.write_bytes(b'\xff\xfe{"R": 2}')
        for proc in (run("analyze", cfg), run_process("analyze", cfg)):
            assert proc.returncode == 1
            assert proc.stdout == ""
            assert proc.stderr.startswith(f"tubeflux: malformed JSON in {cfg}: ")
            assert proc.stderr.count("\n") == 1 and "Traceback" not in proc.stderr

    @pytest.mark.parametrize("g, pos", [("(" * 300 + "z" + ")" * 300, 100),
                                        ("z" + "+0*z" * 1500, 393)],
                             ids=["nested brackets", "long sum"])
    def test_expression_too_deep_is_a_config_error(self, tmp_path, g, pos):
        proc = run("analyze", write_config(tmp_path, R=2, g=g, c=1))
        assert proc.returncode == 1
        assert proc.stdout == ""
        assert proc.stderr == ("tubeflux: config error: bad expression: expression "
                               f"nested deeper than 100 levels (position {pos})\n")

    def test_deepest_parsed_map_is_still_a_tube(self, tmp_path):
        # parsed at depth 100, parse's bound; the tube's trees are 104 deep
        g = "1.3*z - 0.1/z" + "+0*z" * 97
        proc = run("analyze", write_config(tmp_path, R=2, g=g, c=1))
        assert proc.returncode == 0, proc.stderr
        assert json.loads(proc.stdout)["verdict"] == "tube"

    def test_config_root_must_be_an_object(self, tmp_path):
        cfg = tmp_path / "config.json"
        cfg.write_text('[2.0, "z", 1.0]')
        proc = run("analyze", cfg)
        assert proc.returncode == 1
        assert proc.stdout == ""
        assert proc.stderr == "tubeflux: config error: config root must be a JSON object\n"

    def test_unparseable_gauss_map(self, tmp_path):
        cfg = write_config(tmp_path, R=2.0, g="w + 1", c=1.0)
        proc = run("analyze", cfg)
        assert proc.returncode == 1
        assert "bad expression" in proc.stderr

    @pytest.mark.parametrize("f, message", [
        ("1/(z-1)", "division by zero at z=(1+0j)"),
        ("exp(800*z)/z^2", "non-finite integrand at z=(1+0j)"),
    ])
    def test_evaluation_error_is_a_one_line_config_error(self, tmp_path, f, message):
        cfg = write_config(tmp_path, R=2, g="z", f=f)
        proc = run("analyze", cfg)
        assert proc.returncode == 1
        assert proc.stdout == ""
        assert proc.stderr == f"tubeflux: config error: {message}\n"


def fuzz_config(rng, fuzz_expr):
    """An analyze config: R in 1.01..1e3, a random g, then c or a random f
    (texts from the fixture fuzz_expr), and sometimes N."""
    cfg = {"R": float(10.0 ** rng.uniform(math.log10(1.01), 3.0)), "g": fuzz_expr(rng, 5)}
    if rng.random() < 0.5:
        cfg["c"] = float(10.0 ** rng.uniform(-3.0, 3.0))
    else:
        cfg["f"] = fuzz_expr(rng, 5)
    if rng.random() < 0.25:
        cfg["N"] = 2 * int(rng.integers(8, 129))
    return cfg


# e^{i psi} of the metamorphic rotations, and their tolerance relative to |Q|
ROTATION = "(0.6+0.8*i)"
METAMORPHIC_RTOL = 1e-10


def analyze_report(path, cfg):
    """The report of ``analyze`` on cfg, written to path; a tube or a failure
    that prints cfg."""
    path.write_text(json.dumps(cfg))
    proc = run("analyze", path, "--sections", "0.0")
    assert proc.returncode == 0 and proc.stderr == "", (cfg, proc.returncode, proc.stderr)
    return json.loads(proc.stdout)


def assert_rotations_hold(tmp_path, cfg, report):
    """The metamorphic checks on a tube drawn with c.  With f = c/(2zg),
    F1 + iF2 = -2g^2 f and F1 - iF2 = 2f, so g -> e^{i psi} g turns
    J1 + iJ2 by psi and keeps J3, life and bound; g(z) -> g(e^{i phi} z) only
    reparametrizes the ring, keeping Q, life and bound (not for g holding a
    log, whose branch cut the rotation moves).  The drawn tubes are flat
    (J1 = J2 = 0); test_tubes.py::TestRotations holds the turn on tilted
    slit tubes."""
    q = report["Q"]
    tol = METAMORPHIC_RTOL * math.hypot(*q)

    def close(got, want):
        if isinstance(want, str) or isinstance(got, str):  # "inf"
            return got == want
        return all(abs(a - b) <= tol for a, b in zip(np.ravel(got), np.ravel(want)))

    turned = analyze_report(tmp_path / "rotated_g.json", {**cfg, "g": f"{ROTATION}*({cfg['g']})"})
    j12 = complex(*q[:2]) * complex(ROTATION.replace("*i", "j"))
    assert close(turned["Q"], [j12.real, j12.imag, q[2]]), (cfg, turned["Q"], q)
    assert close(turned["life"], report["life"]) and close(turned["bound"], report["bound"]), cfg
    if "log" not in cfg["g"]:
        g = cfg["g"].replace("z", f"({ROTATION}*z)")
        moved = analyze_report(tmp_path / "rotated_z.json", {**cfg, "g": g})
        for key in ("Q", "life", "bound"):
            assert close(moved[key], report[key]), (cfg, key, moved[key], report[key])


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("seed", range(4))
def test_fuzzed_analyze_ends_in_one_line_or_one_report(tmp_path, fuzz_expr, seed):
    # 50 seeded draws a seed from the grammar: each ends in one refusal
    # line (1) or one report whose verdict its exit code names (0, 2); a
    # tube drawn with c also passes the metamorphic rotations
    rng = np.random.default_rng(seed)
    verdicts = {0: "tube", 2: "not a tube"}
    for k in range(50):
        cfg = fuzz_config(rng, fuzz_expr)
        path = tmp_path / f"config{k}.json"
        path.write_text(json.dumps(cfg))
        try:
            proc = run("analyze", path, "--sections", "0.0")
        except Exception as exc:
            pytest.fail(f"{cfg!r} raised {exc!r}")
        if proc.returncode == 1:
            assert proc.stdout == "", cfg
            lines = proc.stderr.splitlines()
            assert len(lines) == 1 and lines[0].startswith("tubeflux: "), (cfg, proc.stderr)
        else:
            assert proc.returncode in verdicts, (cfg, proc.returncode, proc.stderr)
            assert proc.stderr == "", (cfg, proc.stderr)
            report = json.loads(proc.stdout)
            assert report["verdict"] == verdicts[proc.returncode], cfg
            if proc.returncode == 0 and "c" in cfg:
                assert_rotations_hold(tmp_path, cfg, report)


def fuzz_number(rng, lo, hi):
    """A number's text for an option: mostly uniform in lo..hi, sometimes
    +-1e-320..1e320 (0 or inf once parsed at either end), or nan, +-inf
    or +-0."""
    pick = int(rng.integers(6))
    if pick == 0:
        return str(rng.choice(["nan", "inf", "-inf", "0", "-0"]))
    if pick == 1:
        return f"{rng.choice([-1.0, 1.0]) * 10.0 ** rng.uniform(-320.0, 320.0):.3g}"
    return f"{rng.uniform(lo, hi):.6g}"


def fuzz_sweep(rng, out):
    """A sweep command: bound with lambdas about -1..30 or conjecture with
    nomes about -0.2..1.2, and -2..12 steps."""
    kind, name, lo, hi = [("bound", "lambda", -1.0, 30.0),
                          ("conjecture", "q", -0.2, 1.2)][int(rng.integers(2))]
    return ["sweep", kind, f"--{name}-min={fuzz_number(rng, lo, hi)}",
            f"--{name}-max={fuzz_number(rng, lo, hi)}", f"--steps={int(rng.integers(-2, 13))}",
            "--out", out]


# a modulus descriptor's kinds, the fields each reads, and the bounds of
# each field's valid range, the lower one excluded
DESCRIPTOR_FIELDS = {"annulus": {"ratio": (1.0, 10.0)},
                     "box_conductor": {"width": (0.0, 10.0), "height": (0.0, 10.0)},
                     "D": {"lambda": (0.0, 10.0)}}
# values no field accepts besides those at or below its range: JSON's other
# types, non-finite numbers and an integer past float range
BAD_VALUES = [None, True, False, "2.5", [1.0], {"x": 1}, math.nan, math.inf, -math.inf,
              10 ** 400]


def fuzz_modulus(rng):
    """A modulus descriptor and --h, refused before any grid is built: a
    valid descriptor with an h that is not positive and finite, or one
    defect in the descriptor (any h): a root that is no object, no kind, an
    unknown kind, an unknown field or a value its field refuses."""
    kind = str(rng.choice(sorted(DESCRIPTOR_FIELDS)))
    fields = DESCRIPTOR_FIELDS[kind]
    obj = {"kind": kind, **{f: float(rng.uniform(lo + 0.01, hi)) for f, (lo, hi) in fields.items()}}
    h = str(rng.choice(["0.1", "0", "-0.1", "nan", "inf", "-inf"]))
    defect = int(rng.integers(6))
    if defect == 0 and h == "0.1":
        h = "0"
    elif defect == 1:
        obj = [obj] if rng.random() < 0.5 else kind
    elif defect == 2:
        del obj["kind"]
    elif defect == 3:
        obj["kind"] = [None, True, 3, "", "disk", "Annulus", [kind]][int(rng.integers(7))]
    elif defect == 4:
        unread = {"bogus", "Ratio", "h"} | {f for fs in DESCRIPTOR_FIELDS.values() for f in fs}
        obj[str(rng.choice(sorted(unread - set(fields))))] = 1.5
    elif defect == 5:
        field = str(rng.choice(sorted(fields)))
        below = fields[field][0] - float(rng.uniform(0.0, 2.0))
        obj[field] = [below, *BAD_VALUES][int(rng.integers(1 + len(BAD_VALUES)))]
    return obj, h


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("seed", range(4))
def test_fuzzed_sweeps_and_descriptors_end_in_one_line_or_one_table(tmp_path, seed):
    # 50 seeded sweeps and 50 refused modulus descriptors a seed: a sweep
    # writes its table (0) or prints one refusal line (1); a descriptor or
    # step that no grid can be built from prints one refusal line
    rng = np.random.default_rng(seed)
    out, dom = tmp_path / "table.csv", tmp_path / "domain.json"
    for _ in range(50):
        args = fuzz_sweep(rng, out)
        out.unlink(missing_ok=True)
        proc = run(*args)
        assert proc.returncode in (0, 1) and proc.stdout == "", (args, proc)
        if proc.returncode == 0:
            rows = out.read_text().splitlines()
            assert proc.stderr == "" and len(rows) == 1 + int(args[4].split("=")[1]), args
            assert all(len(row.split(",")) == len(rows[0].split(",")) for row in rows), args
        else:
            assert proc.stderr.count("\n") == 1 and proc.stderr.startswith("tubeflux: "), args
            assert not out.exists(), args
        obj, h = fuzz_modulus(rng)
        dom.write_text(json.dumps(obj))
        proc = run("modulus", "--domain", dom, f"--h={h}")
        assert proc.returncode == 1 and proc.stdout == "", (obj, h, proc)
        assert proc.stderr.count("\n") == 1 and proc.stderr.startswith(
            ("tubeflux: domain error: ", "tubeflux: estimate failed: grid spacing")), (obj, h)


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

    def test_table_into_a_missing_directory(self, tmp_path):
        out = tmp_path / "missing" / "bound.csv"
        proc = run("sweep", "bound", "--lambda-min", 1, "--lambda-max", 2,
                   "--steps", 2, "--out", out)
        assert proc.returncode == 1
        assert proc.stderr.startswith(f"tubeflux: cannot write {out}: ")
        assert proc.stderr.count("\n") == 1

    @pytest.mark.parametrize("lo, hi", [(1, "inf"), ("inf", "inf"), (1, "nan"), ("nan", 2)])
    def test_non_finite_range_is_refused(self, tmp_path, lo, hi):
        out = tmp_path / "bound.csv"
        proc = run("sweep", "bound", "--lambda-min", lo, "--lambda-max", hi,
                   "--steps", 3, "--out", out)
        assert proc.returncode == 1
        assert "need 0 < --lambda-min <= --lambda-max < inf" in proc.stderr
        assert not out.exists()


def test_failing_row_propagates_and_writes_no_table(tmp_path, monkeypatch):
    def refusing(q):
        raise ArithmeticError(f"refused at q={q}")

    monkeypatch.setattr(slitmap, "calibrate_candidate", refusing)
    out = tmp_path / "t.csv"
    with pytest.raises(ArithmeticError, match="refused at q=0.25"):
        cli.main(["sweep", "conjecture", "--q-min", "0.25", "--q-max", "0.25",
                  "--steps", "1", "--out", str(out)])
    assert list(tmp_path.iterdir()) == []


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
        assert [p.name for p in tmp_path.iterdir()] == ["sweep.csv"]

    def test_sweep_is_byte_identical(self, tmp_path):
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        for out in (a, b):
            assert run_process("sweep", "conjecture", "--q-min", 0.15, "--q-max", 0.45,
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
        proc = run("sweep", "conjecture", "--q-min", 0.1, "--q-max", 0.3,
                   "--steps", 0, "--out", out)
        assert proc.returncode == 1
        assert "--steps must be at least 1" in proc.stderr
        assert not out.exists()

    def test_nome_range_refusal_is_one_line(self, tmp_path):
        out = tmp_path / "sweep.csv"
        proc = run("sweep", "conjecture", "--q-min", 0.5, "--q-max", 0.95,
                   "--steps", 2, "--out", out)
        assert proc.returncode == 1
        assert proc.stderr == \
            "tubeflux: q=0.95 outside the supported range (0.02, 0.95)\n"
        assert not out.exists()

    @pytest.mark.parametrize("lo, hi", [(0.1, "inf"), ("inf", "inf"), ("nan", 0.3)])
    def test_non_finite_range_is_refused(self, tmp_path, lo, hi):
        out = tmp_path / "sweep.csv"
        proc = run("sweep", "conjecture", "--q-min", lo, "--q-max", hi,
                   "--steps", 3, "--out", out)
        assert proc.returncode == 1
        assert proc.stderr == "tubeflux: need -inf < --q-min <= --q-max < inf\n"
        assert not out.exists()


class TestModulus:
    def test_square_conductor(self, tmp_path):
        dom = tmp_path / "dom.json"
        dom.write_text(json.dumps({"kind": "box_conductor", "width": 1.0, "height": 1.0}))
        proc = run("modulus", "--domain", dom, "--h", 0.1)
        assert proc.returncode == 0, proc.stderr
        report = json.loads(proc.stdout)
        assert set(report) == {"domain", "h", "module", "indicator",
                               "truncation_sensitivity", "dof", "cg_iterations", "exact"}
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

    @pytest.mark.parametrize("text", ['{"kind": "annulus", "ratio": 1e400}',
                                      '{"kind": "box_conductor", "width": 1e400}',
                                      '{"kind": "annulus", "ratio": null}',
                                      '{"kind": "box_conductor", "width": [1]}'])
    def test_non_finite_parameter(self, tmp_path, text):
        dom = tmp_path / "dom.json"
        dom.write_text(text)
        proc = run("modulus", "--domain", dom, "--h", 0.1)
        assert proc.returncode == 1
        assert "domain error" in proc.stderr and "finite" in proc.stderr
        assert "Traceback" not in proc.stderr

    def test_string_parameter_is_refused(self, tmp_path):
        dom = tmp_path / "dom.json"
        dom.write_text('{"kind": "annulus", "ratio": "2.5"}')
        proc = run("modulus", "--domain", dom, "--h", 0.1)
        assert proc.returncode == 1
        assert proc.stderr == ("tubeflux: domain error: annulus descriptor needs a "
                               "finite ratio, got '2.5'\n")

    def test_unknown_field_is_refused(self, tmp_path):
        dom = tmp_path / "dom.json"
        dom.write_text('{"kind": "annulus", "ratio": 2, "bogus": 1}')
        proc = run("modulus", "--domain", dom, "--h", 0.1)
        assert proc.returncode == 1
        assert proc.stderr == ("tubeflux: domain error: annulus descriptor has "
                               "unknown field 'bogus'\n")

    def test_step_validation(self, tmp_path):
        dom = tmp_path / "dom.json"
        dom.write_text(json.dumps({"kind": "box_conductor", "width": 1.0, "height": 1.0}))
        proc = run("modulus", "--domain", dom, "--h", -0.1)
        assert proc.returncode == 1
        assert proc.stderr == ("tubeflux: estimate failed: grid spacing must be "
                               "positive and finite, got h=-0.1\n")
        proc = run("modulus", "--domain", dom, "--h", "inf")
        assert proc.returncode == 1
        assert proc.stderr == ("tubeflux: estimate failed: grid spacing must be "
                               "positive and finite, got h=inf\n")

    def test_malformed_domain_file(self, tmp_path):
        dom = tmp_path / "dom.json"
        dom.write_text("{oops")
        assert run("modulus", "--domain", dom, "--h", 0.1).returncode == 1

    def test_bytes_that_are_not_utf8_are_refused(self, tmp_path):
        dom = tmp_path / "dom.json"
        dom.write_bytes(b'\xff\xfe{"R": 2}')
        proc = run("modulus", "--domain", dom, "--h", 0.1)
        assert proc.returncode == 1
        assert proc.stderr.startswith(f"tubeflux: malformed JSON in {dom}: ")
        assert proc.stderr.count("\n") == 1

    def test_oversized_grid_fails_cleanly(self, tmp_path):
        dom = tmp_path / "dom.json"
        for ratio in (535.0, 1e308):  # 1e308: the grid's span overflows to inf
            dom.write_text(json.dumps({"kind": "annulus", "ratio": ratio}))
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

    def test_module_entry_point_exits_with_the_status(self, tmp_path):
        proc = run_process("analyze", write_config(tmp_path, R=2.0, g="z^2", c=1.0))
        assert proc.returncode == 2, proc.stderr
        assert json.loads(proc.stdout)["hypothesis"] == "univalence violated"
