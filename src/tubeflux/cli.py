"""Batch interface: analyze tube configs, run sweeps, estimate modules.

    tubeflux analyze <config.json> [--sections t1,t2,...] [--out report.json]
    tubeflux sweep bound --lambda-min A --lambda-max B --steps N --out t.csv
    tubeflux sweep conjecture --q-min A --q-max B --steps N --out t.csv
    tubeflux modulus --domain <descriptor.json> --h <spacing>

Config schema for analyze: {"R": real, "g": string, "f"?: string,
"c"?: real, "N"?: int} with exactly one of f (explicit Weierstrass data) or
c (synthesize f from the Gauss map at vertical flux 2 pi c).  R must be
finite and exceed 1, c must be positive and finite, and N (trapezoid nodes
for the loop integrals) must be even and within [16, 65536].

Exit codes: 0 success; 1 I/O, argument or schema error; 2 hypothesis
failure (the data does not close up to a tube, or univalence is violated) --
a diagnostic report is still written in that case.  A command refuses by
raising _Refusal, and ``main`` alone prints its one line and returns 1;
any other error propagates.

Reports contain no timestamps or environment data: identical inputs give
byte-identical outputs.  Numbers are printed with 12 significant digits and
infinities as the string "inf".  Files are written atomically (temp file +
rename).  Any file that cannot be written -- a report or a table -- ends
the command with one "cannot write" line and exit code 1.
"""

from __future__ import annotations

import argparse
import contextlib
import dataclasses
import functools
import json
import math
import os
import sys
import tempfile
from pathlib import Path

import numpy as np

from .contour import MAX_N, Annulus, HoloFn
from .expr import EvalDomainError, ExprError
from .flux import lifetime_report
from .modulus import RingDomain, comparison_ring_module, grid_module_estimate, \
    max_log_radius
from .slitmap import conjecture_sweep
from .tubes import MinimalTube, NotATubeError, WeierstrassData, \
    section_polyline, tube_from_gauss

__all__ = ["main", "console_entry"]


# --- serialization -----------------------------------------------------------

def _num(x: float) -> str:
    if math.isnan(x):
        return '"nan"'
    if math.isinf(x):
        return '"inf"' if x > 0 else '"-inf"'
    return format(x, ".12g")


def _is_number(v) -> bool:
    return isinstance(v, (int, float)) and not isinstance(v, bool)


def _dumps(obj, indent: int = 0) -> str:
    """Deterministic JSON with 12-significant-digit floats."""
    if isinstance(obj, float):
        return _num(obj)
    if isinstance(obj, list) and all(_is_number(v) for v in obj):
        return "[" + ", ".join(_dumps(v) for v in obj) + "]"
    if not isinstance(obj, (dict, list)) or not obj:  # scalars and {}
        return json.dumps(obj)
    pad = "  " * indent
    if isinstance(obj, dict):
        body = ",\n".join(
            f"{pad}  {json.dumps(str(k))}: {_dumps(v, indent + 1)}"
            for k, v in obj.items())
        return "{\n" + body + "\n" + pad + "}"
    body = ",\n".join(f"{pad}  {_dumps(v, indent + 1)}" for v in obj)
    return "[\n" + body + "\n" + pad + "]"


class _Refusal(Exception):
    """A one-line refusal, which ``main`` prints before it returns 1."""


def _write(path: str, text: str) -> None:
    """Write text to path atomically (temp file + rename), or refuse."""
    try:
        fd, tmp = tempfile.mkstemp(dir=Path(path).parent, prefix=f".{Path(path).name}.")
        try:
            with os.fdopen(fd, "w") as fh:
                fh.write(text)
            os.replace(tmp, path)
        except BaseException:
            with contextlib.suppress(OSError):
                os.unlink(tmp)
            raise
    except OSError as exc:
        raise _Refusal(f"cannot write {path}: {exc}")


def _emit(report: dict, out: str | None, status: int) -> int:
    text = _dumps(report) + "\n"
    if out:
        _write(out, text)
    else:
        sys.stdout.write(text)
    return status


# --- analyze -----------------------------------------------------------------

_FIELDS = ("R", "g", "f", "c", "N")  # in the order the report echoes them


def _check_open(cfg, key: str, lo: float) -> None:
    """Require lo < cfg[key] < inf; an integer too large for a float is inf."""
    try:
        x = float(cfg[key])
    except OverflowError:
        x = math.inf
    if not lo < x < math.inf:
        raise _Refusal(f"config error: field {key!r} must be finite and exceed {lo:g}, "
                       f"got {cfg[key]}")


def _validate_spec(cfg) -> dict:
    if not isinstance(cfg, dict):
        raise _Refusal("config error: config root must be a JSON object")
    for key in cfg:
        if key not in _FIELDS:
            raise _Refusal(f"config error: unknown field {key!r}")
    if "R" not in cfg or not _is_number(cfg["R"]):
        raise _Refusal("config error: field 'R' (real > 1) is required")
    _check_open(cfg, "R", 1.0)
    if "g" not in cfg or not isinstance(cfg["g"], str):
        raise _Refusal("config error: field 'g' (expression string) is required")
    has_f = "f" in cfg
    has_c = "c" in cfg
    if has_f == has_c:
        raise _Refusal("config error: exactly one of 'f' (expression) or 'c' (real) is required")
    if has_f and not isinstance(cfg["f"], str):
        raise _Refusal("config error: field 'f' must be an expression string")
    if has_c and not _is_number(cfg["c"]):
        raise _Refusal("config error: field 'c' must be a real number")
    if has_c:
        _check_open(cfg, "c", 0.0)
    if "N" in cfg:
        n = cfg["N"]
        if not isinstance(n, int) or isinstance(n, bool) or not 16 <= n <= MAX_N \
                or n % 2:
            raise _Refusal(f"config error: field 'N' must be an even integer in [16, {MAX_N}]")
    return cfg


def _load_json(path: str):
    """The parsed UTF-8 JSON file, or a refusal naming what is wrong."""
    try:
        return json.loads(Path(path).read_text(encoding="utf-8"))
    except OSError as exc:
        raise _Refusal(f"cannot read {path}: {exc}")
    except json.JSONDecodeError as exc:
        raise _Refusal(f"malformed JSON in {path}: {exc.msg} (line {exc.lineno}, "
                       f"column {exc.colno})")
    except ValueError as exc:  # bytes that are not UTF-8, or an integer past the digit limit
        raise _Refusal(f"malformed JSON in {path}: {exc}")


def cmd_analyze(args) -> int:
    spec = _validate_spec(_load_json(args.config))
    taus = []
    if args.sections:
        try:
            taus = [float(tok) for tok in args.sections.split(",") if tok.strip()]
        except ValueError:
            raise _Refusal("--sections must be a comma-separated list of reals")

    echo = {k: spec[k] for k in _FIELDS if k in spec}
    ann = Annulus(float(spec["R"]))
    try:
        g = HoloFn.parse(spec["g"], ann)
        f = HoloFn.parse(spec["f"], ann) if "f" in spec else None
    except ExprError as exc:
        raise _Refusal(f"config error: bad expression: {exc}")

    n = spec.get("N")
    try:
        if f is None:
            data = tube_from_gauss(g, float(spec["c"]))
        else:
            data = WeierstrassData(f=f, g=g)
        tube = MinimalTube(data, n_points=n)
    except NotATubeError as exc:
        report = {"config": echo, "verdict": "not a tube", "error": str(exc)}
        if exc.defect is not None:
            report["defect"] = exc.defect.tolist()
        return _emit(report, args.out, status=2)
    except EvalDomainError as exc:
        raise _Refusal(f"config error: {exc}")

    rep = lifetime_report(tube)
    violated = rep.hypothesis == "univalence violated"
    report = {
        "config": echo,
        "verdict": "not a tube" if violated else "tube",
        "defect": tube.defect.tolist(),
        "closed": True,  # MinimalTube refuses an open seam
        "univalent": rep.probe.univalent,
        "omits_zero": rep.probe.omits_zero,
        "Q": [tube.flux.J1, tube.flux.J2, tube.flux.J3],
        "alpha": tube.flux.alpha,
        "tan_alpha": abs(tube.flux.w),
        "life": [tube.life[0], tube.life[1]],
        "lifetime": {"measured": rep.lifetime.measured,
                     "from_flux": rep.lifetime.from_flux},
        "bound": rep.bound,
        "satisfied": rep.satisfied,
        "margin": rep.margin,
        "hypothesis": rep.hypothesis,
    }
    if taus:
        sections = {}
        for tau in taus:
            try:
                pts = section_polyline(tube, tau)
            except ValueError as exc:
                raise _Refusal(str(exc))
            sections[format(tau, ".12g")] = pts.tolist()
        report["sections"] = sections
    return _emit(report, args.out, status=2 if violated else 0)


# --- sweeps ------------------------------------------------------------------

def _write_csv(out: str, header: str, rows) -> None:
    """One line per row of numbers, each printed with 12 significant digits."""
    _write(out, header + "\n" + "".join(
        ",".join(format(x, ".12g") for x in row) + "\n" for row in rows))


def cmd_sweep_bound(args) -> int:
    if args.steps < 1:
        raise _Refusal("--steps must be at least 1")
    if not 0.0 < args.lambda_min <= args.lambda_max < math.inf:
        raise _Refusal("need 0 < --lambda-min <= --lambda-max < inf")
    # within the range checked above both closed forms are finite or +inf
    grid = np.linspace(args.lambda_min, args.lambda_max, args.steps)
    rows = [(lam, max_log_radius(lam), comparison_ring_module(lam)) for lam in grid]
    _write_csv(args.out, "lambda,lnR0,modD", rows)
    return 0


def cmd_sweep_conjecture(args) -> int:
    if args.steps < 1:
        raise _Refusal("--steps must be at least 1")
    if not -math.inf < args.q_min <= args.q_max < math.inf:
        raise _Refusal("need -inf < --q-min <= --q-max < inf")
    grid = np.linspace(args.q_min, args.q_max, args.steps)
    try:
        rows = conjecture_sweep(grid)  # refuses nomes outside its range
    except ValueError as exc:
        raise _Refusal(str(exc))
    # SweepRow's fields are in the header's order
    _write_csv(args.out, "q,R,lambda,lnR,lnR0,ratio", map(dataclasses.astuple, rows))
    return 0


# --- modulus -----------------------------------------------------------------

def cmd_modulus(args) -> int:
    try:
        domain = RingDomain.from_json(_load_json(args.domain))
    except ValueError as exc:
        raise _Refusal(f"domain error: {exc}")
    try:
        est = grid_module_estimate(domain, args.h)
    except (ValueError, RuntimeError) as exc:
        raise _Refusal(f"estimate failed: {exc}")
    report = {
        "domain": domain.descriptor,
        "h": est.h,
        "module": est.value,
        "indicator": est.indicator,
        "truncation_sensitivity": est.truncation_sensitivity,
        "dof": est.dof,
    }
    if domain.exact_module is not None:
        report["exact"] = domain.exact_module
    return _emit(report, None, status=0)


# --- wiring ------------------------------------------------------------------

class _Parser(argparse.ArgumentParser):
    # argparse exits with status 2 on usage errors, which this interface
    # reserves for hypothesis failures; remap to the I/O-error code
    def error(self, message):
        self.exit(1, f"{self.prog}: error: {message}\n")


def build_parser() -> argparse.ArgumentParser:
    p = _Parser(prog="tubeflux",
                description="minimal tubes over annuli: analysis and sweeps")
    sub = p.add_subparsers(dest="command", required=True)

    pa = sub.add_parser("analyze", help="analyze a tube config")
    pa.add_argument("config", help="JSON tube spec")
    pa.add_argument("--sections", default=None, metavar="T1,T2,...",
                    help="emit section polylines at these times; a list that "
                         "starts with a negative value must be attached with '=', "
                         "as in --sections=-0.3,0.2")
    pa.add_argument("--out", default=None, help="report path (default stdout)")
    pa.set_defaults(func=cmd_analyze)

    ps = sub.add_parser("sweep", help="tabulate bounds over a grid")
    kinds = ps.add_subparsers(dest="kind", required=True)

    pb = kinds.add_parser("bound", help="lnR0 and comparison-ring module vs lambda")
    pb.add_argument("--lambda-min", type=float, required=True, dest="lambda_min")
    pb.add_argument("--lambda-max", type=float, required=True, dest="lambda_max")
    pb.add_argument("--steps", type=int, required=True)
    pb.add_argument("--out", required=True)
    pb.set_defaults(func=cmd_sweep_bound)

    desc = "calibrated two-slit candidates: lnR vs lnR0, each row from the closed-form slit level"
    pc = kinds.add_parser("conjecture", help=desc, description=desc)
    pc.add_argument("--q-min", type=float, required=True, dest="q_min")
    pc.add_argument("--q-max", type=float, required=True, dest="q_max")
    pc.add_argument("--steps", type=int, required=True)
    pc.add_argument("--out", required=True)
    pc.set_defaults(func=cmd_sweep_conjecture)

    pm = sub.add_parser("modulus", help="grid estimate of a ring module")
    pm.add_argument("--domain", required=True, help="JSON domain descriptor")
    pm.add_argument("--h", type=float, required=True, help="grid spacing")
    pm.set_defaults(func=cmd_modulus)
    return p


# parsing writes only the namespace it returns, so one tree serves a process
_parser = functools.cache(build_parser)


def main(argv=None) -> int:
    args = _parser().parse_args(argv)
    try:
        return args.func(args)
    except _Refusal as exc:
        print(f"tubeflux: {exc}", file=sys.stderr)
        return 1


def console_entry() -> None:
    sys.exit(main())


if __name__ == "__main__":
    sys.exit(main())
