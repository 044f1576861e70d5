"""The benchmark's workloads: seeded inputs, one runner and one oracle each.

A workload turns a seed into a *pass*, a fixed list of items, and the run
repeats whole passes, so every run measures the same mix of inputs.  Each
item goes through the public API only.  ``check`` returns None when the
result is right, or the reason it is not; the tolerances are the
acceptance gate's, unchanged.  ``run`` may raise: the caller records the
exception as the item's failure.

Radii and coefficients are drawn inside fixed strata, one draw per stratum,
and slit nomes are jittered around a fixed grid, so that each seed gives new
inputs with the same composition.
"""

from __future__ import annotations

import contextlib
import io
import json
import math
import os
import random

import tubeflux
from tubeflux import cli

LIFE_TOL = 1e-8        # measured vs flux life-time (test_06, test_04)
WITNESS_TOL = 1e-10    # crossing residuals (test_10)
FLUX_TOL = 1e-8        # Q and life length of a vertical tube (test_04)
SEAM_TOL = 1e-6        # period defect of an open seam
RING_TOL = 0.01        # grid module of the round ring (test_03)
SLIT_DOMAIN_TOL = 0.02  # grid module of D(lambda) (test_03)


def _geometric_strata(rng, lo, hi, k):
    """One log-uniform draw in each of k equal log-width strata of [lo, hi]."""
    a, b = math.log(lo), math.log(hi)
    w = (b - a) / k
    return [math.exp(a + w * (j + rng.random())) for j in range(k)]


def _uniform_strata(rng, lo, hi, k):
    w = (hi - lo) / k
    return [lo + w * (j + rng.random()) for j in range(k)]


# --- slit_family ---------------------------------------------------------------
#
# Seven nomes geometric over [0.005, 0.72], where the pipeline holds, plus one
# in each known failure band: 0.82, where lifetime_bound's two closed forms
# drift apart (ArithmeticError), and 0.9, where flux_vector snaps J3 to zero
# (NotATubeError).  An item's cost is a step function of q (the adaptive
# quadrature levels it reaches) and a pass holds only nine items, so the seed
# moves each nome by at most 1%: inputs differ from seed to seed while the
# cost mix, and the share of failures, stay put.  Most nomes cost about the
# same, which keeps the median item steady.

SLIT_NOMES = tuple(0.005 * (0.72 / 0.005) ** (j / 6) for j in range(7)) + (0.82, 0.9)
SLIT_JITTER = 0.01


class SlitFamily:
    name = "slit_family"

    def make(self, rng):
        return [{"q": q * math.exp(SLIT_JITTER * rng.uniform(-1.0, 1.0))}
                for q in SLIT_NOMES]

    def prepare(self, items, workdir):
        return None

    def run(self, item, ctx):
        cand = tubeflux.calibrate_candidate(item["q"])
        tube = tubeflux.MinimalTube(tubeflux.tube_from_gauss(cand.g, 1.0))
        rep = tubeflux.lifetime_report(tube)
        return (cand.lam, rep.lifetime.measured, float(rep.lifetime.from_flux),
                rep.bound, rep.hypothesis, rep.satisfied)

    def check(self, item, result):
        _, measured, from_flux, _, hypothesis, satisfied = result
        if hypothesis != "ok" or satisfied is not True:
            return f"hypothesis {hypothesis!r}, satisfied {satisfied!r}"
        if not abs(measured - from_flux) <= LIFE_TOL:
            return f"life-time {measured!r} vs flux {from_flux!r}"
        return None


# --- slit_witness --------------------------------------------------------------
#
# Six calibrated candidates over the acceptance family's nomes [0.0025, 0.33],
# five radii each in R^[-0.7, 0.7]; calibration is set-up, only the scalar
# bisections are timed.  Past that family the residuals leave the gate's
# 1e-10 (2e-8 at q=0.75), another defect of its own.

class SlitWitness:
    name = "slit_witness"

    def make(self, rng):
        items = []
        for q in _geometric_strata(rng, 0.0025, 0.33, 6):
            for u in _uniform_strata(rng, -0.7, 0.7, 5):
                items.append({"q": q, "u": u})
        return items

    def prepare(self, items, workdir):
        return {q: tubeflux.calibrate_candidate(q) for q in {it["q"] for it in items}}

    def run(self, item, ctx):
        cand = ctx[item["q"]]
        rho = cand.annulus.R ** item["u"]
        w = tubeflux.crossing_witness(cand.g, rho, cand.lam)
        return (float(w.t1), float(w.t2), float(w.residual1), float(w.residual2))

    def check(self, item, result):
        _, _, r1, r2 = result
        if not (r1 < WITNESS_TOL and r2 < WITNESS_TOL):
            return f"residuals {r1:.3e}, {r2:.3e}"
        return None


# --- expr_cli ------------------------------------------------------------------
#
# Sixteen configs a pass: thirteen tubes g = a z + k/z (two with sections,
# three with an explicit N), two folded covers z^m and one open seam z + b.
# A tube costs more than a folded cover or a seam, so the median item lies
# between the fifth- and sixth-cheapest tube, near the middle of the tubes
# rather than at their cheap end.  Each tube parameter is drawn once in each
# of thirteen strata, the strata shuffled over the tubes, so that every seed
# spans the same ranges and the median tube's cost stays put.

TUBES = 13


class ExprCli:
    name = "expr_cli"

    def make(self, rng):
        def strata(lo, hi):
            xs = _uniform_strata(rng, lo, hi, TUBES)
            rng.shuffle(xs)
            return xs

        items = []
        tubes = zip(strata(1.5, 3.0), strata(0.5, 2.0), strata(0.05, 0.5), strata(0.5, 2.0))
        for j, (R, a, f, c) in enumerate(tubes):
            # zeros at |z| = sqrt(|k|/a) < 1/R: g omits zero and is injective
            k = rng.choice((-1.0, 1.0)) * a * f / (R * R)
            cfg = {"R": R, "g": f"{a:.6f}*z + {k:.6f}/z", "c": c}
            if j in (2, 3, 4):
                cfg["N"] = (64, 128, 256)[j - 2]
            argv = []
            if j in (5, 6):
                half = c * math.log(R)
                taus = [half * f for f in _uniform_strata(rng, -0.8, 0.8, 2)]
                argv = ["--sections=" + ",".join(repr(t) for t in taus)]
            items.append({"kind": "tube", "cfg": cfg, "argv": argv})
        for _ in range(2):
            cfg = {"R": rng.uniform(1.5, 3.0), "g": f"z^{rng.choice((2, 3, 4))}",
                   "c": rng.uniform(0.5, 2.0)}
            items.append({"kind": "folded", "cfg": cfg, "argv": []})
        R = rng.uniform(1.5, 3.0)
        b = R * rng.uniform(1.1, 2.0)
        cfg = {"R": R, "g": f"z + {b!r}", "c": rng.uniform(0.5, 2.0)}
        items.append({"kind": "seam", "b": b, "cfg": cfg, "argv": []})
        for j, it in enumerate(items):
            it["path"] = f"cfg{j:02d}.json"
        return items

    def prepare(self, items, workdir):
        for it in items:
            with open(os.path.join(workdir, it["path"]), "w") as fh:
                json.dump(it["cfg"], fh)
        return workdir

    def run(self, item, ctx):
        out = io.StringIO()
        with contextlib.redirect_stdout(out):
            status = cli.main(["analyze", os.path.join(ctx, item["path"])] + item["argv"])
        return (status, out.getvalue())

    def check(self, item, result):
        status, text = result
        rep = json.loads(text)
        cfg, kind = item["cfg"], item["kind"]
        if kind == "tube":
            if status != 0 or rep["verdict"] != "tube" or rep["hypothesis"] != "ok":
                return f"tube: exit {status}, verdict {rep['verdict']!r}"
            c, R = cfg["c"], cfg["R"]
            want = (0.0, 0.0, 2.0 * math.pi * c)
            if any(not abs(x - y) <= FLUX_TOL for x, y in zip(rep["Q"], want)):
                return f"tube: Q {rep['Q']}"
            life = rep["life"][1] - rep["life"][0]
            if not abs(life - 2.0 * c * math.log(R)) <= FLUX_TOL:
                return f"tube: life length {life!r}"
            if item["argv"] and len(rep.get("sections", {})) != 2:
                return "tube: sections missing"
            return None
        if status != 2 or rep["verdict"] != "not a tube":
            return f"{kind}: exit {status}, verdict {rep['verdict']!r}"
        if kind == "folded":
            if rep["hypothesis"] != "univalence violated":
                return f"folded: hypothesis {rep['hypothesis']!r}"
            return None
        want = -math.pi * cfg["c"] * (item["b"] + 1.0 / item["b"])
        if not abs(rep["defect"][1] - want) <= SEAM_TOL:
            return f"seam: defect {rep['defect']}"
        return None


# --- grid_modulus --------------------------------------------------------------
#
# The acceptance gate's grid cases: D(1) at h=0.1 (solves at h, h/2 and a
# padded box) and the round ring of ratio e at h=0.04 and h=0.02.  The seed
# orders them.  lambda stays at the gate's 1: for about half of the lambda in
# [0.8, 1.25] the box's right edge rounds below lambda and the estimator
# refuses the domain as unresolved, a defect of its own.

class GridModulus:
    name = "grid_modulus"

    def make(self, rng):
        items = [{"kind": "D", "lam": 1.0, "h": 0.1},
                 {"kind": "annulus", "ratio": math.e, "h": 0.04},
                 {"kind": "annulus", "ratio": math.e, "h": 0.02}]
        rng.shuffle(items)
        return items

    def prepare(self, items, workdir):
        return None

    def _domain(self, item):
        if item["kind"] == "D":
            return tubeflux.RingDomain.comparison(item["lam"])
        return tubeflux.RingDomain.from_json({"kind": "annulus", "ratio": item["ratio"]})

    def run(self, item, ctx):
        est = tubeflux.grid_module_estimate(self._domain(item), item["h"])
        return (est.value, est.indicator, est.truncation_sensitivity, est.dof)

    def rel_err(self, item, result):
        exact = self._domain(item).exact_module
        return abs(result[0] - exact) / exact

    def check(self, item, result):
        tol = SLIT_DOMAIN_TOL if item["kind"] == "D" else RING_TOL
        err = self.rel_err(item, result)
        if not err <= tol:
            return f"module off by {err:.3%}"
        return None


WORKLOADS = {w.name: w for w in (SlitFamily(), SlitWitness(), ExprCli(), GridModulus())}


def make_items(workload, seed):
    """The pass for ``seed``: same seed, same items."""
    return workload.make(random.Random(f"{workload.name}:{seed}"))
