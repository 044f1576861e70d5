"""Acceptance gate: the ten headline checks, one pass/fail line each.

Run with ``pytest -v tests/test_acceptance.py`` to see one line per check;
each test also prints a stamp so a plain ``pytest -s`` run reads as a
checklist.  Tolerances here are contractual: do not loosen them to make a
regression go away.
"""

import math

import numpy as np
import pytest

from tubeflux import (
    FamilyBalanceError,
    FluxVector,
    MinimalTube,
    RingDomain,
    a0,
    boundary_reality,
    calibrate_candidate,
    comparison_ring_module,
    conjecture_sweep,
    crossing_witness,
    defect_from_means,
    flux_vector,
    grid_module_estimate,
    joining_family_module,
    joukowski_family,
    joukowski_map,
    lifetime_bound,
    lifetime_report,
    max_log_radius,
    mobius_to_annulus,
    period_defect,
    tube_from_gauss,
)
from tubeflux.elliptic import EllipticParams, wp, wp_prime


def _stamp(n, label):
    print(f"[{n:>2}/10] {label}: PASS")


@pytest.fixture(scope="module")
def family():
    """Thirty calibrated slit tubes with levels spanning [0.1, 5]."""
    rows = []
    for q in np.geomspace(0.0025, 0.33, 30):
        cand = calibrate_candidate(q)
        data = tube_from_gauss(cand.g, 1.0)
        tube = MinimalTube(data)
        rows.append((q, cand, tube, lifetime_report(tube)))
    return rows


def test_01_slit_ring_module_identity():
    # the slit comparison ring and its round image share one module
    rng = np.random.default_rng(101)
    for lam in rng.uniform(0.05, 50.0, size=50):
        ls = math.sqrt(lam * lam + 1.0) - lam
        direct = comparison_ring_module(lam)
        via_ratio = joining_family_module(1.0 / ls**2)
        assert abs(direct - via_ratio) <= 1e-12 * direct, lam
    _stamp(1, "slit ring module equals joined-circle form (50 draws, 1e-12)")


def test_02_mobius_boundary_transport():
    for lam in (0.5, 1.0, 2.0, 10.0):
        mt = mobius_to_annulus(lam)
        c = 1.0 / (2.0 * lam)
        phis = np.linspace(0.0, 2.0 * math.pi, 200, endpoint=False)
        circle = -c + c * np.exp(1j * phis)
        w = mt.map(circle)
        assert np.max(np.abs(np.abs(w) - 1.0)) < 1e-10, lam
        line = lam + 1j * lam * np.tan(np.linspace(-1.54, 1.54, 200))
        w = mt.map(line)
        assert np.max(np.abs(np.abs(w) - mt.annulus_ratio)) < 1e-10 * mt.annulus_ratio
    _stamp(2, "Mobius transport lands both boundaries on circles (1e-10)")


def test_03_grid_estimator_accuracy():
    ring = RingDomain.from_json({"kind": "annulus", "ratio": math.e})
    indicators = []
    for h in (0.08, 0.04, 0.02):
        est = grid_module_estimate(ring, h)
        indicators.append(est.indicator)
    assert abs(est.value - 2.0 * math.pi) <= 0.01 * 2.0 * math.pi
    assert indicators[0] > indicators[1] > indicators[2]

    slit = grid_module_estimate(RingDomain.comparison(1.0), 0.1)
    exact = comparison_ring_module(1.0)
    assert abs(slit.value - exact) <= 0.02 * exact
    _stamp(3, "grid module: ring within 1%, slit domain within 2%")


def test_04_catenoid_regression(catenoid):
    assert float(np.max(np.abs(catenoid.defect))) < 1e-10
    Q = catenoid.flux
    assert Q.J1 == 0.0 and Q.J2 == 0.0
    assert abs(Q.J3 - 2.0 * math.pi) < 1e-10
    report = lifetime_report(catenoid)
    assert abs(report.lifetime.measured - 2.0 * math.log(2.0)) < 1e-8
    lo, hi = catenoid.life
    assert abs(math.log(2.0) - math.pi * (hi - lo) / Q.J3) < 1e-8
    assert report.bound == math.inf and report.satisfied is True
    _stamp(4, "catenoid band: flux, life span, and open ceiling")


def test_05_mean_level_closure_test():
    rng = np.random.default_rng(505)
    circle = np.exp(2j * np.pi * np.linspace(0, 1, 257))
    checked = 0
    while checked < 20:
        lam = rng.uniform(0.2, 3.0)
        a = rng.uniform(-2.0, 2.0)
        kappa = rng.uniform(-0.2, 0.2)
        c = rng.uniform(0.5, 2.0)
        g = joukowski_map(lam, a, kappa, 2.0)
        if np.min(np.abs(g(circle))) <= 0.3:
            continue
        checked += 1
        data = tube_from_gauss(g, c)
        direct = period_defect(data)
        means = defect_from_means(g, c)
        scale = 1.0 + float(np.max(np.abs(direct)))
        assert np.max(np.abs(direct - means)) <= 1e-9 * scale
        residual = abs(a0(1.0 / g) + np.conj(a0(g)))
        closed = float(np.linalg.norm(direct)) <= 1e-8
        balanced = math.pi * c * residual <= 1e-8
        assert closed == balanced
    _stamp(5, "closure defect matches circle means on 20 random maps (1e-9)")


def test_06_calibrated_family_respects_the_ceiling(family):
    assert len(family) >= 30
    lams = [cand.lam for _, cand, _, _ in family]
    assert min(lams) >= 0.1 and max(lams) <= 5.0
    for q, cand, tube, report in family:
        assert report.hypothesis == "ok", q
        assert report.satisfied is True, q
        assert report.lifetime.measured <= report.bound + 1e-8, q

    # the ceiling's two closed forms are interchangeable
    rng = np.random.default_rng(606)
    for _ in range(100):
        alpha = rng.uniform(0.01, 1.5)
        J3 = rng.uniform(0.1, 10.0)
        w = math.tan(alpha) * np.exp(1j * rng.uniform(0, 2 * math.pi))
        Q = FluxVector(J3 * w.real, J3 * w.imag, J3)
        form_a = math.pi * Q.norm * math.cos(alpha) / math.asinh(math.tan(alpha))
        form_b = math.pi * Q.norm * math.cos(alpha) / math.log(
            math.tan(math.pi / 4.0 + alpha / 2.0)
        )
        assert abs(form_a - form_b) <= 1e-10 * form_a
        assert abs(lifetime_bound(Q) - form_a) <= 1e-10 * form_a
    _stamp(6, "30 calibrated tubes under the ceiling; closed forms agree")


def test_07_sweep_stays_below_the_line():
    qs = [round(0.05 * k, 2) for k in range(1, 19)]  # 0.05 .. 0.90
    rows = conjecture_sweep(qs)
    assert len(rows) == 18
    for row in rows:
        assert row.ratio <= 1.0 + 1e-6, row.q

    # nothing in the offset family can be pushed past its ceiling radius
    for lam in (0.5, 1.0):
        R = math.exp(1.05 * max_log_radius(lam))
        with pytest.raises(FamilyBalanceError):
            joukowski_family(lam, R)
    _stamp(7, "q-sweep ratios <= 1 + 1e-6; offset family refuses to balance")


def test_08_elliptic_backbone():
    for q in (0.1, 0.5, 0.9):
        p = EllipticParams(q)
        scale = max(abs(p.e1), abs(p.e3))
        assert abs(p.e1 + p.e2 + p.e3) <= 1e-12 * scale
        rng = np.random.default_rng(int(q * 1000) + 8)
        for _ in range(10):
            u = complex(rng.uniform(0.08, 0.42), rng.uniform(0.08, 0.42) * p.t)
            w = wp(u, p)
            dw = wp_prime(u, p)
            lhs = dw * dw
            rhs = 4.0 * w**3 - p.g2 * w - p.g3
            denom = abs(lhs) + abs(4.0 * w**3) + abs(p.g2 * w) + abs(p.g3) + 1.0
            assert abs(lhs - rhs) / denom < 1e-10, (q, u)

        reality = boundary_reality(calibrate_candidate(q))
        if q == 0.1:
            # absolute reading at small nome; the slit values are order one
            assert reality["abs"] < 1e-9
        # relative reading everywhere: rim values grow like the level itself,
        # so the scaled defect is the honest measure at large nome
        assert reality["rel"] < 1e-9
    _stamp(8, "P-function equation to 1e-10; rim images real to 1e-9")


def test_09_flux_invariances():
    # zeros of this map sit at -0.031 and -4.77, well clear of the band,
    # so the flux integrand is analytic across all measuring circles
    g = joukowski_map(1.2, 0.25, 0.15, 2.0)
    data = tube_from_gauss(g, 1.0)
    base = flux_vector(data, rho=1.0).as_array()
    for rho in (0.65, 1.0, 1.4, 1.9):
        other = flux_vector(data, rho=rho).as_array()
        assert np.max(np.abs(base - other)) < 1e-10, rho
    for s in (0.5, 2.0, 10.0):
        scaled = flux_vector(tube_from_gauss(g, s)).as_array()
        keep = np.abs(base) > 0
        assert np.max(np.abs(scaled[keep] / base[keep] - s)) <= 1e-12, s
    _stamp(9, "flux is radius-independent (1e-10) and scales exactly (1e-12)")


def test_10_crossing_witnesses_everywhere(family):
    for q, cand, tube, _ in family:
        R = cand.annulus.R
        for rho in R ** np.linspace(-0.7, 0.7, 20):
            witness = crossing_witness(cand.g, float(rho), cand.lam)
            assert witness.residual1 < 1e-10, (q, rho)
            assert witness.residual2 < 1e-10, (q, rho)
    _stamp(10, "both crossing levels witnessed at 20 radii per tube (1e-10)")
