"""Two-slit ring candidates: construction, calibration, and the q-sweep."""

import math
from functools import lru_cache

import mpmath as mp
import numpy as np
import pytest

from tubeflux import (
    FamilyBalanceError,
    HoloFn,
    a0,
    a0_pair,
    boundary_reality,
    calibrate_candidate,
    conjecture_sweep,
    joukowski_family,
    joukowski_map,
    lifetime_report,
    max_log_radius,
    univalence_probe,
)
from tubeflux import contour, slitmap
from tubeflux.expr import Div, Pow

# calibrated slit levels, frozen from a converged run; the huge values at
# large q are genuine (the slits run away from each other exponentially)
LAM_TABLE = {
    0.05: 0.4996531296379585,
    0.10: 0.8099709160638052,
    0.15: 1.1744408084522993,
    0.20: 1.6713721859530257,
    0.25: 2.419827038435295,
    0.30: 3.646699893298263,
    0.35: 5.834805070385512,
    0.40: 10.122693942142474,
    0.45: 19.535209126494788,
    0.50: 43.3913498993687,
    0.55: 116.44036455420601,
    0.60: 405.9010863002573,
    0.65: 2060.427854730073,
    0.70: 18435.539004354992,
    0.75: 410511.7281953496,
    0.80: 45461433.97218622,
    0.85: 126677289339.8023,
    0.90: 1.1709263532592463e18,
}


def _agm(a, b):
    # arithmetic-geometric mean; the gap squares each step, so the loop is short
    while abs(a - b) > 1e-15 * a:
        a, b = (a + b) / 2.0, math.sqrt(a * b)
    return (a + b) / 2.0


@lru_cache(maxsize=None)
def _oracle_lam(q):
    """lambda = (2 eta1 + e2)/beta0 of the calibrated slit map at 40 digits.

    g0 = beta0/(p(u) - e2), the addition formula (p(u) - e2)(p(u + w2) - e2)
    = (e2 - e1)(e2 - e3), and the mean -2 eta1 of p along a horizontal period
    line give it, with eta1 = (pi^2/6)(1 - 24 sum q^2n/(1 - q^2n)^2),
    e2 = (pi^2/3)(theta2^4 - theta4^4) and beta0 = pi^2 theta2^2 theta4^2
    (Whittaker & Watson, ch. 20-21).
    """
    with mp.workdps(40):
        q = mp.mpf(q)
        t2, t4 = mp.jtheta(2, 0, q), mp.jtheta(4, 0, q)
        total, n = mp.mpf(0), 1
        while True:
            x = q ** (2 * n)
            term = x / (1 - x) ** 2
            total += term
            if term < mp.mpf(10) ** -45 * total:
                break
            n += 1
        eta1 = mp.pi ** 2 / 6 * (1 - 24 * total)
        e2 = mp.pi ** 2 / 3 * (t2 ** 4 - t4 ** 4)
        return (2 * eta1 + e2) / (mp.pi ** 2 * t2 ** 2 * t4 ** 2)


def _rel(got, want):
    return float(abs(mp.mpf(got) - want) / abs(want))


class TestRawMap:
    def test_slit_endpoints_are_reciprocal_mirrors(self):
        for q in (0.1, 0.3, 0.6):
            cand = calibrate_candidate(q)
            assert cand.slit_neg < 0.0 < cand.slit_pos
            assert abs(cand.slit_neg * cand.slit_pos + 1.0) < 1e-13

    def test_endpoints_match_branch_value_gaps(self):
        cand = calibrate_candidate(0.3)
        p = cand.params
        want = (p.e2 - p.e3) / (p.e1 - p.e2)
        assert abs(cand.slit_pos**2 - want) <= 1e-11 * want

    @pytest.mark.parametrize("q", (0.0025, 0.01, 0.1, 0.33, 0.5, 0.72, 0.82, 0.9, 0.95))
    def test_slit_ring_module_is_the_annulus_module(self, q):
        # K_R and the plane minus (-inf, slit_neg] and [0, slit_pos] are
        # conformally equivalent, so they share the module ln R / pi; the slit
        # ring's is AGM(1, k')/(2 AGM(1, k)) with P = -slit_neg/slit_pos,
        # k = 1/sqrt(1 + P) and k' = sqrt(P/(1 + P)) (Ahlfors, ch. 4)
        cand = calibrate_candidate(q)
        P = -cand.slit_neg / cand.slit_pos
        k, kp = 1.0 / math.sqrt(1.0 + P), math.sqrt(P / (1.0 + P))
        want = math.log(cand.params.ring_radius) / math.pi
        assert abs(_agm(1.0, kp) / (2.0 * _agm(1.0, k)) - want) <= 1e-13 * want

    @pytest.mark.parametrize("q", (0.0025, 0.1, 0.72, 0.95))
    def test_divisor_points_are_zeros_and_poles_of_their_order(self, candidate, q):
        # the probe removes each divisor point's trapezoid error in closed
        # form, so a wrong point or order would bias every winding sum: |g|
        # must scale like eps^m on a step of eps |p| into the annulus (the
        # slope reads m to 4e-5 here)
        g = candidate(q).g
        assert sorted(m for _, m in g.divisor) == [-2, 2]
        for p, m in g.divisor:
            inward = -1.0 if abs(p) > 1.0 else 1.0
            a, b = (abs(g(p * (1.0 + inward * eps))) for eps in (1e-4, 1e-5))
            assert math.log10(a / b) == pytest.approx(m, abs=1e-3), (q, p)

    def test_only_the_calibrated_map_carries_a_divisor(self, candidate):
        g = candidate(0.1).g
        R = g.annulus.R
        assert g.divisor == ((R, 2), (-1.0 / R, -2))
        assert g.mirrors == (R, 1.0 / R)
        for other in (2 * g, g + 1.0, -g, g ** 2, g.derivative(),
                      HoloFn.parse("z + 0.1/z", g.annulus), HoloFn.var(g.annulus)):
            assert other.divisor == () and other.mirrors == ()

    @pytest.mark.parametrize("q", [0.0025, 0.1, 0.33, 0.72, 0.9, 0.95])
    def test_the_map_reflects_to_itself_in_each_mirror(self, candidate, q):
        # the probe removes a pole at c^2/z_t for each mirror c as a root of
        # g - g(z_t): measured at most 3.7e-14 relative at these nomes
        g = candidate(q).g
        zt = contour._sample_points(g.annulus)
        want = g(zt)
        for c in g.mirrors:
            assert np.all(np.abs(g(c * c / zt) - want) <= 1e-12 * np.abs(want)), c

    def test_quotient_equals_shifted_reciprocal_wp(self, sn_route_wp):
        # g0 * (P(u) - e2) should be the constant pi^2 * theta2^2 * theta4^2;
        # the package's wp is this quotient inverted, so P comes from mpmath
        for q in (0.1, 0.3):
            cand = calibrate_candidate(q)
            p = cand.params
            t2, _, t4 = p.theta0
            beta = math.pi**2 * t2**2 * t4**2
            rng = np.random.default_rng(int(q * 100) + 2)
            R = p.ring_radius
            for _ in range(6):
                z = R ** rng.uniform(-0.8, 0.8) * np.exp(1j * rng.uniform(0, 2 * np.pi))
                u = np.log(math.sqrt(q) * z) / (2j * math.pi)
                lhs = cand.g(z) * (sn_route_wp(complex(u), q) - p.e2)
                assert abs(lhs - beta) <= 1e-10 * beta, (q, z)

    def test_inversion_symmetry(self):
        # swapping the rims flips the map into its negative reciprocal
        for q in (0.1, 0.5, 0.9):
            cand = calibrate_candidate(q)
            rng = np.random.default_rng(int(q * 10) + 5)
            R = cand.annulus.R
            for _ in range(5):
                z = R ** rng.uniform(-0.6, 0.6) * np.exp(1j * rng.uniform(0, 2 * np.pi))
                prod = cand.g(-1.0 / z) * cand.g(z)
                assert abs(prod + 1.0) < 1e-12, (q, z)

    def test_derivative_against_finite_differences(self):
        cand = calibrate_candidate(0.3)
        dg = cand.g.derivative()
        h = 1e-6
        for z in (1.1 + 0.2j, 0.8j, -1.3 + 0.4j):
            fd = (cand.g(z + h) - cand.g(z - h)) / (2 * h)
            assert abs(dg(z) - fd) <= 1e-5 * (1 + abs(fd))

    @pytest.mark.parametrize("q", (0.1, 0.5, 0.9))
    def test_rim_images_are_real(self, q):
        cand = calibrate_candidate(q)
        reality = boundary_reality(cand)
        assert reality["rel"] < 1e-12
        if q == 0.1:
            assert reality["abs"] < 1e-9

    def test_rim_images_land_on_the_slits(self):
        cand = calibrate_candidate(0.2)
        R = cand.annulus.R
        ts = np.linspace(0.0, 2 * math.pi, 64, endpoint=False) + 1e-3
        outer = cand.g(R * 0.9999999 * np.exp(1j * ts)).real
        inner = cand.g(np.exp(1j * ts) / (R * 0.9999999)).real
        assert np.max(outer) <= cand.slit_pos * (1 + 1e-5)
        assert np.min(outer) >= -1e-4 * cand.slit_pos
        assert np.max(inner) <= cand.slit_neg * (1 - 1e-5)


ORACLE_NOMES = (0.0025, 0.01, 0.1, 0.33, 0.5, 0.72, 0.82, 0.86, 0.9, 0.95)


class TestCalibration:
    def test_scale_is_already_balanced(self, candidate):
        # the calibrated map is g0 = (theta1/theta3)^2 itself, with no scale node
        cand = candidate(0.3)
        node = cand.g.node
        assert isinstance(node, Pow) and node.exponent == 2
        assert isinstance(node.base, Div)
        assert (node.base.left.name, node.base.right.name) == ("theta1[q=0.3]", "theta3[q=0.3]")
        assert cand.lam > 0.0

    def test_balance_conditions_hold(self, candidate):
        # the circle means of g0 and 1/g0 against the closed-form level;
        # measured worst: 1.9e-14 lam (real, q = 0.95), 1.7e-15 lam (imaginary)
        for q in ORACLE_NOMES:
            cand = candidate(q)
            m, minv = a0_pair(cand.g)
            assert abs(m.real - cand.lam) <= 1e-13 * cand.lam, q
            assert abs(minv.real + cand.lam) <= 1e-13 * cand.lam, q
            assert max(abs(m.imag), abs(minv.imag)) <= 1e-13 * cand.lam, q

    def test_calibration_takes_no_theta_samples(self, comb_calls):
        calls = comb_calls()
        calibrate_candidate(0.2)
        assert calls == []

    def test_frozen_level_table(self, candidate):
        for q, lam in LAM_TABLE.items():
            got = candidate(q).lam
            rtol = 1e-9 if q <= 0.65 else 1e-6
            assert got == pytest.approx(lam, rel=rtol), q

    def test_level_grows_with_nome(self, candidate):
        qs = sorted(LAM_TABLE)
        levels = [candidate(q).lam for q in qs]
        assert all(a < b for a, b in zip(levels, levels[1:]))

    def test_calibrated_map_is_injective(self, candidate):
        report = univalence_probe(candidate(0.3).g)
        assert report.univalent == "passed"
        assert report.omits_zero == "passed"


class TestOracle:
    """The slit family's numbers against closed forms at 40 digits.

    Measured worst relative errors: 7.4e-15 for lambda (q = 0.86) and
    5.4e-15 for the tube (J1 at q = 0.86, the thin-ring band q >= 0.86
    included); each is held at 1e-13.
    """

    # the tiny nomes catch a direct form that takes theta4^4 from its
    # product and E2 as 1 - 24 S: it cancels to 1.6e-9 at q = 1e-8
    @pytest.mark.parametrize("q", (1e-12, 1e-8, 1e-5, 1e-3) + ORACLE_NOMES)
    def test_level_is_the_closed_form(self, candidate, q):
        assert _rel(candidate(q).lam, _oracle_lam(q)) <= 1e-13

    @pytest.mark.parametrize("q", (0.0025, 0.01, 0.1, 0.33, 0.5, 0.72, 0.82, 0.86, 0.9, 0.95))
    def test_tube_is_the_closed_form(self, slit_tube, q):
        # balance gives Q = (-2 pi lambda c, 0, 2 pi c), so tan alpha = lambda,
        # life = -c ln q and bound = 2 pi^2 c/asinh(lambda); here c = 1
        tube = slit_tube(q)
        report = lifetime_report(tube)
        lam = _oracle_lam(q)
        with mp.workdps(40):
            assert _rel(tube.flux.J1, -2 * mp.pi * lam) <= 1e-13
            assert abs(tube.flux.J2) <= 1e-13 * tube.flux.norm
            assert _rel(tube.flux.J3, 2 * mp.pi) <= 1e-13
            assert _rel(report.lifetime.measured, -mp.log(q)) <= 1e-13
            assert _rel(report.bound, 2 * mp.pi ** 2 / mp.asinh(lam)) <= 1e-13

    @pytest.mark.parametrize("q", (0.86, 0.9, 0.95))
    def test_thin_ring_probe_passes(self, candidate, q):
        report = univalence_probe(candidate(q).g)
        assert (report.univalent, report.zero_count, report.n_targets) == ("passed", 0, 32)


class TestSweep:
    def test_ratio_stays_below_one(self):
        rows = conjecture_sweep([0.1, 0.2, 0.3])
        assert isinstance(rows, tuple)
        assert [row.q for row in rows] == [0.1, 0.2, 0.3]
        for row in rows:
            assert row.ratio < 1.0
            assert row.R == pytest.approx(row.q**-0.5, rel=1e-14)
            assert row.lnR == pytest.approx(math.log(row.R), rel=1e-13)
            assert row.lnR0 == pytest.approx(max_log_radius(row.lam), rel=1e-13)
            assert row.ratio == pytest.approx(row.lnR / row.lnR0, rel=1e-13)

    def test_ratio_follows_the_quarter_law(self):
        # lnR/lnR0 = t asinh(lam)/(2 pi) with lam = t e^{pi/(2t)}(1 + O(q'))/(2 pi),
        # q' = e^{-pi/t}: the ratio is 1/4 + t ln(t/pi)/(2 pi) + O(q'), below
        # 1/4 for every t < pi (max 0.2358 here; 0.875 of the bound at worst)
        qs = np.linspace(0.02, 0.95, 402)[1:-1]
        ratios = np.array([row.ratio for row in conjecture_sweep(qs)])
        assert np.all(np.diff(ratios) > 0.0) and ratios.max() < 0.25
        t = -np.log(qs) / math.pi
        law = 0.25 + t * np.log(t / math.pi) / (2.0 * math.pi)
        assert np.all(np.abs(ratios - law) <= math.pi * np.exp(-math.pi / t) / (2.0 * t) + 1e-15)

    def test_sweep_is_deterministic(self):
        a = conjecture_sweep([0.15, 0.45])
        b = conjecture_sweep([0.15, 0.45])
        assert a == b

    def test_failed_row_is_raised(self, monkeypatch):
        original = slitmap.calibrate_candidate
        calls = []

        def refusing(q):
            calls.append(q)
            if q == 0.2:
                raise ArithmeticError("refused at q=0.2")
            return original(q)

        monkeypatch.setattr(slitmap, "calibrate_candidate", refusing)
        with pytest.raises(ArithmeticError, match="refused at q=0.2"):
            conjecture_sweep([0.3, 0.2, 0.1])
        assert calls == [0.3, 0.2]  # the sweep stops at the row that raised

    def test_grid_validation(self):
        with pytest.raises(ValueError, match="empty"):
            conjecture_sweep([])
        with pytest.raises(ValueError, match="outside the supported range"):
            conjecture_sweep([0.01])
        with pytest.raises(ValueError, match="outside the supported range"):
            conjecture_sweep([0.96])


class TestJoukowskiFamily:
    def test_map_mean_is_the_offset(self):
        rng = np.random.default_rng(41)
        for _ in range(10):
            lam = rng.uniform(0.2, 3.0)
            a = rng.uniform(-2.0, 2.0)
            kappa = rng.uniform(-0.24, 0.24)
            g = joukowski_map(lam, a, kappa, 2.0)
            assert abs(a0(g) - lam) < 1e-12 * (1.0 + lam)

    def test_family_cannot_balance(self):
        with pytest.raises(FamilyBalanceError, match=r"no \(a, kappa\)") as err:
            joukowski_family(1.0, 5.0)
        diag = err.value.diagnostics
        assert diag is not None
        assert diag["residual_floor"] == pytest.approx(1.0, abs=1e-9)
        assert diag["theoretical_floor"] == pytest.approx(1.0)
        assert diag["n_scanned"] > 1000

    @pytest.mark.parametrize("lam, R", [(0.0, 2.0), (-1.0, 2.0), (1.0, 1.0), (1.0, 0.5)])
    def test_refuses_a_level_or_ring_out_of_range(self, lam, R):
        with pytest.raises(ValueError) as err:
            joukowski_family(lam, R)
        assert str(err.value) == f"need lam > 0 and R > 1, got lam={lam}, R={R}"

    @pytest.mark.parametrize("lam", [1e306, 1e308, math.inf])
    def test_refuses_a_level_whose_scan_overflows(self, lam):
        # -lam/a overflows at the scan's smallest |a| = 1e-3
        with pytest.raises(ValueError) as err:
            joukowski_family(lam, 2.0)
        assert str(err.value) == f"need lam < 1.79769e+305, got lam={lam}"

    def test_floor_tracks_the_offset(self):
        with pytest.raises(FamilyBalanceError) as err:
            joukowski_family(0.5, 3.0)
        assert err.value.diagnostics["residual_floor"] == pytest.approx(0.5, abs=1e-9)
