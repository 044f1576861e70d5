"""Two-slit ring candidates: construction, calibration, and the q-sweep."""

import math
from functools import lru_cache

import mpmath as mp
import numpy as np
import pytest

from tubeflux import (
    CalibrationError,
    EllipticParams,
    FamilyBalanceError,
    a0,
    boundary_reality,
    calibrate_candidate,
    conjecture_sweep,
    joukowski_family,
    joukowski_map,
    lifetime_report,
    max_log_radius,
    slit_annulus_map,
    univalence_probe,
)
from tubeflux import slitmap

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
            cand = slit_annulus_map(EllipticParams(q))
            assert cand.scale == 1.0
            assert cand.slit_neg < 0.0 < cand.slit_pos
            assert abs(cand.slit_neg * cand.slit_pos + 1.0) < 1e-13

    def test_endpoints_match_branch_value_gaps(self):
        p = EllipticParams(0.3)
        cand = slit_annulus_map(p)
        want = (p.e2 - p.e3) / (p.e1 - p.e2)
        assert abs(cand.slit_pos**2 - want) <= 1e-11 * want

    @pytest.mark.parametrize("q", (0.0025, 0.01, 0.1, 0.33, 0.5, 0.72, 0.82, 0.9, 0.95))
    def test_slit_ring_module_is_the_annulus_module(self, q):
        # K_R and the plane minus (-inf, slit_neg] and [0, slit_pos] are
        # conformally equivalent, so they share the module ln R / pi; the slit
        # ring's is AGM(1, k')/(2 AGM(1, k)) with P = -slit_neg/slit_pos,
        # k = 1/sqrt(1 + P) and k' = sqrt(P/(1 + P)) (Ahlfors, ch. 4)
        cand = slit_annulus_map(EllipticParams(q))
        P = -cand.slit_neg / cand.slit_pos
        k, kp = 1.0 / math.sqrt(1.0 + P), math.sqrt(P / (1.0 + P))
        want = math.log(cand.params.ring_radius) / math.pi
        assert abs(_agm(1.0, kp) / (2.0 * _agm(1.0, k)) - want) <= 1e-13 * want

    def test_quotient_equals_shifted_reciprocal_wp(self, sn_route_wp):
        # g0 * (P(u) - e2) should be the constant pi^2 * theta2^2 * theta4^2;
        # the package's wp is this quotient inverted, so P comes from mpmath
        for q in (0.1, 0.3):
            p = EllipticParams(q)
            cand = slit_annulus_map(p)
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
            cand = slit_annulus_map(EllipticParams(q))
            rng = np.random.default_rng(int(q * 10) + 5)
            R = cand.annulus.R
            for _ in range(5):
                z = R ** rng.uniform(-0.6, 0.6) * np.exp(1j * rng.uniform(0, 2 * np.pi))
                prod = cand.g(-1.0 / z) * cand.g(z)
                assert abs(prod + 1.0) < 1e-12, (q, z)

    def test_derivative_against_finite_differences(self):
        cand = slit_annulus_map(EllipticParams(0.3))
        dg = cand.g.derivative()
        h = 1e-6
        for z in (1.1 + 0.2j, 0.8j, -1.3 + 0.4j):
            fd = (cand.g(z + h) - cand.g(z - h)) / (2 * h)
            assert abs(dg(z) - fd) <= 1e-5 * (1 + abs(fd))

    @pytest.mark.parametrize("q", (0.1, 0.5, 0.9))
    def test_rim_images_are_real(self, q):
        cand = slit_annulus_map(EllipticParams(q))
        reality = boundary_reality(cand)
        assert reality["rel"] < 1e-12
        if q == 0.1:
            assert reality["abs"] < 1e-9

    def test_rim_images_land_on_the_slits(self):
        cand = slit_annulus_map(EllipticParams(0.2))
        R = cand.annulus.R
        ts = np.linspace(0.0, 2 * math.pi, 64, endpoint=False) + 1e-3
        outer = cand.g(R * 0.9999999 * np.exp(1j * ts)).real
        inner = cand.g(np.exp(1j * ts) / (R * 0.9999999)).real
        assert np.max(outer) <= cand.slit_pos * (1 + 1e-5)
        assert np.min(outer) >= -1e-4 * cand.slit_pos
        assert np.max(inner) <= cand.slit_neg * (1 - 1e-5)


class TestCalibration:
    def test_scale_is_already_balanced(self, candidate):
        cand = candidate(0.3)
        assert abs(cand.scale - 1.0) < 1e-10
        assert cand.residual < 1e-12
        assert cand.lam > 0.0

    def test_balance_conditions_hold(self, candidate):
        for q in (0.1, 0.3, 0.5):
            cand = candidate(q)
            m = a0(cand.g)
            minv = a0(1.0 / cand.g)
            assert abs(m - cand.lam) <= 1e-9 * (1.0 + cand.lam)
            assert abs(minv + cand.lam) <= 1e-9 * (1.0 + cand.lam)

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

    def test_scale_is_the_closed_form_root(self, monkeypatch):
        original, means = slitmap.a0_pair, []

        def recording(g):
            means.append(original(g))
            return means[-1]

        monkeypatch.setattr(slitmap, "a0_pair", recording)
        cand = calibrate_candidate(0.2)
        (mean_g, mean_inv), = means
        A, B = mean_g.real, mean_inv.real
        assert cand.scale == math.sqrt(-B / A)
        assert cand.lam == cand.scale * A

    @pytest.mark.parametrize("pair, match", [
        ((1.0 + 1e-3j, -1.0), "imaginary drift"),
        ((0.5 + 0j, 0.25 + 0j), "A=5.000000e-01, B=2.500000e-01"),
        ((-0.5 + 0j, 0.25 + 0j), "A=-5.000000e-01, B=2.500000e-01"),
    ], ids=["drift", "same sign", "wrong orientation"])
    def test_unbalanceable_means_are_refused(self, monkeypatch, pair, match):
        monkeypatch.setattr(slitmap, "a0_pair", lambda g: pair)
        with pytest.raises(CalibrationError, match=match):
            calibrate_candidate(0.2)


class TestOracle:
    """The slit family's numbers against closed forms at 40 digits.

    Measured worst relative errors: 5.2e-15 for lambda (q = 0.86) and
    4.0e-15 for the tube (J1 at q = 0.82); each is held at 1e-13.
    """

    @pytest.mark.parametrize("q", (0.0025, 0.01, 0.1, 0.33, 0.5, 0.72, 0.82, 0.86, 0.9, 0.95))
    def test_level_is_the_closed_form(self, candidate, q):
        assert _rel(candidate(q).lam, _oracle_lam(q)) <= 1e-13

    # the thin-ring band q in [0.86, 0.95] is still refused as a tube
    @pytest.mark.parametrize("q", (0.0025, 0.01, 0.1, 0.33, 0.5, 0.72, 0.82))
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


class TestSweep:
    def test_ratio_stays_below_one(self):
        result = conjecture_sweep([0.1, 0.2, 0.3])
        assert result.failures == ()
        assert [row.q for row in result.rows] == [0.1, 0.2, 0.3]
        for row in result.rows:
            assert row.ratio < 1.0
            assert row.R == pytest.approx(row.q**-0.5, rel=1e-14)
            assert row.lnR == pytest.approx(math.log(row.R), rel=1e-13)
            assert row.lnR0 == pytest.approx(max_log_radius(row.lam), rel=1e-13)
            assert row.ratio == pytest.approx(row.lnR / row.lnR0, rel=1e-13)

    def test_sweep_is_deterministic(self):
        a = conjecture_sweep([0.15, 0.45])
        b = conjecture_sweep([0.15, 0.45])
        assert a.rows == b.rows

    def test_failed_row_is_collected_in_order(self, monkeypatch):
        original = slitmap.calibrate_candidate

        def refusing(q):
            if q == 0.2:
                raise CalibrationError("refused at q=0.2")
            return original(q)

        monkeypatch.setattr(slitmap, "calibrate_candidate", refusing)
        result = conjecture_sweep([0.3, 0.2, 0.1])
        assert [row.q for row in result.rows] == [0.3, 0.1]
        assert result.failures == ((0.2, "CalibrationError: refused at q=0.2"),)

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

    def test_floor_tracks_the_offset(self):
        with pytest.raises(FamilyBalanceError) as err:
            joukowski_family(0.5, 3.0)
        assert err.value.diagnostics["residual_floor"] == pytest.approx(0.5, abs=1e-9)
