"""Theta and Weierstrass-P checks against high-precision mpmath references.

The reference evaluations run at 60 significant digits: the classical
q-series for the thetas loses ~20 digits to cancellation for nearly real
arguments at large nome, so double-precision references would be garbage
exactly where our Gaussian-comb form is supposed to shine.
"""

import cmath
import math

import mpmath as mp
import numpy as np
import pytest

from tubeflux.elliptic import (
    EllipticParams,
    LatticePointError,
    theta1,
    theta1_prime,
    theta3,
    theta3_prime,
    wp,
    wp_prime,
)

Q_GRID = (0.005, 0.05, 0.3, 0.7, 0.9, 0.95)


def mp_ref(kind, v, q, derivative=0):
    with mp.workdps(60):
        out = mp.jtheta(kind, mp.mpc(v), mp.mpf(q), derivative=derivative)
        return complex(out)


def sample_points(q, rng):
    # generic strip points plus nearly-real and exactly real arguments,
    # which is where the plain q-series dies
    t = -math.log(q) / math.pi
    xs = rng.uniform(-math.pi, math.pi, size=4)
    ys = rng.uniform(0.0, math.pi * t / 2.0, size=4)
    pts = [complex(x, y) for x, y in zip(xs, ys)]
    pts += [complex(x, 1e-9) for x in xs[:2]]
    pts += [complex(x, 0.0) for x in xs[2:]]
    return pts


class TestThetaValues:
    @pytest.mark.parametrize("q", Q_GRID)
    def test_theta1_and_theta3_match_reference(self, q):
        rng = np.random.default_rng(int(q * 1000))
        for v in sample_points(q, rng):
            for kind, fn in ((1, theta1), (3, theta3)):
                ref = mp_ref(kind, v, q)
                got = fn(v, q)
                assert abs(got - ref) <= 1e-12 * (1.0 + abs(ref)), (q, v, kind)

    @pytest.mark.parametrize("q", Q_GRID)
    def test_theta_derivatives_match_reference(self, q):
        rng = np.random.default_rng(int(q * 1000) + 1)
        for v in sample_points(q, rng):
            for kind, fn in ((1, theta1_prime), (3, theta3_prime)):
                ref = mp_ref(kind, v, q, derivative=1)
                got = fn(v, q)
                assert abs(got - ref) <= 1e-12 * (1.0 + abs(ref)), (q, v, kind)

    def test_vector_evaluation_matches_scalar(self):
        # each point is summed on its own, so batching changes no bit; the
        # points span several teeth and reach above the strip, where the
        # number of teeth varies within the batch
        rng = np.random.default_rng(7)
        for q in (0.0025, 0.1, 0.72, 0.95):
            t = -math.log(q) / math.pi
            vs = rng.uniform(-4.0, 4.0, 40) + 1j * math.pi * t * rng.uniform(-0.5, 3.0, 40)
            for fn in (theta1, theta3, theta1_prime, theta3_prime):
                batch = fn(vs, q)
                assert list(batch) == [fn(complex(v), q) for v in vs], (q, fn.__name__)
                assert list(batch) == [fn(np.asarray(v), q) for v in vs], (q, fn.__name__)
                assert np.array_equal(fn(vs.reshape(5, 8), q), batch.reshape(5, 8))

    def test_scalar_input_returns_complex(self):
        assert isinstance(theta3(0.2, 0.3), complex)

    def test_nome_validation(self):
        for bad in (0.0, 1.0, -0.5, 1.5):
            with pytest.raises(ValueError, match="nome"):
                theta1(0.3, bad)


class TestThetaStructure:
    @pytest.mark.parametrize("q", (0.05, 0.5, 0.9))
    def test_parity(self, q):
        rng = np.random.default_rng(3)
        for v in rng.normal(size=5) + 0.2j * rng.random(5):
            assert abs(theta1(-v, q) + theta1(v, q)) <= 1e-13 * (1 + abs(theta1(v, q)))
            assert abs(theta3(-v, q) - theta3(v, q)) <= 1e-13 * (1 + abs(theta3(v, q)))

    @pytest.mark.parametrize("q", (0.05, 0.5, 0.9))
    def test_period_pi(self, q):
        rng = np.random.default_rng(4)
        for v in rng.normal(size=5) + 0.3j * rng.random(5):
            assert abs(theta3(v + math.pi, q) - theta3(v, q)) <= 1e-13 * (1 + abs(theta3(v, q)))
            assert abs(theta1(v + math.pi, q) + theta1(v, q)) <= 1e-13 * (1 + abs(theta1(v, q)))

    def test_quasi_period(self):
        # theta1(v + pi*tau) = -exp(-2iv)/q * theta1(v)
        q = 0.3
        t = -math.log(q) / math.pi
        rng = np.random.default_rng(5)
        for v in rng.normal(size=5) + 0.1j * rng.random(5):
            lhs = theta1(v + math.pi * 1j * t, q)
            rhs = -cmath.exp(-2j * v) / q * theta1(v, q)
            assert abs(lhs - rhs) <= 1e-12 * (1 + abs(rhs))

    def test_small_nome_q_series_agrees(self):
        # at tiny q the textbook series is safe; compare term by term sums
        q, v = 0.01, 0.7 + 0.2j
        s1 = sum(
            2 * (-1) ** n * q ** ((n + 0.5) ** 2) * cmath.sin((2 * n + 1) * v)
            for n in range(8)
        )
        s3 = 1 + sum(2 * q ** (n * n) * cmath.cos(2 * n * v) for n in range(1, 8))
        assert abs(theta1(v, q) - s1) <= 1e-13 * abs(s1)
        assert abs(theta3(v, q) - s3) <= 1e-13 * abs(s3)


class TestThetaNulls:
    @pytest.mark.parametrize("q", Q_GRID)
    def test_null_values_match_reference(self, q):
        t2, t3, t4 = EllipticParams(min(q, 0.95)).theta0
        for kind, val in ((2, t2), (3, t3), (4, t4)):
            ref = mp_ref(kind, 0.0, q).real
            assert abs(val - ref) <= 1e-13 * abs(ref), kind

    @pytest.mark.parametrize("q", (0.05, 0.3, 0.7, 0.95))
    def test_jacobi_quartic_identity(self, q):
        t2, t3, t4 = EllipticParams(q).theta0
        assert abs(t3**4 - t2**4 - t4**4) <= 1e-13 * t3**4

    @pytest.mark.parametrize("q", (0.05, 0.3, 0.7, 0.9))
    def test_derivative_null_product_identity(self, q):
        # theta1'(0) = theta2 * theta3 * theta4
        t2, t3, t4 = EllipticParams(q).theta0
        got = theta1_prime(0.0, q)
        assert abs(got - t2 * t3 * t4) <= 1e-12 * abs(got)


class TestBranchValues:
    @pytest.mark.parametrize("q", (0.1, 0.5, 0.9))
    def test_ordered_real_and_summing_to_zero(self, q):
        p = EllipticParams(q)
        assert p.e3 < p.e2 < p.e1
        scale = max(abs(p.e1), abs(p.e3))
        assert abs(p.e1 + p.e2 + p.e3) <= 1e-12 * scale

    @pytest.mark.parametrize("q", (0.1, 0.5, 0.9))
    def test_gap_formulas(self, q):
        # e1 - e2 closes up exponentially while the e's stay order one, so
        # the subtraction is only good to roundoff on the branch-value scale
        p = EllipticParams(q)
        t2, _, t4 = p.theta0
        pi2 = math.pi**2
        scale = max(abs(p.e1), abs(p.e3))
        assert abs((p.e1 - p.e2) - pi2 * t4**4) <= 1e-12 * scale
        assert abs((p.e2 - p.e3) - pi2 * t2**4) <= 1e-12 * scale

    @pytest.mark.parametrize("q", (0.1, 0.5, 0.9))
    def test_invariants_match_eisenstein_series(self, q):
        # g2 = (4 pi^4/3) E4 and g3 = (8 pi^6/27) E6, the Eisenstein series
        # in p = q^2, summed independently of the branch values
        with mp.workdps(60):
            pp = mp.mpf(q) ** 2
            e4 = 1 + 240 * mp.nsum(lambda k: k**3 * pp**k / (1 - pp**k), [1, mp.inf])
            e6 = 1 - 504 * mp.nsum(lambda k: k**5 * pp**k / (1 - pp**k), [1, mp.inf])
            g2 = float(4 * mp.pi**4 / 3 * e4)
            g3 = float(8 * mp.pi**6 / 27 * e6)
        p = EllipticParams(q)
        assert abs(p.g2 - g2) <= 1e-11 * (1 + abs(g2))
        assert abs(p.g3 - g3) <= 1e-11 * (1 + abs(g3))

    @pytest.mark.parametrize("q", (0.1, 0.5, 0.9))
    def test_half_period_values(self, q):
        p = EllipticParams(q)
        scale = max(abs(p.e1), abs(p.e3))
        assert abs(wp(0.5, p) - p.e1) <= 1e-9 * scale
        assert abs(wp(p.tau / 2.0, p) - p.e3) <= 1e-9 * scale
        assert abs(wp((1.0 + p.tau) / 2.0, p) - p.e2) <= 1e-9 * scale


class TestWeierstrassP:
    @pytest.mark.parametrize("q", (0.1, 0.3, 0.5, 0.9, 0.95))
    def test_against_jacobi_sn_route(self, q, sn_route_wp):
        # independent classical route: wp(u) = e3 + (e1-e3)/sn(u*sqrt(e1-e3))^2
        p = EllipticParams(q)
        rng = np.random.default_rng(int(q * 100))
        t = p.t
        for _ in range(5):
            u = complex(rng.uniform(0.1, 0.45), rng.uniform(0.05, 0.45) * t)
            ref = sn_route_wp(u, q)
            got = wp(u, p)
            assert abs(got - ref) <= 1e-10 * (1 + abs(ref)), (q, u)

    @pytest.mark.parametrize("q", (0.1, 0.5, 0.9))
    def test_differential_equation(self, q):
        p = EllipticParams(q)
        rng = np.random.default_rng(int(q * 77))
        t = p.t
        for _ in range(10):
            u = complex(rng.uniform(0.08, 0.42), rng.uniform(0.08, 0.42) * t)
            w = wp(u, p)
            dw = wp_prime(u, p)
            lhs = dw * dw
            rhs = 4.0 * w**3 - p.g2 * w - p.g3
            scale = abs(lhs) + abs(4.0 * w**3) + abs(p.g2 * w) + abs(p.g3) + 1.0
            assert abs(lhs - rhs) / scale < 1e-10, (q, u)

    def test_evenness(self):
        p = EllipticParams(0.3)
        rng = np.random.default_rng(9)
        for _ in range(50):
            u = complex(rng.uniform(-0.4, 0.4), rng.uniform(-0.4, 0.4) * p.t)
            if abs(u) < 0.05:
                continue
            a, b = wp(u, p), wp(-u, p)
            assert abs(a - b) <= 1e-11 * (1 + abs(a))

    @pytest.mark.parametrize("shift", (1.0, None))
    def test_periodicity(self, shift):
        p = EllipticParams(0.25)
        omega = shift if shift is not None else p.tau
        rng = np.random.default_rng(13)
        for _ in range(10):
            u = complex(rng.uniform(0.1, 0.4), rng.uniform(0.1, 0.4) * p.t)
            a, b = wp(u, p), wp(u + omega, p)
            assert abs(a - b) <= 1e-11 * (1 + abs(a))

    def test_lattice_points_are_rejected(self):
        p = EllipticParams(0.3)
        for u in (0.0, 1.0, p.tau, 2.0 + p.tau, 1e-12):
            with pytest.raises(LatticePointError):
                wp(u, p)
        with pytest.raises(LatticePointError):
            wp_prime(0.0, p)


class TestParams:
    def test_nome_range_guard(self):
        for bad in (0.0, -0.1, 0.951, 1.0):
            with pytest.raises(ValueError):
                EllipticParams(bad)
        EllipticParams(0.95)  # boundary value is allowed

    def test_derived_quantities(self):
        p = EllipticParams(0.25)
        assert p.t == pytest.approx(-math.log(0.25) / math.pi)
        assert p.tau == pytest.approx(1j * p.t)
        assert p.ring_radius == pytest.approx(2.0)
