"""Circle/path quadrature oracles and the univalence probe."""

import cmath
import math

import numpy as np
import pytest

from tubeflux import (
    Annulus,
    HoloFn,
    a0,
    circle_integral,
    laurent_coeff,
    path_integral,
    univalence_probe,
)
from tubeflux.expr import ExprError

ANN = Annulus(2.0)


def holo(text, ann=ANN):
    return HoloFn.parse(text, ann)


class TestAnnulus:
    def test_needs_outer_radius_above_one(self):
        with pytest.raises(ValueError, match="R > 1"):
            Annulus(1.0)
        with pytest.raises(ValueError):
            Annulus(0.5)

    def test_contains_is_strict(self):
        ann = Annulus(2.0)
        assert ann.contains(1.0)
        assert ann.contains(-1.99)
        assert not ann.contains(2.0)
        assert not ann.contains(0.5)
        assert not ann.contains(0.6, margin=0.25)

    def test_radii(self):
        ann = Annulus(4.0)
        assert ann.inner_radius == 0.25
        assert ann.radius_inside(0.5) == pytest.approx(1.0)


class TestCircleIntegral:
    def test_reciprocal_gives_full_residue(self):
        out = circle_integral(holo("1/z"), 1.0)
        assert abs(out - 2j * math.pi) < 1e-12

    def test_constant_integrates_to_zero(self):
        out = circle_integral(holo("3 + i"), 1.0)
        assert abs(out) < 1e-12

    def test_pole_outside_integrates_to_zero(self):
        out = circle_integral(holo("1/(z + 2)"), 1.0)
        assert abs(out) < 1e-12

    def test_radius_must_sit_inside_the_annulus(self):
        with pytest.raises(ValueError, match="not strictly inside"):
            circle_integral(holo("z"), 2.0)
        with pytest.raises(ValueError):
            circle_integral(holo("z"), 0.25)

    def test_n_points_validation(self):
        with pytest.raises(ValueError):
            circle_integral(holo("z"), 1.0, n_points=33)
        with pytest.raises(ValueError):
            circle_integral(holo("z"), 1.0, n_points=8)

    def test_explicit_n_points_matches_adaptive(self):
        h = holo("exp(z)/z")
        fixed = circle_integral(h, 1.0, n_points=512)
        auto = circle_integral(h, 1.0)
        assert abs(fixed - auto) < 1e-12


class TestLaurentCoefficients:
    def test_monomial_picks_out_its_own_index(self):
        assert abs(laurent_coeff(holo("z^2"), 2) - 1.0) < 1e-14

    def test_exponential_constant_term(self):
        assert abs(laurent_coeff(holo("exp(z)"), 0) - 1.0) < 1e-13

    def test_geometric_series_constant_term(self):
        # 1/(z+2) = 1/2 - z/4 + ... on |z| < 2
        assert abs(a0(holo("1/(z + 2)")) - 0.5) < 1e-13

    def test_trapezoid_is_exact_on_monomials(self):
        # with N nodes the rule is exact for |n - k| < N
        for n in range(-3, 4):
            h = holo(f"z^{n}") if n else holo("1")
            for k in range(-3, 4):
                want = 1.0 if n == k else 0.0
                got = laurent_coeff(h, k, n_points=64)
                assert abs(got - want) < 1e-14, (n, k)

    def test_radius_independence(self):
        h = holo("exp(z)*(1 + 1/(2*z))")
        for k in (-1, 0, 2):
            at1 = laurent_coeff(h, k, rho=1.0)
            athi = laurent_coeff(h, k, rho=1.7)
            atlo = laurent_coeff(h, k, rho=0.6)
            assert abs(at1 - athi) < 1e-10
            assert abs(at1 - atlo) < 1e-10


class TestPathIntegral:
    def test_radial_leg_accumulates_log(self):
        F = (holo("0"), holo("0"), holo("1/z"))
        for rho in (1.5, 0.8):
            out = path_integral(F, 1.0, rho)
            assert abs(out[0]) < 1e-12 and abs(out[1]) < 1e-12
            assert abs(out[2] - math.log(rho)) < 1e-12

    def test_constant_field_gives_displacement(self):
        F = (holo("1"), holo("0"), holo("0"))
        out = path_integral(F, 1.0, 1.0j)
        assert abs(out[0] - (1.0j - 1.0)) < 1e-12

    def test_half_turn_tie_goes_counterclockwise(self):
        # 1 -> -1 along the upper arc picks up half the residue of 1/z
        F = (holo("1/z"), holo("0"), holo("0"))
        out = path_integral(F, 1.0, -1.0)
        assert abs(out[0] - cmath.pi * 1j) < 1e-11

    def test_two_half_loops_recover_the_residue(self):
        F = (holo("1/z"), holo("0"), holo("0"))
        total = path_integral(F, 1.0, -1.0)[0] + path_integral(F, -1.0, 1.0)[0]
        direct = circle_integral(holo("1/z"), 1.0)
        assert abs(total - direct) < 1e-10
        assert abs(total - 2j * math.pi * laurent_coeff(holo("1/z"), -1)) < 1e-10

    def test_path_independence_for_exact_fields(self):
        # d(z^2/2) has no period: 1 -> z along any canonical route
        F = (holo("z"), holo("0"), holo("0"))
        for z1 in (1.3 + 0.4j, -0.9j, -1.2 + 0.1j):
            out = path_integral(F, 1.0, z1)
            assert abs(out[0] - (z1 * z1 - 1.0) / 2.0) < 1e-11

    def test_endpoints_must_be_inside(self):
        F = (holo("1"), holo("0"), holo("0"))
        with pytest.raises(ValueError, match="not inside the annulus"):
            path_integral(F, 1.0, 4.0)
        with pytest.raises(ValueError):
            path_integral(F, 0.1, 1.0)


class TestHoloFnAlgebra:
    def test_arithmetic_evaluates_pointwise(self):
        g = holo("z")
        h = (g * g + 1.0) / (2.0 - g)
        z = 0.7 + 0.3j
        assert abs(h(z) - ((z * z + 1.0) / (2.0 - z))) < 1e-15

    def test_reflected_operations(self):
        g = holo("z")
        assert abs((1.0 - g)(0.25j) - (1.0 - 0.25j)) < 1e-15
        assert abs((1.0 / g)(0.5) - 2.0) < 1e-15

    def test_integer_powers_only(self):
        g = holo("z")
        assert abs((g**3)(2.0) - 8.0) < 1e-15
        with pytest.raises(TypeError):
            g**0.5

    def test_annulus_mismatch_is_rejected(self):
        g = HoloFn.var(Annulus(2.0))
        h = HoloFn.var(Annulus(3.0))
        with pytest.raises(ValueError):
            g + h

    def test_derivative_of_parsed(self):
        d = holo("z^3").derivative()
        assert abs(d(1.5) - 6.75) < 1e-14

    def test_from_callable_without_derivative(self):
        g = HoloFn.from_callable("wrapped", lambda z: np.asarray(z) ** 2, ANN)
        assert abs(g(1.0 + 1.0j) - 2.0j) < 1e-15
        with pytest.raises(ExprError, match="wrapped"):
            g.derivative()

    def test_from_callable_with_derivative_node(self):
        from tubeflux.expr import Opaque

        dnode = Opaque("sq'", lambda z: 2.0 * np.asarray(z), None)
        g = HoloFn.from_callable("sq", lambda z: np.asarray(z) ** 2, ANN, deriv=dnode)
        assert abs(g.derivative()(1.5) - 3.0) < 1e-15


class TestUnivalenceProbe:
    def test_identity_passes(self):
        report = univalence_probe(holo("z"))
        assert report.univalent == "passed"
        assert report.omits_zero == "passed"
        assert report.zero_count == 0

    def test_square_is_flagged_with_a_witness(self):
        report = univalence_probe(holo("z^2"))
        assert report.univalent == "violated"
        assert report.witness is not None
        w1, w2 = report.witness
        g = holo("z^2")
        assert abs(w1 - w2) > 1e-6
        assert abs(g(w1) - g(w2)) < 1e-8

    def test_small_reciprocal_perturbation_passes(self):
        # z + kappa/z stays injective while |kappa| < 1/R^2
        report = univalence_probe(holo("z + 0.2/z"))
        assert report.univalent == "passed"
        assert report.omits_zero == "passed"

    def test_zero_inside_is_reported(self):
        report = univalence_probe(holo("z - 1.2"))
        assert report.omits_zero == "violated"
        assert report.zero_count == 1

    def test_division_by_zero_ends_only_that_try(self):
        # g vanishes at a node of the outer winding circle: the zero count
        # retries at a perturbed radius, and every preimage count still settles
        report = univalence_probe(HoloFn.var(ANN) - ANN.R ** 0.98)
        assert report.notes == ["winding at rho=1.97247 inconclusive, perturbing"]
        assert report.omits_zero == "violated"
        assert report.zero_count == 1
        assert report.univalent == "passed"
        assert report.n_targets == 32

    def test_overflowing_windings_are_inconclusive(self):
        # exp(400 z) overflows on the outer winding circle, so the winding
        # estimates there are NaN: unsettled, never rounded
        report = univalence_probe(holo("exp(400*z)"))
        assert report.omits_zero == "inconclusive"
        assert report.zero_count is None
        assert report.univalent == "inconclusive"
        assert report.n_targets == 0
        assert report.notes[:4] == [
            f"winding at rho={r:.6g} inconclusive, perturbing"
            for r in (1.97247, 1.97641, 1.98036, 1.9843)]
        assert report.notes[-1] == "no preimage count settled"

    def test_non_finite_target_is_skipped_after_every_retry(self):
        # exp(800 z) overflows at some of the sampled target points
        report = univalence_probe(holo("exp(800*z)"))
        assert report.univalent == "inconclusive"
        j = report.notes.index("target inf-infj skipped (winding unsettled)")
        retries = report.notes[j - 8:j]
        assert all(note.endswith("inconclusive, perturbing") for note in retries)
        assert retries[0] == "winding at rho=1.97247 inconclusive, perturbing"
        assert retries[4].startswith(f"winding at rho={ANN.R ** -0.98:.6g} ")
