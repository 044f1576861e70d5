"""Circle/path quadrature oracles and the univalence probe."""

import cmath
import math

import numpy as np
import pytest

from tubeflux import (
    Annulus,
    HoloFn,
    MinimalTube,
    a0,
    a0_pair,
    circle_integral,
    crossing_witness,
    laurent_coeff,
    path_integral,
    univalence_probe,
)
from tubeflux import contour, lifetime_report, tube_from_gauss
from tubeflux.contour import (
    PROBE_MARGIN, PROBE_TARGETS, TWO_PI_I, _on_integer, _settled_integer,
)
from tubeflux.expr import EvalDomainError, ExprError, Opaque, Var, evaluate

ANN = Annulus(2.0)


def holo(text, ann=ANN):
    return HoloFn.parse(text, ann)


class TestAnnulus:
    def test_needs_outer_radius_above_one(self):
        with pytest.raises(ValueError, match="R > 1"):
            Annulus(1.0)
        with pytest.raises(ValueError):
            Annulus(0.5)

    def test_needs_a_finite_outer_radius(self):
        with pytest.raises(ValueError, match="R > 1"):
            Annulus(math.inf)

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
        assert ann.contains(0.5)


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
        for rho in (0.0, -1.0):
            with pytest.raises(ValueError, match="rho must be positive"):
                circle_integral(holo("z"), rho)

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

    def test_non_finite_sample_is_refused_at_its_first_point(self):
        sizes = []

        def nan_below(z):
            sizes.append(len(z))
            return np.where(z.imag < -0.5, np.nan, z)

        with pytest.raises(EvalDomainError, match="non-finite integrand") as err:
            circle_integral(nan_below, 1.0)
        assert sizes == [1024]  # no doubling after the bad sample
        theta = 2.0 * math.pi * np.arange(1024) / 1024
        first = np.exp(1j * theta[np.argmax(np.sin(theta) < -0.5)])
        assert err.value.z == first

    @pytest.mark.filterwarnings("error")
    def test_overflowing_sum_of_finite_samples_is_refused(self):
        # every sample is 1e308, but 1024 of them sum past the largest float
        with pytest.raises(OverflowError, match="is not finite at n=1024 nodes"):
            circle_integral(lambda z: 1e308 + 0 * z, 1.0)

    def test_non_finite_row_of_a_stack_is_refused(self):
        # exp(800 z) overflows on the unit circle near z = 1
        h = holo("exp(800*z)/z^2")
        with pytest.raises(EvalDomainError, match=r"non-finite integrand at z=\(1\+0j\)"):
            circle_integral(lambda z: np.stack([z, h(z)]), 1.0)


class TestNestedLevels:
    """Each doubling samples h on the new nodes only; the sums are unchanged."""

    @pytest.mark.parametrize("q", [0.1, 0.72])
    def test_reuse_equals_one_level_where_it_settled(self, candidate, count_levels, q):
        levels = count_levels()
        g = candidate(q).g
        for h in (g, 1 / g):
            levels.clear()
            got = circle_integral(h, 1.0)
            assert got == circle_integral(h, 1.0, n_points=max(levels))

    @pytest.mark.parametrize("q", [0.0025, 0.1, 0.33])
    def test_slit_loop_integrals_keep_their_levels(self, candidate, count_levels, q):
        data = tube_from_gauss(candidate(q).g, 1.0)
        levels = count_levels()
        circle_integral(data, 1.0)
        assert levels == [1024, 2048]

    def test_noise_limited_loop_integrals_stop_at_the_rounding_floor(
            self, candidate, count_levels):
        # at q = 0.72 the phi_2 deltas (2e-11 .. 6e-11) never meet QUAD_TOL
        # but sit below the sum's rounding level (about 1.2e-10 per eps)
        data = tube_from_gauss(candidate(0.72).g, 1.0)
        levels = count_levels()
        circle_integral(data, 1.0)
        assert max(levels) <= 4096


class TestLaurentCoefficients:
    def test_monomial_picks_out_its_own_index(self):
        assert abs(laurent_coeff(holo("z^2"), 2) - 1.0) < 1e-14
        assert abs(laurent_coeff(holo("z^2"), np.int64(2)) - 1.0) < 1e-14

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
                got = circle_integral(lambda z: h(z) * z ** (-k - 1), 1.0,
                                      n_points=64) / TWO_PI_I
                assert abs(got - want) < 1e-14, (n, k)

    def test_radius_independence(self):
        h = holo("exp(z)*(1 + 1/(2*z))")
        for k in (-1, 0, 2):
            at1 = laurent_coeff(h, k, rho=1.0)
            athi = laurent_coeff(h, k, rho=1.7)
            atlo = laurent_coeff(h, k, rho=0.6)
            assert abs(at1 - athi) < 1e-10
            assert abs(at1 - atlo) < 1e-10

    @pytest.mark.parametrize("k", [0.5, 1.0, -1.5, True])
    def test_index_must_be_an_integer(self, k):
        # z^(-k-1) of a fractional k has a branch cut on the circle (k = 0.5
        # would give -0.2122-1.5e-5j for z^2); True would give a_1, as
        # HoloFn powers refuse a boolean too
        with pytest.raises(TypeError, match=f"must be an integer, got k={k}"):
            laurent_coeff(holo("z^2"), k)

    def test_negative_radius_is_refused_as_not_positive(self):
        # Annulus.contains reads |rho|, so positivity is checked first: |-3|
        # lies past R = 2 and 0 short of 1/R, yet every entry point says so
        g = holo("z + 3")
        for rho in (-1.0, -3.0, 0.0):
            for fn in (lambda: circle_integral(g, rho), lambda: laurent_coeff(g, 1, rho),
                       lambda: a0(g, rho), lambda: a0_pair(g, rho),
                       lambda: crossing_witness(g, rho, 0.5)):
                with pytest.raises(ValueError, match="rho must be positive"):
                    fn()


class TestPathIntegral:
    def test_radial_leg_accumulates_log(self):
        for rho in (1.5, 0.8):
            out = path_integral(holo("1/z"), 1.0, rho)
            assert abs(out - math.log(rho)) < 1e-12

    def test_constant_field_gives_displacement(self):
        out = path_integral(holo("1"), 1.0, 1.0j)
        assert abs(out - (1.0j - 1.0)) < 1e-12

    def test_half_turn_tie_goes_counterclockwise(self):
        # 1 -> -1 along the upper arc picks up half the residue of 1/z
        out = path_integral(holo("1/z"), 1.0, -1.0)
        assert abs(out - cmath.pi * 1j) < 1e-11

    def test_two_half_loops_recover_the_residue(self):
        h = holo("1/z")
        total = path_integral(h, 1.0, -1.0) + path_integral(h, -1.0, 1.0)
        direct = circle_integral(h, 1.0)
        assert abs(total - direct) < 1e-10
        assert abs(total - 2j * math.pi * laurent_coeff(h, -1)) < 1e-10

    def test_path_independence_for_exact_fields(self):
        # d(z^2/2) has no period: 1 -> z along any canonical route
        for z1 in (1.3 + 0.4j, -0.9j, -1.2 + 0.1j):
            out = path_integral(holo("z"), 1.0, z1)
            assert abs(out - (z1 * z1 - 1.0) / 2.0) < 1e-11

    def test_endpoints_must_be_inside(self):
        with pytest.raises(ValueError, match="not inside the annulus"):
            path_integral(holo("1"), 1.0, 4.0)
        with pytest.raises(ValueError):
            path_integral(holo("1"), 0.1, 1.0)

    def test_stacked_integrand_gives_one_integral_per_row(self):
        h = holo("1/z")
        out = path_integral(lambda z: np.stack([h(z), 2.0 * h(z)]), 1.0, 1.5)
        assert out.shape == (2,)
        assert abs(out[0] - math.log(1.5)) < 1e-12
        assert abs(out[1] - 2.0 * math.log(1.5)) < 1e-12

    def test_non_finite_sample_is_refused_with_its_point(self):
        # exp(800 z) overflows past Re z = 0.887 on the radial leg 0.6 -> 1.5
        with pytest.raises(EvalDomainError, match="non-finite integrand") as err:
            path_integral(holo("exp(800*z)"), 0.6, 1.5)
        assert 0.887 < err.value.z.real < 0.95 and err.value.z.imag == 0.0
        with pytest.raises(EvalDomainError, match="non-finite integrand"):
            path_integral(lambda z: np.stack([z, np.where(z.real > 1.2, np.inf, z)]), 1.0, 1.5)

    def test_empty_path_gives_zeros_of_the_integrand_shape(self):
        data = tube_from_gauss(holo("z + 0.2/z"), 1.5)
        out = path_integral(data, 1.0, 1.0)
        assert out.shape == (3,) and not np.any(out)
        assert path_integral(holo("z"), 1.0, 1.0) == 0.0


class TestA0Pair:
    @pytest.mark.parametrize("text", ["z + 0.2/z", "exp(z) + 3", "(z - 0.1)/(z + 0.3)"])
    def test_pair_equals_two_separate_means(self, text):
        g = holo(text)
        for rho in (1.0, 0.7):
            m, minv = a0_pair(g, rho)
            assert m == a0(g, rho) and minv == a0(1 / g, rho)

    def test_zero_on_the_circle_is_refused_with_its_point(self):
        with pytest.raises(EvalDomainError, match="division by zero") as err:
            a0_pair(holo("z - 1"))
        assert err.value.z == 1.0

    def test_radius_must_be_inside_the_annulus(self):
        with pytest.raises(ValueError, match="not strictly inside"):
            a0_pair(holo("z + 3"), rho=2.5)


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

    def test_numpy_integer_power_is_a_python_int(self):
        g = holo("z") ** np.int64(-2)
        assert type(g.node.exponent) is int and str(g) == "z^-2"
        assert abs(g(2.0) - 0.25) < 1e-15

    def test_boolean_power_is_refused(self):
        with pytest.raises(TypeError, match="only integer powers"):
            holo("z") ** True

    def test_annulus_mismatch_is_rejected(self):
        g = HoloFn.var(Annulus(2.0))
        h = HoloFn.var(Annulus(3.0))
        with pytest.raises(ValueError):
            g + h

    def test_derivative_of_parsed(self):
        d = holo("z^3").derivative()
        assert abs(d(1.5) - 6.75) < 1e-14

    def test_from_callable_without_derivative(self):
        g = HoloFn(Opaque("wrapped", lambda z: np.asarray(z) ** 2, None), ANN)
        assert abs(g(1.0 + 1.0j) - 2.0j) < 1e-15
        with pytest.raises(ExprError, match="wrapped"):
            g.derivative()

    def test_from_callable_with_derivative_node(self):
        dnode = Opaque("sq'", lambda z: 2.0 * np.asarray(z), None)
        g = HoloFn(Opaque("sq", lambda z: np.asarray(z) ** 2, dnode), ANN)
        assert abs(g.derivative()(1.5) - 3.0) < 1e-15

    def test_600_sums_make_the_tube_of_z(self):
        # g + 0*z, 600 times, once ended in a RecursionError inside
        # MinimalTube: its values and derivative are those of g = z
        g = zero = HoloFn.var(ANN)
        for _ in range(600):
            g = g + 0 * zero
        deep, flat = (MinimalTube(tube_from_gauss(h, 1.0)) for h in (g, HoloFn.var(ANN)))
        assert deep.flux == flat.flux
        assert lifetime_report(deep) == lifetime_report(flat)

    def test_10000_deep_tree_differentiates_evaluates_and_prints(self):
        # every walk is iterative, so a tree ten times as deep as Python's
        # default recursion limit goes through all three; values are
        # compared, not trees, since a dataclass's == recurses
        z = g = HoloFn.var(ANN)
        zs = np.array([1.2, -0.7j, 0.9 + 0.3j])
        want, slope_want = zs, np.ones(3, complex)
        for _ in range(2500):  # four levels a round
            g = (-g + 1j) * 0.5 + z
            want, slope_want = (-want + 1j) * 0.5 + zs, -slope_want * 0.5 + 1
        value, slope = evaluate([g.node, g.derivative().node], zs)
        assert np.allclose(value, want, rtol=1e-15, atol=0.0)
        assert np.allclose(slope, slope_want, rtol=1e-15, atol=0.0)
        assert str(g) == ("(-(" * 2499 + "(-z + i)*0.5 + z" + ") + i)*0.5 + z" * 2499)

    def test_chain_of_1000_quotients_is_probed(self):
        # z^-1000, whose derivative is a chain three times as deep; R = 1.05
        # keeps the values below 1e25 on the annulus, so the sums stay finite
        ann = Annulus(1.05)
        z = g = HoloFn.var(ann)
        for _ in range(1000):
            g = g / z
        report = univalence_probe(g)
        assert report.univalent == "violated" and report.zero_count == 0

    @pytest.mark.parametrize("annulus", [None, 2.0])
    def test_annulus_is_required(self, annulus):
        with pytest.raises(TypeError, match="needs an Annulus"):
            HoloFn(Var(), annulus)


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

    def test_pole_on_a_node_ends_the_try_for_every_target(self):
        # g has a pole at a node of the outer winding circle, so its sample
        # there cannot be evaluated: every count, the zero count included,
        # retries at a perturbed radius and settles with the pole inside
        report = univalence_probe(1 / (HoloFn.var(ANN) - ANN.R ** 0.98))
        assert report.notes == ["winding at rho=1.97247 inconclusive, perturbing"]
        assert report.zero_count == -1 and report.omits_zero == "violated"
        assert report.univalent == "passed" and report.n_targets == 32

    def test_pole_hidden_by_a_zero_withdraws_the_zero_count(self):
        # zero 0.5 and pole -2 both lie between the circles: zeros minus poles
        # is 0, yet each target counted below one preimage shows the pole
        g = holo("2*(z - 0.5)/(z + 2)", Annulus(3.0))
        report = univalence_probe(g)
        assert report.zero_count is None and report.omits_zero == "inconclusive"
        zt = contour._sample_points(g.annulus)[0]
        assert report.notes == [
            f"sample point {zt:.6g} counted 0 preimages: g has a pole between the "
            "circles, so its zero count is withdrawn"]
        assert report.univalent == "passed" and report.n_targets == 32

    def test_a_pole_shown_after_a_violation_still_withdraws_the_zero_count(self, monkeypatch):
        # the zero count is 0, target 2 is counted twice and target 9 not at
        # all: the violation ends the counting, but target 9 still shows a pole
        outer = [0] + [1] * PROBE_TARGETS
        outer[1 + 2], outer[1 + 9] = 2, 0
        winds = iter([outer, [0] * (1 + PROBE_TARGETS)])
        monkeypatch.setattr(contour, "_windings", lambda g, gprime, rho, ws, *rest: (
            next(winds), []))
        report = univalence_probe(HoloFn.var(ANN))
        zt = contour._sample_points(ANN)[9]
        assert report.zero_count is None and report.omits_zero == "inconclusive"
        assert report.notes == [
            f"sample point {zt:.6g} counted 0 preimages: g has a pole between the "
            "circles, so its zero count is withdrawn"]
        assert report.univalent == "violated" and report.n_targets == 3

    def test_retry_radius_outside_the_annulus_leaves_the_count_unsettled(self):
        # the outer circle R^0.98 hits the zero of g, and on a thin annulus
        # its first retry radius R^0.98 * 1.002 already lies past the rim
        ann = Annulus(1.1)
        report = univalence_probe(HoloFn.var(ann) - ann.R ** 0.98)
        assert report.omits_zero == "inconclusive"
        assert report.zero_count is None
        assert report.notes == [
            "winding at rho=1.09791 inconclusive, perturbing",
            "retry radius rho=1.1001 leaves the annulus, winding left unsettled"]

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
        # the 8 circle tries (4 outer radii, then 4 inner) come before the
        # skipped targets
        retries = report.notes[:8]
        assert all(note.endswith("inconclusive, perturbing") for note in retries)
        assert retries[0] == "winding at rho=1.97247 inconclusive, perturbing"
        assert retries[4].startswith(f"winding at rho={ANN.R ** -0.98:.6g} ")
        # every target is skipped, named by its sample point, since several
        # values (inf-infj among them) print alike
        points = contour._sample_points(ANN)
        assert report.notes[8:-1] == [
            f"sample point {zt:.6g} skipped (winding unsettled)" for zt in points]

    def test_unevaluable_target_points_are_noted_one_by_one(self):
        # g refuses one of the sampled target points, so the one call for all
        # 32 targets fails and they are taken point by point
        points = contour._sample_points(ANN)
        z = HoloFn.var(ANN)
        p = complex(points[5])
        report = univalence_probe(z + 0.01 / (z - p))
        assert [n for n in report.notes if "not evaluable" in n] == [
            f"sample point {p:.6g} not evaluable"]

    @pytest.mark.parametrize("g, n_notes", [
        (1 / (HoloFn.var(ANN) - ANN.R ** 0.98), 1), (holo("exp(400*z)"), 39),
        (holo("exp(800*z)"), 41)])
    def test_no_try_note_repeats(self, g, n_notes):
        # one sample serves every target, so a try is noted once for all,
        # and a skipped target is named by its own sample point
        notes = univalence_probe(g).notes
        assert len(set(notes)) == len(notes) == n_notes

    @pytest.mark.parametrize("count, omits", [
        (None, "inconclusive"), (0, "passed"), (-1, "violated"), (1, "violated")])
    def test_omits_zero_follows_the_zero_count(self, count, omits):
        assert contour.ProbeReport("passed", zero_count=count, witness=None,
                                   n_targets=0, notes=[]).omits_zero == omits

    @pytest.mark.parametrize("case", ["z + 0.2/z", "exp(z/3) + 0.1/z", "log(z + 3)*z",
                                      0.0025, 0.1, 0.72, 0.95])
    def test_targets_in_one_call_equal_one_call_per_point(self, candidate, case):
        g = holo(case) if isinstance(case, str) else candidate(case).g
        points = contour._sample_points(g.annulus)
        assert g(points).tobytes() == np.array([g(z) for z in points]).tobytes()


class TestWindingStops:
    """A winding sum also stops once it sits on an integer at two levels."""

    def test_integer_stop_needs_two_levels_on_one_integer(self):
        def on(prev, cur):
            return _on_integer(prev * TWO_PI_I, cur * TWO_PI_I)

        assert on(3 + 9e-4, 3 - 9e-7)
        assert on(-1 + 5e-4j, -1 + 5e-7j)
        assert not on(3 + 2e-3, 3 + 1e-7)  # the level before was too far
        assert not on(3 + 1e-4, 3 + 2e-6)  # this level is not close enough
        assert not on(2 + 1e-7, 3 + 1e-7)  # two different integers
        assert not on(float("nan"), 3.0)
        assert not on(3.0, complex("inf"))

    # with the 1e-8 relative test alone the windings went to 8,192, 16,384
    # and the 65,536 cap; q = 0.1 went to 2,048 before each target's own pole
    # was removed in closed form, and 1,024 / 4,096 / 8,192 / 16,384 before
    # g's rim divisor was
    @pytest.mark.parametrize("q, top", [(0.1, 256), (0.6, 1024), (0.72, 2048), (0.9, 8192)])
    def test_slit_windings_stop_on_their_integer(self, candidate, count_levels, q, top):
        g = candidate(q).g
        levels = count_levels()
        univalence_probe(g)
        assert max(levels) == top


def divisor_poles(g, w):
    """The (point, residue) of each pole that g's divisor gives g'/(g - w):
    every pole of g, and the zeros of g when w = 0."""
    return [(p, m) for p, m in g.divisor if m < 0 or w == 0]


def per_target_sums(g, rho, ws, n):
    """Each target's winding sum over all n nodes of |z| = rho, formed apart:
    (2 pi i/n) sum(zeta (g'/(g - w))), less the trapezoid error of each
    divisor pole of residue m at p (the n nodes sum zeta/(zeta - p) to
    n/(1 - r), r = (p/rho)^n, inside and to -n r/(1 - r), r = (rho/p)^n,
    outside), and the rounding level of that sum."""
    zeta = contour._circle_nodes(rho, n)
    dv, gv = evaluate([g.derivative().node, g.node], zeta)
    sums = []
    for w in ws:
        terms = zeta * (dv / (gv - w))
        err = 0j
        for p, m in divisor_poles(g, w):
            inside = abs(p) < rho
            r = (p / rho if inside else rho / p) ** n
            err += TWO_PI_I * m * r / (1 - r) * (1 if inside else -1)
        sums.append(((TWO_PI_I / n) * np.sum(terms) - err,
                     contour.ROUND_EPS * (2.0 * math.pi / n) * np.sum(np.abs(terms))))
    return sums


def nested_sums(g, rho, ws, n, zs=None, block=contour.WINDING_BLOCK):
    """The winding sums of every target at level n, reached from WINDING_N0
    nodes by doubling; zs are the targets' known preimages (default none)."""
    quad = contour._winding_level(g, g.derivative(), rho, ws, zs or [None] * len(ws), block)
    level = contour.WINDING_N0
    while True:
        sums, floors = quad(level, list(range(len(ws))))
        assert floors == [0.0] * len(ws)
        if level == n:
            return sums
        level *= 2


def probe_targets(g):
    """The probe's targets, w = 0 first, and their known preimages."""
    points = contour._sample_points(g.annulus)
    return [0j] + [complex(w) for w in g(points)], [None] + [complex(zt) for zt in points]


def sum_bytes(sums):
    return [None if s is None else np.complex128(s).tobytes() for s in sums]


class TestBufferedWindingSums:
    """Each level evaluates (g', g) on its new nodes only and adds their terms
    to one running sum per target; the live targets are summed in one
    broadcast over blocks of rows held in two buffers a level.

    The nested sums are not those of one full level bit for bit, since the
    levels are summed apart, but they agree to the rounding level of a
    circle sum (ROUND_EPS (2 pi/n) sum |terms|, as circle_integral's floor):
    measured at most 2.3e-16 of it here.  The block size does not move them
    at all.  A target's own pole, and each pole that g's rim divisor gives
    its integrand, is removed in closed form; that equals subtracting
    m/(z - p) at every node and adding its exact integral.
    """

    @pytest.mark.parametrize("n", [1024, 2048, 4096, 8192])
    @pytest.mark.parametrize("case", [0.1, 0.9, "1.3*z - 0.1/z"])
    def test_sums_equal_the_per_target_expression(self, candidate, case, n):
        g = candidate(case).g if isinstance(case, float) else holo(case, Annulus(2.2))
        ws, _ = probe_targets(g)
        for rho in (g.annulus.R ** (1.0 - PROBE_MARGIN), g.annulus.R ** (PROBE_MARGIN - 1.0)):
            got = nested_sums(g, rho, ws, n)
            for s, (want, level) in zip(got, per_target_sums(g, rho, ws, n)):
                assert abs(s - want) <= level

    @pytest.mark.parametrize("n", [128, 256, 1024])
    @pytest.mark.parametrize("case", [0.1, "1.3*z - 0.1/z", "z"])
    def test_pole_correction_equals_subtracting_the_pole_at_each_node(
            self, candidate, case, n):
        g = candidate(case).g if isinstance(case, float) else holo(case, Annulus(2.2))
        ws, zs = probe_targets(g)
        for rho in (g.annulus.R ** (1.0 - PROBE_MARGIN), g.annulus.R ** (PROBE_MARGIN - 1.0)):
            got = nested_sums(g, rho, ws, n, zs)
            zeta = contour._circle_nodes(rho, n)
            dv, gv = evaluate([g.derivative().node, g.node], zeta)
            for s, w, zt in zip(got, ws, zs):
                poles = divisor_poles(g, w) + ([] if zt is None else [(zt, 1)])
                rest = dv / (gv - w) - sum(m / (zeta - p) for p, m in poles)
                want = (TWO_PI_I / n) * np.sum(zeta * rest) + TWO_PI_I * sum(
                    m * (abs(p) < rho) for p, m in poles)
                assert abs(s - want) < 1e-12

    def test_pole_correction_settles_a_lone_simple_root_at_the_first_level(self):
        # g = z: g'/(g - w) is the target's own pole alone, which the
        # uncorrected sum misses by r/(1 - r), 0.17 at 128 nodes on R = 2
        g = HoloFn.var(ANN)
        ws, zs = probe_targets(g)
        for rho, inside in ((ANN.R ** 0.98, 1), (ANN.R ** -0.98, 0)):
            got = nested_sums(g, rho, ws[1:], 128, zs[1:])
            assert all(abs(s / TWO_PI_I - inside) < 1e-12 for s in got)
            raw = nested_sums(g, rho, ws[1:], 128)
            assert max(abs(s / TWO_PI_I - inside) for s in raw) > 0.1

    @pytest.mark.parametrize("block", [1, 3 * 512, 2 ** 30])
    def test_block_size_does_not_change_the_sums(self, candidate, block):
        g = candidate(0.1).g
        ws, zs = probe_targets(g)
        for rho in (g.annulus.R ** 0.98, g.annulus.R ** -0.98):
            want = nested_sums(g, rho, ws, 1024, zs)
            assert sum_bytes(nested_sums(g, rho, ws, 1024, zs, block)) == sum_bytes(want)

    def test_a_zero_of_g_minus_w_at_a_node_gives_none(self):
        g = HoloFn.var(ANN)
        nodes = contour._circle_nodes(1.5, 256)
        # g - w is 0 at node 8 of the first level, and at node 7 of the second
        ws = [complex(nodes[8]), complex(nodes[7]), 0.3j, complex("nan")]
        quad = contour._winding_level(g, g.derivative(), 1.5, ws, [None] * 4)
        first, _ = quad(128, [0, 1, 2, 3])
        assert first[0] is None and first[3] is None and None not in first[1:3]
        second, _ = quad(256, [1, 2])
        assert second[0] is None and _settled_integer(second[1]) == 1

    def test_an_overflowing_sample_gives_a_non_finite_sum_that_keeps_refining(self):
        levels = []

        def tiny(z):  # g'/(g - w) overflows at every node, and g - w has no zero
            levels.append(len(z))
            return np.full(np.shape(z), 1e-20 + 0j)

        g = HoloFn(Opaque("tiny", tiny, Opaque("huge", lambda z: np.full(np.shape(z), 1e300 + 0j))),
                   ANN)
        quad = contour._winding_level(g, g.derivative(), 1.0, [0j], [None])
        est = contour._refine(quad, 1, 128, 512, 1e-8, _on_integer)
        assert levels == [128, 128, 256]  # the new nodes of each level
        assert est[0] is not None and not np.isfinite(est[0])
