"""Ring-module closed forms, the grid conductance estimator, and crossings."""

import math

import numpy as np
import pytest
import scipy.sparse.linalg as spla

from tubeflux import (
    Annulus,
    HoloFn,
    RingDomain,
    circle_family_module,
    comparison_ring_module,
    crossing_witness,
    grid_module_estimate,
    joining_family_module,
    joukowski_map,
    max_log_radius,
    mobius_to_annulus,
)
from tubeflux import modulus
from tubeflux.modulus import _assemble, _grid_energy, _hierarchy, _vcycle


class TestClosedForms:
    def test_circle_family(self):
        assert circle_family_module(math.e) == pytest.approx(1.0 / math.pi, rel=1e-14)
        assert circle_family_module(math.exp(math.pi)) == pytest.approx(1.0, rel=1e-14)
        with pytest.raises(ValueError):
            circle_family_module(1.0)

    def test_joining_family(self):
        assert joining_family_module(math.e) == pytest.approx(2.0 * math.pi, rel=1e-14)
        assert joining_family_module(math.exp(2 * math.pi)) == pytest.approx(1.0, rel=1e-14)
        with pytest.raises(ValueError):
            joining_family_module(0.9)

    def test_comparison_ring_values(self):
        assert comparison_ring_module(1.0) == pytest.approx(math.pi / math.asinh(1.0), rel=1e-14)
        assert comparison_ring_module(1.0) == pytest.approx(3.5644279563, abs=1e-9)
        assert comparison_ring_module(2.0) == pytest.approx(math.pi / math.asinh(2.0), rel=1e-14)
        assert comparison_ring_module(math.sinh(math.pi)) == pytest.approx(1.0, rel=1e-13)

    def test_max_log_radius_values(self):
        assert max_log_radius(1.0) == pytest.approx(math.pi**2 / math.asinh(1.0), rel=1e-14)
        assert max_log_radius(1.0) == pytest.approx(11.1979806824, abs=1e-9)
        assert max_log_radius(math.sinh(math.pi)) == pytest.approx(math.pi, rel=1e-13)

    @pytest.mark.parametrize("fn", [comparison_ring_module, max_log_radius,
                                    mobius_to_annulus, RingDomain.comparison])
    @pytest.mark.parametrize("lam", [0.0, -1.0, math.inf, math.nan])
    def test_lambda_must_be_positive_and_finite(self, fn, lam):
        with pytest.raises(ValueError, match=r"need 0 < lambda < inf"):
            fn(lam)

    def test_comparison_equals_its_mapped_round_ring(self):
        # the slit ring and the round ring it maps to share one module
        rng = np.random.default_rng(23)
        for lam in rng.uniform(0.05, 50.0, size=50):
            ls = math.sqrt(lam * lam + 1.0) - lam
            via_ratio = joining_family_module(1.0 / ls**2)
            direct = comparison_ring_module(lam)
            assert abs(direct - via_ratio) <= 1e-12 * direct, lam


class TestMobiusTransport:
    def test_unit_slit_parameters(self):
        mt = mobius_to_annulus(1.0)
        assert mt.lambda_star == pytest.approx(math.sqrt(2.0) - 1.0, rel=1e-14)
        assert mt.annulus_ratio == pytest.approx(5.8284271247, abs=1e-9)

    def test_origin_goes_to_one(self):
        for lam in (0.5, 1.0, 2.0, 10.0):
            mt = mobius_to_annulus(lam)
            assert abs(mt.map(0.0) - 1.0) < 1e-14

    @pytest.mark.parametrize("lam", (0.5, 1.0, 2.0, 10.0))
    def test_boundary_components_land_on_circles(self, lam):
        mt = mobius_to_annulus(lam)
        c = 1.0 / (2.0 * lam)
        # circle through 0 and -2c with center -c: one boundary of the slit ring
        phis = np.linspace(0.0, 2.0 * math.pi, 200, endpoint=False)
        circle = -c + c * np.exp(1j * phis)
        w = np.asarray([mt.map(z) for z in circle])
        assert np.max(np.abs(np.abs(w) - 1.0)) < 1e-10
        # vertical line through lam: the other boundary
        ys = lam * np.tan(np.linspace(-1.5, 1.5, 200))
        line = lam + 1j * ys
        w = np.asarray([mt.map(z) for z in line])
        assert np.max(np.abs(np.abs(w) - mt.annulus_ratio)) < 1e-10 * mt.annulus_ratio

    def test_endpoint_of_slit_hits_outer_circle(self):
        mt = mobius_to_annulus(1.0)
        assert abs(abs(mt.map(1.0)) - mt.annulus_ratio) < 1e-12


class TestDomainDescriptors:
    def test_annulus_kind(self):
        dom = RingDomain.from_json({"kind": "annulus", "ratio": math.e})
        assert dom.exact_module == pytest.approx(2.0 * math.pi, rel=1e-14)
        assert dom.descriptor["kind"] == "annulus"

    def test_box_conductor_kind(self):
        dom = RingDomain.from_json({"kind": "box_conductor", "width": 1.0, "height": 1.0})
        assert dom.exact_module == pytest.approx(1.0)

    def test_comparison_kind(self):
        dom = RingDomain.from_json({"kind": "D", "lambda": 1.0})
        assert dom.exact_module == pytest.approx(comparison_ring_module(1.0), rel=1e-14)
        assert dom.box[1] == pytest.approx(1.0)

    def test_comparison_constructor_box_scaling(self):
        dom = RingDomain.comparison(0.25)
        x0, x1, y0, y1 = dom.box
        assert x1 == pytest.approx(0.25)
        assert y1 == pytest.approx(64.0)  # 16 / lambda
        assert x0 < -y1  # deep enough to the left to bury the far slit end

    def test_error_messages(self):
        with pytest.raises(ValueError, match="'kind'"):
            RingDomain.from_json([1, 2, 3])
        with pytest.raises(ValueError, match="ratio > 1"):
            RingDomain.from_json({"kind": "annulus", "ratio": 0.5})
        with pytest.raises(ValueError, match="lambda > 0"):
            RingDomain.from_json({"kind": "D", "lambda": -1.0})
        with pytest.raises(ValueError, match="positive width"):
            RingDomain.from_json({"kind": "box_conductor", "width": 0.0, "height": 1.0})
        with pytest.raises(ValueError, match="unknown domain kind"):
            RingDomain.from_json({"kind": "pretzel"})
        with pytest.raises(ValueError, match="finite height"):
            RingDomain.from_json({"kind": "box_conductor", "height": float("nan")})
        with pytest.raises(ValueError, match="finite ratio"):  # past float range
            RingDomain.from_json({"kind": "annulus", "ratio": 10 ** 400})
        # JSON strings and booleans are not numbers, whatever float() makes of them
        with pytest.raises(ValueError, match="finite ratio, got '2.5'"):
            RingDomain.from_json({"kind": "annulus", "ratio": "2.5"})
        with pytest.raises(ValueError, match="finite width, got True"):
            RingDomain.from_json({"kind": "box_conductor", "width": True, "height": "1"})


class TestGridEstimator:
    @pytest.mark.parametrize("h", [0.0, math.nan, -0.1, math.inf])
    def test_spacing_must_be_positive_and_finite(self, h):
        dom = RingDomain.from_json({"kind": "box_conductor", "width": 1.0, "height": 1.0})
        with pytest.raises(ValueError) as err:
            grid_module_estimate(dom, h)
        assert str(err.value) == f"grid spacing must be positive and finite, got h={h}"

    def test_unit_square_is_exact(self):
        dom = RingDomain.from_json({"kind": "box_conductor", "width": 1.0, "height": 1.0})
        est = grid_module_estimate(dom, 0.1)
        assert abs(est.value - 1.0) < 1e-10
        assert est.indicator < 1e-10
        assert est.dof > 0

    def test_rectangle_two_to_one(self):
        # plates here fall between grid lines, so the fractional cut arms
        # leave a small but controlled discretisation error
        dom = RingDomain.from_json({"kind": "box_conductor", "width": 2.0, "height": 1.0})
        est = grid_module_estimate(dom, 0.1)
        assert abs(est.value - 0.5) < 1e-4
        assert est.indicator < 1e-3

    def test_round_ring_converges_to_two_pi(self):
        dom = RingDomain.from_json({"kind": "annulus", "ratio": math.e})
        est = grid_module_estimate(dom, 0.1)
        assert abs(est.value - 2.0 * math.pi) <= 0.005 * 2.0 * math.pi
        assert est.indicator < 0.01

    def test_indicator_shrinks_under_refinement(self):
        dom = RingDomain.from_json({"kind": "annulus", "ratio": math.e})
        coarse = grid_module_estimate(dom, 0.08)
        fine = grid_module_estimate(dom, 0.04)
        assert fine.value == pytest.approx(2.0 * math.pi, rel=2e-4)
        assert coarse.indicator / fine.indicator >= 3.0

    def test_slit_comparison_domain(self):
        est = grid_module_estimate(RingDomain.comparison(1.0), 0.2)
        exact = comparison_ring_module(1.0)
        assert abs(est.value - exact) <= 0.02 * exact
        assert est.truncation_sensitivity is not None
        assert est.truncation_sensitivity < 0.05

    def test_slit_comparison_domain_whose_box_edge_rounds(self):
        # x0 + h*(nx-1) rounds below lambda = 0.825, which used to leave the
        # second plate without a grid column ("unresolved")
        est = grid_module_estimate(RingDomain.comparison(0.825), 0.2)
        exact = comparison_ring_module(0.825)
        assert abs(est.value - exact) <= 0.02 * exact

    def test_unresolved_gap_is_reported(self):
        dom = RingDomain.from_json({"kind": "annulus", "ratio": 1.01})
        with pytest.raises(ValueError, match="refine the grid"):
            grid_module_estimate(dom, 0.5)

    def test_overlapping_conductors_are_refused(self):
        dom = RingDomain(first=lambda z: z.real <= 0.5, second=lambda z: z.real >= 0.4,
                         box=(0.0, 1.0, 0.0, 1.0))
        with pytest.raises(ValueError, match="boundary components overlap inside the box"):
            grid_module_estimate(dom, 0.1)

    def test_oversized_grid_is_refused(self):
        # must fail fast, before the node arrays are allocated; the last three
        # spans over h overflow to inf, so no float counts their cells
        for descriptor, h in [({"kind": "annulus", "ratio": 535.0}, 0.1),
                              ({"kind": "annulus", "ratio": 2.0}, 1e-320),
                              ({"kind": "annulus", "ratio": 1e308}, 0.1),
                              ({"kind": "D", "lambda": 1e-310}, 0.1)]:
            dom = RingDomain.from_json(descriptor)
            with pytest.raises(ValueError, match="coarsen h"):
                grid_module_estimate(dom, h)


class TestGridSolver:
    """The V-cycle-preconditioned conjugate gradient solve of the network."""

    @pytest.mark.parametrize("domain, h", [
        (RingDomain.comparison(1.0), 0.2),
        (RingDomain.from_json({"kind": "annulus", "ratio": math.e}), 0.08),
        (RingDomain.from_json({"kind": "box_conductor", "width": 2.0, "height": 1.0}), 0.1),
    ])
    def test_energy_matches_a_direct_solve(self, monkeypatch, domain, h):
        energy, _ = _grid_energy(domain, h)
        monkeypatch.setattr(modulus.spla, "cg",
                            lambda A, b, **kw: (spla.spsolve(A.tocsc(), b), 0))
        direct, _ = _grid_energy(domain, h)
        assert abs(energy - direct) <= 1e-12 * direct

    def test_preconditioner_is_symmetric_positive(self):
        A, _, ins, _, _ = _assemble(RingDomain.comparison(1.0), 0.2)
        levels, coarse = _hierarchy(A, ins)
        assert len(levels) >= 2  # a real V-cycle, not only the direct solve
        x, y = np.random.default_rng(6).standard_normal((2, A.shape[0]))
        xMx, yMy = x @ _vcycle(levels, coarse, x), y @ _vcycle(levels, coarse, y)
        assert xMx > 0.0 and yMy > 0.0
        xMy, yMx = x @ _vcycle(levels, coarse, y), y @ _vcycle(levels, coarse, x)
        assert abs(xMy - yMx) <= 1e-12 * math.sqrt(xMx * yMy)

    def test_few_iterations_on_the_slit_domain(self, monkeypatch):
        # Jacobi preconditioning took 1,041 here; the count grows like h^-1
        cg, iters = modulus.spla.cg, []
        monkeypatch.setattr(modulus.spla, "cg", lambda *a, **kw: cg(
            *a, callback=lambda xk: iters.append(1), **kw))
        _grid_energy(RingDomain.comparison(1.0), 0.1)
        assert 0 < len(iters) <= 60

    def test_unconverged_solve_reports_its_state(self, monkeypatch):
        cg = modulus.spla.cg
        monkeypatch.setattr(modulus.spla, "cg", lambda *a, **kw: cg(*a, **{**kw, "maxiter": 2}))
        with pytest.raises(RuntimeError, match=r"\(info=2\) after 2 iterations of "
                           r"maxiter=\d+; dof=\d+, h=0.2, relative residual \d"):
            _grid_energy(RingDomain.comparison(1.0), 0.2)

    def test_energy_off_the_plate_currents_is_refused(self, monkeypatch):
        cg = modulus.spla.cg
        monkeypatch.setattr(modulus.spla, "cg",
                            lambda *a, **kw: (cg(*a, **{**kw, "maxiter": 2})[0], 0))
        with pytest.raises(RuntimeError, match="disagrees with the plate currents"):
            _grid_energy(RingDomain.comparison(1.0), 0.2)


class TestCrossingWitness:
    def test_calibrated_candidate_has_both_crossings(self, candidate):
        cand = candidate(0.3)
        w = crossing_witness(cand.g, 1.0, cand.lam)
        assert w.residual1 < 1e-10
        assert w.residual2 < 1e-10
        assert 0.0 <= w.t1 < 2.0 * math.pi
        assert 0.0 <= w.t2 < 2.0 * math.pi
        # the witnesses really do land on the two target levels
        z1 = np.exp(1j * w.t1)
        z2 = np.exp(1j * w.t2)
        assert abs(cand.g(z1).real - cand.lam) < 1e-9 * (1 + cand.lam)
        assert abs((1.0 / cand.g(z2)).real + cand.lam) < 1e-9 * (1 + cand.lam)

    def test_crossings_exist_off_the_unit_circle(self, candidate):
        cand = candidate(0.3)
        R = cand.annulus.R
        for rho in (R**-0.5, R**0.5):
            w = crossing_witness(cand.g, rho, cand.lam)
            assert max(w.residual1, w.residual2) < 1e-10

    def test_radius_outside_the_annulus_is_refused(self, candidate, comb_calls):
        cand = candidate(0.1)  # R = 3.16
        calls = comb_calls()
        for rho, match in ((4.74, "not strictly inside"), (-1.0, "must be positive"),
                           (cand.annulus.R, "not strictly inside")):
            with pytest.raises(ValueError, match=match):
                crossing_witness(cand.g, rho, cand.lam)
        assert calls == []  # refused before g is sampled

    def test_constant_map_crosses_neither_locus(self):
        # no scan angle brackets a root of either locus; the first is named
        g = HoloFn.parse("2", Annulus(2.0))
        with pytest.raises(ValueError, match=r"no sign change for Re g = lam at rho=1\.0") as err:
            crossing_witness(g, 1.0, 0.5)
        # the circle means of the scanned functions, without rounding dust
        assert str(err.value).endswith("Re a0[g]-lam=1.500e+00, Re a0[1/g]+lam=1.000e+00")

    def test_unbalanced_map_reports_residuals(self):
        g = joukowski_map(1.0, 0.3, 0.1, 2.0)
        with pytest.raises(ValueError, match="no sign change") as err:
            crossing_witness(g, 1.0, 1.0)
        assert "a0[1/g]+lam" in str(err.value)
