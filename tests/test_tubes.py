"""Synthesis of tube data, closure defects, immersion, and sections."""

import cmath
import dataclasses
import math

import numpy as np
import pytest

from tubeflux import (
    Annulus,
    HoloFn,
    MinimalTube,
    NotATubeError,
    WeierstrassData,
    a0,
    a0_pair,
    defect_from_means,
    enneper_F,
    immerse,
    joukowski_map,
    period_defect,
    section_polyline,
    lifetime_report,
    tube_from_gauss,
    univalence_probe,
)
from tubeflux import flux, tubes
from tubeflux.expr import Const, Mul, Var

ANN = Annulus(2.0)


def isotropy_defect(F, z):
    """Sum of squares of the triple at z; identically zero for enneper_F output."""
    return sum(phi(z) ** 2 for phi in F)


def flux_from_means(g, c):
    """Flux triple of the f = c/(2zg) data by the residue algebra of defect_from_means."""
    m, minv = a0_pair(g)
    return np.array([
        math.pi * c * (minv - m).real,
        -math.pi * c * (minv + m).imag,
        2.0 * math.pi * c,
    ])


def holo(text, ann=ANN):
    return HoloFn.parse(text, ann)


class TestSynthesis:
    def test_flat_data_gives_constant_triple(self):
        data = WeierstrassData(holo("1"), holo("0"))
        F = enneper_F(data)
        rng = np.random.default_rng(2)
        for z in rng.normal(size=4) + 1j * rng.normal(size=4):
            vals = [Fi(1.0 + z / 4.0) for Fi in F]
            assert abs(vals[0] - 1.0) < 1e-14
            assert abs(vals[1] - 1.0j) < 1e-14
            assert abs(vals[2]) < 1e-14

    def test_catenoid_third_component_is_reciprocal(self):
        data = tube_from_gauss(holo("z"), 1.0)
        F3 = data.F[2]
        for z in (0.7, 1.3 + 0.2j, -1.1j):
            assert abs(F3(z) - 1.0 / z) < 1e-14

    def test_isotropy_holds_for_random_rational_pairs(self):
        rng = np.random.default_rng(31)
        for _ in range(100):
            cf = rng.integers(-3, 4, size=4)
            f = holo(f"({cf[0]} + {cf[1]}*z + z^2)/z^2")
            g = holo(f"({cf[2]} + z*{cf[3]} + z^3)/z")
            data = WeierstrassData(f, g)
            F = data.F
            z = complex(rng.uniform(0.6, 1.8), rng.uniform(-0.5, 0.5))
            vals = np.array([Fi(z) for Fi in F])
            scale = 1.0 + float(np.max(np.abs(vals) ** 2))
            assert abs(isotropy_defect(F, z)) <= 1e-12 * scale

    @pytest.mark.filterwarnings("error")
    def test_overflowing_flux_is_refused_as_not_finite(self):
        # at c = 1e308 the loop sums overflow at the first level, and the
        # quadrature says so before the flux would read (nan, nan, inf)
        with pytest.raises(NotATubeError, match="is not finite at n=1024 nodes"):
            MinimalTube(tube_from_gauss(holo("1.3*z - 0.1/z"), 1e308))

    def test_constant_must_be_positive(self):
        with pytest.raises(ValueError):
            tube_from_gauss(holo("z"), 0.0)
        with pytest.raises(ValueError):
            tube_from_gauss(holo("z"), -1.0)
        for c in (math.inf, math.nan):
            with pytest.raises(ValueError, match=f"must be positive and finite, got c={c}"):
                tube_from_gauss(holo("z"), c)

    def test_gauss_map_zero_inside_is_rejected(self):
        with pytest.raises(NotATubeError):
            MinimalTube(tube_from_gauss(holo("z - 1.2"), 1.0))

    def test_unsettled_omission_check_is_rejected(self):
        ann = Annulus(1.1)
        with pytest.raises(NotATubeError, match="cannot certify .* leaves the annulus") as info:
            MinimalTube(tube_from_gauss(HoloFn.var(ann) - ann.R ** 0.98, 1.0))
        # the zero count's own retry notes, as when the check ran alone
        assert str(info.value) == (
            "cannot certify that the Gauss map omits zero: winding integrals did not "
            "settle (winding at rho=1.09791 inconclusive, perturbing; retry radius "
            "rho=1.1001 leaves the annulus, winding left unsettled)")

    def test_gauss_map_zero_is_refused_by_the_tube_alone(self):
        # tube_from_gauss builds the datum, whose defect can still be measured;
        # MinimalTube is the one to refuse it
        data = tube_from_gauss(holo("z - 1.2"), 1.0)
        assert np.all(np.isfinite(period_defect(data)))
        with pytest.raises(NotATubeError) as info:
            MinimalTube(data)
        assert str(info.value) == ("Gauss map has zero/pole excess 1 inside the "
                                   "annulus; the data cannot describe a tube")
        assert info.value.defect is None

    def test_explicit_f_with_a_gauss_map_zero_is_refused(self):
        # g = 1.2 - z vanishes inside K_2: whatever f is, either f has a pole
        # there or the height a critical point, so this is no tube
        data = WeierstrassData(holo("1/z"), holo("1.2 - z"))
        with pytest.raises(NotATubeError, match="Gauss map has zero/pole excess 1 inside"):
            MinimalTube(data)

    def test_tube_and_report_probe_once(self, monkeypatch):
        calls = []

        def counted(*args):
            calls.append(args)
            return univalence_probe(*args)

        monkeypatch.setattr(tubes, "univalence_probe", counted)
        data = tube_from_gauss(holo("z + 0.2/z"), 1.0)
        rep = lifetime_report(MinimalTube(data))
        assert len(calls) == 1 and rep.probe is data.probe
        assert data.probe.zero_count == 0 and rep.hypothesis == "ok"

    def test_annulus_mismatch_between_f_and_g(self):
        f = HoloFn.parse("1", Annulus(2.0))
        g = HoloFn.parse("z", Annulus(3.0))
        with pytest.raises(ValueError):
            WeierstrassData(f, g)


class TestClosureDefect:
    def test_catenoid_closes(self):
        data = tube_from_gauss(holo("z"), 1.0)
        d = period_defect(data)
        assert np.max(np.abs(d)) < 1e-12

    def test_shifted_gauss_map_defect(self):
        # g = z + 2, c = 1: the defect is (0, -5*pi/2, 0)
        data = tube_from_gauss(holo("z + 2"), 1.0)
        d = period_defect(data)
        assert abs(d[0]) < 1e-9
        assert abs(d[1] - (-2.5 * math.pi)) < 1e-9
        assert abs(d[2]) < 1e-12

    def test_shifted_gauss_map_is_not_a_tube(self):
        data = tube_from_gauss(holo("z + 2"), 1.0)
        with pytest.raises(NotATubeError) as err:
            MinimalTube(data)
        assert err.value.defect is not None
        assert abs(err.value.defect[1] - (-2.5 * math.pi)) < 1e-9

    @staticmethod
    def _random_family_map(rng):
        # resample until the map stays clear of zero on the unit circle,
        # so the 1/g integrands are tame there
        circle = np.exp(2j * np.pi * np.linspace(0, 1, 257))
        while True:
            lam = rng.uniform(0.2, 3.0)
            a = rng.uniform(-2.0, 2.0)
            kappa = rng.uniform(-0.2, 0.2)
            g = joukowski_map(lam, a, kappa, 2.0)
            if np.min(np.abs(g(circle))) > 0.3:
                return g

    def test_mean_formula_matches_quadrature(self):
        # residue-level defect against direct quadrature on random family maps
        rng = np.random.default_rng(77)
        for _ in range(20):
            c = rng.uniform(0.5, 2.0)
            g = self._random_family_map(rng)
            data = tube_from_gauss(g, c)
            direct = period_defect(data)
            means = defect_from_means(g, c)
            scale = 1.0 + float(np.max(np.abs(direct)))
            assert np.max(np.abs(direct - means)) <= 1e-9 * scale

    def test_defect_vanishes_exactly_when_means_balance(self):
        rng = np.random.default_rng(78)
        for _ in range(20):
            c = rng.uniform(0.5, 2.0)
            g = self._random_family_map(rng)
            data = tube_from_gauss(g, c)
            d = float(np.linalg.norm(period_defect(data)))
            residual = abs(a0(1.0 / g) + np.conj(a0(g)))
            # the defect norm IS pi*c times the balance residual
            assert abs(d - math.pi * c * residual) <= 1e-9 * (1.0 + d)
            assert (d <= 1e-8) == (math.pi * c * residual <= 1e-8)

    def test_flux_mean_formula_matches_quadrature(self):
        g = holo("z + 0.1/z")
        c = 1.3
        data = tube_from_gauss(g, c)
        report = flux_from_means(g, c)
        from tubeflux import flux_vector

        direct = flux_vector(data).as_array()
        assert np.max(np.abs(np.asarray(report) - direct)) < 1e-10

    @pytest.mark.parametrize("text, n_points", [("z + 0.1/z", None), ("z", 64)])
    def test_tube_takes_defect_and_flux_from_the_public_entry_points(self, text, n_points):
        # MinimalTube integrates the loops once; the public functions must
        # give the very same numbers (a fixed node count through circle_integral)
        from tubeflux import circle_integral, flux_vector

        data = tube_from_gauss(holo(text), 1.3)
        tube = MinimalTube(data, n_points=n_points)
        if n_points is None:
            assert np.array_equal(tube.defect, period_defect(data))
            assert tube.flux == flux_vector(data)
        else:
            loops = circle_integral(data, 1.0, n_points)
            assert np.array_equal(tube.defect, loops.real)
            assert tube.flux == flux._flux_from_loops(loops)


class TestCatenoidBand:
    def test_life_interval(self, catenoid):
        lo, hi = catenoid.life
        assert lo == pytest.approx(-math.log(2.0), abs=1e-10)
        assert hi == pytest.approx(math.log(2.0), abs=1e-10)

    def test_height_is_log_radius(self, catenoid):
        rng = np.random.default_rng(5)
        for _ in range(200):
            z = complex(rng.uniform(0.55, 1.9), 0) * np.exp(1j * rng.uniform(0, 2 * np.pi))
            m, s = catenoid.profile
            assert abs(catenoid.u3(z) - (m + s * math.log(abs(z)))) < 1e-8
            assert abs(catenoid.u3(z) - catenoid.u3(abs(z))) < 1e-10

    def test_profile_is_unit_slope(self, catenoid):
        m, s = catenoid.profile
        assert abs(m) < 1e-12
        assert abs(s - 1.0) < 1e-12
        assert catenoid.profile_residual < 1e-12
        assert np.max(np.abs(catenoid.defect)) < 1e-12

    def test_base_point_is_origin(self, catenoid):
        u = immerse(catenoid, 1.0)
        assert np.max(np.abs(u)) < 1e-12

    def test_immersion_height_matches_u3(self, catenoid):
        rng = np.random.default_rng(6)
        for _ in range(10):
            z = complex(rng.uniform(0.6, 1.8), rng.uniform(-0.4, 0.4))
            u = immerse(catenoid, z)
            assert abs(u[2] - catenoid.u3(z)) < 1e-10

    def test_point_outside_band_is_rejected(self, catenoid):
        with pytest.raises(ValueError):
            immerse(catenoid, 3.0)
        with pytest.raises(ValueError):
            immerse(catenoid, 0.1)


class TestSections:
    def test_midheight_section_is_a_planar_circle(self, catenoid):
        pts = section_polyline(catenoid, 0.0, n_points=128)
        assert pts.shape == (129, 3)
        assert np.allclose(pts[0], pts[-1], atol=1e-9)
        # planarity: the x3 spread collapses
        assert np.ptp(pts[:, 2]) < 1e-8
        # roundness: distances from the centroid are constant
        center = pts[:-1].mean(axis=0)
        radii = np.linalg.norm(pts[:-1] - center, axis=1)
        assert np.ptp(radii) < 1e-8
        assert radii.mean() == pytest.approx(1.0, abs=1e-8)

    @pytest.mark.parametrize("n_points", [0, 1, 2])
    def test_a_loop_needs_three_arcs(self, catenoid, n_points):
        with pytest.raises(ValueError, match=f"n_points >= 3, got {n_points}"):
            section_polyline(catenoid, 0.0, n_points=n_points)

    def test_sections_at_other_heights_stay_planar(self, catenoid):
        for tau in (-0.5, 0.4):
            pts = section_polyline(catenoid, tau)
            assert np.ptp(pts[:, 2]) < 1e-8
            assert abs(pts[0, 2] - tau) < 1e-8

    def test_height_outside_life_interval_is_rejected(self, catenoid):
        for tau in (math.log(2.0), -math.log(2.0), 1.0):
            with pytest.raises(ValueError, match="life interval"):
                section_polyline(catenoid, tau)


class TestLogRadiusIdentity:
    def test_span_times_pi_over_flux_is_log_radius(self, catenoid):
        lo, hi = catenoid.life
        assert abs(math.log(2.0) - math.pi * (hi - lo) / catenoid.flux.J3) < 1e-8

    def test_same_identity_on_a_slit_tube(self, slit_tube):
        tube = slit_tube(0.25)
        lo, hi = tube.life
        lnR = math.log(tube.annulus.R)
        assert abs(lnR - math.pi * (hi - lo) / tube.flux.J3) < 1e-8

    def test_slit_tube_profile_is_radial(self, slit_tube):
        tube = slit_tube(0.25)
        assert tube.profile_residual < 1e-12 and np.max(np.abs(tube.defect)) < 1e-12
        m, s = tube.profile
        rng = np.random.default_rng(8)
        R = tube.annulus.R
        for _ in range(200):
            rho = R ** rng.uniform(-0.9, 0.9)
            z = rho * np.exp(1j * rng.uniform(0, 2 * np.pi))
            assert abs(tube.u3(z) - (m + s * math.log(abs(z)))) < 1e-8 * (1 + abs(m) + abs(s))


def _composed(node, inner):
    """node with every Var replaced by inner: the tree of g(inner(z))."""
    if isinstance(node, Var):
        return inner
    return dataclasses.replace(node, **{
        f.name: _composed(getattr(node, f.name), inner) for f in dataclasses.fields(node)
        if dataclasses.is_dataclass(getattr(node, f.name))})


# the five golden configs (R, g, c, N) and three calibrated slit nomes
ROTATION_CASES = [(2.2, "1.3*z - 0.1/z", 0.8, None), (2.0, "z", 1.0, None),
                  (1.8, "0.7*z + 0.05/z", 1.2, 64), (1.7, "z^3", 0.9, None),
                  (1.2, "exp((1+i)*(1.309417921582839*z + 0.774803503895171/z))", 1.0, None),
                  0.1, 0.5, 0.82]


class TestRotations:
    """Two exact symmetries of the tube data.

    Domain rotation g(e^{i phi} z) reparametrizes the same surface; surface
    rotation e^{i psi} g turns it about the time axis, so (J1, J2) turns by
    psi.  Either leaves J3, tan alpha, life, bound and every verdict as they
    were.  Measured worst relative changes over these cases: 4.7e-16 under
    domain rotation (life, on 0.7*z + 0.05/z), 2.7e-16 under surface rotation
    ((J1, J2) at q = 0.82); each is held at 1e-14.
    """

    @staticmethod
    def _facts(g, c, n):
        tube = MinimalTube(tube_from_gauss(g, c), n)
        report = lifetime_report(tube)
        verdicts = (report.hypothesis, report.satisfied, report.probe.univalent,
                    report.probe.zero_count)
        return tube.flux, report, verdicts

    @pytest.mark.parametrize("case", ROTATION_CASES, ids=str)
    @pytest.mark.parametrize("kind", ["domain", "surface"])
    def test_rotation_keeps_the_tube(self, candidate, case, kind):
        if isinstance(case, float):
            g, c, n = candidate(case).g, 1.0, None
        else:
            R, text, c, n = case
            g = HoloFn.parse(text, Annulus(R))
        if kind == "domain":  # phi = 0.7: the same surface, so (J1, J2) stays
            node, turn = _composed(g.node, Mul(Const(cmath.exp(0.7j)), Var())), 1.0
            rotated = HoloFn(node, g.annulus)
        else:  # psi = 1.1: the surface turned about the time axis
            turn = cmath.exp(1.1j)
            rotated = g * turn
        Q, report, verdicts = self._facts(g, c, n)
        Q2, report2, verdicts2 = self._facts(rotated, c, n)
        assert verdicts2 == verdicts
        assert abs(complex(Q2.J1, Q2.J2) - turn * complex(Q.J1, Q.J2)) <= 1e-14 * Q.norm
        assert Q2.J3 == pytest.approx(Q.J3, rel=1e-14, abs=0.0)
        assert abs(Q2.w) == pytest.approx(abs(Q.w), rel=1e-14, abs=0.0)
        assert report2.lifetime.measured == pytest.approx(report.lifetime.measured,
                                                          rel=1e-14, abs=0.0)
        assert report2.bound == pytest.approx(report.bound, rel=1e-14, abs=0.0)
