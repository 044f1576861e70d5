"""Flow vectors, tilt angles, and the closed-form life-span ceiling."""

import dataclasses
import math

import numpy as np
import pytest

from tubeflux import (
    Annulus,
    FluxVector,
    HoloFn,
    Lifetime,
    LifetimeReport,
    MinimalTube,
    ProbeReport,
    WeierstrassData,
    flux_vector,
    lifetime,
    lifetime_bound,
    lifetime_report,
    tube_from_gauss,
)
from tubeflux import flux, tubes

ANN = Annulus(2.0)


def holo(text, ann=ANN):
    return HoloFn.parse(text, ann)


class TestFluxVector:
    def test_vertical_component_must_be_positive(self):
        with pytest.raises(ValueError):
            FluxVector(0.0, 0.0, -1.0)
        with pytest.raises(ValueError):
            FluxVector(1.0, 2.0, 0.0)

    @pytest.mark.parametrize("J", [(math.nan, 0.0, 1.0), (math.inf, 0.0, 1.0),
                                   (0.0, -math.inf, 1.0), (0.0, 0.0, math.inf),
                                   (0.0, 0.0, math.nan)])
    def test_components_must_be_finite(self, J):
        # a NaN J1 would give a NaN bound, an infinite J1 the bound 0.0
        with pytest.raises(ValueError, match=r"is not finite"):
            FluxVector(*J)

    def test_three_four_five_tilt(self):
        Q = FluxVector(3.0, 4.0, 5.0)
        assert abs(abs(Q.w) - 1.0) < 1e-15
        assert Q.alpha == pytest.approx(math.pi / 4.0, abs=1e-15)
        assert Q.theta == pytest.approx(math.atan2(4.0, 3.0), abs=1e-15)
        assert Q.norm == pytest.approx(math.sqrt(50.0))

    def test_vertical_vector_has_no_tilt(self):
        Q = FluxVector(0.0, 0.0, 2.0 * math.pi)
        assert Q.w == 0.0
        assert Q.alpha == 0.0
        assert Q.theta == 0.0

    def test_as_array_round_trip(self):
        Q = FluxVector(1.0, -2.0, 3.0)
        assert np.array_equal(Q.as_array(), [1.0, -2.0, 3.0])


class TestFluxMeasurement:
    def test_catenoid_flux_snaps_to_vertical(self, catenoid):
        Q = catenoid.flux
        assert Q.J1 == 0.0 and Q.J2 == 0.0
        assert abs(Q.J3 - 2.0 * math.pi) < 1e-12

    def test_measured_components_are_plain_floats(self, slit_tube):
        Q = flux_vector(slit_tube(0.1).data)
        assert [type(x) for x in (Q.J1, Q.J2, Q.J3)] == [float, float, float]

    def test_bound_disagreement_prints_plain_floats(self, monkeypatch, slit_tube):
        # a negative tolerance makes the two closed forms disagree on any
        # tilted flux, here one measured from the loop integrals
        monkeypatch.setattr(flux, "BOUND_FORM_TOL", -1.0)
        with pytest.raises(ArithmeticError, match="closed forms disagree") as err:
            lifetime_bound(slit_tube(0.33).flux)
        assert "np.float64" not in str(err.value)

    def test_snap_spares_the_vertical_component(self):
        # on thin rings |J1| reaches 1e13 while J3 = 2 pi c, below the snap
        # floor: J3 is kept, and horizontal dust is still snapped
        Q = flux._flux_from_loops(np.array([1e13j, 1e-3j, 2j * math.pi]))
        assert (Q.J1, Q.J2, Q.J3) == (1e13, 0.0, 2.0 * math.pi)

    def test_negative_orientation_is_rejected(self):
        data = WeierstrassData(holo("-1/(2*z^2)"), holo("z"))
        with pytest.raises(ValueError, match="co-oriented"):
            flux_vector(data)

    def test_radius_independence(self):
        data = tube_from_gauss(holo("z + 0.1/z"), 1.0)
        base = flux_vector(data, rho=1.0).as_array()
        for rho in (0.7, 1.6):
            other = flux_vector(data, rho=rho).as_array()
            assert np.max(np.abs(base - other)) < 1e-10

    @pytest.mark.parametrize("s", (0.5, 2.0, 10.0))
    def test_homothety_scales_flux_linearly(self, s):
        g = holo("z + 0.1/z")
        base = flux_vector(tube_from_gauss(g, 1.0)).as_array()
        scaled = flux_vector(tube_from_gauss(g, s)).as_array()
        keep = np.abs(base) > 0
        assert np.max(np.abs(scaled[keep] / base[keep] - s)) < 1e-12


class TestBound:
    def test_vertical_flux_means_no_ceiling(self):
        assert lifetime_bound(FluxVector(0.0, 0.0, 1.0)) == math.inf

    @pytest.mark.parametrize("J1, J3", [(1e-12, 1.0), (1e-9, 1.0), (1e-7, 1.0), (1.0, 1e-200)],
                             ids=["1e-12", "1e-9", "1e-7", "1e200"])
    def test_extreme_tilts_keep_both_closed_forms(self, J1, J3):
        # |w| from 1e-12 to 1e200: ln(x + sec alpha) would cancel at the small end
        Q = FluxVector(J1, 0.0, J3)
        assert lifetime_bound(Q) == math.pi * J3 / math.asinh(abs(Q.w))

    def test_unit_tilt_reference_value(self):
        Q = FluxVector(-2.0 * math.pi, 0.0, 2.0 * math.pi)
        want = 2.0 * math.pi**2 / math.asinh(1.0)
        assert abs(lifetime_bound(Q) - want) < 1e-9
        assert want == pytest.approx(22.3959614, abs=5e-7)

    def test_gudermannian_link(self):
        assert abs(math.log(math.tan(3.0 * math.pi / 8.0)) - math.asinh(1.0)) < 1e-12

    def test_both_closed_forms_agree_on_random_tilts(self):
        rng = np.random.default_rng(17)
        for _ in range(100):
            alpha = rng.uniform(0.01, 1.5)
            theta = rng.uniform(0.0, 2.0 * math.pi)
            J3 = rng.uniform(0.1, 10.0)
            w = math.tan(alpha) * np.exp(1j * theta)
            Q = FluxVector(J3 * w.real, J3 * w.imag, J3)
            norm = Q.norm
            form_a = math.pi * norm * math.cos(alpha) / math.asinh(math.tan(alpha))
            form_b = math.pi * norm * math.cos(alpha) / math.log(
                math.tan(math.pi / 4.0 + alpha / 2.0)
            )
            got = lifetime_bound(Q)
            assert abs(form_a - form_b) <= 1e-10 * form_a
            assert abs(got - form_a) <= 1e-10 * form_a


class TestLifetime:
    def test_catenoid_life_span(self, catenoid):
        span = lifetime(catenoid)
        assert abs(span.measured - 2.0 * math.log(2.0)) < 1e-8
        assert abs(span.from_flux - span.measured) < 1e-8

    def test_span_scales_with_flux_constant(self):
        g = holo("z")
        small = lifetime(MinimalTube(tube_from_gauss(g, 1.0)))
        large = lifetime(MinimalTube(tube_from_gauss(g, 2.0)))
        assert abs(large.measured - 2.0 * small.measured) < 1e-10

    def test_span_scales_with_band_width(self):
        wide = HoloFn.var(Annulus(4.0))
        span = lifetime(MinimalTube(tube_from_gauss(wide, 1.0)))
        assert abs(span.measured - 4.0 * math.log(2.0)) < 1e-8


class TestReport:
    def test_catenoid_report(self, catenoid):
        report = lifetime_report(catenoid)
        assert report.hypothesis == "ok"
        assert report.bound == math.inf
        assert report.satisfied is True
        assert report.margin == math.inf

    def test_squared_gauss_map_breaks_the_hypothesis(self):
        # g = z^2 closes up fine but double-covers its image
        tube = MinimalTube(tube_from_gauss(holo("z^2"), 1.0))
        report = lifetime_report(tube)
        assert report.hypothesis == "univalence violated"
        assert report.satisfied is None
        assert report.margin is None

    def test_precomputed_probe_is_respected(self, catenoid, monkeypatch):
        probe = ProbeReport(univalent="inconclusive", zero_count=0, witness=None,
                            n_targets=0, notes=[])
        # a fresh datum runs its own probe, which answers with this report
        monkeypatch.setattr(tubes, "univalence_probe", lambda g: probe)
        report = lifetime_report(MinimalTube(dataclasses.replace(catenoid.data)))
        assert report.hypothesis == "univalence unconfirmed"
        assert report.probe is probe

    @pytest.mark.parametrize("univalent, hypothesis, satisfied, margin", [
        ("passed", "ok", True, 0.5), ("inconclusive", "univalence unconfirmed", True, 0.5),
        ("violated", "univalence violated", None, None)])
    def test_report_stores_what_it_measured(self, univalent, hypothesis, satisfied, margin):
        # the verdicts are read off the life-time, the bound and the probe
        assert [f.name for f in dataclasses.fields(LifetimeReport)] == [
            "lifetime", "bound", "probe"]
        report = LifetimeReport(Lifetime(measured=1.5, from_flux=1.5), 2.0,
                                ProbeReport(univalent, zero_count=0, witness=None,
                                            n_targets=0, notes=[]))
        assert (report.hypothesis, report.satisfied, report.margin) == \
            (hypothesis, satisfied, margin)

    def test_slit_tube_sits_under_its_ceiling(self, slit_tube):
        tube = slit_tube(0.25)
        report = lifetime_report(tube)
        assert report.hypothesis == "ok"
        assert report.satisfied is True
        assert report.margin > 0
        assert report.lifetime.measured <= report.bound + 1e-8

    @pytest.mark.parametrize("q", [0.78, 0.82])
    def test_thin_slit_tubes_sit_under_their_ceilings(self, slit_tube, q):
        # tan alpha is about 5e6 and 6e8 here, where going through atan
        # and back through tan made the two closed forms disagree
        report = lifetime_report(slit_tube(q))
        assert report.hypothesis == "ok"
        assert report.satisfied is True
        assert abs(report.lifetime.measured - report.lifetime.from_flux) < 1e-8
