"""Minimal tubes over an annulus from Weierstrass-Enneper data.

A pair (f, g) of holomorphic functions on K_R = {1/R < |z| < R} induces the
isotropic triple

    F = ((1 - g^2) f,  i (1 + g^2) f,  2 g f),

and u(z) = Re int_{z0}^{z} F dzeta immerses the annulus in R^3 whenever the
real periods of F vanish.  If additionally the third coordinate is a radial
log profile, the level sections are compact circles and the image is a tube:
a surface living over an interval of the time axis.  The profile's slope is
the flux's, J3 / (2 pi), and path integrals of F3 check the height against it.

The triple is written once, as the expression trees of enneper_F.
WeierstrassData evaluates itself for quadrature by walking those three trees
in one pass (``data(z)``, a (3, ...) stack), so circle_integral and
path_integral each give all three integrals; the pass evaluates a shared node
once, so g is sampled once although all three trees, and f = c/(2zg), hold it.

The constructor route that matters in practice fixes the vertical component
first: tube_from_gauss sets f = c/(2zg) so that F3 = c/z exactly, and closure
of the periods then reduces to a statement about the two circle means a0[g]
and a0[1/g] (contour.a0_pair).  Both the quadrature route and the
mean/residue route to the period defect are implemented; they must agree,
and tests hold them to it.  A datum also owns g's univalence probe
(``data.probe``, run once when first read): MinimalTube checks its zero
count with every other tube hypothesis, and lifetime_report reads the rest.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .contour import (
    GL_WEIGHTS, Annulus, HoloFn, ProbeReport, _leg_nodes, _merge_annuli, _path_integrals,
    a0_pair, circle_integral, path_integral, univalence_probe,
)
from .expr import _Plan, evaluate
from .flux import _flux_from_loops

__all__ = [
    "NotATubeError", "WeierstrassData", "MinimalTube",
    "enneper_F", "period_defect", "defect_from_means",
    "tube_from_gauss", "immerse", "section_polyline",
]

# a closed tube's period defect must be dust relative to its flux
PERIOD_TOL = 1e-8
# and its height function must follow the flux's log profile to this
# residual, relative to the height's half-range s ln R
PROFILE_TOL = 1e-7


class NotATubeError(ValueError):
    """Weierstrass data that fails one of the tube hypotheses."""

    def __init__(self, message, defect=None):
        super().__init__(message)
        self.defect = defect


@dataclass(frozen=True)
class WeierstrassData:
    f: HoloFn
    g: HoloFn

    def __post_init__(self):
        _merge_annuli(self.f.annulus, self.g.annulus)  # refuses a mismatch

    @property
    def annulus(self) -> Annulus:
        return self.f.annulus

    @cached_property
    def F(self):
        return enneper_F(self)

    _plan = cached_property(lambda self: _Plan([phi.node for phi in self.F]))

    @cached_property
    def probe(self) -> ProbeReport:
        return univalence_probe(self.g)

    def __call__(self, z):
        """The triple at z, stacked on a new first axis, from one pass of its
        three trees' plan (compiled once), so g and f are each sampled once."""
        return np.stack(evaluate(self._plan, z))


def enneper_F(data: WeierstrassData):
    """The isotropic triple ((1-g^2)f, i(1+g^2)f, 2gf) as composed expressions."""
    g, f = data.g, data.f
    return (1 - g * g) * f, ((g * g + 1) * 1j) * f, (g * 2) * f


def period_defect(data: WeierstrassData):
    """(Re oint phi_1, Re oint phi_2, Re oint phi_3) over the unit circle.

    All three must vanish for u = Re int F to be single-valued on the
    annulus; the vector is returned untouched so callers can report how
    badly closure fails.  It is the real part of the same loop integrals
    whose imaginary part is the flux (see flux.flux_vector).
    """
    return circle_integral(data, 1.0).real


def defect_from_means(g: HoloFn, c: float):
    """Period defect of the f = c/(2zg) data, by Laurent coefficients alone.

    With F = ((c/2z)(1/g - g), (ic/2z)(1/g + g), c/z) the loop integrals are
    single residues:

        Re oint phi_1 = -pi c Im(a0[1/g] - a0[g])
        Re oint phi_2 = -pi c Re(a0[1/g] + a0[g])
        Re oint phi_3 = 0.

    Closure is therefore equivalent to Im a0[g] = Im a0[1/g] together with
    Re(a0[g] + a0[1/g]) = 0; for real a0[g] = lambda that is exactly the
    balance condition a0[1/g] = -lambda.
    """
    m, minv = a0_pair(g)
    return np.array([
        -math.pi * c * (minv - m).imag,
        -math.pi * c * (minv + m).real,
        0.0,
    ])


def tube_from_gauss(g: HoloFn, c: float) -> WeierstrassData:
    """Weierstrass data on g.annulus with f = c/(2zg), so the vertical flux is
    2 pi c exactly (finite c > 0).  MinimalTube checks the tube hypotheses, g's zero
    omission included, so a datum whose periods do not close can be measured."""
    if not 0.0 < c < math.inf:
        raise ValueError(f"flux constant must be positive and finite, got c={c}")
    return WeierstrassData(f=(0.5 * c) / (HoloFn.var(g.annulus) * g), g=g)


# --- the tube object -------------------------------------------------------

# deterministic sample of the annulus interior where the height is checked
def _height_points(annulus: Annulus):
    R = annulus.R
    radii = R ** np.linspace(-0.9, 0.9, 8)
    golden = (math.sqrt(5.0) - 1.0) / 2.0
    angles = 2.0 * math.pi * ((np.arange(6) * golden + 0.13) % 1.0)
    return (radii[:, None] * np.exp(1j * angles[None, :])).ravel()


class MinimalTube:
    """A closed immersion with circular sections, built from Weierstrass data.

    Construction checks every tube hypothesis: g's zero count (``data.probe``)
    must settle at 0; one pass of loop integrals (``n_points`` nodes, or
    adaptive) gives the period defect and the flux.  The flux gives the height
    profile s ln|z|, s = J3 / (2 pi) (u3(z0) = 0 at |z0| = 1), so the life is
    (-s ln R, s ln R); the heights of F3 at 48 points, integrated from z0, must
    follow it to ``profile_residual``.  NotATubeError carries any defect.
    """

    # the base point of u = Re int_{z0}^{z} F: 1 lies on the unit circle,
    # inside every annulus K_R
    z0 = 1.0 + 0.0j

    def __init__(self, data: WeierstrassData, n_points=None):
        self.data = data
        zero_count = data.probe.zero_count
        if zero_count is None:
            raise NotATubeError(
                "cannot certify that the Gauss map omits zero "
                f"({'; '.join(data.probe.notes) or 'no diagnostics'})")
        if zero_count != 0:
            raise NotATubeError(f"Gauss map has zero/pole excess {zero_count} inside the "
                                "annulus; the data cannot describe a tube")

        try:
            loops = circle_integral(data, 1.0, n_points)
        except OverflowError as exc:
            raise NotATubeError(str(exc)) from exc
        self.defect = loops.real
        try:
            self.flux = _flux_from_loops(loops)
        except ValueError as exc:
            raise NotATubeError(str(exc), defect=self.defect) from exc
        period_tol = PERIOD_TOL * self.flux.norm
        if not np.max(np.abs(self.defect)) < period_tol:
            raise NotATubeError(
                f"period defect {self.defect} exceeds tolerance {period_tol:.3g}; "
                "u = Re int F is not single-valued", defect=self.defect)

        s = self.flux.J3 / (2.0 * math.pi)
        self.profile = (0.0, s)
        self.profile_residual = resid = self._height_residual(s)
        lnR = math.log(self.annulus.R)
        if not resid < PROFILE_TOL * (s * lnR):
            raise NotATubeError(
                f"height function deviates from a radial log profile by {resid:.3g}; "
                "sections are not circles over the time axis", defect=self.defect)
        self.life = (-s * lnR, s * lnR)

    @property
    def annulus(self) -> Annulus:
        return self.data.annulus

    def _height_residual(self, s):
        """max |u3 - s ln|z|| over the 48 height points, one batch of paths."""
        pts = _height_points(self.annulus)
        u3 = np.array([u.real for u in _path_integrals(self.data.F[2], self.z0, pts)])
        return float(np.max(np.abs(u3 - s * np.log(np.abs(pts)))))

    def u3(self, z):
        """The flux's height profile s ln|z| (use immerse for the integrated value)."""
        return self.profile[1] * np.log(np.abs(z))

    def __repr__(self):
        return (f"MinimalTube(R={self.annulus.R:.6g}, "
                f"life=({self.life[0]:.6g}, {self.life[1]:.6g}))")


def immerse(tube: MinimalTube, z):
    """u(z) = Re int_{z0}^{z} F as a point of R^3, path-independent on a tube."""
    return path_integral(tube.data, tube.z0, z).real


def section_polyline(tube: MinimalTube, tau: float, n_points=256):
    """The section at height tau as a closed polyline of shape (n_points+1, 3).

    Inverts the log profile for the section radius, anchors one point by a
    path integral from the base point, then sweeps the circle as n_points arc
    legs of one Gauss-Legendre panel each.  The returned loop is closed
    exactly: first and last vertices are the same point of the surface.
    """
    if not n_points >= 3:
        raise ValueError(f"a section polyline needs n_points >= 3, got {n_points}")
    t1, t2 = tube.life
    if not (t1 < tau < t2):
        raise ValueError(f"tau={tau} outside the open life interval ({t1:.6g}, {t2:.6g})")
    rho = math.exp(tau / tube.profile[1])

    anchor = immerse(tube, rho)
    theta = np.linspace(0.0, 2.0 * math.pi, n_points + 1)[:-1, None]
    z, dz = _leg_nodes(rho, 0.0, theta, 2.0 * math.pi / n_points, 1)
    vals = tube.data(z.ravel()).reshape((3,) + z.shape)
    steps = np.real(np.sum(vals * dz * GL_WEIGHTS, axis=2)).T
    pts = np.empty((n_points + 1, 3))
    pts[0] = anchor
    pts[1:] = anchor + np.cumsum(steps, axis=0)
    pts[-1] = pts[0]
    return pts
