"""Minimal tubes over an annulus from Weierstrass-Enneper data.

A pair (f, g) of holomorphic functions on K_R = {1/R < |z| < R} induces the
isotropic triple

    F = ((1 - g^2) f,  i (1 + g^2) f,  2 g f),

and u(z) = Re int_{z0}^{z} F dzeta immerses the annulus in R^3 whenever the
real periods of F vanish.  If additionally the third coordinate is a radial
log profile, the level sections are compact circles and the image is a tube:
a surface living over an interval of the time axis.

The triple is written once, in ``_triple``.  Applied to the HoloFns f and g
it builds the expression trees of enneper_F; applied to one sample of g and
one of f it gives the values of those trees bit for bit, and that is how
WeierstrassData evaluates itself for quadrature (``data(z)``, a (3, ...)
stack), so circle_integral and path_integral each give all three integrals.
g and f come from one evaluation pass, which samples g once although
f = c/(2zg) holds g's tree.

The constructor route that matters in practice fixes the vertical component
first: tube_from_gauss sets f = c/(2zg) so that F3 = c/z exactly, and closure
of the periods then reduces to a statement about the two circle means a0[g]
and a0[1/g] (contour.a0_pair).  Both the quadrature route and the
mean/residue route to the period defect are implemented; they must agree,
and tests hold them to it.  A datum also owns g's univalence probe
(``data.probe``, run once when first read): tube_from_gauss checks its zero
count and lifetime_report reads the rest.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .contour import (
    GL_NODES, GL_WEIGHTS, Annulus, HoloFn, ProbeReport, _merge_annuli, _path_integrals,
    a0_pair, circle_integral, path_integral, univalence_probe,
)
from .expr import evaluate
from .flux import _flux_from_loops

__all__ = [
    "NotATubeError", "WeierstrassData", "MinimalTube",
    "enneper_F", "isotropy_defect", "period_defect",
    "defect_from_means", "flux_from_means",
    "tube_from_gauss", "immerse", "section_polyline",
]

# a closed tube's period defect must be dust relative to its flux
PERIOD_TOL = 1e-8
# and its height function must be a radial log profile to this residual,
# relative to the height's half-range |s| ln R
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

    @cached_property
    def probe(self) -> ProbeReport:
        return univalence_probe(self.g)

    def __call__(self, z):
        """The triple at z, stacked on a new first axis, from one evaluation
        pass over g and f, so g is sampled once even where f's tree holds it."""
        g, f = evaluate([self.g.node, self.f.node], z)
        with np.errstate(all="ignore"):
            return np.stack(_triple(g, f))


def _triple(g, f):
    """The isotropic triple of g and f, for HoloFns (trees) and samples (arrays) alike."""
    return (1 - g * g) * f, ((g * g + 1) * 1j) * f, (g * 2) * f


def enneper_F(data: WeierstrassData):
    """The isotropic triple ((1-g^2)f, i(1+g^2)f, 2gf) as composed expressions."""
    return _triple(data.g, data.f)


def isotropy_defect(F, z):
    """Sum of squares of the triple at z; identically zero for enneper_F output."""
    return sum(phi(z) ** 2 for phi in F)


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


def flux_from_means(g: HoloFn, c: float):
    """Flux triple of the f = c/(2zg) data by the same residue algebra."""
    m, minv = a0_pair(g)
    return np.array([
        math.pi * c * (minv - m).real,
        -math.pi * c * (minv + m).imag,
        2.0 * math.pi * c,
    ])


def tube_from_gauss(g: HoloFn, c: float, check_omission=True) -> WeierstrassData:
    """Weierstrass data on g.annulus with f = c/(2zg), so the vertical flux is
    2 pi c exactly.

    g must omit zero on its annulus; c > 0 sets the vertical scale.  Unless
    the caller already knows, the zero count of the datum's univalence probe
    (``data.probe``) checks it; the probe is kept, so lifetime_report does
    not probe the same circles again.  An unsettled count cites the probe's notes.
    """
    if not (c > 0.0):
        raise ValueError(f"flux constant must be positive, got c={c}")
    data = WeierstrassData(f=(0.5 * c) / (HoloFn.var(g.annulus) * g), g=g)
    if check_omission and data.probe.zero_count is None:
        raise NotATubeError(
            "cannot certify that the Gauss map omits zero: winding integrals "
            f"did not settle ({'; '.join(data.probe.notes) or 'no diagnostics'})")
    if check_omission and data.probe.zero_count != 0:
        raise NotATubeError(
            f"Gauss map has zero/pole excess {data.probe.zero_count} inside the "
            "annulus; the data cannot describe a tube")
    return data


# --- the tube object -------------------------------------------------------

# deterministic sample of the annulus interior for the height-profile fit
def _fit_points(annulus: Annulus):
    R = annulus.R
    radii = R ** np.linspace(-0.9, 0.9, 8)
    golden = (math.sqrt(5.0) - 1.0) / 2.0
    angles = 2.0 * math.pi * ((np.arange(6) * golden + 0.13) % 1.0)
    return (radii[:, None] * np.exp(1j * angles[None, :])).ravel()


class MinimalTube:
    """A closed immersion with circular sections, built from Weierstrass data.

    Construction takes the period defect and the flux from one pass of loop
    integrals (a single pass of ``n_points`` trapezoid nodes when given,
    adaptive otherwise), and fits the height (path integrals of F3 alone,
    from the base point z0) to m + s ln|z| by least squares; any failed tube
    hypothesis raises NotATubeError carrying the defect.
    """

    # the base point of u = Re int_{z0}^{z} F: 1 lies on the unit circle,
    # inside every annulus K_R
    z0 = 1.0 + 0.0j

    def __init__(self, data: WeierstrassData, n_points=None):
        self.data = data
        self.annulus = data.annulus

        loops = circle_integral(data, 1.0, n_points)
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

        m, s, resid = self._fit_profile()
        self.profile = (m, s)
        self.profile_residual = resid
        lnR = math.log(self.annulus.R)
        if not resid < PROFILE_TOL * (abs(s) * lnR):
            raise NotATubeError(
                f"height function deviates from a radial log profile by {resid:.3g}; "
                "sections are not circles over the time axis", defect=self.defect)
        if s <= 0.0:
            raise NotATubeError(f"height profile slope {s:.3g} is not positive",
                                defect=self.defect)
        self.life = (m - s * lnR, m + s * lnR)

    def _fit_profile(self):
        pts = _fit_points(self.annulus)
        u3 = np.array([u.real for u in _path_integrals(self.data.F[2], self.z0, pts)])
        lr = np.log(np.abs(pts))
        A = np.column_stack([np.ones_like(lr), lr])
        (m, s), *_ = np.linalg.lstsq(A, u3, rcond=None)
        resid = float(np.max(np.abs(u3 - (m + s * lr))))
        return float(m), float(s), resid

    def u3(self, z):
        """Fitted height m + s ln|z| (use immerse for the integrated value)."""
        m, s = self.profile
        return m + s * np.log(np.abs(z))

    def __repr__(self):
        return (f"MinimalTube(R={self.annulus.R:.6g}, "
                f"life=({self.life[0]:.6g}, {self.life[1]:.6g}))")


def immerse(tube: MinimalTube, z):
    """u(z) = Re int_{z0}^{z} F as a point of R^3, path-independent on a tube."""
    return path_integral(tube.data, tube.z0, z).real


def section_polyline(tube: MinimalTube, tau: float, n_points=256):
    """The section at height tau as a closed polyline of shape (n_points+1, 3).

    Inverts the log profile for the section radius, anchors one point by a
    path integral from the base point, then sweeps the circle with one
    Gauss-Legendre panel per arc step.  The returned loop is closed exactly:
    first and last vertices are the same point of the surface.
    """
    t1, t2 = tube.life
    if not (t1 < tau < t2):
        raise ValueError(f"tau={tau} outside the open life interval ({t1:.6g}, {t2:.6g})")
    m, s = tube.profile
    rho = math.exp((tau - m) / s)

    anchor = immerse(tube, rho)
    # one 32-node panel per arc step, all steps sampled in one array call
    t_edges = np.linspace(0.0, 2.0 * math.pi, n_points + 1)
    t0 = t_edges[:-1, None]
    dt = (2.0 * math.pi / n_points)
    t_nodes = t0 + dt * GL_NODES[None, :]
    z_nodes = rho * np.exp(1j * t_nodes)
    dz = 1j * z_nodes * dt
    vals = tube.data(z_nodes.ravel()).reshape((3,) + t_nodes.shape)
    steps = np.real(np.sum(vals * dz * GL_WEIGHTS, axis=2)).T
    pts = np.empty((n_points + 1, 3))
    pts[0] = anchor
    pts[1:] = anchor + np.cumsum(steps, axis=0)
    pts[-1] = pts[0]
    return pts
