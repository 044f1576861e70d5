"""Minimal tubes over an annulus from Weierstrass-Enneper data.

A pair (f, g) of holomorphic functions on K_R = {1/R < |z| < R} induces the
isotropic triple

    F = ((1 - g^2) f,  i (1 + g^2) f,  2 g f),

and u(z) = Re int_{z0}^{z} F dzeta immerses the annulus in R^3 whenever the
real periods of F vanish.  If additionally the third coordinate is a radial
log profile, the level sections are compact circles and the image is a tube:
a surface living over an interval of the time axis.

The constructor route that matters in practice fixes the vertical component
first: tube_from_gauss sets f = c/(2zg) so that F3 = c/z exactly, and closure
of the periods then reduces to a statement about the two circle means a0[g]
and a0[1/g].  Both the quadrature route and the mean/residue route to the
period defect are implemented; they must agree, and tests hold them to it.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .contour import (
    Annulus, HoloFn, _merge_annuli, _path_integrals, _zero_excesses, a0, path_integral,
)
from .flux import _flux_from_loops, _loop_integrals

__all__ = [
    "NotATubeError", "WeierstrassData", "MinimalTube",
    "enneper_F", "isotropy_defect", "period_defect",
    "a0_pair", "defect_from_means", "flux_from_means",
    "tube_from_gauss", "immerse", "section_polyline",
]

# a closed tube's period defect must be dust relative to its flux
PERIOD_TOL = 1e-8
# and its height function must be a radial log profile to this residual
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
    annulus: Annulus
    flux_constant: float | None = None

    def __post_init__(self):
        merged = _merge_annuli(self.f.annulus, self.g.annulus)
        merged = _merge_annuli(merged, self.annulus)
        if merged is None:
            raise ValueError("Weierstrass data needs an annulus from f, g, or explicitly")
        object.__setattr__(self, "annulus", merged)

    @cached_property
    def F(self):
        return enneper_F(self)


def enneper_F(data: WeierstrassData):
    """The isotropic triple ((1-g^2)f, i(1+g^2)f, 2gf) as composed expressions."""
    f, g = data.f, data.g
    phi1 = (1 - g * g) * f
    phi2 = 1j * (1 + g * g) * f
    phi3 = 2 * g * f
    return (phi1, phi2, phi3)


def isotropy_defect(F, z):
    """Sum of squares of the triple at z; identically zero for enneper_F output."""
    return sum(phi(z) ** 2 for phi in F)


def period_defect(data: WeierstrassData, n_points=None):
    """(Re oint phi_1, Re oint phi_2, Re oint phi_3) over the unit circle.

    All three must vanish for u = Re int F to be single-valued on the
    annulus; the vector is returned untouched so callers can report how
    badly closure fails.  It is the real part of the same loop integrals
    whose imaginary part is the flux (see flux.flux_vector).
    """
    return _loop_integrals(data, 1.0, n_points).real


def a0_pair(g: HoloFn, rho=1.0, n_points=None):
    """The circle means (a0[g], a0[1/g]) that control closure and flux."""
    return a0(g, rho=rho, n_points=n_points), a0(1 / g, rho=rho, n_points=n_points)


def defect_from_means(g: HoloFn, c: float, rho=1.0):
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
    m, minv = a0_pair(g, rho=rho)
    return np.array([
        -math.pi * c * (minv - m).imag,
        -math.pi * c * (minv + m).real,
        0.0,
    ])


def flux_from_means(g: HoloFn, c: float, rho=1.0):
    """Flux triple of the f = c/(2zg) data by the same residue algebra."""
    m, minv = a0_pair(g, rho=rho)
    return np.array([
        math.pi * c * (minv - m).real,
        -math.pi * c * (minv + m).imag,
        2.0 * math.pi * c,
    ])


def _omission_check(g: HoloFn, annulus: Annulus):
    """Fail loudly when g has zeros (or a zero/pole imbalance) in the annulus."""
    notes, excess = next(_zero_excesses(g, g.derivative(), annulus, [None]))
    if excess is None:
        raise NotATubeError(
            "cannot certify that the Gauss map omits zero: winding integrals "
            f"did not settle ({'; '.join(notes) or 'no diagnostics'})")
    if excess != 0:
        raise NotATubeError(
            f"Gauss map has zero/pole excess {excess} inside the annulus; "
            "the data cannot describe a tube")


def tube_from_gauss(g: HoloFn, c: float, annulus: Annulus | None = None,
                    check_omission=True) -> WeierstrassData:
    """Weierstrass data with f = c/(2zg), so the vertical flux is 2 pi c exactly.

    g must omit zero on the annulus (checked by winding unless the caller
    already knows); c > 0 sets the vertical scale.
    """
    ann = _merge_annuli(annulus, g.annulus)
    if ann is None:
        raise ValueError("tube_from_gauss needs an annulus")
    if not (c > 0.0):
        raise ValueError(f"flux constant must be positive, got c={c}")
    if check_omission:
        _omission_check(g, ann)
    z = HoloFn.var(ann)
    f = (0.5 * c) / (z * g)
    return WeierstrassData(f=f, g=g, annulus=ann, flux_constant=c)


# --- the tube object -------------------------------------------------------

# deterministic sample of the annulus interior for the height-profile fit
def _fit_points(annulus: Annulus, n_radii=8, n_angles=6):
    R = annulus.R
    radii = R ** np.linspace(-0.9, 0.9, n_radii)
    golden = (math.sqrt(5.0) - 1.0) / 2.0
    angles = 2.0 * math.pi * ((np.arange(n_angles) * golden + 0.13) % 1.0)
    return (radii[:, None] * np.exp(1j * angles[None, :])).ravel()


class MinimalTube:
    """A closed immersion with circular sections, built from Weierstrass data.

    Construction takes the period defect and the flux from one pass of loop
    integrals, and fits the height (path integrals of F3 alone) to
    m + s ln|z| by least squares; with validate=True (the default) any
    failed tube hypothesis raises NotATubeError.  validate=False keeps the
    diagnostics available on a broken instance instead, for reporting.
    """

    def __init__(self, data: WeierstrassData, z0=1.0, validate=True, n_points=None):
        self.data = data
        self.annulus = data.annulus
        self.z0 = complex(z0)
        if not self.annulus.contains(self.z0):
            raise ValueError(f"base point {z0} is outside the annulus")

        loops = _loop_integrals(data, 1.0, n_points)
        self.defect = loops.real
        try:
            self.flux = _flux_from_loops(loops)
        except ValueError as exc:
            if validate:
                raise NotATubeError(str(exc), defect=self.defect) from exc
            self.flux = None
        qnorm = self.flux.norm if self.flux is not None else 0.0
        self.period_tol = PERIOD_TOL * (1.0 + qnorm)
        self.is_closed = bool(np.max(np.abs(self.defect)) < self.period_tol)
        if validate and not self.is_closed:
            raise NotATubeError(
                f"period defect {self.defect} exceeds tolerance {self.period_tol:.3g}; "
                "u = Re int F is not single-valued", defect=self.defect)

        m, s, resid = self._fit_profile()
        self.profile = (m, s)
        self.profile_residual = resid
        scale = 1.0 + abs(s) * math.log(self.annulus.R)
        self.is_radial = bool(resid < PROFILE_TOL * scale)
        if validate and not self.is_radial:
            raise NotATubeError(
                f"height function deviates from a radial log profile by {resid:.3g}; "
                "sections are not circles over the time axis", defect=self.defect)
        if validate and s <= 0.0:
            raise NotATubeError(f"height profile slope {s:.3g} is not positive",
                                defect=self.defect)
        lnR = math.log(self.annulus.R)
        self.life = (m - s * lnR, m + s * lnR)

    def _fit_profile(self):
        pts = _fit_points(self.annulus)
        u3 = np.array([u.real for u in _path_integrals(self.data.F[2], self.z0, pts)])
        lr = np.log(np.abs(pts))
        A = np.column_stack([np.ones_like(lr), lr])
        (m, s), *_ = np.linalg.lstsq(A, u3, rcond=None)
        resid = float(np.max(np.abs(u3 - (m + s * lr))))
        return float(m), float(s), resid

    def _raw_immerse(self, z):
        vals = path_integral(self.data.F, self.z0, complex(z))
        return vals.real

    def u3(self, z):
        """Fitted height m + s ln|z| (use immerse for the integrated value)."""
        m, s = self.profile
        return m + s * np.log(np.abs(z))

    def __repr__(self):
        state = "closed" if self.is_closed else "open"
        return (f"MinimalTube({state}, R={self.annulus.R:.6g}, "
                f"life=({self.life[0]:.6g}, {self.life[1]:.6g}))")


def immerse(tube: MinimalTube, z):
    """u(z) = Re int_{z0}^{z} F as a point of R^3.

    On a tube this is path-independent; when the period defect is above
    tolerance the value silently depends on the integration path, so the op
    warns and carries on (useful for looking at broken data).
    """
    if not tube.annulus.contains(z):
        raise ValueError(f"point {z} is outside the annulus")
    if not tube.is_closed:
        warnings.warn("period defect above tolerance: immersion is path-dependent",
                      stacklevel=2)
    return tube._raw_immerse(z)


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

    anchor = tube._raw_immerse(rho)
    # one 32-node panel per arc step, all steps evaluated in one array call
    from .contour import _gl_nodes
    x, w = _gl_nodes()
    t_edges = np.linspace(0.0, 2.0 * math.pi, n_points + 1)
    t0 = t_edges[:-1, None]
    dt = (2.0 * math.pi / n_points)
    t_nodes = t0 + dt * x[None, :]
    z_nodes = rho * np.exp(1j * t_nodes)
    dz = 1j * z_nodes * dt
    steps = np.empty((n_points, 3))
    for k, phi in enumerate(tube.data.F):
        vals = phi(z_nodes.ravel()).reshape(t_nodes.shape)
        steps[:, k] = np.real(np.sum(vals * dz * w[None, :], axis=1))
    pts = np.empty((n_points + 1, 3))
    pts[0] = anchor
    pts[1:] = anchor + np.cumsum(steps, axis=0)
    pts[-1] = pts[0]
    return pts
