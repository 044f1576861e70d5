"""Flow vector, tilt angle, and life-time bounds for minimal tubes.

The flow vector Q = Im oint F is constant across the sections of a tube, so
one pass of loop integrals recovers it; their real parts are the period
defect of tubes.py, which MinimalTube takes from the same pass.  Everything
downstream of Q is elementary trigonometry in the (J1 + i J2, J3) plane: the
tilt angle alpha is the angle between Q and the time axis, and the life-time
bound is

    pi |Q| cos(alpha) / ln tan(pi/4 + alpha/2)  =  pi J3 / arcsinh(tan alpha),

the two forms being the Gudermannian identity in disguise.  Both are computed
and cross-checked on every call.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .contour import (
    QUAD_TOL, _circle_levels, _circle_nodes, _circle_sum, _refine, univalence_probe,
)

__all__ = [
    "FluxVector", "Tilt", "Lifetime", "LifetimeReport",
    "flux_vector", "tilt_params", "lifetime", "lifetime_bound",
    "lifetime_report",
]

# quadrature dust below this (relative) size is snapped to zero so that
# exactly-balanced data reports alpha = 0 and an infinite bound
SNAP_TOL = 1e-11

BOUND_FORM_TOL = 1e-10

# slack granted to the measured life-time when it is checked against the bound
LIFE_TOL = 1e-8


@dataclass(frozen=True)
class FluxVector:
    """Flux triple (J1, J2, J3) with J3 > 0 (tube co-oriented with time)."""

    J1: float
    J2: float
    J3: float

    def __post_init__(self):
        if not (self.J3 > 0.0):
            raise ValueError(f"vertical flux must be positive, got J3={self.J3}")

    @property
    def w(self) -> complex:
        return complex(self.J1, self.J2) / self.J3

    @property
    def alpha(self) -> float:
        # arctan of |w|, never arccos of a unit-vector dot product: the
        # arccos route loses half the digits for small tilt
        return math.atan(abs(self.w))

    @property
    def theta(self) -> float:
        if self.J1 == 0.0 and self.J2 == 0.0:
            return 0.0
        return math.atan2(self.J2, self.J1)

    @property
    def norm(self) -> float:
        return math.sqrt(self.J1 ** 2 + self.J2 ** 2 + self.J3 ** 2)

    def as_array(self):
        return np.array([self.J1, self.J2, self.J3])


# the triple from one sample of g and f, with the operations of the enneper_F
# trees in their order, so the values match the trees bit for bit
_TRIPLE = (
    lambda g, f: (1 - g * g) * f,
    lambda g, f: ((g * g + 1) * 1j) * f,
    lambda g, f: (g * 2) * f,
)


def _loop_integrals(data, rho, n_points):
    """Loop integrals oint phi_k over |z| = rho: Re is the period defect, Im the flux.

    Each level evaluates g and f once and reduces the components still
    refining one at a time; each component keeps the estimate of the level
    where it settled, as circle_integral would give it.
    """
    # rho is checked against the annulus the three components share
    n0, n_max = _circle_levels(data.F[0], rho, n_points)

    def quad(n, live):
        zeta = _circle_nodes(rho, n)
        g, f = data.g(zeta), data.f(zeta)
        sums = []
        for k in live:
            with np.errstate(all="ignore"):
                phi = _TRIPLE[k](g, f)
            sums.append(_circle_sum(zeta, phi))
        return sums

    return np.array(_refine(quad, 3, n0, n_max, QUAD_TOL))


def _flux_from_loops(loops) -> FluxVector:
    """Q = Im of the loop integrals, with quadrature dust snapped to zero.

    Components smaller than SNAP_TOL relative to the largest one are set to
    exactly zero, so that symmetric data (catenoid bands and their kin) gets
    an exact alpha = 0 instead of a 1e-16-radian tilt.
    """
    J = loops.imag.copy()
    scale = 1.0 + np.max(np.abs(J))
    J[np.abs(J) < SNAP_TOL * scale] = 0.0
    if J[2] <= 0.0:
        raise ValueError(
            f"vertical flux J3={J[2]:.6g} is not positive; "
            "data is not co-oriented tube data")
    return FluxVector(*J.tolist())


def flux_vector(data, rho=1.0, n_points=None) -> FluxVector:
    """Q = Im oint F over the circle |z| = rho (rho-independent for tube data)."""
    return _flux_from_loops(_loop_integrals(data, rho, n_points))


@dataclass(frozen=True)
class Tilt:
    w: complex
    alpha: float
    theta: float


def tilt_params(Q: FluxVector) -> Tilt:
    """Tilt data of the flow vector: w = (J1+iJ2)/J3, alpha = arctan|w|, theta = arg w."""
    return Tilt(w=Q.w, alpha=Q.alpha, theta=Q.theta)


@dataclass(frozen=True)
class Lifetime:
    measured: float
    from_flux: float


def lifetime(tube) -> Lifetime:
    """Life-time two ways: from the fitted height profile, and as J3 ln R / pi.

    The second form is the flux identity ln R = pi (tau2 - tau1) / J3 solved
    for the interval length; agreement of the two is a consistency check on
    the whole synthesis pipeline, not an a-priori fact.
    """
    tau1, tau2 = tube.life
    measured = tau2 - tau1
    from_flux = tube.flux.J3 * math.log(tube.annulus.R) / math.pi
    return Lifetime(measured=measured, from_flux=from_flux)


def lifetime_bound(Q: FluxVector) -> float:
    """Largest life-time compatible with the flow vector Q; +inf at zero tilt."""
    alpha = Q.alpha
    if alpha == 0.0:
        return math.inf
    via_arcsinh = math.pi * Q.J3 / math.asinh(math.tan(alpha))
    via_gudermann = (math.pi * Q.norm * math.cos(alpha)
                     / math.log(math.tan(math.pi / 4.0 + alpha / 2.0)))
    if abs(via_arcsinh - via_gudermann) > BOUND_FORM_TOL * abs(via_arcsinh):
        raise ArithmeticError(
            f"bound closed forms disagree: {via_arcsinh!r} vs {via_gudermann!r}")
    return via_arcsinh


@dataclass(frozen=True)
class LifetimeReport:
    lifetime: Lifetime
    bound: float
    satisfied: bool | None
    margin: float | None
    hypothesis: str
    probe: object = None


def lifetime_report(tube, probe=None) -> LifetimeReport:
    """Check a tube's life-time against its flux bound.

    The bound needs a univalent Gauss map; if the probe reports a violation
    the verdict is withheld and the report says why.  Pass a precomputed
    ProbeReport to skip the (comparatively expensive) probe.
    """
    if probe is None:
        probe = univalence_probe(tube.data.g, tube.annulus)
    life = lifetime(tube)
    bound = lifetime_bound(tube.flux)
    if probe.univalent == "violated":
        return LifetimeReport(lifetime=life, bound=bound, satisfied=None,
                              margin=None, hypothesis="univalence violated",
                              probe=probe)
    hypothesis = "ok" if probe.univalent == "passed" else "univalence unconfirmed"
    if math.isinf(bound):
        return LifetimeReport(lifetime=life, bound=bound, satisfied=True,
                              margin=math.inf, hypothesis=hypothesis, probe=probe)
    return LifetimeReport(
        lifetime=life, bound=bound,
        satisfied=bool(life.measured <= bound + LIFE_TOL),
        margin=bound - life.measured,
        hypothesis=hypothesis, probe=probe)
