"""Flow vector, tilt angle, and life-time bounds for minimal tubes.

The flow vector Q = Im oint F is constant across the sections of a tube, so
one circle_integral of the Weierstrass data, which gives the three loop
integrals of F from one sample of g and f per level, recovers it; their
real parts are the period defect of tubes.py, which MinimalTube takes from
the same pass.  Everything downstream of Q is elementary trigonometry in
the (J1 + i J2, J3) plane: the tilt angle alpha is the angle between Q and
the time axis, and the life-time bound is

    pi |Q| cos(alpha) / ln tan(pi/4 + alpha/2)  =  pi J3 / arcsinh(tan alpha),

the two forms being the Gudermannian identity in disguise.  Both are computed
from tan(alpha) = |w| and cross-checked on every call.  A LifetimeReport keeps
the life-time, the bound and the datum's own probe, and derives its verdicts.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .contour import ProbeReport, circle_integral

__all__ = [
    "FluxVector", "Lifetime", "LifetimeReport",
    "flux_vector", "lifetime", "lifetime_bound",
    "lifetime_report",
]

# quadrature dust below this (relative) size is snapped to zero so that
# exactly-balanced data reports alpha = 0 and an infinite bound
SNAP_TOL = 1e-11

BOUND_FORM_TOL = 1e-10

# slack granted to the measured life-time when it is checked against the
# bound, relative to the bound
LIFE_TOL = 1e-8


@dataclass(frozen=True)
class FluxVector:
    """Finite flux triple (J1, J2, J3) with J3 > 0 (tube co-oriented with time)."""

    J1: float
    J2: float
    J3: float

    def __post_init__(self):
        if not all(map(math.isfinite, (self.J1, self.J2, self.J3))):
            raise ValueError(f"flux ({self.J1!r}, {self.J2!r}, {self.J3!r}) is not finite")
        if not (self.J3 > 0.0):
            raise ValueError(f"vertical flux J3={self.J3:.6g} is not positive; "
                             "data is not co-oriented tube data")

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
        return math.hypot(self.J1, self.J2, self.J3)

    def as_array(self):
        return np.array([self.J1, self.J2, self.J3])


def _flux_from_loops(loops) -> FluxVector:
    """Q = Im of the loop integrals, with quadrature dust snapped to zero.

    Horizontal components smaller than SNAP_TOL relative to the largest
    component are set to exactly zero, so that symmetric data (catenoid
    bands and their kin) gets an exact alpha = 0 instead of a 1e-16-radian
    tilt.  The floor scales with the flux alone, so the verdict does not
    depend on the size of c.  J3 is never snapped: on thin rings |J1| reaches
    1e13 while J3 = 2 pi c, which the snap would turn into a refusal.
    """
    J = loops.imag.copy()
    J[:2][np.abs(J[:2]) < SNAP_TOL * np.max(np.abs(J))] = 0.0
    return FluxVector(*J.tolist())


def flux_vector(data, rho=1.0) -> FluxVector:
    """Q = Im oint F over the circle |z| = rho (rho-independent for tube data)."""
    return _flux_from_loops(circle_integral(data, rho))


@dataclass(frozen=True)
class Lifetime:
    """A life interval's length: ``measured`` from tube.life, ``from_flux``."""

    measured: float
    from_flux: float


def lifetime(tube) -> Lifetime:
    """Life-time two ways: the length of tube.life, and J3 ln R / pi.

    The second form is the flux identity ln R = pi (tau2 - tau1) / J3 solved
    for the interval length; MinimalTube takes its slope from the same
    identity, so the two agree to rounding (profile_residual checks the height).
    """
    tau1, tau2 = tube.life
    measured = tau2 - tau1
    from_flux = tube.flux.J3 * math.log(tube.annulus.R) / math.pi
    return Lifetime(measured=measured, from_flux=from_flux)


def lifetime_bound(Q: FluxVector) -> float:
    """Largest life-time compatible with the flow vector Q; +inf at zero tilt.

    Both closed forms take x = |w| = tan(alpha) as it is: tan(atan x) keeps
    only about 16 - log10(x) digits of x, too few on thin rings (x ~ 1e9).
    The Gudermannian form writes ln tan(pi/4 + alpha/2) = ln(x + sec alpha)
    as log1p(x + (sec alpha - 1)) with sec alpha - 1 = x^2/(1 + sec alpha),
    because ln(x + sec alpha) loses the digits of a small x (1e-12 to 1e-7)
    to cancellation, and x * (x/(1 + sec alpha)) does not overflow for large x.
    """
    x = abs(Q.w)
    if x == 0.0:
        return math.inf
    sec = math.hypot(1.0, x)
    via_arcsinh = math.pi * Q.J3 / math.asinh(x)
    via_gudermann = math.pi * Q.norm / sec / math.log1p(x + x * (x / (1.0 + sec)))
    if abs(via_arcsinh - via_gudermann) > BOUND_FORM_TOL * abs(via_arcsinh):
        raise ArithmeticError(
            f"bound closed forms disagree: {via_arcsinh!r} vs {via_gudermann!r}")
    return via_arcsinh


@dataclass(frozen=True)
class LifetimeReport:
    """What lifetime_report measured; the verdicts are read off it, and a
    violated probe withholds them (satisfied and margin None)."""

    lifetime: Lifetime
    bound: float
    probe: ProbeReport

    @property
    def hypothesis(self) -> str:
        return {"passed": "ok", "violated": "univalence violated"}.get(
            self.probe.univalent, "univalence unconfirmed")

    @property
    def satisfied(self) -> bool | None:
        withheld = self.probe.univalent == "violated"
        return None if withheld else bool(self.lifetime.measured <= self.bound * (1.0 + LIFE_TOL))

    @property
    def margin(self) -> float | None:  # +inf at zero tilt, where the bound is +inf
        return None if self.probe.univalent == "violated" else self.bound - self.lifetime.measured


def lifetime_report(tube) -> LifetimeReport:
    """Check a tube's life-time against its flux bound, on the datum's own
    probe (``tube.data.probe``, which MinimalTube has already run)."""
    return LifetimeReport(lifetime=lifetime(tube), bound=lifetime_bound(tube.flux),
                          probe=tube.data.probe)
