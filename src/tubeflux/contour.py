"""Contour calculus on circular annuli.

Quadrature on circles is the uniform trapezoid rule, which is spectrally
accurate for integrands analytic in a neighbourhood of the circle.  When no
node count is given, integrals start at N=1024 and double until two
successive estimates agree, capped at N=65536.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .expr import (
    Const, Div, EvalDomainError, ExprError, Mul, Opaque, Var,
    differentiate, evaluate, parse, to_string,
)

__all__ = [
    "Annulus", "HoloFn", "ProbeReport", "parse_holo_expr",
    "circle_integral", "laurent_coeff", "a0", "path_integral",
    "univalence_probe",
]

TWO_PI_I = 2j * math.pi

DEFAULT_N = 1024
MAX_N = 2 ** 16
QUAD_TOL = 1e-11

# the probe's winding circles sit this fraction of ln R inside the rims
PROBE_MARGIN = 0.02
PROBE_TARGETS = 32


@dataclass(frozen=True)
class Annulus:
    """The round annulus {1/R < |z| < R}, R > 1."""

    R: float

    def __post_init__(self):
        if not (self.R > 1.0):
            raise ValueError(f"annulus needs R > 1, got R={self.R}")

    @property
    def inner_radius(self):
        return 1.0 / self.R

    def contains(self, z, margin=0.0):
        """True for points strictly inside, with an optional relative rim margin."""
        r = abs(z)
        lo = self.inner_radius * (1.0 + margin)
        hi = self.R * (1.0 - margin)
        return lo < r < hi

    def radius_inside(self, rho):
        return self.inner_radius < rho < self.R


def _merge_annuli(a, b):
    if a is None:
        return b
    if b is None:
        return a
    if abs(a.R - b.R) > 1e-12 * max(a.R, b.R):
        raise ValueError(f"annulus mismatch: R={a.R} vs R={b.R}")
    return a


class HoloFn:
    """A function holomorphic on an annulus, carried as an expression tree.

    Supports arithmetic with other HoloFn instances (domains must agree) and
    with plain scalars; the results stay symbolic so derivatives and printing
    keep working.  Series-backed functions enter through ``from_callable``.
    """

    __slots__ = ("node", "annulus")

    def __init__(self, node, annulus):
        self.node = node
        self.annulus = annulus

    @classmethod
    def parse(cls, text, annulus):
        return cls(parse(text), annulus)

    @classmethod
    def var(cls, annulus):
        return cls(Var(), annulus)

    @classmethod
    def constant(cls, value, annulus):
        return cls(Const(complex(value)), annulus)

    @classmethod
    def from_callable(cls, name, fn, annulus, deriv=None):
        """Wrap a vectorised numeric callable; ``deriv`` is a node or node factory."""
        return cls(Opaque(name, fn, deriv), annulus)

    def __call__(self, z):
        return evaluate(self.node, z)

    def derivative(self):
        return HoloFn(differentiate(self.node), self.annulus)

    def __str__(self):
        return to_string(self.node)

    def __repr__(self):
        return f"HoloFn({to_string(self.node)!r}, R={self.annulus.R if self.annulus else None})"

    # -- arithmetic ----------------------------------------------------

    def _coerce(self, other):
        if isinstance(other, HoloFn):
            return other.node, _merge_annuli(self.annulus, other.annulus)
        if isinstance(other, (int, float, complex)):
            return Const(complex(other)), self.annulus
        return NotImplemented, None

    def _binary(self, other, op, swap=False):
        node, ann = self._coerce(other)
        if node is NotImplemented:
            return NotImplemented
        a, b = (node, self.node) if swap else (self.node, node)
        return HoloFn(op(a, b), ann)

    def __add__(self, other):
        from .expr import Add
        return self._binary(other, Add)

    __radd__ = __add__

    def __sub__(self, other):
        from .expr import Sub
        return self._binary(other, Sub)

    def __rsub__(self, other):
        from .expr import Sub
        return self._binary(other, Sub, swap=True)

    def __mul__(self, other):
        return self._binary(other, Mul)

    __rmul__ = __mul__

    def __truediv__(self, other):
        return self._binary(other, Div)

    def __rtruediv__(self, other):
        return self._binary(other, Div, swap=True)

    def __neg__(self):
        from .expr import Neg
        return HoloFn(Neg(self.node), self.annulus)

    def __pow__(self, k):
        from .expr import Pow
        if not isinstance(k, int):
            raise TypeError("only integer powers are supported")
        return HoloFn(Pow(self.node, k), self.annulus)


def parse_holo_expr(text, annulus):
    """Parse grammar text into a HoloFn on the given annulus."""
    return HoloFn.parse(text, annulus)


# --- circle quadrature -----------------------------------------------------

def _check_rho(h, rho):
    ann = getattr(h, "annulus", None)
    if ann is not None and not ann.radius_inside(rho):
        raise ValueError(
            f"radius {rho} is not strictly inside the annulus "
            f"({ann.inner_radius} .. {ann.R})")


def _trapezoid_circle(h, rho, n):
    theta = 2.0 * math.pi * np.arange(n) / n
    zeta = rho * np.exp(1j * theta)
    vals = h(zeta)
    return (TWO_PI_I / n) * np.sum(zeta * vals)


def _refine(quad, n, n_max, tol):
    """Double the resolution n of quad(n) until two successive estimates
    differ by less than ``tol`` relative to the magnitude, capped at n_max."""
    prev = quad(n)
    while n < n_max:
        n *= 2
        cur = quad(n)
        if abs(cur - prev) < tol * (1.0 + abs(cur)):
            return cur
        prev = cur
    return prev


def circle_integral(h, rho, n_points=None, tol=QUAD_TOL):
    """Integral of h over the circle |z| = rho, counterclockwise.

    With explicit ``n_points`` (even, >= 16) a single trapezoid pass is used;
    otherwise the node count doubles from 1024 until two successive estimates
    differ by less than ``tol`` (relative to the magnitude), capped at 65536.
    """
    if rho <= 0:
        raise ValueError("rho must be positive")
    _check_rho(h, rho)
    if n_points is not None:
        if n_points < 16 or n_points % 2:
            raise ValueError("n_points must be even and at least 16")
        return _trapezoid_circle(h, rho, int(n_points))
    return _refine(lambda n: _trapezoid_circle(h, rho, n), DEFAULT_N, MAX_N, tol)


def laurent_coeff(h, k, rho=1.0, n_points=None):
    """Laurent coefficient a_k[h] = (1/2pi i) * integral of h(z) z^(-k-1) dz over |z|=rho."""
    _check_rho(h, rho)

    def weighted(zeta):
        return h(zeta) * zeta ** (-k - 1)

    return circle_integral(weighted, rho, n_points=n_points) / TWO_PI_I


def a0(h, rho=1.0, n_points=None):
    """Mean of h over the circle |z|=rho: the k=0 Laurent coefficient."""
    return laurent_coeff(h, 0, rho, n_points=n_points)


# --- path integrals --------------------------------------------------------

_GL_CACHE = {}


def _gl_nodes(n=32):
    if n not in _GL_CACHE:
        x, w = np.polynomial.legendre.leggauss(n)
        _GL_CACHE[n] = (0.5 * (x + 1.0), 0.5 * w)  # on [0, 1]
    return _GL_CACHE[n]


def _segment_quad(h, gamma, dgamma, panels):
    x, w = _gl_nodes()
    t = (np.arange(panels)[:, None] + x[None, :]) / panels
    t = t.ravel()
    vals = h(gamma(t)) * dgamma(t)
    weights = np.tile(w, panels) / panels
    return np.sum(vals * weights)


def _canonical_legs(z0, z1):
    """Arc at |z0| through the shorter angular gap (ties counterclockwise),
    then the radial segment at arg(z1)."""
    r0, r1 = abs(z0), abs(z1)
    th0, th1 = math.atan2(z0.imag, z0.real), math.atan2(z1.imag, z1.real)
    dth = math.remainder(th1 - th0, 2.0 * math.pi)
    if abs(abs(dth) - math.pi) < 1e-15:
        dth = math.pi  # half turn: go counterclockwise
    legs = []
    if dth != 0.0:
        def arc(t, r0=r0, th0=th0, dth=dth):
            return r0 * np.exp(1j * (th0 + dth * t))

        def darc(t, r0=r0, th0=th0, dth=dth):
            return 1j * dth * r0 * np.exp(1j * (th0 + dth * t))

        legs.append((arc, darc))
    if r1 != r0:
        e = np.exp(1j * th1)

        def radial(t, r0=r0, r1=r1, e=e):
            return (r0 + (r1 - r0) * t) * e

        def dradial(t, r0=r0, r1=r1, e=e):
            return np.full_like(np.asarray(t, dtype=float), r1 - r0) * e

        legs.append((radial, dradial))
    return legs


def _path_quad(h, z0, z1, tol=1e-12):
    total = 0.0 + 0.0j
    for gamma, dgamma in _canonical_legs(complex(z0), complex(z1)):
        total += _refine(lambda p: _segment_quad(h, gamma, dgamma, p), 1, 256, tol)
    return total


def path_integral(F, z0, z1):
    """Integrate a component triple along the canonical arc-then-radial path.

    Both endpoints must lie strictly inside the common annulus; the canonical
    path then stays inside automatically.  The arc takes the shorter angular
    gap, with the half-turn tie resolved counterclockwise, so multivalued
    primitives are reproducible.
    """
    comps = list(F)
    ann = None
    for c in comps:
        ann = _merge_annuli(ann, getattr(c, "annulus", None))
    for name, pt in (("start", complex(z0)), ("end", complex(z1))):
        if ann is not None and not ann.contains(pt):
            raise ValueError(f"path {name} point {pt} is not inside the annulus")
    return np.array([_path_quad(c, z0, z1) for c in comps], dtype=complex)


# --- univalence probe ------------------------------------------------------

@dataclass
class ProbeReport:
    """Asymmetric verdicts: 'violated' is certain (argument principle plus a
    witness when one is found); 'passed' records sampling evidence only."""

    univalent: str
    omits_zero: str
    zero_count: int | None
    witness: tuple | None = None
    n_targets: int = 0
    notes: list = field(default_factory=list)


def _integer_winding(g, gprime, rho, w=None, tries=4, notes=None):
    """Winding number of g - w over |z|=rho via the argument principle.

    Retries at slightly perturbed radii when the quadrature refuses to settle
    near an integer (g nearly vanishing on the circle).  Returns None when
    every try is inconclusive.
    """
    shifted = g if w is None else g - w
    integrand = gprime / shifted
    r = rho
    for attempt in range(tries):
        try:
            val = circle_integral(integrand, r, tol=1e-8) / TWO_PI_I
        except (EvalDomainError, ZeroDivisionError):
            val = None
        if val is not None:
            n = round(val.real)
            if abs(val - n) < 1e-4:
                return n
        if notes is not None:
            notes.append(f"winding at rho={r:.6g} inconclusive, perturbing")
        r = rho * (1.0 + 2.0e-3 * (attempt + 1))
    return None


def _sample_points(annulus, margin, n):
    # deterministic low-discrepancy-ish spread: geometric radii, golden angles
    R = annulus.R
    lo, hi = -(1.0 - 2.0 * margin), (1.0 - 2.0 * margin)
    radii = R ** np.linspace(lo, hi, num=max(3, int(math.ceil(n / 6))))
    golden = (math.sqrt(5.0) - 1.0) / 2.0
    pts = []
    j = 0
    while len(pts) < n:
        r = radii[j % len(radii)]
        theta = 2.0 * math.pi * ((j * golden) % 1.0)
        pts.append(r * np.exp(1j * theta))
        j += 1
    return np.array(pts)


def _newton_roots(g, gprime, w, annulus, margin):
    """Collect distinct annulus solutions of g(z) = w by Newton iteration."""
    R = annulus.R
    rr = R ** np.linspace(-(1 - margin), 1 - margin, 14)
    tt = 2.0 * math.pi * (np.arange(16) + 0.31) / 16
    z = (rr[:, None] * np.exp(1j * tt[None, :])).ravel()
    for _ in range(60):
        try:
            fz = g(z) - w
            dz = gprime(z)
        except EvalDomainError:
            break
        with np.errstate(all="ignore"):
            step = fz / dz
        step = np.where(np.isfinite(step), step, 0.0)
        z = z - step
    roots = []
    try:
        resid = np.abs(g(z) - w)
    except EvalDomainError:
        return roots
    order = np.lexsort((z.imag.round(9), z.real.round(9)))
    for idx in order:
        zi = complex(z[idx])
        if not np.isfinite(resid[idx]) or resid[idx] > 1e-8:
            continue
        if not annulus.contains(zi, margin=1e-9):
            continue
        if all(abs(zi - r) > 1e-7 for r in roots):
            roots.append(zi)
    return roots


def _zero_excess(g, gprime, annulus, w=None, notes=None):
    """Zeros minus poles of g - w between the circles |z| = R^(+-(1-PROBE_MARGIN)).

    Both windings are always attempted, so ``notes`` records every retry;
    returns None when either of them does not settle.
    """
    w_out = _integer_winding(g, gprime, annulus.R ** (1.0 - PROBE_MARGIN), w=w, notes=notes)
    w_in = _integer_winding(g, gprime, annulus.R ** (PROBE_MARGIN - 1.0), w=w, notes=notes)
    if w_out is None or w_in is None:
        return None
    return w_out - w_in


def univalence_probe(g, annulus=None):
    """Probe injectivity and zero-omission of g on (a rim-shrunk copy of) its annulus.

    Zero counting and preimage counting both ride the argument principle over
    the circles |z| = R^(1-PROBE_MARGIN) and |z| = R^(PROBE_MARGIN-1).  A
    'violated' verdict is certain; 'passed' means no violation was seen among
    the PROBE_TARGETS sampled targets.
    """
    annulus = _merge_annuli(annulus, g.annulus)
    if annulus is None:
        raise ValueError("univalence_probe needs an annulus")
    gprime = g.derivative()
    notes = []

    zero_count = _zero_excess(g, gprime, annulus, notes=notes)
    if zero_count is None:
        omits = "inconclusive"
    else:
        omits = "passed" if zero_count == 0 else "violated"

    targets = _sample_points(annulus, PROBE_MARGIN, PROBE_TARGETS)
    verdict = "passed"
    witness = None
    counted = 0
    for zt in targets:
        try:
            w = g(zt)
        except EvalDomainError:
            notes.append(f"sample point {zt:.6g} not evaluable")
            continue
        count = _zero_excess(g, gprime, annulus, w=w, notes=notes)
        if count is None:
            notes.append(f"target {w:.6g} skipped (winding unsettled)")
            continue
        counted += 1
        if count >= 2:
            verdict = "violated"
            roots = _newton_roots(g, gprime, w, annulus, PROBE_MARGIN)
            if len(roots) >= 2:
                witness = (roots[0], roots[1])
            break
    if verdict == "passed" and counted == 0:
        verdict = "inconclusive"
        notes.append("no preimage count settled")

    return ProbeReport(
        univalent=verdict,
        omits_zero=omits,
        zero_count=zero_count,
        witness=witness,
        n_targets=counted,
        notes=notes,
    )
