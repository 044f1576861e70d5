"""Contour calculus on circular annuli.

Quadrature on circles is the uniform trapezoid rule, which is spectrally
accurate for integrands analytic in a neighbourhood of the circle.  When no
node count is given, integrals start at N=1024 and double until two
successive estimates agree (or differ by less than the rounding level of
the sum, where QUAD_TOL is out of reach), capped at N=65536.  The levels
nest, so each doubling evaluates the integrand on its new nodes only
(Trefethen & Weideman, SIAM Rev. 2014).  Path integrals use 32-node
Gauss-Legendre panels, doubling from 1 to 256 panels per leg.  A leg is a
record (a, b, c, d), the curve (a + b t) exp(i (c + d t)) for 0 <= t <= 1,
and the paths of one call integrate each distinct leg once.  Circle and
path integrands may return a stack of k rows (the Weierstrass triple, or
a0_pair's [g, 1/g]), giving k integrals from one sample per level.  One
routine, ``_refine``, does all of this doubling; it refines a vector of
estimates that share one sample per level, and each estimate stops at its
own level.

The univalence probe counts zeros and preimages by the argument principle
on two circles.  It works level-major from WINDING_N0 = 128 nodes: each
doubling takes g and g' on its new nodes only, from one evaluation pass (a
theta leaf's value and derivative from one comb walk-out), and adds their
terms to one running sum for every target still refining -- the zero count
and the PROBE_TARGETS values of g, themselves sampled in one call -- in one
broadcast over blocks of rows.  A target's sample point is a known
preimage, a pole of its integrand whose trapezoid error has a closed form,
so each level removes it at no per-node cost; so are the points of g's rim
divisor (HoloFn.divisor, set on the slit map), a pole of g for every
finite target and a zero of g for w = 0 alone.  A winding sum stops at the
1e-8 relative test or as soon as it sits on an integer at two successive
levels (see _windings), since the trapezoid error of an analytic integrand
falls geometrically and the exact sum is an integer multiple of 2 pi i.  A
try is noted once, however many targets it leaves unsettled.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import partialmethod

import numpy as np

from .expr import (
    Add, Const, Div, EvalDomainError, Mul, Neg, Pow, Sub, Var,
    _Plan, _refuse, differentiate, evaluate, parse, to_string,
)

__all__ = [
    "Annulus", "HoloFn", "ProbeReport", "circle_integral", "laurent_coeff",
    "a0", "a0_pair", "path_integral", "univalence_probe",
]

TWO_PI_I = 2j * math.pi

DEFAULT_N = 1024
MAX_N = 2 ** 16
QUAD_TOL = 1e-11
# a circle sum's rounding level is ROUND_EPS * (2 pi/n) sum |zeta h(zeta)|
ROUND_EPS = 4.0 * np.finfo(float).eps

# the probe's winding circles sit this fraction of ln R inside the rims
PROBE_MARGIN = 0.02
PROBE_TARGETS = 32
# winding sums start at WINDING_N0 nodes, and a level sums its live targets
# in blocks of at most WINDING_BLOCK terms
WINDING_N0 = 128
WINDING_BLOCK = 2 ** 16


@dataclass(frozen=True)
class Annulus:
    """The round annulus {1/R < |z| < R}, R > 1."""

    R: float

    def __post_init__(self):
        if not 1.0 < self.R < math.inf:
            raise ValueError(f"annulus needs a finite R > 1, got R={self.R}")

    @property
    def inner_radius(self):
        return 1.0 / self.R

    def contains(self, z, margin=0.0):
        """True for points strictly inside, with an optional relative rim
        margin; elementwise on an array, and False at a non-finite point."""
        r = abs(z)
        lo = self.inner_radius * (1.0 + margin)
        hi = self.R * (1.0 - margin)
        return (lo < r) & (r < hi)


def _merge_annuli(a, b):
    if abs(a.R - b.R) > 1e-12 * max(a.R, b.R):
        raise ValueError(f"annulus mismatch: R={a.R} vs R={b.R}")
    return a


class HoloFn:
    """A function holomorphic on an annulus, carried as an expression tree.

    The annulus is part of the function: the constructor refuses anything
    that is not an Annulus, and quadrature, the univalence probe and the
    Weierstrass synthesis all read it from here.  Supports arithmetic with
    other HoloFn instances (annuli must agree) and with plain scalars; the
    results stay symbolic so derivatives and printing keep working.
    Series-backed functions enter as Opaque leaves of the tree (as the slit
    map's thetas do).

    ``divisor`` lists zeros and poles of the function that sit on or near
    the rims, as (point, order) pairs: order m > 0 for a zero of order m,
    m < 0 for a pole of order -m.  The univalence probe removes their
    trapezoid error in closed form (_winding_level).  It is data the maker
    of the map vouches for, and only calibrate_candidate sets it (g0's
    order-2 zero at R and order-2 pole at -1/R); parse, arithmetic and
    derivative() give (), since their results have another divisor.
    """

    __slots__ = ("node", "annulus", "divisor", "_plan")

    def __init__(self, node, annulus, divisor=()):
        if not isinstance(annulus, Annulus):
            raise TypeError(f"HoloFn needs an Annulus, got {annulus!r}")
        self.node = node
        self.annulus = annulus
        self.divisor = tuple((complex(p), int(m)) for p, m in divisor)
        self._plan = None  # the tree's evaluation plan, compiled at the first call

    @classmethod
    def parse(cls, text, annulus):
        return cls(parse(text), annulus)

    @classmethod
    def var(cls, annulus):
        return cls(Var(), annulus)

    def __call__(self, z):
        if self._plan is None:
            self._plan = _Plan(self.node)
        return evaluate(self._plan, z)

    def derivative(self):
        return HoloFn(differentiate(self.node), self.annulus)

    def __str__(self):
        return to_string(self.node)

    def __repr__(self):
        return f"HoloFn({to_string(self.node)!r}, R={self.annulus.R})"

    # -- arithmetic ----------------------------------------------------

    def _binary(self, other, op, swap=False):
        if isinstance(other, HoloFn):
            node, ann = other.node, _merge_annuli(self.annulus, other.annulus)
        elif isinstance(other, (int, float, complex)):
            node, ann = Const(complex(other)), self.annulus
        else:
            return NotImplemented
        a, b = (node, self.node) if swap else (self.node, node)
        return HoloFn(op(a, b), ann)

    __add__ = __radd__ = partialmethod(_binary, op=Add)
    __sub__ = partialmethod(_binary, op=Sub)
    __rsub__ = partialmethod(_binary, op=Sub, swap=True)
    __mul__ = __rmul__ = partialmethod(_binary, op=Mul)
    __truediv__ = partialmethod(_binary, op=Div)
    __rtruediv__ = partialmethod(_binary, op=Div, swap=True)

    def __neg__(self):
        return HoloFn(Neg(self.node), self.annulus)

    def __pow__(self, k):
        if isinstance(k, bool) or not isinstance(k, (int, np.integer)):
            raise TypeError("only integer powers are supported")
        return HoloFn(Pow(self.node, int(k)), self.annulus)


# --- circle quadrature -----------------------------------------------------

def _check_rho(h, rho):
    """Refuse a radius that is not positive, then one outside h's annulus."""
    if not rho > 0.0:
        raise ValueError(f"rho must be positive, got rho={rho}")
    ann = getattr(h, "annulus", None)
    if ann is not None and not ann.contains(rho):
        raise ValueError(
            f"radius {rho} is not strictly inside the annulus "
            f"({ann.inner_radius} .. {ann.R})")


def _circle_nodes(rho, n):
    theta = 2.0 * math.pi * np.arange(n) / n
    return rho * np.exp(1j * theta)


def _finite(h):
    """h, refusing a sample with a non-finite value at the first such point."""
    def sample(z):
        vals = h(z)
        _refuse(~np.isfinite(np.reshape(vals, (-1, len(z)))).all(axis=0), z, "non-finite integrand")
        return vals

    return sample


def _nested(h, rho):
    """``sample(n)``: the n nodes on |z| = rho and h there.  When n doubles,
    only the new odd nodes are evaluated: the even ones are the previous
    level's bit for bit, so a pointwise h gives the sample of a fresh call."""
    last = []

    def sample(n):
        zeta = _circle_nodes(rho, n)
        if last and 2 * len(last[0]) == n:
            new = h(zeta[1::2])
            vals = np.empty(np.shape(new)[:-1] + (n,), np.result_type(last[1], new))
            vals[..., ::2], vals[..., 1::2] = last[1], new
        else:
            vals = h(zeta)
        last[:] = zeta, vals
        return zeta, vals

    return sample


def _refine(quad, k, n, n_max, tol, settled=None):
    """Double the resolution n until each of k estimates settles, capped at n_max.

    ``quad(n, live)`` returns the estimates at resolution n of the components
    whose indices are listed in ``live``, and their floors; an estimate of
    None ends that component, which keeps None.  A component freezes at the
    first level whose estimate differs from the one before by less than
    ``tol`` relative to its magnitude, or by less than its floor (a circle
    sum's rounding level; 0 elsewhere), or, when ``settled`` is given, at
    which ``settled(previous, current)`` holds (the windings' integer stop);
    one that never settles keeps its estimate at n_max.
    """
    est, live = [None] * k, list(range(k))
    while live:
        still = []
        for i, cur, floor in zip(live, *quad(n, live)):
            prev, est[i] = est[i], cur
            if cur is None or n >= n_max or prev is not None and (
                    abs(cur - prev) < max(tol * (1.0 + abs(cur)), floor)
                    or settled is not None and settled(prev, cur)):
                continue
            still.append(i)
        live, n = still, 2 * n
    return est


def circle_integral(h, rho, n_points=None):
    """Integral of h over the circle |z| = rho, counterclockwise.

    With explicit ``n_points`` (even, >= 16) a single trapezoid pass is used;
    otherwise the node count doubles from 1024 until two successive estimates
    differ by less than QUAD_TOL (relative to the magnitude) or than the sum's
    rounding level, capped at 65536, evaluating h on the new nodes only.
    When h returns a (k, n) stack for n nodes, the result is the array of k
    integrals, each kept at the level where it settled.  A non-finite sample
    raises EvalDomainError at its first such node, and finite samples whose
    sum overflows raise OverflowError naming the node count.  rho must be
    positive and, when h carries an annulus, strictly inside it.
    """
    _check_rho(h, rho)
    if n_points is None:
        n0, n_max = DEFAULT_N, MAX_N
    elif n_points < 16 or n_points % 2:
        raise ValueError("n_points must be even and at least 16")
    else:
        n0 = n_max = int(n_points)

    sample = _nested(_finite(h), rho)
    first = sample(n0)  # its shape tells how many components h has

    def quad(n, live):
        zeta, vals = first if n == n0 else sample(n)
        with np.errstate(over="ignore", invalid="ignore"):  # an overflow shows as a non-finite sum
            terms = [zeta * row for row in np.reshape(vals, (-1, n))[live]]
            sums = [(np.sum(w), np.sum(np.abs(w))) for w in terms]
        if not np.isfinite(sums).all():
            raise OverflowError(f"circle sum of finite samples is not finite at n={n} nodes")
        return ([(TWO_PI_I / n) * w for w, _ in sums],
                [ROUND_EPS * (2.0 * math.pi / n) * a for _, a in sums])

    if np.ndim(first[1]) == 1:
        return _refine(quad, 1, n0, n_max, QUAD_TOL)[0]
    return np.array(_refine(quad, len(first[1]), n0, n_max, QUAD_TOL))


def laurent_coeff(h, k, rho=1.0):
    """Laurent coefficient a_k[h] = (1/2pi i) * integral of h(z) z^(-k-1) dz over |z|=rho."""
    # a fractional k's z^(-k-1) would cross its branch cut; a boolean is no index
    if isinstance(k, bool) or not isinstance(k, (int, np.integer)):
        raise TypeError(f"Laurent index must be an integer, got k={k!r}")
    _check_rho(h, rho)

    def weighted(zeta):
        return h(zeta) * zeta ** (-k - 1)

    return circle_integral(weighted, rho) / TWO_PI_I


def a0(h, rho=1.0):
    """Mean of h over the circle |z|=rho: the k=0 Laurent coefficient."""
    return laurent_coeff(h, 0, rho)


def a0_pair(g, rho=1.0):
    """The means (a0[g], a0[1/g]) of a HoloFn g, from one sample [g, 1/g] per level."""
    _check_rho(g, rho)
    pair = _Plan([g.node, Div(Const(1), g.node)])
    return tuple(laurent_coeff(lambda zeta: np.array(evaluate(pair, zeta)), 0, rho))


# --- path integrals --------------------------------------------------------

# 32-node Gauss-Legendre rule on [0, 1]
GL_NODES, GL_WEIGHTS = np.polynomial.legendre.leggauss(32)
GL_NODES, GL_WEIGHTS = 0.5 * (GL_NODES + 1.0), 0.5 * GL_WEIGHTS


def _canonical_legs(z0, z1):
    """Leg records of the arc at |z0| through the shorter angular gap (ties
    counterclockwise), then the radial segment at arg(z1); none of length 0."""
    r0, r1 = abs(z0), abs(z1)
    th0, th1 = math.atan2(z0.imag, z0.real), math.atan2(z1.imag, z1.real)
    dth = math.remainder(th1 - th0, 2.0 * math.pi)
    if abs(abs(dth) - math.pi) < 1e-15:
        dth = math.pi  # half turn: go counterclockwise
    arc, radial = (r0, 0.0, th0, dth), (r0, r1 - r0, th1, 0.0)
    return [leg for leg in (arc, radial) if leg[1] or leg[3]]  # b = d = 0: length 0


def _leg_nodes(a, b, c, d, panels):
    """Nodes and tangents of a stack of legs (a leg a row) on ``panels`` Gauss-Legendre panels."""
    t = ((np.arange(panels)[:, None] + GL_NODES[None, :]) / panels).ravel()
    r, e = a + b * t, np.exp(1j * (c + d * t))
    return r * e, (b + 1j * d * r) * e  # (a + b t) e^{i(c + d t)} and its t-derivative


def _check_ends(annulus, z0, ends):
    if annulus is None:
        return
    for name, pt in [("start", z0)] + [("end", z1) for z1 in ends]:
        if not annulus.contains(pt):
            raise ValueError(f"path {name} point {pt} is not inside the annulus")


def _path_integrals(h, z0, ends):
    """Integrals of h along the canonical paths from z0 to each point of ends.

    Each distinct leg record is integrated once, however many paths share it
    (the ends at one angle share their arc).  The legs refine together: each
    panel level evaluates h once, on the Gauss-Legendre nodes of every leg
    still refining, and each component of each leg stops at its own level (1
    to 256 panels).  A path adds its arc, then its radial leg.  When h returns
    a (k, n) stack for n nodes, each path's integral is an array of k.  A
    non-finite sample raises EvalDomainError at its first such node.
    """
    z0 = complex(z0)
    ends = [complex(z1) for z1 in ends]
    _check_ends(getattr(h, "annulus", None), z0, ends)
    h, index = _finite(h), {}
    paths = [[index.setdefault(leg, len(index)) for leg in _canonical_legs(z0, z1)]
             for z1 in ends]
    a, b, c, d = np.reshape(list(index), (-1, 4)).T[:, :, None]

    def sample(panels, used):  # h at the nodes of the legs used, and their tangents
        z, dz = _leg_nodes(a[used], b[used], c[used], d[used], panels)
        # with no legs, one value at z0 still tells how many components h has
        return h(z.ravel() if len(used) else np.array([z0])), dz

    first = sample(1, range(len(index)))
    shape = np.shape(first[0])[:-1]  # (k,) when h returns a (k, n) stack
    k = math.prod(shape)

    def quad(panels, live):  # estimate e is component e % k of leg e // k
        used = sorted({e // k for e in live})
        vals, dz = first if panels == 1 else sample(panels, used)
        weights = np.tile(GL_WEIGHTS, panels) / panels
        sums = np.sum(np.reshape(vals, (k, len(used), -1)) * dz * weights, axis=-1)
        return [sums[e % k, used.index(e // k)] for e in live], [0.0] * len(live)

    est = np.reshape(_refine(quad, k * len(index), 1, 256, 1e-12), (-1,) + shape)
    return list(np.array([sum((est[i] for i in legs), np.zeros(shape, complex))
                          for legs in paths]))


def path_integral(h, z0, z1):
    """Integrate h along the canonical arc-then-radial path from z0 to z1.

    Both endpoints must lie strictly inside h's annulus; the canonical path
    then stays inside automatically.  The arc takes the shorter angular gap,
    with the half-turn tie resolved counterclockwise, so multivalued
    primitives are reproducible.  A stacked h (WeierstrassData) gives one
    integral per row.
    """
    return _path_integrals(h, z0, [z1])[0]


# --- univalence probe ------------------------------------------------------

@dataclass
class ProbeReport:
    """Asymmetric verdicts: 'violated' is certain (argument principle plus a
    witness when one is found); 'passed' records sampling evidence only."""

    univalent: str
    zero_count: int | None
    witness: tuple | None
    n_targets: int
    notes: list

    @property
    def omits_zero(self):  # the zero count's verdict
        if self.zero_count is None:
            return "inconclusive"
        return "passed" if self.zero_count == 0 else "violated"


def _winding_level(g, gprime, rho, ws, zs, block=WINDING_BLOCK):
    """``quad(n, live)`` for _refine: the argument-principle sums of g'/(g - w)
    over n nodes of |z| = rho for the targets ws[i], i in live.

    The levels nest: the first call sums every node, and each later one (at
    twice the n before) evaluates (g', g) in one pass on its new odd nodes
    only and adds their terms to one running sum per target.  The live
    targets are summed in one broadcast over blocks of rows of at most
    ``block`` terms.  zs[i] is a known preimage of ws[i] (None for w = 0),
    a pole of g'/(g - w) whose trapezoid error has a closed form: the n
    nodes sum zeta/(zeta - z_t) to n/(1 - r), r = (z_t/rho)^n, when
    |z_t| < rho, and to -n r/(1 - r), r = (rho/z_t)^n, outside.  Each level
    adds -2 pi i r/(1 - r) (inside) or +2 pi i r/(1 - r) (outside) to that
    target's estimate, which removes the pole's error exactly at a simple
    root.  Each point p of order m in g.divisor is a pole of residue m of
    g'/(g - w) and takes -/+ 2 pi i m r/(1 - r) the same way, in the same
    expression: a pole of g (m < 0) for every finite target, a zero of g
    (m > 0) for w = 0 alone.  A sum is None when g - w vanishes at a node
    (sought only in a non-finite level), when the sample cannot be
    evaluated, or when w is not finite.
    """
    ws, finite = np.asarray(ws, complex), np.isfinite(ws)

    def pole(p, m):  # base and sign of a pole of residue m at p
        return (p / rho, -TWO_PI_I * m) if abs(p) < rho else (rho / p, TWO_PI_I * m)

    # target i's pole errors at n nodes are sign[i, k] r / (1 - r), r =
    # base[i, k]^n: column 0 for its preimage, one column a divisor point
    base = np.zeros((len(ws), 1 + len(g.divisor)), complex)
    sign = np.zeros_like(base)
    for i, (w, zt) in enumerate(zip(ws, zs)):
        if zt is not None:
            base[i, 0], sign[i, 0] = pole(zt, 1)
        for k, (p, m) in enumerate(g.divisor, 1):
            if m < 0 or w == 0:  # a pole of g is one of g - w; a zero is a root for w = 0 only
                base[i, k], sign[i, k] = pole(p, m)
    total = np.zeros(len(ws), complex)  # the sum of zeta g'/(g - w) so far, a target
    levels, pair = [], _Plan([gprime.node, g.node])

    def quad(n, live):
        zeta = _circle_nodes(rho, n)[1::2] if levels else _circle_nodes(rho, n)
        levels.append(n)
        try:
            dv, gv = evaluate(pair, zeta)
        except EvalDomainError:
            return [None] * len(live), [0.0] * len(live)
        rows, zero = [i for i in live if finite[i]], set()
        step = max(1, block // len(zeta))
        den, term = np.empty((2, min(step, len(rows)), len(zeta)), complex)
        with np.errstate(all="ignore"):  # an overflow shows as a non-finite sum
            for b in range(0, len(rows), step):
                idx = rows[b:b + step]
                d, t = den[:len(idx)], term[:len(idx)]
                np.multiply(zeta, np.divide(dv, np.subtract(gv, ws[idx, None], out=d), out=t),
                            out=t)
                part = np.sum(t, axis=1)
                total[idx] += part
                if not np.isfinite(part).all():
                    zero.update(np.compress(~np.isfinite(part) & (d == 0).any(axis=1), idx))
            r = base[live] ** n
            est = (TWO_PI_I / n) * total[live] + np.sum(sign[live] * r / (1 - r), axis=1)
        return ([None if i in zero or not finite[i] else e for i, e in zip(live, est)],
                [0.0] * len(live))

    return quad


# a winding sum also stops refining once it lies within WINDING_STOP of an
# integer (in units of 2 pi i) and lay within WINDING_NEAR of the same
# integer at the level before (see _windings)
WINDING_STOP = 1e-6
WINDING_NEAR = 1e-3


def _settled_integer(est, tol=1e-4):
    """The integer an argument-principle sum lies within tol of, or None."""
    if est is None:
        return None
    val = est / TWO_PI_I
    if not np.isfinite(val):
        return None
    n = round(val.real)
    return n if abs(val - n) < tol else None


def _on_integer(prev, cur):
    """True when the winding sums of two successive levels sit on one integer."""
    n = _settled_integer(cur, WINDING_STOP)
    return n is not None and _settled_integer(prev, WINDING_NEAR) == n


def _windings(g, gprime, rho, ws, zs):
    """Winding numbers of g - w over |z| = rho for each target w of ws, with
    zs the known preimage of each (None for w = 0).

    Level-major, from WINDING_N0 nodes: every try takes g and g' from one
    evaluation pass on the new nodes of each trapezoid level and adds their
    terms to the running sum of each target still refining (_winding_level).
    Each target's own pole at its preimage is removed in closed form, which
    is exact at a simple root, so its sum converges at the rate the rest of
    g'/(g - w) allows; a multiple root keeps the rest of its pole's error
    and converges as before.  The points of g.divisor are removed the same
    way: its poles from every target's sum, its zeros from that of w = 0
    only, since a zero of g is a root of g - w for w = 0 alone.  A sum
    stops when two successive levels agree to 1e-8 relative, or when it
    sits on an integer: within WINDING_STOP of an integer n at this level
    and within WINDING_NEAR of the same n at the level before.  The exact
    sum is n (in units of 2 pi i), so its distance from n is its quadrature
    error, and on an integrand analytic near the circle the trapezoid error
    falls geometrically in the node count (Trefethen & Weideman, SIAM Rev.
    56, 2014), each doubling roughly squaring it.  A sum seen falling from
    1e-3 to 1e-6 of n cannot move to another integer at a later level; one
    level near an integer alone could be an unresolved sum passing by.  A
    target that does not settle within _settled_integer's 1e-4 of an
    integer retries at a slightly perturbed radius, up to four radii, while
    the radius stays inside the annulus.
    Returns the winding of each target (None when no try settled) and the
    notes of the unsettled tries: one sample serves every target, so a try
    is noted once, however many targets it leaves unsettled.
    """
    wind, notes = [None] * len(ws), []
    live = list(range(len(ws)))
    for attempt in range(4):
        r = rho * (1.0 + 2.0e-3 * attempt)
        if not live:
            break
        if not g.annulus.contains(r):
            notes.append(f"retry radius rho={r:.6g} leaves the annulus, "
                         "winding left unsettled")
            break
        quad = _winding_level(g, gprime, r, [ws[j] for j in live], [zs[j] for j in live])
        ests = _refine(quad, len(live), WINDING_N0, MAX_N, 1e-8, _on_integer)
        for j, est in zip(live, ests):
            wind[j] = _settled_integer(est)
        live = [j for j in live if wind[j] is None]
        if live:
            notes.append(f"winding at rho={r:.6g} inconclusive, perturbing")
    return wind, notes


def _sample_points(annulus):
    # deterministic low-discrepancy-ish spread: geometric radii, golden angles
    R = annulus.R
    lo, hi = -(1.0 - 2.0 * PROBE_MARGIN), (1.0 - 2.0 * PROBE_MARGIN)
    radii = R ** np.linspace(lo, hi, num=max(3, int(math.ceil(PROBE_TARGETS / 6))))
    golden = (math.sqrt(5.0) - 1.0) / 2.0
    j = np.arange(PROBE_TARGETS)
    return radii[j % len(radii)] * np.exp(1j * (2.0 * math.pi * ((j * golden) % 1.0)))


def _newton_roots(g, gprime, w):
    """Collect distinct solutions of g(z) = w in g.annulus by Newton iteration."""
    R = g.annulus.R
    rr = R ** np.linspace(-(1 - PROBE_MARGIN), 1 - PROBE_MARGIN, 14)
    tt = 2.0 * math.pi * (np.arange(16) + 0.31) / 16
    z = (rr[:, None] * np.exp(1j * tt[None, :])).ravel()
    pair = _Plan([g.node, gprime.node])
    for _ in range(60):
        try:
            gz, dz = evaluate(pair, z)
        except EvalDomainError:
            break
        fz = gz - w
        with np.errstate(all="ignore"):
            step = fz / dz
        step = np.where(np.isfinite(step), step, 0.0)
        z = z - step
    # iterates that diverged or left the annulus are no roots, and rounding
    # them for the sort would overflow
    z = z[g.annulus.contains(z, margin=1e-9)]
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
        if all(abs(zi - r) > 1e-7 for r in roots):
            roots.append(zi)
    return roots


def univalence_probe(g):
    """Probe injectivity and zero-omission of g on (a rim-shrunk copy of) g.annulus.

    The zero count is the preimage count of the target w = 0; it and the
    sampled targets' counts ride the argument principle over the circles
    |z| = R^(1-PROBE_MARGIN) and |z| = R^(PROBE_MARGIN-1).  A
    'violated' verdict is certain; 'passed' means no violation was seen among
    the PROBE_TARGETS sampled targets.
    """
    gprime = g.derivative()
    points = _sample_points(g.annulus)
    try:
        values = [complex(w) for w in g(points)]
    except EvalDomainError:  # one point at a time, to find those g refuses
        values = []
        for zt in points:
            try:
                values.append(g(zt))
            except EvalDomainError:
                values.append(None)
    # zeros minus poles of g - w between the circles, for w = 0 and each
    # evaluable value (its sample point a known preimage); the outer
    # circle's notes come first
    ws = [0j] + [w for w in values if w is not None]
    zs = [None] + [complex(zt) for zt, w in zip(points, values) if w is not None]
    R = g.annulus.R
    outer, notes = _windings(g, gprime, R ** (1.0 - PROBE_MARGIN), ws, zs)
    inner, inner_notes = _windings(g, gprime, R ** (PROBE_MARGIN - 1.0), ws, zs)
    notes += inner_notes
    zero_count, *excesses = [None if w_out is None or w_in is None else w_out - w_in
                             for w_out, w_in in zip(outer, inner)]
    excesses = iter(excesses)
    verdict, witness, counted = "passed", None, 0
    for zt, w in zip(points, values):
        count = None if w is None else next(excesses)
        # zt lies between the circles, so a holomorphic g counts its value
        # there at least once: a lower count means a pole, which a zero
        # count of 0 can hide (zeros minus poles); the targets after a
        # violation are not counted, but they are checked for this too
        if count is not None and count < 1 and zero_count == 0:
            zero_count = None
            notes.append(f"sample point {zt:.6g} counted {count} preimages: g has a "
                         "pole between the circles, so its zero count is withdrawn")
        if verdict == "violated":
            continue
        if w is None:
            notes.append(f"sample point {zt:.6g} not evaluable")
        elif count is None:
            notes.append(f"sample point {zt:.6g} skipped (winding unsettled)")
        else:
            counted += 1
            if count >= 2:
                verdict = "violated"
                roots = _newton_roots(g, gprime, w)
                if len(roots) >= 2:
                    witness = (roots[0], roots[1])
    if verdict == "passed" and counted == 0:
        verdict = "inconclusive"
        notes.append("no preimage count settled")

    return ProbeReport(
        univalent=verdict,
        zero_count=zero_count,
        witness=witness,
        n_targets=counted,
        notes=notes,
    )
