"""Conformal modules of ring domains: closed forms and a grid estimator.

Two reciprocal conventions coexist and must never be mixed.  For the family
of concentric circles separating the rims of K_R the module is ln R/pi; for
the family of curves joining the boundary components of a ring of radii
ratio rho it is 2 pi/ln rho, which is also the electrical conductance
between the plates.  Every operation documents which family it measures.

The comparison ring D(lambda) = {Re z < lambda} minus the closed disk
{|z + 1/(2 lambda)| <= 1/(2 lambda)} carries the joining-family module
pi/arcsinh(lambda); a Mobius map straightens it onto a round annulus.  The
grid estimator discretizes any ring domain as a resistor network (5-point
stencil, fractional boundary arms) and returns the Dirichlet energy of the
discrete potential, which is the conductance, checked against the current
through each plate.  Conjugate gradients solve the network, preconditioned
by one V-cycle of a multigrid that merges 2x2 blocks of nodes per level:
damped Jacobi at weight 4/5 before and after a coarse correction scaled up
by 1.4, since plain aggregation's coarse step comes back too small.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass, replace

import numpy as np

from .contour import Annulus, HoloFn, _check_rho, a0_pair

__all__ = [
    "RingDomain", "ModulusEstimate", "MobiusToAnnulus", "CrossingWitness",
    "circle_family_module", "joining_family_module", "mobius_to_annulus",
    "comparison_ring_module", "max_log_radius",
    "grid_module_estimate", "crossing_witness",
]


def __getattr__(name):
    # scipy.sparse is imported where the grid is built and solved, so that
    # importing the package leaves it unloaded; ``modulus.spla`` is that
    # solver module, for code that patches its ``cg``
    if name == "spla":
        import scipy.sparse.linalg
        return scipy.sparse.linalg
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


# --- closed forms -----------------------------------------------------------

def circle_family_module(R: float) -> float:
    """Module of the concentric circles separating the rims of K_R: ln R/pi."""
    if not R > 1.0:
        raise ValueError(f"need R > 1, got {R}")
    return math.log(R) / math.pi


def joining_family_module(ratio: float) -> float:
    """Module of curves joining the rims of {1 < |w| < ratio}: 2 pi/ln ratio.

    Equals the conductance of the ring, the quantity the grid estimator
    approximates.
    """
    if not ratio > 1.0:
        raise ValueError(f"need ratio > 1, got {ratio}")
    return 2.0 * math.pi / math.log(ratio)


def _check_lambda(lam):
    if not 0.0 < lam < math.inf:
        raise ValueError(f"need 0 < lambda < inf, got {lam}")


@dataclass(frozen=True)
class MobiusToAnnulus:
    map: HoloFn
    lambda_star: float

    @property
    def annulus_ratio(self) -> float:
        return self.map.annulus.R


def mobius_to_annulus(lam: float) -> MobiusToAnnulus:
    """The Mobius map straightening the comparison ring D(lambda).

    f(z) = (1/l*) (z + l*) / (1 - z l*) with l* = sqrt(lambda^2+1) - lambda
    sends the boundary circle of D to |w| = 1 and the boundary line
    Re z = lambda to |w| = 1/l*^2.  The attached annulus records the image
    ring; the map itself is a rational function of the whole plane.  l* and
    1/l*^2 come from 1/l* = sqrt(lambda^2+1) + lambda, which does not cancel.
    """
    _check_lambda(lam)
    s = math.hypot(lam, 1.0) + lam
    if not 1.0 < s * s < math.inf:
        raise ValueError(f"lambda={lam} gives no finite annulus ratio above 1")
    ls = 1.0 / s
    z = HoloFn.var(Annulus(s * s))
    fmap = (z + ls) / ((1 - z * ls) * ls)
    return MobiusToAnnulus(map=fmap, lambda_star=ls)


def comparison_ring_module(lam: float) -> float:
    """Joining-family module of D(lambda): pi/arcsinh(lambda).

    Same number as joining_family_module(1/lambda_star^2), since
    arcsinh(lambda) = -ln(lambda_star).
    """
    _check_lambda(lam)
    return math.pi / math.asinh(lam)


def max_log_radius(lam: float) -> float:
    """Largest ln R an annulus can have while supporting tilt lambda.

    ln R0(lambda) = pi^2/arcsinh(lambda), returned on the log scale so thin
    tilts (huge R0) stay representable.
    """
    _check_lambda(lam)
    return math.pi ** 2 / math.asinh(lam)


# --- ring domains -----------------------------------------------------------

@dataclass
class RingDomain:
    """A doubly connected domain: the box minus two closed conductors.

    first and second take complex arrays and return boolean arrays marking
    the closed regions that carry the two boundary components (grounded and
    unit potential respectively).  Every other point of box, the part of the
    plane the grid estimator discretizes, is inside the domain, so the only
    insulating boundary is the box edge.
    """

    first: object
    second: object
    box: tuple
    descriptor: dict | None = None
    exact_module: float | None = None

    @classmethod
    def from_json(cls, obj) -> "RingDomain":
        if not isinstance(obj, dict) or "kind" not in obj:
            raise ValueError("domain descriptor must be an object with a 'kind'")
        kind = obj["kind"]

        def number(key, default):
            raw = obj.get(key, default)
            try:  # a JSON string or boolean is not a number, whatever float() makes of it
                x = math.nan if isinstance(raw, (str, bool)) else float(raw)
            except (TypeError, ValueError, OverflowError):  # null, [], 10**400
                x = math.nan
            if math.isfinite(x):
                return x
            raise ValueError(f"{kind} descriptor needs a finite {key}, got {raw!r}")

        def only(*keys):  # as analyze's schema does, refuse a field the kind does not read
            extra = [key for key in obj if key not in ("kind",) + keys]
            if extra:
                raise ValueError(f"{kind} descriptor has unknown field {extra[0]!r}")
        if kind == "annulus":
            only("ratio")
            ratio = number("ratio", 0.0)
            if not ratio > 1.0:
                raise ValueError(f"annulus descriptor needs ratio > 1, got {ratio!r}")
            pad = 0.25
            return cls(
                first=lambda z: np.abs(z) <= 1.0,
                second=lambda z: np.abs(z) >= ratio,
                box=(-ratio - pad, ratio + pad, -ratio - pad, ratio + pad),
                descriptor=dict(obj),
                exact_module=joining_family_module(ratio),
            )
        if kind == "D":
            only("lambda")
            lam = number("lambda", 0.0)
            if not lam > 0.0:
                raise ValueError(f"D descriptor needs lambda > 0, got {lam!r}")
            return cls.comparison(lam)
        if kind == "box_conductor":
            only("width", "height")
            w = number("width", 1.0)
            hgt = number("height", 1.0)
            if w <= 0.0 or hgt <= 0.0:
                raise ValueError("box_conductor needs positive width and height")
            pad = 0.05
            return cls(
                first=lambda z: z.real <= 0.0,
                second=lambda z: z.real >= w,
                box=(-pad, w + pad, 0.0, hgt),
                descriptor=dict(obj),
                exact_module=hgt / w,
            )
        raise ValueError(f"unknown domain kind {kind!r}")

    @classmethod
    def comparison(cls, lam: float) -> "RingDomain":
        """The ring D(lambda): half-plane Re z < lambda minus a tangent disk.

        The disk {|z + 1/(2 lambda)| <= 1/(2 lambda)} touches the origin; the
        domain is unbounded, so the grid box truncates it (insulating cuts)
        and the estimator reports how sensitive the energy is to that.  The
        truncation deficit measured for lambda=1 is 2.9% at extent 8, 0.8% at
        16 and 0.26% at 32: it falls 3.6x and then 3.1x per doubling of the
        extent.  The box extends 16 units past the conductors, scaled by the
        disk size; grid_module_estimate pads it (``dataclasses.replace``)
        to measure that sensitivity.
        """
        _check_lambda(lam)
        c = 1.0 / (2.0 * lam)
        ext = 16.0 * max(1.0, 1.0 / lam)
        return cls(
            first=lambda z: np.abs(z + c) <= c,
            second=lambda z: z.real >= lam,
            box=(-ext - 2.0 * c, lam, -ext, ext),
            descriptor={"kind": "D", "lambda": lam},
            exact_module=comparison_ring_module(lam),
        )


@dataclass(frozen=True)
class ModulusEstimate:
    value: float
    h: float
    indicator: float
    truncation_sensitivity: float | None  # None unless the domain is a D(lambda)
    dof: int
    iterations: int  # CG iterations of the h/2 solve, whose energy is value


# --- grid estimator ---------------------------------------------------------

# fractional boundary arms shorter than this fraction of h are clamped
_THETA_MIN = 1e-3

# refuse grids that would not fit in memory instead of letting the OOM
# killer take the process down mid-assembly
_MAX_CELLS = 30_000_000

# relative residual at which conjugate gradients stops, and the largest
# relative gap then allowed between the energy and either plate current
_CG_RTOL = 1e-10
_CURRENT_RTOL = 1e-6

# the V-cycle's damped-Jacobi weight, the factor scaling its coarse
# correction (over-correction of plain aggregation), and its largest level
# solved directly
_OMEGA = 0.8
_OVERCORRECT = 1.4
_COARSEST = 2000
# CG's iteration cap: the V-cycle converges in at most 28 iterations on the
# pinned solves (D(1) at h = 0.05) and its count grows only slowly as h
# falls, so a solve still short of _CG_RTOL after 100 has stalled, and it is
# refused in about a second instead of after minutes of iterations
_CG_MAXITER = 100


def _bisect(stays, lo, hi, iters):
    """Bisect the brackets [lo, hi] elementwise, at most iters halvings each.

    It serves the grid arms; the crossing witnesses take _illinois steps.

    ``stays(mid)`` is True where the midpoint is on lo's side of the root,
    so it replaces lo there and hi elsewhere.  Stops at the first halving
    that moves no bracket: the brackets then sit at adjacent (or equal)
    floats, a fixed point of the halving, so the result is that of all iters
    halvings bit for bit.  Returns the final (lo, hi).
    """
    for _ in range(iters):
        mid = 0.5 * (lo + hi)
        keep = stays(mid)
        new_lo, new_hi = np.where(keep, mid, lo), np.where(keep, hi, mid)
        if np.array_equal(new_lo, lo) and np.array_equal(new_hi, hi):
            break
        lo, hi = new_lo, new_hi
    return lo, hi


def _assemble(domain: RingDomain, h: float):
    """The resistor network at spacing ~h, as the system A u = rhs.

    The box's grid nodes in neither conductor are the dofs.  5-point stencil
    with finite-volume weights: edges carry hy/hx or hx/hy, and half that on
    the box edge, the only insulating boundary (horizontal edges on the first
    and last row, vertical edges on the first and last column); edges into a
    conductor become arms of conductance weight/theta, theta the fraction of
    the segment in neither conductor, found by one elementwise bisection of
    the cut edges of all four edge groups (each bracket ends where its own
    bisection would, so every arm is as if bisected alone).  No component of
    dofs floats: the grid is connected, so each component has a conductor
    neighbour, and a shortest grid path from one conductor to the other runs
    through dofs only, so unless the conductors touch (refused) some
    component joins both.  Returns A, rhs, the dof mask (dofs in row-major
    order) and the inner and fixed edges.
    """
    import scipy.sparse as sp

    x0, x1, y0, y1 = domain.box
    spans = (x1 - x0) / h, (y1 - y0) / h
    if not all(map(math.isfinite, spans)):  # no float counts the cells
        raise ValueError(f"grid needs more than {_MAX_CELLS:,} cells at h={h:g}; "
                         "coarsen h or shrink the domain")
    nx, ny = (max(int(round(span)) + 1, 4) for span in spans)
    if nx * ny > _MAX_CELLS:
        raise ValueError(
            f"grid needs {nx * ny:,} cells at h={h:g}; "
            "coarsen h or shrink the domain")
    hx = (x1 - x0) / (nx - 1)
    hy = (y1 - y0) / (ny - 1)
    # linspace pins the far edges at x1 and y1, where x0 + hx*(nx-1) can round below
    X, Y = np.meshgrid(np.linspace(x0, x1, nx), np.linspace(y0, y1, ny))
    Z = X + 1j * Y

    fst = domain.first(Z)
    snd = domain.second(Z)
    if np.any(fst & snd):
        raise ValueError("boundary components overlap inside the box")
    if not fst.any() or not snd.any():
        raise ValueError(f"a boundary component is unresolved at h={h}")
    ins = ~(fst | snd)

    ndof = int(ins.sum())
    index = np.full(ins.shape, -1, dtype=np.int64)
    index[ins] = np.arange(ndof)

    inner_edges = []  # (dof, dof, conductance)
    fixed_edges = []  # (dof, weight, boundary value, dof point, conductor point)

    rows = np.full((ny, 1), hy / hx)  # horizontal edges, by row
    rows[[0, -1]] *= 0.5
    cols = np.full((1, nx), hx / hy)  # vertical edges, by column
    cols[:, [0, -1]] *= 0.5
    for a, b, base in ((np.s_[:, :-1], np.s_[:, 1:], rows),
                       (np.s_[:-1, :], np.s_[1:, :], cols)):
        # direct plate contact means the gap is below grid resolution
        if np.any(fst[a] & snd[b] | snd[a] & fst[b]):
            raise ValueError(f"boundary components touch at h={h}; refine the grid")
        weight = np.broadcast_to(base, ins[a].shape)

        both = ins[a] & ins[b]
        inner_edges.append((index[a][both], index[b][both], weight[both]))

        for sa, sb in ((a, b), (b, a)):
            cut = ins[sa] & ~ins[sb]
            fixed_edges.append((index[sa][cut], weight[cut], snd[sb][cut].astype(float),
                                Z[sa][cut], Z[sb][cut]))

    ia, ib, c = inner_edges = tuple(map(np.concatenate, zip(*inner_edges)))
    i, w, val, za, zb = map(np.concatenate, zip(*fixed_edges))

    # fraction of the segment za -> zb (dof -> conductor) in neither conductor
    def free(t):
        z = za + (zb - za) * t
        return ~(domain.first(z) | domain.second(z))

    _, theta = _bisect(free, np.zeros(za.shape), np.ones(za.shape), 45)
    cf = w / np.maximum(theta, _THETA_MIN)
    diag = np.bincount(ia, c, ndof) + np.bincount(ib, c, ndof) + np.bincount(i, cf, ndof)
    off = sp.coo_matrix((np.concatenate([-c, -c]), (np.concatenate([ia, ib]),
                                                    np.concatenate([ib, ia]))),
                        shape=(ndof, ndof)).tocsr()
    return off + sp.diags(diag), np.bincount(i, cf * val, ndof), ins, inner_edges, (i, cf, val)


def _hierarchy(A, ins):
    """Levels (A, _OMEGA/diag A, aggregate of each dof) and the coarsest LU.

    Each level merges its dofs in 2x2 blocks of the grid ``ins`` halved once
    per level; the next operator is P^T A P, P with one unit entry per row.
    """
    import scipy.sparse as sp
    import scipy.sparse.linalg as spla

    levels = []
    r, c = np.nonzero(ins)
    while A.shape[0] > _COARSEST:
        key, agg = np.unique(r // 2 * ins.shape[1] + c // 2, return_inverse=True)
        r, c = np.divmod(key, ins.shape[1])
        P = sp.csr_matrix((np.ones(agg.size), (np.arange(agg.size), agg)),
                          shape=(agg.size, key.size))
        levels.append((A, _OMEGA / A.diagonal(), agg))
        A = (P.T @ A @ P).tocsr()
    return levels, spla.splu(A.tocsc())


def _vcycle(levels, coarse, r):
    """One V-cycle on r from zero: damped Jacobi, the coarse correction scaled
    by _OVERCORRECT, and the same damped Jacobi again.

    It is symmetric positive definite in r, as conjugate gradients needs.
    Symmetric, since both sweeps apply the same diagonal W = _OMEGA D^-1 and
    the coarse levels are Galerkin products.  Positive: with S = I - W A and
    C = I - a P M_c P^T A (a = _OVERCORRECT, M_c the coarser cycle), the
    cycle is M = (I - S C S) A^-1, so M is positive definite when S C S < I
    in the A-inner product.  Gershgorin bounds the spectrum of D^-1 A by
    (0, 2], since each diagonal is the sum of its edge and arm conductances
    (at every level: the Galerkin sums keep the row sums nonnegative), so S
    has A-norm below 1 for 0 < _OMEGA < 1.  C has eigenvalues 1 and
    1 - a mu, mu > 0 those of M_c A_c, none above 1 for a > 0, given M_c
    positive definite (by induction down to the coarsest LU).  Hence
    S C S < I.  With an exact coarse solve, mu = 1 and the scaled correction
    contracts in the A-norm for a < 2.
    """
    if not levels:
        return coarse.solve(r)
    A, wdinv, agg = levels[0]
    u = wdinv * r
    res = r - A @ u
    u += (_OVERCORRECT * _vcycle(levels[1:], coarse, np.bincount(agg, weights=res)))[agg]
    np.subtract(r, A @ u, out=res)
    res *= wdinv
    u += res
    return u


def _grid_energy(domain: RingDomain, h: float):
    """Conductance of the network at spacing ~h, and (dof, CG iterations).

    The energy summed over the edges of the CG solution (relative residual
    _CG_RTOL); either plate current that differs by _CURRENT_RTOL refuses it.
    """
    import scipy.sparse.linalg as spla

    A, rhs, ins, inner, fixed = _assemble(domain, h)
    levels, coarse = _hierarchy(A, ins)
    M = spla.LinearOperator(A.shape, matvec=lambda r: _vcycle(levels, coarse, r))
    iters = []
    u, info = spla.cg(A, rhs, rtol=_CG_RTOL, atol=0.0, maxiter=_CG_MAXITER, M=M,
                      callback=lambda xk: iters.append(None))
    if info != 0:
        res = np.linalg.norm(rhs - A @ u) / np.linalg.norm(rhs)
        raise RuntimeError(f"conjugate gradient did not converge (info={info}) after "
                           f"{info} iterations of maxiter={_CG_MAXITER}; dof={A.shape[0]}, "
                           f"h={h:g}, relative residual {res:.3e}")

    (ia, ib, c), (i, cf, val) = inner, fixed
    du, dv = u[ia] - u[ib], u[i] - val
    energy = float(np.sum(c * du * du) + np.sum(cf * dv * dv))
    # into the first plate (potential 0), out of the second (potential 1)
    currents = (float(np.sum(cf * dv, where=val == 0.0)),
                -float(np.sum(cf * dv, where=val == 1.0)))
    if any(abs(cur - energy) > _CURRENT_RTOL * energy for cur in currents):
        raise RuntimeError(
            f"conductance {energy!r} disagrees with the plate currents "
            f"{currents[0]!r} and {currents[1]!r} at h={h:g}")
    return energy, (A.shape[0], len(iters))


def grid_module_estimate(domain: RingDomain, h: float) -> ModulusEstimate:
    """Joining-family module of a ring domain by discrete Dirichlet energy.

    Solves the network at spacings h and h/2; the finer energy is the value,
    their difference the error indicator.  Unbounded domains (descriptor
    kind "D") are truncated to their box; the estimate is rerun on a padded
    box at spacing h and the difference reported as truncation sensitivity.
    iterations counts the CG iterations of the h/2 solve.
    """
    if not 0.0 < h < math.inf:
        raise ValueError(f"grid spacing must be positive and finite, got h={h}")
    e_coarse, _ = _grid_energy(domain, h)
    e_fine, (ndof, iters) = _grid_energy(domain, h / 2.0)
    sens = None
    desc = domain.descriptor or {}
    if desc.get("kind") == "D":
        x0, x1, y0, y1 = domain.box
        padded = replace(domain, box=(x0 - 3.0, x1, y0 - 3.0, y1 + 3.0))
        e_pad, _ = _grid_energy(padded, h)
        sens = abs(e_pad - e_coarse)
    return ModulusEstimate(value=e_fine, h=h,
                           indicator=abs(e_fine - e_coarse),
                           truncation_sensitivity=sens, dof=ndof, iterations=iters)


# --- boundary crossing witnesses -------------------------------------------

# crossing residuals closer than this many ulps of |t| |d fn/dt| + |lam| tie
_TIE_EPS = 4.0 * np.finfo(float).eps

# steps a witness bracket may take beyond bisection's count (ITP's n0), in
# exchange for the secant's speed; at 3 and above none of test_10's 600
# witnesses feels the cap, at 2 its comb calls rise from 16.7 to 26.5
_SLACK = 4


@dataclass(frozen=True)
class CrossingWitness:
    t1: float
    t2: float
    residual1: float
    residual2: float


def _illinois(sample, lo, hi, flo, fhi):
    """Narrow the brackets [lo, hi] of roots elementwise by Illinois steps.

    ``sample(x, j)`` returns fn at x for the brackets listed in j; flo and
    fhi are fn at the ends, of opposite signs or zero.  Each step samples fn
    once for every open bracket, at the secant point through its ends, where
    an end kept twice in a row counts with half its value (Illinois).  At
    step k the point moves to within r = w0 2**(_SLACK - k - 1) - width/2 of
    the midpoint, w0 the bracket's first width (ITP's projection), so after
    _SLACK + m steps no bracket is wider than m halvings would leave it; a
    point that rounds onto an end moves to the next float inside.  A
    bracket closes when fn is 0 at an end or its ends are adjacent floats:
    at most _SLACK + 1 steps after bisection would close it, the 1 for the
    rounding of the last halvings.  Returns the final (lo, hi, flo, fhi).
    """
    lo, hi, flo, fhi = (np.array(v, float) for v in (lo, hi, flo, fhi))
    w0, wlo, whi = hi - lo, flo.copy(), fhi.copy()  # wlo, whi: the secant's end values
    moved_lo = np.zeros(lo.shape, bool)  # whether the last step moved lo
    for k in itertools.count():
        mid = 0.5 * (lo + hi)
        j = np.nonzero((lo < mid) & (mid < hi) & (flo != 0.0) & (fhi != 0.0))[0]
        if not j.size:
            return lo, hi, flo, fhi
        a, b, m = lo[j], hi[j], mid[j]
        r = np.maximum(w0[j] * 2.0 ** (_SLACK - k - 1) - 0.5 * (b - a), 0.0)
        x = np.clip(a + (b - a) * (wlo[j] / (wlo[j] - whi[j])),
                    np.maximum(m - r, np.nextafter(a, b)), np.minimum(m + r, np.nextafter(b, a)))
        fx = sample(x, j)
        left = (fx <= 0.0) == (flo[j] <= 0.0)  # x takes lo's place
        again = (moved_lo[j] == left) & (k > 0)  # the other end is kept twice in a row
        lo[j[left]], flo[j[left]], wlo[j[left]] = x[left], fx[left], fx[left]
        hi[j[~left]], fhi[j[~left]], whi[j[~left]] = x[~left], fx[~left], fx[~left]
        whi[j[left & again]] *= 0.5
        wlo[j[~left & again]] *= 0.5
        moved_lo[j] = left


def _crossings(fn, lam):
    """Roots of each row of a stacked fn on [0, 2 pi), and their residuals.

    fn(t) returns a (k, n) stack for n angles in [0, 2 pi).  A row's roots
    come one per sign change among 512 scan angles (a 513th, past 2 pi,
    closes the circle), in bracket order; _illinois narrows the brackets of
    all rows together, so each step, like the scan, samples fn once, at the
    angles taken mod 2 pi.  A root is the end of its final bracket with the
    smaller |fn|, and that |fn| is its residual.  Returns one entry per row:
    None when its scan finds no sign change, else its roots, their residuals
    and which tie with the smallest.  Near the rims the residual floor is
    |d fn/dt| * eps, so residuals within _TIE_EPS (|t| |d fn/dt| + |lam|)
    of it tie (slope from the scan bracket).
    """
    t = 2.0 * math.pi * (np.arange(513) + 0.5) / 512
    f = fn(t % (2.0 * math.pi))
    row, k = np.nonzero(np.sign(f[:, :-1]) * np.sign(f[:, 1:]) <= 0.0)
    lo, hi, flo, fhi = _illinois(
        lambda x, j: fn(x % (2.0 * math.pi))[row[j], np.arange(j.size)],
        t[k], t[k + 1], f[row, k], f[row, k + 1])
    at_lo = np.abs(flo) <= np.abs(fhi)
    roots = np.where(at_lo, lo, hi) % (2.0 * math.pi)
    resid = np.abs(np.where(at_lo, flo, fhi))
    slope = np.abs(f[row, k + 1] - f[row, k]) * (512 / (2.0 * math.pi))
    tol = _TIE_EPS * (roots * slope + abs(lam))
    found = []
    for j in range(len(f)):
        on = row == j
        found.append((roots[on], resid[on], resid[on] <= resid[on].min() + tol[on])
                     if on.any() else None)
    return found


def crossing_witness(g: HoloFn, rho: float, lam: float) -> CrossingWitness:
    """Angles where the section trace crosses the two balance loci.

    Finds t1 with Re g(rho e^{i t1}) = lam and t2 with Re(1/g)(rho e^{i t2})
    = -lam by sign scanning at 512 angles plus Illinois steps, and reports for
    each the first root whose residual ties with the smallest.  One sample
    w = g(rho e^{it}) per step serves both loci, as the stack
    [Re w - lam, Re(1/w) + lam].  Both crossings exist whenever the means
    a0[g] = lam, a0[1/g] = -lam hold: a continuous function whose circle
    mean is zero changes sign.  Geometrically, the curve g(C_rho) meets the
    line Re w = lam, and meets the circle |w + 1/(2 lam)| = 1/(2 lam) (which
    is Re(1/w) = -lam rewritten).  rho must be positive and strictly inside
    g.annulus.
    """
    _check_rho(g, rho)

    def loci(tt):
        w = g(rho * np.exp(1j * tt))
        return np.stack([np.real(w) - lam, np.real(1.0 / w) + lam])

    picks = []
    for label, found in zip(("Re g = lam", "Re 1/g = -lam"), _crossings(loci, lam)):
        if found is None:
            m, minv = a0_pair(g, rho=rho)
            raise ValueError(
                f"no sign change for {label} at rho={rho}: the scanned "
                f"functions' circle means are Re a0[g]-lam={m.real - lam:.3e}, "
                f"Re a0[1/g]+lam={minv.real + lam:.3e}")
        roots, resid, tied = found
        best = int(np.argmax(tied))
        picks.append((float(roots[best]), float(resid[best])))
    (t1, r1), (t2, r2) = picks
    return CrossingWitness(t1=t1, t2=t2, residual1=r1, residual2=r2)
