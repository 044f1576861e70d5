"""Two-slit extremal candidates on symmetric annuli.

The candidate Gauss map sends K_R onto the plane minus two real slits.  Let
q = e^{-pi t} and R = q^{-1/2}; the ring coordinate u = log(sqrt(q) z)/(2 pi i)
identifies K_R with the strip 0 <= Im u <= t/2 on the rectangular lattice
generated by 1 and i t.  The base map is the squared theta quotient

    g0(z) = (theta1(pi u) / theta3(pi u))^2,

which equals beta0/(p(u) - e2) with beta0 = pi^2 theta2^2 theta4^2
= sqrt((e1-e2)(e2-e3)); the theta form is the one implemented because
p(u) - e2 is a difference of nearly equal numbers over most of the thin-ring
range (e1 - e2 = pi^2 theta4^4 underflows outright by q ~ 0.9) while the
quotient of Gaussian-comb thetas stays cancellation-free at every nome.
The outer rim Im u = 0 lands on the slit [0, (theta2/theta4)^4] and the
inner rim Im u = t/2 on (-inf, -(theta4/theta2)^4], so the interior omits
zero.  The half-period identity

    g0(-1/z) = -1/g0(z)

(z -> -1/z is u -> (1+it)/2 - u, which swaps theta1 and theta3 up to a
common factor) makes the circle means of g0 and 1/g0 opposite by symmetry,
so the balance calibration reduces to one real scale factor with root
essentially at 1.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

import numpy as np

from .contour import Annulus, HoloFn, a0
from .elliptic import EllipticParams, theta1, theta1_prime, theta3, theta3_prime
from .expr import Opaque
from .modulus import max_log_radius

__all__ = [
    "SlitMapCandidate", "CalibrationError", "FamilyBalanceError",
    "OmissionViolation", "SweepRow", "SweepResult",
    "slit_annulus_map", "calibrate_candidate", "boundary_reality",
    "conjecture_sweep", "joukowski_map", "joukowski_family",
]


class CalibrationError(RuntimeError):
    """Balance calibration failed; carries the sampled residual curve."""

    def __init__(self, message, curve=None):
        super().__init__(message)
        self.curve = curve or []


@dataclass(frozen=True)
class SlitMapCandidate:
    """A slit-plane Gauss map on the symmetric annulus of its parameters.

    g is the working map (scale * base construction); slit_neg and slit_pos
    are the finite endpoints of the two boundary slits (-inf, slit_neg] and
    (0, slit_pos].  lam and residual are set once the candidate has been
    calibrated so that a0[g] = lam = -a0[1/g].
    """

    params: EllipticParams
    g: HoloFn
    scale: float
    slit_neg: float
    slit_pos: float
    lam: float | None = None
    residual: float | None = None

    @property
    def annulus(self) -> Annulus:
        return self.g.annulus


def slit_annulus_map(params: EllipticParams) -> SlitMapCandidate:
    """The geometrically normalized two-slit map g0 on K_R (scale 1)."""
    t2, _, t4 = params.theta0
    a_geo = (t4 / t2) ** 2
    q = params.q
    rootq = math.sqrt(q)

    def v_of(z):
        # pi * u = log(sqrt(q) z) / (2 i)
        return np.log(rootq * np.asarray(z, dtype=complex)) / 2j

    def fn(z):
        v = v_of(z)
        return (theta1(v, q) / theta3(v, q)) ** 2

    def dfn(z):
        z = np.asarray(z, dtype=complex)
        v = v_of(z)
        t1v, t3v = theta1(v, q), theta3(v, q)
        quot = (theta1_prime(v, q) * t3v - t1v * theta3_prime(v, q)) / (t3v * t3v)
        return (t1v / t3v) * quot / (1j * z)

    dnode = Opaque(f"slit0'(q={q:g})", dfn, None)
    g0 = HoloFn.from_callable(f"slit0(q={q:g})", fn, Annulus(params.ring_radius), deriv=dnode)
    return SlitMapCandidate(params=params, g=g0, scale=1.0,
                            slit_neg=-a_geo, slit_pos=1.0 / a_geo)


def boundary_reality(cand: SlitMapCandidate, n: int = 256) -> dict:
    """Worst deviation of the rim traces from the real axis.

    Samples midpoints of n equal arcs on each rim (avoiding the lattice
    points, where the map degenerates to 0 or infinity) and reports the
    largest |Im g| and largest |Im g|/(1+|g|).  The relative figure is the
    meaningful one near the rim pole, where |g| is enormous and the absolute
    imaginary part is pure cancellation noise.
    """
    R = cand.params.ring_radius
    t = 2.0 * math.pi * (np.arange(n) + 0.5) / n
    worst_abs = 0.0
    worst_rel = 0.0
    for rho in (R, 1.0 / R):
        vals = cand.g(rho * np.exp(1j * t))
        im = np.abs(vals.imag)
        worst_abs = max(worst_abs, float(im.max()))
        worst_rel = max(worst_rel, float((im / (1.0 + np.abs(vals))).max()))
    return {"abs": worst_abs, "rel": worst_rel}


def calibrate_candidate(q, n_points=None) -> SlitMapCandidate:
    """Scale the two-slit map so a0[g] = lambda and a0[1/g] = -lambda.

    With g = s g0 the two means are s A and B/s where A = a0[g0] and
    B = a0[1/g0], so the balance r(s) = s A + B/s = 0 is one real equation;
    r is strictly monotone on s > 0 when A and B have opposite signs.  The
    root is bracketed by doubling around s = 1 and polished with Brent's
    method.  By the half-period identity B = -A, so the geometric
    normalization is already balanced and the solve lands at s = 1 up to
    quadrature error; the solve is kept because it is the defining property,
    the identity only explains why it is cheap.
    """
    from scipy.optimize import brentq  # heavy to import, and only calibration needs it

    params = q if isinstance(q, EllipticParams) else EllipticParams(float(q))
    base = slit_annulus_map(params)
    mean_g = complex(a0(base.g, rho=1.0, n_points=n_points))
    mean_inv = complex(a0(1 / base.g, rho=1.0, n_points=n_points))
    A, B = mean_g.real, mean_inv.real
    drift = max(abs(mean_g.imag), abs(mean_inv.imag))
    if drift > 1e-9 * (1.0 + abs(A) + abs(B)):
        raise CalibrationError(
            f"circle means are not real (imaginary drift {drift:.3e}); "
            f"the slit construction is broken at q={params.q}")

    def r(s):
        return s * A + B / s

    lo, hi = 0.5, 2.0
    for _ in range(200):
        if r(lo) * r(hi) <= 0.0:
            break
        lo *= 0.5
        hi *= 2.0
    else:
        curve = [(s, r(s)) for s in np.geomspace(1e-4, 1e4, 33)]
        raise CalibrationError(
            f"no sign change of the balance residual for q={params.q}: "
            f"A={A:.6e}, B={B:.6e}", curve=curve)
    s_star = brentq(r, lo, hi, xtol=1e-15, rtol=8.881784197001252e-16)
    lam = s_star * A
    if not lam > 0.0:
        raise CalibrationError(
            f"calibration landed at lambda={lam:.6e} <= 0 for q={params.q}; "
            "the map orientation is wrong")
    residual = abs(r(s_star)) / (1.0 + abs(lam))
    return replace(base, g=base.g * s_star, scale=s_star,
                   slit_neg=base.slit_neg * s_star,
                   slit_pos=base.slit_pos * s_star,
                   lam=lam, residual=residual)


# --- sweep -------------------------------------------------------------------

@dataclass(frozen=True)
class SweepRow:
    q: float
    R: float
    lam: float
    lnR: float
    lnR0: float
    ratio: float


@dataclass(frozen=True)
class SweepResult:
    rows: tuple
    failures: tuple  # (q, reason) pairs, input order

    def as_table(self):
        return [(r.q, r.R, r.lam, r.lnR, r.lnR0, r.ratio) for r in self.rows]


def conjecture_sweep(q_grid, n_points=None) -> SweepResult:
    """Calibrate a candidate per q and compare ln R with ln R0(lambda).

    Rows keep the input order (they are independent; any parallel execution
    must still emit them in this order).  Per-row calibration failures are
    collected, not raised.
    """
    qs = [float(q) for q in q_grid]
    if not qs:
        raise ValueError("empty q grid")
    for q in qs:
        if not 0.02 < q < 0.95:
            raise ValueError(f"q={q} outside the supported range (0.02, 0.95)")
    rows, failures = [], []
    for q in qs:
        try:
            cand = calibrate_candidate(q, n_points=n_points)
        except (CalibrationError, ValueError, ArithmeticError) as exc:
            failures.append((q, f"{type(exc).__name__}: {exc}"))
            continue
        R = cand.params.ring_radius
        lnR = math.log(R)
        lnR0 = max_log_radius(cand.lam)
        rows.append(SweepRow(q=q, R=R, lam=cand.lam, lnR=lnR, lnR0=lnR0,
                             ratio=lnR / lnR0))
    return SweepResult(rows=tuple(rows), failures=tuple(failures))


# --- the z + kappa/z test family --------------------------------------------

class FamilyBalanceError(RuntimeError):
    """No admissible (a, kappa) balances the family; carries diagnostics."""

    def __init__(self, message, diagnostics=None):
        super().__init__(message)
        self.diagnostics = diagnostics or {}


class OmissionViolation(RuntimeError):
    """The only balancing parameters put a zero of g inside the annulus."""

    def __init__(self, message, diagnostics=None):
        super().__init__(message)
        self.diagnostics = diagnostics or {}


def joukowski_map(lam: float, a: float, kappa: float, R: float) -> HoloFn:
    z = HoloFn.var(Annulus(R))
    return lam + a * (z + kappa / z)


def _family_mean_inv(lam, a, kappa, R):
    """a0[1/g] for g = lam + a(z + kappa/z), by residues at the zeros of g.

    The integrand of the mean of 1/g is dz/(a(z - r1)(z - r2)) with
    r1 r2 = kappa, r1 + r2 = -lam/a; only zeros inside the unit circle
    contribute.  Returns (mean, placement) where placement classifies the
    zeros against the annulus: "clear" (none in the open ring) or "in_ring".
    """
    r = np.roots([a, lam, a * kappa])
    inside = [rt for rt in r if abs(rt) < 1.0]
    ring = any(1.0 / R < abs(rt) < R for rt in r)
    if len(inside) == 2 or len(inside) == 0:
        mean = 0.0 + 0.0j
    else:
        rt = inside[0]
        other = r[0] if r[1] == rt else r[1]
        mean = 1.0 / (a * (rt - other))
    return mean, ("in_ring" if ring else "clear")


def joukowski_family(lam: float, R: float, tol: float = 1e-9):
    """Try to balance g = lam + a(z + kappa/z) on K_R; no instance exists.

    a0[g] = lam holds for every (a, kappa).  The other balance a0[1/g] =
    -lam would need the mean of 1/g to be -lam, and that mean is a residue
    sum over the zeros of g inside the unit circle: it is 0 when both or
    neither zero lies inside, and 1/(a(r_in - r_out)) when exactly one does.
    Solving the residue equation forces |r_in| = (lam + 1/lam)/(2|a|), which
    strictly exceeds the other zero's modulus |lam - 1/lam|/(2|a|) -- the
    inside zero would have to be the larger one, which is impossible.  The
    attainable means therefore stay in {0} union {Re > 0}, a set at distance
    lam from the target, and this solver exists to demonstrate that failure
    honestly: it scans the admissible parameter range (|kappa| < 1/R^2 so
    the map stays univalent), finds no sign change to bracket, and raises
    with the measured residual floor.

    Raises OmissionViolation when balance is only reached at parameters
    whose zeros invade the ring, FamilyBalanceError when no scanned
    parameters balance at all.
    """
    if not (lam > 0.0 and R > 1.0):
        raise ValueError(f"need lam > 0 and R > 1, got lam={lam}, R={R}")
    kap_lim = 0.999 / (R * R)
    a_grid = np.concatenate([-np.geomspace(1e-3, 1e3, 61),
                             np.geomspace(1e-3, 1e3, 61)])
    k_grid = np.linspace(-kap_lim, kap_lim, 41)
    best = None          # admissible: zeros clear of the ring
    best_violating = None  # balanced but zeros inside the ring
    n_ring = 0
    for a in a_grid:
        for kap in k_grid:
            mean, placement = _family_mean_inv(lam, a, kap, R)
            res = abs(mean + lam)
            if placement == "in_ring":
                n_ring += 1
                if res < tol and (best_violating is None or res < best_violating[0]):
                    best_violating = (res, a, kap)
                continue
            if best is None or res < best[0]:
                best = (res, a, kap)
    diagnostics = {
        "lam": lam, "R": R,
        "residual_floor": None if best is None else best[0],
        "best_params": None if best is None else (best[1], best[2]),
        "n_scanned": a_grid.size * k_grid.size,
        "n_ring_violations": n_ring,
        "theoretical_floor": lam,
    }
    if best_violating is not None:
        raise OmissionViolation(
            f"balance for lam={lam}, R={R} is reached only with a zero of g "
            f"inside the annulus (residual {best_violating[0]:.3e} at "
            f"a={best_violating[1]:.6g}, kappa={best_violating[2]:.6g})",
            diagnostics=diagnostics)
    if best is None:
        # the ring is so wide that every scanned (a, kappa) parks a zero of
        # g inside it; there is nothing admissible to balance with
        raise FamilyBalanceError(
            f"no (a, kappa) with |kappa| < 1/R^2 balances a0[1/g] = {-lam}: "
            f"all {diagnostics['n_scanned']} scanned parameters place a zero "
            f"of g inside the annulus at R={R:g}",
            diagnostics=diagnostics)
    raise FamilyBalanceError(
        f"no (a, kappa) with |kappa| < 1/R^2 balances a0[1/g] = {-lam}: "
        f"smallest residual over {diagnostics['n_scanned']} scanned "
        f"parameters is {diagnostics['residual_floor']:.6g} "
        f"(the attainable means keep distance {lam} from the target)",
        diagnostics=diagnostics)
