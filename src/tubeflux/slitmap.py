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

from .contour import Annulus, HoloFn, a0_pair
from .elliptic import EllipticParams, theta1, theta1_prime, theta3, theta3_prime
from .expr import Const, Div, Opaque, Pow, Var
from .modulus import max_log_radius

__all__ = [
    "SlitMapCandidate", "CalibrationError", "FamilyBalanceError",
    "SweepRow", "SweepResult",
    "slit_annulus_map", "calibrate_candidate", "boundary_reality",
    "conjecture_sweep", "joukowski_map", "joukowski_family",
]


class CalibrationError(RuntimeError):
    """Balance calibration failed; the message names q and the circle means."""


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
    lam: float | None = None
    residual: float | None = None

    @property
    def annulus(self) -> Annulus:
        return self.g.annulus

    @property
    def _a_geo(self) -> float:  # g0's slit tips are -a_geo and 1/a_geo
        t2, _, t4 = self.params.theta0
        return (t4 / t2) ** 2

    @property
    def slit_neg(self) -> float:
        return -self._a_geo * self.scale

    @property
    def slit_pos(self) -> float:
        return (1.0 / self._a_geo) * self.scale


def slit_annulus_map(params: EllipticParams) -> SlitMapCandidate:
    """The geometrically normalized two-slit map g0 on K_R (scale 1)."""
    q = params.q
    rootq = math.sqrt(q)
    # the ring coordinate v = pi u = log(sqrt(q) z)/(2i), which both theta
    # leaves and their derivatives take, so one pass forms it once
    v = Opaque("v", lambda z: np.log(rootq * z) / 2j, Div(Const(-0.5j), Var()))
    t1 = Opaque(f"theta1[q={q:g}]", lambda w: theta1(w, q),
                Opaque(f"theta1'[q={q:g}]", lambda w: theta1_prime(w, q), arg=v), v)
    t3 = Opaque(f"theta3[q={q:g}]", lambda w: theta3(w, q),
                Opaque(f"theta3'[q={q:g}]", lambda w: theta3_prime(w, q), arg=v), v)
    g0 = HoloFn(Pow(Div(t1, t3), 2), Annulus(params.ring_radius))
    return SlitMapCandidate(params=params, g=g0, scale=1.0)


RIM_SAMPLES = 256


def boundary_reality(cand: SlitMapCandidate) -> dict:
    """Worst deviation of the rim traces from the real axis.

    Samples midpoints of RIM_SAMPLES equal arcs on each rim (avoiding the
    lattice points, where the map degenerates to 0 or infinity) and reports
    the largest |Im g| and largest |Im g|/(1+|g|).  The relative figure is the
    meaningful one near the rim pole, where |g| is enormous and the absolute
    imaginary part is pure cancellation noise.
    """
    R = cand.params.ring_radius
    t = 2.0 * math.pi * (np.arange(RIM_SAMPLES) + 0.5) / RIM_SAMPLES
    vals = cand.g(np.array([[R], [1.0 / R]]) * np.exp(1j * t))  # both rims, one call
    im = np.abs(vals.imag)
    return {"abs": float(im.max()), "rel": float((im / (1.0 + np.abs(vals))).max())}


def calibrate_candidate(q) -> SlitMapCandidate:
    """Scale the two-slit map so a0[g] = lambda and a0[1/g] = -lambda.

    With g = s g0 the two means are s A and B/s where A = a0[g0] and
    B = a0[1/g0], so the balance s A + B/s = 0 has the one positive root
    s* = sqrt(-B/A) when A > 0 > B, and then lambda = s* A > 0.  Any other
    sign pattern (means of one sign, the orientation A < 0 < B, or a NaN
    mean) raises CalibrationError naming A and B.  By the half-period
    identity B = -A, so s* = 1 up to quadrature error; the scale is kept
    because balance is the defining property, the identity only explains
    why it is close to 1.
    """
    params = EllipticParams(float(q))
    base = slit_annulus_map(params)
    mean_g, mean_inv = map(complex, a0_pair(base.g))
    A, B = mean_g.real, mean_inv.real
    drift = max(abs(mean_g.imag), abs(mean_inv.imag))
    if drift > 1e-9 * (1.0 + abs(A) + abs(B)):
        raise CalibrationError(
            f"circle means are not real (imaginary drift {drift:.3e}); "
            f"the slit construction is broken at q={params.q}")
    if not A > 0.0 > B:
        raise CalibrationError(
            f"the balance needs a0[g0] > 0 > a0[1/g0] at q={params.q}, "
            f"got A={A:.6e}, B={B:.6e}")
    s_star = math.sqrt(-B / A)
    lam = s_star * A
    residual = abs(s_star * A + B / s_star) / (1.0 + lam)
    return replace(base, g=base.g * s_star, scale=s_star, lam=lam, residual=residual)


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


def conjecture_sweep(q_grid) -> SweepResult:
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
            cand = calibrate_candidate(q)
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

    def __init__(self, message, diagnostics):
        super().__init__(message)
        self.diagnostics = diagnostics


def joukowski_map(lam: float, a: float, kappa: float, R: float) -> HoloFn:
    z = HoloFn.var(Annulus(R))
    return lam + a * (z + kappa / z)


def joukowski_family(lam: float, R: float):
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
    with the measured residual floor.  Parameters that put a zero of g
    inside the ring are skipped, since the map would not omit zero there.
    The scan is one array pass: the zeros of all the (a, kappa) pairs come
    from one batched eigenvalue call on their companion matrices.
    """
    if not (lam > 0.0 and R > 1.0):
        raise ValueError(f"need lam > 0 and R > 1, got lam={lam}, R={R}")
    kap_lim = 0.999 / (R * R)
    a_grid = np.concatenate([-np.geomspace(1e-3, 1e3, 61),
                             np.geomspace(1e-3, 1e3, 61)])
    k_grid = np.linspace(-kap_lim, kap_lim, 41)
    a, kap = (x.ravel() for x in np.meshgrid(a_grid, k_grid, indexing="ij"))
    # the zeros of g are the eigenvalues of its companion matrix, as np.roots finds them
    comp = np.zeros((a.size, 2, 2))
    comp[:, 0, 0], comp[:, 0, 1], comp[:, 1, 0] = -lam / a, -(a * kap) / a, 1.0
    r = np.linalg.eigvals(comp)
    mod = np.abs(r)
    inside = mod < 1.0
    # 1/(a(z - r1)(z - r2)) has mean 1/(a(r_in - r_out)) when exactly one zero is inside
    r_in, r_out = np.where(inside[:, :1], r, r[:, ::-1]).T
    with np.errstate(all="ignore"):
        mean = np.where(inside.sum(axis=1) == 1, 1.0 / (a * (r_in - r_out)), 0.0)
    res = np.abs(mean + lam)
    # skip parameters that put a zero of g inside the ring, and take the
    # first smallest residual among the rest
    admissible = np.flatnonzero(~np.any((1.0 / R < mod) & (mod < R), axis=1))
    k = admissible[np.argmin(res[admissible])] if admissible.size else None
    diagnostics = {
        "lam": lam, "R": R,
        "residual_floor": None if k is None else float(res[k]),
        "best_params": None if k is None else (a[k], kap[k]),
        "n_scanned": a.size,
        "theoretical_floor": lam,
    }
    if k is None:
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
