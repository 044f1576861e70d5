"""Two-slit extremal candidates on symmetric annuli.

The candidate Gauss map sends K_R onto the plane minus two real slits.  Let
q = e^{-pi t} and R = q^{-1/2}; the ring coordinate u = log(sqrt(q) z)/(2 pi i)
identifies K_R with the strip 0 <= Im u <= t/2 on the rectangular lattice
generated by 1 and i t.  The map is the squared theta quotient

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
common factor) makes the circle means of g0 and 1/g0 opposite exactly, so
g0 is balanced as it stands, a0[g0] = lambda = -a0[1/g0], at the level
lambda = (2 eta1 + e2)/beta0 (Whittaker & Watson, ch. 20-21).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import elliptic
from .contour import Annulus, HoloFn
from .elliptic import EllipticParams, _theta_nulls, theta1, theta1_prime, theta3, theta3_prime
from .expr import Const, Div, Opaque, Pow, Var
from .modulus import max_log_radius

__all__ = [
    "SlitMapCandidate", "FamilyBalanceError",
    "SweepRow", "calibrate_candidate", "boundary_reality",
    "conjecture_sweep", "joukowski_map", "joukowski_family",
]


@dataclass(frozen=True)
class SlitMapCandidate:
    """A slit-plane Gauss map on the symmetric annulus of its parameters.

    g is the map g0, lam its level a0[g] = lam = -a0[1/g]; slit_neg and
    slit_pos are the finite endpoints of the boundary slits (-inf, slit_neg]
    and (0, slit_pos].  calibrate_candidate sets g's rim divisor,
    ((R, 2), (-1/R, -2)), and its mirrors (R, 1/R), the rims across which
    g reflects to itself; the univalence probe removes the divisor's poles
    and each target's two reflected preimages in closed form.  A map made
    from g by arithmetic (2*g, g.derivative()) carries neither.
    """

    params: EllipticParams
    g: HoloFn
    lam: float

    @property
    def annulus(self) -> Annulus:
        return self.g.annulus

    @property
    def slit_neg(self) -> float:  # g0's slit tips are -(theta4/theta2)^2 and its reciprocal
        t2, _, t4 = self.params.theta0
        return -(t4 / t2) ** 2

    @property
    def slit_pos(self) -> float:
        return -1.0 / self.slit_neg


def _level(params: EllipticParams) -> float:
    """lambda = N(q)/(3 theta2^2 theta4^2), N = theta2^4 - (theta4^4 - 1) + (E2 - 1).

    That is (2 eta1 + e2)/beta0 with eta1 = (pi^2/6) E2.  Below t = 1 the
    modular flip tau -> -1/tau (theta2 = theta4'/sqrt(t), theta4 =
    theta2'/sqrt(t) and E2 = 6/(pi t) - E2'/t^2 at q' = e^{-pi/t}; Apostol,
    Modular Functions and Dirichlet Series, ch. 3) gives it instead as
    (2t/pi - N(q')/3)/(theta2'^2 theta4'^2), so N is only taken at nomes
    x <= e^{-pi}, where 13 terms of the Lambert series theta4^4 - 1 =
    8 sum n(-x)^n/(1 + x^n) and E2 - 1 = -24 sum x^2n/(1 - x^2n)^2 reach
    full precision; neither is formed as a product minus 1, which cancels.
    """
    t = params.t
    x = params.q if t >= 1.0 else math.exp(-math.pi / t)
    t2, _, t4 = _theta_nulls(x)
    n = np.arange(1, 14)
    sx = (-x) ** n
    x2n = sx * sx
    big_n = (t2 ** 4 - 8.0 * float(np.sum(n * sx / (1.0 + np.abs(sx))))
             - 24.0 * float(np.sum(x2n / (1.0 - x2n) ** 2)))
    if t >= 1.0:
        return big_n / (3.0 * (t2 * t4) ** 2)
    return (2.0 * t / math.pi - big_n / 3.0) / (t2 * t4) ** 2


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
    """The two-slit map at nome q, balanced as it stands: a0[g] = lambda and
    a0[1/g] = -lambda by the half-period identity, with lambda in closed
    form.  No integral is taken; a tube built on g measures its balance
    through its period defect."""
    params = EllipticParams(float(q))
    q = params.q
    rootq = math.sqrt(q)
    # the ring coordinate v = pi u = log(sqrt(q) z)/(2i), formed once a pass;
    # theta1 and theta3, and theta1' and theta3' when the pass needs them,
    # come from one comb walk-out: rows (theta1, theta3, theta1', theta3')
    v = Opaque("v", lambda z: np.log(rootq * z) / 2j, Div(Const(-0.5j), Var()))

    def thetas(w, jet):
        return elliptic._gauss_comb(w, q, (0.5, 0.0), jet)
    t1 = Opaque(f"theta1[q={q:g}]", lambda w: theta1(w, q),
                Opaque(f"theta1'[q={q:g}]", lambda w: theta1_prime(w, q), arg=v,
                       shared=(thetas, 2)), v, (thetas, 0))
    t3 = Opaque(f"theta3[q={q:g}]", lambda w: theta3(w, q),
                Opaque(f"theta3'[q={q:g}]", lambda w: theta3_prime(w, q), arg=v,
                       shared=(thetas, 3)), v, (thetas, 1))
    # theta1's zero at u = 0 and theta3's at u = (1 + it)/2 put g0's rim
    # divisor at z = R (a double zero) and z = -1/R (a double pole); g0 has
    # real coefficients and is real on both rims, so Schwarz reflection
    # gives g0(R^2/z) = g0(z) = g0(1/(R^2 z)): its mirrors are R and 1/R
    R = params.ring_radius
    g0 = HoloFn(Pow(Div(t1, t3), 2), Annulus(R), divisor=((R, 2), (-1.0 / R, -2)),
                mirrors=(R, 1.0 / R))
    return SlitMapCandidate(params=params, g=g0, lam=_level(params))


# --- sweep -------------------------------------------------------------------

@dataclass(frozen=True)
class SweepRow:
    q: float
    R: float
    lam: float
    lnR: float
    lnR0: float
    ratio: float


def conjecture_sweep(q_grid) -> tuple:
    """Calibrate a candidate per q and compare ln R with ln R0(lambda).

    One SweepRow per q, in input order (rows are independent; any parallel
    execution must still emit them in this order).  Each row rests on the
    closed-form level alone: no circle mean is measured.
    """
    qs = [float(q) for q in q_grid]
    if not qs:
        raise ValueError("empty q grid")
    for q in qs:
        if not 0.02 < q < 0.95:
            raise ValueError(f"q={q} outside the supported range (0.02, 0.95)")
    rows = []
    for q in qs:
        cand = calibrate_candidate(q)
        R = cand.params.ring_radius
        lnR = math.log(R)
        lnR0 = max_log_radius(cand.lam)
        rows.append(SweepRow(q=q, R=R, lam=cand.lam, lnR=lnR, lnR0=lnR0,
                             ratio=lnR / lnR0))
    return tuple(rows)


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
    lam_max = 1e-3 * np.finfo(float).max  # -lam/a stays finite down to |a| = 1e-3
    if not lam < lam_max:
        raise ValueError(f"need lam < {lam_max:.6g}, got lam={lam}")
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
