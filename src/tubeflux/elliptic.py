"""Weierstrass elliptic machinery on rectangular lattices Z + tau*Z, tau = i*t.

The nome q = exp(i*pi*tau) = exp(-pi*t) doubles as the inner radius of the
annulus q < |z| < 1 that the slit construction lives on.  The one lattice
sum is the Gaussian comb, the modular-flipped theta series: cancellation-free
for nearly real arguments up the whole nome range, and summed point by point,
so a theta value does not depend, even in its last bit, on its batch.  One
walk-out of the comb serves theta and theta' alike, and theta1 and theta3
alike: P, P' and the slit map take all their thetas from one call.  P is
the comb quotient
e2 + beta0 (theta3/theta1)^2(pi u), beta0 = pi^2 theta2^2 theta4^2
(Whittaker & Watson, ch. 20-21).  The theta nulls, and e1, e2, e3 with
them, come from products, which keep theta4's relative precision.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

__all__ = [
    "EllipticParams",
    "wp",
    "wp_prime",
    "theta1",
    "theta1_prime",
    "theta3",
    "theta3_prime",
    "LatticePointError",
]

POLE_TOL = 1e-10
Q_MAX = 0.95


class LatticePointError(ValueError):
    """P evaluated at (or too near) a lattice point."""


@dataclass
class EllipticParams:
    """Lattice data derived from the nome q in (0, 0.95]."""

    q: float
    t: float = field(init=False)
    e1: float = field(init=False)
    e2: float = field(init=False)
    e3: float = field(init=False)
    g2: float = field(init=False)
    g3: float = field(init=False)
    theta0: tuple = field(init=False)  # null values (theta_2, theta_3, theta_4)

    def __post_init__(self):
        if not (0.0 < self.q <= Q_MAX):
            raise ValueError(f"nome must satisfy 0 < q <= {Q_MAX}, got {self.q}")
        self.t = -math.log(self.q) / math.pi  # tau = i*t
        # branch values through theta null products: the identity e1+e2+e3 = 0
        # then cancels symbolically instead of between large lattice sums
        t2, t3, t4 = _theta_nulls(self.q)
        self.theta0 = (t2, t3, t4)
        k = math.pi ** 2 / 3.0
        self.e1 = k * (t3 ** 4 + t4 ** 4)
        self.e2 = k * (t2 ** 4 - t4 ** 4)
        self.e3 = -k * (t2 ** 4 + t3 ** 4)
        # the invariants are symmetric functions of the branch values, since
        # 4x^3 - g2 x - g3 = 4(x - e1)(x - e2)(x - e3)
        self.g2 = -4.0 * (self.e1 * self.e2 + self.e2 * self.e3 + self.e3 * self.e1)
        self.g3 = 4.0 * self.e1 * self.e2 * self.e3

    @property
    def tau(self):
        return 1j * self.t

    @property
    def ring_radius(self):
        """Outer radius R of the symmetric annulus K_R matching q < |z| < 1."""
        return self.q ** -0.5


def _reduce(u, t):
    """Translate u by lattice vectors into Re in [-1/2, 1/2), Im in [-t/2, t/2)."""
    u = np.asarray(u, dtype=complex)
    n = np.floor(u.imag / t + 0.5)
    u = u - 1j * t * n
    m = np.floor(u.real + 0.5)
    return u - m


def _cell(u, t, name):
    """pi*u for u reduced to the fundamental cell, refusing lattice points,
    and a function that gives the result u's shape (complex for 0-d)."""
    arr = np.asarray(u, dtype=complex)
    v = _reduce(arr.reshape(-1), t)
    dist = np.abs(v)
    if np.any(dist < POLE_TOL):
        bad = complex(arr.reshape(-1)[int(np.argmin(dist))])
        raise LatticePointError(f"{name} evaluated within {POLE_TOL} of a lattice point (u={bad})")
    return math.pi * v, lambda out: complex(out[0]) if arr.ndim == 0 else out.reshape(arr.shape)


def _beta0(params):  # pi^2 theta2^2 theta4^2, the slit map's g0 * (P - e2)
    return (math.pi * params.theta0[0] * params.theta0[2]) ** 2


def wp(u, params):
    """Weierstrass P at u (scalar or ndarray) on the lattice Z + i*t*Z."""
    v, shaped = _cell(u, params.t, "P")
    s1, s3 = _gauss_comb(v, params.q, (0.5, 0.0), False)
    ratio = s3 / s1
    return shaped(params.e2 + _beta0(params) * ratio * ratio)


def wp_prime(u, params):
    """Derivative of P; same conventions and guards as wp."""
    v, shaped = _cell(u, params.t, "P'")
    s1, s3, d1, d3 = _gauss_comb(v, params.q, (0.5, 0.0), True)
    return shaped(2.0 * math.pi * _beta0(params) * s3 * (d3 * s1 - s3 * d1) / (s1 * s1 * s1))


def _theta_nulls(q):
    """Theta constants theta_2, theta_3, theta_4 at argument 0, nome q.

    Product forms: every factor is positive, so the tiny theta_4 near q -> 1
    keeps full relative precision where the alternating sum would cancel to
    noise (theta_4(0.9) ~ 2e-9 while its series terms are O(1)).
    """
    n = np.arange(1, 600)
    q2n = q ** (2 * n)
    q2n = q2n[q2n > 1e-19]
    qodd = q ** (2 * n - 1)
    qodd = qodd[qodd > 1e-19]
    p0 = float(np.prod(1.0 - q2n))
    t2 = 2.0 * q ** 0.25 * p0 * float(np.prod((1.0 + q2n) ** 2))
    t3 = p0 * float(np.prod((1.0 + qodd) ** 2))
    t4 = p0 * float(np.prod((1.0 - qodd) ** 2))
    return t2, t3, t4


# Points times rows that one block of a walk-out holds.  A walk-out keeps
# its buffers for all its blocks, so a call takes fresh memory once.  On
# the slit_family benchmark 4,096 beats 8,192 (106-109 against 92-95
# items/s, with 0.8 MB less peak memory), though 8,192 wins isolated calls
# of 4,096 to 8,192 points, where fewer blocks mean fewer numpy calls
# (BENCH_33.json)
COMB_BLOCK = 4096


def _gauss_comb(v, q, half_steps, jet):
    """Theta sums in heat-kernel form: t^(-1/2) * sum_m s(m) exp(-(v - pi*m)^2 / (pi*t)).

    One row a half step: m runs over Z (half step 0, s = 1, giving theta_3)
    or Z + 1/2 (half step 0.5, s(m) = sin(pi*m), giving theta_1).  This is
    the q-series after the modular flip tau -> -1/tau with the square
    completed, so the exponents stay fused: no 0 * inf from q'^(n^2) against
    sinh overflow, and -- unlike the direct series -- no cancellation for
    nearly real v as q -> 1.  Gaussians decay in O(sqrt(t)) lattice steps, so
    a handful of terms suffice at every q.

    Each point walks out from its nearest tooth m0 (d = v - pi*m0): the ratio
    to the next tooth out starts at exp((+-2d - pi)/t) and shrinks by
    exp(-2 pi/t) a step, until the Gaussians fall below 1e-18 of the largest
    (~exp(y^2/(pi t))).  Three complex exps a point a row, and no batch
    dependence: every point is summed on its own, in any block and beside
    any rows.  Returns a tuple of rows: theta at each half step, then, with
    ``jet``, theta' at each half step, each bit for bit its own one-row
    walk-out's.  Rows have v's shape; a scalar v gives Python complexes.
    """
    if not 0.0 < q < 1.0:
        raise ValueError(f"nome must satisfy 0 < q < 1, got {q}")
    arr = np.asarray(v, dtype=complex)
    # a 0-d input goes through the array loops too: numpy's scalar complex
    # multiply rounds differently
    rows = _walk_out(arr.reshape(-1), -math.log(q) / math.pi, half_steps, jet)
    if arr.ndim == 0:
        return tuple(complex(row[0]) for row in rows)
    return tuple(row.reshape(arr.shape) for row in rows)


def _walk_out(x, t, half_steps, jet):
    """The comb at the points x (1-d), COMB_BLOCK points times rows a block:
    theta at each half step, then, with ``jet``, theta' at each, as the
    rows of one array.

    Every complex product and quotient goes into a buffer that is none of
    its operands, with its operands in the order the plain expression has:
    numpy rounds a complex product by operand order, rounds one taken in
    place on one element as a reduction, and may take a temporary's buffer
    (swapping the operands) once an array passes 256 KiB.
    """
    k, n = len(half_steps), x.size
    out = np.empty(((2 if jet else 1) * k, n), dtype=complex)
    m = max(1, min(n, COMB_BLOCK // k))
    half = np.array(half_steps, dtype=float)[:, None]
    kappa = math.exp(-2.0 * math.pi / t)
    buffers = np.empty((14 if jet else 11, k * m), dtype=complex)
    for s in range(0, n, m):
        xs = x[s:s + m]
        # each block's buffers contiguous, so every block takes numpy's same loops
        views = [b[:k * xs.size].reshape(k, xs.size) for b in buffers]
        d, total, pair = views[:3]
        teeth = views[3:7], views[7:11]  # hi, lo, up, down at even and odd steps
        slope, dk, step = views[11:] if jet else (None,) * 3
        n0 = np.rint(xs.real / math.pi - half)
        np.subtract(xs, math.pi * (n0 + half), out=d)
        reach = np.ceil(np.sqrt(math.pi * t * 42.0 + xs.imag ** 2) / math.pi + 0.5)
        # scratch in the odd buffers, which the first step overwrites
        a, b, up, down = teeth[1][0], teeth[1][1], teeth[0][2], teeth[0][3]
        np.exp(np.divide(np.multiply(np.negative(d, out=a), d, out=b), math.pi * t, out=a), out=total)
        np.exp(np.divide(np.subtract(np.multiply(2.0, d, out=a), math.pi, out=a), t, out=b), out=up)
        np.exp(np.divide(np.subtract(np.multiply(-2.0, d, out=a), math.pi, out=a), t, out=b), out=down)
        for i in np.flatnonzero(half[:, 0]):  # s(m) alternates in sign, starting from s(m0)
            np.negative(total[i], out=total[i], where=n0[i] % 2.0 != 0.0)
            np.negative(up[i], out=up[i])
            np.negative(down[i], out=down[i])
        if jet:
            np.multiply(total, d, out=slope)
        hi = lo = total
        nearest = reach.min()
        for j in range(1, int(reach.max()) + 1):  # the teeth alternate buffers
            next_hi, next_lo, next_up, next_down = teeth[j % 2]
            hi, lo = np.multiply(hi, up, out=next_hi), np.multiply(lo, down, out=next_lo)
            up, down = np.multiply(up, kappa, out=next_up), np.multiply(down, kappa, out=next_down)
            inside = True if nearest >= j else reach >= j
            np.add(total, np.add(hi, lo, out=pair), out=total, where=inside)
            if jet:  # hi (d - pi j) + lo (d + pi j)
                np.multiply(hi, np.subtract(d, math.pi * j, out=dk), out=step)
                np.multiply(lo, np.add(d, math.pi * j, out=dk), out=pair)
                np.add(slope, np.add(step, pair, out=step), out=slope, where=inside)
        np.divide(total, math.sqrt(t), out=out[:k, s:s + m])
        if jet:
            np.divide(np.multiply(slope, -2.0 / (math.pi * t), out=step), math.sqrt(t),
                      out=out[k:, s:s + m])
    return out


def theta1(v, q):
    """Jacobi theta_1(v, q); vectorized over complex v."""
    return _gauss_comb(v, q, (0.5,), False)[0]


def theta1_prime(v, q):
    """d/dv of theta1."""
    return _gauss_comb(v, q, (0.5,), True)[1]


def theta3(v, q):
    """Jacobi theta_3(v, q); vectorized over complex v."""
    return _gauss_comb(v, q, (0.0,), False)[0]


def theta3_prime(v, q):
    """d/dv of theta3."""
    return _gauss_comb(v, q, (0.0,), True)[1]
