"""Weierstrass elliptic machinery on rectangular lattices Z + tau*Z, tau = i*t.

The nome q = exp(i*pi*tau) = exp(-pi*t) doubles as the inner radius of the
annulus q < |z| < 1 that the slit construction lives on.  The one lattice
sum is the Gaussian comb, the modular-flipped theta series: cancellation-free
for nearly real arguments up the whole nome range, and summed point by point,
so a theta value does not depend, even in its last bit, on its batch.  One
walk-out of the comb serves theta and theta' alike.  P is the comb quotient
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
    ratio = theta3(v, params.q) / theta1(v, params.q)
    return shaped(params.e2 + _beta0(params) * ratio * ratio)


def wp_prime(u, params):
    """Derivative of P; same conventions and guards as wp."""
    v, shaped = _cell(u, params.t, "P'")
    (s1, d1), (s3, d3) = _gauss_comb(v, params.q, 0.5, True), _gauss_comb(v, params.q, 0.0, True)
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


def _gauss_comb(v, q, half_step, jet):
    """Theta sum in heat-kernel form: t^(-1/2) * sum_m s(m) exp(-(v - pi*m)^2 / (pi*t)).

    m runs over Z (s = 1, giving theta_3) or Z + 1/2 (s(m) = sin(pi*m),
    giving theta_1).  This is the q-series after the modular flip tau ->
    -1/tau with the square completed, so the exponents stay fused: no
    0 * inf from q'^(n^2) against sinh overflow, and -- unlike the direct
    series -- no cancellation for nearly real v as q -> 1.  Gaussians decay
    in O(sqrt(t)) lattice steps, so a handful of terms suffice at every q.

    Each point walks out from its nearest tooth m0 (d = v - pi*m0): the ratio
    to the next tooth out starts at exp((+-2d - pi)/t) and shrinks by
    exp(-2 pi/t) a step, until the Gaussians fall below 1e-18 of the largest
    (~exp(y^2/(pi t))).  Three complex exps a point, and no batch dependence.
    ``jet`` asks for (theta, theta') from one walk-out, each bit for bit its
    own walk-out's.  Results have v's shape; a scalar v gives a Python complex.
    """
    if not 0.0 < q < 1.0:
        raise ValueError(f"nome must satisfy 0 < q < 1, got {q}")
    t = -math.log(q) / math.pi
    arr = np.asarray(v, dtype=complex)
    # a 0-d input goes through the array loops too: numpy's scalar complex
    # multiply rounds differently
    n0 = np.rint(arr.real.reshape(-1) / math.pi - half_step)
    d = arr.reshape(-1) - math.pi * (n0 + half_step)
    reach = np.ceil(np.sqrt(math.pi * t * 42.0 + d.imag ** 2) / math.pi + 0.5)
    hi = lo = np.exp(-d * d / (math.pi * t))
    up, down = np.exp((2.0 * d - math.pi) / t), np.exp((-2.0 * d - math.pi) / t)
    if half_step:  # s(m) alternates in sign, starting from s(m0)
        hi = lo = np.where(n0 % 2.0 == 0.0, hi, -hi)
        up, down = -up, -down
    kappa = math.exp(-2.0 * math.pi / t)
    total, slope = hi, hi * d if jet else None
    for k in range(1, int(reach.max(initial=0.0)) + 1):
        hi, lo = hi * up, lo * down
        up, down = up * kappa, down * kappa
        full = reach.min() >= k
        total = total + (hi + lo) if full else np.where(reach >= k, total + (hi + lo), total)
        if jet:
            step = hi * (d - math.pi * k) + lo * (d + math.pi * k)
            slope = slope + step if full else np.where(reach >= k, slope + step, slope)

    def shaped(s):
        out = (s / math.sqrt(t)).reshape(arr.shape)
        return out if arr.ndim else complex(out)
    return (shaped(total), shaped(slope * (-2.0 / (math.pi * t)))) if jet else shaped(total)


def theta1(v, q):
    """Jacobi theta_1(v, q); vectorized over complex v."""
    return _gauss_comb(v, q, 0.5, jet=False)


def theta1_prime(v, q):
    """d/dv of theta1."""
    return _gauss_comb(v, q, 0.5, jet=True)[1]


def theta3(v, q):
    """Jacobi theta_3(v, q); vectorized over complex v."""
    return _gauss_comb(v, q, 0.0, jet=False)


def theta3_prime(v, q):
    """d/dv of theta3."""
    return _gauss_comb(v, q, 0.0, jet=True)[1]
