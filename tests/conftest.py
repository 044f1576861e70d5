"""Shared fixtures: a catenoid band, a memoized calibrated slit family, the
counters of the deterministic count tests (circle nodes, comb points), a
60-digit Weierstrass P that shares no code with the package, and a seeded
generator of expression texts."""

from functools import lru_cache

import mpmath as mp
import numpy as np
import pytest

from tubeflux import (
    Annulus,
    HoloFn,
    MinimalTube,
    calibrate_candidate,
    contour,
    elliptic,
    tube_from_gauss,
)


@lru_cache(maxsize=None)
def _candidate(q):
    return calibrate_candidate(q)


@pytest.fixture(scope="session")
def candidate():
    # Memoized across the whole run, so each nome's tests share one g.
    return _candidate


@lru_cache(maxsize=None)
def _slit_tube(q):
    cand = _candidate(q)
    data = tube_from_gauss(cand.g, 1.0)
    return MinimalTube(data)


@pytest.fixture(scope="session")
def slit_tube():
    return _slit_tube


@pytest.fixture()
def catenoid():
    # g = z, c = 1 on 1/2 < |z| < 2: the flat-ended catenoid band.
    data = tube_from_gauss(HoloFn.var(Annulus(2.0)), 1.0)
    return MinimalTube(data)


def _counting(fn, calls):
    def counted(x, *args, **kwargs):
        calls.append(len(x))
        return fn(x, *args, **kwargs)
    return counted


@pytest.fixture(scope="session")
def counting():
    """``counting(fn, calls)``: fn, appending len(x) to calls at every call fn(x, ...)."""
    return _counting


@pytest.fixture()
def count_levels(monkeypatch):
    """``count_levels()`` records how many nodes every circle sample taken
    from then on evaluates, and returns the list it records into.  A nested
    sum evaluates only the nodes each level adds, so the counts of one sum
    add up to its top level."""
    def start():
        counts, nodes = [], contour._circle_nodes

        def counted(rho, n, n0):
            zeta = nodes(rho, n, n0)
            counts.append(len(zeta))
            return zeta

        monkeypatch.setattr(contour, "_circle_nodes", counted)
        return counts

    return start


@pytest.fixture()
def comb_calls(monkeypatch):
    """``comb_calls()`` records (rows, points) for every theta-comb call made
    from then on (theta1, theta3 and their derivatives alike, one row each
    that the call returns), and returns the list it records into."""
    def start():
        calls, comb = [], elliptic._gauss_comb

        def counted(v, *args):
            rows = comb(v, *args)
            calls.append((len(rows), np.size(v)))
            return rows

        monkeypatch.setattr(elliptic, "_gauss_comb", counted)
        return calls

    return start


def _sn_route_wp(u, q):
    # the classical route P(u) = e3 + (e1 - e3)/sn(u sqrt(e1 - e3) | m)^2 with
    # m = (e2 - e3)/(e1 - e3); in floats e1 - e2 = pi^2 theta4^4 vanishes
    # against e1 for q >= 0.9, so the branch values are formed at 60 digits
    with mp.workdps(60):
        t2, t3, t4 = (mp.jtheta(k, 0, mp.mpf(q)) for k in (2, 3, 4))
        k = mp.pi ** 2 / 3
        e1, e2, e3 = k * (t3**4 + t4**4), k * (t2**4 - t4**4), -k * (t2**4 + t3**4)
        sn = mp.ellipfun("sn", mp.mpc(u) * mp.sqrt(e1 - e3), m=(e2 - e3) / (e1 - e3))
        return complex(e3 + (e1 - e3) / sn**2)


@pytest.fixture(scope="session")
def sn_route_wp():
    """``sn_route_wp(u, q)``: Weierstrass P at u on the lattice Z + i*t*Z,
    q = exp(-pi*t), from mpmath's Jacobi sn and theta nulls at 60 digits."""
    return _sn_route_wp


def _fuzz_expr(rng, depth):
    """A random text of the parser's grammar, its operations nested at most
    depth deep: constants 1e-300..1e300, i, z, the four binary operators,
    negation, integer powers -3..7, exp and log."""
    pick = int(rng.integers(9 if depth else 3))
    if pick == 0:
        return "z"
    if pick == 1:
        return "i"
    if pick == 2:
        return f"{10.0 ** rng.uniform(-300.0, 300.0):.3g}"
    arg = _fuzz_expr(rng, depth - 1)
    if pick == 3:
        return f"{arg}{'+-*/'[int(rng.integers(4))]}{_fuzz_expr(rng, depth - 1)}"
    if pick == 4:
        return f"({arg})^{int(rng.integers(-3, 8))}"
    if pick == 5:
        return f"-{arg}"
    if pick == 6:
        return f"({arg})"
    return f"{('exp', 'log')[pick - 7]}({arg})"


@pytest.fixture(scope="session")
def fuzz_expr():
    """``fuzz_expr(rng, depth)``: a random grammar text drawn from the numpy
    Generator rng, its operations nested at most depth deep."""
    return _fuzz_expr
