"""Shared fixtures: a catenoid band, a memoized calibrated slit family, the
counters of the deterministic count tests (circle levels, comb points), and
a 60-digit Weierstrass P that shares no code with the package."""

from functools import lru_cache

import mpmath as mp
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
    """``count_levels()`` records the node count of every circle sample taken
    from then on, and returns the list it records into."""
    def start():
        levels, nodes = [], contour._circle_nodes

        def counted(rho, n):
            levels.append(n)
            return nodes(rho, n)

        monkeypatch.setattr(contour, "_circle_nodes", counted)
        return levels

    return start


@pytest.fixture()
def comb_calls(monkeypatch):
    """``comb_calls()`` records the point count of every theta-comb call made
    from then on (theta1, theta3 and their derivatives alike), and returns
    the list it records into."""
    def start():
        calls = []
        monkeypatch.setattr(elliptic, "_gauss_comb", _counting(elliptic._gauss_comb, calls))
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
