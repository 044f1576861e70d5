"""Shared fixtures: a catenoid band, a memoized calibrated slit family, and
the counters of the deterministic count tests (circle levels, comb points)."""

from functools import lru_cache

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
    # Memoized across the whole run; calibration at large q is the slow part.
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
