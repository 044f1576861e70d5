"""Outside-in tracer: spans around the public callables of each tubeflux layer.

``Tracer.install`` wraps every binding a caller resolves: ``from .x import y``
copies ``y`` into each importing module, so a function is replaced in every
tubeflux module that holds it, and class constructors are wrapped on the
class itself.  ``Tracer.remove`` puts every original back.  Each call records
one span (id, parent id, layer name, start, end, self time, count); the count
is the layer's unit of work: points for theta and expression evaluation, CG
iterations for the solver, dof for the grid estimate, retries for the probe.
"""

from __future__ import annotations

import functools
import sys
import time
from collections import namedtuple

import numpy as np

Span = namedtuple("Span", "id parent name start end self_s count")

_MODULES = ("tubeflux", "tubeflux.expr", "tubeflux.contour", "tubeflux.elliptic",
            "tubeflux.tubes", "tubeflux.flux", "tubeflux.slitmap",
            "tubeflux.modulus", "tubeflux.cli")


def _probe_retries(args, result):
    return sum("perturbing" in note for note in result.notes)


# (layer, module holding the definition, attribute, count(args, result))
_FUNCTIONS = (
    ("elliptic.theta", "tubeflux.elliptic", "theta1", lambda a, r: np.size(a[0])),
    ("elliptic.theta", "tubeflux.elliptic", "theta3", lambda a, r: np.size(a[0])),
    ("elliptic.theta", "tubeflux.elliptic", "theta1_prime", lambda a, r: np.size(a[0])),
    ("elliptic.theta", "tubeflux.elliptic", "theta3_prime", lambda a, r: np.size(a[0])),
    ("expr.evaluate", "tubeflux.expr", "evaluate", lambda a, r: np.size(a[1])),
    ("contour.circle", "tubeflux.contour", "circle_integral", None),
    ("contour.path", "tubeflux.contour", "path_integral", None),
    ("contour.probe", "tubeflux.contour", "univalence_probe", _probe_retries),
    ("tubes.gauss", "tubeflux.tubes", "tube_from_gauss", None),
    ("tubes.section", "tubeflux.tubes", "section_polyline", None),
    ("flux.report", "tubeflux.flux", "lifetime_report", None),
    ("slitmap.calibrate", "tubeflux.slitmap", "calibrate_candidate", None),
    ("modulus.grid", "tubeflux.modulus", "grid_module_estimate", lambda a, r: r.dof),
    ("modulus.witness", "tubeflux.modulus", "crossing_witness", None),
    ("cli", "tubeflux.cli", "main", None),
)

# constructors: wrapped on the class, which every importer shares
_CLASSES = (
    ("elliptic.params", "tubeflux.elliptic", "EllipticParams"),
    ("tubes.tube", "tubeflux.tubes", "MinimalTube"),
)


class _Frame:
    __slots__ = ("id", "parent", "name", "start", "child_s", "count")


class Tracer:
    """Collects spans while installed; one instance per traced pass."""

    def __init__(self):
        self.spans = []
        self._stack = []
        self._next_id = 0
        self._restore = []

    # -- spans ---------------------------------------------------------------

    def _open(self, name):
        frame = _Frame()
        frame.id = self._next_id
        self._next_id += 1
        frame.parent = self._stack[-1].id if self._stack else None
        frame.name = name
        frame.child_s = 0.0
        frame.count = 0
        self._stack.append(frame)
        frame.start = time.perf_counter()
        return frame

    def _close(self, frame):
        end = time.perf_counter()
        self._stack.pop()
        dur = end - frame.start
        if self._stack:
            self._stack[-1].child_s += dur
        self.spans.append(Span(frame.id, frame.parent, frame.name, frame.start,
                               end, dur - frame.child_s, frame.count))

    def _wrap(self, name, fn, count):
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            frame = tracer._open(name)
            try:
                result = fn(*args, **kwargs)
                if count is not None:
                    frame.count = int(count(args, result))
                return result
            finally:
                tracer._close(frame)

        return traced

    def _wrap_cg(self, cg):
        tracer = self

        def traced_cg(*args, callback=None, **kwargs):
            frame = tracer._open("modulus.cg")

            def step(xk):
                frame.count += 1
                if callback is not None:
                    callback(xk)
            try:
                return cg(*args, callback=step, **kwargs)
            finally:
                tracer._close(frame)

        return traced_cg

    # -- installation ----------------------------------------------------------

    def _patch(self, owner, attr, value):
        self._restore.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, value)

    def install(self):
        modules = [sys.modules[m] for m in _MODULES]
        for name, home, attr, count in _FUNCTIONS:
            original = getattr(sys.modules[home], attr)
            traced = self._wrap(name, original, count)
            for mod in modules:
                for key, value in list(vars(mod).items()):
                    if value is original:
                        self._patch(mod, key, traced)
        for name, home, attr in _CLASSES:
            cls = getattr(sys.modules[home], attr)
            self._patch(cls, "__init__", self._wrap(name, cls.__init__, None))
        spla = sys.modules["tubeflux.modulus"].spla
        self._patch(spla, "cg", self._wrap_cg(spla.cg))
        return self

    def remove(self):
        while self._restore:
            owner, attr, value = self._restore.pop()
            setattr(owner, attr, value)

    def __enter__(self):
        return self.install()

    def __exit__(self, *exc):
        self.remove()
        return False


def layer_totals(spans, n_items):
    """Per-item layer metrics from one traced pass of ``n_items`` items.

    Quadrature nodes are the points of the expression evaluations a circle
    or path integral makes directly; probe winding attempts are its direct
    circle integrals, and a retry is an attempt that did not settle.
    """
    by_id = {s.id: s for s in spans}
    calls, total_s, self_s, count = {}, {}, {}, {}
    nodes = {"contour.circle": 0, "contour.path": 0}
    windings = 0
    for s in spans:
        calls[s.name] = calls.get(s.name, 0) + 1
        total_s[s.name] = total_s.get(s.name, 0.0) + (s.end - s.start)
        self_s[s.name] = self_s.get(s.name, 0.0) + s.self_s
        count[s.name] = count.get(s.name, 0) + s.count
        parent = by_id.get(s.parent)
        if parent is None:
            continue
        if s.name == "expr.evaluate" and parent.name in nodes:
            nodes[parent.name] += s.count
        elif s.name == "contour.circle" and parent.name == "contour.probe":
            windings += 1

    def c(name):
        return calls.get(name, 0)

    def t(table, name):
        return table.get(name, 0.0)

    retries = count.get("contour.probe", 0)
    raw = {
        "elliptic.theta.calls": c("elliptic.theta"),
        "elliptic.theta.points": count.get("elliptic.theta", 0),
        "elliptic.theta.self_s": t(self_s, "elliptic.theta"),
        "elliptic.params.calls": c("elliptic.params"),
        "elliptic.params.s": t(total_s, "elliptic.params"),
        "expr.evaluate.calls": c("expr.evaluate"),
        "expr.evaluate.points": count.get("expr.evaluate", 0),
        "expr.evaluate.self_s": t(self_s, "expr.evaluate"),
        "contour.circle.calls": c("contour.circle"),
        "contour.circle.nodes": nodes["contour.circle"],
        "contour.circle.self_s": t(self_s, "contour.circle"),
        "contour.path.calls": c("contour.path"),
        "contour.path.nodes": nodes["contour.path"],
        "contour.path.self_s": t(self_s, "contour.path"),
        "contour.probe.calls": c("contour.probe"),
        "contour.probe.self_s": t(self_s, "contour.probe"),
        "contour.probe.retries": retries,
        "tubes.gauss.s": t(total_s, "tubes.gauss"),
        "tubes.tube.self_s": t(self_s, "tubes.tube"),
        "tubes.section.s": t(total_s, "tubes.section"),
        "flux.report.self_s": t(self_s, "flux.report"),
        "slitmap.calibrate.calls": c("slitmap.calibrate"),
        "slitmap.calibrate.s": t(total_s, "slitmap.calibrate"),
        "modulus.grid.calls": c("modulus.grid"),
        "modulus.grid.s": t(total_s, "modulus.grid"),
        "modulus.grid.dof": count.get("modulus.grid", 0),
        "modulus.cg.calls": c("modulus.cg"),
        "modulus.cg.iters": count.get("modulus.cg", 0),
        "modulus.cg.s": t(total_s, "modulus.cg"),
        "modulus.assembly_s": t(total_s, "modulus.grid") - t(total_s, "modulus.cg"),
        "modulus.witness.calls": c("modulus.witness"),
        "modulus.witness.s": t(total_s, "modulus.witness"),
        "cli.calls": c("cli"),
        "cli.self_s": t(self_s, "cli"),
    }
    out = {key: value / n_items for key, value in raw.items()}
    out["contour.probe.settled_frac"] = (windings - retries) / windings if windings else 0.0
    return out
