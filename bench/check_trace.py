"""Self-check of the benchmark's tracer:  python3 bench/check_trace.py

- a traced pass returns bit-identical item results to an untraced one;
- the deterministic per-layer counts repeat exactly across traced passes;
- the counts match the baseline measured by hand: 3,992 theta-comb calls for
  MinimalTube + lifetime_report of the slit tube at q=0.1, and 230,447 dof
  for the h=0.05 solve of D(1).
"""

from __future__ import annotations

import os
import sys
import unittest

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))
import run  # noqa: E402

run.pin_environment()
run.import_checkout()

import tubeflux  # noqa: E402
import tracer  # noqa: E402
import workloads  # noqa: E402

# a small, quick slice of each workload's seed-1 pass
SLICES = {
    "slit_family": [{"q": 0.1}, {"q": 0.9}],
    "slit_witness": workloads.make_items(workloads.WORKLOADS["slit_witness"], 1)[:5],
    "expr_cli": workloads.make_items(workloads.WORKLOADS["expr_cli"], 1),
    "grid_modulus": [{"kind": "annulus", "ratio": 2.718281828459045, "h": 0.04}],
}


def counts(layers):
    return {k: v for k, v in layers.items() if not k.endswith(run.TIME_SUFFIXES)}


def traced_pass(wl, items, ctx):
    tr = tracer.Tracer()
    with tr:
        _, samples = run.run_pass(wl, items, ctx)
    return samples, tracer.layer_totals(tr.spans, len(items))


class TracerSelfCheck(unittest.TestCase):

    def test_traced_passes_match_untraced_and_repeat(self):
        workdir = os.path.join(run.WORK, "check")
        os.makedirs(workdir, exist_ok=True)
        for name, items in SLICES.items():
            with self.subTest(workload=name):
                wl = workloads.WORKLOADS[name]
                ctx = wl.prepare(items, workdir)
                _, plain = run.run_pass(wl, items, ctx)
                first, layers1 = traced_pass(wl, items, ctx)
                second, layers2 = traced_pass(wl, items, ctx)
                for a, b, c in zip(plain, first, second):
                    self.assertEqual(a[2:], b[2:])
                    self.assertEqual(a[2:], c[2:])
                self.assertEqual(counts(layers1), counts(layers2))
                self.assertGreater(sum(counts(layers1).values()), 0)

    def test_tracer_restores_every_binding(self):
        before = {m: dict(vars(sys.modules[m])) for m in tracer._MODULES}
        cg = sys.modules["tubeflux.modulus"].spla.cg
        init = tubeflux.MinimalTube.__init__
        with tracer.Tracer():
            self.assertIsNot(tubeflux.MinimalTube.__init__, init)
        self.assertIs(tubeflux.MinimalTube.__init__, init)
        self.assertIs(sys.modules["tubeflux.modulus"].spla.cg, cg)
        for m, table in before.items():
            for key, value in table.items():
                self.assertIs(getattr(sys.modules[m], key), value, (m, key))

    def test_slit_tube_and_report_comb_calls(self):
        cand = tubeflux.calibrate_candidate(0.1)
        data = tubeflux.tube_from_gauss(cand.g, 1.0)
        tr = tracer.Tracer()
        with tr:
            tubeflux.lifetime_report(tubeflux.MinimalTube(data))
        self.assertEqual(tracer.layer_totals(tr.spans, 1)["elliptic.theta.calls"], 3992)

    def test_d1_fine_grid_dof(self):
        tr = tracer.Tracer()
        with tr:
            tubeflux.grid_module_estimate(tubeflux.RingDomain.comparison(1.0), 0.1)
        layers = tracer.layer_totals(tr.spans, 1)
        self.assertEqual(layers["modulus.grid.dof"], 230447)
        self.assertEqual(layers["modulus.cg.calls"], 3)
        self.assertGreater(layers["modulus.cg.iters"], 0)


if __name__ == "__main__":
    unittest.main()
