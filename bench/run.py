"""tubeflux benchmark: one workload per process, one caller, closed loop.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

The workload's seed gives a *pass*, a fixed list of items (see
workloads.py); the run repeats whole passes, the next item starting when the
previous one has finished, until ``--seconds`` have elapsed.  The last line
of standard output is one JSON object with ``correct``, ``attempted``,
``failed`` and ``metrics``; the line before it holds the details (input
digest, failures by reason, fail_frac, the tail rule, wall-clock figures,
versions).

With ``--trace 0`` the metrics are end to end, measured untraced, in
reference seconds (see speed.py): each span's wall time corrected for the
machine's speed while it ran.  The details line gives the same figures in
wall-clock seconds; a change claims a gain only when it shows in both.
With ``--trace 1`` each item runs twice in a row, once untraced and once
traced; the metrics are per layer and per item, in wall-clock seconds,
taken from the traced runs (see tracer.py), and ``trace.overhead_frac``
compares the two runs of each pass.

An item that raises counts as failed with its reason and never stops the
run.  ``correct`` is false only when an item returned a wrong result, or when
a traced pass disagrees with an untraced one.

The checkout itself is measured: ``src`` goes first on the path, and the
run refuses to start if ``tubeflux`` would come from anywhere else.  BLAS
and OpenMP pools are pinned to one thread.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time

BENCH = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH)
SRC = os.path.join(ROOT, "src")
WORK = os.path.join(ROOT, ".bench_work")
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")
DEFAULT_SEED = 1
SETUP_REPEATS = 3
CHILD_TIMEOUT_S = 60
TIME_SUFFIXES = ("_s", ".s")  # per-layer keys that hold seconds

# cold import in a fresh interpreter; speed.py needs no numpy, so sampling
# starts before the import does
IMPORT_PROBE = """\
import sys, time
sys.path.insert(0, sys.argv[1])
import speed
with speed.SpeedSampler() as sampler:
    t0 = time.perf_counter()
    import tubeflux.cli
    t1 = time.perf_counter()
print(repr(sampler.seconds(t0, t1)), repr(t1 - t0))
"""


def pin_environment():
    """Single-threaded BLAS, and ``src`` of this checkout first on the path.

    Must run before numpy is imported; child interpreters inherit it.
    """
    for var in THREAD_VARS:
        os.environ[var] = "1"
    os.environ["PYTHONPATH"] = SRC
    if sys.path[:1] != [SRC]:
        sys.path.insert(0, SRC)


def import_checkout():
    """Import tubeflux from this checkout; raises ImportError otherwise."""
    import tubeflux
    if os.path.dirname(os.path.abspath(tubeflux.__file__)) != os.path.join(SRC, "tubeflux"):
        raise ImportError(f"tubeflux comes from {tubeflux.__file__}, not {SRC}")
    return tubeflux


# --- items and passes ----------------------------------------------------------

def run_item(wl, item, ctx):
    """(start, end, result, error, wrong) for one item; never raises."""
    t0 = time.perf_counter()
    try:
        result = wl.run(item, ctx)
    except Exception as exc:  # a failing item is recorded, not raised
        return t0, time.perf_counter(), None, f"{type(exc).__name__}: {exc}", None
    t1 = time.perf_counter()
    try:
        wrong = wl.check(item, result)
    except Exception as exc:  # an unreadable result is a wrong one
        wrong = f"unreadable result: {type(exc).__name__}: {exc}"
    return t0, t1, result, None, wrong


def run_pass(wl, items, ctx):
    t0 = time.perf_counter()
    samples = [run_item(wl, item, ctx) for item in items]
    return time.perf_counter() - t0, samples


def completed(sample):
    return sample[3] is None and sample[4] is None


def label(item):
    return {k: v for k, v in item.items() if k != "path"}


def failures(items, passes):
    """Failed items grouped by reason: exception type, or 'wrong result'."""
    table = {}
    for _, samples in passes:
        for item, (_, _, _, error, wrong) in zip(items, samples):
            if error is None and wrong is None:
                continue
            key = error.split(":", 1)[0] if error else "wrong result"
            entry = table.setdefault(key, {"count": 0, "example": error or wrong,
                                           "inputs": []})
            entry["count"] += 1
            if label(item) not in entry["inputs"]:
                entry["inputs"].append(label(item))
    return table


def tail(times):
    """(seconds, rule): the highest percentile of ``times`` with at least ten
    samples beyond it.  With fewer than 21 samples that percentile would not
    lie above the median, so the slowest sample stands in."""
    xs = sorted(times)
    n = len(xs)
    if n >= 21:
        return xs[n - 11], f"p{100.0 * (n - 10) / n:.1f} of {n}"
    return xs[-1], f"slowest of {n} samples"


def latency_metrics(passes, span_s, seconds_of):
    """items_per_s, item_p50_s and item_tail_s: completed items over the
    span of all passes, and the median and tail of the completed items'
    times, each item timed by ``seconds_of(start, end)``."""
    ok = [seconds_of(s[0], s[1]) for _, samples in passes for s in samples if completed(s)]
    if not ok:
        nan = float("nan")
        return {"items_per_s": 0.0, "item_p50_s": nan, "item_tail_s": nan}, "none completed"
    tail_s, rule = tail(ok)
    return {"items_per_s": len(ok) / span_s,
            "item_p50_s": statistics.median(ok),
            "item_tail_s": tail_s}, rule


# --- modes -------------------------------------------------------------------------

def import_seconds():
    """(reference, wall) seconds of a cold ``import tubeflux.cli``."""
    proc = subprocess.run([sys.executable, "-c", IMPORT_PROBE, BENCH], cwd=ROOT,
                          capture_output=True, text=True, timeout=CHILD_TIMEOUT_S,
                          check=True)
    ref, wall = proc.stdout.split()
    return float(ref), float(wall)


def timed_run(wl, items, workdir, seconds, speed):
    """Set-up, then whole passes until ``seconds`` have elapsed."""
    setups = []
    for _ in range(SETUP_REPEATS):
        imp_ref, imp_wall = import_seconds()  # no sampling here during the child
        with speed.SpeedSampler() as sampler:
            t0 = time.perf_counter()
            ctx = wl.prepare(items, workdir)
            t1 = time.perf_counter()
        setups.append((imp_ref + sampler.seconds(t0, t1), imp_wall + t1 - t0))

    passes = []
    with speed.SpeedSampler() as sampler:
        t0 = time.perf_counter()
        stop = t0 + seconds
        while not passes or time.perf_counter() < stop:
            passes.append(run_pass(wl, items, ctx))
        t1 = time.perf_counter()

    metrics, rule = latency_metrics(passes, sampler.seconds(t0, t1), sampler.seconds)
    metrics["setup_s"] = statistics.median(ref for ref, _ in setups)
    metrics["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    wall, _ = latency_metrics(passes, t1 - t0, lambda a, b: b - a)
    wall["setup_s"] = statistics.median(w for _, w in setups)
    extra = {
        "tail_rule": rule,
        "wall_clock_metrics": wall,
        "speed": {"samples": len(sampler.durations), "overhead": sampler.overhead(),
                  "kernel_median_s": statistics.median(sampler.durations)},
        "pass_wall_s": [round(s, 4) for s, _ in passes],
    }
    units = {"items_per_s": "1/s", "peak_rss_mb": "MB"}
    return passes, {k: (v, units.get(k, "s")) for k, v in metrics.items()}, extra


def traced_run(wl, items, workdir, seconds, tracer_mod):
    """Per-layer metrics per item, from passes that run each item twice in a
    row, untraced and traced, in alternating order so that neither run always
    finds the other's warm caches.  The overhead is taken per pass, from the
    summed item times of each kind, so both sides see the same machine."""
    ctx = wl.prepare(items, workdir)
    plain, traced, layers, overheads, mismatches = [], [], [], [], 0
    stop = time.perf_counter() + seconds
    while not traced or time.perf_counter() < stop:
        tr = tracer_mod.Tracer()
        ps, ts = [], []
        for j, item in enumerate(items):
            if j % 2:
                ps.append(run_item(wl, item, ctx))
            with tr:
                ts.append(run_item(wl, item, ctx))
            if not j % 2:
                ps.append(run_item(wl, item, ctx))
        plain_s = sum(s[1] - s[0] for s in ps)
        traced_s = sum(s[1] - s[0] for s in ts)
        plain.append((plain_s, ps))
        traced.append((traced_s, ts))
        overheads.append((traced_s - plain_s) / plain_s)
        layers.append(tracer_mod.layer_totals(tr.spans, len(items)))
        mismatches += sum(a[2:] != b[2:] for a, b in zip(ps, ts))
    counts = [{k: v for k, v in lay.items() if not k.endswith(TIME_SUFFIXES)}
              for lay in layers]
    repeat = all(c == counts[0] for c in counts)
    metrics = {}
    for key in layers[0]:
        unit = "s/item" if key.endswith(TIME_SUFFIXES) else "frac" if key.endswith("frac") \
            else "count/item"
        metrics[key] = (statistics.median(lay[key] for lay in layers), unit)
    metrics["trace.overhead_frac"] = (statistics.median(overheads), "frac")
    extra = {"passes_each_kind": len(traced), "overhead_by_pass": overheads,
             "traced_vs_untraced_mismatches": mismatches, "counts_repeat": repeat,
             "spans_file": write_spans(tr.spans, f"{wl.name}-last-traced-pass")}
    return plain + traced, metrics, extra, mismatches == 0 and repeat


def write_spans(spans, stem):
    """Spans one JSON object a line, under the work directory; returns the path."""
    path = os.path.join(WORK, f"{stem}.spans.jsonl")
    with open(path, "w") as fh:
        for span in spans:
            fh.write(json.dumps(span._asdict()) + "\n")
    return os.path.relpath(path, ROOT)


# --- main ----------------------------------------------------------------------------

def parse_args(argv, names):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=names)
    p.add_argument("--seed", type=int, default=DEFAULT_SEED)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args(argv)
    if not args.seconds > 0:
        p.error("--seconds must be positive")
    return args


def main(argv=None):
    pin_environment()
    try:
        import_checkout()
    except ImportError as exc:
        print(f"bench: cannot import the checkout's tubeflux: {exc}", file=sys.stderr)
        return 1
    import numpy
    import scipy
    import speed
    import tracer
    import workloads

    args = parse_args(argv, sorted(workloads.WORKLOADS))
    wl = workloads.WORKLOADS[args.workload]
    items = workloads.make_items(wl, args.seed)
    digest = hashlib.sha256(json.dumps(items, sort_keys=True).encode()).hexdigest()

    os.makedirs(WORK, exist_ok=True)
    workdir = tempfile.mkdtemp(prefix=f"{args.workload}-", dir=WORK)
    try:
        if args.trace:
            passes, metrics, extra, consistent = traced_run(
                wl, items, workdir, args.seconds, tracer)
        else:
            passes, metrics, extra = timed_run(wl, items, workdir, args.seconds, speed)
            consistent = True
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    samples = [s for _, pass_samples in passes for s in pass_samples]
    attempted = len(samples)
    failed = sum(not completed(s) for s in samples)
    wrong = sum(s[4] is not None for s in samples)
    details = {
        "workload": args.workload, "seed": args.seed, "trace": args.trace,
        "inputs_sha256": digest, "items_per_pass": len(items), "passes": len(passes),
        "fail_frac": failed / attempted, "failures": failures(items, passes),
        "env": {"nproc": len(os.sched_getaffinity(0)), "python": platform.python_version(),
                "numpy": numpy.__version__, "scipy": scipy.__version__,
                **{v: os.environ[v] for v in THREAD_VARS}},
        **extra,
    }
    if args.workload == "grid_modulus":
        details["module_rel_err"] = max(
            wl.rel_err(item, s[2]) for s, item in zip(samples, items * len(passes))
            if s[3] is None)
    print(json.dumps(details))
    print(json.dumps({
        "correct": wrong == 0 and consistent,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
