"""Run one normplane workload and print its metrics as JSON.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout; the package is imported from its src/.
One process, one caller, a closed loop: each operation starts when the
previous one has returned.  The operation list (one round) is built from
the seed; whole rounds repeat until S seconds have passed and at least
MIN_OPS operations have run.  Every output is checked afterwards against
reference.py; an output equal to one already checked shares its verdict.

--trace 0 prints the end-to-end metrics.  --trace 1 runs each operation
twice, untraced and then traced, prints the per-layer metrics and the
tracing overhead (traced over untraced time), and writes the spans under
perfbench/out/.
"""

from __future__ import annotations

import os

# one caller and no extra threads, BLAS included; set before numpy loads
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse
import gc
import importlib
import json
import resource
import shutil
import statistics
import sys
import time
from collections import namedtuple
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import scipy.optimize  # noqa: F401  imported before set-up is timed

HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"
OUT = HERE / "out"
SETUP_REPEATS = 9
MIN_OPS = 100  # untraced runs: at least ten operations lie beyond p90

sys.path.insert(0, str(HERE))
import workloads  # noqa: E402
from tracer import Tracer  # noqa: E402

Record = namedtuple("Record", "op latency output error traced")


def fresh_import():
    """Import normplane anew from this checkout's src/ and return its modules."""
    for key in [k for k in sys.modules if k == "normplane" or k.startswith("normplane.")]:
        del sys.modules[key]
    pkg = importlib.import_module("normplane")
    if Path(pkg.__file__).resolve().parent != SRC / "normplane":
        raise RuntimeError("imported normplane from %s, not from %s" % (pkg.__file__, SRC))
    names = ("norms", "curves", "birkhoff", "diffdetect", "isometry", "corpus", "cli")
    return SimpleNamespace(**{n: importlib.import_module("normplane." + n) for n in names})


def set_up(workload, seed, workdir):
    """SETUP_REPEATS fresh set-ups; returns the last one and each one's seconds."""
    times = []
    for k in range(SETUP_REPEATS):
        rundir = workdir / ("setup%d" % k)
        rundir.mkdir()
        # the collector's passes depend on what earlier set-ups left alive
        gc.collect()
        gc.disable()
        t0 = time.perf_counter()
        mods = fresh_import()
        state = workloads.WORKLOADS[workload](mods, np.random.default_rng(seed), str(rundir))
        times.append(time.perf_counter() - t0)
        gc.enable()
    return mods, state, times


def _timed(i, op, fn, traced):
    t0 = time.perf_counter()
    try:
        raw = fn()
    except Exception as exc:  # a failed operation is counted, not fatal
        return Record(i, time.perf_counter() - t0, None, "%s: %s" % (type(exc).__name__, exc), traced)
    dt = time.perf_counter() - t0
    return Record(i, dt, op.output(raw), None, traced)


def measure(state, seconds, tracer=None):
    """Whole rounds of the operation list until the time and count are met.

    Returns the records and the wall time of the loop.  With a tracer,
    each operation runs untraced and then traced.
    """
    records = []
    gc.collect()
    t_start = time.perf_counter()
    while True:
        for i, op in enumerate(state.ops):
            records.append(_timed(i, op, op.run, False))
            if tracer is not None:
                # the span's operation id is the record's index
                records.append(_timed(i, op, lambda: tracer.run_op(len(records), op.run), True))
        elapsed = time.perf_counter() - t_start
        if elapsed >= seconds and (tracer is not None or len(records) >= MIN_OPS):
            return records, elapsed


def failures(state, records):
    """Messages per failed record index: an error, or problems in its output.

    Returns (failed, wrong): every failed record, and those among them
    whose output was checked and found wrong.
    """
    verdicts = {}
    failed = {}
    for n, rec in enumerate(records):
        if rec.error is not None:
            failed[n] = [rec.error]
            continue
        key = (rec.op, rec.output)
        if key not in verdicts:
            verdicts[key] = state.ops[rec.op].check(rec.output)
        if verdicts[key]:
            failed[n] = list(verdicts[key])
    if state.round_check is not None:
        size = len(state.ops)
        for traced in (False, True):
            idx = [n for n, r in enumerate(records) if r.traced == traced]
            for k in range(0, len(idx), size):
                rnd = idx[k:k + size]
                outs = [records[n].output for n in rnd]
                for i, problems in state.round_check(outs).items():
                    failed.setdefault(rnd[i], []).extend(problems)
    wrong = {n for n in failed if records[n].error is None}
    return failed, wrong


def end_to_end(records, wall, setup_times):
    lat = np.array([r.latency for r in records])
    p50, p90 = np.percentile(lat, [50, 90])
    return {
        "ops_per_s": {"value": len(records) / wall, "unit": "1/s"},
        "latency_p50_ms": {"value": 1e3 * float(p50), "unit": "ms"},
        "latency_p90_ms": {"value": 1e3 * float(p90), "unit": "ms"},
        "setup_s": {"value": statistics.median(setup_times), "unit": "s"},
        "peak_rss_mb": {"value": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
                        "unit": "MB"},
    }


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if not (SRC / "normplane" / "__init__.py").is_file():
        print("error: no normplane package under %s" % SRC, file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    OUT.mkdir(exist_ok=True)
    workdir = OUT / ("work-%s-%d" % (args.workload, os.getpid()))
    workdir.mkdir()
    try:
        mods, state, setup_times = set_up(args.workload, args.seed, workdir)
        tracer = Tracer(mods, state.hooks) if args.trace else None
        records, wall = measure(state, args.seconds, tracer)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    failed, wrong = failures(state, records)
    for n in sorted(failed)[:20]:
        print("FAILED %s: %s" % (state.ops[records[n].op].label, "; ".join(failed[n])),
              file=sys.stderr)
    if tracer is None:
        metrics = end_to_end(records, wall, setup_times)
    else:
        plain = sum(r.latency for r in records if not r.traced)
        traced = sum(r.latency for r in records if r.traced)
        n_traced = sum(r.traced for r in records)
        metrics = tracer.per_layer(n_traced)
        overhead = traced / plain - 1.0
        path = OUT / ("trace-%s-seed%d.npz" % (args.workload, args.seed))
        tracer.save(path, {"workload": args.workload, "seed": args.seed, "traced_ops": n_traced,
                           "untraced_s": plain, "traced_s": traced, "overhead": overhead,
                           "labels": [op.label for op in state.ops],
                           "record_op": [r.op for r in records]})
        print("tracing overhead %.1f%% (%.3f s traced, %.3f s untraced, %d operations each); "
              "spans in %s" % (100.0 * overhead, traced, plain, n_traced, path.relative_to(HERE.parent)))
    print(json.dumps({"correct": not wrong, "attempted": len(records),
                      "failed": len(failed), "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
