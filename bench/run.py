"""Benchmark of dpl: one workload, one process, one thread.

    python3 bench/run.py --workload census|mutate|query --seed N \\
        --seconds S --trace 0|1

Run from the root of a checkout; the program is imported from ``src/``.
Whole passes over the workload's operations run while the run, set-ups
included, stays within ``--seconds``.  Before each pass the workload is set
up afresh: a new import of ``dpl``, the catalog load, the seeded inputs
and one warm-up call per kind of operation.  The outputs of the first pass
are checked, and every later pass must repeat them exactly.

Times are put at the reference speed with the yardstick of ``speed.py``,
because the machine's own speed drifts for longer than a run.  With
``--trace 0`` the last line of stdout is the JSON result with the
end-to-end metrics: ``setup_s`` (median set-up), ``run_s`` (median pass,
the sum of its operations), ``op_p50_ms`` (median over passes of the
median operation of a pass) and ``peak_rss_mb``.  With ``--trace 1``
untraced and traced passes alternate, and the result carries the
per-layer metrics of the traced passes (median over passes) and
``trace.overhead_s``, the median traced pass minus the median untraced
pass.  The spans themselves go to ``bench/results/``.
"""

import argparse
import gc
import importlib
import json
import os
import resource
import shutil
import statistics
import sys
import time
import types
from pathlib import Path

import checks
import spans
import speed
import workloads

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
RESULTS = BENCH / "results"
MODULES = ("words", "arrangement", "flags", "mutation", "chirotope",
           "catalog", "cli")


def fresh_import():
    """Import dpl from the checkout's ``src/``, dropping any earlier import."""
    for key in [k for k in sys.modules if k == "dpl" or k.startswith("dpl.")]:
        del sys.modules[key]
    importlib.invalidate_caches()
    dpl = importlib.import_module("dpl")
    if Path(dpl.__file__).resolve().parent != SRC / "dpl":
        raise SystemExit("dpl was imported from %s, not from %s"
                         % (dpl.__file__, SRC))
    return types.SimpleNamespace(**{m: importlib.import_module("dpl." + m)
                                    for m in MODULES})


def run_checks(p, failures):
    for fn, args in p.checks:
        try:
            fn(*args)
        except checks.CheckFailed as exc:
            failures.append(str(exc))
        except Exception as exc:  # a malformed output is a wrong output
            failures.append("%s while checking: %s" % (type(exc).__name__, exc))


def compare_outputs(first, digests, p, failures):
    """Later passes must repeat the first pass's outputs exactly."""
    for k, ((label, _), a, b) in enumerate(zip(p.outputs, first, digests)):
        if a != b:
            failures.append("operation %d (%s) gave another output than in "
                            "the first pass" % (k, label))


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    if not (SRC / "dpl" / "__init__.py").is_file():
        print("no dpl sources under %s" % SRC, file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    if args.workload not in workloads.WORKLOADS:
        print("unknown workload %r (have: %s)"
              % (args.workload, ", ".join(workloads.WORKLOADS)), file=sys.stderr)
        return 2
    make = workloads.WORKLOADS[args.workload]
    tag = "%s-seed%d" % (args.workload, args.seed)
    work = BENCH / "work" / ("%s-%d" % (tag, os.getpid()))
    try:
        return measure(args, make, work, tag)
    finally:
        shutil.rmtree(work, ignore_errors=True)


def set_up(make, seed, workdir):
    """A fresh import of dpl and a workload built and warmed up on it; the
    set-up time at the reference speed, and as measured."""
    def build():
        wl = make(fresh_import(), seed, workdir)
        wl.warm_up()
        return wl
    return speed.scaled_call(build)


def measure(args, make, work, tag):
    started = time.perf_counter()
    tracer = spans.Tracer() if args.trace else None
    setups = []             # (scaled, wall) seconds per set-up
    passes = {False: [], True: []}   # per pass: [(label, scaled seconds)]
    walls = {False: [], True: []}    # per pass: wall seconds, yardsticks too
    scales = []             # per untraced pass: its speed.Scale
    cycles = []             # seconds per set-up + pass + checks
    layer = []
    attempted = failed = 0
    failures = []
    errors = {}
    first = None
    k = 0
    # Whole passes only; stop before a set-up and pass of median length
    # would end after --seconds.  Every pass gets its own set-up, so set-up
    # times are sampled across the run like pass times.
    while (not passes[False] or (tracer and not passes[True])
           or time.perf_counter() - started + statistics.median(cycles)
           <= args.seconds):
        c0 = time.perf_counter()
        wl, setup, setup_wall = set_up(make, args.seed, work / ("pass%d" % k))
        setups.append((setup, setup_wall))
        gc.collect()
        traced = tracer is not None and k % 2 == 1
        p = workloads.Pass(tracer if traced else None)
        if traced:
            tracer.begin_pass()
        t0 = time.perf_counter()
        try:
            wl.run_pass(p)
        finally:
            ops = p.close()
            walls[traced].append(time.perf_counter() - t0)
            if traced:
                tracer.end_pass()
        passes[traced].append(ops)
        if traced:
            layer.append(spans.derive(tracer.names, tracer.records,
                                      *tracer.passes[-1]))
        else:
            scales.append(p.scale)
        attempted += p.attempted
        failed += p.failed
        for label, msg in p.errors.items():
            errors.setdefault(label, msg)
        digests = p.digests(wl.digest)
        if first is None:
            first = digests
            run_checks(p, failures)
        else:
            compare_outputs(first, digests, p, failures)
        cycles.append(time.perf_counter() - c0)
        k += 1

    # A pass's time is the sum of its operations' times at the reference
    # speed (speed.py); a run reports the median pass.
    pass_s = {traced: [sum(t for _, t in ops) for ops in passes[traced]]
              for traced in passes}
    run_s = statistics.median(pass_s[False])
    if tracer:
        metrics = {name: statistics.median(m[name] for m in layer)
                   for name in spans.LAYER_METRICS if name != "trace.overhead_s"}
        metrics["trace.overhead_s"] = statistics.median(pass_s[True]) - run_s
        units = spans.LAYER_METRICS
    else:
        metrics = {
            "setup_s": statistics.median(s for s, _ in setups),
            "run_s": run_s,
            "op_p50_ms": statistics.median(
                statistics.median(t for _, t in ops) for ops in passes[False])
            * 1e3,
            "peak_rss_mb":
                resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        }
        units = {"setup_s": "s", "run_s": "s", "op_p50_ms": "ms",
                 "peak_rss_mb": "MB"}

    for label, msg in sorted(errors.items()):
        print("failed operation %s: %s" % (label, msg), file=sys.stderr)
    for msg in failures[:20]:
        print("check failed: %s" % msg, file=sys.stderr)

    RESULTS.mkdir(exist_ok=True)
    stem = str(RESULTS / ("%s-trace%d" % (tag, args.trace)))
    if tracer:
        tracer.write(stem + "-spans")
    result = {
        "correct": not failures,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": units[name]}
                    for name, value in metrics.items()},
    }
    by_label = {}
    for label, t in (op for ops in passes[False] for op in ops):
        by_label.setdefault(label, []).append(t * 1e3)
    with open(stem + ".json", "w") as fh:
        json.dump({**result,
                   "setup_s": [s for s, _ in setups],
                   "setup_wall_s": [w for _, w in setups],
                   "pass_s": pass_s[False], "traced_pass_s": pass_s[True],
                   "pass_wall_s": walls[False], "traced_pass_wall_s": walls[True],
                   "yardstick_nominal_s": speed.NOMINAL_S,
                   "passes": [{"yardstick_s": sc.samples, "op_wall_s": sc.raw}
                              for sc in scales],
                   "op_median_ms": {label: statistics.median(v)
                                    for label, v in sorted(by_label.items())},
                   "op_total_s": {label: sum(v) / 1e3 / len(passes[False])
                                  for label, v in sorted(by_label.items())},
                   "failed_operations": errors, "check_failures": failures,
                   "elapsed_s": time.perf_counter() - started},
                  fh, indent=1)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
