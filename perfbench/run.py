#!/usr/bin/env python3
"""The qspecial benchmark.

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>
    python3 perfbench/run.py --selftest

Run from the root of a source checkout: the program is imported from
./src and nowhere else.  The last line of standard output is one JSON
object with `correct`, `attempted`, `failed` and `metrics`.  With
--trace 0 the metrics are the end-to-end ones; with --trace 1 they are
the per-layer counts and self times of a traced run.  See README.md.
"""

import os

# one thread for BLAS and OpenMP, fixed before numpy is first imported
for _var in (
    "OMP_NUM_THREADS",
    "OPENBLAS_NUM_THREADS",
    "MKL_NUM_THREADS",
    "NUMEXPR_NUM_THREADS",
    "VECLIB_MAXIMUM_THREADS",
):
    os.environ[_var] = "1"

import argparse
import array
import gc
import importlib
import json
import math
import platform
import resource
import statistics
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
RUNS_DIR = os.path.join(HERE, "runs")

SETUP_REPEATS = 15
MIN_OPS = 100
# the timings are reported at the host speed where host_probe() takes
# PROBE_REF_MS: a shared host's speed swings by up to 2x over seconds and
# drifts by 10-40% over minutes, which no statistic of the timings alone
# removes.  Each timing is scaled by a probe taken at most PROBE_EVERY_S
# before it, so that the probe sees the same state of the host.
PROBE_REF_MS = 1.0
PROBE_REPEATS = 3
PROBE_EVERY_S = 0.05
NAMED_FAULTS = ("F1", "F2", "F3", "F4", "F5", "F6", "F7")


def fail(message):
    print(f"perfbench: {message}", file=sys.stderr)
    sys.exit(2)


def purge():
    """Drop every qspecial module and collect it, so that no state of the
    program (caches, tables, counters) outlives a round."""
    for name in [m for m in sys.modules if m == "qspecial" or m.startswith("qspecial.")]:
        del sys.modules[name]
    gc.collect()


def load(wl):
    qs = importlib.import_module("qspecial")
    for name in wl.MODULES:
        importlib.import_module(name)
    return qs


def fresh_import(wl):
    """The package imported afresh; called before every round, outside its timing."""
    purge()
    return load(wl)


def setup(wl, seed):
    """Import qspecial afresh and make the run's operations;
    returns (seconds, qs, ops)."""
    purge()
    t0 = time.perf_counter()
    qs = load(wl)
    ops = wl.make_ops(qs, seed)
    return time.perf_counter() - t0, qs, ops


class Tally:
    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.by_fault = {}
        self.unexpected = []

    def record(self, op, ok, out):
        self.attempted += 1
        if ok:
            return
        self.failed += 1
        fault = op[2]
        self.by_fault[fault or "unexpected"] = self.by_fault.get(fault or "unexpected", 0) + 1
        if fault not in NAMED_FAULTS and len(self.unexpected) < 20:
            self.unexpected.append({"op": repr(op)[:300], "out": repr(out)[:300]})


def run_round(wl, qs, ops, checker, tally, tamper=None):
    """Time one round; check its outputs afterwards.

    Returns (round_s, op_times, probes): round_s is the sum of the operation
    times, and probes[i] is the host probe last taken before operation i.
    Probes are taken between operations, outside their timing.
    """
    outs, times, probes = [], [], []
    clock = time.perf_counter
    probed = -math.inf
    for op in ops:
        if clock() - probed >= PROBE_EVERY_S:
            probe_ms, probed = host_probe(), clock()
        t0 = clock()
        try:
            out = wl.call(qs, op)
        except Exception as exc:  # a failed operation is counted, not fatal
            out = exc
        times.append(clock() - t0)
        probes.append(probe_ms)
        outs.append(out)
    for index, (op, out) in enumerate(zip(ops, outs)):
        if tamper is not None:
            out = tamper(index, op, out)
        ok = not isinstance(out, Exception) and checker.check(index, op, out)
        tally.record(op, ok, out)
    return math.fsum(times), times, probes


def host_probe():
    """Best of PROBE_REPEATS timings, in ms, of a fixed pure-Python loop.  It
    is the same code on every commit, so it shows how fast the host is at
    the moment it is taken."""
    times = []
    for _ in range(PROBE_REPEATS):
        t0 = time.perf_counter()
        total = 0
        for i in range(20000):
            total += i * i
        times.append((time.perf_counter() - t0) * 1e3)
    return min(times)


def measure(wl, ops, seconds, checker, tally, on_import=None):
    """Whole rounds, each on a fresh import, until `seconds` have passed and
    MIN_OPS operations were attempted.  `on_import`, if given, is applied to
    each fresh import (the self-test uses it).

    Returns each operation's best unscaled time, its times over the rounds
    at reference host speed (packed, so that they add little to the peak
    memory), the round times and the best host probe.
    """
    best, scaled = [math.inf] * len(ops), [array.array("d") for _ in ops]
    round_times, probe_ms = [], math.inf
    deadline = time.perf_counter() + seconds
    while time.perf_counter() < deadline or tally.attempted < MIN_OPS:
        qs = fresh_import(wl)
        if on_import is not None:
            qs = on_import(qs)
        elapsed, times, probes = run_round(wl, qs, ops, checker, tally)
        round_times.append(elapsed)
        for i, (t, p) in enumerate(zip(times, probes)):
            best[i] = min(best[i], t)
            scaled[i].append(t * PROBE_REF_MS / p)
        probe_ms = min(probe_ms, *probes)
    return best, scaled, round_times, probe_ms


def faster_half(times):
    """Mean of the faster half of one operation's times over the rounds.
    Contention only slows an operation, and the half spares the mean the
    probe's own jitter that a best time would pick."""
    ordered = sorted(times)
    k = max(1, len(ordered) // 2)
    return math.fsum(ordered[:k]) / k


def quantile(values, p):
    """Nearest-rank quantile."""
    ordered = sorted(values)
    return ordered[max(1, math.ceil(p * len(ordered))) - 1]


TRACE_ROUNDS = {"catalog_sweep": 3, "gram_reports": 1, "point_eval": 20}


def traced(wl, name, ops, checker, tally):
    """A fixed number of rounds untraced and as many traced, alternating and
    each on a fresh import: counts repeat exactly for a given seed, and a
    drift of the host's speed falls on both kinds of round alike."""
    import tracing

    untraced = with_trace = 0.0
    tracer = tracing.Tracer()
    for _ in range(TRACE_ROUNDS[name]):
        untraced += run_round(wl, fresh_import(wl), ops, checker, tally)[0]
        qs = fresh_import(wl)
        tracer.install()
        try:
            with_trace += run_round(wl, qs, ops, checker, tally)[0]
        finally:
            tracer.uninstall()
    units = dict(tracing.metric_names())
    values = tracer.metrics(with_trace - untraced)
    return {k: {"value": values[k], "unit": units[k]} for k, _ in tracing.metric_names()}


def environment(qs):
    import mpmath
    import numpy

    return {
        "backend": qs.kernels.BACKEND,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "mpmath": mpmath.__version__,
        "cores": os.cpu_count(),
        "machine": platform.machine(),
    }


def load_workloads():
    sys.path.insert(0, SRC)
    if not os.path.isfile(os.path.join(SRC, "qspecial", "__init__.py")):
        fail(f"no qspecial sources under {SRC}; run from the root of a checkout")
    import catalog_sweep
    import gram_reports
    import point_eval

    return {"catalog_sweep": catalog_sweep, "gram_reports": gram_reports, "point_eval": point_eval}


def prepare(wl, seed):
    """SETUP_REPEATS fresh imports plus input generation, each after a host
    probe; the last one is kept.  Returns the median set-up time, unscaled
    and at reference host speed, qs and ops."""
    import mpmath  # noqa: F401  the oracle's import is not set-up time
    import numpy  # noqa: F401  nor is numpy's

    setups, scaled = [], []
    for _ in range(SETUP_REPEATS):
        probe_ms = host_probe()
        seconds, qs, ops = setup(wl, seed)
        setups.append(seconds)
        scaled.append(seconds * PROBE_REF_MS / probe_ms)
    if not os.path.abspath(qs.__file__).startswith(SRC + os.sep):
        fail(f"qspecial imported from {qs.__file__}, not from {SRC}")
    return statistics.median(setups), statistics.median(scaled), qs, ops


def run(args):
    workloads = load_workloads()
    if args.workload not in workloads:
        fail(f"unknown workload {args.workload!r}; choose from {sorted(workloads)}")
    wl = workloads[args.workload]
    setup_s, setup_scaled, qs, ops = prepare(wl, args.seed)
    checker, tally = wl.Checker(), Tally()
    if args.trace:
        metrics = traced(wl, args.workload, ops, checker, tally)
        rounds = None
    else:
        best, scaled_times, rounds, probe_ms = measure(wl, ops, args.seconds, checker, tally)
        per_op_scaled = [faster_half(t) for t in scaled_times]
        peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        raw = {"setup_s": setup_s, "wall_s": math.fsum(best),
               "op_p50_ms": quantile(best, 0.5) * 1e3, "op_p90_ms": quantile(best, 0.9) * 1e3}
        metrics = {
            "setup_s": {"value": setup_scaled, "unit": "s"},
            "wall_s": {"value": math.fsum(per_op_scaled), "unit": "s"},
            "op_p50_ms": {"value": quantile(per_op_scaled, 0.5) * 1e3, "unit": "ms"},
            "op_p90_ms": {"value": quantile(per_op_scaled, 0.9) * 1e3, "unit": "ms"},
            "peak_rss_mb": {"value": peak_rss_mb, "unit": "MB"},
        }
    info = environment(qs)
    info.update(workload=args.workload, seed=args.seed, seconds=args.seconds,
                trace=args.trace)
    if rounds:
        info.update(host_probe_ms=probe_ms, unscaled=raw)
    result = {
        "correct": "unexpected" not in tally.by_fault,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": metrics,
    }
    artifact = dict(info=info, result=result, failed_by_fault=tally.by_fault,
                    unexpected=tally.unexpected, round_s=rounds)
    os.makedirs(RUNS_DIR, exist_ok=True)
    path = os.path.join(RUNS_DIR, f"{args.workload}-seed{args.seed}-trace{args.trace}.json")
    with open(path, "w") as handle:
        json.dump(artifact, handle, indent=1)
    print(json.dumps({"info": info, "failed_by_fault": tally.by_fault}))
    print(json.dumps(result))
    return 0


def memo_hits(wl, ops, fresh):
    """Rounds of `ops` with a memo around the package's qpoch whose store lives
    in the qcore module, as a program-level cache would.  With `fresh` the
    rounds go through measure(), which imports afresh before each round;
    without it, two rounds share one import.  Returns the memo's hits."""
    hits = 0

    def memoise(qs):
        store, inner = vars(qs.qcore).setdefault("_memo", {}), qs.qpoch

        def qpoch(a, q, k):
            nonlocal hits
            if (a, q, k) in store:
                hits += 1
            else:
                store[(a, q, k)] = inner(a, q, k)
            return store[(a, q, k)]

        qs.qpoch = qpoch
        return qs

    if fresh:
        rounds = measure(wl, ops, 1.0, wl.Checker(), Tally(), on_import=memoise)[2]
        return hits, len(rounds)
    qs = memoise(fresh_import(wl))
    for _ in range(2):
        run_round(wl, qs, ops, wl.Checker(), Tally())
    return hits, 2


def selftest():
    """Small runs of every workload.  Each clean round fails exactly on its
    named-fault operations.  A point_eval value moved by 1e-6 relative and a
    Gram report with a diagonal entry moved by 1e-6 must each add exactly one
    unexpected failure.  A memo kept in the program must never hit across the
    rounds of a run."""
    workloads = load_workloads()
    closed_form = ("big_qjacobi", "little_q_jacobi", "wall", "aw")

    def spoil_value(index, op, out):
        return out * (1 + 1e-6) if index == 0 else out

    def spoil_diagonal(index, op, out):
        if index != 0:
            return out
        code, text = out
        rows, end = json.JSONDecoder().raw_decode(text)
        row = next(r for r in rows if r["n"] == r["m"] == 1)
        g = row["gram"]
        row["gram"] = [v * (1 + 1e-6) for v in g] if isinstance(g, list) else g * (1 + 1e-6)
        return code, json.dumps(rows) + text[end:]

    cases = (
        ("point_eval", spoil_value,
         lambda ops: [op for op in ops if op[0] == "qpoch_infinite" and op[2] is None][:40]
         + [op for op in ops if op[0] != "qpoch_infinite" and op[2] is None][:110]
         + [op for op in ops if op[2] is not None]),
        ("gram_reports", spoil_diagonal,
         lambda ops: [op for op in ops if op[1][0] in closed_form and op[1][2] < 4][:12]),
        ("catalog_sweep", None,
         lambda ops: [op for op in ops if op[0] == "limit" or op[1][1] == 16]),
    )
    ok = True
    for name, spoil, shrink in cases:
        wl = workloads[name]
        _, qs, ops = setup(wl, 1)
        ops = shrink(ops)
        faults = {}
        for op in ops:
            if op[2] is not None:
                faults[op[2]] = faults.get(op[2], 0) + 1
        t0 = time.perf_counter()
        clean, spoiled = Tally(), Tally()
        run_round(wl, qs, ops, wl.Checker(), clean)
        verdict = clean.by_fault == faults
        if spoil is not None:
            run_round(wl, qs, ops, wl.Checker(), spoiled, tamper=spoil)
            verdict = verdict and spoiled.failed == clean.failed + 1 and len(spoiled.unexpected) == 1
        ok = ok and verdict
        print(f"{name}: {len(ops)} ops, failed {clean.failed} clean {clean.by_fault}"
              + (f", {spoiled.failed} spoiled" if spoil else "")
              + f", {time.perf_counter() - t0:.1f} s: {'PASS' if verdict else 'FAIL'}")
    wl = workloads["point_eval"]
    ops = [op for op in setup(wl, 1)[2] if op[0].startswith("qpoch") and op[2] is None]
    fresh_hits, rounds = memo_hits(wl, ops, fresh=True)
    shared_hits, _ = memo_hits(wl, ops, fresh=False)
    verdict = rounds > 1 and fresh_hits == 0 and shared_hits == len(ops)
    ok = ok and verdict
    print(f"point_eval memo: {len(ops)} qpoch ops, {fresh_hits} hits over {rounds} measured"
          f" rounds, {shared_hits} hits over 2 rounds on one import: {'PASS' if verdict else 'FAIL'}")
    return 0 if ok else 1


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--selftest", action="store_true")
    args = parser.parse_args()
    if args.selftest:
        return selftest()
    if not args.workload:
        parser.error("--workload is required")
    return run(args)


if __name__ == "__main__":
    sys.exit(main())
