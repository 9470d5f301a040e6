"""Run one benchmark workload and print its metrics.

    python3 perfbench/run.py --workload corpus_cy --seed 1 --seconds 10 --trace 0

Closed loop: one process, one thread, one caller that waits for each
verdict before asking for the next.  A run completes whole passes over
the workload's seeded operations and starts another pass only while it
is expected to end within --seconds (the first pass always runs), so
every run of a workload measures the same mix of operations.

--trace 0 reports the end-to-end metrics.  --trace 1 runs each operation
of the first pass twice, untraced and then with the per-layer wrappers
installed, and reports the per-layer metrics plus the tracing overhead.

The last line of standard output is one JSON object with the keys
correct, attempted, failed and metrics.  The line before it, starting
with `report `, is the full result with its context (scalar backend,
Python version, nproc, git commit, seed); sweep.py collects those.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import pathlib
import platform
import resource
import statistics
import subprocess
import sys
from fractions import Fraction
from time import perf_counter

from speed import SpeedProbe

HERE = pathlib.Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
SETUP_REPEATS = 5
WORKLOAD_NAMES = ["corpus_cy", "cuts_2_4", "frontier_2_5", "bimodule"]

END_TO_END_UNITS = {
    "setup_s": "s",
    "verdicts_per_s": "1/s",
    "verdict_p50_s": "s",
    "verdict_tail_s": "s",
    "peak_rss_mb": "MB",
}


def import_program():
    """Put the checkout's src/ first on sys.path; fail when it is absent."""
    if not (SRC / "quivercy" / "__init__.py").is_file():
        sys.exit(f"error: {SRC / 'quivercy'} not found; run from a full checkout")
    sys.path.insert(0, str(SRC))


def git_commit():
    """HEAD of the checkout's git repository, read without running git."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def context(args):
    from quivercy import linalg

    return {
        "workload": args.workload,
        "seed": args.seed,
        "trace": args.trace,
        "backend": "fraction" if linalg._mpq is Fraction else "gmpy2",
        "python": platform.python_version(),
        "nproc": len(os.sched_getaffinity(0)),
        "commit": git_commit(),
    }


def setup_once(workload, seed):
    """Import quivercy and make the workload's inputs; returns (scaled
    seconds, unscaled seconds, ops)."""
    with SpeedProbe() as probe:
        t0 = perf_counter()
        import workloads

        ops = workloads.make_inputs(workload, seed)
        t1 = perf_counter()
    return probe.normalize(t0, t1), t1 - t0, ops


def fresh_setup_s(args):
    """Median set-up time over SETUP_REPEATS fresh processes, scaled and
    unscaled."""
    cmd = [sys.executable, str(HERE / "run.py"), "--setup-only",
           "--workload", args.workload, "--seed", str(args.seed)]
    scaled, raw = [], []
    for _ in range(SETUP_REPEATS):
        out = subprocess.run(cmd, capture_output=True, text=True, timeout=120,
                             check=True, cwd=ROOT)
        setup_s, setup_raw_s = map(float, out.stdout.split()[-2:])
        scaled.append(setup_s)
        raw.append(setup_raw_s)
    return statistics.median(scaled), statistics.median(raw)


def verdict(op):
    """(start, end, correct, observed) for one operation.  A raise is an
    incorrect verdict; the run goes on."""
    t0 = perf_counter()
    try:
        got = op.run()
        ok = got == op.expect
    except Exception as exc:  # noqa: BLE001 - every failure is counted
        got, ok = f"{type(exc).__name__}: {exc}", False
    return t0, perf_counter(), ok, got


class Tally:
    def __init__(self):
        self.spans = []
        self.failures = []

    def add(self, op, t0, t1, ok, got):
        self.spans.append((t0, t1))
        if not ok:
            self.failures.append({"op": op.name, "got": repr(got),
                                  "expected": repr(op.expect)})

    def run(self, batch):
        for op in batch:
            self.add(op, *verdict(op))

    @property
    def attempted(self):
        return len(self.spans)


def passes(ops, pass_size):
    """Successive passes: the whole list each time, or consecutive slices
    of pass_size operations (wrapping around at the end)."""
    if not pass_size:
        while True:
            yield ops
    pos = 0
    while True:
        yield [ops[(pos + k) % len(ops)] for k in range(pass_size)]
        pos += pass_size


def tail(times, pass_size):
    """The tail of the verdict times, fixed per pass so that it stays the
    same when a faster program completes more passes, and never below the
    median.  With passes of at least 20 verdicts: the highest percentile
    that leaves ten verdicts of each pass beyond it, over all passes.
    With smaller passes: the nearest-rank p90 of each pass (the maximum of
    a pass under 10), median over passes.  Returns the value and a label
    that names it."""
    if pass_size < 20:
        rank = -(-9 * pass_size // 10)
        per_pass = [sorted(times[k:k + pass_size])[rank - 1]
                    for k in range(0, len(times), pass_size)]
        label = f"p90 of each pass (rank {rank}), median over passes"
        return statistics.median(per_pass), label
    s = sorted(times)
    passes_done = len(s) // pass_size
    return s[passes_done * (pass_size - 10) - 1], f"p{100 * (pass_size - 10) / pass_size:.1f}"


def run_end_to_end(args, ops, pass_size):
    tally = Tally()
    gc.collect()
    done = first_pass = 0
    with SpeedProbe() as probe:
        t0 = perf_counter()
        for batch in passes(ops, pass_size):
            tally.run(batch)
            done += 1
            first_pass = first_pass or len(batch)
            elapsed = perf_counter() - t0
            if elapsed + elapsed / done > args.seconds:
                break
    times = [probe.normalize(a, b) for a, b in tally.spans]
    raw = [b - a for a, b in tally.spans]
    tail_s, tail_label = tail(times, first_pass)
    setup_s, setup_raw_s = fresh_setup_s(args)
    metrics = {
        "setup_s": setup_s,
        "verdicts_per_s": tally.attempted / sum(times),
        "verdict_p50_s": statistics.median(times),
        "verdict_tail_s": tail_s,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
    }
    extra = {
        "passes": done,
        "verdicts": tally.attempted,
        "tail_percentile": f"{tail_label} ({first_pass} verdicts a pass)",
        "failed_frac": f"{len(tally.failures) / tally.attempted:.6g} ratio "
                       f"({len(tally.failures)} of {tally.attempted} verdicts)",
        "kernel_median_s": statistics.median(probe.took),
        "unscaled_setup_s": setup_raw_s,
        "unscaled_verdicts_per_s": tally.attempted / sum(raw),
        "unscaled_verdict_p50_s": statistics.median(raw),
    }
    return tally, metrics, END_TO_END_UNITS, extra


def run_traced(ops, pass_size):
    from tracer import Tracer, metric_units

    batch = next(passes(ops, pass_size))
    tally = Tally()
    tracer = Tracer()
    untraced = traced = 0.0
    gc.collect()
    # each operation runs untraced and then traced, so that both sides of
    # the overhead see the same machine conditions
    for op in batch:
        t0, t1, ok, got = verdict(op)
        tally.add(op, t0, t1, ok, got)
        untraced += t1 - t0
        tracer.install()
        try:
            t0, t1, ok, got = verdict(op)
        finally:
            tracer.uninstall()
        tally.add(op, t0, t1, ok, got)
        traced += t1 - t0
    extra = {
        "verdicts": tally.attempted,
        "untraced_verdicts_per_s": len(batch) / untraced,
        "traced_verdicts_per_s": len(batch) / traced,
        "trace_overhead": traced / untraced - 1,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
    }
    return tally, tracer.report(), metric_units(), extra


def main(argv=None):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, default=10)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--setup-only", action="store_true",
                   help="time import and input generation once and print it")
    args = p.parse_args(argv)
    import_program()
    setup_s, setup_raw_s, ops = setup_once(args.workload, args.seed)
    if args.setup_only:
        print(f"{setup_s:.9f} {setup_raw_s:.9f}")
        return 0
    from workloads import WORKLOADS

    pass_size = WORKLOADS[args.workload].pass_size
    if args.trace:
        tally, metrics, units, extra = run_traced(ops, pass_size)
    else:
        tally, metrics, units, extra = run_end_to_end(args, ops, pass_size)
    ctx = context(args)
    print("context " + " ".join(f"{k}={v}" for k, v in ctx.items()))
    for name, value in metrics.items():
        print(f"{name:48s} {value:.6g} {units[name]}")
    for name, value in extra.items():
        print(f"{name:48s} {value:.6g}" if isinstance(value, float)
              else f"{name:48s} {value}")
    for f in tally.failures:
        print(f"FAILED {f['op']}: got {f['got']}, expected {f['expected']}")
    print("report " + json.dumps({"context": ctx, "metrics": metrics, "units": units,
                                  **extra, "failures": tally.failures}))
    print(json.dumps({
        "correct": not tally.failures,
        "attempted": tally.attempted,
        "failed": len(tally.failures),
        "metrics": {k: {"value": v, "unit": units[k]} for k, v in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
