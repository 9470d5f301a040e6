"""Run workloads over several seeds and summarise each metric.

    python3 perfbench/sweep.py --workload cuts_2_4 --seeds 1-10 --out results.json
    python3 perfbench/sweep.py --workload all --seeds 1-10 --trace 1 --out traced.json

Each run is a fresh `run.py` process that measures for `run_seconds`
of BENCHMARK.json, so every sweep is comparable with the baseline.  For
every workload and metric the summary gives the median, the quartiles
(statistics.quantiles, n=4) and the spread, (Q3 - Q1) / median, next to
the metric's bound from BENCHMARK.json.  --out keeps every run's full
report, context included, for compare.py.
"""

from __future__ import annotations

import argparse
import json
import pathlib
import statistics
import subprocess
import sys

from run import HERE, ROOT, WORKLOAD_NAMES


def load_spec():
    return json.loads((ROOT / "BENCHMARK.json").read_text())


def end_to_end_spec():
    """{metric: its entry} of the end-to-end metrics in BENCHMARK.json."""
    return {m["name"]: m for m in load_spec()["end_to_end"]}


def run_once(workload, seed, seconds, trace):
    cmd = [sys.executable, str(HERE / "run.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)]
    out = subprocess.run(cmd, capture_output=True, text=True, timeout=900, cwd=ROOT)
    if out.returncode:
        raise RuntimeError(f"{' '.join(cmd)} exited {out.returncode}:\n{out.stderr}")
    lines = out.stdout.splitlines()
    report = json.loads(lines[-2][len("report "):])
    report.update({k: v for k, v in json.loads(lines[-1]).items() if k != "metrics"})
    return report


def spread(values):
    q1, _, q3 = statistics.quantiles(values, n=4)
    med = statistics.median(values)
    return med, q1, q3, (q3 - q1) / med if med else float("inf")


def summarize(runs, out=sys.stdout):
    """Print median, quartiles and spread per workload and metric."""
    spec = end_to_end_spec()
    by_workload = {}
    for r in runs:
        by_workload.setdefault(r["context"]["workload"], []).append(r)
    for workload, rs in by_workload.items():
        failed = sum(r["failed"] for r in rs)
        attempted = sum(r["attempted"] for r in rs)
        print(f"{workload}: {len(rs)} runs, {failed} of {attempted} verdicts failed",
              file=out)
        for name in rs[0]["metrics"]:
            values = [r["metrics"][name] for r in rs]
            if len(values) < 2:
                print(f"  {name:44s} {values[0]:.6g}", file=out)
                continue
            med, q1, q3, s = spread(values)
            note = ""
            if name in spec:
                b = spec[name]["bound"]
                note = f" bound {b}: " + ("ok" if s <= b / 3 else
                                          "above bound/3" if s <= b else "ABOVE BOUND")
            print(f"  {name:44s} median {med:.6g}  Q1 {q1:.6g}  Q3 {q3:.6g}"
                  f"  spread {s:.3f}{note}", file=out)


def parse_seeds(text):
    lo, _, hi = text.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def main(argv=None):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True, help="a workload name or 'all'")
    p.add_argument("--seeds", default="1-10", help="a seed or a range like 1-10")
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--out", help="write every run's report to this JSON file")
    args = p.parse_args(argv)
    seconds = load_spec()["run_seconds"]
    names = WORKLOAD_NAMES if args.workload == "all" else [args.workload]
    runs = []
    for name in names:
        for seed in parse_seeds(args.seeds):
            runs.append(run_once(name, seed, seconds, args.trace))
            print(f"{name} seed {seed}: done", file=sys.stderr)
    if args.out:
        pathlib.Path(args.out).write_text(json.dumps({"runs": runs}, indent=1) + "\n")
    summarize(runs)
    return 0


if __name__ == "__main__":
    sys.exit(main())
