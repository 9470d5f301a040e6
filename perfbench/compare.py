"""Compare two sweep files metric by metric.

    python3 perfbench/compare.py BASE.json NEW.json

For every workload and end-to-end metric it prints both medians, the
change as a share of the base median (positive = worse) and whether the
change stays within the metric's bound from BENCHMARK.json.  It refuses
files that mix scalar backends: gmpy2 and fractions.Fraction differ by
about 2x, which would swamp any change in the program.
"""

from __future__ import annotations

import argparse
import json
import statistics
import sys

from sweep import end_to_end_spec


def load(path):
    runs = json.loads(open(path).read())["runs"]
    backends = {r["context"]["backend"] for r in runs}
    if len(backends) != 1:
        sys.exit(f"error: {path} mixes scalar backends {sorted(backends)}")
    return runs, backends.pop()


def medians(runs):
    out = {}
    for r in runs:
        w = out.setdefault(r["context"]["workload"], {})
        for name, value in r["metrics"].items():
            w.setdefault(name, []).append(value)
    return {w: {k: statistics.median(v) for k, v in ms.items()} for w, ms in out.items()}


def main(argv=None):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("base")
    p.add_argument("new")
    args = p.parse_args(argv)
    base, base_backend = load(args.base)
    new, new_backend = load(args.new)
    if base_backend != new_backend:
        sys.exit(f"error: cannot compare backend {base_backend} with {new_backend}")
    spec = end_to_end_spec()
    worse = 0
    b_med, n_med = medians(base), medians(new)
    for workload in b_med:
        if workload not in n_med:
            continue
        print(workload)
        for name, b in b_med[workload].items():
            if name not in spec or name not in n_med[workload]:
                continue
            n = n_med[workload][name]
            change = (n - b) / b if spec[name]["better"] == "lower" else (b - n) / b
            bound = spec[name]["bound"]
            worse += change > bound
            print(f"  {name:16s} base {b:.6g}  new {n:.6g}  worse by {change:+.3f}"
                  f"  (bound {bound}) {'ok' if change <= bound else 'WORSE than bound'}")
    return 1 if worse else 0


if __name__ == "__main__":
    sys.exit(main())
