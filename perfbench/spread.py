"""Check the benchmark's steadiness and the exact repeat of its counts.

    python3 perfbench/spread.py --workload verify-stress --seeds 1 2 3 4 5
    python3 perfbench/spread.py --workload verify-desk --counts 777

The first form runs ``run.py`` once per seed (untraced) and prints, for each
end-to-end metric, the median, the quartile spread as a share of the median
(``statistics.quantiles(values, n=4)``) and that spread as a share of the
metric's bound in BENCHMARK.json.  The second form makes two traced runs at
one seed and fails unless every count metric is identical in both.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
COUNT_UNITS = ("count", "order", "frac")


def run(workload, seed, seconds, trace):
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    cmd = spec["command"] + ["--workload", workload, "--seed", str(seed),
                             "--seconds", str(seconds), "--trace", str(trace)]
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True,
                          timeout=600)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        sys.exit(f"{workload} seed {seed} exited {proc.returncode}:\n"
                 f"{proc.stdout}{proc.stderr}")
    return json.loads(lines[-1])["metrics"]


def spreads(args, spec):
    seconds = args.seconds or spec["run_seconds"]
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    values = {}
    for seed in args.seeds:
        metrics = run(args.workload, seed, seconds, 0)
        print(f"seed {seed}: " + ", ".join(
            f"{k} {v['value']:.4g}" for k, v in metrics.items()), flush=True)
        for name, m in metrics.items():
            values.setdefault(name, []).append(m["value"])
    worst = 0.0
    for name, vals in values.items():
        med = statistics.median(vals)
        q1, _, q3 = statistics.quantiles(vals, n=4)
        spread = (q3 - q1) / med
        share = spread / bounds[name]
        if name != "setup_s":
            worst = max(worst, share)
        print(f"{name:24s} median {med:12.5g}  spread {spread:7.4f}  "
              f"of bound {share:5.2f}")
    print(f"worst spread / bound (setup_s excluded): {worst:.2f}")


def counts(args):
    first, second = (run(args.workload, args.counts, 1, 1) for _ in range(2))
    differ = [name for name, m in first.items() if m["unit"] in COUNT_UNITS
              and m["value"] != second[name]["value"]]
    for name in differ:
        print(f"{name}: {first[name]['value']} != {second[name]['value']}")
    print("counts repeat exactly" if not differ else "counts differ")
    return 1 if differ else 0


def main():
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seeds", type=int, nargs="*", default=[])
    parser.add_argument("--seconds", type=int, default=None,
                        help="override run_seconds of BENCHMARK.json")
    parser.add_argument("--counts", type=int, default=None, metavar="SEED")
    args = parser.parse_args()
    if args.counts is not None:
        return counts(args)
    spreads(args, json.loads((ROOT / "BENCHMARK.json").read_text()))
    return 0


if __name__ == "__main__":
    sys.exit(main())
