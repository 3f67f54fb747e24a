"""Run-to-run spread of the end-to-end metrics over several seeds.

    python3 bench/spread.py --workload certify --runs 10 [--seconds 25]
        [--first-seed 1] [--json out.json]

Runs bench/run.py once per seed, each in a fresh process, one after the
other.  For every metric it prints the median and the quartiles (as
statistics.quantiles(values, n=4) gives them) and the interquartile
distance as a share of the median, which is what each bound in
BENCHMARK.json is compared against.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

BENCH = Path(__file__).resolve().parent


def spread(values):
    q1, q2, q3 = statistics.quantiles(values, n=4)
    med = statistics.median(values)
    return {"median": med, "q1": q1, "q3": q3, "iqr_share": (q3 - q1) / med}


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--runs", type=int, default=10)
    ap.add_argument("--seconds", type=float, default=25)
    ap.add_argument("--first-seed", type=int, default=1)
    ap.add_argument("--json", help="also write the summary to this file")
    args = ap.parse_args(argv)
    samples = {}
    counts = []
    for seed in range(args.first_seed, args.first_seed + args.runs):
        proc = subprocess.run(
            [sys.executable, str(BENCH / "run.py"), "--workload",
             args.workload, "--seed", str(seed), "--seconds",
             str(args.seconds), "--trace", "0"],
            cwd=BENCH.parent, capture_output=True, text=True, check=True)
        line = json.loads(proc.stdout.strip().splitlines()[-1])
        counts.append((line["attempted"], line["failed"], line["correct"]))
        for name, m in line["metrics"].items():
            samples.setdefault(name, []).append(m["value"])
        print("seed %d: %s" % (seed, " ".join(
            "%s=%.6g" % (k, m["value"]) for k, m in line["metrics"].items())),
            flush=True)
    summary = {name: dict(spread(vals), values=vals)
               for name, vals in samples.items()}
    for name, s in summary.items():
        print("%-12s median %12.6g  q1 %12.6g  q3 %12.6g  iqr/median %.4f"
              % (name, s["median"], s["q1"], s["q3"], s["iqr_share"]))
    print("attempted/failed/correct per run:", counts)
    if args.json:
        Path(args.json).write_text(json.dumps(
            {"workload": args.workload, "seconds": args.seconds,
             "seeds": [args.first_seed, args.first_seed + args.runs - 1],
             "runs": counts, "metrics": summary}, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
