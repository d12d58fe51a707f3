"""Run-to-run spread of the end-to-end metrics.

    python3 perfbench/spread.py --workload corpus-40 --seeds 1 2 3 4 5

Runs ``run.py`` once per seed, in turn, and prints for each end-to-end metric
its median and the distance between the first and third quartile as a share
of the median, beside the bound in BENCHMARK.json and a third of it.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seeds", type=int, nargs="+", required=True)
    parser.add_argument("--seconds", type=float, default=None,
                        help="default: run_seconds from BENCHMARK.json")
    args = parser.parse_args(argv)
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    seconds = args.seconds or spec["run_seconds"]
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}

    values = {}
    for seed in args.seeds:
        proc = subprocess.run(
            [sys.executable, str(BENCH_DIR / "run.py"), "--workload", args.workload,
             "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"],
            cwd=ROOT, capture_output=True, text=True, check=True)
        line = json.loads(proc.stdout.strip().splitlines()[-1])
        print(f"seed {seed}: correct={line['correct']} "
              f"failed={line['failed']}/{line['attempted']}", flush=True)
        for name, m in line["metrics"].items():
            values.setdefault(name, []).append(m["value"])

    print(f"{'metric':<20}{'median':>14}{'iqr/median':>12}{'bound':>8}{'bound/3':>9}")
    for name, vals in values.items():
        q1, med, q3 = statistics.quantiles(vals, n=4)
        share = (q3 - q1) / med if med else float("nan")
        bound = bounds.get(name, float("nan"))
        flag = "" if share < bound / 3 else "  WIDE"
        print(f"{name:<20}{med:>14.6g}{share:>12.4f}{bound:>8.3g}{bound / 3:>9.4f}{flag}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
