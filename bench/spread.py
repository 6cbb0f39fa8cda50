"""Run the benchmark on several seeds and summarise each metric.

    python3 bench/spread.py --workloads patterns wide cli --seeds 1-10 [--trace 1]

It runs every named workload once per seed, one run after another, and
prints each run's metrics with their units and the operations it
attempted and failed.  Then, for every workload and metric, it prints the
median, the first and third quartiles (statistics.quantiles, n=4) and
their distance as a share of the median, which BENCHMARK.json bounds for
the end-to-end metrics.  The summary is also written to
bench/out/spread-trace<T>.json.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent


def seeds(text: str) -> list:
    lo, _, hi = text.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workloads", nargs="+", required=True)
    parser.add_argument("--seeds", type=seeds, default=seeds("1-10"))
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    seconds = json.loads((ROOT / "BENCHMARK.json").read_text())["run_seconds"]

    summary = {}
    for workload in args.workloads:
        values, units, failed, attempted = {}, {}, 0, 0
        for seed in args.seeds:
            proc = subprocess.run(
                [sys.executable, str(BENCH / "run.py"), "--workload", workload,
                 "--seed", str(seed), "--seconds", str(seconds), "--trace", str(args.trace)],
                cwd=ROOT, capture_output=True, text=True, timeout=300)
            if proc.returncode != 0:
                print(proc.stderr, file=sys.stderr)
                return 1
            result = json.loads(proc.stdout.strip().splitlines()[-1])
            failed += result["failed"]
            attempted += result["attempted"]
            for name, metric in result["metrics"].items():
                values.setdefault(name, []).append(metric["value"])
                units[name] = metric["unit"]
            print(f"{workload} seed {seed}: {result['failed']} of {result['attempted']} "
                  "operations failed; " + ", ".join(
                      f"{k}={v['value']:.4g} {v['unit']}" for k, v in result["metrics"].items()
                      if not args.trace), flush=True)
        rows = {}
        for name, vals in values.items():
            med = statistics.median(vals)
            q1, _, q3 = statistics.quantiles(vals, n=4) if len(vals) > 1 else (med, med, med)
            rows[name] = {"unit": units[name], "median": med, "q1": q1, "q3": q3,
                          "iqr_share": (q3 - q1) / med if med else 0.0, "values": vals}
        summary[workload] = {"failed": failed, "attempted": attempted, "metrics": rows}
        for name, row in rows.items():
            print(f"  {workload:9s} {name:40s} {row['unit']:6s} median {row['median']:.5g}  "
                  f"q1 {row['q1']:.5g}  q3 {row['q3']:.5g}  iqr/median {row['iqr_share']:.4f}")
        print(f"  {workload:9s} failed {failed} of {attempted}", flush=True)
    out = BENCH / "out"
    out.mkdir(parents=True, exist_ok=True)
    (out / f"spread-trace{args.trace}.json").write_text(json.dumps(summary, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
