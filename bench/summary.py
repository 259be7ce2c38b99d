"""Run workloads over several seeds, one fresh process per run, and summarise.

    python3 bench/summary.py                          # every workload, seed 0
    python3 bench/summary.py --seeds 0-9 --json bench/results/out.json
    python3 bench/summary.py --workloads inspect_graph --seeds 0-4 --trace

Prints each metric by name with its unit: the median over seeds, the
quartiles, and the spread (interquartile range over median).  `failed_frac`
is failed jobs over attempted jobs, summed over the runs.  Runs are made one
after another, each waited for.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
BENCHMARK = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
RUN_TIMEOUT_S = 900


def parse_seeds(text: str) -> list[int]:
    seeds: list[int] = []
    for part in text.split(","):
        low, _, high = part.partition("-")
        seeds += range(int(low), int(high or low) + 1)
    return seeds


def run_once(workload: str, seed: int, seconds: int, trace: bool) -> dict:
    command = [sys.executable, "bench/run.py", "--workload", workload, "--seed", str(seed),
               "--seconds", str(seconds), "--trace", str(int(trace))]
    done = subprocess.run(command, cwd=ROOT, capture_output=True, text=True, timeout=RUN_TIMEOUT_S)
    lines = done.stdout.strip().splitlines()
    # A run in which no job passed still prints its result line, without metrics.
    if not lines or not lines[-1].startswith("{"):
        raise RuntimeError(f"{' '.join(command)} exited with {done.returncode}:\n{done.stderr}")
    if done.returncode != 0:
        print(done.stderr, file=sys.stderr)
    return json.loads(lines[-1])


def spread(values: list[float]) -> tuple[float, float, float, float]:
    """(median, first quartile, third quartile, interquartile range / median)."""
    median = statistics.median(values)
    if len(values) < 2:
        return median, median, median, 0.0
    q1, _, q3 = statistics.quantiles(values, n=4)
    return median, q1, q3, (q3 - q1) / median if median else 0.0


def summarise(results: list[dict]) -> dict[str, dict]:
    table: dict[str, dict] = {}
    units = {name: m["unit"] for r in results for name, m in r["metrics"].items()}
    for name, unit in units.items():
        values = [r["metrics"][name]["value"] for r in results if name in r["metrics"]]
        median, q1, q3, share = spread(values)
        table[name] = {"unit": unit, "median": median,
                       "q1": q1, "q3": q3, "spread": share, "runs": len(values)}
    attempted = sum(r["attempted"] for r in results)
    failed = sum(r["failed"] for r in results)
    table["failed_frac"] = {"unit": "fraction", "median": failed / attempted, "q1": None,
                            "q3": None, "spread": None, "runs": len(results)}
    return table


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workloads", default=",".join(w["name"] for w in BENCHMARK["workloads"]))
    parser.add_argument("--seeds", type=parse_seeds, default=[0])
    parser.add_argument("--seconds", type=int, default=BENCHMARK["run_seconds"])
    parser.add_argument("--trace", action="store_true", help="per-layer metrics instead")
    parser.add_argument("--json", type=Path, help="also write every run and the summary here")
    args = parser.parse_args()

    record = {
        "host": {"python": platform.python_version(), "platform": platform.platform(),
                 "cpus": os.cpu_count()},
        "seconds": args.seconds,
        "trace": args.trace,
        "workloads": {},
    }
    for workload in args.workloads.split(","):
        results = []
        for seed in args.seeds:
            result = run_once(workload, seed, args.seconds, args.trace)
            print(f"# {workload} seed {seed}: correct={result['correct']} "
                  f"attempted={result['attempted']} failed={result['failed']}", file=sys.stderr)
            results.append(dict(result, seed=seed))
        table = summarise(results)
        record["workloads"][workload] = {"runs": results, "summary": table}
        print(f"\n{workload} ({len(results)} run(s), seeds {args.seeds[0]}..{args.seeds[-1]})")
        print(f"  {'metric':<44} {'unit':<8} {'median':>14} {'q1':>14} {'q3':>14} {'spread':>7}")
        for name, row in table.items():
            q1 = "" if row["q1"] is None else f"{row['q1']:.6g}"
            q3 = "" if row["q3"] is None else f"{row['q3']:.6g}"
            share = "" if row["spread"] is None else f"{row['spread']:.3f}"
            print(f"  {name:<44} {row['unit']:<8} {row['median']:>14.6g} {q1:>14} {q3:>14} {share:>7}")
    if args.json is not None:
        args.json.parent.mkdir(parents=True, exist_ok=True)
        args.json.write_text(json.dumps(record, indent=1) + "\n", encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main())
