"""Run the benchmark over several seeds and summarize it into one BENCH file.

Usage (from the repository root):

    python3 bench/collect.py --tag baseline --seeds 1-10 [--trace-seed 1]

For every workload this runs ``bench/run.py`` once per seed with tracing off,
then once with tracing on, one run at a time.  It writes
``bench/BENCH_<tag>.json`` with, per end-to-end metric, the ten values, their
median and quartiles and the spread (quartile distance over the median),
and the per-layer metrics of the traced run, and prints every one of them
by name with its unit.  Any failed check makes a run report ``failed``.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys

from run import BENCH, END_TO_END_UNITS, environment
from workloads import WORKLOADS


def seed_list(text: str) -> list[int]:
    if "-" in text:
        lo, hi = text.split("-")
        return list(range(int(lo), int(hi) + 1))
    return [int(s) for s in text.split(",")]


def run_once(workload: str, seed: int, seconds: int, trace: int) -> dict:
    argv = [sys.executable, str(BENCH / "run.py"), "--workload", workload, "--seed", str(seed),
            "--seconds", str(seconds), "--trace", str(trace)]
    proc = subprocess.run(argv, capture_output=True, text=True, timeout=600)
    if proc.returncode != 0:
        raise SystemExit(f"{' '.join(argv)} exited {proc.returncode}:\n{proc.stderr}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def summarize(values: list[float]) -> dict:
    q1, median, q3 = statistics.quantiles(values, n=4)
    return {
        "values": values,
        "median": median,
        "q1": q1,
        "q3": q3,
        "spread": (q3 - q1) / median,
    }


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n", 1)[0])
    parser.add_argument("--tag", required=True)
    parser.add_argument("--seeds", default="1-10")
    parser.add_argument("--trace-seed", type=int, default=1)
    args = parser.parse_args()
    config = json.loads((BENCH.parent / "BENCHMARK.json").read_text())
    seconds = config["run_seconds"]
    seeds = seed_list(args.seeds)
    summary = {"tag": args.tag, "run_seconds": seconds, "seeds": seeds,
               "environment": environment(), "workloads": {}}
    for workload in WORKLOADS:
        runs = [run_once(workload, seed, seconds, 0) for seed in seeds]
        traced = run_once(workload, args.trace_seed, seconds, 1)
        entry = {
            "attempted": sum(r["attempted"] for r in runs) + traced["attempted"],
            "failed": sum(r["failed"] for r in runs) + traced["failed"],
            "end_to_end": {
                m: {"unit": unit, **summarize([r["metrics"][m]["value"] for r in runs])}
                for m, unit in END_TO_END_UNITS.items()
            },
            "per_layer": {"seed": args.trace_seed, **traced["metrics"]},
        }
        summary["workloads"][workload] = entry
        for m, s in entry["end_to_end"].items():
            print(f"{workload:15s} {m:40s} median {s['median']:12.4f} {s['unit']:5s} spread {s['spread']:.3f}")
        for m, v in traced["metrics"].items():
            print(f"{workload:15s} {m:40s} traced {v['value']:12.4f} {v['unit']}")
        print(f"{workload:15s} failed {entry['failed']} of {entry['attempted']}", flush=True)
    (BENCH / f"BENCH_{args.tag}.json").write_text(json.dumps(summary, indent=2) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
