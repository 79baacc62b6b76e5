"""hyperspec benchmark: runs the real CLI on seeded inputs and reports metrics.

Usage (from the repository root):

    python3 bench/run.py --workload report-small --seed 1 --seconds 30 --trace 0

One client, closed loop: a single process spawns one ``python -m
hyperspec.cli`` child per invocation, waits for it to exit, checks its
output and only then starts the next.  Invocations cycle through the
workload's graphs until the next one would end past ``--seconds``; the first
pass over the graphs always completes.

``--trace 0`` reports the end-to-end metrics.  ``--trace 1`` runs each
invocation twice, plain and under ``bench/traced.py``, requires the two
outputs to be byte-identical, and reports the per-layer metrics.  The last
line of standard output is one JSON object; a fuller record, with the
environment, goes to ``bench/out/``.
"""

from __future__ import annotations

import argparse
import itertools
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

import layers
from checks import check_output
from workloads import WORKLOADS, Case, Workload, set_up

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
OUT = BENCH / "out"
SETUP_REPEATS = 5

END_TO_END_UNITS = {"setup_s": "s", "wall_s": "s", "cpu_s": "s", "peak_rss_mb": "MB"}


@dataclass
class Sample:
    wall_s: float
    cpu_s: float
    rss_mb: float
    problems: list[str] = field(default_factory=list)
    layers: dict[str, float] | None = None
    traced_wall_s: float | None = None
    traced_problems: list[str] = field(default_factory=list)


def spawn(argv: list[str], stdout_path: Path) -> tuple[int, float, float, float]:
    """Run one child to completion: (exit code, wall s, cpu s, max RSS MB)."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")]))
    with open(stdout_path, "wb") as out, open(stdout_path.with_suffix(".err"), "wb") as err:
        started = time.perf_counter()
        proc = subprocess.Popen(argv, stdout=out, stderr=err, env=env, cwd=ROOT)
        _, status, usage = os.wait4(proc.pid, 0)
        wall = time.perf_counter() - started
    proc.returncode = os.waitstatus_to_exitcode(status)
    return proc.returncode, wall, usage.ru_utime + usage.ru_stime, usage.ru_maxrss / 1024.0


class Runner:
    def __init__(self, workload: Workload, work_dir: Path, trace: bool) -> None:
        self.workload = workload
        self.work_dir = work_dir
        self.trace = trace
        self.first_output: dict[str, bytes] = {}

    def cli_argv(self, case: Case) -> list[str]:
        return [*self.workload.argv, str(case.path)]

    def run(self, case: Case) -> Sample:
        out_path = self.work_dir / f"{case.name}.out"
        rc, wall, cpu, rss = spawn([sys.executable, "-m", "hyperspec.cli", *self.cli_argv(case)], out_path)
        stdout = out_path.read_bytes()
        sample = Sample(wall, cpu, rss, check_output(self.workload.argv[0], case, rc, stdout))
        expected = self.first_output.setdefault(case.name, stdout)
        if stdout != expected:
            sample.problems.append("output differs from an earlier run on the same input")
        if self.trace:
            self.run_traced(case, stdout, sample)
        return sample

    def run_traced(self, case: Case, plain: bytes, sample: Sample) -> None:
        out_path = self.work_dir / f"{case.name}.traced.out"
        spans = self.work_dir / f"{case.name}.spans.npz"
        argv = [sys.executable, str(BENCH / "traced.py"), str(spans), "--", *self.cli_argv(case)]
        rc, wall, _, _ = spawn(argv, out_path)
        sample.traced_wall_s = wall
        if rc != 0 or out_path.read_bytes() != plain:
            sample.traced_problems.append(f"traced run (exit code {rc}) differs from the plain run")
        else:
            sample.layers = layers.invocation_metrics(spans)


def timed_loop(runner: Runner, cases: list[Case], seconds: float) -> dict[str, list[Sample]]:
    samples: dict[str, list[Sample]] = {c.name: [] for c in cases}
    started = time.perf_counter()
    for i in itertools.count():
        case = cases[i % len(cases)]
        if i >= len(cases):
            past = samples[case.name]
            expected = statistics.median(s.wall_s + (s.traced_wall_s or 0.0) for s in past)
            if time.perf_counter() - started + expected > seconds:
                break
        samples[case.name].append(runner.run(case))
    return samples


def end_to_end(samples: dict[str, list[Sample]], setup_times: list[float]) -> dict[str, float]:
    """One pass over the graphs, each graph at its median; RSS is the largest seen."""
    return {
        "setup_s": statistics.median(setup_times),
        "wall_s": sum(statistics.median(s.wall_s for s in ss) for ss in samples.values()),
        "cpu_s": sum(statistics.median(s.cpu_s for s in ss) for ss in samples.values()),
        "peak_rss_mb": max(s.rss_mb for ss in samples.values() for s in ss),
    }


def per_layer(samples: dict[str, list[Sample]]) -> dict[str, float]:
    """Per invocation: each graph's mean over its traced runs, then the mean over graphs."""
    per_graph = []
    for ss in samples.values():
        traced = [s.layers for s in ss if s.layers is not None]
        if traced:
            per_graph.append({m: float(np.mean([t[m] for t in traced])) for m in traced[0]})
    if not per_graph:
        return {m: 0.0 for m in layers.UNITS}
    metrics = {m: float(np.mean([g[m] for g in per_graph])) for m in per_graph[0]}
    plain = sum(statistics.median(s.wall_s for s in ss) for ss in samples.values())
    traced_wall = sum(
        statistics.median(s.traced_wall_s for s in ss) for ss in samples.values()
    )
    metrics["trace.overhead_ratio"] = traced_wall / plain
    return layers.with_ratios(metrics)


def environment() -> dict:
    sha = ""
    if (ROOT / ".git").exists():
        try:
            sha = subprocess.run(
                ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True, timeout=30
            ).stdout.strip()
        except OSError:
            pass
    cpu_model = ""
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                cpu_model = line.split(":", 1)[1].strip()
                break
    except OSError:
        pass
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "git_sha": sha or "unknown (not a git checkout)",
        "nproc": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "thread_env": {k: v for k, v in sorted(os.environ.items()) if k.endswith("_NUM_THREADS")},
        "cpu_model": cpu_model,
        "note": (
            "CPU frequency and core pinning are not under the benchmark's control; "
            "compare spreads across runs, not single values"
        ),
    }


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n", 1)[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true", help="reduced graph sizes, for self-tests")
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "hyperspec" / "cli.py").is_file():
        print(f"error: no hyperspec sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    workload = WORKLOADS[args.workload]
    tag = f"{workload.name}-seed{args.seed}-trace{args.trace}{'-smoke' if args.smoke else ''}"
    work_dir = OUT / tag

    setup_times = []
    for _ in range(SETUP_REPEATS):
        started = time.perf_counter()
        cases = set_up(workload, args.seed, work_dir, args.smoke)
        setup_times.append(time.perf_counter() - started)

    runner = Runner(workload, work_dir, bool(args.trace))
    # warm the file cache for the interpreter and numpy; not measured
    spawn([sys.executable, "-m", "hyperspec.cli", "info", str(cases[0].path)], work_dir / "warmup.out")
    samples = timed_loop(runner, cases, args.seconds)

    all_samples = [s for ss in samples.values() for s in ss]
    attempted = len(all_samples) * (2 if args.trace else 1)
    failed = sum(bool(s.problems) + bool(s.traced_problems) for s in all_samples)
    if args.trace:
        metrics, units = per_layer(samples), layers.UNITS
    else:
        metrics, units = end_to_end(samples, setup_times), END_TO_END_UNITS
    reported = {m: {"value": v, "unit": units[m]} for m, v in metrics.items()}

    record = {
        "workload": workload.name,
        "argv": list(workload.argv),
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "smoke": args.smoke,
        "environment": environment(),
        "setup_s": setup_times,
        "attempted": attempted,
        "failed": failed,
        "metrics": reported,
        "graphs": {
            name: {
                "wall_s": [s.wall_s for s in ss],
                "cpu_s": [s.cpu_s for s in ss],
                "rss_mb": [s.rss_mb for s in ss],
                "traced_wall_s": [s.traced_wall_s for s in ss if s.traced_wall_s is not None],
                "problems": [p for s in ss for p in s.problems + s.traced_problems],
            }
            for name, ss in samples.items()
        },
    }
    (OUT / f"{tag}.json").write_text(json.dumps(record, indent=2) + "\n")

    for name, ss in samples.items():
        for p in sorted({p for s in ss for p in s.problems + s.traced_problems}):
            print(f"FAILED {name}: {p}")
    for m, v in metrics.items():
        print(f"{m:42s} {v:16.6f} {units[m]}")
    print(json.dumps({"correct": failed == 0, "attempted": attempted, "failed": failed, "metrics": reported}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
