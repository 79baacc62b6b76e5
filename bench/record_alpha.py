"""Record the reference alpha of every fixed-shape benchmark graph.

Usage (from the repository root): python3 bench/record_alpha.py

Runs each workload's own CLI invocation on five relabellings of each
fixed-shape graph and stores the loosest (largest) alpha seen, with the
shape's digest and the commit it came from, in ``alpha_reference.json``.
The benchmark then fails any later run whose alpha is looser.  Run it only
on the commit that defines the reference.
"""

from __future__ import annotations

import json
import sys

import numpy as np

import graphs
import reference
from run import OUT, environment, spawn
from workloads import WORKLOADS, reference_key


LABELINGS = 5


def main() -> int:
    work_dir = OUT / "record-alpha"
    work_dir.mkdir(parents=True, exist_ok=True)
    entries = {}
    for workload in WORKLOADS.values():
        for index, spec in [*enumerate(workload.graphs), *enumerate(workload.smoke)]:
            if spec.structure_seed is None:
                continue
            values = []
            for seed in range(LABELINGS):
                n, edges, rng = spec.instance(seed, index)
                path = graphs.write_khg(work_dir / f"{spec.name}.khg", spec.k, n, edges, rng)
                out = work_dir / f"{spec.name}.out"
                rc, *_ = spawn([sys.executable, "-m", "hyperspec.cli", *workload.argv, str(path)], out)
                if rc != 0:
                    raise SystemExit(f"{reference_key(workload, spec)} seed {seed}: exit code {rc}")
                values.append(json.loads(out.read_bytes())["alpha"]["value"])
            shape = spec.shape(np.random.default_rng(spec.structure_seed))
            entries[reference_key(workload, spec)] = {
                "structure": reference.structure_hash(spec.k, *shape),
                "alpha": max(values),
                "spread": max(values) - min(values),
            }
            print(reference_key(workload, spec), entries[reference_key(workload, spec)], flush=True)
    record = {
        "source": environment()["git_sha"],
        "labelings": LABELINGS,
        "graphs": entries,
    }
    reference.ALPHA_REFERENCE.write_text(json.dumps(record, indent=2) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
