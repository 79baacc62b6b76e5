"""The benchmark's workloads: which graphs, which CLI invocation, and why.

A graph with a ``structure_seed`` has a fixed shape drawn once from that
seed; the run seed then relabels its vertices and shuffles its lines.  The
alpha solver's cost on graphs this small swings by 2x between random shapes
of the same n and m, which would drown any change in the spread between
seeds, and the analytic connectivity is invariant under relabelling, so one
recorded seed-code value serves as the reference for every run seed.  A graph
without a structure seed is drawn afresh from the run seed; at m > 10,000 its
cost hardly depends on the draw.
"""

from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path

import numpy as np

import graphs
import reference
from graphs import Edge


@dataclass(frozen=True)
class GraphSpec:
    name: str
    k: int
    parts: tuple[tuple[int, int], ...]  # (n, m) of each connected part
    structure_seed: int | None = None

    def shape(self, rng: np.random.Generator) -> tuple[int, list[Edge]]:
        """(n, edges) drawn from ``rng``: one connected part, or a disjoint union."""
        if len(self.parts) == 1:
            n, m = self.parts[0]
            return n, graphs.random_connected(rng, self.k, n, m)
        return graphs.disjoint_union(rng, self.k, list(self.parts))

    def instance(self, run_seed: int, index: int) -> tuple[int, list[Edge], np.random.Generator]:
        """(n, edges, rng for the file layout) of this graph under one run seed."""
        rng = np.random.default_rng([run_seed, index])
        if self.structure_seed is None:
            return (*self.shape(rng), rng)
        n, edges = self.shape(np.random.default_rng(self.structure_seed))
        relabel = rng.permutation(n)
        return n, [tuple(sorted(int(relabel[v]) for v in e)) for e in edges], rng


@dataclass(frozen=True)
class Workload:
    name: str
    argv: tuple[str, ...]  # CLI arguments placed before the input file
    graphs: tuple[GraphSpec, ...]
    smoke: tuple[GraphSpec, ...]  # reduced sizes for the benchmark's own tests


WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            name="report-small",
            argv=("report",),
            graphs=(
                GraphSpec("k2-n8-m12", 2, ((8, 12),), structure_seed=1),
                GraphSpec("k3-n7-m8", 3, ((7, 8),), structure_seed=2),
                GraphSpec("k4-n7-m6", 4, ((7, 6),), structure_seed=2),
                GraphSpec("k3-union-5+6", 3, ((5, 3), (6, 4)), structure_seed=1),
            ),
            smoke=(
                GraphSpec("k2-n4-m4", 2, ((4, 4),), structure_seed=1),
                GraphSpec("k3-union-3+3", 3, ((3, 1), (3, 1)), structure_seed=1),
            ),
        ),
        Workload(
            name="alpha-wide",
            argv=("alpha", "--starts", "2", "--max-iter", "300", "--json"),
            graphs=(GraphSpec("k3-n100-m300", 3, ((100, 300),), structure_seed=1),),
            smoke=(GraphSpec("k3-n8-m10", 3, ((8, 10),), structure_seed=2),),
        ),
        Workload(
            name="spectral-large",
            argv=("spectral", "--kind", "all", "--json"),
            graphs=(
                GraphSpec("k3-n150-m10001", 3, ((150, 10_001),)),
                GraphSpec("k4-n120-m10001", 4, ((120, 10_001),)),
            ),
            smoke=(GraphSpec("k3-n30-m60", 3, ((30, 60),)),),
        ),
    )
}


@dataclass(frozen=True)
class Case:
    """One generated input file and the answers its output must agree with."""

    name: str
    path: Path
    connected: bool
    refs: dict  # radius brackets (lo, hi), and alpha_exact / alpha_max where known


def set_up(workload: Workload, run_seed: int, work_dir: Path, smoke: bool) -> list[Case]:
    """Write the workload's input files and compute their reference answers."""
    alpha_refs = reference.load_alpha_reference()
    work_dir.mkdir(parents=True, exist_ok=True)
    cases = []
    for index, spec in enumerate(workload.smoke if smoke else workload.graphs):
        n, edges, rng = spec.instance(run_seed, index)
        path = graphs.write_khg(work_dir / f"{spec.name}.khg", spec.k, n, edges, rng)
        if spec.k == 2:
            exact = reference.exact_k2(n, edges)
            refs = {
                "alpha_exact": exact["alpha"],
                "adjacency_radius": (exact["adjacency_radius"],) * 2,
                "signless_radius": (exact["signless_radius"],) * 2,
            }
        else:
            refs = {
                "adjacency_radius": reference.radius_bracket(spec.k, n, edges, signless=False),
                "signless_radius": reference.radius_bracket(spec.k, n, edges, signless=True),
            }
        if spec.structure_seed is not None:
            refs["alpha_max"] = _recorded_alpha(alpha_refs, workload, spec)
        cases.append(Case(spec.name, path, connected=len(spec.parts) == 1, refs=refs))
    return cases


def reference_key(workload: Workload, spec: GraphSpec) -> str:
    return f"{workload.name}/{spec.name}"


def _recorded_alpha(alpha_refs: dict, workload: Workload, spec: GraphSpec) -> float:
    """The seed code's alpha for this shape; refuses a shape that has changed since."""
    entry = alpha_refs["graphs"].get(reference_key(workload, spec))
    digest = reference.structure_hash(spec.k, *spec.shape(np.random.default_rng(spec.structure_seed)))
    if entry is None or entry["structure"] != digest:
        raise RuntimeError(
            f"no recorded alpha for {reference_key(workload, spec)} with structure {digest}; "
            "run bench/record_alpha.py on the commit that defines the reference"
        )
    return float(entry["alpha"])
