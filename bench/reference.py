"""Reference answers the benchmark checks the program's output against.

This is the benchmark's own arithmetic, written independently of the
package: exact matrix answers at k = 2, a certified Collatz-Wielandt bracket
for the spectral radii at k >= 3, and the analytic connectivity recorded
from the seed code in ``alpha_reference.json``.
"""

from __future__ import annotations

import hashlib
import json
from pathlib import Path

import numpy as np

from graphs import Edge

ALPHA_REFERENCE = Path(__file__).with_name("alpha_reference.json")


def structure_hash(k: int, n: int, edges: list[Edge]) -> str:
    """Digest of a graph's canonical edge list, before any relabelling."""
    text = f"{k} {n}\n" + "\n".join(" ".join(map(str, e)) for e in sorted(edges))
    return hashlib.sha256(text.encode()).hexdigest()[:16]


def load_alpha_reference() -> dict:
    return json.loads(ALPHA_REFERENCE.read_text())


def components(n: int, edges: list[Edge]) -> list[list[int]]:
    parent = list(range(n))

    def find(a: int) -> int:
        while parent[a] != a:
            parent[a] = parent[parent[a]]
            a = parent[a]
        return a

    for e in edges:
        for v in e[1:]:
            parent[find(v)] = find(e[0])
    groups: dict[int, list[int]] = {}
    for v in range(n):
        groups.setdefault(find(v), []).append(v)
    return list(groups.values())


def exact_k2(n: int, edges: list[Edge]) -> dict[str, float]:
    """alpha, lambda1 and nu1 of an ordinary graph by dense eigenvalues.

    alpha is min over j of the smallest eigenvalue of the Laplacian with row
    and column j deleted: that submatrix is a Z-matrix, so a nonnegative
    eigenvector attains it and the slice constraint x >= 0 is inactive.
    """
    a = np.zeros((n, n))
    for u, v in edges:
        a[u, v] = a[v, u] = 1.0
    d = np.diag(a.sum(axis=1))
    lap = d - a
    alpha = min(
        float(np.linalg.eigvalsh(np.delete(np.delete(lap, j, 0), j, 1))[0]) for j in range(n)
    )
    return {
        "alpha": alpha,
        "adjacency_radius": float(np.linalg.eigvalsh(a)[-1]),
        "signless_radius": float(np.linalg.eigvalsh(d + a)[-1]),
    }


def _bracket(k: int, n: int, idx: np.ndarray, signless: bool) -> tuple[float, float]:
    """Collatz-Wielandt bracket [lo, hi] around the radius of a connected graph.

    Shifted power iteration on x -> (T x^{k-1} + s x^{k-1})^{1/(k-1)}; for
    every positive x the min and max of (T x^{k-1})_i / x_i^{k-1} enclose
    the radius, so the bracket is valid whenever the loop stops.
    """
    deg = np.bincount(idx.ravel(), minlength=n).astype(float)
    shift = deg.max() + 1.0
    x = np.ones(n)
    lo, hi = 0.0, np.inf
    for _ in range(100_000):
        xe = x[idx]
        loo = xe.prod(axis=1)[:, None] / xe
        tx = np.bincount(idx.ravel(), weights=loo.ravel(), minlength=n)
        xkm1 = x ** (k - 1)
        if signless:
            tx += deg * xkm1
        ratios = tx / xkm1
        lo, hi = max(lo, float(ratios.min())), min(hi, float(ratios.max()))
        if hi - lo <= 1e-12 * max(1.0, hi):
            break
        x = (tx + shift * xkm1) ** (1.0 / (k - 1))
        x /= x.max()
    return lo, hi


def radius_bracket(k: int, n: int, edges: list[Edge], signless: bool) -> tuple[float, float]:
    """Bracket around the largest H-eigenvalue of A (or Q), the max over components."""
    brackets = []
    for comp in components(n, edges):
        remap = {v: i for i, v in enumerate(comp)}
        members = set(comp)
        sub = np.array([[remap[v] for v in e] for e in edges if e[0] in members], dtype=np.int64)
        brackets.append(_bracket(k, len(comp), sub, signless))
    return max(b[0] for b in brackets), max(b[1] for b in brackets)
