"""Acceptance suite: nine numbered end-to-end checks of the headline claims.

Each test prints exactly one ``ACCEPTANCE criterion N: PASS|FAIL`` line
(run with ``pytest -s`` to see them live) and then asserts.  Failures are
collected as human-readable notes instead of stopping at the first bad
graph, so a red run names every violation it found.
"""

from __future__ import annotations

import ast
import time
from contextlib import contextmanager
from itertools import combinations, permutations
from pathlib import Path

import numpy as np

import hyperspec
from hyperspec import (
    AlphaOptions,
    Classification,
    Hypergraph,
    analytic_connectivity,
    components,
    cut_numbers,
    degree_stats,
    disjoint_union,
    form,
    form_gradient,
    grid_extremize_form,
    is_connected,
    minimal_binary_eigenvectors,
    newton_eigen_enumerate,
    solve_beta,
    spectral_radius,
    structural_eigenpairs,
    verify_eigenpair,
)
from hyperspec.eigen import normalize_eigenvector
from hyperspec.tensor_ops import TensorKind, apply

from conftest import random_connected, single_edge

A = TensorKind.ADJACENCY
L = TensorKind.LAPLACIAN
Q = TensorKind.SIGNLESS_LAPLACIAN


@contextmanager
def criterion(num: int, budget: float | None = None):
    """Collect failure notes, print one verdict line, then assert."""
    failures: list[str] = []
    t0 = time.perf_counter()
    try:
        yield failures
    except BaseException as exc:
        print(f"ACCEPTANCE criterion {num}: FAIL ({type(exc).__name__}: {exc})")
        raise
    elapsed = time.perf_counter() - t0
    if budget is not None and elapsed >= budget:
        failures.append(f"runtime {elapsed:.2f}s over the {budget:.0f}s budget")
    print(f"ACCEPTANCE criterion {num}: {'PASS' if not failures else 'FAIL'}")
    assert not failures, "; ".join(failures)


def test_criterion_1_hub_graph_structural_pairs(hub_graph):
    with criterion(1, budget=1.0) as fail:
        h = hub_graph
        for j in range(h.n):
            e_j = np.zeros(h.n)
            e_j[j] = 1.0
            for kind, lam in ((L, float(h.degrees[j])), (Q, float(h.degrees[j])), (A, 0.0)):
                pair = verify_eigenpair(kind, h, lam, e_j)
                if pair.residual > 1e-12:
                    fail.append(f"({kind.name}, {lam}) at vertex {j}: residual {pair.residual:.2e}")
        pair = verify_eigenpair(L, h, 0.0, np.ones(h.n))
        if pair.residual > 1e-12:
            fail.append(f"(L, 0) at the all-ones vector: residual {pair.residual:.2e}")
        for kind in TensorKind:
            for p in structural_eigenpairs(kind, h):
                if p.residual > 1e-12:
                    fail.append(f"structural ({kind.name}, {p.value:.6g}): residual {p.residual:.2e}")
        indicator = np.array([1, 1, 1, 0, 0, 0, 0, 0], dtype=float)
        for kind, lam in ((L, 1.0), (Q, 3.0), (A, 1.0)):
            pair = verify_eigenpair(kind, h, lam, indicator)
            if pair.classification is not Classification.H_PLUS_STRICT:
                fail.append(f"({kind.name}, {lam}) indicator: {pair.classification.value}")


def test_criterion_2_single_k6_edge_signed_pairs(k6_edge):
    with criterion(2, budget=1.0) as fail:
        sr = spectral_radius(Q, k6_edge)
        if abs(sr.value - 2.0) > 1e-8:
            fail.append(f"signless radius {sr.value!r} is not 2 within 1e-8")
        if not np.all(np.asarray(sr.vector) > 0):
            fail.append("radius witness is not strictly positive")
        x = np.array([1, 1, 1, -1, -1, -1], dtype=float)
        for kind, lam in ((L, 2.0), (Q, 0.0)):
            pair = verify_eigenpair(kind, k6_edge, lam, x)
            if pair.classification is not Classification.H:
                fail.append(f"({kind.name}, {lam}) signed vector: {pair.classification.value}")
        if not sr.value >= 2.0 - 1e-8:
            fail.append("signless radius fell below the verified Laplacian eigenvalue 2")


def test_criterion_3_analytic_connectivity_anchors():
    with criterion(3, budget=30.0) as fail:
        opts = AlphaOptions(starts=32, seed=0)
        for k in (3, 4, 6):
            cert = analytic_connectivity(single_edge(k), opts)
            if abs(cert.alpha - 1.0) > 1e-6:
                fail.append(f"single k={k} edge: alpha {cert.alpha!r} is not 1 within 1e-6")
        h = Hypergraph.from_edges(3, 4, [(0, 1, 2), (1, 2, 3)])
        cert = analytic_connectivity(h, opts)
        beta = solve_beta()
        if abs(cert.alpha - (1.0 - beta * beta)) > 1e-4:
            fail.append(f"two-edge path: alpha {cert.alpha!r} vs 1-beta^2 {1 - beta * beta!r}")
        if not cert.alpha < 2.0 / 3.0:
            fail.append(f"two-edge path: alpha {cert.alpha!r} not strictly below 2/3")


def test_criterion_4_random_graph_property_suite():
    with criterion(4) as fail:
        rng = np.random.default_rng(2024)
        for idx in range(200):
            k = int(rng.choice([3, 4, 5]))
            n = int(rng.integers(k, 11))
            h = random_connected(rng, k, n)
            tag = f"graph {idx} (k={k}, n={n}, m={h.m})"
            for _ in range(50):
                x = rng.uniform(0.0, 1.0, h.n)
                v = form(L, h, x)
                if v < -1e-12:
                    fail.append(f"{tag}: Laplacian form {v!r} below -1e-12")
                    break
            dmax, dmin, davg_frac = degree_stats(h)
            davg = float(davg_frac)
            lam1 = spectral_radius(A, h).value
            nu1 = spectral_radius(Q, h).value
            if not (davg - 1e-8 <= lam1 <= dmax + 1e-8):
                fail.append(f"{tag}: lambda1 {lam1!r} outside [{davg}, {dmax}]")
            if not (max(dmax, 2.0 * davg) - 1e-8 <= nu1 <= 2.0 * dmax + 1e-8):
                fail.append(f"{tag}: nu1 {nu1!r} outside [max(D, 2davg), 2D]")
            if not nu1 >= lam1 - 1e-8:
                fail.append(f"{tag}: nu1 {nu1!r} below lambda1 {lam1!r}")
            x = rng.uniform(0.2, 1.2, h.n)
            eps = 1e-5
            for kind in TensorKind:
                g = form_gradient(kind, h, x)
                fd = np.zeros(h.n)
                for i in range(h.n):
                    step = np.zeros(h.n)
                    step[i] = eps
                    fd[i] = (form(kind, h, x + step) - form(kind, h, x - step)) / (2 * eps)
                rel = np.abs(g - fd).max() / max(1.0, np.abs(g).max())
                if rel > 1e-6:
                    fail.append(f"{tag}: {kind.name} gradient FD mismatch {rel:.2e}")
                val = form(kind, h, x)
                dot = float(x @ apply(kind, h, x))
                if abs(val - dot) > 1e-12 * max(1.0, abs(val)):
                    fail.append(f"{tag}: {kind.name} form != <x, Tx^(k-1)>")


def test_criterion_5_alpha_detects_connectivity():
    with criterion(5) as fail:
        rng = np.random.default_rng(77)
        cases: list[Hypergraph] = []
        for _ in range(50):
            k = int(rng.choice([3, 4, 5]))
            cases.append(random_connected(rng, k, int(rng.integers(k, 11))))
        for _ in range(50):
            k = int(rng.choice([3, 4]))
            h1 = random_connected(rng, k, int(rng.integers(k, 7)))
            h2 = random_connected(rng, k, int(rng.integers(k, 7)))
            cases.append(disjoint_union(h1, h2))
        for idx, h in enumerate(cases):
            cert = analytic_connectivity(h, AlphaOptions(starts=2, seed=idx))
            if (cert.alpha > 1e-6) != is_connected(h):
                fail.append(
                    f"case {idx} (k={h.k}, n={h.n}): alpha {cert.alpha!r} "
                    f"vs connected={is_connected(h)}"
                )


def test_criterion_6_cut_sandwich():
    with criterion(6) as fail:
        rng = np.random.default_rng(4242)
        graphs: list[Hypergraph] = []
        for i in range(50):
            k = int(rng.choice([3, 4, 5]))
            # first dozen graphs land in the n <= 2k-1 band where e(G) = delta
            hi = 2 * k if i < 12 else 13
            n = int(rng.integers(k + 1, hi))
            graphs.append(random_connected(rng, k, n))
        for idx, h in enumerate(graphs):
            tag = f"graph {idx} (k={h.k}, n={h.n}, m={h.m})"
            cert = analytic_connectivity(h, AlphaOptions(starts=4, seed=idx))
            cuts = cut_numbers(h)
            dmax, dmin, davg_frac = degree_stats(h)
            davg = float(davg_frac)
            lower = (h.n / h.k) * cert.alpha - 1e-6
            if not lower <= cuts.edge_connectivity:
                fail.append(f"{tag}: (n/k)*alpha {lower!r} above e(G)={cuts.edge_connectivity}")
            if not cuts.edge_connectivity <= dmin:
                fail.append(f"{tag}: e(G)={cuts.edge_connectivity} above delta={dmin}")
            upper = (h.n / h.k) * (2.0 * davg - dmin) + 1e-9
            if not cuts.max_cut <= upper:
                fail.append(f"{tag}: c(G)={cuts.max_cut} above {upper!r}")
            if h.n <= 2 * h.k - 1 and cuts.edge_connectivity != dmin:
                fail.append(f"{tag}: n <= 2k-1 but e(G)={cuts.edge_connectivity} != delta={dmin}")


def test_criterion_7_disjoint_union_spectra():
    with criterion(7) as fail:
        rng = np.random.default_rng(31)
        for idx in range(20):
            k = int(rng.choice([3, 4, 5]))
            h1 = random_connected(rng, k, int(rng.integers(k, 9)))
            h2 = random_connected(rng, k, int(rng.integers(k, 9)))
            hu = disjoint_union(h1, h2)
            tag = f"pair {idx} (k={k}, n={hu.n})"
            for kind in (A, Q):
                whole = spectral_radius(kind, hu).value
                parts = max(spectral_radius(kind, h1).value, spectral_radius(kind, h2).value)
                if abs(whole - parts) > 2e-10:
                    fail.append(f"{tag}: {kind.name} radius {whole!r} vs parts max {parts!r}")
            indicators = minimal_binary_eigenvectors(hu)
            comps = components(hu)
            if len(indicators) != len(comps):
                fail.append(f"{tag}: {len(indicators)} indicators for {len(comps)} components")
            for v, comp in zip(indicators, comps):
                if set(np.flatnonzero(v)) != set(comp):
                    fail.append(f"{tag}: indicator support is not its component")
                pair = verify_eigenpair(L, hu, 0.0, v)
                if pair.classification is Classification.NOT_EIGENPAIR or pair.residual > 1e-10:
                    fail.append(f"{tag}: component indicator fails at 0 ({pair.residual:.2e})")
            for _ in range(3):
                coeff = rng.uniform(0.2, 2.0, len(indicators)) * rng.choice([-1.0, 1.0], len(indicators))
                x = sum(c * v for c, v in zip(coeff, indicators))
                pair = verify_eigenpair(L, hu, 0.0, x)
                if pair.classification is Classification.NOT_EIGENPAIR:
                    fail.append(f"{tag}: indicator combination fails at 0 ({pair.residual:.2e})")


def _iso_classes(k: int, max_n: int) -> list[Hypergraph]:
    """Every k-uniform hypergraph on at most max_n vertices, one per iso class."""
    out: list[Hypergraph] = []
    seen: set[tuple] = set()
    all_edges = list(combinations(range(max_n), k))
    for mask in range(1, 1 << len(all_edges)):
        edges = [all_edges[i] for i in range(len(all_edges)) if mask >> i & 1]
        used = sorted({v for e in edges for v in e})
        remap = {v: i for i, v in enumerate(used)}
        nn = len(used)
        canon = min(
            tuple(sorted(tuple(sorted(p[remap[v]] for v in e)) for e in edges))
            for p in ({i: q[i] for i in range(nn)} for q in permutations(range(nn)))
        )
        if (nn, canon) in seen:
            continue
        seen.add((nn, canon))
        out.append(Hypergraph.from_edges(k, nn, [tuple(remap[v] for v in e) for e in edges]))
    return out


def _pair_found(result, value: float, vector: np.ndarray, tol: float = 1e-6) -> bool:
    target = normalize_eigenvector(np.asarray(vector, dtype=float))
    for p in result.eigenpairs:
        if abs(p.value - value) > tol:
            continue
        v = np.asarray(p.vector)
        if min(np.abs(v - target).max(), np.abs(v + target).max()) <= tol:
            return True
    return False


def test_criterion_8_oracle_cross_checks(hub_graph, k6_edge):
    with criterion(8) as fail:
        for k in (2, 3, 4, 5):
            for h in _iso_classes(k, 5):
                nu1 = spectral_radius(Q, h).value
                res = grid_extremize_form(Q, h, objective="max")
                tag = f"k={k} edges={h.edges}"
                if res.value > nu1 + 1e-9:
                    fail.append(f"{tag}: grid value {res.value!r} exceeds the radius {nu1!r}")
                if nu1 - res.value > res.error_estimate + 1e-9:
                    fail.append(
                        f"{tag}: gap {nu1 - res.value:.2e} above estimate {res.error_estimate:.2e}"
                    )
        for h in (hub_graph, k6_edge):
            for kind in TensorKind:
                want = structural_eigenpairs(kind, h)
                got = newton_eigen_enumerate(kind, h, starts=24, seed=0)
                for p in want:
                    if not _pair_found(got, p.value, np.asarray(p.vector)):
                        fail.append(
                            f"k={h.k} n={h.n}: enumeration missed ({kind.name}, {p.value:.6g})"
                        )


def test_criterion_9_no_full_spectrum_claims():
    with criterion(9) as fail:
        banned_fragments = (
            "spectrum",
            "char_poly",
            "characteristic",
            "determinant",
            "all_eigen",
            "eigenvalue_count",
            "trace",
        )
        offenders = [
            name
            for name in hyperspec.__all__
            for frag in banned_fragments
            if frag in name.lower()
        ]
        if offenders:
            fail.append(f"full-spectrum API surfaced: {offenders}")
        doc = newton_eigen_enumerate.__doc__ or ""
        if "No completeness is claimed" not in doc:
            fail.append("eigenpair enumeration does not disclaim completeness")


def test_every_exported_name_resolves():
    missing = [name for name in hyperspec.__all__ if not hasattr(hyperspec, name)]
    assert missing == []


def test_no_module_imports_a_private_name_from_another():
    # a leading underscore marks a module's own helper; the package's layers
    # share only public names (dunders such as __version__ are public)
    crossings = []
    for path in sorted(Path(hyperspec.__file__).parent.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text())):
            internal = isinstance(node, ast.ImportFrom) and (node.level or node.module.startswith("hyperspec"))
            if internal:
                crossings += [
                    f"{path.name}: {a.name} from {node.module}"
                    for a in node.names
                    if a.name.startswith("_") and not a.name.endswith("__")
                ]
    assert crossings == []
