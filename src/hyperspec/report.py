"""Machine-readable report assembly and a deterministic JSON emitter.

The emitter owns all float formatting: 17 significant digits, which
round-trips IEEE doubles exactly, with a trailing ``.0`` forced onto
integral values so they parse back as floats.  Dict order is insertion
order and nothing here consults the clock, so identical inputs produce
byte-identical output.
"""

from __future__ import annotations

import math
from fractions import Fraction
from typing import Any

import numpy as np

from . import __version__
from .connectivity import (
    AlphaCertificate,
    AlphaOptions,
    CutNumbers,
    MAX_BRUTE_N,
    analytic_connectivity,
    connectivity_bound_report,
    cut_numbers,
)
from .eigen import (
    BoundReport,
    PowerOptions,
    SpectralRadiusResult,
    bound_report,
    spectral_radius,
    structural_eigenpairs,
)
from .hypergraph import Hypergraph, components, degree_stats, is_connected
from .tensor_ops import TensorKind

SCHEMA = "hyperspec/1"


def format_float(x: float) -> str:
    if not math.isfinite(x):
        raise ValueError(f"cannot serialize non-finite float {x!r}")
    s = "%.17g" % x
    if not any(c in s for c in ".eE"):
        s += ".0"
    return s


def emit_json(obj: Any, indent: int = 0) -> str:
    """Serialize to JSON with deterministic layout and lossless floats."""
    pad = "  " * indent
    if obj is None:
        return "null"
    if obj is True:
        return "true"
    if obj is False:
        return "false"
    if isinstance(obj, str):
        out = ['"']
        for ch in obj:
            if ch == '"':
                out.append('\\"')
            elif ch == "\\":
                out.append("\\\\")
            elif ch == "\n":
                out.append("\\n")
            elif ch == "\t":
                out.append("\\t")
            elif ord(ch) < 0x20:
                out.append(f"\\u{ord(ch):04x}")
            else:
                out.append(ch)
        out.append('"')
        return "".join(out)
    if isinstance(obj, (int, np.integer)) and not isinstance(obj, bool):
        return str(int(obj))
    if isinstance(obj, (float, np.floating)):
        return format_float(float(obj))
    if isinstance(obj, Fraction):
        return emit_json(
            {
                "numerator": obj.numerator,
                "denominator": obj.denominator,
                "value": float(obj),
            },
            indent,
        )
    if isinstance(obj, np.ndarray):
        obj = obj.tolist()
    if isinstance(obj, (list, tuple)):
        items = [emit_json(v, indent + 1) for v in obj]
        if not items:
            return "[]"
        if all(isinstance(v, (int, float, np.integer, np.floating, str)) for v in obj):
            return "[" + ", ".join(items) + "]"
        inner = ",\n".join(f"{pad}  {item}" for item in items)
        return "[\n" + inner + "\n" + pad + "]"
    if isinstance(obj, dict):
        if not obj:
            return "{}"
        rows = []
        for key, val in obj.items():
            rows.append(f'{pad}  {emit_json(str(key))}: {emit_json(val, indent + 1)}')
        return "{\n" + ",\n".join(rows) + "\n" + pad + "}"
    raise TypeError(f"cannot serialize {type(obj).__name__}")


def _vec(x: np.ndarray) -> list[float]:
    return [float(v) for v in x]


def _ids_1based(vs) -> list[int]:
    return [int(v) + 1 for v in vs]


def graph_summary(h: Hypergraph) -> dict:
    dmax, dmin, davg = degree_stats(h)
    return {
        "k": h.k,
        "n": h.n,
        "m": h.m,
        "indexing": "1-based",
        "degrees": list(h.degrees),
        "max_degree": dmax,
        "min_degree": dmin,
        "average_degree": davg,
        "components": [_ids_1based(c) for c in components(h)],
        "connected": is_connected(h),
        "edges": [_ids_1based(e) for e in h.edges],
    }


def radius_block(res: SpectralRadiusResult, tol: float) -> dict:
    return {
        "value": res.value,
        "converged": res.converged,
        "tolerance": tol,
        "witness": _vec(res.vector),
        "components": [
            {
                "vertices": _ids_1based(c.vertices),
                "value": c.value,
                "bracket": [c.bracket[0], c.bracket[1]],
                "iterations": c.iterations,
                "converged": c.converged,
            }
            for c in res.components
        ],
    }


def structural_block(
    kind: TensorKind, h: Hypergraph, radius: SpectralRadiusResult | None = None
) -> list[dict]:
    return [
        {
            "value": p.value,
            "classification": p.classification.value,
            "residual": p.residual,
            "vector": _vec(p.vector),
        }
        for p in structural_eigenpairs(kind, h, radius=radius)
    ]


def alpha_block(cert: AlphaCertificate, opts: AlphaOptions) -> dict:
    return {
        "value": cert.alpha,
        "pinned_vertex": cert.pinned_vertex + 1,
        "kkt_residual": cert.kkt_residual,
        "converged": cert.converged,
        "is_upper_bound": cert.is_upper_bound,
        "per_vertex_values": [float(v) for v in cert.per_vertex_values],
        "minimizer": _vec(cert.minimizer),
        "starts": opts.starts,
        "seed": opts.seed,
    }


def checks_block(*reports: BoundReport) -> list[dict]:
    rows = []
    for rep in reports:
        for c in rep.checks:
            row = {
                "id": c.bound_id,
                "lhs": c.lhs,
                "rhs": c.rhs,
                "tolerance": c.tolerance,
                "holds": c.holds,
            }
            if c.note:
                row["note"] = c.note
            rows.append(row)
    return rows


def cuts_block(cuts: CutNumbers | None, n: int) -> dict:
    if cuts is None:
        return {
            "computed": False,
            "note": f"n > {MAX_BRUTE_N}, brute-force enumeration skipped",
        }
    return {
        "computed": True,
        "edge_connectivity": cuts.edge_connectivity,
        "min_witness": _ids_1based(cuts.min_witness),
        "max_cut": cuts.max_cut,
        "max_witness": _ids_1based(cuts.max_witness),
        "connected": cuts.connected,
    }


def assemble_report(
    h: Hypergraph,
    power_opts: PowerOptions,
    alpha_opts: AlphaOptions,
) -> tuple[dict, bool, bool]:
    """Full analysis of one hypergraph.

    Returns (report dict, all bound checks hold, all solvers converged).
    """
    adj = spectral_radius(TensorKind.ADJACENCY, h, power_opts)
    sig = spectral_radius(TensorKind.SIGNLESS_LAPLACIAN, h, power_opts)
    cert = analytic_connectivity(h, alpha_opts)
    cuts = cut_numbers(h) if h.n <= MAX_BRUTE_N else None
    eigen_rep = bound_report(h, lambda1=adj.value, nu1=sig.value)
    conn_rep = connectivity_bound_report(h, cert, cuts)
    report = {
        "schema": SCHEMA,
        "tool": {"name": "hyperspec", "version": __version__},
        "options": {
            "tol": power_opts.tol,
            "max_iter": power_opts.max_iter,
            "alpha_max_iter": alpha_opts.max_iter,
            "starts": alpha_opts.starts,
            "seed": alpha_opts.seed,
        },
        "graph": graph_summary(h),
        "spectral": {
            "adjacency_radius": radius_block(adj, power_opts.tol),
            "signless_radius": radius_block(sig, power_opts.tol),
        },
        "structural": (
            {
                "adjacency": structural_block(TensorKind.ADJACENCY, h, adj),
                "laplacian": structural_block(TensorKind.LAPLACIAN, h),
                "signless_laplacian": structural_block(TensorKind.SIGNLESS_LAPLACIAN, h, sig),
            }
            if h.k >= 3
            else {"note": "structural eigenpairs need k >= 3"}
        ),
        "alpha": alpha_block(cert, alpha_opts),
        "cuts": cuts_block(cuts, h.n),
        "checks": checks_block(eigen_rep, conn_rep),
    }
    all_hold = eigen_rep.all_hold and conn_rep.all_hold
    converged = adj.converged and sig.converged and cert.converged
    report["all_checks_hold"] = all_hold
    report["converged"] = converged
    return report, all_hold, converged
