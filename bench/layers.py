"""Per-layer metrics from the spans ``traced.py`` writes for one invocation."""

from __future__ import annotations

import numpy as np

# metric -> (traced function, what to take from its spans)
SPAN_METRICS = {
    "hypergraph.parse_s": ("hypergraph.parse_hypergraph", "time"),
    "hypergraph.from_edges_calls": ("hypergraph.from_edges", "calls"),
    "hypergraph.from_edges_s": ("hypergraph.from_edges", "time"),
    "hypergraph.components_calls": ("hypergraph.components", "calls"),
    "hypergraph.components_s": ("hypergraph.components", "time"),
    "tensor_ops.apply_calls": ("tensor_ops.apply", "calls"),
    "tensor_ops.apply_s": ("tensor_ops.apply", "time"),
    "tensor_ops.apply_entries": ("tensor_ops.apply", "work"),
    "tensor_ops.form_calls": ("tensor_ops.form", "calls"),
    "tensor_ops.form_s": ("tensor_ops.form", "time"),
    "eigen.spectral_radius_calls": ("eigen.spectral_radius", "calls"),
    "eigen.spectral_radius_s": ("eigen.spectral_radius", "time"),
    "eigen.power_iterations": ("eigen.spectral_radius", "work"),
    "eigen.structural_s": ("eigen.structural_eigenpairs", "time"),
    "eigen.structural_self_s": ("eigen.structural_eigenpairs", "self"),
    "eigen.verify_calls": ("eigen.verify_eigenpair", "calls"),
    "eigen.verify_s": ("eigen.verify_eigenpair", "time"),
    "connectivity.alpha_calls": ("connectivity.analytic_connectivity", "calls"),
    "connectivity.alpha_s": ("connectivity.analytic_connectivity", "time"),
    "connectivity.alpha_self_s": ("connectivity.analytic_connectivity", "self"),
    "connectivity.project_simplex_calls": ("connectivity.project_simplex", "calls"),
    "connectivity.project_simplex_s": ("connectivity.project_simplex", "time"),
    "connectivity.cut_numbers_s": ("connectivity.cut_numbers", "time"),
    "connectivity.bound_report_s": ("connectivity.connectivity_bound_report", "time"),
    "report.assemble_s": ("report.assemble_report", "time"),
    "report.emit_json_s": ("report.emit_json", "time"),
}

# metric -> (outer function, inner function): inner calls made inside the outer one
NESTED_METRICS = {
    "connectivity.alpha_apply_calls": ("connectivity.analytic_connectivity", "tensor_ops.apply"),
    "connectivity.alpha_form_calls": ("connectivity.analytic_connectivity", "tensor_ops.form"),
}

# metric -> (numerator, denominator, scale), computed after averaging
RATIO_METRICS = {
    "tensor_ops.apply_us_per_call": ("tensor_ops.apply_s", "tensor_ops.apply_calls", 1e6),
    "tensor_ops.apply_ns_per_entry": ("tensor_ops.apply_s", "tensor_ops.apply_entries", 1e9),
    "connectivity.alpha_evals_per_gradient": (
        "connectivity.alpha_form_calls",
        "connectivity.alpha_apply_calls",
        1.0,
    ),
}

UNITS = {
    **{name: ("s" if name.endswith("_s") else "count") for name in SPAN_METRICS},
    **{name: "count" for name in NESTED_METRICS},
    "tensor_ops.apply_us_per_call": "us",
    "tensor_ops.apply_ns_per_entry": "ns",
    "connectivity.alpha_evals_per_gradient": "ratio",
    "cli.startup_s": "s",
    "trace.overhead_ratio": "ratio",
}


def invocation_metrics(spans_path) -> dict[str, float]:
    """Totals for one traced invocation, before any averaging."""
    with np.load(spans_path) as z:
        labels = list(z["labels"])
        name, parent, last, work = z["name"], z["parent"], z["last"], z["work"]
        duration = z["end"] - z["start"]
        startup = float(z["startup_s"])
    has_parent = parent >= 0
    covered = np.bincount(parent[has_parent], weights=duration[has_parent], minlength=duration.size)

    def spans_of(label: str) -> np.ndarray:
        if label not in labels:
            return np.zeros(0, dtype=np.int64)
        return np.flatnonzero(name == labels.index(label))

    out = {"cli.startup_s": startup}
    for metric, (label, what) in SPAN_METRICS.items():
        idx = spans_of(label)
        if what == "calls":
            out[metric] = float(idx.size)
        elif what == "time":
            out[metric] = float(duration[idx].sum())
        elif what == "self":
            out[metric] = float((duration[idx] - covered[idx]).sum())
        else:
            out[metric] = float(work[idx].sum())
    for metric, (outer_label, inner_label) in NESTED_METRICS.items():
        # a traced function never nests in itself, so outer spans cover disjoint index ranges
        outer = spans_of(outer_label)
        inner = spans_of(inner_label)
        if outer.size == 0:
            out[metric] = 0.0
            continue
        pos = np.searchsorted(outer, inner, side="right") - 1
        enclosing = outer[np.maximum(pos, 0)]
        out[metric] = float(np.count_nonzero((pos >= 0) & (inner <= last[enclosing])))
    return out


def with_ratios(metrics: dict[str, float]) -> dict[str, float]:
    out = dict(metrics)
    for metric, (num, den, scale) in RATIO_METRICS.items():
        out[metric] = scale * metrics[num] / metrics[den] if metrics[den] else 0.0
    return out
