"""Spectral analysis of k-uniform hypergraphs.

The adjacency tensor A, Laplacian L = D - A, and signless Laplacian
Q = D + A of a k-uniform hypergraph are handled matrix-free: eigenpair
verification and classification, spectral radii by shifted power iteration,
structural eigenpairs, analytic connectivity by per-pin Perron roots,
brute-force cut numbers, and the degree bounds tying them together.

Every public name loads its module on first use (PEP 562), so
``import hyperspec`` imports no numpy: the CLI sets numpy's BLAS thread
count before numpy loads, and no command loads the brute-force ``oracle``.
"""

from importlib import import_module

__version__ = "0.1.0"

_HOMES = {
    "connectivity": (
        "AlphaCertificate", "AlphaOptions", "CutNumbers", "analytic_connectivity",
        "connectivity_bound_report", "cut_numbers", "summation_law_check",
    ),
    "eigen": (
        "BoundCheck", "BoundReport", "Classification", "ComponentRadius", "Definiteness",
        "DefinitenessResult", "EigenPair", "PowerOptions", "SpectralRadiusResult", "bound_report",
        "minimal_binary_eigenvectors", "q_definiteness_probe", "spectral_radius",
        "structural_eigenpairs", "verify_eigenpair",
    ),
    "hypergraph": (
        "CutInfo", "Hypergraph", "ParseError", "components", "cut", "degree_stats",
        "disjoint_union", "is_connected", "parse_hypergraph",
    ),
    "oracle": (
        "GridExtremum", "OracleResult", "SubsetEnumeration", "grid_extremize_form",
        "newton_eigen_enumerate", "solve_beta", "subset_enumerate",
    ),
    "tensor_ops": ("TensorKind", "apply", "edge_form", "elementwise_power", "form", "form_gradient"),
}
_MODULE_OF = {name: module for module, names in _HOMES.items() for name in names}

__all__ = sorted([*_MODULE_OF, "__version__"])


def __getattr__(name: str):
    module = _MODULE_OF.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = globals()[name] = getattr(import_module(f".{module}", __name__), name)
    return value


def __dir__() -> list[str]:
    return sorted({*globals(), *__all__})
