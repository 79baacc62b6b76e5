"""Spectral analysis of k-uniform hypergraphs.

The adjacency tensor A, Laplacian L = D - A, and signless Laplacian
Q = D + A of a k-uniform hypergraph are handled matrix-free: eigenpair
verification and classification, spectral radii by shifted power iteration,
structural eigenpairs, analytic connectivity by per-pin Perron roots,
brute-force cut numbers, and the degree bounds tying them together.
"""

__version__ = "0.1.0"

from .connectivity import (
    AlphaCertificate,
    AlphaOptions,
    CutNumbers,
    analytic_connectivity,
    connectivity_bound_report,
    cut_numbers,
    summation_law_check,
)
from .eigen import (
    BoundCheck,
    BoundReport,
    Classification,
    ComponentRadius,
    Definiteness,
    DefinitenessResult,
    EigenPair,
    PowerOptions,
    SpectralRadiusResult,
    bound_report,
    minimal_binary_eigenvectors,
    q_definiteness_probe,
    spectral_radius,
    structural_eigenpairs,
    verify_eigenpair,
)
from .hypergraph import (
    CutInfo,
    Hypergraph,
    ParseError,
    components,
    cut,
    degree_stats,
    disjoint_union,
    is_connected,
    parse_hypergraph,
)
from .tensor_ops import (
    TensorKind,
    apply,
    edge_form,
    elementwise_power,
    form,
    form_gradient,
)

# the brute-force oracles only cross-check the solvers, so no command loads
# them; ``hyperspec.<name>`` imports ``oracle`` on first use (PEP 562)
_ORACLE_NAMES = frozenset(
    {
        "GridExtremum",
        "OracleResult",
        "SubsetEnumeration",
        "grid_extremize_form",
        "newton_eigen_enumerate",
        "solve_beta",
        "subset_enumerate",
    }
)


def __getattr__(name: str):
    if name in _ORACLE_NAMES:
        from . import oracle

        return getattr(oracle, name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


__all__ = [
    "AlphaCertificate",
    "AlphaOptions",
    "BoundCheck",
    "BoundReport",
    "Classification",
    "ComponentRadius",
    "CutInfo",
    "CutNumbers",
    "Definiteness",
    "DefinitenessResult",
    "EigenPair",
    "GridExtremum",
    "Hypergraph",
    "OracleResult",
    "ParseError",
    "PowerOptions",
    "SpectralRadiusResult",
    "SubsetEnumeration",
    "TensorKind",
    "__version__",
    "analytic_connectivity",
    "apply",
    "bound_report",
    "components",
    "connectivity_bound_report",
    "cut",
    "cut_numbers",
    "degree_stats",
    "disjoint_union",
    "edge_form",
    "elementwise_power",
    "form",
    "form_gradient",
    "grid_extremize_form",
    "is_connected",
    "minimal_binary_eigenvectors",
    "newton_eigen_enumerate",
    "parse_hypergraph",
    "q_definiteness_probe",
    "solve_beta",
    "spectral_radius",
    "structural_eigenpairs",
    "subset_enumerate",
    "summation_law_check",
    "verify_eigenpair",
]
