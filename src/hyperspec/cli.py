"""Command-line front end.

Subcommands: info, spectral, alpha, verify, report.  File inputs use the
``.khg`` text format with 1-based vertex ids, and every id this tool prints
is 1-based as well.  Exit codes: 0 success, 1 a bound check failed,
2 malformed input, 3 a solver failed to converge.  The CLI runs OpenBLAS on
one thread unless the caller set ``OPENBLAS_NUM_THREADS``; ``import hyperspec``
leaves it alone.
"""

from __future__ import annotations

import argparse
import os
import sys
from pathlib import Path

# Set before the first numpy import, which starts OpenBLAS's thread pool.  No
# computation here gains from BLAS threads (elementwise and bincount kernels
# plus small dense Newton solves), yet an idle helper thread spins for about
# 0.1 s of CPU in every process, and more when a solve wakes it.
os.environ.setdefault("OPENBLAS_NUM_THREADS", "1")

import numpy as np

from .connectivity import AlphaOptions, analytic_connectivity
from .eigen import Classification, PowerOptions, bound_report, spectral_radius, verify_eigenpair
from .hypergraph import Hypergraph, components, degree_stats, is_connected, parse_hypergraph
from .report import (
    alpha_block,
    assemble_report,
    checks_block,
    emit_json,
    graph_summary,
    radius_block,
    structural_blocks,
    vector_block,
    SCHEMA,
)
from .tensor_ops import TensorKind

EXIT_OK = 0
EXIT_BOUND_FAILED = 1
EXIT_INPUT_ERROR = 2
EXIT_NO_CONVERGENCE = 3

_KIND_LETTERS = {
    "A": TensorKind.ADJACENCY,
    "L": TensorKind.LAPLACIAN,
    "Q": TensorKind.SIGNLESS_LAPLACIAN,
}


def _load(path: str) -> Hypergraph:
    return parse_hypergraph(Path(path).read_text())


def _emit(payload: dict, out: str | None) -> None:
    text = emit_json(payload) + "\n"
    if out:
        Path(out).write_text(text)
    else:
        sys.stdout.write(text)


def cmd_info(args: argparse.Namespace) -> int:
    h = _load(args.file)
    if args.json:
        _emit({"schema": SCHEMA, "graph": graph_summary(h)}, args.out)
        return EXIT_OK
    dmax, dmin, davg = degree_stats(h)
    print(
        f"k={h.k} n={h.n} m={h.m} Δ={dmax} δ={dmin} "
        f"d̄={davg} components={len(components(h))}"
    )
    return EXIT_OK


def cmd_spectral(args: argparse.Namespace) -> int:
    h = _load(args.file)
    opts = PowerOptions(tol=args.tol, max_iter=args.max_iter)
    results = {}
    if args.kind in ("A", "all"):
        results["adjacency_radius"] = spectral_radius(TensorKind.ADJACENCY, h, opts)
    if args.kind in ("Q", "all"):
        results["signless_radius"] = spectral_radius(TensorKind.SIGNLESS_LAPLACIAN, h, opts)
    adj = results.get("adjacency_radius")
    sig = results.get("signless_radius")
    rep = bound_report(h, lambda1=adj.value if adj else None, nu1=sig.value if sig else None)
    converged = all(r.converged for r in results.values())
    if args.json:
        radii = {TensorKind.ADJACENCY: adj, TensorKind.SIGNLESS_LAPLACIAN: sig}
        payload = {
            "schema": SCHEMA,
            "options": {"kind": args.kind, "tol": opts.tol, "max_iter": opts.max_iter},
            "spectral": {name: radius_block(r, opts.tol) for name, r in results.items()},
            "structural": structural_blocks(h, {kind: r for kind, r in radii.items() if r}),
            "checks": checks_block(rep),
            "all_checks_hold": rep.all_hold,
            "converged": converged,
        }
        _emit(payload, args.out)
    else:
        if adj:
            print(f"adjacency radius lambda1 = {adj.value:.12g} (converged={adj.converged})")
        if sig:
            print(f"signless radius nu1 = {sig.value:.12g} (converged={sig.converged})")
        for c in rep.checks:
            status = "ok" if c.holds else "FAILED"
            print(f"check {c.bound_id}: {c.lhs:.12g} <= {c.rhs:.12g} [{status}]")
    if not converged:
        return EXIT_NO_CONVERGENCE
    return EXIT_OK if rep.all_hold else EXIT_BOUND_FAILED


def cmd_alpha(args: argparse.Namespace) -> int:
    h = _load(args.file)
    opts = AlphaOptions(starts=args.starts, seed=args.seed, max_iter=args.max_iter)
    cert = analytic_connectivity(h, opts)
    connected = is_connected(h)
    if args.json:
        payload = {
            "schema": SCHEMA,
            "connected": connected,
            "alpha": alpha_block(cert, opts),
        }
        if not connected:
            payload["note"] = "graph is disconnected; analytic connectivity vanishes"
        _emit(payload, args.out)
    else:
        print(
            f"alpha = {cert.alpha:.12g} (pinned vertex {cert.pinned_vertex + 1}, "
            f"kkt residual {cert.kkt_residual:.3g}, converged={cert.converged})"
        )
        if not connected:
            print("note: graph is disconnected; analytic connectivity vanishes")
    return EXIT_OK if cert.converged else EXIT_NO_CONVERGENCE


def _classification_text(c: Classification, residual: float) -> str:
    if c is Classification.NOT_EIGENPAIR:
        return f"not an eigenpair (residual {residual:.3e})"
    if c is Classification.H:
        return f"H-eigenpair (not H+), residual {residual:.3e}"
    if c is Classification.H_PLUS_STRICT:
        return f"strict H+-eigenpair, residual {residual:.3e}"
    return f"H++-eigenpair, residual {residual:.3e}"


def cmd_verify(args: argparse.Namespace) -> int:
    h = _load(args.file)
    kind = _KIND_LETTERS[args.kind]
    try:
        x = np.array([float(f) for f in args.x.split(",")], dtype=float)
    except ValueError:
        print(f"error: --x must be a comma-separated float list, got {args.x!r}", file=sys.stderr)
        return EXIT_INPUT_ERROR
    pair = verify_eigenpair(kind, h, args.lam, x, tol=args.tol)
    if args.json:
        _emit(
            {
                "schema": SCHEMA,
                "kind": args.kind,
                "lambda": pair.value,
                "classification": pair.classification.value,
                "residual": pair.residual,
                "tolerance": args.tol,
                "vector": vector_block(pair.values, pair.support),
            },
            args.out,
        )
    else:
        print(_classification_text(pair.classification, pair.residual))
    return EXIT_OK


def cmd_report(args: argparse.Namespace) -> int:
    h = _load(args.file)
    power_opts = PowerOptions(tol=args.tol, max_iter=args.max_iter)
    alpha_opts = AlphaOptions(starts=args.starts, seed=args.seed)
    report, all_hold, converged = assemble_report(h, power_opts, alpha_opts)
    _emit(report, args.out)
    if not converged:
        return EXIT_NO_CONVERGENCE
    return EXIT_OK if all_hold else EXIT_BOUND_FAILED


def _at_least(low: int):
    """argparse type for an integer of at least ``low``."""

    def integer(text: str) -> int:
        value = int(text)
        if value < low:
            raise argparse.ArgumentTypeError(f"must be at least {low}, got {value}")
        return value

    return integer


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="hyperspec",
        description="Spectral analysis of k-uniform hypergraphs from .khg files.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    flags = {
        "--json": dict(action="store_true", help="emit JSON instead of text"),
        "--tol": dict(type=float, default=1e-10, help="solver tolerance"),
        "--max-iter": dict(
            type=_at_least(1),
            help="power iteration cap per component (at least 1); for alpha, per component of each G - j",
        ),
        "--starts": dict(
            type=_at_least(0), default=32, help="echoed in the JSON only; alpha has no random starts"
        ),
        "--seed": dict(type=int, default=0, help="echoed in the JSON only; alpha has no random starts"),
    }

    def common(p: argparse.ArgumentParser, *names: str) -> None:
        p.add_argument("file", help=".khg input file")
        p.add_argument("--out", default=None, help="write output to this path instead of stdout")
        for name in names:
            p.add_argument(name, **flags[name])

    p_info = sub.add_parser("info", help="parse and summarize the hypergraph")
    common(p_info, "--json")
    p_info.set_defaults(func=cmd_info)

    p_spec = sub.add_parser("spectral", help="spectral radii, structural pairs, degree bounds")
    common(p_spec, "--json", "--tol", "--max-iter")
    p_spec.add_argument("--kind", choices=["A", "Q", "all"], default="all")
    p_spec.set_defaults(func=cmd_spectral, max_iter=PowerOptions().max_iter)

    p_alpha = sub.add_parser("alpha", help="analytic connectivity by per-pin Perron roots")
    common(p_alpha, "--json", "--max-iter", "--starts", "--seed")
    p_alpha.set_defaults(func=cmd_alpha, max_iter=AlphaOptions().max_iter)

    p_verify = sub.add_parser("verify", help="verify and classify one claimed eigenpair")
    common(p_verify, "--json", "--tol")
    p_verify.add_argument("--kind", choices=["A", "L", "Q"], required=True)
    p_verify.add_argument("--lambda", dest="lam", type=float, required=True)
    p_verify.add_argument("--x", required=True, help="comma-separated vector entries")
    p_verify.set_defaults(func=cmd_verify)

    p_report = sub.add_parser("report", help="full JSON report: spectra, alpha, cuts, checks")
    common(p_report, "--tol", "--max-iter", "--starts", "--seed")
    p_report.set_defaults(func=cmd_report, max_iter=PowerOptions().max_iter)

    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INPUT_ERROR


if __name__ == "__main__":
    sys.exit(main())
