"""Checks on one invocation's output; any problem counts the invocation as failed."""

from __future__ import annotations

import json

from workloads import Case

# exact k = 2 answers and reference radius brackets
VALUE_TOL = 1e-8
# alpha is an upper bound; it may be tighter than the seed code's, never looser
ALPHA_SLACK = 1e-9
# the package's own threshold for "alpha vanishes" on a disconnected graph
ALPHA_ZERO = 1e-6
# structural eigenpairs hold by construction, so their residuals must be tiny
RESIDUAL_TOL = 1e-8

# which parts of the output each subcommand must produce
EXPECTED = {
    "report": ("alpha", "spectral", "structural"),
    "alpha": ("alpha",),
    "spectral": ("spectral", "structural"),
}


def check_output(command: str, case: Case, returncode: int, stdout: bytes) -> list[str]:
    """Problems with one invocation of ``command`` on ``case``; empty means correct."""
    problems = [] if returncode == 0 else [f"exit code {returncode}"]
    try:
        out = json.loads(stdout)
        problems += _check_payload(command, case, out)
    except (ValueError, KeyError, TypeError, AttributeError) as exc:
        problems.append(f"malformed output: {type(exc).__name__}: {exc}")
    return problems


def _check_payload(command: str, case: Case, out: dict) -> list[str]:
    problems = []
    for part in EXPECTED[command]:
        if part not in out:
            problems.append(f"output has no {part!r} block")
    for flag in ("converged", "all_checks_hold"):
        if flag in out and out[flag] is not True:
            problems.append(f"{flag} is {out[flag]!r}")
    if "alpha" in out:
        problems += _check_alpha(case, out["alpha"])
    for name, got in out.get("spectral", {}).items():
        lo, hi = case.refs[name]
        if not lo - VALUE_TOL <= got["value"] <= hi + VALUE_TOL:
            problems.append(f"{name} {got['value']!r} outside reference [{lo!r}, {hi!r}]")
    for kind, pairs in out.get("structural", {}).items():
        if kind == "note":
            continue
        worst = max(p["residual"] for p in pairs)
        if not worst <= RESIDUAL_TOL:
            problems.append(f"structural {kind} residual {worst!r} > {RESIDUAL_TOL}")
    return problems


def _check_alpha(case: Case, alpha: dict) -> list[str]:
    problems = []
    value = alpha["value"]
    if alpha["converged"] is not True:
        problems.append("alpha solve did not converge")
    if "alpha_exact" in case.refs and abs(value - case.refs["alpha_exact"]) > VALUE_TOL:
        problems.append(f"alpha {value!r} != exact {case.refs['alpha_exact']!r}")
    if value > case.refs["alpha_max"] + ALPHA_SLACK:
        problems.append(f"alpha {value!r} looser than the seed code's {case.refs['alpha_max']!r}")
    if not case.connected and value > ALPHA_ZERO:
        problems.append(f"alpha {value!r} > {ALPHA_ZERO} on a disconnected graph")
    return problems
