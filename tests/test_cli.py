"""Command-line interface: output formats, exit codes, determinism, environment."""

from __future__ import annotations

import json
import math
import os
import re
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import hyperspec.cli as cli
import hyperspec.report as report
from hyperspec import Hypergraph, solve_beta
from hyperspec.cli import main
from hyperspec.report import SCHEMA, emit_json

DATA = Path(__file__).parent / "data"

from conftest import single_edge, write_khg


@pytest.fixture
def hub_file(tmp_path, hub_graph) -> str:
    return write_khg(tmp_path / "hub.khg", hub_graph)


@pytest.fixture
def k6_file(tmp_path, k6_edge) -> str:
    return write_khg(tmp_path / "k6.khg", k6_edge)


@pytest.fixture
def path_file(tmp_path, two_edge_path) -> str:
    return write_khg(tmp_path / "path.khg", two_edge_path)


def run(capsys, argv: list[str]) -> tuple[int, str, str]:
    code = main(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


# ---------------------------------------------------------------- info


def test_info_text(capsys, hub_file):
    code, out, err = run(capsys, ["info", hub_file])
    assert code == 0
    assert err == ""
    assert out == "k=3 n=8 m=8 Δ=6 δ=2 d̄=3 components=1\n"


def test_info_json(capsys, hub_file):
    code, out, _ = run(capsys, ["info", "--json", hub_file])
    assert code == 0
    payload = json.loads(out)
    assert payload["schema"] == SCHEMA
    g = payload["graph"]
    assert (g["k"], g["n"], g["m"]) == (3, 8, 8)
    assert g["indexing"] == "1-based"
    assert g["edges"][0] == [1, 2, 3]  # ids are printed 1-based
    assert g["degrees"] == [2, 2, 2, 6, 6, 2, 2, 2]
    assert g["connected"] is True
    assert g["components"] == [list(range(1, 9))]


def test_malformed_file_exits_2(capsys, tmp_path):
    bad = tmp_path / "bad.khg"
    bad.write_text("3 4 1\n1 2 9\n")
    code, _, err = run(capsys, ["info", str(bad)])
    assert code == 2
    assert "line 2" in err
    assert "vertex id 9" in err


def test_missing_file_exits_2(capsys, tmp_path):
    code, _, err = run(capsys, ["info", str(tmp_path / "nope.khg")])
    assert code == 2
    assert err.startswith("error:")


# ---------------------------------------------------------------- spectral


def test_spectral_text_single_kind(capsys, k6_file):
    code, out, _ = run(capsys, ["spectral", "--kind", "Q", k6_file])
    assert code == 0
    lines = out.splitlines()
    m = re.fullmatch(r"signless radius nu1 = (\S+) \(converged=True\)", lines[0])
    assert m and abs(float(m.group(1)) - 2.0) <= 1e-8
    assert not any(line.startswith("adjacency") for line in lines)
    assert all("[ok]" in line for line in lines[1:])


def test_spectral_text_builds_no_structural_pairs(capsys, monkeypatch, hub_file):
    # text mode prints no structural pairs, so it must not pay for them
    def refuse(*args, **kwargs):
        raise AssertionError("text mode built structural eigenpairs")

    monkeypatch.setattr(report, "structural_eigenpairs", refuse)
    code, out, _ = run(capsys, ["spectral", "--kind", "all", hub_file])
    assert code == 0
    assert out.startswith("adjacency radius lambda1 = ")


def test_spectral_json_all(capsys, hub_file):
    code, out, _ = run(capsys, ["spectral", "--json", hub_file])
    assert code == 0
    payload = json.loads(out)
    assert payload["converged"] is True
    assert payload["all_checks_hold"] is True
    spec = payload["spectral"]
    assert abs(spec["adjacency_radius"]["value"] - 3.671149911001594) <= 1e-8
    assert abs(spec["signless_radius"]["value"] - 8.54744467355454) <= 1e-8
    assert spec["adjacency_radius"]["components"][0]["vertices"] == list(range(1, 9))
    assert {row["id"] for row in payload["checks"]}  # at least one degree bound
    assert all(row["holds"] for row in payload["checks"])
    assert len(payload["structural"]["adjacency"]) >= 2
    assert len(payload["structural"]["signless_laplacian"]) >= 3


def test_spectral_nonconvergence_exits_3(capsys, hub_file):
    code, out, _ = run(capsys, ["spectral", "--kind", "A", "--max-iter", "1", hub_file])
    assert code == 3
    assert "converged=False" in out  # still reports what it got


def test_a_budget_that_stops_q_before_its_freeze_exits_3(capsys, hub_file):
    # A converges within 16 steps on the hub graph, Q does not (see
    # test_only_a_polish_on_freezing_counts_toward_converged)
    code, _, _ = run(capsys, ["spectral", "--kind", "all", "--max-iter", "16", hub_file])
    assert code == 3


@pytest.mark.parametrize("command", ["spectral", "alpha"])
@pytest.mark.parametrize("cap", ["0", "-3"])
def test_iteration_cap_below_one_exits_2(capsys, hub_file, command, cap):
    with pytest.raises(SystemExit) as exc:
        main([command, "--max-iter", cap, hub_file])
    assert exc.value.code == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "--max-iter" in captured.err


@pytest.mark.parametrize(
    "command",
    [
        ["spectral", "--kind", "A"],
        ["verify", "--kind", "A", "--lambda", "123", "--x", "1,0.5,1,1,1,1,1,1"],
        ["report"],
    ],
    ids=["spectral", "verify", "report"],
)
@pytest.mark.parametrize("tol", ["nan", "inf", "-1", "0"])
def test_bad_tolerance_exits_2(capsys, hub_file, command, tol):
    code, out, err = run(capsys, [*command, f"--tol={tol}", hub_file])
    assert code == 2
    assert out == ""
    assert "tolerance must be finite and above 0" in err


@pytest.mark.parametrize("command", ["alpha", "report"])
def test_negative_starts_exit_2(capsys, path_file, command):
    with pytest.raises(SystemExit) as exc:
        main([command, "--starts", "-3", path_file])
    assert exc.value.code == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "--starts" in captured.err


def test_zero_starts_runs_the_deterministic_starts(capsys, path_file):
    code, out, _ = run(capsys, ["alpha", "--json", "--starts", "0", path_file])
    assert code == 0
    block = json.loads(out)["alpha"]
    assert block["starts"] == 0
    assert abs(block["value"] - (1.0 - solve_beta() ** 2)) <= 1e-4


def test_bound_failure_maps_to_exit_1(capsys, monkeypatch, path_file):
    monkeypatch.setattr(cli, "assemble_report", lambda *a, **kw: ({"schema": SCHEMA}, False, True))
    code, _, _ = run(capsys, ["report", path_file])
    assert code == 1
    monkeypatch.setattr(cli, "assemble_report", lambda *a, **kw: ({"schema": SCHEMA}, True, False))
    code, _, _ = run(capsys, ["report", path_file])
    assert code == 3


# ---------------------------------------------------------------- alpha


def test_alpha_text(capsys, tmp_path):
    f = write_khg(tmp_path / "edge.khg", single_edge(3))
    code, out, _ = run(capsys, ["alpha", "--starts", "4", f])
    assert code == 0
    m = re.fullmatch(
        r"alpha = (\S+) \(pinned vertex (\d+), kkt residual (\S+), converged=True\)",
        out.strip(),
    )
    assert m
    assert abs(float(m.group(1)) - 1.0) <= 1e-6
    assert int(m.group(2)) in (1, 2, 3)
    assert float(m.group(3)) <= 1e-8


def test_alpha_notes_disconnection(capsys, tmp_path):
    two = Hypergraph.from_edges(3, 6, [(0, 1, 2), (3, 4, 5)])
    f = write_khg(tmp_path / "two.khg", two)
    code, out, _ = run(capsys, ["info", f])
    assert code == 0 and "components=2" in out
    code, out, _ = run(capsys, ["alpha", "--starts", "2", f])
    assert code == 0
    assert out.startswith("alpha = 0 ")
    assert "disconnected" in out
    code, out, _ = run(capsys, ["alpha", "--json", "--starts", "2", f])
    payload = json.loads(out)
    assert payload["connected"] is False
    assert payload["alpha"]["value"] <= 1e-6
    assert "disconnected" in payload["note"]


def test_alpha_json(capsys, path_file):
    code, out, _ = run(capsys, ["alpha", "--json", "--starts", "8", path_file])
    assert code == 0
    payload = json.loads(out)
    assert payload["connected"] is True
    beta = solve_beta()
    block = payload["alpha"]
    assert abs(block["value"] - (1.0 - beta * beta)) <= 1e-4
    assert block["pinned_vertex"] in (1, 4)  # the two degree-1 ends tie
    assert block["converged"] is True
    assert len(block["per_vertex_values"]) == 4
    assert min(block["per_vertex_values"]) >= block["value"] - 1e-9


def test_starts_and_seed_are_only_echoed(capsys, hub_file):
    _, plain, _ = run(capsys, ["alpha", "--json", "--starts", "0", "--seed", "0", hub_file])
    _, other, _ = run(capsys, ["alpha", "--json", "--starts", "32", "--seed", "9", hub_file])
    assert json.loads(plain)["alpha"]["seed"] == 0
    assert json.loads(other)["alpha"]["seed"] == 9

    def unechoed(out: str) -> list[str]:
        return [line for line in out.splitlines() if '"starts":' not in line and '"seed":' not in line]

    assert plain != other
    assert unechoed(plain) == unechoed(other)


def test_alpha_json_carries_the_certified_lower_bound(capsys, path_file):
    code, out, _ = run(capsys, ["alpha", "--json", path_file])
    assert code == 0
    block = json.loads(out)["alpha"]
    assert block["lower_bound"] <= block["value"] <= block["lower_bound"] + 1e-10
    assert block["is_upper_bound"] is True


# ---------------------------------------------------------------- verify


def test_verify_signed_h_eigenpair(capsys, k6_file):
    code, out, _ = run(
        capsys,
        ["verify", "--kind", "L", "--lambda", "2", "--x", "1,1,1,-1,-1,-1", k6_file],
    )
    assert code == 0
    assert out.startswith("H-eigenpair (not H+)")


def test_verify_positive_pair(capsys, tmp_path):
    f = write_khg(tmp_path / "edge.khg", single_edge(3))
    code, out, _ = run(capsys, ["verify", "--kind", "Q", "--lambda", "2", "--x", "1,1,1", f])
    assert code == 0
    assert out.startswith("H++-eigenpair")


def test_verify_pair_with_zero_entry(capsys, tmp_path):
    two = Hypergraph.from_edges(3, 6, [(0, 1, 2), (3, 4, 5)])
    f = write_khg(tmp_path / "two.khg", two)
    code, out, _ = run(
        capsys, ["verify", "--kind", "L", "--lambda", "0", "--x", "1,1,1,0,0,0", f]
    )
    assert code == 0
    assert out.startswith("strict H+-eigenpair")


def test_verify_rejection_still_exits_0(capsys, tmp_path):
    # The tool ran fine; "not an eigenpair" is a result, not an error.
    f = write_khg(tmp_path / "edge.khg", single_edge(3))
    code, out, _ = run(capsys, ["verify", "--kind", "A", "--lambda", "5", "--x", "1,1,1", f])
    assert code == 0
    assert out.startswith("not an eigenpair")


def test_verify_json(capsys, k6_file):
    code, out, _ = run(
        capsys,
        [
            "verify", "--json", "--kind", "L", "--lambda", "2",
            "--x", "1,1,1,-1,-1,-1", k6_file,
        ],
    )
    assert code == 0
    payload = json.loads(out)
    assert payload["classification"] == "H"
    assert payload["lambda"] == 2.0
    assert payload["residual"] <= 1e-10
    assert payload["vector"] == {"support": [1, 2, 3, 4, 5, 6], "values": [1.0, 1.0, 1.0, -1.0, -1.0, -1.0]}


def test_verify_unparseable_vector_exits_2(capsys, tmp_path):
    f = write_khg(tmp_path / "edge.khg", single_edge(3))
    code, _, err = run(capsys, ["verify", "--kind", "A", "--lambda", "1", "--x", "1,2,oops", f])
    assert code == 2
    assert "--x" in err


def test_verify_wrong_length_exits_2(capsys, tmp_path):
    f = write_khg(tmp_path / "edge.khg", single_edge(3))
    code, _, err = run(capsys, ["verify", "--kind", "A", "--lambda", "1", "--x", "1,2", f])
    assert code == 2
    assert "expected (3,)" in err


# ---------------------------------------------------------------- report


def test_report_is_deterministic_and_round_trips(capsys, path_file):
    argv = ["report", "--starts", "2", path_file]
    code1, out1, _ = run(capsys, argv)
    code2, out2, _ = run(capsys, argv)
    assert code1 == code2 == 0
    assert out1 == out2  # byte-identical across runs
    payload = json.loads(out1)
    assert payload["schema"] == SCHEMA
    assert payload["all_checks_hold"] is True
    assert payload["converged"] is True
    assert payload["cuts"]["computed"] is True
    assert payload["cuts"]["edge_connectivity"] == 1
    # The emitter is the only float formatter, so parse + re-emit is lossless.
    assert emit_json(payload) + "\n" == out1


def test_report_without_cut_enumeration_or_structural_pairs(capsys, tmp_path):
    # the k2 cycle on 21 vertices: too many for the cut enumeration, too
    # small a k for the structural pairs; its alpha is the least eigenvalue
    # 2 - 2 cos(pi / 21) of the path's Dirichlet matrix
    h = Hypergraph.from_edges(2, 21, [(i, (i + 1) % 21) for i in range(21)])
    code, out, _ = run(capsys, ["report", write_khg(tmp_path / "cycle.khg", h)])
    assert code == 0
    payload = json.loads(out)
    assert payload["cuts"] == {"computed": False, "note": "n > 20, brute-force enumeration skipped"}
    assert payload["structural"] == {"note": "structural eigenpairs need k >= 3"}
    ids = [c["id"] for c in payload["checks"]]
    assert not [i for i in ids if i.startswith(("edge_connectivity_", "max_cut_"))]
    exact = 2 - 2 * math.cos(math.pi / 21)
    assert abs(payload["alpha"]["value"] - exact) <= 1e-12
    assert payload["alpha"]["lower_bound"] <= exact + 1e-12


def test_flat_float_lists_format_like_their_elements():
    values = [-0.0, 5e-324, 0.1, 2.0, 1e16, 1e22]
    want = "[-0.0, 4.9406564584124654e-324, 0.10000000000000001, 2.0, 10000000000000000.0, 1e+22]"
    assert emit_json(values) == want
    assert "[" + ", ".join(emit_json(v) for v in values) + "]" == want
    # numpy scalars and mixed lists take the element-wise path and print the same
    assert emit_json([np.float64(v) for v in values]) == want
    assert emit_json([*values, 3]) == want[:-1] + ", 3]"
    for bad in (math.nan, math.inf, -math.inf):
        with pytest.raises(ValueError, match="non-finite"):
            emit_json([1.0, bad])


def test_strings_round_trip_through_the_emitter():
    controls = "".join(map(chr, range(0x20))) + "\x7f"
    for s in ['say "hi"', "back\\slash \\\"", controls, "Δ δ d̄ ν₁ 𝟙 – ü", ""]:
        assert json.loads(emit_json(s)) == s
        assert json.loads(emit_json({s: [s]})) == {s: [s]}


def test_out_writes_file_and_keeps_stdout_quiet(capsys, tmp_path, hub_file):
    dest = tmp_path / "info.json"
    code, out, err = run(capsys, ["info", "--json", "--out", str(dest), hub_file])
    assert code == 0
    assert out == "" and err == ""
    assert json.loads(dest.read_text())["graph"]["n"] == 8


# ---------------------------------------------------------------- recorded output


RECORDED = {
    # recording name: (argv, exit code)
    "spectral": (["spectral", "--kind", "all", "--json"], 0),
    "report": (["report"], 0),
    "alpha": (["alpha", "--json"], 0),
    "spectral-max-iter-2": (["spectral", "--max-iter", "2", "--json"], 3),
    "report-tol-1e-2": (["report", "--tol", "1e-2"], 0),
    "alpha-max-iter-3": (["alpha", "--max-iter", "3", "--json"], 3),
    # text mode prints 12 significant digits, so these do not depend on the LAPACK build
    "spectral-text": (["spectral", "--kind", "all"], 0),
    "alpha-text": (["alpha"], 0),
}


@pytest.mark.parametrize("graph", ["hub", "k4_shuffled", "two_parts"])
@pytest.mark.parametrize("name", list(RECORDED))
def test_output_is_byte_identical_to_the_recording(capsys, graph, name):
    # k4_shuffled has comment and blank lines and edges with shuffled ids; two_parts
    # has two components of unequal size, so every polish there is one of several
    # segments.  The budget variants stop before the brackets close, so their
    # finishing polish is what they print.  The Newton finish solves its systems
    # with LAPACK, so a different LAPACK build may change the last digits here.
    argv, exit_code = RECORDED[name]
    code, out, _ = run(capsys, [*argv, str(DATA / f"{graph}.khg")])
    assert code == exit_code
    suffix = "txt" if name.endswith("-text") else "json"
    assert out == (DATA / f"{graph}.{name}.{suffix}").read_text()


def child_env(**overrides: str | None) -> dict[str, str]:
    """This process's environment with the package's source first on PYTHONPATH;
    an override of None removes that variable."""
    src = str(Path(cli.__file__).parents[1])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join([src, os.environ.get("PYTHONPATH", "")])}
    env.update(overrides)
    return {name: value for name, value in env.items() if value is not None}


def run_python(code: str, env: dict[str, str]) -> str:
    return subprocess.run(
        [sys.executable, "-c", code], capture_output=True, text=True, env=env, check=True
    ).stdout


def test_spectral_command_does_not_import_the_oracle():
    env = child_env()
    argv = ["spectral", "--kind", "all", "--json", str(DATA / "hub.khg")]
    done = subprocess.run(
        [sys.executable, "-X", "importtime", "-m", "hyperspec.cli", *argv],
        capture_output=True, text=True, env=env, check=True,
    )
    imported = {line.rsplit("|", 1)[-1].strip() for line in done.stderr.splitlines()}
    assert {"hyperspec.eigen", "hyperspec.report"} <= imported
    assert "hyperspec.oracle" not in imported
    assert done.stdout == (DATA / "hub.spectral.json").read_text()


def test_import_hyperspec_loads_no_numpy_and_resolves_every_name():
    code = (
        "import sys, hyperspec\n"
        "print('numpy' in sys.modules)\n"
        "print([name for name in hyperspec.__all__ if getattr(hyperspec, name, None) is None])\n"
    )
    assert run_python(code, child_env()).splitlines() == ["False", "[]"]


TASKS = Path("/proc/self/task")


@pytest.mark.skipif(not TASKS.is_dir(), reason="needs /proc/self/task to count threads")
@pytest.mark.parametrize("inherited, tasks", [(None, 1), ("2", 2)], ids=["unset", "two"])
def test_cli_runs_openblas_on_one_thread_unless_the_caller_says_otherwise(inherited, tasks):
    if tasks > 1 and (os.cpu_count() or 1) < tasks:
        pytest.skip(f"OpenBLAS starts at most one thread per core; needs {tasks} cores")
    code = "import os, hyperspec.cli\nprint(len(os.listdir('/proc/self/task')))\n"
    env = child_env(OPENBLAS_NUM_THREADS=inherited)
    assert run_python(code, env) == f"{tasks}\n"


def test_spectral_on_a_perfect_matching_stays_small(tmp_path):
    # 5,000 components share one Perron row, so memory stays O(n + components)
    n = 10_000
    path = tmp_path / "matching.khg"
    path.write_text(f"2 {n} {n // 2}\n" + "".join(f"{v} {v + 1}\n" for v in range(1, n, 2)))
    argv = [sys.executable, "-m", "hyperspec.cli", "spectral", "--json", str(path)]
    proc = subprocess.Popen(argv, stdout=subprocess.DEVNULL, env=child_env())
    _, status, usage = os.wait4(proc.pid, 0)
    proc.returncode = os.waitstatus_to_exitcode(status)
    assert proc.returncode == 0
    assert usage.ru_maxrss / 1024 < 128  # MB; ru_maxrss is in kB on Linux


def test_spectral_json_grows_linearly_in_the_components(capsys, tmp_path):
    # every vector is written on its support: an indicator pair as one entry,
    # a radius pair as its component, so twice the components make about
    # twice the output (n^2 floats under full-length vectors: four times)
    sizes = []
    for copies in (100, 200):
        n = 5 * copies  # two k3 edges sharing one vertex per copy
        h = Hypergraph.from_edges(3, n, [(v, v + 1, v + 2) for c in range(0, n, 5) for v in (c, c + 2)])
        code, out, _ = run(capsys, ["spectral", "--kind", "all", "--json", write_khg(tmp_path / f"{copies}.khg", h)])
        assert code == 0
        sizes.append(len(out))
    assert sizes[1] <= 2.2 * sizes[0]
