"""Command-line interface: output formats, exit codes, determinism, environment."""

from __future__ import annotations

import json
import re

import pytest

import hyperspec.cli as cli
from hyperspec import Hypergraph, solve_beta
from hyperspec.cli import main
from hyperspec.report import SCHEMA, emit_json

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


@pytest.mark.parametrize("command", ["spectral", "alpha"])
@pytest.mark.parametrize("cap", ["0", "-3"])
def test_iteration_cap_below_one_exits_2(capsys, hub_file, command, cap):
    with pytest.raises(SystemExit) as exc:
        main([command, "--max-iter", cap, hub_file])
    assert exc.value.code == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "--max-iter" in captured.err


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
    assert payload["vector"] == [1.0, 1.0, 1.0, -1.0, -1.0, -1.0]


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


def test_out_writes_file_and_keeps_stdout_quiet(capsys, tmp_path, hub_file):
    dest = tmp_path / "info.json"
    code, out, err = run(capsys, ["info", "--json", "--out", str(dest), hub_file])
    assert code == 0
    assert out == "" and err == ""
    assert json.loads(dest.read_text())["graph"]["n"] == 8
