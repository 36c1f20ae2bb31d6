import csv
import dataclasses
import hashlib
import json
import math
import subprocess
import sys

import numpy as np
import pytest

from entmin import entopt, kpolytope
from entmin.cli import main
from entmin.hilbert import load_state
from entmin.states import determinant_state, ghz, hexacode_state
from entmin.hilbert import save_state


def run(argv):
    return main(argv)


def test_state_build_ghz(tmp_path, capsys):
    out = tmp_path / "ghz.json"
    assert run(["state", "build", "ghz", "--n", "3", "--d", "2",
                "--out", str(out)]) == 0
    psi = load_state(out)
    assert (psi.n, psi.d) == (3, 2)
    summary = json.loads(capsys.readouterr().out)
    assert summary["state"]["amplitudes"] == 8
    assert summary["state"]["nonzeros"] == 2
    assert summary["manifest"]["command"] == "state build"


def test_state_build_graph_kind(tmp_path, capsys):
    edges = tmp_path / "tri.edges"
    edges.write_text("1 2\n2 3\n1 3\n")
    out = tmp_path / "tri.json"
    assert run(["state", "build", "graph", "--graph", str(edges),
                "--out", str(out)]) == 0
    psi = load_state(out)
    assert (psi.n, psi.d) == (3, 2)
    summary = json.loads(capsys.readouterr().out)
    assert str(edges) in summary["manifest"]["input_hashes"]


def test_entropy_report_and_hash(tmp_path, capsys):
    state_file = tmp_path / "bell.json"
    save_state(determinant_state(2), state_file)
    report_file = tmp_path / "report.json"
    assert run(["entropy", str(state_file), "--restarts", "4", "--seed", "3",
                "--out", str(report_file)]) == 0
    rep = json.loads(report_file.read_text())
    assert abs(rep["s_upper"] - 1.0) < 1e-9
    assert abs(rep["s_lower"] - 1.0) < 1e-9
    digest = hashlib.sha256(state_file.read_bytes()).hexdigest()
    assert rep["manifest"]["input_hashes"][str(state_file)] == digest
    assert rep["manifest"]["seed"] == 3


def test_entropy_csv_format(tmp_path):
    state_file = tmp_path / "bell.json"
    save_state(determinant_state(2), state_file)
    out = tmp_path / "report.csv"
    assert run(["entropy", str(state_file), "--restarts", "3",
                "--format", "csv", "--out", str(out)]) == 0
    lines = out.read_text().splitlines()
    comments = [l for l in lines if l.startswith("#")]
    assert any(l.startswith("# command:") for l in comments)
    rows = list(csv.reader(l for l in lines if not l.startswith("#")))
    assert rows[0] == ["field", "value"]
    fields = {r[0]: r[1] for r in rows[1:]}
    assert abs(float(fields["s_upper"]) - 1.0) < 1e-9


def test_entropy_overlap_bound_is_reported_apart(tmp_path, capsys):
    state_file = tmp_path / "bell.json"
    save_state(determinant_state(2), state_file)
    assert run(["entropy", str(state_file), "--restarts", "3",
                "--overlap-bound", "--out", "-"]) == 0
    rep = json.loads(capsys.readouterr().out)
    assert rep["lower_bound_witness"].startswith("subset")
    assert abs(rep["s_lower"] - 1.0) < 1e-9
    assert abs(rep["s_lower_heuristic"] - 1.0) < 1e-6


def test_entropy_embed_dim(tmp_path, capsys):
    state_file = tmp_path / "bell.json"
    save_state(determinant_state(2), state_file)
    assert run(["entropy", str(state_file), "--embed-dim", "3",
                "--restarts", "3", "--out", "-"]) == 0
    rep = json.loads(capsys.readouterr().out)
    assert abs(rep["s_upper"] - 1.0) < 1e-6
    assert len(rep["basis"][0]) == 3


def test_entropy_polytope_bound_on_hexacode(tmp_path, capsys):
    state_file = tmp_path / "hexa.json"
    assert run(["state", "build", "hexacode", "--out", str(state_file)]) == 0
    capsys.readouterr()
    assert run(["entropy", str(state_file), "--restarts", "8",
                "--polytope-bound", "--out", "-"]) == 0
    rep = json.loads(capsys.readouterr().out)
    assert rep["polytope_chain_passed"] is True
    assert rep["s_lower"] == 4.0
    assert "polytope" in rep["lower_bound_witness"]
    assert rep["s_upper"] <= 4.0 + 1e-6


def test_entropy_polytope_bound_rejects_other_states(tmp_path):
    state_file = tmp_path / "ghz.json"
    assert run(["state", "build", "ghz", "--n", "3",
                "--out", str(state_file)]) == 0
    assert run(["entropy", str(state_file), "--polytope-bound"]) == 2


def record_searches(monkeypatch):
    """Wrap entopt.minimize_entropy; the list gets each call's keyword
    arguments and its own result, before the CLI applies any floor."""
    calls = []
    orig = entopt.minimize_entropy

    def recording(*args, **kwargs):
        res = orig(*args, **kwargs)
        calls.append((kwargs, res))
        return res

    monkeypatch.setattr(entopt, "minimize_entropy", recording)
    return calls


def test_entropy_applies_the_antisymmetric_floor(tmp_path, capsys, monkeypatch):
    state_file = tmp_path / "det4.json"
    save_state(determinant_state(4), state_file)
    calls = record_searches(monkeypatch)
    assert run(["entropy", str(state_file), "--out", "-"]) == 0
    rep = json.loads(capsys.readouterr().out)
    assert abs(rep["s_lower"] - math.log2(24)) <= 1e-11
    assert rep["lower_bound_witness"] == "antisymmetric state, entropy floor log2(4!)"
    assert abs(rep["s_upper"] - math.log2(24)) <= 1e-9
    assert rep["converged"] is True
    # minimize_entropy finds the floor itself and reports the subset bound
    [(kwargs, res)] = calls
    assert kwargs == {"include_overlap_bound": False}
    assert res.lower_bound_witness == "subset (1, 2)"


def test_entropy_without_certificate_closes_at_the_subset_bound(
        tmp_path, capsys, monkeypatch):
    state_file = tmp_path / "ghz.json"
    save_state(ghz(3, 2), state_file)
    calls = record_searches(monkeypatch)
    assert run(["entropy", str(state_file), "--out", "-"]) == 0
    rep = json.loads(capsys.readouterr().out)
    assert len(calls) == 1
    assert rep["lower_bound_witness"] == "subset (1,)"
    assert abs(rep["s_upper"] - 1.0) <= 1e-9 and rep["converged"] is True


def test_entropy_closes_on_the_polytope_floor_without_the_flag(tmp_path, capsys):
    # the search finds the floor 4 itself, but s_lower stays the subset bound
    assert run(["entropy", hexacode_file(tmp_path), "--out", "-"]) == 0
    rep = json.loads(capsys.readouterr().out)
    assert (rep["s_lower"], rep["lower_bound_witness"]) == (3.0, "subset (1, 2, 3)")
    assert rep["converged"] is True
    assert abs(rep["s_upper"] - 4.0) <= 1e-9
    assert "polytope_chain_passed" not in rep


# entmin entropy --polytope-bound on hexacode at the CLI defaults: every
# row after the manifest except the basis
POLYTOPE_BOUND_ROWS = {
    "s_upper": 4.000000000000726, "s_lower": 4.0,
    "lower_bound_witness": "3-uniform outcome polytope, entropy floor 4",
    "s_lower_heuristic": None, "witness_basis_path": None,
    "polytope_chain_passed": True, "converged": True, "restarts_agreeing": 16,
    "seed": 7,
}


def test_entropy_polytope_bound_rows_are_unchanged(tmp_path, capsys):
    state = hexacode_file(tmp_path)
    assert run(["entropy", state, "--polytope-bound", "--out", "-"]) == 0
    rep = json.loads(capsys.readouterr().out)
    assert {k: rep[k] for k in POLYTOPE_BOUND_ROWS} == POLYTOPE_BOUND_ROWS
    out = tmp_path / "report.csv"
    assert run(["entropy", state, "--polytope-bound", "--format", "csv",
                "--out", str(out)]) == 0
    rows = list(csv.reader(l for l in out.read_text().splitlines()
                           if not l.startswith("#")))
    assert rows[1:] == [[k, "" if v is None else str(v)]
                        for k, v in POLYTOPE_BOUND_ROWS.items()]


REPORT_KEYS = ["manifest", "s_upper", "s_lower", "lower_bound_witness",
               "s_lower_heuristic", "basis", "converged", "restarts_agreeing",
               "seed", "witness_basis_path"]
# the CSV rows, in order; polytope_chain_passed only with --polytope-bound
CSV_FIELDS = ["s_upper", "s_lower", "lower_bound_witness", "s_lower_heuristic",
              "witness_basis_path", "polytope_chain_passed", "converged",
              "restarts_agreeing", "seed"]


def hexacode_file(tmp_path):
    state_file = tmp_path / "hexa.json"
    save_state(hexacode_state(), state_file)
    return str(state_file)


@pytest.mark.parametrize("extra, keys", [
    ([], REPORT_KEYS),
    (["--polytope-bound"], REPORT_KEYS + ["polytope_chain_passed"]),
])
def test_entropy_report_key_order(tmp_path, capsys, extra, keys):
    state = hexacode_file(tmp_path)
    assert run(["entropy", state, "--restarts", "3", "--out", "-"] + extra) == 0
    assert list(json.loads(capsys.readouterr().out)) == keys
    out = tmp_path / "report.csv"
    assert run(["entropy", state, "--restarts", "3", "--format", "csv",
                "--out", str(out)] + extra) == 0
    rows = list(csv.reader(l for l in out.read_text().splitlines()
                           if not l.startswith("#")))
    assert rows[0] == ["field", "value"]
    assert [r[0] for r in rows[1:]] == [k for k in CSV_FIELDS if k in keys]


def test_entropy_polytope_bound_rejects_unmixed_block_before_optimizing(
        tmp_path, monkeypatch, capsys):
    state_file = tmp_path / "ghz6.json"
    save_state(ghz(6, 2), state_file)

    def no_optimizer(*args, **kwargs):
        raise AssertionError("the optimizer ran on rejected input")

    monkeypatch.setattr(entopt, "minimize_entropy", no_optimizer)
    assert run(["entropy", str(state_file), "--polytope-bound"]) == 2
    err = capsys.readouterr().err
    assert err.startswith("input error: block (1, 2, 3) is not maximally mixed")


def test_entropy_polytope_bound_keeps_subset_bound_when_chain_fails(
        tmp_path, monkeypatch, capsys):
    monkeypatch.setattr(kpolytope, "verify_inf6_chain",
                        lambda: {"links": {}, "inf6": None, "passed": False})
    assert run(["entropy", hexacode_file(tmp_path), "--restarts", "3",
                "--polytope-bound", "--out", "-"]) == 0
    rep = json.loads(capsys.readouterr().out)
    value, subset = entopt.best_subset_lower_bound(hexacode_state())
    assert rep["s_lower"] == value
    assert rep["lower_bound_witness"] == f"subset {subset}"
    assert rep["polytope_chain_passed"] is False


def test_entropy_polytope_bound_above_upper_bound_exits_1(
        tmp_path, monkeypatch, capsys):
    orig = entopt.minimize_entropy

    def low_upper(*args, **kwargs):
        return dataclasses.replace(orig(*args, **kwargs), s_upper=3.5)

    monkeypatch.setattr(entopt, "minimize_entropy", low_upper)
    assert run(["entropy", hexacode_file(tmp_path), "--restarts", "3",
                "--polytope-bound", "--out", "-"]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "error: lower bound 4.0 exceeds upper bound 3.5\n"


def test_verify_ghz_lines(capsys):
    assert run(["verify", "ghz"]) == 0
    out = capsys.readouterr().out
    assert "[PASS] ghz:" in out
    assert "[FAIL]" not in out


def test_verify_manifest_records_no_seed(tmp_path, capsys):
    # no suite takes a seed from the command line: each fixes its own
    out = tmp_path / "table1.json"
    assert run(["verify", "gdet-table1", "--out", str(out)]) == 0
    assert json.loads(out.read_text())["manifest"]["seed"] is None
    with pytest.raises(SystemExit):
        run(["verify", "gdet-table1", "--seed", "3"])


def test_verify_graphs_single_m(capsys):
    assert run(["verify", "graphs", "--m", "2"]) == 0
    assert "m=2" in capsys.readouterr().out


def test_verify_graphs_m4_branch_and_cap(monkeypatch, capsys):
    # the real m = 4 search walks 2^28 graphs, so it is stubbed here
    from entmin import gf2uniform, verify
    from entmin.states import hexacode_graph

    calls = []

    def search(m, mode="exhaustive", **kwargs):
        calls.append((m, mode))
        return found

    found = []
    monkeypatch.setattr(gf2uniform, "search_maximally_uniform", search)
    assert run(["verify", "graphs", "--m", "4"]) == 0
    assert "m=4: no hits" in capsys.readouterr().out
    assert calls == [(4, "exhaustive")]
    found = [hexacode_graph()]  # any hit contradicts the m = 4 result
    report = verify.graphs_suite(4)
    assert not report["passed"]
    assert [c["name"] for c in report["checks"]] == ["m=4: no hits"]
    monkeypatch.undo()
    assert run(["verify", "graphs", "--m", "5"]) == 3


def test_table1_values(capsys):
    assert run(["table1", "--format", "json", "--out", "-"]) == 0
    rep = json.loads(capsys.readouterr().out)
    rounded = [row[3] for row in rep["rows"]]
    assert rounded == [0.50, 0.57, 0.64, 0.69, 0.74, 0.86]
    p10 = rep["rows"][-1]
    assert p10[0] == 10 and p10[1] == 10 * 2**10


def test_table1_defaults_to_csv(capsys):
    assert run(["table1"]) == 0
    lines = [l for l in capsys.readouterr().out.splitlines()
             if not l.startswith("#")]
    rows = list(csv.reader(lines))
    assert rows[0][0] == "p"
    assert [r[3] for r in rows[1:]] == ["0.5", "0.57", "0.64", "0.69",
                                        "0.74", "0.86"]


def test_polytope_vertex_csv(capsys):
    assert run(["polytope"]) == 0
    lines = [l for l in capsys.readouterr().out.splitlines()
             if not l.startswith("#")]
    rows = list(csv.reader(lines))
    assert len(rows) == 12  # header + 11 vertices
    assert rows[0][:2] == ["id", "entropy"]
    entropies = sorted(float(r[1]) for r in rows[1:])
    assert entropies[0] == 4.0
    assert abs(entropies[-1] - (17 / 6 + math.log2(3))) < 1e-9


def test_polytope_full_vertex_csv(capsys):
    assert run(["polytope", "--full"]) == 0
    lines = [l for l in capsys.readouterr().out.splitlines()
             if not l.startswith("#")]
    rows = list(csv.reader(lines))
    assert len(rows) == 29  # header + 28 vertices
    entropies = [float(r[1]) for r in rows[1:]]
    assert sum(h == 4.0 for h in entropies) == 12
    assert sum(abs(h - (17 / 6 + math.log2(3))) < 1e-9 for h in entropies) == 16


def test_polytope_chain_json(capsys):
    assert run(["polytope", "--chain", "--out", "-"]) == 0
    rep = json.loads(capsys.readouterr().out)
    assert rep["passed"] is True
    assert rep["inf6"] == 4.0
    assert set(rep["links"]) == {"a", "b", "c"}


def test_graphs_search_emission(tmp_path, capsys):
    out_dir = tmp_path / "hits"
    out_dir.mkdir()
    assert run(["graphs", "--m", "1", "--out-dir", str(out_dir),
                "--format", "csv", "--out", "-"]) == 0
    lines = [l for l in capsys.readouterr().out.splitlines()
             if not l.startswith("#")]
    rows = list(csv.reader(lines))
    assert rows[0] == ["id", "vertices", "edges", "min_stabilizer_weight"]
    assert rows[1] == ["0", "2", "1", "2"]
    assert (out_dir / "hit_0000.edges").read_text().strip() == "1 2"


def test_graphs_random_seed_defaults_to_zero(tmp_path, capsys):
    from entmin.gf2uniform import search_maximally_uniform

    assert run(["graphs", "--m", "2", "--mode", "random", "--budget", "10",
                "--format", "json", "--out", "-"]) == 0
    rep = json.loads(capsys.readouterr().out)
    assert rep["manifest"]["seed"] == 0
    assert rep["hits"] == len(search_maximally_uniform(2, "random", 10, seed=0))
    # at m = 3 the hits depend on the seed, so the written graphs show
    # which seed the draws used
    out_dir = tmp_path / "hits"
    out_dir.mkdir()
    assert run(["graphs", "--m", "3", "--mode", "random", "--budget", "2000",
                "--out-dir", str(out_dir), "--format", "json", "--out", "-"]) == 0
    rep = json.loads(capsys.readouterr().out)
    assert rep["manifest"]["seed"] == 0
    want = search_maximally_uniform(3, "random", 2000, seed=0)
    other = search_maximally_uniform(3, "random", 2000, seed=1)
    assert want and [g.edges() for g in want] != [g.edges() for g in other]
    written = [tuple(tuple(int(x) for x in line.split())
                     for line in (out_dir / f"hit_{i:04d}.edges").read_text().splitlines())
               for i in range(rep["hits"])]
    assert written == [g.edges() for g in want]


def test_exit_code_input_error():
    assert run(["entropy", "definitely_missing.json"]) == 2


def test_exit_code_capacity(tmp_path):
    assert run(["state", "build", "det", "--n", "9",
                "--out", str(tmp_path / "x.json")]) == 3


def test_entropy_basis_out(tmp_path, capsys):
    state_file = tmp_path / "bell.json"
    save_state(determinant_state(2), state_file)
    basis_file = tmp_path / "witness.json"
    assert run(["entropy", str(state_file), "--restarts", "3",
                "--basis-out", str(basis_file), "--out", "-"]) == 0
    rep = json.loads(capsys.readouterr().out)
    assert rep["witness_basis_path"] == str(basis_file)
    saved = json.loads(basis_file.read_text())
    assert saved["basis"] == rep["basis"]
    assert (saved["n"], saved["d"]) == (2, 2)


def test_console_script_runs():
    proc = subprocess.run([sys.executable, "-m", "entmin.cli", "table1"],
                          capture_output=True, text=True)
    assert proc.returncode == 0
    assert proc.stdout.splitlines()[-7].startswith("p,parties")


def test_entropy_rejects_a_nan_amplitude(tmp_path, capsys):
    state_file = tmp_path / "nan.json"
    state_file.write_text('{"n": 2, "d": 2, "amp": [[NaN, 0.0], [0, 0], [0, 0], [1, 0]]}')
    assert run(["entropy", str(state_file)]) == 2
    assert "input error" in capsys.readouterr().err


def test_entropy_of_a_product_state_prints_positive_zero(tmp_path, capsys):
    state_file = tmp_path / "zeros.json"
    state_file.write_text('{"n": 2, "d": 2, "amp": [[1, 0], [0, 0], [0, 0], [0, 0]]}')
    assert run(["entropy", str(state_file), "--format", "csv", "--out", "-"]) == 0
    rows = dict(line.split(",", 1) for line in capsys.readouterr().out.splitlines()
                if not line.startswith("#"))
    assert rows["s_upper"] == "0.0"
    assert rows["s_lower"] == "0.0"
