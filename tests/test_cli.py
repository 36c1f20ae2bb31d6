import csv
import dataclasses
import hashlib
import json
import math
import subprocess
import sys

import numpy as np
import pytest

from entmin import cli, entopt, gf2uniform, kpolytope, states, verify
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
    assert summary["manifest"]["parameters"] == {"kind": "graph", "graph": str(edges)}


@pytest.mark.parametrize("argv, shape, params", [
    (["ghz"], (3, 2), {"n": 3, "d": 2}),
    (["ghz", "--n", "4"], (4, 2), {"n": 4, "d": 2}),
    (["det"], (3, 3), {"n": 3}),
    (["gdet", "--p", "2"], (8, 2), {"d": 2, "p": 2}),
    (["hexacode"], (6, 2), {}),
], ids=["ghz", "ghz-n4", "det", "gdet-p2", "hexacode"])
def test_state_build_records_the_kinds_own_parameters(tmp_path, capsys, argv, shape, params):
    out = tmp_path / "s.json"
    assert run(["state", "build", *argv, "--out", str(out)]) == 0
    psi = load_state(out)
    assert (psi.n, psi.d) == shape
    manifest = json.loads(capsys.readouterr().out)["manifest"]
    assert manifest["parameters"] == {"kind": argv[0], **params}


def forbid_work(monkeypatch):
    """Make every state constructor, state load, search, suite and table
    fail the test when called."""
    def fail(*args, **kwargs):
        raise AssertionError("work started before the arguments were checked")

    for mod, names in ((states, ("ghz", "determinant_state", "generalized_determinant",
                                 "graph_state", "load_graph", "hexacode_state",
                                 "log2_factorial")),
                       (cli, ("load_state",)), (verify, ("run_suite",)),
                       (kpolytope, ("enumerate_vertices_p53", "verify_inf6_chain")),
                       (gf2uniform, ("search_maximally_uniform",))):
        for name in names:
            monkeypatch.setattr(mod, name, fail)


@pytest.mark.parametrize("kind, flag", [
    ("ghz", ["--p", "2"]), ("det", ["--d", "3"]), ("gdet", ["--n", "4"]),
    ("graph", ["--d", "2"]), ("hexacode", ["--n", "9"]),
], ids=["ghz", "det", "gdet", "graph", "hexacode"])
def test_state_build_rejects_a_flag_of_another_kind(monkeypatch, tmp_path, capsys, kind, flag):
    forbid_work(monkeypatch)
    edges = tmp_path / "tri.edges"
    edges.write_text("1 2\n2 3\n1 3\n")
    graph = ["--graph", str(edges)] if kind == "graph" else []
    out = tmp_path / "s.json"
    assert run(["state", "build", kind, *flag, *graph, "--out", str(out)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"input error: kind {kind!r} takes no {flag[0]}\n"
    assert not out.exists()


@pytest.mark.parametrize("argv", [
    ["state", "build", "ghz", "--out", "{missing}/s.json"],
    ["entropy", "{state}", "--out", "{missing}/r.json"],
    ["entropy", "{state}", "--basis-out", "{missing}/w.json"],
    ["verify", "det", "--out", "{missing}/r.json"],
    ["table1", "--out", "{missing}/t.csv"],
    ["table1", "--out", "{tmp}"],
    ["polytope", "--out", "{missing}/p.csv"],
    ["polytope", "--chain", "--out", "{missing}/c.json"],
    ["graphs", "--m", "1", "--out", "{missing}/g.json"],
    ["graphs", "--m", "1", "--out-dir", "{missing}"],
    ["graphs", "--m", "2", "--out-dir", "{state}"],
], ids=["state-build", "entropy-out", "entropy-basis-out", "verify", "table1",
        "table1-out-is-a-directory", "polytope", "polytope-chain", "graphs-out",
        "graphs-out-dir-missing", "graphs-out-dir-file"])
def test_output_paths_are_checked_before_any_work(monkeypatch, tmp_path, capsys, argv):
    state = hexacode_file(tmp_path)
    forbid_work(monkeypatch)
    missing = tmp_path / "missing"
    argv = [a.format(missing=missing, state=state, tmp=tmp_path) for a in argv]
    assert run(argv) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("input error: ")
    assert not missing.exists()


@pytest.mark.parametrize("argv", [
    ["state", "build", "ghz", "--out", "-"],
    ["entropy", "{state}", "--basis-out", "-", "--out", "r.json"],
    ["entropy", "{state}", "--basis-out", "-"],
    ["verify", "ghz", "--out", "-"],
], ids=["state-build", "entropy-basis-out", "entropy-basis-out-report-on-stdout",
        "verify"])
def test_stdout_is_refused_where_it_is_taken(monkeypatch, tmp_path, capsys, argv):
    # stdout carries the build summary and the PASS/FAIL lines, and may
    # carry the entropy report, so '-' would name a file in the working
    # directory
    state = hexacode_file(tmp_path)
    forbid_work(monkeypatch)
    monkeypatch.chdir(tmp_path)
    before = set(tmp_path.iterdir())
    assert run([a.format(state=state) for a in argv]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("input error: --")
    assert "cannot be '-'" in captured.err
    assert set(tmp_path.iterdir()) == before


@pytest.mark.parametrize("argv, message", [
    (["entropy", "s.json", "--out", "{tmp}/s.json"], "--out {tmp}/s.json would overwrite"),
    (["entropy", "s.json", "--basis-out", "./s.json"], "--basis-out ./s.json would overwrite"),
    (["state", "build", "graph", "--graph", "g.edges", "--out", "g.edges"],
     "--out g.edges would overwrite"),
    (["entropy", "s.json", "--out", "r.json", "--basis-out", "{tmp}/r.json"],
     "--out and --basis-out name the same file"),
], ids=["entropy-out-is-the-state", "basis-out-is-the-state", "build-out-is-the-graph",
        "out-is-basis-out"])
def test_no_output_overwrites_an_input_or_another_output(monkeypatch, tmp_path, capsys,
                                                         argv, message):
    forbid_work(monkeypatch)
    monkeypatch.chdir(tmp_path)
    save_state(ghz(3, 2), "s.json")
    (tmp_path / "g.edges").write_text("1 2\n2 3\n")
    before = {p.name: p.read_bytes() for p in tmp_path.iterdir()}
    assert run([a.format(tmp=tmp_path) for a in argv]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("input error: " + message.format(tmp=tmp_path))
    assert {p.name: p.read_bytes() for p in tmp_path.iterdir()} == before


@pytest.mark.parametrize("kind", ["ghz", "det", "gdet", "graph", "hexacode"])
def test_state_build_checks_out_before_building(monkeypatch, tmp_path, capsys, kind):
    forbid_work(monkeypatch)
    edges = tmp_path / "tri.edges"
    edges.write_text("1 2\n2 3\n1 3\n")
    assert run(["state", "build", kind, "--graph", str(edges)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "needs --out" in captured.err


def test_polytope_refuses_chain_with_full(monkeypatch, capsys):
    # the chain report has no place for the whole polytope's vertices
    forbid_work(monkeypatch)
    monkeypatch.setattr(kpolytope, "enumerate_vertices_generic",
                        lambda *a: pytest.fail("enumeration started"))
    with pytest.raises(SystemExit) as exc:
        run(["polytope", "--chain", "--full"])
    assert exc.value.code == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "not allowed with argument" in captured.err


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


def test_entropy_takes_no_embed_dim_option(tmp_path):
    # a state is searched at its own local dimension; none is padded
    with pytest.raises(SystemExit) as exc:
        run(["entropy", hexacode_file(tmp_path), "--embed-dim", "3"])
    assert exc.value.code == 2


def test_entropy_takes_no_polytope_bound_option(tmp_path):
    # the search returns the polytope floor itself; no option asks for it
    with pytest.raises(SystemExit) as exc:
        run(["entropy", hexacode_file(tmp_path), "--polytope-bound"])
    assert exc.value.code == 2


def record_searches(monkeypatch):
    """Wrap entopt.minimize_entropy; the list gets each call's keyword
    arguments and its result."""
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
    # s_lower is the subset bound; the floor is the antisymmetric one
    assert (rep["s_lower"], rep["lower_bound_witness"]) == (2.5849625007211565,
                                                            "subset (1, 2)")
    assert rep["floor"] == math.log2(24) - 1e-12
    assert rep["floor_witness"] == "antisymmetric state, entropy floor log2(4!)"
    assert abs(rep["s_upper"] - math.log2(24)) <= 1e-9
    assert rep["converged"] is True
    # the report is minimize_entropy's result as it is
    [(kwargs, res)] = calls
    assert kwargs == {"include_overlap_bound": False}
    assert {k: rep[k] for k in entopt.result_to_dict(res)} == entopt.result_to_dict(res)


def test_entropy_without_certificate_closes_at_the_subset_bound(
        tmp_path, capsys, monkeypatch):
    state_file = tmp_path / "ghz.json"
    save_state(ghz(3, 2), state_file)
    calls = record_searches(monkeypatch)
    assert run(["entropy", str(state_file), "--out", "-"]) == 0
    rep = json.loads(capsys.readouterr().out)
    assert len(calls) == 1
    assert rep["lower_bound_witness"] == rep["floor_witness"] == "subset (1,)"
    assert rep["s_lower"] == rep["floor"]
    assert abs(rep["s_upper"] - 1.0) <= 1e-9 and rep["converged"] is True


def test_entropy_closes_on_the_polytope_floor_without_the_flag(tmp_path, capsys):
    # the search finds the floor 4 itself and reports it as the floor, but
    # s_lower stays the subset bound, which the benchmark parses
    assert run(["entropy", hexacode_file(tmp_path), "--out", "-"]) == 0
    rep = json.loads(capsys.readouterr().out)
    assert (rep["s_lower"], rep["lower_bound_witness"]) == (3.0, "subset (1, 2, 3)")
    assert (rep["floor"], rep["floor_witness"]) == (
        4.0, "3-uniform outcome polytope, entropy floor 4")
    assert rep["converged"] is True
    assert abs(rep["s_upper"] - 4.0) <= 1e-9


# entmin entropy on hexacode at the CLI defaults: every row after the
# manifest except the basis
POLYTOPE_BOUND_ROWS = {
    "s_upper": 4.000000000000726, "s_lower": 3.0,
    "lower_bound_witness": "subset (1, 2, 3)", "floor": 4.0,
    "floor_witness": "3-uniform outcome polytope, entropy floor 4",
    "s_lower_heuristic": None, "witness_basis_path": None,
    "converged": True, "restarts_agreeing": 16, "seed": 7,
}


def test_entropy_polytope_bound_rows_are_unchanged(tmp_path, capsys):
    state = hexacode_file(tmp_path)
    assert run(["entropy", state, "--out", "-"]) == 0
    rep = json.loads(capsys.readouterr().out)
    assert {k: rep[k] for k in POLYTOPE_BOUND_ROWS} == POLYTOPE_BOUND_ROWS
    out = tmp_path / "report.csv"
    assert run(["entropy", state, "--format", "csv", "--out", str(out)]) == 0
    rows = list(csv.reader(l for l in out.read_text().splitlines()
                           if not l.startswith("#")))
    assert rows[1:] == [[k, "" if v is None else str(v)]
                        for k, v in POLYTOPE_BOUND_ROWS.items()]


REPORT_KEYS = ["manifest", "s_upper", "s_lower", "lower_bound_witness",
               "floor", "floor_witness", "s_lower_heuristic", "basis",
               "converged", "restarts_agreeing", "seed", "witness_basis_path"]
# the CSV rows, in order
CSV_FIELDS = ["s_upper", "s_lower", "lower_bound_witness", "floor",
              "floor_witness", "s_lower_heuristic", "witness_basis_path",
              "converged", "restarts_agreeing", "seed"]


def hexacode_file(tmp_path):
    state_file = tmp_path / "hexa.json"
    save_state(hexacode_state(), state_file)
    return str(state_file)


# no option adds or removes a key
@pytest.mark.parametrize("extra, keys", [
    ([], REPORT_KEYS),
    (["--overlap-bound"], REPORT_KEYS),
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
    assert [r[0] for r in rows[1:]] == CSV_FIELDS


def test_entropy_polytope_bound_keeps_subset_bound_when_chain_fails(
        tmp_path, monkeypatch, capsys):
    monkeypatch.setattr(kpolytope, "verify_inf6_chain",
                        lambda: {"links": {}, "inf6": None, "passed": False})
    assert run(["entropy", hexacode_file(tmp_path), "--restarts", "3",
                "--out", "-"]) == 0
    rep = json.loads(capsys.readouterr().out)
    value, subset = entopt.best_subset_lower_bound(hexacode_state())
    assert rep["s_lower"] == rep["floor"] == value
    assert rep["lower_bound_witness"] == rep["floor_witness"] == f"subset {subset}"


def count_chain_runs(monkeypatch):
    """Wrap kpolytope.verify_inf6_chain; the list gets one entry per run."""
    runs = []
    orig = kpolytope.verify_inf6_chain

    def counting():
        runs.append(1)
        return orig()

    monkeypatch.setattr(kpolytope, "verify_inf6_chain", counting)
    return runs


def test_the_chain_runs_once_per_hexacode_search(tmp_path, monkeypatch, capsys):
    from entmin import verify

    runs = count_chain_runs(monkeypatch)
    assert run(["entropy", hexacode_file(tmp_path), "--out", "-"]) == 0
    assert json.loads(capsys.readouterr().out)["floor"] == 4.0
    assert len(runs) == 1
    report = verify.hexacode_suite()
    assert report["passed"] and len(runs) == 2
    assert run(["verify", "hexacode"]) == 0
    assert len(runs) == 3


def test_entropy_polytope_bound_above_upper_bound_exits_1(
        tmp_path, monkeypatch, capsys):
    orig = entopt.minimize_entropy

    def low_upper(*args, **kwargs):
        return dataclasses.replace(orig(*args, **kwargs), s_upper=3.5)

    monkeypatch.setattr(entopt, "minimize_entropy", low_upper)
    # the floor 4 the search returns is above the forged s_upper
    assert run(["entropy", hexacode_file(tmp_path), "--restarts", "3",
                "--out", "-"]) == 1
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


@pytest.mark.parametrize("suite", ["det", "all"])
def test_verify_takes_m_for_graphs_only(monkeypatch, tmp_path, capsys, suite):
    from entmin import verify

    def fail(*args, **kwargs):
        raise AssertionError("a suite ran before --m was checked")

    monkeypatch.setattr(verify, "run_suite", fail)
    out = tmp_path / "report.json"
    assert run(["verify", suite, "--m", "4", "--out", str(out)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "--m applies to the graphs suite only" in captured.err
    assert not out.exists()


def test_verify_graphs_m4_branch_and_cap(monkeypatch, capsys):
    # the real m = 4 search walks 2^28 graphs, so it is stubbed here
    from entmin import gf2uniform, verify
    from entmin.states import hexacode_graph

    calls = []

    def search(m):
        calls.append(m)
        return found

    found = []
    monkeypatch.setattr(gf2uniform, "search_maximally_uniform", search)
    assert run(["verify", "graphs", "--m", "4"]) == 0
    assert "m=4: no hits" in capsys.readouterr().out
    assert calls == [4]
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


def test_graphs_manifest_records_no_seed(capsys):
    # the search is exhaustive, so nothing in it is drawn
    assert run(["graphs", "--m", "2", "--format", "json", "--out", "-"]) == 0
    rep = json.loads(capsys.readouterr().out)
    assert rep["manifest"]["seed"] is None
    assert rep["manifest"]["parameters"] == {"m": 2, "out_dir": None}
    assert rep["hits"] == 0


def test_graphs_takes_no_mode_option():
    # there is no sampling: the exhaustive scan covers every graph within its cap
    with pytest.raises(SystemExit) as exc:
        run(["graphs", "--m", "3", "--mode", "random"])
    assert exc.value.code == 2


def test_exit_code_input_error():
    assert run(["entropy", "definitely_missing.json"]) == 2


def test_exit_code_capacity(tmp_path):
    assert run(["state", "build", "det", "--n", "9",
                "--out", str(tmp_path / "x.json")]) == 3


def test_a_huge_gdet_exits_3_without_building_its_size(tmp_path, capsys):
    # 40 * 2**40 parties: 2 to that power is never built
    assert run(["state", "build", "gdet", "--p", "40", "--out", str(tmp_path / "x.json")]) == 3
    assert capsys.readouterr().err.startswith("capacity: ")
    assert not (tmp_path / "x.json").exists()


@pytest.mark.parametrize("restarts", ["2", "3"])
def test_negative_seed_exits_2_before_the_search(tmp_path, capsys, monkeypatch, restarts):
    def no_search(*args, **kwargs):
        raise AssertionError("the search ran")

    monkeypatch.setattr(entopt, "minimize_entropy", no_search)
    assert run(["entropy", hexacode_file(tmp_path), "--seed", "-1",
                "--restarts", restarts, "--out", "-"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "input error: seed = -1 must be >= 0\n"


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
