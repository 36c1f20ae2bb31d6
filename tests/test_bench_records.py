"""Every committed BENCH_*.json record says how it was measured, its
summary names only the benchmark's end-to-end metrics, and the summary's
medians and pair counts are those of its runs, all of them correct."""

import json
import statistics
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
RECORDS = sorted(ROOT.glob("BENCH_*.json"))
REQUIRED = ["label", "parent_commit", "command", "python", "numpy", "cpu_count",
            "blas_threads", "summary", "runs"]
# summary entries that are not metrics: each run's pass count
NOT_METRICS = {"passes"}


def end_to_end_names():
    return {m["name"] for m in json.loads((ROOT / "BENCHMARK.json").read_text())["end_to_end"]}


def test_there_are_records():
    assert RECORDS


@pytest.mark.parametrize("path", RECORDS, ids=[p.name for p in RECORDS])
def test_record_has_its_provenance(path):
    record = json.loads(path.read_text())
    assert [k for k in REQUIRED if k not in record] == []
    assert record["summary"] and record["runs"]


@pytest.mark.parametrize("path", RECORDS, ids=[p.name for p in RECORDS])
def test_summary_names_end_to_end_metrics(path):
    names = end_to_end_names()
    for workload, metrics in json.loads(path.read_text())["summary"].items():
        unknown = set(metrics) - names - NOT_METRICS
        assert not unknown, f"{workload}: {sorted(unknown)} are not end_to_end metrics"


def sides(record, workload):
    runs = record["runs"][workload]
    return {side: [r for r in runs if r["side"] == side] for side in ("parent", "change")}


@pytest.mark.parametrize("path", RECORDS, ids=[p.name for p in RECORDS])
def test_summary_medians_come_from_the_runs(path):
    record = json.loads(path.read_text())
    for workload, metrics in record["summary"].items():
        runs = sides(record, workload)
        for name, row in metrics.items():
            if name in NOT_METRICS:
                continue
            for side, runs_of_side in runs.items():
                want = statistics.median(r[name] for r in runs_of_side)
                assert row[f"{side}_median"] == want, (workload, name, side)


@pytest.mark.parametrize("path", RECORDS, ids=[p.name for p in RECORDS])
def test_pairs_match_the_runs_on_each_side(path):
    record = json.loads(path.read_text())
    for workload, metrics in record["summary"].items():
        counts = {side: len(r) for side, r in sides(record, workload).items()}
        for name, row in metrics.items():
            if name not in NOT_METRICS:
                assert counts == {"parent": row["pairs"], "change": row["pairs"]}, (workload, name)


@pytest.mark.parametrize("path", RECORDS, ids=[p.name for p in RECORDS])
def test_every_run_is_correct_and_failed_nothing(path):
    record = json.loads(path.read_text())
    for workload, runs in record["runs"].items():
        for run in runs:
            assert run["correct"] is True and run["failed"] == 0, (workload, run["seed"])
