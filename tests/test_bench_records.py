"""Every committed BENCH_*.json record says how it was measured, and its
summary names only the benchmark's end-to-end metrics."""

import json
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
