"""The committed benchmark points: every BENCH_*.json at the repository root."""

import json
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
POINTS = sorted(ROOT.glob("BENCH_*.json"))


def metric_names(spec: dict, kind: str) -> set:
    return {metric["name"] for metric in spec[kind]}


def test_points_are_committed():
    assert len(POINTS) >= 8


@pytest.mark.parametrize("path", POINTS, ids=[path.name for path in POINTS])
def test_point_is_correct_and_names_the_declared_metrics(path):
    # each run checked every output it made, and reports exactly the metrics
    # BENCHMARK.json declares: end to end untraced, per layer traced
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    expected = {"trace0": metric_names(spec, "end_to_end"),
                "trace1": metric_names(spec, "per_layer")}
    results = json.loads(path.read_text(encoding="utf-8"))["results"]
    workloads = {workload["name"] for workload in spec["workloads"]}
    assert set(results) == {f"{name}/{trace}" for name in workloads for trace in expected}
    for key, run in results.items():
        assert (key, run["correct"], run["failed"]) == (key, True, 0)
        assert (key, set(run["metrics"])) == (key, expected[key.rsplit("/", 1)[1]])
