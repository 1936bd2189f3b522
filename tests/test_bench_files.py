"""Every committed ``BENCH_<n>.json`` agrees with ``BENCHMARK.json`` and with
its own runs.

A BENCH file records alternating parent/change pairs of benchmark runs per
workload: for each end-to-end metric, each side's runs (one per pair, in
pair order) and their median, the number of pairs the change won, and one
claimed metric with whether its claim was met.  These tests only read the
files.
"""

import json
import statistics
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
BENCHMARK = json.loads((ROOT / "BENCHMARK.json").read_text())
WORKLOADS = {w["name"] for w in BENCHMARK["workloads"]}
END_TO_END = {m["name"]: m for m in BENCHMARK["end_to_end"]}
MIN_PAIRS = 5  # the median of at least 5 runs per side
BENCH_FILES = sorted(ROOT.glob("BENCH_*.json"), key=lambda p: int(p.stem.split("_")[1]))
SIDES = ("parent", "change")


def better(metric: str, a: float, b: float) -> bool:
    """Whether ``a`` is better than ``b`` in the metric's direction."""
    return a < b if END_TO_END[metric]["better"] == "lower" else a > b


@pytest.fixture(params=BENCH_FILES, ids=lambda p: p.name)
def bench(request):
    return json.loads(request.param.read_text())


def test_bench_files_exist():
    assert BENCH_FILES


def test_the_claim_names_a_workload_and_an_end_to_end_metric(bench):
    claim = bench["claim"]
    assert claim["workload"] in WORKLOADS
    assert claim["metric"] in END_TO_END


def test_every_metric_of_every_workload_has_one_run_per_pair_and_side(bench):
    assert set(bench["workloads"]) == WORKLOADS
    for name, workload in bench["workloads"].items():
        pairs = workload["pairs"]
        assert pairs >= MIN_PAIRS, name
        assert set(workload["metrics"]) == set(END_TO_END), name
        for metric, record in workload["metrics"].items():
            assert record["better"] == END_TO_END[metric]["better"], (name, metric)
            for side in SIDES:
                assert len(record[side]["runs"]) == pairs, (name, metric, side)


def test_medians_and_wins_are_those_of_the_runs(bench):
    for name, workload in bench["workloads"].items():
        for metric, record in workload["metrics"].items():
            for side in SIDES:
                assert record[side]["median"] == statistics.median(record[side]["runs"]), (name, metric, side)
            pairs = zip(record["change"]["runs"], record["parent"]["runs"])
            assert record["wins"] == sum(better(metric, change, parent) for change, parent in pairs), (name, metric)


def test_met_agrees_with_the_medians(bench):
    """A claim is met when the change's median is better than the parent's
    by more than the distance between the parent's quartiles, and the change
    won at least nine pairs in ten."""
    claim = bench["claim"]
    record = bench["workloads"][claim["workload"]]["metrics"][claim["metric"]]
    parent, change = record["parent"], record["change"]
    assert claim["parent_median"] == parent["median"] and claim["change_median"] == change["median"]
    assert claim["parent_iqr"] == parent["q3"] - parent["q1"]
    assert claim["wins"] == record["wins"] and claim["pairs"] == bench["workloads"][claim["workload"]]["pairs"]
    gain = abs(change["median"] - parent["median"])
    met = (better(claim["metric"], change["median"], parent["median"]) and gain > claim["parent_iqr"]
           and 10 * claim["wins"] >= 9 * claim["pairs"])
    assert claim["met"] == met
