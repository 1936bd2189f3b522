"""Smoke test of the benchmark itself at tiny sizes (under a minute).

    python3 perfbench/smoke.py

Checks that every workload, untraced and traced, emits exactly the metrics
``BENCHMARK.json`` names, each with its unit and a finite value, with no
failed operation; and that the semi/weak cross-family check trips when the
two families are given mismatched weights.  Exits 1 on the first failure.
"""

from __future__ import annotations

import dataclasses
import json
import math
import shutil
import sys
import tempfile
from pathlib import Path

import run as bench

sys.path.insert(0, str(bench.ROOT / "src"))

import pipeline  # noqa: E402
from workloads import WORKLOADS  # noqa: E402


def tiny(workload):
    """Two sentences to evaluate and train on, three held-out messages."""
    return dataclasses.replace(
        workload,
        eval_lengths=workload.eval_lengths[:2],
        train_lengths=workload.train_lengths[:2],
        heldout_lengths=workload.heldout_lengths[:3],
        f1_floor=None,
    )


def expect(ok: bool, what: str) -> None:
    if not ok:
        print(f"FAIL: {what}", file=sys.stderr)
        sys.exit(1)


def check_metrics(result: dict, declared: list[dict], what: str) -> None:
    expect(result["correct"] and result["failed"] == 0 and result["attempted"] >= 1, f"{what}: operations failed")
    emitted = result["metrics"]
    expect(set(emitted) == {m["name"] for m in declared}, f"{what}: metric names differ from BENCHMARK.json")
    for m in declared:
        got = emitted[m["name"]]
        expect(got["unit"] == m["unit"], f"{what}: {m['name']} has unit {got['unit']!r}, not {m['unit']!r}")
        expect(math.isfinite(got["value"]), f"{what}: {m['name']} is not finite")


def check_cross_family_trips(workdir: Path) -> None:
    run = pipeline.Run(tiny(WORKLOADS["wide"]), 1, 0.1, workdir)
    run.setup()
    semi, weak = run.families["semi"], run.families["weak"]
    semi_result = semi.evaluator.objective_and_gradient(semi.weights)
    weak_result = weak.evaluator.objective_and_gradient(weak.weights)
    strings = semi.evaluator.dictionary.strings, weak.evaluator.dictionary.strings
    ok, _ = pipeline.families_agree(semi_result, strings[0], weak_result, strings[1])
    expect(ok, "semi and weak disagree at matching weights")
    mismatched = weak.weights[::-1].copy()
    weak_result = weak.evaluator.objective_and_gradient(mismatched)
    ok, diff = pipeline.families_agree(semi_result, strings[0], weak_result, strings[1])
    expect(not ok, f"cross-family check passed mismatched weights (difference {diff:.3g})")


def main() -> int:
    declared = json.loads((bench.ROOT / "BENCHMARK.json").read_text())
    bench.WORK_DIR.mkdir(exist_ok=True)
    workdir = Path(tempfile.mkdtemp(prefix="smoke-", dir=bench.WORK_DIR))
    try:
        for name, workload in WORKLOADS.items():
            for trace, kind in ((False, "end_to_end"), (True, "per_layer")):
                result, record, _ = bench.execute(tiny(workload), 1, 0.5, trace, workdir)
                check_metrics(result, declared[kind], f"{name} trace={int(trace)}")
                expect(record["sizes"]["semi"]["edges"] > 0, f"{name}: no problem sizes in the run record")
        check_cross_family_trips(workdir)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    print("smoke test passed")
    return 0


if __name__ == "__main__":
    sys.exit(main())
