"""Guards on the benchmark in ``perfbench/``.

Its tracer wraps package functions by name and silently skips a name that no
longer exists, so a rename would zero its per-layer metrics without any
error: pin every name it wraps.  A function that still exists but is no
longer called zeroes them just as silently: pin which spans stay empty.  And
run its smoke test, which drives the package as the benchmark does."""

import importlib.util
import subprocess
import sys
from pathlib import Path

import numpy as np

from chunkcrf import cli
from chunkcrf.ingest import write_jsonl
from chunkcrf.lattice import MODEL_KINDS
from chunkcrf.synth import separable_corpus
from chunkcrf.training import Dataset, ObjectiveEvaluator, TrainConfig, save_model, train

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"
TRACING = PERFBENCH / "tracing.py"

# Spans no run of the package opens: the reverse pass replaced the backward
# sweep, lattices compile features through attribute patterns, not the
# per-slot memo, and only the benchmark's own set-up calls build_feature_space.
SILENT_SPANS = {"inference.backward", "features.extract", "training.feature_space"}


def load_tracing():
    spec = importlib.util.spec_from_file_location("perfbench_tracing", TRACING)
    tracing = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracing)
    return tracing


def test_every_traced_name_exists():
    tracing = load_tracing()
    targets = tracing._targets()
    missing = [f"{owner.__name__}.{attr}" for owner, attr, _ in targets if not callable(getattr(owner, attr, None))]
    assert targets and missing == []


def test_only_the_pinned_spans_stay_empty(tmp_path):
    """Train, evaluate once, predict in-process and through ``chunkcrf
    predict`` under the tracer: every span but the pinned ones is opened."""
    corpus = separable_corpus(6, seed=3)
    messages = tmp_path / "messages.jsonl"
    write_jsonl(messages, corpus)
    dataset = Dataset.from_annotated(corpus)
    tracer = load_tracing().Tracer()
    uninstall = tracer.install()
    try:
        for kind in MODEL_KINDS:
            config = TrainConfig(kind, lam=0.1, max_seg_len=3, max_iterations=3)
            model = train(dataset, config)
            ObjectiveEvaluator(dataset, model.label_set, config, model.dictionary).objective_and_gradient(model.weights)
            model.predict(dataset.items[0].sentence)
            path = tmp_path / f"{kind}.ckcrf"
            save_model(model, str(path))
            assert cli.main(["predict", "--model-file", str(path), "--input", str(messages),
                             "--out", str(tmp_path / f"{kind}.out.jsonl")]) == cli.EXIT_OK
    finally:
        uninstall()
    calls = np.bincount(tracer.arrays()["name"], minlength=len(tracer.names))
    assert {name for name, count in zip(tracer.names, calls) if count == 0} == SILENT_SPANS


def test_benchmark_smoke_run_passes():
    # The benchmark drives the package in-process (``cli.main(["predict", ...])``
    # among others), so a change that breaks it should fail here.
    proc = subprocess.run(
        [sys.executable, str(PERFBENCH / "smoke.py")], capture_output=True, text=True, timeout=300
    )
    assert proc.returncode == 0, proc.stdout[-2000:] + proc.stderr[-2000:]
    assert "smoke test passed" in proc.stdout
