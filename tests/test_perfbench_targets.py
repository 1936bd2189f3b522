"""The benchmark's tracer wraps package functions by name and silently skips
a name that no longer exists, so a rename would zero its per-layer metrics
without any error.  Pin every name it wraps."""

import importlib.util
from pathlib import Path

TRACING = Path(__file__).resolve().parent.parent / "perfbench" / "tracing.py"


def test_every_traced_name_exists():
    spec = importlib.util.spec_from_file_location("perfbench_tracing", TRACING)
    tracing = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracing)
    targets = tracing._targets()
    missing = [f"{owner.__name__}.{attr}" for owner, attr, _ in targets if not callable(getattr(owner, attr, None))]
    assert targets and missing == []
