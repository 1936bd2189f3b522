"""Guards on the benchmark in ``perfbench/``.

Its tracer wraps package functions by name and silently skips a name that no
longer exists, so a rename would zero its per-layer metrics without any
error: pin every name it wraps.  And run its smoke test, which drives the
package as the benchmark does."""

import importlib.util
import subprocess
import sys
from pathlib import Path

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"
TRACING = PERFBENCH / "tracing.py"


def test_every_traced_name_exists():
    spec = importlib.util.spec_from_file_location("perfbench_tracing", TRACING)
    tracing = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracing)
    targets = tracing._targets()
    missing = [f"{owner.__name__}.{attr}" for owner, attr, _ in targets if not callable(getattr(owner, attr, None))]
    assert targets and missing == []


def test_benchmark_smoke_run_passes():
    # The benchmark drives the package in-process (``cli.main(["predict", ...])``
    # among others), so a change that breaks it should fail here.
    proc = subprocess.run(
        [sys.executable, str(PERFBENCH / "smoke.py")], capture_output=True, text=True, timeout=300
    )
    assert proc.returncode == 0, proc.stdout[-2000:] + proc.stderr[-2000:]
    assert "smoke test passed" in proc.stdout
