"""Benchmark of the chunkcrf toolkit: one workload, one seed, one run.

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload {wide,sms} --seed N --seconds S --trace {0,1}

The package is imported from ``src/`` of the checkout; nothing is installed.
The run generates its inputs from the seed, sets up (again in every other
measurement round; the median is reported), measures for about ``--seconds``
seconds in one single-threaded process with BLAS pinned to one thread, and
checks every output.  Standard output ends with one JSON line: ``correct``,
``attempted``, ``failed`` and ``metrics``.  With ``--trace 0`` the metrics are
the end-to-end ones of ``BENCHMARK.json``: peak memory, and times scaled by
a fixed yardstick timed beside each operation (see ``pipeline``), which the
shared machine's changes of speed move far less than wall seconds.  With ``--trace 1`` the
timing wrappers are installed, the metrics are the per-layer ones, and the
spans are written to ``perfbench/_work/spans-<workload>.npz``.  Before that line come a run record
(versions, machine, commit, seed, problem sizes) and, when traced, the paper
report.  Exit code 2 means the run could not start.
"""

from __future__ import annotations

import argparse
import os
import sys
from pathlib import Path

BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
for _var in BLAS_THREAD_VARS:
    os.environ[_var] = "1"

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
WORK_DIR = BENCH_DIR / "_work"


def git_commit(root: Path) -> str:
    """The checked-out commit, read from ``.git`` without running git."""
    head = root / ".git" / "HEAD"
    try:
        ref = head.read_text().strip()
        if not ref.startswith("ref: "):
            return ref
        name = ref[5:]
        loose = root / ".git" / name
        if loose.exists():
            return loose.read_text().strip()
        for line in (root / ".git" / "packed-refs").read_text().splitlines():
            if line.endswith(" " + name):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def cpu_model() -> str:
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    import platform

    return platform.processor() or "unknown"


def environment() -> dict:
    import numpy
    import scipy

    return {
        "python": sys.version.split()[0],
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "nproc": os.cpu_count(),
        "cpu": cpu_model(),
        "blas_threads": {v: os.environ[v] for v in BLAS_THREAD_VARS},
        "commit": git_commit(ROOT),
    }


def execute(workload, seed: int, seconds: float, trace: bool, workdir: Path) -> tuple[dict, dict, list[str]]:
    """Run one workload; returns the result object, the run record and the
    paper report lines (empty unless traced)."""
    import pipeline
    from layers import dp_share, paper_report, per_layer
    from tracing import SpanTable, Tracer

    run = pipeline.Run(workload, seed, seconds, workdir)
    report: list[str] = []
    if not trace:
        run.setup()
        sizes = run.sizes()
        run.warm_up()
        run.prepare_models()
        run.measure(1.0, ("setup", "iter", "loop", "cli"))
        metrics = run.end_to_end()
    else:
        shares = pipeline.TRACED_SHARES
        run.setup()
        sizes = run.sizes()
        run.warm_up()
        run.prepare_models()
        run.measure(shares["base"], ("iter",), label="base")
        run.tracer = Tracer()
        uninstall = run.tracer.install()
        try:
            run.train_phase(shares["train"])
            run.measure(shares["mixed"], ("iter", "loop", "cli"))
        finally:
            uninstall()
        run.tracer.dump(WORK_DIR / f"spans-{workload.name}.npz")
        table = SpanTable(run.tracer)
        metrics = per_layer(run, table, sizes)
        run.dp_share = dp_share(table)
        report = paper_report(workload.name, metrics, run.dp_share)
    result = {
        "correct": run.checks.failed == 0,
        "attempted": run.checks.attempted,
        "failed": run.checks.failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }
    return result, run.record(sizes), report


def main(argv: list[str] | None = None) -> int:
    from workloads import WORKLOADS

    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=float)
    parser.add_argument("--trace", required=True, type=int, choices=(0, 1))
    args = parser.parse_args(argv)
    if args.seconds <= 0 or args.seed < 0:
        parser.error("--seconds must be positive and --seed non-negative")

    if not (ROOT / "src" / "chunkcrf" / "__init__.py").is_file():
        print(f"error: package sources not found under {ROOT / 'src'}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(ROOT / "src"))

    import json
    import shutil
    import tempfile

    WORK_DIR.mkdir(exist_ok=True)
    workdir = Path(tempfile.mkdtemp(prefix=f"{args.workload}-", dir=WORK_DIR))
    try:
        result, record, report = execute(WORKLOADS[args.workload], args.seed, args.seconds, bool(args.trace), workdir)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    record["environment"] = environment()
    record["trace"] = args.trace
    print(json.dumps({"run_record": record}))
    for line in report:
        print(line)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
