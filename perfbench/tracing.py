"""Spans around the package's layer boundaries, recorded from outside it.

The traced run replaces selected functions with timing wrappers where their
callers look them up (module globals and class attributes), so the package
itself is not modified.  Spans are kept in flat in-memory arrays while the run
lasts and written out once at the end; self time (a span's duration minus the
durations of its direct children) is computed from those arrays afterwards.
"""

from __future__ import annotations

import functools
import time
from array import array
from contextlib import contextmanager
from pathlib import Path

import numpy as np


def _targets() -> list[tuple[object, str, str]]:
    """(module or class, attribute, span name) of every wrapped function.

    Each is wrapped where its caller binds it: ``chunkcrf.training`` imports
    the lattice builder, the scoring and marginal functions, Viterbi and
    scipy's minimize into its own namespace, so those are patched there; the
    per-node DP loops are looked up in ``chunkcrf.inference``; ``cli`` and
    ``ingest`` hold their own references to the reader, the model loader and
    the tokenizer.

    ``features.extract`` wraps the lattice builders' per-sentence feature
    memo, the one way every family asks for an edge's feature vector.  Its
    spans cover template expansion and dictionary lookup alike, and memo
    hits, for every family: wrapping the extractor's methods instead would
    leave the linear family's lookups (done by the memo itself) in
    ``lattice.build``.
    """
    from chunkcrf import cli, inference, ingest, lattice, training

    return [
        (training, "build_lattice", "lattice.build"),
        (training, "edge_scores", "inference.scores"),
        (training, "marginals_from_scores", "inference.marginals"),
        (training, "viterbi", "inference.viterbi"),
        (training, "minimize", "training.lbfgs"),
        (training, "build_feature_space", "training.feature_space"),
        (training.ObjectiveEvaluator, "objective_and_gradient", "training.objective"),
        (inference, "forward_log", "inference.forward"),
        (inference, "backward_log", "inference.backward"),
        (inference, "viterbi_path", "inference.viterbi_path"),
        (lattice._FeatureMemo, "segment", "features.extract"),
        (lattice._FeatureMemo, "transition", "features.extract"),
        (lattice._FeatureMemo, "token_context", "features.extract"),
        (lattice._FeatureMemo, "token_transition", "features.extract"),
        (cli, "read_jsonl", "ingest.read"),
        (ingest, "read_jsonl", "ingest.read"),
        (cli, "load_model", "training.load"),
        (ingest, "tokenize", "core.tokenize"),
    ]


class Tracer:
    """Flat span store: name, context, parent, start and end per span.

    The context is the (phase, model kind) the benchmark is in when the span
    opens; spans nest through a stack, so the run must stay single-threaded.
    """

    def __init__(self) -> None:
        self.names: list[str] = []
        self.contexts: list[tuple[str, str]] = []
        self._name_ids: dict[str, int] = {}
        self._context_ids: dict[tuple[str, str], int] = {}
        self._context = self._context_id(("", ""))
        self._stack: list[int] = []
        self.name = array("i")
        self.context = array("i")
        self.parent = array("q")
        self.start = array("q")
        self.end = array("q")

    def _name_id(self, name: str) -> int:
        if name not in self._name_ids:
            self._name_ids[name] = len(self.names)
            self.names.append(name)
        return self._name_ids[name]

    def _context_id(self, context: tuple[str, str]) -> int:
        if context not in self._context_ids:
            self._context_ids[context] = len(self.contexts)
            self.contexts.append(context)
        return self._context_ids[context]

    def set_context(self, phase: str, kind: str = "") -> None:
        self._context = self._context_id((phase, kind))

    def _open(self, name_id: int) -> int:
        idx = len(self.start)
        self.name.append(name_id)
        self.context.append(self._context)
        self.parent.append(self._stack[-1] if self._stack else -1)
        self.end.append(0)
        self._stack.append(idx)
        self.start.append(time.perf_counter_ns())
        return idx

    def _close(self, idx: int) -> None:
        self.end[idx] = time.perf_counter_ns()
        self._stack.pop()

    @contextmanager
    def span(self, name: str):
        idx = self._open(self._name_id(name))
        try:
            yield
        finally:
            self._close(idx)

    def wrap(self, name: str, fn):
        name_id = self._name_id(name)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = self._open(name_id)
            try:
                return fn(*args, **kwargs)
            finally:
                self._close(idx)

        return traced

    def install(self):
        """Wrap every target that exists; returns a function undoing it."""
        undo = []
        for owner, attr, name in _targets():
            original = owner.__dict__.get(attr) if isinstance(owner, type) else getattr(owner, attr, None)
            if original is None:
                continue
            setattr(owner, attr, self.wrap(name, original))
            undo.append((owner, attr, original))

        def uninstall() -> None:
            for owner, attr, original in reversed(undo):
                setattr(owner, attr, original)

        return uninstall

    def arrays(self) -> dict[str, np.ndarray]:
        return {
            "name": np.frombuffer(self.name, dtype=np.int32).copy(),
            "context": np.frombuffer(self.context, dtype=np.int32).copy(),
            "parent": np.frombuffer(self.parent, dtype=np.int64).copy(),
            "start_ns": np.frombuffer(self.start, dtype=np.int64).copy(),
            "end_ns": np.frombuffer(self.end, dtype=np.int64).copy(),
        }

    def dump(self, path: Path) -> None:
        """Write every span plus the name and context tables (``.npz``)."""
        np.savez_compressed(
            path,
            names=np.array(self.names),
            contexts=np.array(["/".join(c) for c in self.contexts]),
            **self.arrays(),
        )


class SpanTable:
    """Per (phase, kind, span name) totals: self seconds, inclusive seconds
    and call counts."""

    def __init__(self, tracer: Tracer) -> None:
        a = tracer.arrays()
        duration = (a["end_ns"] - a["start_ns"]).astype(np.float64) * 1e-9
        has_parent = a["parent"] >= 0
        child = np.bincount(a["parent"][has_parent], weights=duration[has_parent], minlength=len(duration))
        self_time = duration - child
        width = max(len(tracer.names), 1)
        key = a["context"].astype(np.int64) * width + a["name"]
        size = len(tracer.contexts) * width
        self._self = np.bincount(key, weights=self_time, minlength=size)
        self._incl = np.bincount(key, weights=duration, minlength=size)
        self._calls = np.bincount(key, minlength=size)
        self._width = width
        self._names = {n: i for i, n in enumerate(tracer.names)}
        self._contexts = tracer.contexts

    def _sum(self, table: np.ndarray, name: str, phase: str | None, kind: str | None) -> float:
        nid = self._names.get(name)
        if nid is None:
            return 0.0
        total = 0.0
        for cid, (p, k) in enumerate(self._contexts):
            if (phase is None or p == phase) and (kind is None or k == kind):
                total += float(table[cid * self._width + nid])
        return total

    def self_s(self, name: str, phase: str | None = None, kind: str | None = None) -> float:
        return self._sum(self._self, name, phase, kind)

    def incl_s(self, name: str, phase: str | None = None, kind: str | None = None) -> float:
        return self._sum(self._incl, name, phase, kind)

    def calls(self, name: str, phase: str | None = None, kind: str | None = None) -> int:
        return int(self._sum(self._calls, name, phase, kind))
