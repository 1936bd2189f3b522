"""Span scoring, the conversion upper bound, bootstrap comparison, and the
per-iteration training-time benchmark.

Scoring is exact-match: a predicted span counts only when both boundaries
and the label equal a gold span.  Character-level evaluation compares
original character spans; word-level evaluation compares token spans after
boundary snapping.  Each list must pass :func:`chunkcrf.core.ordered_spans`
with no upper limit: no negative offset and no overlap.

The benchmark is one function, :func:`benchmark_label_sweep`.  For each
requested label-alphabet size it builds exactly that alphabet and a
synthetic corpus over it, compiles the corpus once per model family, and
times complete objective-plus-gradient evaluations over those lattices, as
in training (edge scoring, forward-backward and gradient accumulation, no
lattice construction), on one execution lane: the unit an optimizer
iteration is built from.  Each row also reports the edge count of the real
lattices it timed.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass

import numpy as np

from .core import CharSpan, LabelSet, WordSpan, ordered_spans, span_bounds
from .ingest import AnnotatedText
from .lattice import MODEL_KINDS
from .synth import chunk_label_names, timing_corpus
from .training import Dataset, TrainConfig, compile_split

Span = CharSpan | WordSpan


@dataclass(frozen=True)
class EvalReport:
    level: str
    precision: float
    recall: float
    f1: float
    tp: int
    fp: int
    fn: int

    def row(self) -> str:
        return f"{100 * self.precision:6.2f} {100 * self.recall:6.2f} {100 * self.f1:6.2f}"


def _report(level: str, tp: int, fp: int, fn: int) -> EvalReport:
    precision = tp / (tp + fp) if tp + fp else 0.0
    recall = tp / (tp + fn) if tp + fn else 0.0
    f1 = 2 * precision * recall / (precision + recall) if precision + recall else 0.0
    return EvalReport(level, precision, recall, f1, tp, fp, fn)


def _span_keys(spans: list[Span]) -> set[tuple[int, int, str]]:
    return {(*span_bounds(span), span.label) for span in ordered_spans(spans, math.inf)}


def span_counts(gold: list[Span], predicted: list[Span]) -> tuple[int, int, int]:
    gold_keys = _span_keys(gold)
    pred_keys = _span_keys(predicted)
    tp = len(gold_keys & pred_keys)
    return tp, len(pred_keys) - tp, len(gold_keys) - tp


def score_spans(gold: list[Span], predicted: list[Span], level: str = "char") -> EvalReport:
    """Exact-match precision/recall/F1 for one span list pair."""
    tp, fp, fn = span_counts(gold, predicted)
    return _report(level, tp, fp, fn)


def score_corpus(gold: list[list[Span]], predicted: list[list[Span]], level: str = "char") -> EvalReport:
    """Micro-averaged exact-match scores over aligned per-message lists."""
    if len(gold) != len(predicted):
        raise ValueError(f"gold has {len(gold)} messages, predictions {len(predicted)}")
    tp = fp = fn = 0
    for g, p in zip(gold, predicted):
        a, b, c = span_counts(g, p)
        tp, fp, fn = tp + a, fp + b, fn + c
    return _report(level, tp, fp, fn)


def gold_upper_bound(items: list[AnnotatedText]) -> tuple[EvalReport, EvalReport]:
    """Score the gold annotation round-tripped through token boundaries.

    The character-level report is the ceiling any token-based system can
    reach; the word-level report is perfect by construction.
    """
    from .core import char_spans_to_word_spans, word_spans_to_char_spans

    char_gold, char_round, word_gold = [], [], []
    for item in items:
        word = char_spans_to_word_spans(item.sentence, list(item.char_spans))
        char_gold.append(list(item.char_spans))
        char_round.append(word_spans_to_char_spans(item.sentence, word))
        word_gold.append(word)
    char_report = score_corpus(char_gold, char_round, level="char")
    word_report = score_corpus(word_gold, word_gold, level="word")
    return char_report, word_report


@dataclass(frozen=True)
class BootstrapResult:
    delta_mean: float
    lower: float
    upper: float
    significant: bool
    resamples: int
    confidence: float


def bootstrap_interval(
    gold: list[list[Span]],
    predicted_a: list[list[Span]],
    predicted_b: list[list[Span]],
    resamples: int = 10000,
    confidence: float = 0.95,
    seed: int = 0,
) -> BootstrapResult:
    """Message-level bootstrap of the F1 difference between two systems.

    Significant when the central interval excludes zero.  Seeded, hence
    reproducible.
    """
    if not len(gold) == len(predicted_a) == len(predicted_b):
        raise ValueError("gold and both prediction lists must align message-for-message")
    counts_a = np.array([span_counts(g, p) for g, p in zip(gold, predicted_a)], dtype=np.float64)
    counts_b = np.array([span_counts(g, p) for g, p in zip(gold, predicted_b)], dtype=np.float64)

    def f1_of(sums: np.ndarray) -> np.ndarray:
        tp, fp, fn = sums[:, 0], sums[:, 1], sums[:, 2]
        denom = 2 * tp + fp + fn
        return np.where(denom > 0, 2 * tp / np.where(denom > 0, denom, 1.0), 0.0)

    rng = np.random.default_rng(seed)
    n = len(gold)
    deltas = np.empty(resamples)
    done = 0
    while done < resamples:
        chunk = min(512, resamples - done)
        idx = rng.integers(0, n, size=(chunk, n))
        deltas[done : done + chunk] = f1_of(counts_a[idx].sum(axis=1)) - f1_of(counts_b[idx].sum(axis=1))
        done += chunk
    tail = (1.0 - confidence) / 2.0
    lower, upper = np.quantile(deltas, [tail, 1.0 - tail])
    significant = bool(lower > 0.0 or upper < 0.0)
    return BootstrapResult(float(deltas.mean()), float(lower), float(upper), significant, resamples, confidence)


# ----------------------------------------------------------------------
# Training-time benchmark.
# ----------------------------------------------------------------------


@dataclass(frozen=True)
class SweepRow:
    model: str
    num_labels: int
    n: int
    max_seg_len: int
    edges: int
    sec_per_iter: float


SWEEP_CSV_HEADER = "model,num_labels,n,L,edges,sec_per_iter"


def sweep_rows_to_csv(rows: list[SweepRow]) -> str:
    lines = [SWEEP_CSV_HEADER]
    for r in rows:
        lines.append(f"{r.model},{r.num_labels},{r.n},{r.max_seg_len},{r.edges},{r.sec_per_iter:.6f}")
    return "\n".join(lines) + "\n"


def benchmark_label_sweep(
    num_label_values: tuple[int, ...] = (2, 4, 8, 16),
    sentences: int = 250,
    sentence_len: int = 10,
    max_seg_len: int = 6,
    iterations: int = 3,
    warmup: int = 1,
    seed: int = 13,
) -> list[SweepRow]:
    """Per-iteration cost of every family as the label alphabet grows, at
    fixed n and L: one row per (alphabet size, family).

    Each size counts the outside label, so size Y is ``Y - 1`` synthetic
    chunk labels plus ``O``, whether or not the sampled corpus uses them
    all.  Each family compiles the corpus once, runs ``warmup`` untimed
    evaluations at zero weights, then reports the mean wall-clock time of
    ``iterations`` more and the edge count of the lattices they ran on.
    The conventional segment lattice grows quadratically in the alphabet
    size, the split-node one linearly (for its segment edges), so the
    semi/weak ratio grows with the alphabet.
    """
    if not num_label_values:
        raise ValueError("need at least one label-alphabet size")
    for num_labels in num_label_values:
        if num_labels < 2:
            raise ValueError(f"label-alphabet sizes count the outside label and must be >= 2, got {num_labels}")
    for name, value, least in (("sentences", sentences, 1), ("sentence length", sentence_len, 1),
                               ("max_seg_len", max_seg_len, 1), ("iterations", iterations, 1),
                               ("warmup", warmup, 0)):
        if value < least:
            raise ValueError(f"{name} must be >= {least}, got {value}")

    rows: list[SweepRow] = []
    for num_labels in num_label_values:
        label_set = LabelSet(tuple(chunk_label_names(num_labels - 1)))
        corpus = timing_corpus(sentences, num_labels - 1, seed=seed, sentence_len=sentence_len)
        dataset = Dataset.from_annotated(corpus)
        for kind in MODEL_KINDS:
            config = TrainConfig(model_kind=kind, lam=1.0, max_seg_len=max_seg_len)
            evaluator, _ = compile_split(dataset, config, None, label_set)
            w = np.zeros(len(evaluator.dictionary))
            for _ in range(warmup):
                evaluator.objective_and_gradient(w)
            t0 = time.perf_counter()
            for _ in range(iterations):
                evaluator.objective_and_gradient(w)
            seconds = (time.perf_counter() - t0) / iterations
            rows.append(SweepRow(kind, num_labels, sentence_len, max_seg_len, evaluator.batch.num_edges, seconds))
    return rows


def format_eval_table(reports: dict[str, tuple[EvalReport, EvalReport]]) -> str:
    """Rows of P/R/F at both levels, one line per system."""
    lines = [f"{'':16s} {'Character-level':>22s} {'Word-level':>22s}"]
    lines.append(f"{'system':16s} {'Prec':>6s} {'Rec':>6s} {'F':>6s}  {'Prec':>6s} {'Rec':>6s} {'F':>6s}")
    for name, (char_report, word_report) in reports.items():
        lines.append(f"{name:16s} {char_report.row()}  {word_report.row()}")
    return "\n".join(lines)
