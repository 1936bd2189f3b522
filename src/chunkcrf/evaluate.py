"""Span scoring, the conversion upper bound and bootstrap comparison.

Scoring is exact-match: a predicted span counts only when both boundaries
and the label equal a gold span.  Character-level evaluation compares
original character spans; word-level evaluation compares token spans after
boundary snapping.  Each list must pass :func:`chunkcrf.core.ordered_spans`
with no upper limit: no negative offset and no overlap.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .core import CharSpan, WordSpan, char_spans_to_word_spans, ordered_spans, span_bounds, word_spans_to_char_spans
from .ingest import AnnotatedText

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


def format_eval_table(reports: dict[str, tuple[EvalReport, EvalReport]]) -> str:
    """Rows of P/R/F at both levels, one line per system."""
    lines = [f"{'':16s} {'Character-level':>22s} {'Word-level':>22s}"]
    lines.append(f"{'system':16s} {'Prec':>6s} {'Rec':>6s} {'F':>6s}  {'Prec':>6s} {'Rec':>6s} {'F':>6s}")
    for name, (char_report, word_report) in reports.items():
        lines.append(f"{name:16s} {char_report.row()}  {word_report.row()}")
    return "\n".join(lines)
