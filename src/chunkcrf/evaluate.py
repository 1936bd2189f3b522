"""Span scoring, the conversion upper bound, bootstrap comparison, and the
per-iteration training-time benchmark.

Scoring is exact-match: a predicted span counts only when both boundaries
and the label equal a gold span.  Character-level evaluation compares
original character spans; word-level evaluation compares token spans after
boundary snapping.  The benchmark times complete objective-plus-gradient
evaluations over lattices compiled beforehand, as in training (edge
scoring, forward-backward and gradient accumulation, no lattice
construction), on one execution lane: the unit an optimizer iteration is
built from.
"""

from __future__ import annotations

import statistics
import time
from dataclasses import dataclass

import numpy as np

from .core import CharSpan, WordSpan
from .ingest import AnnotatedText
from .training import Dataset, TrainConfig, compile_split, derive_label_set

Span = CharSpan | WordSpan


def _normalize(span: Span) -> tuple[int, int, str]:
    """Half-open (start, end, label) key; word spans use token indices."""
    if isinstance(span, WordSpan):
        return (span.first_token, span.last_token + 1, span.label)
    return (span.start, span.end, span.label)


def _check_disjoint(spans: list[Span], who: str) -> set[tuple[int, int, str]]:
    keys = sorted(_normalize(s) for s in spans)
    prev_end = None
    for start, end, _ in keys:
        if prev_end is not None and start < prev_end:
            raise ValueError(f"{who} spans overlap at {start}")
        prev_end = end
    return set(keys)


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


def span_counts(gold: list[Span], predicted: list[Span]) -> tuple[int, int, int]:
    gold_keys = _check_disjoint(gold, "gold")
    pred_keys = _check_disjoint(predicted, "predicted")
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
class ModelTiming:
    model_kind: str
    seconds: tuple[float, ...]
    edges: int

    def __post_init__(self) -> None:
        if not self.seconds or min(self.seconds) <= 0:
            raise ValueError("need positive iteration times")

    @property
    def mean(self) -> float:
        return statistics.fmean(self.seconds)

    @property
    def stdev(self) -> float:
        return statistics.stdev(self.seconds) if len(self.seconds) > 1 else 0.0

    @property
    def median(self) -> float:
        return statistics.median(self.seconds)


@dataclass(frozen=True)
class BenchReport:
    timings: dict[str, ModelTiming]

    @property
    def speedup_semi_over_weak(self) -> float:
        return self.timings["semi"].mean / self.timings["weak"].mean

    def lines(self) -> list[str]:
        out = [f"{'model':8s} {'edges':>10s} {'mean s/iter':>12s} {'median':>9s} {'stdev':>9s}"]
        for kind, t in self.timings.items():
            out.append(f"{kind:8s} {t.edges:10d} {t.mean:12.4f} {t.median:9.4f} {t.stdev:9.4f}")
        if "semi" in self.timings and "weak" in self.timings:
            out.append(f"speedup semi/weak: {self.speedup_semi_over_weak:.3f}x")
        return out


def benchmark_training(
    dataset: Dataset,
    configs: dict[str, TrainConfig],
    iterations: int = 3,
    warmup: int = 1,
    label_set=None,
) -> BenchReport:
    """Wall-clock per-iteration cost of each configured model on one dataset.

    One iteration is one full objective-plus-gradient evaluation over
    lattices compiled beforehand, as in training: edge scoring,
    forward-backward and gradient accumulation, without lattice
    construction.  Warm-up evaluations are excluded from the statistics.
    """
    label_set = derive_label_set(dataset, label_set)
    timings: dict[str, ModelTiming] = {}
    for kind, config in configs.items():
        if config.model_kind != kind:
            raise ValueError(f"config under key {kind!r} is for model {config.model_kind!r}")
        evaluator, _ = compile_split(dataset, config, None, label_set)
        w = np.zeros(len(evaluator.dictionary))
        for _ in range(warmup):
            evaluator.objective_and_gradient(w)
        seconds = []
        for _ in range(iterations):
            t0 = time.perf_counter()
            evaluator.objective_and_gradient(w)
            seconds.append(time.perf_counter() - t0)
        timings[kind] = ModelTiming(kind, tuple(seconds), evaluator.batch.num_edges)
    return BenchReport(timings)


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
    model_kinds: tuple[str, ...] = ("linear", "semi", "weak"),
) -> list[SweepRow]:
    """Per-iteration cost as the label alphabet grows, at fixed n and L.

    The conventional segment lattice scales quadratically in the alphabet
    size, the split-node one linearly (for its segment edges), so the
    semi/weak ratio grows with the alphabet.
    """
    from .synth import timing_corpus

    rows: list[SweepRow] = []
    for num_labels in num_label_values:
        corpus = timing_corpus(
            sentences, num_chunk_labels=num_labels - 1, seed=seed, sentence_len=sentence_len
        )
        dataset = Dataset.from_annotated(corpus)
        configs = {
            kind: TrainConfig(model_kind=kind, lam=1.0, max_seg_len=max_seg_len) for kind in model_kinds
        }
        report = benchmark_training(dataset, configs, iterations=iterations, warmup=warmup)
        for kind in model_kinds:
            t = report.timings[kind]
            rows.append(SweepRow(kind, num_labels, sentence_len, max_seg_len, t.edges, t.mean))
    return rows


def format_eval_table(reports: dict[str, tuple[EvalReport, EvalReport]]) -> str:
    """Rows of P/R/F at both levels, one line per system."""
    lines = [f"{'':16s} {'Character-level':>22s} {'Word-level':>22s}"]
    lines.append(f"{'system':16s} {'Prec':>6s} {'Rec':>6s} {'F':>6s}  {'Prec':>6s} {'Rec':>6s} {'F':>6s}")
    for name, (char_report, word_report) in reports.items():
        lines.append(f"{name:16s} {char_report.row()}  {word_report.row()}")
    return "\n".join(lines)
