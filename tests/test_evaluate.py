"""Span scoring, upper-bound computation, bootstrap, and benchmark plumbing."""

import numpy as np
import pytest
from hypothesis import given, strategies as st

from chunkcrf import evaluate
from chunkcrf.core import CharSpan, LabelSet, WordSpan
from chunkcrf.evaluate import (
    benchmark_label_sweep,
    bootstrap_interval,
    gold_upper_bound,
    score_corpus,
    score_spans,
    sweep_rows_to_csv,
    SweepRow,
)
from chunkcrf.ingest import annotate
from chunkcrf.lattice import MODEL_KINDS, topology
from chunkcrf.synth import chunk_label_names, inject_improper_spans, separable_corpus


def cs(*triples):
    return [CharSpan(a, b, lab) for a, b, lab in triples]


class TestScoreSpans:
    def test_perfect_match(self):
        spans = cs((0, 2, "NP"), (5, 9, "NP"), (12, 14, "NP"), (16, 18, "NP"), (20, 22, "NP"))
        report = score_spans(spans, list(spans))
        assert (report.precision, report.recall, report.f1) == (1.0, 1.0, 1.0)
        assert report.tp == 5

    def test_partial_match(self):
        report = score_spans(cs((0, 2, "NP"), (5, 9, "NP")), cs((0, 2, "NP")))
        assert report.precision == 1.0
        assert report.recall == 0.5
        assert report.f1 == pytest.approx(2 / 3)

    def test_empty_prediction(self):
        report = score_spans(cs((0, 2, "NP"), (3, 4, "NP"), (6, 9, "NP")), [])
        assert (report.precision, report.recall, report.f1) == (0.0, 0.0, 0.0)

    def test_label_must_match(self):
        report = score_spans(cs((0, 2, "NP")), cs((0, 2, "VP")))
        assert report.tp == 0

    def test_word_spans_accepted(self):
        report = score_spans([WordSpan(0, 1, "NP")], [WordSpan(0, 1, "NP")])
        assert report.f1 == 1.0

    def test_overlapping_list_rejected(self):
        with pytest.raises(ValueError):
            score_spans(cs((0, 5, "NP"), (3, 8, "NP")), [])

    def test_swapping_sides_swaps_precision_and_recall(self):
        gold = cs((0, 2, "NP"), (5, 9, "NP"), (11, 12, "NP"))
        pred = cs((0, 2, "NP"), (14, 16, "NP"))
        a = score_spans(gold, pred)
        b = score_spans(pred, gold)
        assert a.precision == b.recall
        assert a.recall == b.precision
        assert a.f1 == b.f1


@st.composite
def span_lists(draw):
    out = []
    pos = 0
    for _ in range(draw(st.integers(0, 5))):
        start = pos + draw(st.integers(0, 3))
        end = start + draw(st.integers(1, 4))
        out.append(CharSpan(start, end, draw(st.sampled_from(["NP", "VP"]))))
        pos = end
    return out


@given(span_lists(), span_lists())
def test_scores_are_bounded_and_f1_sits_between_p_and_r(gold, pred):
    report = score_spans(gold, pred)
    for value in (report.precision, report.recall, report.f1):
        assert 0.0 <= value <= 1.0
    lo, hi = sorted((report.precision, report.recall))
    assert lo - 1e-12 <= report.f1 <= hi + 1e-12


class TestGoldUpperBound:
    def test_token_aligned_corpus_is_lossless(self):
        items = separable_corpus(50, seed=1)
        char_report, word_report = gold_upper_bound(items)
        assert char_report.f1 == 1.0
        assert (word_report.precision, word_report.recall, word_report.f1) == (1.0, 1.0, 1.0)

    def test_improper_spans_drop_the_bound_strictly_below_one(self):
        items = inject_improper_spans(separable_corpus(100, seed=2), fraction=0.04, seed=3)
        char_report, word_report = gold_upper_bound(items)
        assert char_report.f1 < 1.0
        assert word_report.f1 == 1.0

    def test_mixed_corpus_counts(self):
        items = [annotate("Dr teh says", [CharSpan(0, 6, "NP")])]
        char_report, _ = gold_upper_bound(items)
        assert char_report.f1 == 1.0
        items = [annotate("butshe's ok", [CharSpan(3, 6, "NP")])]
        char_report, _ = gold_upper_bound(items)
        assert char_report.f1 == 0.0  # the span snaps outward, losing the match


class TestBootstrap:
    def test_identical_systems_are_not_significant(self):
        gold = [cs((0, 2, "NP")) for _ in range(30)]
        result = bootstrap_interval(gold, gold, gold, resamples=500, seed=1)
        assert result.lower == result.upper == 0.0
        assert not result.significant

    def test_clear_separation_is_significant(self):
        gold = [cs((0, 2, "NP")) for _ in range(100)]
        empty = [[] for _ in gold]
        result = bootstrap_interval(gold, gold, empty, resamples=2000, seed=2)
        assert result.significant
        assert result.lower > 0

    def test_seeded_runs_are_identical(self):
        rng = np.random.default_rng(5)
        gold, a, b = [], [], []
        for _ in range(40):
            spans = cs((0, 2, "NP"), (4, 7, "NP"))
            gold.append(spans)
            a.append(spans if rng.random() < 0.8 else [])
            b.append(spans if rng.random() < 0.6 else [])
        r1 = bootstrap_interval(gold, a, b, resamples=1000, seed=7)
        r2 = bootstrap_interval(gold, a, b, resamples=1000, seed=7)
        assert r1 == r2

    def test_mismatched_lengths_rejected(self):
        with pytest.raises(ValueError):
            bootstrap_interval([[]], [[]], [[], []])


class TestBenchmark:
    def test_sweep_rows_time_the_requested_alphabet(self):
        # five four-token sentences hold at most ten chunks, so they cannot
        # use all 15 chunk labels; the lattices still span all 16 labels
        rows = benchmark_label_sweep((3, 16), sentences=5, sentence_len=4, max_seg_len=3, iterations=2, warmup=1)
        assert [(r.num_labels, r.model) for r in rows] == [(y, k) for y in (3, 16) for k in MODEL_KINDS]
        for r in rows:
            label_set = LabelSet(tuple(chunk_label_names(r.num_labels - 1)))
            assert (r.n, r.max_seg_len) == (4, 3)
            assert r.edges == 5 * topology(r.model, 4, label_set, 3).num_edges
            assert r.sec_per_iter > 0

    def test_sweep_csv_schema(self):
        rows = [SweepRow("semi", 2, 10, 6, 1234, 0.5), SweepRow("weak", 2, 10, 6, 999, 0.4)]
        text = sweep_rows_to_csv(rows)
        lines = text.strip().splitlines()
        assert lines[0] == "model,num_labels,n,L,edges,sec_per_iter"
        assert lines[1] == "semi,2,10,6,1234,0.500000"

    @pytest.mark.parametrize(
        "kwargs,message",
        [
            ({"num_label_values": (2, 1)}, "sizes count the outside label and must be >= 2, got 1"),
            ({"iterations": 0}, "iterations must be >= 1, got 0"),
            ({"warmup": -1}, "warmup must be >= 0, got -1"),
            ({"sentences": 0}, "sentences must be >= 1, got 0"),
            ({"sentence_len": 0}, "sentence length must be >= 1, got 0"),
            ({"max_seg_len": 0}, "max_seg_len must be >= 1, got 0"),
            ({"num_label_values": ()}, "need at least one label-alphabet size"),
        ],
        ids=["labels", "iterations", "warmup", "sentences", "length", "max-seg-len", "no-labels"],
    )
    def test_sweep_rejects_bad_arguments_before_any_work(self, monkeypatch, kwargs, message):
        def no_work(*args, **kwargs):
            raise AssertionError("the sweep generated a corpus")

        monkeypatch.setattr(evaluate, "timing_corpus", no_work)
        with pytest.raises(ValueError, match=message):
            benchmark_label_sweep(**{"num_label_values": (2,), **kwargs})
