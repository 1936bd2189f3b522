"""Span scoring, upper-bound computation and bootstrap."""

import numpy as np
import pytest
from hypothesis import given, strategies as st

from chunkcrf.core import CharSpan, WordSpan
from chunkcrf.evaluate import bootstrap_interval, gold_upper_bound, score_corpus
from chunkcrf.ingest import annotate
from chunkcrf.synth import inject_improper_spans, separable_corpus


def cs(*triples):
    return [CharSpan(a, b, lab) for a, b, lab in triples]


def score_spans(gold, predicted):
    """Scores of one message's span lists."""
    return score_corpus([gold], [predicted])


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
