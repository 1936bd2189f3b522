"""One span rule: every entry point that takes a span list accepts exactly
the lists :func:`chunkcrf.core.ordered_spans` accepts."""

import math

from hypothesis import given, settings, strategies as st

from chunkcrf.core import (
    CharSpan,
    LabelSet,
    SpanError,
    WordSpan,
    char_spans_to_word_spans,
    ordered_spans,
    tokenize,
    word_spans_to_bio,
    word_spans_to_char_spans,
)
from chunkcrf.evaluate import score_spans
from chunkcrf.ingest import AnnotatedText
from chunkcrf.lattice import MODEL_KINDS, LatticeError, build_lattice
from chunkcrf.training import DataItem

LABELS = LabelSet(("NP", "VP"))
MAX_SEG_LEN = 3


def accepts(call, *args) -> bool:
    try:
        call(*args)
    except (SpanError, LatticeError):
        return False
    return True


def sentences(min_tokens):
    words = st.lists(st.sampled_from(["aa", "b", "ccc", "<TIME>", "?!"]), min_size=min_tokens, max_size=6)
    return words.map(" ".join).map(tokenize)


@st.composite
def char_cases(draw):
    """A sentence and 0-4 character spans that may leave the text or overlap."""
    sentence = draw(sentences(0))
    spans = []
    for _ in range(draw(st.integers(0, 4))):
        start = draw(st.integers(-3, len(sentence.raw_text) + 1))
        end = draw(st.integers(start + 1, start + 6))
        spans.append(CharSpan(start, end, draw(st.sampled_from(LABELS.chunk_labels))))
    return sentence, spans


@st.composite
def word_cases(draw):
    """A sentence and 0-4 word spans that may leave the sentence or overlap;
    labels are in the set and lengths at most ``MAX_SEG_LEN``, so each list
    the rule accepts is representable in every lattice."""
    sentence = draw(sentences(1))
    spans = []
    for _ in range(draw(st.integers(0, 4))):
        first = draw(st.integers(0, len(sentence)))
        last = draw(st.integers(first, first + MAX_SEG_LEN - 1))
        spans.append(WordSpan(first, last, draw(st.sampled_from(LABELS.chunk_labels))))
    return sentence, spans


@settings(max_examples=100, deadline=None)
@given(char_cases())
def test_char_span_entry_points_follow_the_rule(case):
    sentence, spans = case
    expected = accepts(ordered_spans, spans, len(sentence.raw_text))
    assert accepts(AnnotatedText, sentence, tuple(spans)) == expected
    assert accepts(char_spans_to_word_spans, sentence, spans) == expected
    assert accepts(score_spans, spans, []) == accepts(ordered_spans, spans, math.inf)


@settings(max_examples=100, deadline=None)
@given(word_cases())
def test_word_span_entry_points_follow_the_rule(case):
    sentence, spans = case
    expected = accepts(ordered_spans, spans, len(sentence))
    assert accepts(DataItem, sentence, tuple(spans)) == expected
    assert accepts(word_spans_to_bio, sentence, spans) == expected
    assert accepts(word_spans_to_char_spans, sentence, spans) == expected
    for kind in MODEL_KINDS:
        lattice = build_lattice(kind, sentence, LABELS, MAX_SEG_LEN, None)
        assert accepts(lattice.gold_edge_ids, spans) == expected, kind
