"""Tokenization and span conversion behavior."""

import pytest
from hypothesis import given, strategies as st

from chunkcrf.core import (
    _TOKEN_RE,
    CharSpan,
    LabelSet,
    Sentence,
    SpanError,
    Token,
    WordSpan,
    char_spans_to_word_spans,
    is_token_aligned,
    tokenize,
    word_spans_to_char_spans,
)


def surfaces(sentence):
    return tuple(tok.surface for tok in sentence.tokens)


class TestTokenize:
    def test_whitespace_separated_words(self):
        s = tokenize("Dr teh says")
        assert [(t.surface, t.start, t.end) for t in s.tokens] == [
            ("Dr", 0, 2),
            ("teh", 3, 6),
            ("says", 7, 11),
        ]

    def test_missing_space_splits_on_apostrophe(self):
        assert surfaces(tokenize("butshe's")) == ("butshe", "'", "s")

    def test_anonymization_placeholder_kept_whole(self):
        s = tokenize("call <DECIMAL> now")
        assert surfaces(s) == ("call", "<DECIMAL>", "now")

    def test_lowercase_angle_brackets_are_not_placeholders(self):
        s = tokenize("a<b>c")
        assert surfaces(s) == ("a", "<", "b", ">", "c")

    def test_empty_text(self):
        assert len(tokenize("")) == 0

    def test_non_ascii_offsets_count_code_points(self):
        s = tokenize("héllo wörld")
        assert [(t.start, t.end) for t in s.tokens] == [(0, 5), (6, 11)]

    def test_surfaces_cover_all_non_whitespace(self):
        text = "so...  it's <TIME> ok?!"
        s = tokenize(text)
        rebuilt = list(text)
        for t in s.tokens:
            for i in range(t.start, t.end):
                rebuilt[i] = " "
        assert "".join(rebuilt).strip() == ""


token_texts = st.text(
    alphabet=st.characters(codec="utf-8", exclude_categories=("Cs", "Cc")),
    max_size=40,
)


@given(token_texts)
def test_tokenize_offsets_are_faithful(text):
    s = tokenize(text)
    for t in s.tokens:
        assert text[t.start : t.end] == t.surface


@given(token_texts)
def test_tokenize_idempotent_on_surfaces(text):
    words = surfaces(tokenize(text))
    assert surfaces(tokenize(" ".join(words))) == words


messy_texts = st.lists(
    st.one_of(
        st.sampled_from(["<TIME>", "<DECIMAL>", "<X9>", "<lower>", "it's", "ok?!", "...", "a_b", "café", "中文", " ",
                         "\t", "\n", "\u00a0"]),
        token_texts,
    ),
    max_size=12,
).map("".join)


@given(messy_texts)
def test_tokenize_equals_the_checked_construction(text):
    # placeholders, glued punctuation, non-ASCII and odd whitespace, with
    # every token and the sentence built through their checks
    checked = Sentence(text, tuple(Token(m.group(), m.start(), m.end()) for m in _TOKEN_RE.finditer(text)))
    s = tokenize(text)
    assert s == checked and hash(s) == hash(checked)
    assert type(s) is Sentence and all(type(t) is Token for t in s.tokens)
    assert vars(s) == vars(checked) and [vars(t) for t in s.tokens] == [vars(t) for t in checked.tokens]


class TestCharToWord:
    def test_aligned_span_maps_exactly(self):
        s = tokenize("a bb ccc dddd")
        spans = char_spans_to_word_spans(s, [CharSpan(2, 8, "NP")])  # "bb ccc"
        assert spans == [WordSpan(1, 2, "NP")]

    def test_mid_token_span_extends_to_the_whole_token(self):
        s = tokenize("butshe's")
        # "she" sits inside the token "butshe"
        start = "butshe's".index("she")
        spans = char_spans_to_word_spans(s, [CharSpan(start, start + 3, "NP")])
        assert spans == [WordSpan(0, 0, "NP")]

    def test_whitespace_only_span_dropped(self):
        s = tokenize("a  b")
        assert char_spans_to_word_spans(s, [CharSpan(1, 4, "NP")]) == [WordSpan(1, 1, "NP")]
        assert char_spans_to_word_spans(s, [CharSpan(1, 3, "NP")]) == []

    def test_whitespace_endpoints_retract_inward(self):
        s = tokenize("aa bb cc")
        spans = char_spans_to_word_spans(s, [CharSpan(2, 6, "NP")])  # " bb "
        assert spans == [WordSpan(1, 1, "NP")]

    def test_out_of_bounds_rejected(self):
        s = tokenize("ab")
        with pytest.raises(SpanError):
            char_spans_to_word_spans(s, [CharSpan(0, 3, "NP")])

    def test_overlapping_inputs_rejected(self):
        s = tokenize("aa bb cc")
        with pytest.raises(SpanError):
            char_spans_to_word_spans(s, [CharSpan(0, 4, "NP"), CharSpan(3, 8, "NP")])

    def test_colliding_spans_merge_left_to_right(self):
        s = tokenize("butshe's ok")
        # both spans snap into the first token and must merge
        spans = char_spans_to_word_spans(s, [CharSpan(0, 3, "NP"), CharSpan(3, 6, "NP")])
        assert spans == [WordSpan(0, 0, "NP")]

    def test_char_word_char_is_idempotent(self):
        s = tokenize("butshe's ok now")
        once = word_spans_to_char_spans(s, char_spans_to_word_spans(s, [CharSpan(3, 7, "NP")]))
        twice = word_spans_to_char_spans(s, char_spans_to_word_spans(s, once))
        assert once == twice

    def test_aligned_round_trip_is_identity(self):
        s = tokenize("aa bb cc dd")
        spans = [CharSpan(0, 2, "NP"), CharSpan(3, 8, "NP")]
        word = char_spans_to_word_spans(s, spans)
        assert word_spans_to_char_spans(s, word) == spans


class TestWordToChar:
    def test_word_span_to_char_span(self):
        s = tokenize("Dr teh")
        assert word_spans_to_char_spans(s, [WordSpan(0, 0, "NP")]) == [CharSpan(0, 2, "NP")]


@st.composite
def sentence_and_spans(draw):
    n = draw(st.integers(1, 8))
    words = [draw(st.sampled_from(["aa", "b", "ccc", "dd"])) for _ in range(n)]
    sentence = tokenize(" ".join(words))
    spans = []
    pos = 0
    while pos < n:
        if draw(st.booleans()):
            length = draw(st.integers(1, min(3, n - pos)))
            spans.append(WordSpan(pos, pos + length - 1, draw(st.sampled_from(["NP", "VP"]))))
            pos += length
        else:
            pos += 1
    return sentence, spans


@given(sentence_and_spans())
def test_char_projection_of_word_spans_is_aligned(case):
    sentence, spans = case
    for span in word_spans_to_char_spans(sentence, spans):
        assert is_token_aligned(sentence, span)


class TestLabelSet:
    def test_alphabet_puts_outside_first(self):
        ls = LabelSet(("NP",))
        assert ls.alphabet == ("O", "NP")

    def test_outside_reserved(self):
        with pytest.raises(ValueError):
            LabelSet(("O",))

    def test_duplicates_rejected(self):
        with pytest.raises(ValueError):
            LabelSet(("NP", "NP"))
