"""Synthetic corpora for learning-sanity checks.

The separable corpus draws chunk words and filler words from disjoint
vocabularies and never places two chunks adjacently, so gold chunks are
exactly the maximal runs of chunk-vocabulary words: every model family can
reach perfect held-out scores from word-identity features alone.  Every
generator is seeded and deterministic.
"""

from __future__ import annotations

import numpy as np

from .core import CharSpan, Token, Sentence
from .ingest import AnnotatedText


def _assemble(words: list[str], chunk_ranges: list[tuple[int, int, str]]) -> AnnotatedText:
    tokens = []
    offset = 0
    for w in words:
        tokens.append(Token(w, offset, offset + len(w)))
        offset += len(w) + 1
    sentence = Sentence(" ".join(words), tuple(tokens))
    spans = tuple(
        CharSpan(tokens[first].start, tokens[last].end, label) for first, last, label in chunk_ranges
    )
    return AnnotatedText(sentence, spans)


def chunk_label_names(num_chunk_labels: int) -> list[str]:
    """Synthetic chunk labels: ``NP`` alone, or ``T1`` ... ``Tk``."""
    if num_chunk_labels == 1:
        return ["NP"]
    return [f"T{i}" for i in range(1, num_chunk_labels + 1)]


def separable_corpus(
    num_sentences: int,
    seed: int = 0,
    num_chunk_labels: int = 1,
    vocab_size: int = 15,
    min_len: int = 5,
    max_len: int = 12,
    max_chunk_len: int = 3,
) -> list[AnnotatedText]:
    """Messages whose chunks are maximal runs from per-label vocabularies."""
    rng = np.random.default_rng(seed)
    labels = chunk_label_names(num_chunk_labels)
    chunk_vocab = {lbl: [f"{lbl.lower()}w{j}" for j in range(vocab_size)] for lbl in labels}
    filler_vocab = [f"fill{j}" for j in range(vocab_size)]

    items = []
    for _ in range(num_sentences):
        target = int(rng.integers(min_len, max_len + 1))
        words: list[str] = []
        ranges: list[tuple[int, int, str]] = []
        can_chunk = True
        while len(words) < target:
            if can_chunk and rng.random() < 0.45:
                label = labels[int(rng.integers(0, len(labels)))]
                length = int(rng.integers(1, max_chunk_len + 1))
                first = len(words)
                for _ in range(length):
                    words.append(chunk_vocab[label][int(rng.integers(0, vocab_size))])
                ranges.append((first, len(words) - 1, label))
                can_chunk = False  # force a filler gap between chunks
            else:
                for _ in range(int(rng.integers(1, 3))):
                    words.append(filler_vocab[int(rng.integers(0, vocab_size))])
                can_chunk = True
        items.append(_assemble(words, ranges))
    return items


def inject_improper_spans(items: list[AnnotatedText], fraction: float, seed: int = 0) -> list[AnnotatedText]:
    """Shift one span boundary into the middle of a token for a fraction of
    the messages (those that have an eligible span); everything else is kept
    verbatim."""
    rng = np.random.default_rng(seed)

    def first_token_of(item: AnnotatedText, span: CharSpan) -> Token | None:
        return next((t for t in item.sentence.tokens if t.start == span.start), None)

    eligible = []
    for idx, item in enumerate(items):
        if any((tok := first_token_of(item, s)) is not None and tok.end - tok.start >= 2 for s in item.char_spans):
            eligible.append(idx)
    count = min(len(eligible), round(fraction * len(items)))
    chosen_ids = {eligible[i] for i in rng.choice(len(eligible), size=count, replace=False)} if count else set()

    out = []
    for idx, item in enumerate(items):
        if idx not in chosen_ids:
            out.append(item)
            continue
        new_spans = []
        perturbed = False
        for span in item.char_spans:
            tok = first_token_of(item, span)
            if not perturbed and tok is not None and tok.end - tok.start >= 2:
                new_spans.append(CharSpan(span.start + 1, span.end, span.label))
                perturbed = True
            else:
                new_spans.append(span)
        out.append(AnnotatedText(item.sentence, tuple(new_spans)))
    return out
