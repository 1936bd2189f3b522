"""Text, span, and label primitives for character-anchored chunk annotation.

Conventions used throughout the package:

- Offsets are 0-based Unicode code point offsets into the raw text; ``end``
  is always exclusive.
- Tokens never overlap, appear in strictly increasing offset order, and the
  gaps between them contain only whitespace.
- Chunk structure exists in two encodings: character spans (the annotation
  source of truth) and token spans.  Character spans may cut through tokens;
  projecting them onto token boundaries is lossy by design, and the
  projection is a pure snap-to-boundary rule with no other normalization.
  The lattices turn token spans into paths and back (``lattice.py``).
- A span list is valid when every span lies inside ``[0, limit)`` (the text's
  characters or the sentence's tokens) and no two spans overlap; the list's
  order does not matter.  :func:`ordered_spans` is the one place that checks
  this, for every reader, converter, lattice and scorer.
"""

from __future__ import annotations

import re
from collections.abc import Iterable
from dataclasses import dataclass
from typing import TypeVar

OUTSIDE = "O"
"""Reserved label for tokens outside any chunk."""

_LABEL_RE = re.compile(r"[A-Za-z0-9_-]+\Z")

# Anonymization placeholders (e.g. <DECIMAL>, <TIME>) are kept whole; other
# tokens are maximal alphanumeric-or-underscore runs or maximal runs of
# non-alphanumeric non-whitespace characters.
_ANON_PATTERN = r"<[A-Z][A-Z0-9]*>"
_TOKEN_RE = re.compile(rf"{_ANON_PATTERN}|\w+|[^\w\s]+")


class SpanError(ValueError):
    """Raised when a span, or a span list under :func:`ordered_spans`, is invalid."""


@dataclass(frozen=True)
class Token:
    """One token with its character provenance in the raw text."""

    surface: str
    start: int
    end: int

    def __post_init__(self) -> None:
        if not self.start < self.end:
            raise ValueError(f"token offsets must satisfy start < end, got [{self.start}, {self.end})")
        if len(self.surface) != self.end - self.start:
            raise ValueError(f"surface {self.surface!r} does not match offsets [{self.start}, {self.end})")


@dataclass(frozen=True)
class Sentence:
    """Tokenized text; every token carries its [start, end) offsets."""

    raw_text: str
    tokens: tuple[Token, ...]

    def __post_init__(self) -> None:
        prev_end = -1
        for tok in self.tokens:
            if tok.start < 0 or tok.end > len(self.raw_text):
                raise ValueError(f"token [{tok.start}, {tok.end}) outside text of length {len(self.raw_text)}")
            if tok.start < prev_end:
                raise ValueError("tokens must be non-overlapping and increasing")
            if self.raw_text[tok.start : tok.end] != tok.surface:
                raise ValueError(f"token surface {tok.surface!r} does not match text slice")
            prev_end = tok.end

    def __len__(self) -> int:
        return len(self.tokens)


@dataclass(frozen=True)
class CharSpan:
    """A chunk as a character range with its label."""

    start: int
    end: int
    label: str

    def __post_init__(self) -> None:
        if not self.start < self.end:
            raise SpanError(f"char span must satisfy start < end, got [{self.start}, {self.end})")


@dataclass(frozen=True)
class WordSpan:
    """A chunk as an inclusive token index range with its label."""

    first_token: int
    last_token: int
    label: str

    def __post_init__(self) -> None:
        if not 0 <= self.first_token <= self.last_token:
            raise SpanError(f"word span must satisfy 0 <= first <= last, got ({self.first_token}, {self.last_token})")

    @property
    def length(self) -> int:
        return self.last_token - self.first_token + 1


@dataclass(frozen=True)
class LabelSet:
    """Chunk labels plus the reserved outside label.

    The segment alphabet puts ``O`` first; lattice construction relies on
    that ordering to make zero-weight decoding deterministic (all-outside).
    """

    chunk_labels: tuple[str, ...]

    def __post_init__(self) -> None:
        if not self.chunk_labels:
            raise ValueError("need at least one chunk label")
        if len(set(self.chunk_labels)) != len(self.chunk_labels):
            raise ValueError("chunk labels must be unique")
        for label in self.chunk_labels:
            if label == OUTSIDE:
                raise ValueError(f"{OUTSIDE!r} is reserved and cannot be a chunk label")
            if not _LABEL_RE.match(label):
                raise ValueError(f"invalid chunk label {label!r}")

    @property
    def alphabet(self) -> tuple[str, ...]:
        """Segment labels, outside first."""
        return (OUTSIDE, *self.chunk_labels)


# An instance of a frozen dataclass made without its __init__: its fields set
# one by one past the dataclass's __setattr__, which refuses every assignment.
# (Setting the whole __dict__ at once is no faster, and makes every later
# attribute read slower.)
_new = object.__new__
_set = object.__setattr__


def tokenize(raw_text: str) -> Sentence:
    """Split text into offset-anchored tokens.

    Anonymization placeholders of the form ``<UPPERCASE>`` stay whole;
    everything else splits into maximal alphanumeric runs and
    maximal runs of other non-whitespace characters.  Concatenating the
    surfaces with the original inter-token whitespace reconstructs the text.

    The regex's matches are valid tokens of ``raw_text`` by construction, so
    the tokens and the sentence are built without :class:`Token`'s and
    :class:`Sentence`'s checks, which would cost more than the regex; they
    equal the checked ones field for field.
    """
    tokens = []
    for m in _TOKEN_RE.finditer(raw_text):
        token = _new(Token)
        _set(token, "surface", m.group())
        _set(token, "start", m.start())
        _set(token, "end", m.end())
        tokens.append(token)
    sentence = _new(Sentence)
    _set(sentence, "raw_text", raw_text)
    _set(sentence, "tokens", tuple(tokens))
    return sentence


def span_bounds(span: CharSpan | WordSpan) -> tuple[int, int]:
    """A span's half-open ``[start, end)``: characters for a :class:`CharSpan`,
    tokens for a :class:`WordSpan`."""
    if isinstance(span, WordSpan):
        return span.first_token, span.last_token + 1
    return span.start, span.end


SpanT = TypeVar("SpanT", CharSpan, WordSpan)


def ordered_spans(spans: Iterable[SpanT], limit: float) -> list[SpanT]:
    """``spans`` sorted by position; raises :class:`SpanError` when a span
    leaves ``[0, limit)`` or two spans overlap."""
    ordered = sorted(spans, key=span_bounds)
    prev_end = 0
    for start, end in map(span_bounds, ordered):
        if start < 0 or end > limit:
            raise SpanError(f"span [{start}, {end}) outside [0, {limit})")
        if start < prev_end:
            raise SpanError(f"spans overlap at {start}")
        prev_end = end
    return ordered


def char_spans_to_word_spans(sentence: Sentence, spans: list[CharSpan]) -> list[WordSpan]:
    """Snap character spans to token boundaries.

    A span maps to the full range of tokens it intersects: endpoints inside a
    token extend outward to that token's boundary, endpoints in whitespace
    retract inward to the nearest token edge.  Spans touching no token are
    dropped; spans that collide after snapping are merged left to right
    (keeping the earlier span's label).
    """
    snapped: list[WordSpan] = []
    for span in ordered_spans(spans, len(sentence.raw_text)):
        first = last = None
        for idx, tok in enumerate(sentence.tokens):
            if tok.start < span.end and tok.end > span.start:
                if first is None:
                    first = idx
                last = idx
            elif tok.start >= span.end:
                break
        if first is None or last is None:
            continue
        snapped.append(WordSpan(first, last, span.label))

    merged: list[WordSpan] = []
    for span in snapped:
        if merged and span.first_token <= merged[-1].last_token:
            prev = merged[-1]
            merged[-1] = WordSpan(prev.first_token, max(prev.last_token, span.last_token), prev.label)
        else:
            merged.append(span)
    return merged


def word_spans_to_char_spans(sentence: Sentence, spans: list[WordSpan]) -> list[CharSpan]:
    """Map word spans to character spans via first-token start / last-token end."""
    return [
        CharSpan(sentence.tokens[s.first_token].start, sentence.tokens[s.last_token].end, s.label)
        for s in ordered_spans(spans, len(sentence))
    ]


def is_token_aligned(sentence: Sentence, span: CharSpan) -> bool:
    """True when both span boundaries sit exactly on token boundaries."""
    starts = {tok.start for tok in sentence.tokens}
    ends = {tok.end for tok in sentence.tokens}
    return span.start in starts and span.end in ends
