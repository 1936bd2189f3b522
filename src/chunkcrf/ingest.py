"""Corpus ingestion and statistics.

Two input formats are supported:

- BRAT standoff pairs: a ``.txt`` file with the raw message and a ``.ann``
  file whose T-lines look like ``T1<TAB>NP 0 6<TAB>Dr teh``.  Only T-lines
  are read; other line types are ignored.
- JSON-lines: one object per message with ``text`` and optional
  ``spans: [{start, end, label}]``.

JSON-lines is also the canonical on-disk dataset format written by the
``ingest`` command.  Parsing is fail-fast: any malformed line, a JSON value
of the wrong type or a byte that is not UTF-8 aborts with file and line
context.  A message's spans must pass the one span rule,
:func:`chunkcrf.core.ordered_spans`; they may be listed in any order.
"""

from __future__ import annotations

import json
import re
from collections.abc import Iterable, Iterator
from contextlib import contextmanager
from dataclasses import dataclass
from pathlib import Path
from typing import TextIO

from .core import CharSpan, Sentence, SpanError, is_token_aligned, ordered_spans, span_bounds, tokenize


class DataFormatError(ValueError):
    """Malformed input data; the message carries file/line context."""


@dataclass(frozen=True)
class AnnotatedText:
    """One message: tokenized text plus its gold character spans."""

    sentence: Sentence
    char_spans: tuple[CharSpan, ...]

    def __post_init__(self) -> None:
        ordered_spans(self.char_spans, len(self.sentence.raw_text))


def annotate(text: str, spans: list[CharSpan]) -> AnnotatedText:
    return AnnotatedText(tokenize(text), tuple(sorted(spans, key=span_bounds)))


@contextmanager
def utf8_text(path: str | Path) -> Iterator[TextIO]:
    """``open(path, encoding="utf-8")`` for reading, except that a byte that
    is not UTF-8 raises a :class:`DataFormatError` naming the file and the
    line it is on."""
    try:
        with open(path, encoding="utf-8") as fh:
            yield fh
    except UnicodeDecodeError as exc:
        raise DataFormatError(_not_utf8(path)) from exc


def _not_utf8(path: str | Path) -> str:
    """Where the first byte of ``path`` that is not UTF-8 is, as
    ``path:line: ...``; lines end as text mode ends them."""
    data = Path(path).read_bytes()
    try:
        data.decode("utf-8")
    except UnicodeDecodeError as exc:  # UTF-8 never encodes a character with an ASCII CR or LF byte
        head = data[: exc.start]
        lineno = head.count(b"\n") + head.count(b"\r") - head.count(b"\r\n") + 1
        return f"{path}:{lineno}: not UTF-8 text (byte {data[exc.start]:#04x})"
    return f"{path}: not UTF-8 text"  # the file changed after it was read


_JSON_TYPES = {dict: "an object", list: "an array", str: "a string", int: "a number", float: "a number",
               bool: "a boolean", type(None): "null"}


def _expect(value, kind: type, what: str):
    """``value`` if it is of JSON type ``kind``, else a ``ValueError`` naming
    ``what`` and the type it has."""
    if not isinstance(value, kind):
        raise ValueError(f"{what} must be {_JSON_TYPES[kind]}, got {_JSON_TYPES[type(value)]}: {value!r}")
    return value


def read_jsonl(path: str | Path) -> list[AnnotatedText]:
    items: list[AnnotatedText] = []
    with utf8_text(path) as fh:
        for lineno, line in enumerate(fh, start=1):
            if not line.strip():
                continue
            try:
                obj = _expect(json.loads(line), dict, "a message")
                if "text" not in obj:
                    raise ValueError("a message needs a 'text' field")
                text = _expect(obj["text"], str, "field 'text'")
                spans = [_json_span(s) for s in _expect(obj.get("spans", []), list, "field 'spans'")]
                items.append(annotate(text, spans))
            except ValueError as exc:
                raise DataFormatError(f"{path}:{lineno}: {exc}") from exc
    return items


def _json_span(obj) -> CharSpan:
    _expect(obj, dict, "a span")
    start, end, label = obj.get("start"), obj.get("end"), obj.get("label")
    if type(start) is not int or type(end) is not int or not isinstance(label, str):
        raise ValueError(f"a span needs integer start and end and a string label, got {obj!r}")
    return CharSpan(start, end, label)


def jsonl_line(text: str, spans: Iterable[CharSpan]) -> str:
    """One message as a line of the JSON-lines format, newline included."""
    obj = {"text": text, "spans": [{"start": s.start, "end": s.end, "label": s.label} for s in spans]}
    return json.dumps(obj, ensure_ascii=False) + "\n"


def write_jsonl(path: str | Path, items: list[AnnotatedText]) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        fh.writelines(jsonl_line(item.sentence.raw_text, item.char_spans) for item in items)


_T_LINE = re.compile(r"T\S*\t(\S+) (\d+) (\d+)\t(.*)\Z")


def read_brat_pair(txt_path: str | Path, ann_path: str | Path) -> AnnotatedText:
    with utf8_text(txt_path) as fh:
        text = fh.read()
    spans: list[CharSpan] = []
    with utf8_text(ann_path) as fh:
        for lineno, line in enumerate(fh, start=1):
            line = line.rstrip("\n")
            if not line.startswith("T"):
                continue
            m = _T_LINE.match(line)
            if m is None:
                raise DataFormatError(f"{ann_path}:{lineno}: malformed entity line {line!r}")
            label, start, end, surface = m.group(1), int(m.group(2)), int(m.group(3)), m.group(4)
            try:
                span = CharSpan(start, end, label)
            except SpanError as exc:
                raise DataFormatError(f"{ann_path}:{lineno}: {exc}") from exc
            sliced = text[start:end]
            if sliced != surface and sliced.replace("\n", " ") != surface:
                raise DataFormatError(
                    f"{ann_path}:{lineno}: surface {surface!r} does not match text slice {sliced!r}"
                )
            spans.append(span)
    try:
        return annotate(text, spans)
    except SpanError as exc:
        raise DataFormatError(f"{ann_path}: {exc}") from exc


def read_brat_dir(path: str | Path) -> list[AnnotatedText]:
    root = Path(path)
    txt_files = sorted(root.glob("*.txt"))
    if not txt_files:
        raise DataFormatError(f"{path}: no .txt files found")
    items = []
    for txt in txt_files:
        ann = txt.with_suffix(".ann")
        if not ann.exists():
            raise DataFormatError(f"{ann}: missing annotation file for {txt.name}")
        items.append(read_brat_pair(txt, ann))
    return items


def read_corpus(path: str | Path, fmt: str) -> list[AnnotatedText]:
    if fmt == "jsonl":
        return read_jsonl(path)
    if fmt == "brat":
        return read_brat_dir(path)
    raise ValueError(f"unknown corpus format {fmt!r}")


@dataclass(frozen=True)
class CorpusStats:
    messages: int
    chunks: int
    improper_chunks: int
    tokens: int

    @property
    def improper_pct(self) -> float:
        return 100.0 * self.improper_chunks / self.chunks if self.chunks else 0.0

    def lines(self) -> list[str]:
        return [
            f"messages          {self.messages}",
            f"chunks            {self.chunks}",
            f"improper chunks   {self.improper_chunks} ({self.improper_pct:.1f}%)",
            f"tokens            {self.tokens}",
        ]


def corpus_stats(items: list[AnnotatedText]) -> CorpusStats:
    """Message/chunk/token counts; a chunk is improper when its character
    boundaries do not sit on token boundaries."""
    chunks = improper = tokens = 0
    for item in items:
        tokens += len(item.sentence)
        for span in item.char_spans:
            chunks += 1
            if not is_token_aligned(item.sentence, span):
                improper += 1
    return CorpusStats(len(items), chunks, improper, tokens)
