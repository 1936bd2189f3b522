"""BRAT and JSON-lines parsing, canonical output, and corpus statistics."""

import json

import pytest

from chunkcrf.core import CharSpan
from chunkcrf.ingest import (
    DataFormatError,
    annotate,
    corpus_stats,
    read_brat_dir,
    read_brat_pair,
    read_jsonl,
    write_jsonl,
)


def write(path, text):
    path.write_text(text, encoding="utf-8")


class TestJsonl:
    def test_round_trip(self, tmp_path):
        items = [
            annotate("Dr teh says", [CharSpan(0, 6, "NP")]),
            annotate("nothing here", []),
        ]
        path = tmp_path / "data.jsonl"
        write_jsonl(path, items)
        loaded = read_jsonl(path)
        assert loaded == items

    def test_spans_field_is_optional(self, tmp_path):
        path = tmp_path / "data.jsonl"
        write(path, json.dumps({"text": "hello there"}) + "\n")
        (item,) = read_jsonl(path)
        assert item.char_spans == ()

    def test_parse_error_carries_line_number(self, tmp_path):
        path = tmp_path / "data.jsonl"
        write(path, '{"text": "ok", "spans": []}\nnot json\n')
        with pytest.raises(DataFormatError, match="2"):
            read_jsonl(path)

    @pytest.mark.parametrize(
        "span",
        [
            {"start": 1, "end": 1, "label": "NP"},
            {"start": 0, "end": 2, "label": 5},
            {"start": 0, "end": 2, "label": None},
            {"start": 0.5, "end": 2, "label": "NP"},
            {"start": 0, "end": 2.0, "label": "NP"},
            {"start": True, "end": 2, "label": "NP"},
        ],
        ids=["empty-range", "int-label", "null-label", "float-start", "float-end", "bool-start"],
    )
    def test_bad_span_rejected(self, tmp_path, span):
        path = tmp_path / "data.jsonl"
        write(path, json.dumps({"text": "ab", "spans": [span]}) + "\n")
        with pytest.raises(DataFormatError, match="data.jsonl:1: "):
            read_jsonl(path)


class TestBrat:
    def test_pair(self, tmp_path):
        write(tmp_path / "m1.txt", "Dr teh says")
        write(tmp_path / "m1.ann", "T1\tNP 0 6\tDr teh\n#1\tAnnotatorNotes T1\tcomment\n")
        item = read_brat_pair(tmp_path / "m1.txt", tmp_path / "m1.ann")
        assert item.char_spans == (CharSpan(0, 6, "NP"),)

    def test_surface_mismatch_rejected(self, tmp_path):
        write(tmp_path / "m1.txt", "Dr teh says")
        write(tmp_path / "m1.ann", "T1\tNP 0 6\twrong!\n")
        with pytest.raises(DataFormatError, match="m1.ann:1"):
            read_brat_pair(tmp_path / "m1.txt", tmp_path / "m1.ann")

    def test_malformed_t_line_rejected(self, tmp_path):
        write(tmp_path / "m1.txt", "hello")
        write(tmp_path / "m1.ann", "T1\tNP zero 5\thello\n")
        with pytest.raises(DataFormatError, match="m1.ann:1"):
            read_brat_pair(tmp_path / "m1.txt", tmp_path / "m1.ann")

    def test_directory_reads_sorted_pairs(self, tmp_path):
        for i, text in enumerate(["first msg", "second msg"]):
            write(tmp_path / f"m{i}.txt", text)
            write(tmp_path / f"m{i}.ann", "")
        items = read_brat_dir(tmp_path)
        assert [i.sentence.raw_text for i in items] == ["first msg", "second msg"]

    def test_missing_ann_rejected(self, tmp_path):
        write(tmp_path / "m.txt", "text")
        with pytest.raises(DataFormatError, match="missing annotation"):
            read_brat_dir(tmp_path)

    def test_empty_dir_rejected(self, tmp_path):
        with pytest.raises(DataFormatError):
            read_brat_dir(tmp_path)


class TestStats:
    def test_single_message(self):
        items = [annotate("Dr teh says", [CharSpan(0, 6, "NP")])]
        stats = corpus_stats(items)
        assert (stats.messages, stats.chunks, stats.improper_chunks, stats.tokens) == (1, 1, 0, 3)

    def test_improper_detection(self):
        items = [annotate("butshe's ok", [CharSpan(3, 6, "NP")])]
        stats = corpus_stats(items)
        assert stats.improper_chunks == 1
        assert stats.improper_pct == 100.0

    def test_empty_corpus(self):
        stats = corpus_stats([])
        assert (stats.messages, stats.chunks, stats.improper_chunks, stats.tokens) == (0, 0, 0, 0)
        assert stats.improper_pct == 0.0
