"""Feature template expansion, the dictionary, shapes, and cluster files."""

import numpy as np
import pytest
from hypothesis import given, strategies as st

from chunkcrf.core import tokenize
from chunkcrf.features import (
    BrownClusterMap,
    FeatureConfig,
    FeatureDictionary,
    FeatureExtractor,
    UNKNOWN_CLUSTER,
    load_brown_clusters,
    word_shape,
)


def strings_of(extractor, fv):
    strings = extractor.dictionary.strings
    return {strings[i] for i in fv}


def linear_strings(extractor, sentence, position, prev_tag, cur_tag):
    """Strings on a linear-trellis edge: token context plus tag transition."""
    return strings_of(extractor, extractor.token_context_features(sentence, position, cur_tag)) | strings_of(
        extractor, extractor.token_transition_features(prev_tag, cur_tag)
    )


class TestWordShape:
    @pytest.mark.parametrize(
        "word,shape",
        [
            ("Dr", "Xx"),
            ("2011abcDEF", "ddxxXX"),
            ("she's", "xx'x"),
            ("", ""),
            ("!!!!", "!!"),
            ("McDonald", "XxXxx"),
        ],
    )
    def test_examples(self, word, shape):
        assert word_shape(word) == shape

    @given(st.text(max_size=30))
    def test_never_longer_than_input(self, word):
        assert len(word_shape(word)) <= len(word)

    @given(st.text(max_size=30).filter(lambda w: not any(ch.isdigit() for ch in w)))
    def test_idempotent_on_digit_free_output(self, word):
        # The digit shape character "d" is itself a lowercase letter, so
        # digit-bearing outputs cannot be fixed points of the stated mapping;
        # every other output is.
        once = word_shape(word)
        assert word_shape(once) == once

    @given(st.text(max_size=30))
    def test_double_application_reaches_a_fixed_point(self, word):
        twice = word_shape(word_shape(word))
        assert word_shape(twice) == twice


class TestDictionary:
    def test_grows_then_freezes(self):
        d = FeatureDictionary()
        assert d.indices(["a"]).tolist() == [0]
        assert d.indices(["b"]).tolist() == [1]
        assert d.indices(["a"]).tolist() == [0]
        d.freeze()
        assert d.indices(["c"]).tolist() == [-1]
        assert d.indices(["b"]).tolist() == [1]
        assert len(d) == 2

    def test_round_trip(self):
        d = FeatureDictionary.from_strings(["x", "y"])
        assert d.strings[1] == "y"
        assert d.strings == ("x", "y")

    def test_from_strings_keeps_a_repeated_string_at_its_first_position(self):
        d = FeatureDictionary.from_strings(["b", "a", "b", "c", "a"])
        assert d.frozen and len(d) == 3 and d.strings == ("b", "a", "c")
        assert d.indices(["c", "b", "a"]).tolist() == [2, 0, 1]

    def test_bulk_lookup_allocates_missing_strings_in_the_order_given(self):
        d = FeatureDictionary()
        d.indices(["a", "b"])
        ids = d.indices(["c", "b", "d", "a"])
        assert ids.dtype == np.int32 and ids.tolist() == [2, 1, 3, 0]
        assert d.strings == ("a", "b", "c", "d")

    def test_bulk_lookup_gives_a_repeated_string_one_id(self):
        d = FeatureDictionary()
        assert d.indices(["x", "y", "x", "x", "z", "y"]).tolist() == [0, 1, 0, 0, 2, 1]
        assert d.strings == ("x", "y", "z")

    def test_bulk_lookup_on_a_frozen_dictionary_misses_with_minus_one(self):
        d = FeatureDictionary.from_strings(["a", "b"])
        assert d.frozen
        assert d.indices(["b", "new", "a", "new"]).tolist() == [1, -1, 0, -1]
        assert d.indices([]).tolist() == []
        assert len(d) == 2 and d.strings == ("a", "b")


class TestLinearTemplates:
    def test_base_expansion_at_sentence_start(self):
        d = FeatureDictionary()
        ext = FeatureExtractor(FeatureConfig(), d)
        strings = linear_strings(ext, tokenize("Dr teh says"), 0, "<START>", "B-NP")
        assert strings == {"W[-1]=<BOS>|B-NP", "W[0]=Dr|B-NP", "T=<START>|B-NP"}

    def test_shape_flag_adds_shape_features(self):
        d = FeatureDictionary()
        ext = FeatureExtractor(FeatureConfig(use_shape=True), d)
        strings = linear_strings(ext, tokenize("Dr teh says"), 0, "<START>", "B-NP")
        assert {"S[-1]=<BOS>|B-NP", "S[0]=Xx|B-NP"} <= strings

    def test_frozen_dictionary_drops_unseen(self):
        d = FeatureDictionary()
        ext = FeatureExtractor(FeatureConfig(), d)
        linear_strings(ext, tokenize("Dr teh says"), 0, "<START>", "B-NP")
        d.freeze()
        strings = linear_strings(ext, tokenize("new words here"), 0, "<START>", "B-NP")
        assert strings == {"W[-1]=<BOS>|B-NP", "T=<START>|B-NP"}

    def test_affix_features(self):
        d = FeatureDictionary()
        ext = FeatureExtractor(FeatureConfig(use_affix=True), d)
        strings = linear_strings(ext, tokenize("says"), 0, "<START>", "O")
        expected = {
            "PRE1=s|O", "SUF1=s|O",
            "PRE2=sa|O", "SUF2=ys|O",
            "PRE3=say|O", "SUF3=ays|O",
        }
        assert expected <= strings

    def test_brown_features(self):
        d = FeatureDictionary()
        ext = FeatureExtractor(FeatureConfig(use_brown=True), d, BrownClusterMap({"says": "0110"}))
        assert "BR[0]=0110|O" in linear_strings(ext, tokenize("says"), 0, "<START>", "O")


class TestSegmentTemplates:
    def test_base_expansion(self):
        d = FeatureDictionary()
        ext = FeatureExtractor(FeatureConfig(), d)
        fv = ext.segment_features(tokenize("Dr teh says"), 0, 1, "NP")
        assert strings_of(ext, fv) == {
            "WS[0]=Dr|NP",
            "WS[1]=teh|NP",
            "WE[0]=teh|NP",
            "WE[1]=Dr|NP",
            "W[before]=<BOS>|NP",
            "W[after]=says|NP",
        }

    def test_transition_only_with_previous_label(self):
        d = FeatureDictionary()
        ext = FeatureExtractor(FeatureConfig(), d)
        without = strings_of(ext, ext.segment_features(tokenize("Dr teh says"), 0, 1, "NP"))
        with_prev = without | strings_of(ext, ext.transition_features("O", "NP"))
        assert with_prev - without == {"TR=O|NP"}

    def test_length_one_forward_and_backward_bind_the_same_word(self):
        d = FeatureDictionary()
        ext = FeatureExtractor(FeatureConfig(), d)
        feats = strings_of(ext, ext.segment_features(tokenize("Dr teh says"), 2, 2, "O"))
        assert {"WS[0]=says|O", "WE[0]=says|O"} <= feats

    def test_segment_length_limits(self):
        d = FeatureDictionary()
        ext = FeatureExtractor(FeatureConfig(max_seg_len=2), d)
        s = tokenize("a b c")
        with pytest.raises(ValueError):
            ext.segment_features(s, 0, 2, "NP")
        with pytest.raises(ValueError):
            ext.segment_features(s, 0, 1, "O")

    def test_flags_only_add_features(self):
        s = tokenize("Dr teh says")
        base_d = FeatureDictionary()
        base = strings_of(
            FeatureExtractor(FeatureConfig(), base_d),
            FeatureExtractor(FeatureConfig(), base_d).segment_features(s, 0, 1, "NP"),
        )
        for cfg in (
            FeatureConfig(use_affix=True),
            FeatureConfig(use_shape=True),
            FeatureConfig(use_affix=True, use_shape=True),
        ):
            d = FeatureDictionary()
            ext = FeatureExtractor(cfg, d)
            more = strings_of(ext, ext.segment_features(s, 0, 1, "NP"))
            assert base <= more

    def test_extraction_is_deterministic(self):
        s = tokenize("Dr teh says it")
        results = []
        for _ in range(2):
            d = FeatureDictionary()
            ext = FeatureExtractor(FeatureConfig(use_affix=True, use_shape=True), d)
            fv = ext.segment_features(s, 1, 2, "NP")
            results.append((tuple(fv.tolist()), d.strings))
        assert results[0] == results[1]


class TestBrownClusters:
    def test_load(self, tmp_path):
        path = tmp_path / "clusters.txt"
        path.write_text("0110\tthe\t4200\n01\tof\n", encoding="utf-8")
        brown = load_brown_clusters(path)
        assert brown.cluster("the") == "0110"
        assert brown.cluster("of") == "01"
        assert brown.cluster("missing") == UNKNOWN_CLUSTER

    def test_duplicates_keep_first(self, tmp_path):
        path = tmp_path / "clusters.txt"
        path.write_text("00\tword\n11\tword\n", encoding="utf-8")
        assert load_brown_clusters(path).cluster("word") == "00"

    def test_malformed_line_reports_line_number(self, tmp_path):
        path = tmp_path / "clusters.txt"
        path.write_text("00\tok\nbroken-line\n", encoding="utf-8")
        with pytest.raises(ValueError, match="2"):
            load_brown_clusters(path)

    def test_empty_file_maps_everything_to_unknown(self, tmp_path):
        path = tmp_path / "clusters.txt"
        path.write_text("", encoding="utf-8")
        assert load_brown_clusters(path).cluster("anything") == UNKNOWN_CLUSTER
