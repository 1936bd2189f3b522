"""Lattice constructions: path sets, edge features, adjacency, export."""

from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import chunkcrf.features
from chunkcrf.core import LabelSet, Sentence, Token, WordSpan, tokenize
from chunkcrf.features import (
    BrownClusterMap,
    FeatureConfig,
    FeatureDictionary,
    FeatureExtractor,
    TRANSITION_PREFIXES,
    WORD_CACHE_SIZE,
)
from chunkcrf.inference import edge_scores
from chunkcrf.lattice import (
    EMPTY_SLOT,
    MODEL_KINDS,
    EdgeClass,
    LatticeError,
    Node,
    NodeKind,
    Topology,
    _Builder,
    _FeatureMemo,
    build_lattice,
    topology,
)

from oracles import (
    all_edge_paths,
    enumerate_bio_spansets,
    enumerate_segmentations,
    path_nodes,
    segmentation_spanset,
    synthetic_sentence,
)

NP = LabelSet(("NP",))


def make_extractor(max_seg_len=6, **flags):
    d = FeatureDictionary()
    return FeatureExtractor(FeatureConfig(max_seg_len=max_seg_len, **flags), d)


def edge_feature_ids(lattice, eid):
    return lattice.edge_features(eid).tolist()


def spanset(lattice, edge_path):
    spans = lattice.path_spans(path_nodes(lattice, edge_path))
    return tuple((s.first_token, s.last_token, s.label) for s in spans)


class TestLinear:
    def test_single_token_has_two_paths(self):
        lat = build_lattice("linear", tokenize("a"), NP, 1, make_extractor())
        assert len(all_edge_paths(lat)) == 2

    def test_two_tokens_have_five_valid_bio_paths(self):
        lat = build_lattice("linear", tokenize("a b"), NP, 1, make_extractor())
        assert len(all_edge_paths(lat)) == 5

    def test_no_edge_from_outside_to_inside(self):
        lat = build_lattice("linear", tokenize("a b"), NP, 1, make_extractor())
        assert "Tag(0,O) -> Tag(1,I-NP)" not in lat.edge_list_text()

    @pytest.mark.parametrize("n", [1, 2, 3, 4, 5])
    def test_paths_biject_with_valid_bio_strings(self, n):
        lat = build_lattice("linear", synthetic_sentence(n), NP, 1, make_extractor())
        lattice_sets = {spanset(lat, p) for p in all_edge_paths(lat)}
        direct = enumerate_bio_spansets(n, NP)
        assert lattice_sets == direct
        assert len(all_edge_paths(lat)) == len(direct)

    def test_two_chunk_labels(self):
        labels = LabelSet(("NP", "VP"))
        lat = build_lattice("linear", synthetic_sentence(3), labels, 1, make_extractor())
        assert {spanset(lat, p) for p in all_edge_paths(lat)} == enumerate_bio_spansets(3, labels)

    def test_empty_sentence_rejected(self):
        with pytest.raises(ValueError):
            build_lattice("linear", tokenize(""), NP, 1, make_extractor())


@pytest.mark.parametrize("kind", ["semi", "weak"])
def test_segments_longer_than_the_extractor_allows_are_rejected(kind):
    with pytest.raises(ValueError, match="segment length 3 exceeds limit 2"):
        build_lattice(kind, tokenize("a b c"), NP, 3, make_extractor(2))


class TestSemi:
    def test_n3_l2_has_twelve_paths(self):
        lat = build_lattice("semi", tokenize("a b c"), NP, 2, make_extractor(2))
        assert len(all_edge_paths(lat)) == 12

    def test_no_segment_longer_than_limit(self):
        lat = build_lattice("semi", synthetic_sentence(6), NP, 2, make_extractor(2))
        for p in all_edge_paths(lat):
            for first, last, _ in spanset(lat, p):
                assert last - first + 1 <= 2

    @pytest.mark.parametrize("n,max_len", [(1, 1), (2, 2), (3, 2), (4, 3), (5, 3)])
    def test_paths_biject_with_segmentations(self, n, max_len):
        lat = build_lattice("semi", synthetic_sentence(n), NP, max_len, make_extractor(max_len))
        lattice_paths = all_edge_paths(lat)
        direct = enumerate_segmentations(n, NP, max_len)
        assert len(lattice_paths) == len(direct)
        assert {spanset(lat, p) for p in lattice_paths} == {
            segmentation_spanset(seg) for seg in direct
        }

    def test_length_one_limit_equals_single_token_chunkings(self):
        # With the segment limit at one, the path set is the linear model's
        # chunking space restricted to single-token chunks, adjacent chunks
        # staying distinct.
        for n in (1, 2, 3, 4):
            lat = build_lattice("semi", synthetic_sentence(n), NP, 1, make_extractor(1))
            semi_sets = {spanset(lat, p) for p in all_edge_paths(lat)}
            linear = build_lattice("linear", synthetic_sentence(n), NP, 1, make_extractor())
            linear_single = {
                s
                for s in (spanset(linear, p) for p in all_edge_paths(linear))
                if all(last == first for first, last, _ in s)
            }
            assert semi_sets == linear_single
            assert len(all_edge_paths(lat)) == 2**n


class TestWeak:
    def test_same_path_count_as_semi(self):
        ext = make_extractor(2)
        semi = build_lattice("semi", tokenize("a b c"), NP, 2, ext)
        weak = build_lattice("weak", tokenize("a b c"), NP, 2, ext)
        assert len(all_edge_paths(weak)) == len(all_edge_paths(semi)) == 12

    @pytest.mark.parametrize("n,max_len", [(1, 1), (3, 2), (4, 3), (5, 2)])
    def test_same_spanset_family_as_semi(self, n, max_len):
        ext = make_extractor(max_len)
        s = synthetic_sentence(n)
        semi = build_lattice("semi", s, NP, max_len, ext)
        weak = build_lattice("weak", s, NP, max_len, ext)
        semi_sets = {spanset(semi, p) for p in all_edge_paths(semi)}
        weak_sets = {spanset(weak, p) for p in all_edge_paths(weak)}
        assert semi_sets == weak_sets

    def test_segment_edges_never_change_label(self):
        lat = build_lattice("weak", synthetic_sentence(4), NP, 3, make_extractor(3))
        for eid, (src, dst) in enumerate(zip(lat.edge_src, lat.edge_dst)):
            if lat.edge_class(eid) is EdgeClass.SEGMENT:
                assert lat.nodes[src].label == lat.nodes[dst].label

    def test_segment_edges_carry_no_transition_features(self):
        d = FeatureDictionary()
        ext = FeatureExtractor(FeatureConfig(max_seg_len=3), d)
        lat = build_lattice("weak", synthetic_sentence(4), NP, 3, ext)
        for eid in range(lat.num_edges):
            names = {d.string(i) for i in edge_feature_ids(lat, eid)}
            if lat.edge_class(eid) is EdgeClass.SEGMENT:
                assert not any(name.startswith(TRANSITION_PREFIXES) for name in names)
            else:
                assert all(name.startswith("TR=") for name in names)

    def test_edge_count_bounds(self):
        labels = LabelSet(("NP",))
        lat = build_lattice("weak", synthetic_sentence(10), labels, 6, make_extractor())
        num_labels = len(labels.alphabet)
        segment_edges = sum(1 for eid in range(lat.num_edges) if lat.edge_class(eid) is EdgeClass.SEGMENT)
        transition_edges = lat.num_edges - segment_edges
        assert segment_edges <= 10 * 6 * num_labels
        assert transition_edges <= 10 * num_labels**2 + 2 * num_labels


def _closed_form_edges(kind, n, chunk_labels, max_len):
    """Edge count of an ``n``-token topology with ``chunk_labels`` chunk
    labels plus outside (Y of them), outside segments one token long."""
    c, y = chunk_labels, chunk_labels + 1
    if kind == "semi":
        chunk = sum(i * y + 1 if i < max_len else max_len * y for i in range(n))
        return 1 + (n - 1) * y + c * chunk + y
    if kind == "weak":
        return 2 * y + n + c * sum(min(max_len, n - j) for j in range(n)) + (n - 1) * y * y
    if n == 1:
        return 2 * (1 + c)
    per_step = (1 + c) * (1 + 2 * c) + 2 * c
    return (1 + c) + (1 + c) ** 2 + c + (n - 2) * per_step + (1 + 2 * c)


class TestEdgeCounts:
    """The edge counts behind the paper's cost argument, O(n*L*|Y|^2) for
    ``semi`` against O(n*|Y|^2 + n*L*|Y|) for ``weak``, read off the real
    topologies."""

    @pytest.mark.parametrize("kind", MODEL_KINDS)
    def test_topology_edges_match_closed_form(self, kind):
        for chunk_labels in range(1, 5):
            label_set = LabelSet(tuple(f"T{i}" for i in range(1, chunk_labels + 1)))
            for n in range(1, 13):
                for max_len in range(1, 7):
                    expected = _closed_form_edges(kind, n, chunk_labels, max_len)
                    assert topology(kind, n, label_set, max_len).num_edges == expected, (n, chunk_labels, max_len)


class TestEdgeFeatures:
    def test_semi_edge_features_match_direct_extraction(self):
        d = FeatureDictionary()
        ext = FeatureExtractor(FeatureConfig(max_seg_len=3, use_shape=True), d)
        s = tokenize("Dr teh says it")
        lat = build_lattice("semi", s, NP, 3, ext)
        dst = lat._node_ids[("seg", 3, "O")]
        # outside segments are single-token, so no edge skips position 2
        assert lat.edge_id(lat._node_ids[("seg", 1, "NP")], dst) is None
        eid = lat.edge_id(lat._node_ids[("seg", 2, "NP")], dst)
        direct = (
            ext.segment_features(s, 3, 3, "O").tolist()
            + ext.transition_features("NP", "O").tolist()
        )
        assert edge_feature_ids(lat, eid) == direct

    def test_linear_edge_features_match_direct_extraction(self):
        d = FeatureDictionary()
        ext = FeatureExtractor(FeatureConfig(use_affix=True), d)
        s = tokenize("Dr teh")
        lat = build_lattice("linear", s, NP, 1, ext)
        src = lat._node_ids[("tag", 0, "B-NP")]
        dst = lat._node_ids[("tag", 1, "I-NP")]
        eid = lat.edge_id(src, dst)
        direct = (
            ext.token_context_features(s, 1, "I-NP").tolist()
            + ext.token_transition_features("B-NP", "I-NP").tolist()
        )
        assert edge_feature_ids(lat, eid) == direct

    def test_features_cached_once_per_segment(self):
        d = FeatureDictionary()
        ext = FeatureExtractor(FeatureConfig(max_seg_len=2), d)
        lat = build_lattice("semi", tokenize("a b c"), NP, 2, ext)
        # edges into the same segment from different predecessors share the
        # segment features and differ only in the transition feature
        ids = [
            lat.edge_id(lat._node_ids[("seg", 0, prev)], lat._node_ids[("seg", 1, "NP")])
            for prev in ("O", "NP")
        ]
        names = [{d.string(i) for i in edge_feature_ids(lat, e)} for e in ids]
        assert names[0] ^ names[1] == {"TR=O|NP", "TR=NP|NP"}

    def test_each_distinct_part_is_stored_once(self):
        d = FeatureDictionary()
        lat = build_lattice("semi", tokenize("a b c"), NP, 2, FeatureExtractor(FeatureConfig(max_seg_len=2), d))
        # the empty part, 5 NP and 3 O segments, and 8 label pairs
        # (START, NP, O -> NP, O; NP, O -> STOP)
        assert lat.num_parts == 1 + 8 + 8
        assert len(lat.part_idx) < sum(len(lat.edge_features(e)) for e in range(lat.num_edges))


class TestGoldPaths:
    def test_gold_path_exists_for_every_model(self):
        s = tokenize("a b c d")
        gold = [WordSpan(1, 2, "NP")]
        for kind in ("linear", "semi", "weak"):
            lat = build_lattice(kind, s, NP, 3, make_extractor(3))
            edges = lat.gold_edge_ids(gold)
            assert spanset(lat, edges) == ((1, 2, "NP"),)

    def test_too_long_span_is_unrepresentable_in_segment_models(self):
        s = tokenize("a b c d")
        gold = [WordSpan(0, 3, "NP")]
        for kind in ("semi", "weak"):
            lat = build_lattice(kind, s, NP, 2, make_extractor(2))
            with pytest.raises(LatticeError):
                lat.gold_edge_ids(gold)

    def test_unknown_label_is_unrepresentable(self):
        s = tokenize("a b")
        lat = build_lattice("semi", s, NP, 2, make_extractor(2))
        with pytest.raises(LatticeError):
            lat.gold_edge_ids([WordSpan(0, 0, "VP")])

    def test_adjacent_same_label_chunks_are_representable(self):
        s = tokenize("a b")
        gold = [WordSpan(0, 0, "NP"), WordSpan(1, 1, "NP")]
        for kind in ("linear", "semi", "weak"):
            lat = build_lattice(kind, s, NP, 2, make_extractor(2))
            assert spanset(lat, lat.gold_edge_ids(gold)) == ((0, 0, "NP"), (1, 1, "NP"))


EXPECTED_WEAK_EXPORT = """\
Root -> Begin(0,O) [transition]
Root -> Begin(0,NP) [transition]
Begin(0,O) -> End(0,O) [segment]
Begin(0,NP) -> End(0,NP) [segment]
Begin(0,NP) -> End(1,NP) [segment]
Begin(1,O) -> End(1,O) [segment]
Begin(1,NP) -> End(1,NP) [segment]
End(0,O) -> Begin(1,O) [transition]
End(0,O) -> Begin(1,NP) [transition]
End(0,NP) -> Begin(1,O) [transition]
End(0,NP) -> Begin(1,NP) [transition]
End(1,O) -> Leaf [transition]
End(1,NP) -> Leaf [transition]
"""


def test_weak_export_golden_file():
    lat = build_lattice("weak", tokenize("a b"), NP, 2, make_extractor(2))
    assert lat.edge_list_text() == EXPECTED_WEAK_EXPORT


def test_topological_order_is_respected_everywhere():
    for kind in ("linear", "semi", "weak"):
        lat = build_lattice(kind, synthetic_sentence(5), LabelSet(("NP", "VP")), 3, make_extractor(3))
        assert np.all(lat.edge_src < lat.edge_dst)


@pytest.mark.parametrize("kind, levels_per_token", [("linear", 1), ("semi", 1), ("weak", 2)])
def test_levels_group_nodes_by_position_and_every_edge_climbs(kind, levels_per_token):
    n = 5
    lat = build_lattice(kind, synthetic_sentence(n), LabelSet(("NP", "VP")), 3, make_extractor(3))
    assert lat.num_levels == levels_per_token * n + 2
    assert lat.level_ptr[0] == 0 and lat.level_ptr[1] == 1
    assert lat.level_ptr[-2] == lat.leaf and lat.level_ptr[-1] == lat.num_nodes
    level = lat.node_levels()
    assert np.all(level[lat.edge_src] < level[lat.edge_dst])
    for a, b in zip(lat.level_ptr[1:-2], lat.level_ptr[2:-1]):
        assert len({(node.kind, node.position) for node in lat.nodes[a:b]}) == 1


def test_csr_adjacency_lists_every_edge_once_by_node():
    lat = build_lattice("weak", synthetic_sentence(4), LabelSet(("NP", "VP")), 3, make_extractor(3))
    for v in range(lat.num_nodes):
        ins = lat.in_edge_ids(v)
        assert np.all(lat.edge_dst[ins] == v) and np.all(np.diff(lat.edge_src[ins]) > 0)
        assert np.all(lat.edge_src[lat.out_edge_ids(v)] == v)
    assert sorted(lat.in_order.tolist()) == sorted(lat.out_order.tolist()) == list(range(lat.num_edges))


def test_sentences_of_one_shape_share_a_topology_but_not_their_parts():
    ext = make_extractor(3)
    first = build_lattice("semi", tokenize("a b c"), NP, 3, ext)
    second = build_lattice("semi", tokenize("x y z"), NP, 3, ext)
    assert first.topology is second.topology
    assert first.part_idx.tolist() != second.part_idx.tolist()
    w = np.arange(1.0, len(ext.dictionary) + 1.0)
    assert edge_scores(first, w).tolist() != edge_scores(second, w).tolist()
    with pytest.raises(ValueError):
        first.edge_src[0] = 1  # the shared structure is read-only


def _two_node_level_builder():
    """Root, one level holding two segment nodes, leaf; no edges yet."""
    b = _Builder("semi")
    b.new_level()
    b.add_node(("root",), Node(NodeKind.ROOT, -1))
    b.new_level()
    x = b.add_node(("seg", 0, "O"), Node(NodeKind.SEG, 0, "O"))
    y = b.add_node(("seg", 0, "NP"), Node(NodeKind.SEG, 0, "NP"))
    b.new_level()
    leaf = b.add_node(("leaf",), Node(NodeKind.LEAF, 1))
    return b, x, y, leaf


def test_edge_within_a_level_is_rejected():
    b, x, y, leaf = _two_node_level_builder()
    for src, dst in ((0, x), (x, y), (y, leaf)):
        b.add_edge(src, dst, EMPTY_SLOT)
    with pytest.raises(AssertionError, match="climb"):
        Topology(b)


@pytest.mark.parametrize("edges", [[(0, 1), (1, 3), (2, 3)], [(0, 1), (0, 2), (1, 3)]], ids=["unreachable", "dead-end"])
def test_unreachable_or_dead_end_node_is_rejected(edges):
    b, *_ = _two_node_level_builder()
    for src, dst in edges:
        b.add_edge(src, dst, EMPTY_SLOT)
    with pytest.raises(AssertionError, match="unreachable or dead-end"):
        Topology(b)


# Surfaces that look like sentinels, placeholders or template syntax, and
# one- and two-character words (shorter than the longest affix).
TRICKY_WORDS = ("<BOS>", "<EOS>", "<NUM>", "|", "=", "[0]", "x|y=z", "WS[0]=q", "a", "Ab", "9", "hi", "gr8", "there")
CLUSTERS = BrownClusterMap({"a": "01", "<BOS>": "10", "x|y=z": "110", "hi": "111"})


def sentence_of(words):
    """A sentence with exactly these tokens, whatever the tokenizer would do."""
    starts = np.cumsum([0] + [len(w) + 1 for w in words[:-1]]).tolist()
    return Sentence(" ".join(words), tuple(Token(w, a, a + len(w)) for w, a in zip(words, starts)))


def reference_part_table(kind, sentence, label_set, max_seg_len, extractor):
    """The part table by one template-method call per slot."""
    memo = _FeatureMemo(extractor, sentence)
    parts = [memo.part(slot) for slot in topology(kind, len(sentence), label_set, max_seg_len).slots]
    return np.concatenate(parts), np.repeat(np.arange(len(parts), dtype=np.int32), [len(p) for p in parts])


def feature_config(flags, max_seg_len):
    return FeatureConfig(use_affix="a" in flags, use_brown="b" in flags, use_shape="s" in flags,
                         max_seg_len=max_seg_len)


def assert_compiles_like_the_reference(kind, sentences, label_set, config, frozen_on=None):
    """Compile ``sentences`` in order through one extractor, and through the
    per-slot reference with another; the part tables must be equal bit for
    bit and the dictionaries must list the same strings in the same order.
    With ``frozen_on``, both share a dictionary holding only that sentence's
    features, frozen."""
    if frozen_on is None:
        compiled_dict, reference_dict = FeatureDictionary(), FeatureDictionary()
    else:
        compiled_dict = reference_dict = FeatureDictionary()
        reference_part_table(kind, frozen_on, label_set, config.max_seg_len,
                             FeatureExtractor(config, compiled_dict, CLUSTERS))
        compiled_dict.freeze()
    compiled = FeatureExtractor(config, compiled_dict, CLUSTERS)
    reference = FeatureExtractor(config, reference_dict, CLUSTERS)
    for sentence in sentences:
        lat = build_lattice(kind, sentence, label_set, config.max_seg_len, compiled)
        idx, row = reference_part_table(kind, sentence, label_set, config.max_seg_len, reference)
        assert lat.part_idx.dtype == idx.dtype and lat.part_row.dtype == row.dtype
        assert lat.part_idx.tobytes() == idx.tobytes()
        assert lat.part_row.tobytes() == row.tobytes()
        assert compiled_dict.strings == reference_dict.strings


@pytest.mark.parametrize("flags", ["", "a", "b", "s", "abs"])
@pytest.mark.parametrize("kind", MODEL_KINDS)
def test_real_tokens_spelled_like_sentinels_keep_their_features(kind, flags):
    # the tokenizer keeps <BOS>/<EOS> whole, and they must be treated by
    # their surface exactly as the template methods treat them
    sentence = tokenize("hi <BOS> there <EOS> x|y=z WS[0]=q")
    assert "<BOS>" in [t.surface for t in sentence.tokens]
    config = feature_config(flags, 4)
    assert_compiles_like_the_reference(kind, [sentence], LabelSet(("NP",)), config)
    assert_compiles_like_the_reference(kind, [sentence], LabelSet(("NP",)), config, frozen_on=tokenize("hi there"))


@st.composite
def compile_cases(draw):
    words = st.lists(st.sampled_from(TRICKY_WORDS), min_size=1, max_size=6)
    return (
        draw(st.sampled_from(MODEL_KINDS)),
        [sentence_of(w) for w in draw(st.lists(words, min_size=1, max_size=4))],
        LabelSet(draw(st.sampled_from([("NP",), ("NP", "VP")]))),
        feature_config(draw(st.sets(st.sampled_from("abs"))), draw(st.integers(1, 4))),
        draw(st.booleans()),
        draw(st.sampled_from([0, 3, WORD_CACHE_SIZE])),
    )


@settings(max_examples=150, deadline=None)
@given(compile_cases())
def test_compiled_part_tables_equal_the_per_slot_reference(case):
    kind, sentences, label_set, config, frozen, cache_size = case
    # a small word cache makes the extractor start afresh between sentences
    with mock.patch.object(chunkcrf.features, "WORD_CACHE_SIZE", cache_size):
        assert_compiles_like_the_reference(kind, sentences, label_set, config,
                                           frozen_on=sentences[0] if frozen else None)


@pytest.mark.parametrize("kind", MODEL_KINDS)
def test_an_unfrozen_extractor_builds_each_word_row_once(kind, monkeypatch):
    # a growing dictionary compiles finite training data, so the word cache
    # bound applies to frozen dictionaries only
    sentences = [tokenize(f"w{i} w{i + 1} w{i + 2} w{i + 3}") for i in range(10)]
    config = feature_config("as", 3)
    reference_ext = FeatureExtractor(config, FeatureDictionary())
    reference = [build_lattice(kind, s, NP, 3, reference_ext) for s in sentences]

    added = []
    add_row = FeatureExtractor._add_row
    monkeypatch.setattr(FeatureExtractor, "_add_row", lambda self, k, w: added.append(w) or add_row(self, k, w))
    monkeypatch.setattr(chunkcrf.features, "WORD_CACHE_SIZE", 2)
    ext = FeatureExtractor(config, FeatureDictionary())
    lattices = [build_lattice(kind, s, NP, 3, ext) for s in sentences]
    assert sorted(added) == sorted({"<BOS>", "<EOS>", *(t.surface for s in sentences for t in s.tokens)})
    for lat, ref in zip(lattices, reference):
        assert lat.part_idx.tobytes() == ref.part_idx.tobytes()
        assert lat.part_row.tobytes() == ref.part_row.tobytes()
    assert ext.dictionary.strings == reference_ext.dictionary.strings
