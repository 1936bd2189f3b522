"""Lattice constructions: path sets, edge features, adjacency, export."""

import numpy as np
import pytest

from chunkcrf.core import LabelSet, WordSpan, tokenize
from chunkcrf.features import FeatureConfig, FeatureDictionary, FeatureExtractor, TRANSITION_PREFIXES
from chunkcrf.inference import edge_scores
from chunkcrf.lattice import (
    EMPTY_SLOT,
    EdgeClass,
    LatticeError,
    Node,
    NodeKind,
    Topology,
    _Builder,
    build_lattice,
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
