"""Lattice constructions: path sets, edge features, adjacency, gold paths."""

from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from scipy.sparse import block_diag

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
from chunkcrf.inference import edge_scores, feature_counts
from chunkcrf.lattice import (
    MODEL_KINDS,
    Batch,
    LatticeError,
    Node,
    Topology,
    _Builder,
    _FeatureMemo,
    build_lattice,
    topology,
)

from oracles import (
    all_edge_paths,
    bincount_feature_counts,
    edge_features,
    enumerate_bio_spansets,
    enumerate_segmentations,
    gather_edge_scores,
    part_table,
    path_nodes,
    segmentation_spanset,
    synthetic_sentence,
    table_edge_scores,
    table_feature_counts,
)

NP = LabelSet(("NP",))


def make_extractor(max_seg_len=6, **flags):
    d = FeatureDictionary()
    return FeatureExtractor(FeatureConfig(max_seg_len=max_seg_len, **flags), d)


def edge_feature_ids(lattice, eid):
    return edge_features(lattice, eid).tolist()


def edge_id(lattice, src, dst):
    """Id of the edge ``src -> dst``, -1 where there is none."""
    return int(lattice.edge_ids([src], [dst])[0])


def spanset(lattice, edge_path):
    spans = lattice.path_spans(path_nodes(lattice, edge_path))
    return tuple((s.first_token, s.last_token, s.label) for s in spans)


def edge_class(lattice, eid):
    """``"segment"`` or ``"transition"``: the template of a ``weak`` edge's one part."""
    (part,) = lattice.part_edges[:, eid].nonzero()[0]
    return lattice.slots[part][0]


class TestLinear:
    def test_single_token_has_two_paths(self):
        lat = build_lattice("linear", tokenize("a"), NP, 1, make_extractor())
        assert len(all_edge_paths(lat)) == 2

    def test_two_tokens_have_five_valid_bio_paths(self):
        lat = build_lattice("linear", tokenize("a b"), NP, 1, make_extractor())
        assert len(all_edge_paths(lat)) == 5

    def test_no_edge_from_outside_to_inside(self):
        lat = build_lattice("linear", tokenize("a b"), NP, 1, make_extractor())
        assert edge_id(lat, lat._node_ids[Node("tag", 0, "O")], lat._node_ids[Node("tag", 1, "I-NP")]) == -1

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
            if edge_class(lat, eid) == "segment":
                assert lat.nodes[src].label == lat.nodes[dst].label

    def test_segment_edges_carry_no_transition_features(self):
        d = FeatureDictionary()
        ext = FeatureExtractor(FeatureConfig(max_seg_len=3), d)
        lat = build_lattice("weak", synthetic_sentence(4), NP, 3, ext)
        for eid in range(lat.num_edges):
            names = {d.strings[i] for i in edge_feature_ids(lat, eid)}
            if edge_class(lat, eid) == "segment":
                assert not any(name.startswith(TRANSITION_PREFIXES) for name in names)
            else:
                assert all(name.startswith("TR=") for name in names)

    def test_edge_count_bounds(self):
        labels = LabelSet(("NP",))
        lat = build_lattice("weak", synthetic_sentence(10), labels, 6, make_extractor())
        num_labels = len(labels.alphabet)
        segment_edges = sum(1 for eid in range(lat.num_edges) if edge_class(lat, eid) == "segment")
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
        dst = lat._node_ids[Node("seg", 3, "O")]
        # outside segments are single-token, so no edge skips position 2
        assert edge_id(lat, lat._node_ids[Node("seg", 1, "NP")], dst) == -1
        eid = edge_id(lat, lat._node_ids[Node("seg", 2, "NP")], dst)
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
        src = lat._node_ids[Node("tag", 0, "B-NP")]
        dst = lat._node_ids[Node("tag", 1, "I-NP")]
        eid = edge_id(lat, src, dst)
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
            edge_id(lat, lat._node_ids[Node("seg", 0, prev)], lat._node_ids[Node("seg", 1, "NP")])
            for prev in ("O", "NP")
        ]
        names = [{d.strings[i] for i in edge_feature_ids(lat, e)} for e in ids]
        assert names[0] ^ names[1] == {"TR=O|NP", "TR=NP|NP"}

    def test_each_distinct_part_is_stored_once(self):
        d = FeatureDictionary()
        lat = build_lattice("semi", tokenize("a b c"), NP, 2, FeatureExtractor(FeatureConfig(max_seg_len=2), d))
        # 5 NP and 3 O segments, and 8 label pairs (START, NP, O -> NP, O; NP, O -> STOP)
        assert lat.num_parts == 8 + 8
        assert len(part_table(lat)[0]) < sum(len(edge_features(lat, e)) for e in range(lat.num_edges))
        # and each (position, label) cell once, though several segments read it
        assert len(lat.cell_ids) < lat.P.nnz


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

    @pytest.mark.parametrize("kind", MODEL_KINDS)
    def test_a_chunk_labeled_outside_is_unrepresentable(self, kind):
        lat = build_lattice(kind, tokenize("a b"), NP, 2, make_extractor(2))
        with pytest.raises(LatticeError):
            lat.gold_edge_ids([WordSpan(0, 0, "O")])

    @pytest.mark.parametrize("kind", MODEL_KINDS)
    def test_gold_edge_ids_invert_path_spans_on_every_path(self, kind):
        for labels in (NP, LabelSet(("NP", "VP"))):
            for n in range(1, 6):
                for max_len in (1,) if kind == "linear" else (1, 2, 3):
                    lat = build_lattice(kind, synthetic_sentence(n), labels, max_len, None)
                    for path in all_edge_paths(lat):
                        spans = lat.path_spans(path_nodes(lat, path))
                        assert lat.gold_edge_ids(spans) == path, (n, labels, max_len, spans)

    def test_adjacent_same_label_chunks_are_representable(self):
        s = tokenize("a b")
        gold = [WordSpan(0, 0, "NP"), WordSpan(1, 1, "NP")]
        for kind in ("linear", "semi", "weak"):
            lat = build_lattice(kind, s, NP, 2, make_extractor(2))
            assert spanset(lat, lat.gold_edge_ids(gold)) == ((0, 0, "NP"), (1, 1, "NP"))


def _begin(i, label):
    return Node("begin", i, label)


def _end(i, label):
    return Node("end", i, label)


ROOT, LEAF_2 = Node("root", -1), Node("leaf", 2)
EXPECTED_WEAK_EDGES = [  # the weak lattice of "a b": (source, target, first slot's template)
    (ROOT, _begin(0, "O"), "transition"),
    (ROOT, _begin(0, "NP"), "transition"),
    (_begin(0, "O"), _end(0, "O"), "segment"),
    (_begin(0, "NP"), _end(0, "NP"), "segment"),
    (_begin(0, "NP"), _end(1, "NP"), "segment"),
    (_begin(1, "O"), _end(1, "O"), "segment"),
    (_begin(1, "NP"), _end(1, "NP"), "segment"),
    (_end(0, "O"), _begin(1, "O"), "transition"),
    (_end(0, "O"), _begin(1, "NP"), "transition"),
    (_end(0, "NP"), _begin(1, "O"), "transition"),
    (_end(0, "NP"), _begin(1, "NP"), "transition"),
    (_end(1, "O"), LEAF_2, "transition"),
    (_end(1, "NP"), LEAF_2, "transition"),
]


def test_weak_export_golden_file():
    lat = build_lattice("weak", tokenize("a b"), NP, 2, make_extractor(2))
    edges = [(lat.nodes[src], lat.nodes[dst], edge_class(lat, eid))
             for eid, (src, dst) in enumerate(zip(lat.edge_src, lat.edge_dst))]
    assert edges == EXPECTED_WEAK_EDGES


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


def test_sweeps_list_every_edge_once_by_node():
    """The forward sweep's runs are each node's in-edges, sorted by source,
    for every node above the root; the backward sweep's are each node's
    out-edges, for every node below the leaf."""
    lat = build_lattice("weak", synthetic_sentence(4), LabelSet(("NP", "VP")), 3, make_extractor(3))
    for sweep, nodes, head, tail in ((lat.forward_sweep, range(1, lat.num_nodes), lat.edge_dst, lat.edge_src),
                                     (lat.backward_sweep, range(lat.leaf), lat.edge_src, lat.edge_dst)):
        starts = sweep.node_starts.tolist()
        assert len(starts) == len(nodes) and starts[0] == 0
        for v, lo, hi in zip(nodes, starts, starts[1:] + [lat.num_edges]):
            run = sweep.order[lo:hi]
            assert len(run) and np.all(head[run] == v)
            if sweep is lat.forward_sweep:
                assert np.all(np.diff(tail[run]) > 0)
    assert sorted(lat.forward_sweep.order.tolist()) == sorted(lat.backward_sweep.order.tolist()) \
        == list(range(lat.num_edges))


def test_sentences_of_one_shape_share_a_topology_but_not_their_parts():
    ext = make_extractor(3)
    first = build_lattice("semi", tokenize("a b c"), NP, 3, ext)
    second = build_lattice("semi", tokenize("x y z"), NP, 3, ext)
    assert first.topology is second.topology and isinstance(first, Topology)
    assert first.forward_sweep is second.forward_sweep is first.topology.forward_sweep
    assert first.backward_sweep is second.backward_sweep is first.topology.backward_sweep
    assert first.edge_src is first.topology.edge_src
    assert first.P is second.P and first.cell_ids.tolist() != second.cell_ids.tolist()
    w = np.arange(1.0, len(ext.dictionary) + 1.0)
    assert edge_scores(first, w).tolist() != edge_scores(second, w).tolist()
    with pytest.raises(ValueError):
        first.edge_src[0] = 1  # the shared structure is read-only


@pytest.mark.parametrize("kind", MODEL_KINDS)
def test_dp_indices_are_intp_and_step_runs_are_views(kind):
    """numpy gathers through ``intp`` ids without a cast, so every DP index
    array is ``intp``, and each sweep step reads its runs in place; cell ids
    are feature ids and stay ``int32``."""
    ext = make_extractor(3)
    lattices = [build_lattice(kind, synthetic_sentence(n), LabelSet(("NP", "VP")), 3, ext) for n in (4, 1, 6)]
    batch = Batch(lattices)
    for graph in (lattices[0].topology, lattices[0], batch):
        for name in ("edge_src", "edge_dst"):
            assert getattr(graph, name).dtype == np.intp, name
        for sweep in (graph.forward_sweep, graph.backward_sweep):
            assert sweep.order.dtype == sweep.read.dtype == sweep.write.dtype == sweep.node_starts.dtype == np.intp
            for _, _, lo, hi, read, write, _ in sweep.steps:
                assert np.shares_memory(read, sweep.read) and np.shares_memory(write, sweep.write)
                assert np.array_equal(read, sweep.read[lo:hi]) and np.array_equal(write, sweep.write[lo:hi])
    assert lattices[0].cell_ids.dtype == batch.cell_ids.dtype == np.int32


@pytest.mark.parametrize("kind", MODEL_KINDS)
def test_sweep_edge_arrays_are_read_only(kind):
    """Every lattice of a shape shares its topology's sweeps, so no sweep
    edge array or step view of one can be written, in a batch's own sweeps
    either.  (Step offsets stay writable: ``reduceat`` copies read-only ones.)"""
    ext = make_extractor(3)
    lattices = [build_lattice(kind, synthetic_sentence(n), LabelSet(("NP", "VP")), 3, ext) for n in (4, 1, 6)]
    for graph in (lattices[0], Batch(lattices)):
        for sweep in (graph.forward_sweep, graph.backward_sweep):
            assert sweep.steps
            arrays = [sweep.order, sweep.read, sweep.write]
            for _, _, _, _, read, write, _ in sweep.steps:
                arrays += [read, write]
            assert not any(array.flags.writeable for array in arrays)
            with pytest.raises(ValueError):
                sweep.read[0] = 0


def _two_node_level_builder():
    """Root, one level holding two segment nodes, leaf; no edges yet."""
    b = _Builder("semi")
    b.new_level()
    b.add_node(Node("root", -1))
    b.new_level()
    x = b.add_node(Node("seg", 0, "O"))
    y = b.add_node(Node("seg", 0, "NP"))
    b.new_level()
    leaf = b.add_node(Node("leaf", 1))
    return b, x, y, leaf


def test_edge_within_a_level_is_rejected():
    b, x, y, leaf = _two_node_level_builder()
    for src, dst in ((0, x), (x, y), (y, leaf)):
        b.add_edge(src, dst)
    with pytest.raises(AssertionError, match="climb"):
        Topology(b)


@pytest.mark.parametrize("edges", [[(0, 1), (1, 3), (2, 3)], [(0, 1), (0, 2), (1, 3)]], ids=["unreachable", "dead-end"])
def test_unreachable_or_dead_end_node_is_rejected(edges):
    b, *_ = _two_node_level_builder()
    for src, dst in edges:
        b.add_edge(src, dst)
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
        lat_idx, lat_row = part_table(lat)
        assert lat_idx.dtype == idx.dtype and lat_row.dtype == row.dtype
        assert lat_idx.tobytes() == idx.tobytes()
        assert lat_row.tobytes() == row.tobytes()
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


def compile_case_lattices(case):
    """The case's sentences compiled through one extractor, whose dictionary
    is frozen on the first sentence's features when the case asks for it."""
    kind, sentences, label_set, config, frozen, _ = case
    dictionary = FeatureDictionary()
    if frozen:
        build_lattice(kind, sentences[0], label_set, config.max_seg_len, FeatureExtractor(config, dictionary, CLUSTERS))
        dictionary.freeze()
    extractor = FeatureExtractor(config, dictionary, CLUSTERS)
    return [build_lattice(kind, s, label_set, config.max_seg_len, extractor) for s in sentences], extractor


@settings(max_examples=100, deadline=None)
@given(compile_cases())
def test_sweep_orders_sort_the_edges_by_head_and_by_source(case):
    """On lone lattices and mixed-length batches alike, the forward sweep
    lists the edges by head, then source, and the backward sweep by source,
    each edge once, and each sweep's ``node_starts`` are the cumulative
    degree offsets of the nodes it computes."""
    lattices, _ = compile_case_lattices(case)
    for graph in (Batch(lattices), *lattices):
        forward, backward = graph.forward_sweep, graph.backward_sweep
        assert np.array_equal(forward.order, np.lexsort((graph.edge_src, graph.edge_dst)))
        assert np.array_equal(backward.order, np.argsort(graph.edge_src, kind="stable"))
        for sweep in (forward, backward):
            assert np.array_equal(np.sort(sweep.order), np.arange(graph.num_edges))
        in_offsets, out_offsets = (np.concatenate(([0], np.cumsum(np.bincount(end, minlength=graph.num_nodes))))
                                   for end in (graph.edge_dst, graph.edge_src))
        assert np.array_equal(forward.node_starts, in_offsets[graph.level_ptr[1]:-1])  # the nodes above the roots
        assert np.array_equal(backward.node_starts, out_offsets[:graph.level_ptr[-2]])  # the nodes below the leaves


@settings(max_examples=100, deadline=None)
@given(compile_cases(), st.integers(0, 2**32 - 1))
def test_cell_scoring_equals_the_expanded_part_table(case, seed):
    # scores through P and the cell ids equal the expanded table's bincount
    # bit for bit, on a batch and on each member alone; expected counts sum
    # in another grouping, indicator counts are exact
    lattices, extractor = compile_case_lattices(case)
    dim = len(extractor.dictionary)
    rng = np.random.default_rng(seed)
    w = rng.normal(size=dim)
    for graph in (Batch(lattices), *lattices):
        assert edge_scores(graph, w).tobytes() == table_edge_scores(graph, w).tobytes()
        posteriors = rng.random(graph.num_edges)
        np.testing.assert_allclose(feature_counts(graph, posteriors, dim),
                                   table_feature_counts(graph, posteriors, dim), rtol=1e-12, atol=0)
        indicator = rng.integers(0, 2, graph.num_edges).astype(np.float64)
        assert feature_counts(graph, indicator, dim).tobytes() == table_feature_counts(graph, indicator, dim).tobytes()
    for lat in lattices:  # one read-only P per shape
        assert lat.P is lat.topology.pattern(extractor.layout).P
        assert not any(a.flags.writeable for a in (lat.P.data, lat.P.indices, lat.P.indptr))


@settings(max_examples=100, deadline=None)
@given(compile_cases(), st.integers(0, 2**32 - 1))
def test_counts_equal_the_bincount_reference_bit_for_bit(case, seed):
    # a part_edges row sums its edges from +0.0 in edge order, as the
    # weighted bincount does
    lattices, extractor = compile_case_lattices(case)
    dim = len(extractor.dictionary)
    rng = np.random.default_rng(seed)
    for graph in (Batch(lattices), *lattices):
        assert graph.part_edges.shape == (graph.num_parts, graph.num_edges)
        indicator = rng.integers(0, 2, graph.num_edges)
        for edge_weights in (rng.random(graph.num_edges), indicator, indicator.astype(np.float64)):
            counts = feature_counts(graph, edge_weights, dim)
            assert counts.tobytes() == bincount_feature_counts(graph, edge_weights, dim).tobytes()


@pytest.mark.parametrize("kind", MODEL_KINDS)
def test_featureless_counts_are_empty(kind):
    lattices = [build_lattice(kind, synthetic_sentence(n), NP, 3, None) for n in (3, 1)]
    for graph in (Batch(lattices), *lattices):
        counts = feature_counts(graph, np.ones(graph.num_edges), 0)
        assert counts.shape == (0,)


@pytest.mark.parametrize("kind", MODEL_KINDS)
def test_part_edges_list_each_edges_parts_and_are_read_only(kind):
    label_set = LabelSet(("NP", "VP"))
    shape = topology(kind, 4, label_set, 3)
    M = shape.part_edges
    assert M.shape == (len(shape.slots), shape.num_edges) and np.all(M.data == 1.0)
    # a linear edge carries a context and a transition part, a semi edge a
    # segment and a transition part but the edges into the leaf only the
    # transition, a weak edge one part
    E = shape.num_edges
    assert M.nnz == {"linear": 2 * E, "semi": 2 * E - len(label_set.alphabet), "weak": E}[kind]
    rows = np.repeat(np.arange(M.shape[0]), np.diff(M.indptr))
    for s in range(M.shape[0]):  # row s: the edges carrying slot s, in edge order
        edges = M.indices[rows == s]
        assert len(edges) and np.all(np.diff(edges) > 0)
    assert not any(a.flags.writeable for a in (M.data, M.indices, M.indptr))
    lat = build_lattice(kind, synthetic_sentence(4), label_set, 3, make_extractor(3))
    assert lat.part_edges is M and lat.part_edges_T is shape.part_edges_T


@settings(max_examples=100, deadline=None)
@given(compile_cases(), st.integers(0, 2**32 - 1))
def test_scores_equal_the_gather_reference_bit_for_bit(case, seed):
    # part_edges.T sums an edge's parts from +0.0 in part order: two-term
    # addition commutes, and no part score is -0.0, so this equals adding the
    # gathered part scores, also for signed zeros, overflows and NaNs
    lattices, extractor = compile_case_lattices(case)
    dim = len(extractor.dictionary)
    rng = np.random.default_rng(seed)
    w = rng.normal(size=dim)
    w[rng.random(dim) < 0.2] = -0.0
    huge = rng.random(dim) < 0.1
    w[huge] = rng.choice([1e308, -1e308], size=huge.sum())
    for graph in (Batch(lattices), *lattices):
        for weights in (w, np.abs(w), -np.abs(w)):
            assert edge_scores(graph, weights).tobytes() == gather_edge_scores(graph, weights).tobytes()


@pytest.mark.parametrize("kind", MODEL_KINDS)
def test_a_batch_joins_p_and_part_edges_as_scipy_block_diag(kind):
    ext = make_extractor(3)
    lattices = [build_lattice(kind, synthetic_sentence(n), LabelSet(("NP", "VP")), 3, ext) for n in (4, 1, 6)]
    batch = Batch(lattices)
    for name in ("P", "part_edges"):
        joined = getattr(batch, name)
        assert joined.indptr.dtype == joined.indices.dtype == np.int32, name
        # in COO form block_diag keeps each block's entries in their stored order
        expected = block_diag([getattr(lat, name) for lat in lattices], format="coo")
        entries = joined.tocoo()
        assert joined.shape == expected.shape
        for attr in ("row", "col", "data"):
            assert getattr(entries, attr).tolist() == getattr(expected, attr).tolist(), (name, attr)


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
        for mine, theirs in zip(part_table(lat), part_table(ref)):
            assert mine.tobytes() == theirs.tobytes()
    assert ext.dictionary.strings == reference_ext.dictionary.strings
