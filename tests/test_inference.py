"""Inference against brute-force path enumeration."""

import dataclasses
import math
import warnings

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from chunkcrf.core import LabelSet, WordSpan, tokenize
from chunkcrf.features import FeatureConfig, FeatureDictionary, FeatureExtractor
from chunkcrf.inference import (
    NumericalError,
    backward_log,
    edge_scores,
    forward_log,
    marginals_from_scores,
    viterbi,
    viterbi_path,
)
from chunkcrf.lattice import Batch, build_lattice

from oracles import (
    all_edge_paths,
    brute_best_paths,
    brute_edge_marginals,
    brute_log_partition,
    edge_features,
    edge_score,
    path_nodes,
    path_score,
    random_instance,
    synthetic_sentence,
)

NP = LabelSet(("NP",))


def make_extractor(max_seg_len=6):
    return FeatureExtractor(FeatureConfig(max_seg_len=max_seg_len), FeatureDictionary())


def log_partition(lat, w):
    """The lattice's log partition, from the sweep training runs."""
    return float(forward_log(lat, edge_scores(lat, w))[lat.leaf])


def edge_marginals(graph, w):
    return marginals_from_scores(graph, edge_scores(graph, w))


class TestLogPartition:
    def test_zero_weights_give_log_path_count_linear(self):
        lat = build_lattice("linear", tokenize("a b"), NP, 1, make_extractor())
        w = np.zeros(10_000)
        assert log_partition(lat, w) == pytest.approx(math.log(5), abs=1e-12)

    @pytest.mark.parametrize("kind", ["semi", "weak"])
    def test_zero_weights_give_log_path_count_segmental(self, kind):
        lat = build_lattice(kind, tokenize("a b c"), NP, 2, make_extractor(2))
        w = np.zeros(10_000)
        assert log_partition(lat, w) == pytest.approx(math.log(12), abs=1e-12)

    def test_single_path_lattice_returns_the_path_score(self):
        d = FeatureDictionary()
        ext = FeatureExtractor(FeatureConfig(max_seg_len=1), d)
        lat = build_lattice("semi", tokenize("a"), LabelSet(("X",)), 1, ext)
        # restrict to one path by scoring: enumerate instead
        rng = np.random.default_rng(0)
        w = rng.normal(size=len(d))
        paths = all_edge_paths(lat)
        if len(paths) == 1:
            assert log_partition(lat, w) == pytest.approx(path_score(lat, paths[0], w))
        else:
            scores = [path_score(lat, p, w) for p in paths]
            assert log_partition(lat, w) == pytest.approx(np.logaddexp.reduce(scores))

    @pytest.mark.parametrize("kind", ["linear", "semi", "weak"])
    def test_matches_brute_force_on_random_instances(self, kind):
        rng = np.random.default_rng(42)
        for _ in range(30):
            lat, w, *_ = random_instance(rng, kind)
            assert log_partition(lat, w) == pytest.approx(brute_log_partition(lat, w), abs=1e-8)


class TestMarginals:
    def test_zero_weights_marginal_is_path_fraction(self):
        lat = build_lattice("semi", tokenize("a b c"), NP, 2, make_extractor(2))
        w = np.zeros(10_000)
        marg = edge_marginals(lat, w)
        paths = all_edge_paths(lat)
        through = np.zeros(lat.num_edges)
        for p in paths:
            for eid in p:
                through[eid] += 1
        np.testing.assert_allclose(marg.edge_posteriors, through / len(paths), atol=1e-12)

    @pytest.mark.parametrize("kind", ["linear", "semi", "weak"])
    def test_matches_brute_force(self, kind):
        rng = np.random.default_rng(7)
        for _ in range(15):
            lat, w, *_ = random_instance(rng, kind)
            marg = edge_marginals(lat, w)
            np.testing.assert_allclose(marg.edge_posteriors, brute_edge_marginals(lat, w), atol=1e-9)

    def test_root_out_edges_sum_to_one(self):
        rng = np.random.default_rng(3)
        for kind in ("linear", "semi", "weak"):
            lat, w, *_ = random_instance(rng, kind)
            marg = edge_marginals(lat, w)
            assert marg.edge_posteriors[lat.edge_src == lat.root].sum() == pytest.approx(1.0, abs=1e-9)
            assert np.all(marg.edge_posteriors >= -1e-12)
            assert np.all(marg.edge_posteriors <= 1 + 1e-12)

    def test_flow_conservation_at_interior_nodes(self):
        rng = np.random.default_rng(11)
        for kind in ("linear", "semi", "weak"):
            lat, w, *_ = random_instance(rng, kind)
            marg = edge_marginals(lat, w)
            for v in range(1, lat.num_nodes - 1):
                inflow = marg.edge_posteriors[lat.edge_dst == v].sum()
                outflow = marg.edge_posteriors[lat.edge_src == v].sum()
                assert inflow == pytest.approx(outflow, abs=1e-9)

    @pytest.mark.parametrize("kind", ["linear", "semi", "weak"])
    def test_an_edge_scored_minus_infinity_gets_posterior_zero(self, kind):
        lat = build_lattice(kind, tokenize("a b c"), LabelSet(("NP", "VP")), 2, make_extractor(2))
        scores = np.random.default_rng(13).normal(size=lat.num_edges)
        in_degree = np.diff(lat.in_ptr)
        edge = int(np.flatnonzero(in_degree[lat.edge_dst] > 1)[0])  # its head has finite in-edges too
        scores[edge] = -np.inf
        for graph, graph_scores in ((lat, scores), (Batch([lat, lat]), np.tile(scores, 2))):
            with warnings.catch_warnings():
                warnings.simplefilter("error")
                marg = marginals_from_scores(graph, graph_scores)
            assert np.all(marg.edge_posteriors[graph.edge_ptr[:-1] + edge] == 0.0)  # in each member
            assert np.all(np.isfinite(marg.edge_posteriors)) and np.all(np.isfinite(marg.log_partition))

    def test_constant_score_shift_leaves_marginals_unchanged(self):
        rng = np.random.default_rng(5)
        lat, w, *_ = random_instance(rng, "weak")
        scores = edge_scores(lat, w)
        base = marginals_from_scores(lat, scores)
        shifted = marginals_from_scores(lat, scores + 3.7)
        np.testing.assert_allclose(base.edge_posteriors, shifted.edge_posteriors, atol=1e-9)


class TestViterbi:
    def test_zero_weights_decode_all_outside(self):
        for kind in ("linear", "semi", "weak"):
            lat = build_lattice(kind, tokenize("a b c"), NP, 2, make_extractor(2))
            spans, score = viterbi(lat, np.zeros(10_000))
            assert spans == []
            assert score == 0.0

    def test_an_empty_feature_space_decodes_all_outside(self):
        # a model file may hold no features; every cell then misses the dictionary
        dictionary = FeatureDictionary.from_strings([])
        for kind in ("linear", "semi", "weak"):
            extractor = FeatureExtractor(FeatureConfig(max_seg_len=2), dictionary)
            lat = build_lattice(kind, tokenize("a b c"), NP, 2, extractor)
            assert len(lat.cell_ids) and np.all(lat.cell_ids == -1)
            assert viterbi(lat, np.zeros(0)) == ([], 0.0)

    def test_boosted_path_wins(self):
        d = FeatureDictionary()
        ext = FeatureExtractor(FeatureConfig(max_seg_len=2), d)
        lat = build_lattice("semi", tokenize("a b c"), NP, 2, ext)
        gold = lat.gold_edge_ids([WordSpan(0, 1, "NP")])
        w = np.zeros(len(d))
        for eid in gold:
            w[edge_features(lat, eid)] = 1.0
        spans, _ = viterbi(lat, w)
        assert [(s.first_token, s.last_token, s.label) for s in spans] == [(0, 1, "NP")]

    @pytest.mark.parametrize("kind", ["linear", "semi", "weak"])
    def test_matches_exhaustive_argmax(self, kind):
        rng = np.random.default_rng(19)
        for _ in range(30):
            lat, w, *_ = random_instance(rng, kind)
            (node_path,), (score,) = viterbi_path(lat, w)
            best_paths, best_score = brute_best_paths(lat, w, tol=1e-9)
            assert score == pytest.approx(best_score, abs=1e-9)
            assert node_path in [path_nodes(lat, p) for p in best_paths]

    def test_viterbi_beats_random_paths(self):
        rng = np.random.default_rng(23)
        for kind in ("linear", "semi", "weak"):
            lat, w, *_ = random_instance(rng, kind)
            _, (score,) = viterbi_path(lat, w)
            for p in all_edge_paths(lat):
                assert score >= path_score(lat, p, w) - 1e-9

    def test_gold_score_never_exceeds_log_partition(self):
        rng = np.random.default_rng(29)
        for kind in ("linear", "semi", "weak"):
            for _ in range(10):
                lat, w, *_ = random_instance(rng, kind)
                log_z = log_partition(lat, w)
                paths = all_edge_paths(lat)
                for p in paths:
                    s = path_score(lat, p, w)
                    if len(paths) == 1:
                        assert s == pytest.approx(log_z, abs=1e-9)
                    else:
                        assert s < log_z


class TestNumericalFailures:
    @pytest.mark.parametrize("kind", ["linear", "semi", "weak"])
    @pytest.mark.parametrize("value", [1e308, -1e308, np.nan])
    def test_non_finite_results_raise_without_warnings(self, kind, value):
        lat = build_lattice(kind, tokenize("a b c"), NP, 2, make_extractor(2))
        w = np.full(10_000, value)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(NumericalError, match="log partition"):
                log_partition(lat, w)
            with pytest.raises(NumericalError, match="log partition"):
                edge_marginals(Batch([lat, lat]), w)
            with pytest.raises(NumericalError, match="best path score"):
                viterbi_path(lat, w)


class TestBatch:
    def test_rejects_an_empty_or_mixed_batch(self):
        with pytest.raises(ValueError):
            Batch([])
        lattices = [build_lattice(kind, tokenize("a b"), NP, 2, None) for kind in ("semi", "weak")]
        with pytest.raises(ValueError, match="one model family"):
            Batch(lattices)

    @pytest.mark.parametrize("kind", ["linear", "semi", "weak"])
    def test_levels_are_contiguous_with_leaves_last(self, kind):
        lattices = [build_lattice(kind, synthetic_sentence(n), NP, 3, None) for n in (3, 1, 5, 2)]
        batch = Batch(lattices)
        level = batch.node_levels()
        assert np.all(level[batch.edge_src] < level[batch.edge_dst])
        assert batch.level_ptr[1] == len(lattices)  # the roots
        top = batch.level_ptr[-2]
        assert batch.leaves.tolist() == list(range(top, batch.num_nodes))  # alone in the last level, in member order
        out_deg = np.diff(batch.out_ptr)
        assert np.all(out_deg[:top] > 0) and not out_deg[top:].any()  # out-edges exactly below the last level
        for i, lat in enumerate(lattices):
            assert batch.local_node[batch.leaves[i]] == lat.leaf
        # the members' adjacency, composed, equals a sort of every batch edge
        assert np.array_equal(batch.in_order, np.lexsort((batch.edge_src, batch.edge_dst)))
        assert np.array_equal(batch.out_order, np.argsort(batch.edge_src, kind="stable"))

    @pytest.mark.parametrize("kind", ["linear", "semi", "weak"])
    def test_zero_weight_ties_go_to_the_lowest_source_in_a_mixed_length_batch(self, kind):
        lattices = [
            build_lattice(kind, synthetic_sentence(n), LabelSet(("NP", "VP")), 3, make_extractor(3))
            for n in (4, 1, 6, 2)
        ]
        paths, scores = viterbi_path(Batch(lattices), np.zeros(10_000))
        for lat, path, score in zip(lattices, paths, scores):
            expected = [lat.leaf]
            while expected[-1] != lat.root:
                expected.append(int(lat.edge_src[lat.edge_dst == expected[-1]].min()))
            assert path == expected[::-1]
            assert score == 0.0
            assert lat.path_spans(path) == []


@st.composite
def lattices_with_weights(draw):
    """A random small lattice of any family with random weights."""
    kind = draw(st.sampled_from(["linear", "semi", "weak"]))
    words = draw(st.lists(st.sampled_from(["a", "b", "C1"]), min_size=1, max_size=5))
    label_set = LabelSet(tuple(f"L{i}" for i in range(draw(st.integers(1, 3)))))
    max_seg_len = draw(st.integers(1, 3))
    d = FeatureDictionary()
    ext = FeatureExtractor(FeatureConfig(max_seg_len=max_seg_len, use_shape=draw(st.booleans())), d)
    lat = build_lattice(kind, tokenize(" ".join(words)), label_set, max_seg_len, ext)
    weight = st.floats(-3.0, 3.0, allow_nan=False, allow_infinity=False)
    w = np.asarray(draw(st.lists(weight, min_size=len(d), max_size=len(d))))
    return lat, w


@st.composite
def batches_with_weights(draw):
    """One to four random lattices of one family, of mixed lengths, sharing a
    feature space, with random weights.  Smaller than single lattices drawn
    above, so that the oracles stay quick on four members."""
    kind = draw(st.sampled_from(["linear", "semi", "weak"]))
    label_set = LabelSet(tuple(f"L{i}" for i in range(draw(st.integers(1, 2)))))
    max_seg_len = draw(st.integers(1, 3))
    d = FeatureDictionary()
    ext = FeatureExtractor(FeatureConfig(max_seg_len=max_seg_len, use_shape=draw(st.booleans())), d)
    words = st.lists(st.sampled_from(["a", "b", "C1"]), min_size=1, max_size=4)
    sentences = draw(st.lists(words, min_size=1, max_size=4))
    lattices = [build_lattice(kind, tokenize(" ".join(words)), label_set, max_seg_len, ext) for words in sentences]
    weight = st.floats(-3.0, 3.0, allow_nan=False, allow_infinity=False)
    w = np.asarray(draw(st.lists(weight, min_size=len(d), max_size=len(d))))
    return lattices, w


class TestProperties:
    @settings(deadline=None)
    @given(lattices_with_weights())
    def test_dynamic_programs_match_the_oracles(self, case):
        lat, w = case
        assert log_partition(lat, w) == pytest.approx(brute_log_partition(lat, w), rel=1e-9, abs=1e-9)
        marg = edge_marginals(lat, w)
        np.testing.assert_allclose(marg.edge_posteriors, brute_edge_marginals(lat, w), atol=1e-9)
        (node_path,), (score,) = viterbi_path(lat, w)
        best_paths, best_score = brute_best_paths(lat, w, tol=1e-9)
        assert score == pytest.approx(best_score, abs=1e-9)
        assert node_path in [path_nodes(lat, p) for p in best_paths]

    @settings(deadline=None)
    @given(st.one_of(lattices_with_weights(), batches_with_weights()))
    def test_reverse_pass_equals_forward_times_backward(self, case):
        """The posteriors the reverse pass finds are the log-space
        ``exp(alpha + s + beta - log Z)`` of a forward and a backward sweep."""
        graph, w = case
        if isinstance(graph, list):
            graph = Batch(graph)
        scores = edge_scores(graph, w)
        alpha = forward_log(graph, scores)
        beta = backward_log(graph, scores)
        log_z = alpha[graph.leaves]
        np.testing.assert_allclose(beta[: graph.level_ptr[1]], log_z, rtol=1e-12, atol=1e-12)
        expected = np.exp(alpha[graph.edge_src] + scores + beta[graph.edge_dst]
                          - np.repeat(log_z, np.diff(graph.edge_ptr)))
        marg = marginals_from_scores(graph, scores)
        assert marg.log_partition.tobytes() == log_z.tobytes()
        np.testing.assert_allclose(marg.edge_posteriors, expected, rtol=0, atol=1e-12)

    @settings(deadline=None)
    @given(st.one_of(lattices_with_weights(), batches_with_weights()))
    def test_viterbi_reads_back_pointers_through_writable_node_starts(self, case):
        """The forward sweep's ``node_starts`` are the in-edge run offsets of
        every node above the roots, writable (``reduceat`` would copy a
        read-only array), and decode exactly as those runs of ``in_ptr`` do."""
        graph, w = case
        if isinstance(graph, list):
            graph = Batch(graph)
        sweep = graph.forward_sweep
        assert sweep.node_starts.flags.writeable and not sweep.order.flags.writeable
        assert sweep.node_starts.tolist() == graph.in_ptr[graph.level_ptr[1]:-1].tolist()
        paths, best = viterbi_path(graph, w)
        vars(graph)["forward_sweep"] = dataclasses.replace(sweep, node_starts=graph.in_ptr[graph.level_ptr[1]:-1])
        in_ptr_paths, in_ptr_best = viterbi_path(graph, w)
        assert paths == in_ptr_paths and best.tobytes() == in_ptr_best.tobytes()

    @settings(deadline=None)
    @given(lattices_with_weights())
    def test_edge_lookup_and_scores_match_the_edge_arrays(self, case):
        lat, w = case
        edges = {(int(src), int(dst)): eid for eid, (src, dst) in enumerate(zip(lat.edge_src, lat.edge_dst))}
        src, dst = np.divmod(np.arange(lat.num_nodes**2), lat.num_nodes)
        found = lat.edge_ids(src, dst)
        assert found.tolist() == [edges.get((int(s), int(d)), -1) for s, d in zip(src, dst)]
        assert edge_scores(lat, w).tolist() == [edge_score(lat, eid, w) for eid in range(lat.num_edges)]

    @settings(deadline=None)
    @given(batches_with_weights())
    def test_batch_members_match_the_lattice_alone_and_the_oracles(self, case):
        lattices, w = case
        batch = Batch(lattices)
        scores = edge_scores(batch, w)
        marg = marginals_from_scores(batch, scores)
        paths, best = viterbi_path(batch, w)
        for i, lat in enumerate(lattices):
            edges = slice(batch.edge_ptr[i], batch.edge_ptr[i + 1])
            assert batch.local_node[batch.edge_src[edges]].tolist() == lat.edge_src.tolist()
            assert batch.local_node[batch.edge_dst[edges]].tolist() == lat.edge_dst.tolist()
            assert scores[edges].tolist() == edge_scores(lat, w).tolist()
            alone = edge_marginals(lat, w)
            assert marg.log_partition[i] == pytest.approx(alone.log_partition[0], rel=1e-12, abs=1e-12)
            assert marg.log_partition[i] == pytest.approx(brute_log_partition(lat, w), rel=1e-9, abs=1e-9)
            np.testing.assert_allclose(marg.edge_posteriors[edges], alone.edge_posteriors, rtol=0, atol=1e-12)
            np.testing.assert_allclose(marg.edge_posteriors[edges], brute_edge_marginals(lat, w), atol=1e-9)
            (path_alone,), (best_alone,) = viterbi_path(lat, w)
            assert paths[i] == path_alone
            assert best[i] == pytest.approx(best_alone, rel=1e-12, abs=1e-12)
            best_paths, best_score = brute_best_paths(lat, w, tol=1e-9)
            assert best[i] == pytest.approx(best_score, abs=1e-9)
            assert paths[i] in [path_nodes(lat, p) for p in best_paths]
