"""Inference against brute-force path enumeration."""

import math
import warnings

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from chunkcrf.core import LabelSet, WordSpan, tokenize
from chunkcrf.features import FeatureConfig, FeatureDictionary, FeatureExtractor
from chunkcrf.inference import (
    NumericalError,
    edge_marginals,
    edge_scores,
    forward_log,
    log_partition,
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
    edge_score,
    path_nodes,
    path_score,
    random_instance,
    synthetic_sentence,
)

NP = LabelSet(("NP",))


def make_extractor(max_seg_len=6):
    return FeatureExtractor(FeatureConfig(max_seg_len=max_seg_len), FeatureDictionary())


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
            assert marg.edge_posteriors[lat.out_edge_ids(lat.root)].sum() == pytest.approx(1.0, abs=1e-9)
            assert np.all(marg.edge_posteriors >= -1e-12)
            assert np.all(marg.edge_posteriors <= 1 + 1e-12)

    def test_flow_conservation_at_interior_nodes(self):
        rng = np.random.default_rng(11)
        for kind in ("linear", "semi", "weak"):
            lat, w, *_ = random_instance(rng, kind)
            marg = edge_marginals(lat, w)
            for v in range(1, lat.num_nodes - 1):
                inflow = marg.edge_posteriors[lat.in_edge_ids(v)].sum()
                outflow = marg.edge_posteriors[lat.out_edge_ids(v)].sum()
                assert inflow == pytest.approx(outflow, abs=1e-9)

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

    def test_boosted_path_wins(self):
        d = FeatureDictionary()
        ext = FeatureExtractor(FeatureConfig(max_seg_len=2), d)
        lat = build_lattice("semi", tokenize("a b c"), NP, 2, ext)
        gold = lat.gold_edge_ids([WordSpan(0, 1, "NP")])
        w = np.zeros(len(d))
        for eid in gold:
            w[lat.edge_features(eid)] = 1.0
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
        has_out = np.diff(batch.out_ptr) > 0
        for a, b in zip(batch.level_ptr[:-1], batch.level_ptr[1:]):
            assert np.all(np.diff(has_out[a:b].astype(int)) <= 0)
        assert not has_out[batch.leaves].any() and has_out.sum() == batch.num_nodes - len(lattices)
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
                expected.append(int(lat.edge_src[lat.in_edge_ids(expected[-1])].min()))
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
    @given(lattices_with_weights())
    def test_edge_lookup_and_scores_match_the_edge_arrays(self, case):
        lat, w = case
        edges = {(int(src), int(dst)): eid for eid, (src, dst) in enumerate(zip(lat.edge_src, lat.edge_dst))}
        for src in range(lat.num_nodes):
            for dst in range(lat.num_nodes):
                assert lat.edge_id(src, dst) == edges.get((src, dst))
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
