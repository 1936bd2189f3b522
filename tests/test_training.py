"""Objective/gradient correctness, the optimizer loop, and serialization."""

import functools
import json
import math
import struct
import warnings
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from chunkcrf.core import LabelSet, WordSpan, tokenize
from chunkcrf.features import (
    AFFIX_MAX_LEN_LIMIT,
    MAX_SEG_LEN_LIMIT,
    WORD_CACHE_SIZE,
    FeatureConfig,
    FeatureDictionary,
    FeatureExtractor,
)
from chunkcrf.inference import edge_scores, forward_log, viterbi_path
from chunkcrf.lattice import build_lattice
from chunkcrf.synth import separable_corpus
import chunkcrf.training
from chunkcrf.training import (
    LAMBDA_GRID,
    MODEL_MAGIC,
    MODEL_VERSION,
    Dataset,
    DataItem,
    Model,
    ModelFormatError,
    NumericalError,
    ObjectiveEvaluator,
    TrainConfig,
    build_feature_space,
    compile_split,
    derive_label_set,
    load_model,
    save_model,
    train,
    tune_lambda,
)

from oracles import brute_edge_marginals, edge_features, random_gold

NP = LabelSet(("NP",))


def toy_dataset(texts_and_spans):
    items = [DataItem(tokenize(text), tuple(spans)) for text, spans in texts_and_spans]
    return Dataset(items)


def make_evaluator(dataset, kind, lam=0.1, max_seg_len=3, label_set=None):
    cfg = TrainConfig(model_kind=kind, lam=lam, max_seg_len=max_seg_len)
    label_set = derive_label_set(dataset, label_set)
    dictionary, _ = build_feature_space(dataset, label_set, cfg)
    return ObjectiveEvaluator(dataset, label_set, cfg, dictionary), dictionary


def count_builds(monkeypatch):
    """Record the sentence of every ``training.build_lattice`` call."""
    builds = []
    original = chunkcrf.training.build_lattice

    def counting_build(*args, **kwargs):
        builds.append(args[1])
        return original(*args, **kwargs)

    monkeypatch.setattr(chunkcrf.training, "build_lattice", counting_build)
    return builds


class TestObjective:
    @pytest.mark.parametrize("kind", ["linear", "semi", "weak"])
    @pytest.mark.parametrize("scale", [1e200, 1e308, -1e308])
    def test_overflow_raises_numerical_error_without_warnings(self, kind, scale):
        ds = Dataset.from_annotated(separable_corpus(5, seed=1))
        ev, d = make_evaluator(ds, kind)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(NumericalError):
                ev.objective_and_gradient(np.full(len(d), scale))

    def test_zero_weights_value_is_negative_log_path_count(self):
        ds = toy_dataset([("a b c", [WordSpan(0, 1, "NP")])])
        # n=3 chunkings: 1 empty + 6 one-span + 5 two-span + 1 three-span = 13
        for kind, paths in (("linear", 13), ("semi", 12), ("weak", 12)):
            ev, d = make_evaluator(ds, kind, lam=0.5, max_seg_len=2)
            value, _ = ev.objective_and_gradient(np.zeros(len(d)))
            assert value == pytest.approx(-math.log(paths), abs=1e-10)

    def test_regularizer_only_terms(self):
        ds = toy_dataset([("a b", [WordSpan(0, 0, "NP")])])
        ev, d = make_evaluator(ds, "weak", lam=0.5)
        rng = np.random.default_rng(0)
        w = rng.normal(size=len(d))
        value, grad = ev.objective_and_gradient(w)
        zero_lam_ev, _ = make_evaluator(ds, "weak", lam=1e-12)
        v0, g0 = zero_lam_ev.objective_and_gradient(w)
        assert value == pytest.approx(v0 - 0.5 * w @ w, rel=1e-9)
        np.testing.assert_allclose(grad, g0 - 2 * 0.5 * w, atol=1e-9)

    def test_dimension_mismatch_rejected(self):
        ds = toy_dataset([("a b", [WordSpan(0, 0, "NP")])])
        ev, d = make_evaluator(ds, "semi")
        with pytest.raises(ValueError):
            ev.objective_and_gradient(np.zeros(len(d) + 1))

    @pytest.mark.parametrize("kind", ["linear", "semi", "weak"])
    def test_gradient_matches_central_differences(self, kind):
        rng = np.random.default_rng(101)
        words = "u v w x y z"
        for trial in range(4):
            n = int(rng.integers(2, 4))
            text = " ".join(words.split()[:n])
            sentence = tokenize(text)
            gold = random_gold(rng, n, NP, 2)
            ds = toy_dataset([(text, gold)])
            ev, d = make_evaluator(ds, kind, lam=0.3, max_seg_len=2)
            w = rng.uniform(-1.0, 1.0, size=len(d))
            _, grad = ev.objective_and_gradient(w)
            h = 1e-4
            coords = rng.choice(len(d), size=min(20, len(d)), replace=False)
            for k in coords:
                wp, wm = w.copy(), w.copy()
                wp[k] += h
                wm[k] -= h
                fd = (ev.objective_and_gradient(wp)[0] - ev.objective_and_gradient(wm)[0]) / (2 * h)
                if abs(grad[k]) > 1e-6:
                    assert abs(grad[k] - fd) / abs(grad[k]) < 1e-4

    @pytest.mark.parametrize("kind", ["linear", "semi", "weak"])
    def test_gradient_matches_per_edge_counts(self, kind):
        # Reference: gold-path features minus every edge's features weighted
        # by its brute-force posterior, edge by edge.
        ds = toy_dataset([("a b c", [WordSpan(1, 2, "NP")]), ("b a", []), ("c", [WordSpan(0, 0, "NP")])])
        ev, d = make_evaluator(ds, kind, lam=0.25, max_seg_len=2)
        w = np.random.default_rng(17).uniform(-2, 2, len(d))
        _, grad = ev.objective_and_gradient(w)
        expected = -2 * 0.25 * w
        # The evaluator keeps only its batch, so each lattice is rebuilt here.
        extractor = FeatureExtractor(ev.config.feature_config, d)
        for item in ds.items:
            lat = build_lattice(kind, item.sentence, ev.label_set, ev.config.max_seg_len, extractor)
            for eid in lat.gold_edge_ids(list(item.word_spans)):
                np.add.at(expected, edge_features(lat, eid), 1.0)
            for eid, post in enumerate(brute_edge_marginals(lat, w)):
                np.add.at(expected, edge_features(lat, eid), -post)
        np.testing.assert_allclose(grad, expected, rtol=0, atol=1e-9)

    @pytest.mark.parametrize("kind", ["linear", "semi", "weak"])
    def test_evaluations_do_not_depend_on_earlier_ones(self, kind):
        ds = Dataset.from_annotated(separable_corpus(12, seed=9))
        ev, d = make_evaluator(ds, kind)
        rng = np.random.default_rng(4)
        w1, w2 = rng.normal(size=len(d)), rng.normal(size=len(d))
        first = ev.objective_and_gradient(w1)
        second = ev.objective_and_gradient(w2)
        third = ev.objective_and_gradient(w1)
        fresh = make_evaluator(ds, kind)[0].objective_and_gradient(w2)
        assert first[0] == third[0] and first[1].tobytes() == third[1].tobytes()
        assert second[0] == fresh[0] and second[1].tobytes() == fresh[1].tobytes()

    @pytest.mark.parametrize("kind", ["linear", "semi", "weak"])
    def test_the_batch_joins_its_part_edges_once(self, kind):
        # the batch joins them with P when the evaluator builds it
        ds = Dataset.from_annotated(separable_corpus(6, seed=9))
        ev, d = make_evaluator(ds, kind)
        joined = vars(ev.batch)["part_edges"]
        for w in np.random.default_rng(2).normal(size=(2, len(d))):
            ev.objective_and_gradient(w)
            assert ev.batch.part_edges is joined
        assert joined.shape == (ev.batch.num_parts, ev.batch.num_edges)

    @pytest.mark.parametrize("kind", ["linear", "semi", "weak"])
    def test_objective_is_concave(self, kind):
        ds = toy_dataset([("a b c", [WordSpan(1, 2, "NP")]), ("b a", [])])
        ev, d = make_evaluator(ds, kind, lam=0.25, max_seg_len=2)
        rng = np.random.default_rng(13)
        for _ in range(10):
            w1 = rng.uniform(-2, 2, len(d))
            w2 = rng.uniform(-2, 2, len(d))
            mid, _ = ev.objective_and_gradient((w1 + w2) / 2)
            v1, _ = ev.objective_and_gradient(w1)
            v2, _ = ev.objective_and_gradient(w2)
            assert mid >= (v1 + v2) / 2 - 1e-8

    def test_unrepresentable_instances_are_skipped_with_count(self):
        ds = toy_dataset(
            [
                ("a b c d e", [WordSpan(0, 4, "NP")]),  # longer than the limit
                ("a b", [WordSpan(0, 0, "NP")]),
            ]
        )
        cfg = TrainConfig(model_kind="semi", lam=0.1, max_seg_len=3)
        dictionary, _ = build_feature_space(ds, NP, cfg)
        ev = ObjectiveEvaluator(ds, NP, cfg, dictionary)
        assert ev.skipped == 1
        value, _ = ev.objective_and_gradient(np.zeros(len(dictionary)))
        assert np.isfinite(value)


    @pytest.mark.parametrize("kind", ["linear", "semi", "weak"])
    def test_unfrozen_dictionary_evaluator_equals_feature_space_pass(self, kind):
        ds = Dataset.from_annotated(separable_corpus(12, seed=21, num_chunk_labels=2))
        labels = derive_label_set(ds)
        ds.items.append(DataItem(tokenize("a b c"), (WordSpan(1, 1, "UNKNOWN"),)))  # unrepresentable
        ds.items.append(DataItem(tokenize(""), ()))
        cfg = TrainConfig(model_kind=kind, lam=0.1, max_seg_len=3, use_affix=True, use_shape=True)
        frozen, _ = build_feature_space(ds, labels, cfg)
        reference = ObjectiveEvaluator(ds, labels, cfg, frozen)
        grown = FeatureDictionary()
        ev = ObjectiveEvaluator(ds, labels, cfg, grown)
        grown.freeze()
        assert ev.skipped == reference.skipped == 2
        assert grown.strings == frozen.strings
        for name in ("edge_src", "edge_dst", "cell_ids", "level_ptr", "P.indptr", "P.indices", "P.data",
                     "part_edges.indptr", "part_edges.indices"):
            mine, theirs = (functools.reduce(getattr, name.split("."), b) for b in (ev.batch, reference.batch))
            assert mine.dtype == theirs.dtype and mine.tobytes() == theirs.tobytes(), name
        assert ev.gold_edges.tobytes() == reference.gold_edges.tobytes()
        assert ev.gold_counts.tobytes() == reference.gold_counts.tobytes()
        w = np.random.default_rng(5).normal(scale=0.3, size=len(frozen))
        value, grad = ev.objective_and_gradient(w)
        ref_value, ref_grad = reference.objective_and_gradient(w)
        assert value == ref_value and grad.tobytes() == ref_grad.tobytes()


class TestTrain:
    def test_separable_corpus_reaches_perfect_training_f1(self):
        ds = Dataset.from_annotated(separable_corpus(60, seed=5))
        model = train(ds, TrainConfig(model_kind="weak", lam=0.05, max_iterations=50))
        correct = total = 0
        for item in ds.items:
            predicted = model.predict(item.sentence)
            total += 1
            correct += predicted == list(item.word_spans)
        assert correct == total
        assert model.metadata["iterations"] <= 50

    def test_infinite_tolerance_stops_after_one_iteration(self):
        ds = Dataset.from_annotated(separable_corpus(10, seed=6))
        model = train(ds, TrainConfig(model_kind="linear", lam=0.1, tolerance=math.inf))
        assert model.metadata["iterations"] == 1
        assert np.any(model.weights != 0)

    def test_objective_is_monotone_over_iterations(self):
        ds = Dataset.from_annotated(separable_corpus(30, seed=7))
        model = train(ds, TrainConfig(model_kind="semi", lam=0.1, max_iterations=40))
        values = [value for _, value, _, _ in model.metadata["trace"]]
        assert len(values) >= 2
        assert all(b >= a - 1e-9 for a, b in zip(values, values[1:]))

    def test_each_lattice_is_built_once_per_pass(self, monkeypatch):
        # the evaluator's compile pass also builds the feature space, so
        # each non-empty sentence is compiled once; the optimizer's
        # evaluations build nothing
        builds = count_builds(monkeypatch)
        ds = Dataset.from_annotated(separable_corpus(30, seed=8))
        ds.items.append(DataItem(tokenize(""), ()))
        model = train(ds, TrainConfig(model_kind="weak", lam=0.1, max_iterations=10))
        assert model.metadata["iterations"] > 1
        assert model.metadata["skipped_instances"] == 1
        assert builds == [item.sentence for item in ds.items[:30]]

    @pytest.mark.parametrize(
        "field, value",
        [("tolerance", -1.0), ("tolerance", math.nan), ("max_iterations", 0), ("max_iterations", -2),
         ("lam", math.inf), ("max_seg_len", 0), ("max_seg_len", MAX_SEG_LEN_LIMIT + 1)],
    )
    def test_invalid_stopping_rule_rejected(self, field, value):
        with pytest.raises(ValueError, match=field):
            TrainConfig(**{"model_kind": "weak", "lam": 0.1, field: value})

    def test_empty_dataset_rejected(self):
        with pytest.raises(ValueError):
            train(Dataset([]), TrainConfig(model_kind="weak", lam=0.1))

    def test_long_spans_are_clipped_not_fatal(self):
        ds = toy_dataset(
            [
                ("a b c d e f g h", [WordSpan(0, 7, "NP")]),
                ("a b", [WordSpan(0, 0, "NP")]),
            ]
        )
        model = train(ds, TrainConfig(model_kind="weak", lam=0.1, max_seg_len=3, max_iterations=5))
        assert model.metadata["clipped_spans"] == 1


class TestModel:
    def test_predictions_reuse_one_extractor(self):
        model = train(Dataset.from_annotated(separable_corpus(20, seed=3)), TrainConfig("semi", lam=0.5,
                                                                                       max_iterations=5))
        assert model.extractor() is model.extractor()
        fresh = Model(model.model_kind, model.label_set, model.feature_config, model.dictionary, model.weights)
        for item in separable_corpus(30, seed=4):
            assert model.predict(item.sentence) == fresh.predict(item.sentence)

    @pytest.mark.parametrize("kind", ["linear", "semi", "weak"])
    def test_predict_many_equals_one_predict_per_sentence(self, kind):
        model = train(Dataset.from_annotated(separable_corpus(20, seed=3, num_chunk_labels=2)),
                      TrainConfig(kind, lam=0.5, max_iterations=5, use_affix=True))
        model.weights = np.random.default_rng(7).normal(size=len(model.weights))
        items = [item.sentence for item in separable_corpus(6, seed=5, num_chunk_labels=2, min_len=1)]
        empty = tokenize("")
        sentences = [items[0], empty, *items[1:4], items[0], tokenize("npw1 npw1 npw1 fill2"), empty, *items[4:]]
        expected = [model.predict(s) for s in sentences]
        assert expected[1] == expected[7] == [] and any(expected)
        assert model.predict_many(sentences) == expected
        assert model.predict_many(sentences[::-1]) == expected[::-1]
        for cut in (1, 2, 5):
            assert model.predict_many(sentences[:cut]) + model.predict_many(sentences[cut:]) == expected
        assert model.predict_many([]) == []

    def test_decoding_new_words_keeps_the_extractor_caches_bounded(self):
        model = train(Dataset.from_annotated(separable_corpus(20, seed=3)),
                      TrainConfig("semi", lam=0.5, max_iterations=5, use_affix=True, use_shape=True))
        length = 3
        for i in range(3000):
            model.predict(tokenize(" ".join(f"new{i}w{j}" for j in range(length))))
        ext = model.extractor()
        word_types = sum(len(rows) for rows in ext._row_ids.values())
        assert word_types <= WORD_CACHE_SIZE + length + 2
        widest = max(len(roles) for roles in ext.layout.roles.values())
        attributes = 1 + (WORD_CACHE_SIZE + length + 2) * widest + len(model.label_set.alphabet) + 1
        assert len(ext._attributes) <= attributes
        assert all(len(table) <= 2 * attributes for table in ext._tables.values())


class TestTuneLambda:
    def test_grid_of_one_returns_it(self):
        train_ds = Dataset.from_annotated(separable_corpus(30, seed=8))
        dev_ds = Dataset.from_annotated(separable_corpus(10, seed=9))
        cfg = TrainConfig(model_kind="weak", lam=1.0, max_iterations=30)
        best, reports, _ = tune_lambda(train_ds, dev_ds, cfg, grid=(0.5,))
        assert best == 0.5
        assert set(reports) == {0.5}

    def test_ties_break_toward_larger_lambda(self):
        train_ds = Dataset.from_annotated(separable_corpus(40, seed=10))
        dev_ds = Dataset.from_annotated(separable_corpus(15, seed=11))
        cfg = TrainConfig(model_kind="weak", lam=1.0, max_iterations=60)
        best, reports, _ = tune_lambda(train_ds, dev_ds, cfg, grid=LAMBDA_GRID)
        top = max(r.f1 for r in reports.values())
        tied = [lam for lam, r in reports.items() if r.f1 == top]
        assert best == max(tied)

    def test_compiles_train_once_and_matches_training_per_point(self, monkeypatch, tmp_path):
        from chunkcrf.evaluate import score_corpus

        train_ds = Dataset.from_annotated(separable_corpus(30, seed=8))
        dev_ds = Dataset.from_annotated(separable_corpus(10, seed=9))
        cfg = TrainConfig(model_kind="semi", lam=1.0, max_iterations=30)
        grid = (0.125, 0.5, 1000.0)  # the largest strength underfits, so the winner is not the last fit
        builds = count_builds(monkeypatch)
        best, reports, model = tune_lambda(train_ds, dev_ds, cfg, grid=grid)
        # the train split once, then dev once, decoded as one batch per grid point
        assert len(builds) == len(train_ds) + len(dev_ds)
        assert builds[: len(train_ds)] == [item.sentence for item in train_ds.items]

        retrained = {}
        for lam in grid:
            retrained[lam] = train(train_ds, replace(cfg, lam=lam))
            gold = [list(item.char_spans) for item in dev_ds.items]
            predicted = [retrained[lam].predict_char_spans(item.sentence) for item in dev_ds.items]
            assert reports[lam] == score_corpus(gold, predicted, level="char")
        top = max(r.f1 for r in reports.values())
        assert best == max(lam for lam, r in reports.items() if r.f1 == top) < max(grid)
        save_model(model, str(tmp_path / "tuned.ckcrf"))
        save_model(retrained[best], str(tmp_path / "trained.ckcrf"))
        assert (tmp_path / "tuned.ckcrf").read_bytes() == (tmp_path / "trained.ckcrf").read_bytes()

    def test_compiles_dev_through_the_evaluator_extractor(self, monkeypatch):
        made = []
        extractor = chunkcrf.training.FeatureExtractor
        monkeypatch.setattr(chunkcrf.training, "FeatureExtractor", lambda *args: made.append(args) or extractor(*args))
        train_ds = Dataset.from_annotated(separable_corpus(30, seed=8))
        dev_ds = Dataset.from_annotated(separable_corpus(10, seed=9))
        tune_lambda(train_ds, dev_ds, TrainConfig(model_kind="weak", lam=1.0, max_iterations=10), grid=(0.5, 1.0))
        assert len(made) == 1

    def test_empty_dev_messages_decode_to_nothing(self):
        from chunkcrf.evaluate import score_corpus

        train_ds = Dataset.from_annotated(separable_corpus(30, seed=8))
        dev_ds = Dataset.from_annotated(separable_corpus(5, seed=9))
        dev_ds.items.insert(0, DataItem(tokenize(""), ()))
        cfg = TrainConfig(model_kind="semi", lam=1.0, max_iterations=30)
        _, reports, model = tune_lambda(train_ds, dev_ds, cfg, grid=(0.5,))
        gold = [list(item.char_spans or ()) for item in dev_ds.items]
        predicted = [model.predict_char_spans(item.sentence) for item in dev_ds.items]
        assert predicted[0] == []
        assert reports[0.5] == score_corpus(gold, predicted, level="char")
        # a dev split of empty messages only has nothing to batch
        _, reports, _ = tune_lambda(train_ds, Dataset([DataItem(tokenize(""), ())]), cfg, grid=(0.5,))
        assert reports[0.5] == score_corpus([[]], [[]], level="char")

    def test_default_grid_is_pinned(self):
        assert LAMBDA_GRID == (0.125, 0.25, 0.5, 1.0, 2.0)


class TestSerialization:
    def _trained(self):
        ds = Dataset.from_annotated(separable_corpus(25, seed=12))
        return train(ds, TrainConfig(model_kind="semi", lam=0.1, max_iterations=20))

    def test_round_trip_preserves_predictions(self, tmp_path):
        model = self._trained()
        path = tmp_path / "m.ckcrf"
        save_model(model, str(path))
        loaded = load_model(str(path))
        for item in separable_corpus(40, seed=13):
            assert loaded.predict(item.sentence) == model.predict(item.sentence)
        np.testing.assert_array_equal(loaded.weights, model.weights)

    def test_dictionary_order_preserved(self, tmp_path):
        model = self._trained()
        path = tmp_path / "m.ckcrf"
        save_model(model, str(path))
        assert load_model(str(path)).dictionary.strings == model.dictionary.strings

    def test_wrong_magic_rejected(self, tmp_path):
        path = tmp_path / "bogus.ckcrf"
        path.write_bytes(b"NOTAMODELFILE....")
        with pytest.raises(ModelFormatError, match="magic"):
            load_model(str(path))

    def test_unknown_version_rejected(self, tmp_path):
        path, data = self._tiny_file(tmp_path)
        magic = len(MODEL_MAGIC)
        path.write_bytes(data[:magic] + struct.pack("<I", MODEL_VERSION + 1) + data[magic + 4 :])
        with pytest.raises(ModelFormatError, match=f"unsupported model version {MODEL_VERSION + 1}"):
            load_model(str(path))

    def _tiny_file(self, tmp_path):
        dictionary = FeatureDictionary.from_strings(["TR=O|NP", "WS[0]=a|NP"])
        model = Model("weak", NP, FeatureConfig(), dictionary, np.array([0.5, -1.0]))
        path = tmp_path / "tiny.ckcrf"
        save_model(model, str(path))
        return path, path.read_bytes()

    @pytest.mark.parametrize(
        "where", ["magic", "version", "header-length", "header", "weight-count", "weights", "last-byte"]
    )
    def test_truncated_file_rejected(self, tmp_path, where):
        path, data = self._tiny_file(tmp_path)
        (header_len,) = struct.unpack_from("<Q", data, 12)
        cut = {
            "magic": 4,
            "version": 10,
            "header-length": 15,
            "header": 20 + header_len // 2,
            "weight-count": 20 + header_len + 4,
            "weights": len(data) - 9,
            "last-byte": len(data) - 1,
        }[where]
        path.write_bytes(data[:cut])
        with pytest.raises(ModelFormatError, match="truncated"):
            load_model(str(path))

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_non_finite_weights_rejected(self, tmp_path, bad):
        path, data = self._tiny_file(tmp_path)
        path.write_bytes(data[:-8] + struct.pack("<d", bad))
        with pytest.raises(ModelFormatError, match="non-finite"):
            load_model(str(path))

    def test_trailing_bytes_rejected(self, tmp_path):
        path, data = self._tiny_file(tmp_path)
        path.write_bytes(data + b"\x00")
        with pytest.raises(ModelFormatError, match="trailing"):
            load_model(str(path))

    @staticmethod
    def _write_with_header(path, header: bytes, weights=(0.5, -1.0)):
        path.write_bytes(
            MODEL_MAGIC
            + struct.pack("<IQ", MODEL_VERSION, len(header))
            + header
            + struct.pack("<Q", len(weights))
            + np.asarray(weights, dtype="<f8").tobytes()
        )

    @pytest.mark.parametrize(
        "mutate",
        [
            lambda h: h.pop("brown"),
            lambda h: h.update(extra=1),
            lambda h: h.update(features="TR=O|NP"),
            lambda h: h.update(features=["TR=O|NP", 7]),
            lambda h: h.update(model_kind="crf"),
            lambda h: h.update(chunk_labels=["O"]),
            lambda h: h["feature_config"].pop("max_seg_len"),
            lambda h: h["feature_config"].update(affix_max_len="3"),
            lambda h: h["feature_config"].update(use_brown=True),
            lambda h: h["feature_config"].update(use_affix="no"),
            lambda h: h["feature_config"].update(max_seg_len=True),
            lambda h: h["feature_config"].update(use_case=False),
            lambda h: h.update(features=["TR=O|NP"]),
            lambda h: h["feature_config"].update(max_seg_len=100000),
            lambda h: h["feature_config"].update(affix_max_len=AFFIX_MAX_LEN_LIMIT + 1),
            lambda h: h.update(features=["TR=O|NP", "TR=O|NP"]),
            lambda h: h.update(features=["TR=O|NP", "WS[0]=a|NP", "TR=O|NP"]),
        ],
        ids=[
            "missing-field", "extra-field", "wrong-type", "non-string-feature", "unknown-kind",
            "bad-label", "missing-config-field", "bad-config-value", "clusters-without-map",
            "string-config-flag", "bool-config-limit", "unknown-config-key", "feature-count",
            "oversized-max-seg-len", "oversized-affix-max-len", "repeated-feature",
            "repeated-feature-matching-weights",
        ],
    )
    def test_invalid_header_rejected(self, tmp_path, mutate):
        path, data = self._tiny_file(tmp_path)
        (header_len,) = struct.unpack_from("<Q", data, 12)
        header = json.loads(data[20 : 20 + header_len])
        mutate(header)
        self._write_with_header(path, json.dumps(header).encode())
        with pytest.raises(ModelFormatError):
            load_model(str(path))

    @pytest.mark.parametrize("header", [b"{not json", b"\xff\xfe", b"[]"], ids=["syntax", "encoding", "not-an-object"])
    def test_unreadable_header_rejected(self, tmp_path, header):
        path = tmp_path / "m.ckcrf"
        self._write_with_header(path, header)
        with pytest.raises(ModelFormatError):
            load_model(str(path))

    def test_save_is_deterministic(self, tmp_path):
        a, b = tmp_path / "a.ckcrf", tmp_path / "b.ckcrf"
        save_model(self._trained(), str(a))
        save_model(self._trained(), str(b))
        assert a.read_bytes() == b.read_bytes()


class TestRestrictedEquivalence:
    """``semi`` and ``weak`` define one distribution over labelings for every
    weight vector, transitions included: a ``semi`` edge's two parts are
    those of one ``weak`` segment edge and the transition edge into it."""

    @settings(deadline=None)
    @given(
        st.lists(st.lists(st.sampled_from(["q0", "q1", "Q2", "q3", "q4"]), min_size=1, max_size=4, unique=True),
                 min_size=1, max_size=3),
        st.integers(1, 2),
        st.integers(1, 3),
        st.booleans(),
        st.booleans(),
        st.integers(0, 2**32 - 1),
    )
    def test_semi_and_weak_agree_for_every_weight_vector(self, texts, num_labels, max_seg_len, use_affix, use_shape,
                                                          seed):
        # Words are distinct within a sentence and weights continuous, so no
        # two labelings tie and both families must decode the same spans.
        rng = np.random.default_rng(seed)
        label_set = LabelSet(tuple(f"L{i}" for i in range(num_labels)))
        sentences = [tokenize(" ".join(words)) for words in texts]
        ds = Dataset([DataItem(s, tuple(random_gold(rng, len(s), label_set, max_seg_len))) for s in sentences])
        evaluators = {
            kind: compile_split(ds, TrainConfig(kind, 0.1, max_seg_len, use_affix=use_affix, use_shape=use_shape),
                                None, label_set)[0]
            for kind in ("semi", "weak")
        }
        semi, weak = evaluators["semi"].dictionary, evaluators["weak"].dictionary
        assert sorted(semi.strings) == sorted(weak.strings)
        to_weak = weak.indices(semi.strings)
        weights = {"semi": rng.uniform(-2.0, 2.0, len(semi)), "weak": np.empty(len(weak))}
        weights["weak"][to_weak] = weights["semi"]

        results = {}
        for kind, ev in evaluators.items():
            w = weights[kind]
            value, grad = ev.objective_and_gradient(w)
            log_z = forward_log(ev.batch, edge_scores(ev.batch, w))[ev.batch.leaves]
            _, best = viterbi_path(ev.batch, w)
            model = Model(kind, label_set, ev.config.feature_config, ev.dictionary, w)
            results[kind] = value, grad, log_z, best, model.predict_many(sentences)
        value, grad, log_z, best, spans = results["semi"]
        value_weak, grad_weak, log_z_weak, best_weak, spans_weak = results["weak"]
        assert len(log_z) == len(log_z_weak) == len(ds)
        assert value == pytest.approx(value_weak, rel=0, abs=1e-9)
        np.testing.assert_allclose(grad, grad_weak[to_weak], rtol=0, atol=1e-9)
        np.testing.assert_allclose(log_z, log_z_weak, rtol=0, atol=1e-9)
        np.testing.assert_allclose(best, best_weak, rtol=0, atol=1e-9)
        assert spans == spans_weak
