"""End-to-end command-line behavior and exit codes."""

import json
import os
import re
import struct
import subprocess
import sys
from pathlib import Path
from shutil import copyfile

import numpy as np
import pytest

from chunkcrf import cli
from chunkcrf.cli import EXIT_DATA, EXIT_NUMERIC, EXIT_OK, EXIT_USAGE, build_parser, load_config_file, main
from chunkcrf.core import CharSpan, LabelSet
from chunkcrf.features import FeatureConfig, FeatureDictionary
from chunkcrf.ingest import AnnotatedText, annotate, read_jsonl, write_jsonl
from chunkcrf.lattice import MODEL_KINDS, topology
from chunkcrf.synth import chunk_label_names, separable_corpus
from chunkcrf.training import MODEL_MAGIC, MODEL_VERSION, Model, TrainConfig, load_model, save_model


@pytest.fixture
def corpus_files(tmp_path):
    train = tmp_path / "train.jsonl"
    dev = tmp_path / "dev.jsonl"
    write_jsonl(train, separable_corpus(60, seed=21))
    write_jsonl(dev, separable_corpus(20, seed=22))
    return train, dev


def run(argv):
    return main([str(a) for a in argv])


class TestIngest:
    def test_jsonl_ingest_prints_stats(self, tmp_path, capsys):
        src = tmp_path / "src.jsonl"
        write_jsonl(src, [annotate("Dr teh says", [CharSpan(0, 6, "NP")])])
        out = tmp_path / "canonical.jsonl"
        assert run(["ingest", src, "--format", "jsonl", "--out", out]) == EXIT_OK
        stdout = capsys.readouterr().out
        assert "messages          1" in stdout
        assert "chunks            1" in stdout
        assert "tokens            3" in stdout
        assert len(read_jsonl(out)) == 1

    def test_brat_ingest(self, tmp_path, capsys):
        (tmp_path / "m.txt").write_text("Dr teh says", encoding="utf-8")
        (tmp_path / "m.ann").write_text("T1\tNP 0 6\tDr teh\n", encoding="utf-8")
        out = tmp_path / "c.jsonl"
        assert run(["ingest", tmp_path, "--format", "brat", "--out", out]) == EXIT_OK
        (item,) = read_jsonl(out)
        assert item.char_spans == (CharSpan(0, 6, "NP"),)

    def test_empty_input_gives_zero_counts(self, tmp_path, capsys):
        src = tmp_path / "empty.jsonl"
        src.write_text("", encoding="utf-8")
        out = tmp_path / "out.jsonl"
        assert run(["ingest", src, "--format", "jsonl", "--out", out]) == EXIT_OK
        assert "messages          0" in capsys.readouterr().out
        assert out.read_text() == ""

    def test_missing_input_is_a_data_error(self, tmp_path):
        assert run(["ingest", tmp_path / "nope.jsonl", "--format", "jsonl"]) == EXIT_DATA

    def test_negative_span_start_is_a_data_error(self, tmp_path, capsys):
        src = tmp_path / "src.jsonl"
        line = json.dumps({"text": "Dr teh says", "spans": [{"start": -1, "end": 5, "label": "NP"}]})
        src.write_text(line + "\n", encoding="utf-8")
        out = tmp_path / "out.jsonl"
        assert run(["ingest", src, "--out", out]) == EXIT_DATA
        assert capsys.readouterr().err.startswith(f"error: {src}:1: span [-1, 5) outside [0, 11)")
        assert not out.exists()


class TestTrainPredictEval:
    def test_full_cycle_reaches_perfect_scores(self, corpus_files, tmp_path, capsys):
        train, dev = corpus_files
        model_path = tmp_path / "model.ckcrf"
        assert (
            run(
                ["train", "--train", train, "--model", "weak", "--lambda", "0.05",
                 "--max-iterations", "60", "--out", model_path]
            )
            == EXIT_OK
        )
        assert model_path.exists()
        # the log: its header, then one row per L-BFGS iteration
        header, *rows = (model_path.parent / (model_path.name + ".log")).read_text().splitlines()
        assert header == "iter, objective, grad_norm, seconds"
        iterations = load_model(model_path).metadata["iterations"]
        assert [int(row.split(", ")[0]) for row in rows] == list(range(1, iterations + 1))
        assert all(len(row.split(", ")) == 4 for row in rows)

        pred_path = tmp_path / "pred.jsonl"
        assert run(["predict", "--model-file", model_path, "--input", dev, "--out", pred_path]) == EXIT_OK
        json_out = tmp_path / "scores.json"
        assert run(["eval", "--gold", dev, "--pred", pred_path, "--level", "both", "--json-out", json_out]) == EXIT_OK
        scores = json.loads(json_out.read_text())
        assert scores["char"]["f1"] == 1.0
        assert scores["word"]["f1"] == 1.0

    def test_grid_training_logs_one_report_per_point(self, corpus_files, tmp_path, capsys):
        train, dev = corpus_files
        model_path = tmp_path / "model.ckcrf"
        code = run(
            ["train", "--train", train, "--dev", dev, "--model", "linear", "--lambda-grid",
             "--max-iterations", "25", "--out", model_path]
        )
        assert code == EXIT_OK
        log_text = (model_path.parent / (model_path.name + ".log")).read_text()
        assert log_text.count("lambda=") == 5
        assert "selected lambda=" in capsys.readouterr().out

    def test_eval_rejects_a_prediction_for_another_message(self, tmp_path, capsys):
        gold, pred = tmp_path / "gold.jsonl", tmp_path / "pred.jsonl"
        write_jsonl(gold, [annotate("first one", []), annotate("hello big world", [CharSpan(6, 9, "NP")])])
        write_jsonl(pred, [annotate("first one", []), annotate("abcdef ghijklmnop", [CharSpan(6, 9, "NP")])])
        assert run(["eval", "--gold", gold, "--pred", pred]) == EXIT_DATA
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == "error: prediction 2 is not for gold message 2: their texts differ\n"

    def test_missing_brown_file_fails_before_training(self, corpus_files, tmp_path):
        train, _ = corpus_files
        code = run(
            ["train", "--train", train, "--features", "b", "--lambda", "0.1",
             "--brown", tmp_path / "missing.tsv", "--out", tmp_path / "m.ckcrf"]
        )
        assert code == EXIT_DATA
        assert not (tmp_path / "m.ckcrf").exists()

    def test_config_file_with_flag_override(self, corpus_files, tmp_path):
        train, _ = corpus_files
        config = tmp_path / "run.cfg"
        config.write_text(
            f"train = {train}\nmodel = semi\nlambda = 0.25\nmax-iterations = 10\n"
            f"out = {tmp_path / 'from_config.ckcrf'}\n",
            encoding="utf-8",
        )
        assert run(["train", "--config", config, "--max-iterations", "5"]) == EXIT_OK
        flags_only = tmp_path / "from_flags.ckcrf"
        argv = ["train", "--train", train, "--model", "semi", "--lambda", "0.25", "--max-iterations", "5",
                "--out", flags_only]
        assert run(argv) == EXIT_OK
        # the flag wins over the file's value, so both runs train for at most 5 iterations
        assert (tmp_path / "from_config.ckcrf").read_bytes() == flags_only.read_bytes()

    def test_unknown_config_key_is_a_data_error(self, corpus_files, tmp_path):
        config = tmp_path / "run.cfg"
        config.write_text("bogus = 1\n", encoding="utf-8")
        assert run(["train", "--config", config]) == EXIT_DATA

    def test_removed_threads_key_is_a_data_error(self, corpus_files, tmp_path, capsys):
        train, _ = corpus_files
        config = tmp_path / "run.cfg"
        config.write_text(f"train = {train}\nlambda = 0.25\nmax-iterations = 1\nthreads = 2\n", encoding="utf-8")
        assert run(["train", "--config", config, "--out", tmp_path / "m.ckcrf"]) == EXIT_DATA
        assert "unknown key 'threads'" in capsys.readouterr().err

    def test_config_key_of_another_command_is_ignored(self, corpus_files, tmp_path):
        train, _ = corpus_files
        config = tmp_path / "shared.cfg"
        config.write_text(
            f"train = {train}\nlambda = 0.25\nmax-iterations = 5\nsentences = 5\n"
            f"out = {tmp_path / 'm.ckcrf'}\n",
            encoding="utf-8",
        )
        assert run(["train", "--config", config]) == EXIT_OK
        assert (tmp_path / "m.ckcrf").exists()

    def test_predict_with_corrupt_model_is_a_data_error(self, corpus_files, tmp_path, capsys):
        _, dev = corpus_files
        model_path = tmp_path / "cut.ckcrf"
        model_path.write_bytes(MODEL_MAGIC + struct.pack("<I", MODEL_VERSION) + b"\x05\x00\x00")
        assert run(["predict", "--model-file", model_path, "--input", dev]) == EXIT_DATA
        captured = capsys.readouterr()
        assert captured.err.startswith("error: ") and "truncated" in captured.err
        assert "Traceback" not in captured.err
        assert captured.out == ""

    @pytest.mark.parametrize("features", [["T=O|O", "T=O|O"], ["T=O|O", "W[0]=a|O", "T=O|O"]],
                             ids=["same-count-as-weights", "one-more-than-weights"])
    def test_predict_with_a_feature_listed_twice_is_a_data_error(self, corpus_files, tmp_path, capsys, features):
        _, dev = corpus_files
        path = _model(tmp_path / "m.ckcrf")
        data = path.read_bytes()
        (header_len,) = struct.unpack_from("<Q", data, 12)
        header = json.loads(data[20:20 + header_len])
        header["features"] = features
        header_bytes = json.dumps(header).encode()
        path.write_bytes(MODEL_MAGIC + struct.pack("<IQ", MODEL_VERSION, len(header_bytes)) + header_bytes
                         + struct.pack("<Q", 2) + np.zeros(2, dtype="<f8").tobytes())
        assert run(["predict", "--model-file", path, "--input", dev]) == EXIT_DATA
        captured = capsys.readouterr()
        assert captured.err.startswith(f"error: {path}: feature table lists a string twice")
        assert captured.out == ""

    def _model_with_weights(self, corpus_files, tmp_path, value):
        train, _ = corpus_files
        path = tmp_path / "m.ckcrf"
        assert run(["train", "--train", train, "--model", "weak", "--lambda", "0.1",
                    "--max-iterations", "5", "--out", path]) == EXIT_OK
        model = load_model(str(path))
        model.weights[:] = value
        save_model(model, str(path))
        return path

    @pytest.mark.parametrize("value", [float("nan"), float("inf")])
    def test_predict_with_non_finite_weights_is_a_data_error(self, corpus_files, tmp_path, capsys, value):
        _, dev = corpus_files
        path = self._model_with_weights(corpus_files, tmp_path, value)
        capsys.readouterr()
        assert run(["predict", "--model-file", path, "--input", dev]) == EXIT_DATA
        captured = capsys.readouterr()
        assert captured.err.startswith("error: ") and "non-finite" in captured.err
        assert captured.out == ""

    @pytest.mark.parametrize("kind", ["linear", "semi", "weak"])
    def test_predict_is_identical_across_chunk_boundaries(self, corpus_files, tmp_path, monkeypatch, kind):
        train, dev = corpus_files
        path = tmp_path / "m.ckcrf"
        assert run(["train", "--train", train, "--model", kind, "--lambda", "0.1",
                    "--max-iterations", "5", "--out", path]) == EXIT_OK
        model = load_model(str(path))
        model.weights[:] = np.random.default_rng(3).normal(size=len(model.weights))
        save_model(model, str(path))
        # chunks of two: a pair, one message and an empty one, two empty ones, a pair, a lone message
        dev_items = read_jsonl(dev)
        items = dev_items[:3] + [annotate("", [])] * 3 + dev_items[3:6]
        messages, out = tmp_path / "messages.jsonl", tmp_path / "pred.jsonl"
        write_jsonl(messages, items)
        monkeypatch.setattr(cli, "PREDICT_CHUNK", 2)
        assert run(["predict", "--model-file", path, "--input", messages, "--out", out]) == EXIT_OK
        rendered = [
            AnnotatedText(item.sentence, tuple(model.predict_char_spans(item.sentence))) for item in items
        ]
        assert any(item.char_spans for item in rendered)
        write_jsonl(tmp_path / "expected.jsonl", rendered)
        assert out.read_bytes() == (tmp_path / "expected.jsonl").read_bytes()

    def test_predict_with_overflowing_weights_is_a_numerical_error(self, corpus_files, tmp_path, capsys):
        # Finite weights whose path scores overflow to infinity.
        _, dev = corpus_files
        path = self._model_with_weights(corpus_files, tmp_path, 1e308)
        capsys.readouterr()
        assert run(["predict", "--model-file", path, "--input", dev]) == EXIT_NUMERIC
        captured = capsys.readouterr()
        assert captured.err.startswith("numerical failure: ")
        assert "Traceback" not in captured.err and "Warning" not in captured.err

    def test_failed_predict_leaves_the_output_file_untouched(self, corpus_files, tmp_path):
        _, dev = corpus_files
        path = self._model_with_weights(corpus_files, tmp_path, 1e308)
        out = tmp_path / "pred.jsonl"
        out.write_text('{"earlier": "run"}\n')
        assert run(["predict", "--model-file", path, "--input", dev, "--out", out]) == EXIT_NUMERIC
        assert out.read_text() == '{"earlier": "run"}\n'

    def test_lambda_required_without_grid(self, corpus_files, tmp_path):
        train, _ = corpus_files
        assert run(["train", "--train", train, "--out", tmp_path / "m.ckcrf"]) == EXIT_DATA

    @pytest.mark.parametrize(
        "flag, value",
        [("--tolerance", "-1"), ("--tolerance", "nan"), ("--max-iterations", "0"), ("--lambda", "0"),
         ("--lambda", "inf"), ("--features", "x")],
    )
    def test_invalid_stopping_rule_is_a_data_error(self, corpus_files, tmp_path, capsys, flag, value):
        train, _ = corpus_files
        out = tmp_path / "m.ckcrf"
        assert run(["train", "--train", train, "--lambda", "0.1", flag, value, "--out", out]) == EXIT_DATA
        assert not out.exists()
        assert capsys.readouterr().err.startswith("error: ")

    @pytest.mark.parametrize(
        "argv",
        [
            ["ingest", "--format", "jsonl", "--out", "OUT"],
            ["train", "--lambda", "0.1", "--out", "OUT"],
            ["train", "--train", "DEV", "--lambda", "0.1", "--lambda-grid", "--out", "OUT"],
            ["predict", "--input", "DEV", "--out", "OUT"],
            ["eval", "--pred", "DEV", "--json-out", "OUT"],
        ],
        ids=["ingest-input", "train-train", "train-dev", "predict-model-file", "eval-gold"],
    )
    def test_missing_required_value_is_a_data_error(self, corpus_files, tmp_path, capsys, argv):
        # a config file could supply the value, so the command line itself is valid
        _, dev = corpus_files
        argv = [{"DEV": dev, "OUT": tmp_path / "out"}.get(arg, arg) for arg in argv]
        assert run(argv) == EXIT_DATA
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("error: ")
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize(
        "argv",
        [
            ["ingest", "FILE/in.jsonl"],
            ["ingest", "DEV", "--out", "FILE/out.jsonl"],
            ["predict", "--model-file", "FILE/m.ckcrf", "--input", "DEV"],
            ["eval", "--gold", "FILE/gold.jsonl", "--pred", "DEV"],
            ["train", "--train", "DEV", "--lambda", "0.1", "--dev", "FILE/dev.jsonl"],
        ],
        ids=["ingest-input", "ingest-out", "predict-model-file", "eval-gold", "train-dev"],
    )
    def test_path_under_a_regular_file_is_a_data_error(self, corpus_files, tmp_path, capsys, argv):
        _, dev = corpus_files
        regular = tmp_path / "file"
        regular.write_text("", encoding="utf-8")
        argv = [str(dev) if arg == "DEV" else arg.replace("FILE", str(regular)) for arg in argv]
        assert run(argv) == EXIT_DATA
        err = capsys.readouterr().err
        assert err.startswith("error: ")
        assert "Traceback" not in err

    @pytest.mark.parametrize(
        "argv",
        [
            ["ingest", "DEV", "--out", "MISSING/out.jsonl"],
            ["train", "--train", "DEV", "--lambda", "0.1", "--out", "MISSING/m.ckcrf"],
            ["eval", "--gold", "DEV", "--pred", "DEV", "--json-out", "MISSING/scores.json"],
            ["bench", "--labels", "2", "--out", "MISSING/bench.csv"],
            ["predict", "--model-file", "DEV", "--input", "DEV", "--out", "MISSING/pred.jsonl"],
            ["ingest", "DEV", "--out", "DIR"],
            ["train", "--train", "DEV", "--lambda", "0.1", "--out", "DIR"],
            ["eval", "--gold", "DEV", "--pred", "DEV", "--json-out", "DIR"],
            ["bench", "--labels", "2", "--out", "DIR"],
            ["predict", "--model-file", "DEV", "--input", "DEV", "--out", "DIR"],
            ["train", "--train", "DEV", "--lambda", "0.1", "--out", "LOGDIR"],
            ["train", "--train", "DEV", "--dev", "DEV", "--lambda-grid", "--out", "LOGDIR"],
        ],
        ids=["ingest", "train", "eval", "bench", "predict",
             "ingest-to-dir", "train-to-dir", "eval-to-dir", "bench-to-dir", "predict-to-dir",
             "train-log-to-dir", "train-grid-log-to-dir"],
    )
    def test_missing_output_directory_fails_before_any_work(self, corpus_files, tmp_path, capsys, monkeypatch,
                                                            argv):
        # An output path whose directory is missing, or that is a directory;
        # LOGDIR is a model path whose training log path is a directory.
        def never(*args, **kwargs):
            raise AssertionError("work started before the output path was checked")

        for name in ("read_corpus", "read_jsonl", "train", "tune_lambda", "compile_split", "load_model"):
            monkeypatch.setattr(cli, name, never)
        _, dev = corpus_files
        out_dir = tmp_path / "outdir"
        out_dir.mkdir()
        (out_dir / "m.ckcrf.log").mkdir()
        out_name = "m.ckcrf.log" if "LOGDIR" in argv else "outdir" if "DIR" in argv else "nodir"
        subs = {"DEV": str(dev), "DIR": str(out_dir), "LOGDIR": str(out_dir / "m.ckcrf")}
        argv = [subs.get(arg, arg.replace("MISSING", str(tmp_path / "nodir"))) for arg in argv]
        assert run(argv) == EXIT_DATA
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("error: cannot write ") and out_name in captured.err

    @pytest.mark.parametrize("mode", [["--lambda", "0.1"], ["--dev", "DEV", "--lambda-grid"]], ids=["fixed", "grid"])
    def test_empty_model_path_fails_before_any_work(self, corpus_files, tmp_path, capsys, monkeypatch, mode):
        def never(*args, **kwargs):
            raise AssertionError("work started before the output path was checked")

        for name in ("read_jsonl", "train", "tune_lambda"):
            monkeypatch.setattr(cli, name, never)
        monkeypatch.chdir(tmp_path)
        _, dev = corpus_files
        argv = ["train", "--train", str(dev), *(str(dev) if arg == "DEV" else arg for arg in mode), "--out", ""]
        assert run(argv) == EXIT_DATA
        captured = capsys.readouterr()
        assert captured.out == "" and captured.err.startswith("error: train needs a model output path")
        assert not (tmp_path / ".log").exists() and list(tmp_path.glob("*.log")) == []

    @pytest.mark.parametrize(
        "span",
        [{"start": 0, "end": 6, "label": 5}, {"start": 0.5, "end": 6, "label": "NP"},
         {"start": True, "end": 6, "label": "NP"}],
        ids=["int-label", "float-start", "bool-start"],
    )
    def test_mistyped_span_field_is_a_data_error(self, tmp_path, capsys, span):
        train = tmp_path / "train.jsonl"
        train.write_text(json.dumps({"text": "Dr teh says", "spans": [span]}) + "\n", encoding="utf-8")
        out = tmp_path / "m.ckcrf"
        assert run(["train", "--train", train, "--lambda", "0.1", "--out", out]) == EXIT_DATA
        captured = capsys.readouterr()
        assert captured.err.startswith(f"error: {train}:1: ")
        assert "Traceback" not in captured.err
        assert not out.exists()

    @pytest.mark.parametrize(
        "record,message",
        [
            ({"text": "a b", "spans": [[0, 1, "NP"]]}, "a span must be an object, got an array: [0, 1, 'NP']"),
            ({"text": "a b", "spans": "NP"}, "field 'spans' must be an array, got a string: 'NP'"),
            ({"text": "a b", "spans": {"start": 0}}, "field 'spans' must be an array, got an object: {'start': 0}"),
            (["a b"], "a message must be an object, got an array: ['a b']"),
            ("a b", "a message must be an object, got a string: 'a b'"),
            ({"text": 5}, "field 'text' must be a string, got a number: 5"),
            ({"text": None}, "field 'text' must be a string, got null: None"),
            ({"spans": []}, "a message needs a 'text' field"),
        ],
        ids=["list-span", "string-spans", "object-spans", "array-line", "string-line", "number-text", "null-text",
             "missing-text"],
    )
    def test_mistyped_jsonl_record_names_the_field(self, tmp_path, capsys, record, message):
        data = _jsonl(tmp_path / "in.jsonl", {"text": "fine"}, record)
        assert run(["ingest", data, "--format", "jsonl"]) == EXIT_DATA
        captured = capsys.readouterr()
        assert captured.err == f"error: {data}:2: {message}\n"
        assert captured.out == ""

    def test_usage_error_exit_code(self, capsys):
        assert run(["train", "--model", "bogus"]) == EXIT_USAGE
        err = capsys.readouterr().err
        assert "usage: chunkcrf train" in err
        assert "chunkcrf train: error: argument --model: invalid choice: 'bogus'" in err

    @pytest.mark.parametrize(
        "argv",
        [[], ["bogus"], ["train", "--nope"], ["train", "--lambda", "abc"], ["train", "--seed", "1"]],
        ids=["no-subcommand", "unknown-subcommand", "unknown-flag", "bad-float", "train-seed"],
    )
    def test_parse_errors_return_usage_code(self, argv, capsys):
        assert run(argv) == EXIT_USAGE
        captured = capsys.readouterr()
        assert "usage: chunkcrf" in captured.err
        assert "error: " in captured.err
        assert captured.out == ""

    @pytest.mark.parametrize("argv", [["--help"], ["train", "--help"]], ids=["top-level", "train"])
    def test_help_returns_ok(self, argv, capsys):
        assert run(argv) == EXIT_OK
        captured = capsys.readouterr()
        assert captured.out.startswith("usage: chunkcrf")
        assert captured.err == ""

    def test_usage_error_process_exit_status(self):
        src = Path(__file__).resolve().parents[1] / "src"
        env = {**os.environ, "PYTHONPATH": str(src)}
        proc = subprocess.run(
            [sys.executable, "-m", "chunkcrf.cli", "train", "--model", "bogus"],
            env=env, capture_output=True, text=True, timeout=60,
        )
        assert proc.returncode == EXIT_USAGE
        assert "invalid choice" in proc.stderr

    def test_determinism_byte_identical_models(self, corpus_files, tmp_path):
        train, _ = corpus_files
        a, b = tmp_path / "a.ckcrf", tmp_path / "b.ckcrf"
        args = ["train", "--train", train, "--model", "weak", "--lambda", "0.1",
                "--max-iterations", "15"]
        assert run(args + ["--out", a]) == EXIT_OK
        assert run(args + ["--out", b]) == EXIT_OK
        assert a.read_bytes() == b.read_bytes()

    def test_model_bytes_do_not_depend_on_the_string_hash_seed(self, corpus_files, tmp_path):
        train, _ = corpus_files
        src = Path(__file__).resolve().parents[1] / "src"
        models = []
        for seed in ("1", "2"):
            out = tmp_path / f"seed{seed}.ckcrf"
            proc = subprocess.run(
                [sys.executable, "-m", "chunkcrf.cli", "train", "--train", str(train), "--model", "semi",
                 "--features", "a,s", "--lambda", "0.1", "--max-iterations", "15", "--out", str(out)],
                env={**os.environ, "PYTHONPATH": str(src), "PYTHONHASHSEED": seed},
                capture_output=True, text=True, timeout=120,
            )
            assert proc.returncode == EXIT_OK, proc.stderr
            models.append(out.read_bytes())
        assert models[0] == models[1]

    def test_train_defaults_are_the_train_config_defaults(self, corpus_files):
        train, _ = corpus_files
        args = build_parser().parse_args(["train", "--train", str(train), "--lambda", "1"])
        assert cli._train_config(args) == TrainConfig(args.model, lam=1.0)
        assert build_parser().commands["bench"].get_default("max_seg_len") == TrainConfig.max_seg_len


def _jsonl(path, *records):
    path.write_text("".join(json.dumps(record) + "\n" for record in records), encoding="utf-8")
    return path


def _text(path, text):
    path.write_text(text, encoding="utf-8")
    return path


def _brat(path, text, ann):
    path.mkdir()
    for name, content in (("m.txt", text), ("m.ann", ann)):
        (path / name).write_bytes(content if isinstance(content, bytes) else content.encode())
    return path


def _bytes(path, data):
    path.write_bytes(data)
    return path


def _model(path):
    """A valid, featureless model file."""
    save_model(Model("linear", LabelSet(("NP",)), FeatureConfig(), FeatureDictionary(), np.zeros(0)), str(path))
    return path


# argv(directory, 60-message training file) and the message after "error: "
DATA_ERRORS = {
    "eval-message-counts": (
        lambda d, train: ["eval", "--gold", train, "--pred", _jsonl(d / "pred.jsonl", {"text": "a b", "spans": []})],
        "gold has 60 messages but predictions have 1"),
    "brat-empty-span": (
        lambda d, train: ["ingest", _brat(d / "brat", "Dr teh", "T1\tNP 3 3\t\n"), "--format", "brat"],
        "m.ann:1: char span must satisfy start < end, got [3, 3)"),
    "brat-overlapping-spans": (
        lambda d, train: ["ingest", _brat(d / "brat", "Dr teh says", "T1\tNP 0 6\tDr teh\nT2\tNP 3 11\tteh says\n"),
                          "--format", "brat"],
        "m.ann: spans overlap at 3"),
    "no-chunk-spans": (
        lambda d, train: ["train", "--train", _jsonl(d / "t.jsonl", {"text": "a b", "spans": []}), "--lambda", "1",
                          "--out", d / "m.ckcrf"],
        "dataset has no chunk spans, so there is no chunk label to learn"),
    "empty-dev": (
        lambda d, train: ["train", "--train", train, "--dev", _jsonl(d / "dev.jsonl"), "--lambda-grid",
                          "--out", d / "m.ckcrf"],
        "tuning needs non-empty train and dev splits"),
    "rejected-label": (
        lambda d, train: ["train", "--train", _jsonl(d / "t.jsonl", {"text": "a b", "spans": [{"start": 0, "end": 1,
                                                                                              "label": "N P"}]}),
                          "--lambda", "1", "--out", d / "m.ckcrf"],
        "invalid chunk label 'N P'"),
    "missing-train": (
        lambda d, train: ["train", "--train", d / "missing.jsonl", "--lambda", "1", "--out", d / "m.ckcrf"],
        "training data not found: "),
    "lambda-with-grid": (
        lambda d, train: ["train", "--train", train, "--dev", train, "--lambda", "0.3", "--lambda-grid",
                          "--out", d / "m.ckcrf"],
        "--lambda and --lambda-grid exclude each other"),
    "config-lambda-with-grid": (
        lambda d, train: ["train", "--config", _text(d / "run.cfg", "lambda = 0.3\n"), "--train", train,
                          "--dev", train, "--lambda-grid", "--out", d / "m.ckcrf"],
        "--lambda and --lambda-grid exclude each other"),
    # an output path that names one of the command's inputs
    "train-out-is-train": (
        lambda d, train: ["train", "--train", copyfile(train, d / "c.jsonl"), "--lambda", "1", "--out", d / "c.jsonl"],
        "it is an input of this command"),
    "train-log-is-dev": (
        lambda d, train: ["train", "--train", train, "--dev", copyfile(train, d / "m.ckcrf.log"), "--lambda", "1",
                          "--out", d / "m.ckcrf"],
        "it is an input of this command"),
    "train-out-is-config": (
        lambda d, train: ["train", "--config", _text(d / "run.cfg", "lambda = 1\n"), "--train", train,
                          "--out", d / "run.cfg"],
        "it is an input of this command"),
    "predict-out-is-input": (
        lambda d, train: ["predict", "--model-file", _model(d / "model"), "--input", copyfile(train, d / "d.jsonl"),
                          "--out", d / "d.jsonl"],
        "it is an input of this command"),
    "predict-out-is-model-file": (
        lambda d, train: ["predict", "--model-file", _model(d / "model"), "--input", train, "--out", d / "model"],
        "it is an input of this command"),
    "ingest-out-is-input": (
        lambda d, train: ["ingest", copyfile(train, d / "c.jsonl"), "--out", d / "c.jsonl"],
        "it is an input of this command"),
    "eval-json-out-is-gold": (
        lambda d, train: ["eval", "--gold", copyfile(train, d / "g.jsonl"), "--pred", train,
                          "--json-out", d / "g.jsonl"],
        "it is an input of this command"),
    # a file that is not UTF-8, named with the line of its first bad byte
    "jsonl-not-utf8": (
        lambda d, train: ["ingest", _bytes(d / "in.jsonl", b'{"text": "ok"}\r\n\n{"text": "caf\xe9"}\n'),
                          "--format", "jsonl"],
        "in.jsonl:3: not UTF-8 text (byte 0xe9)"),
    "brat-txt-not-utf8": (
        lambda d, train: ["ingest", _brat(d / "brat", b"Dr teh\rcaf\xe9", "T1\tNP 0 6\tDr teh\n"), "--format", "brat"],
        "m.txt:2: not UTF-8 text (byte 0xe9)"),
    "brat-ann-not-utf8": (
        lambda d, train: ["ingest", _brat(d / "brat", "Dr teh", b"T1\tNP 0 6\tDr teh\n#1\tnote \xff\n"),
                          "--format", "brat"],
        "m.ann:2: not UTF-8 text (byte 0xff)"),
    "clusters-not-utf8": (
        lambda d, train: ["train", "--train", train, "--features", "b", "--lambda", "1", "--out", d / "m.ckcrf",
                          "--brown", _bytes(d / "clusters.tsv", b"0110\tDr\n0111\tt\xe9h\n")],
        "clusters.tsv:2: not UTF-8 text (byte 0xe9)"),
    "config-not-utf8": (
        lambda d, train: ["train", "--config", _bytes(d / "run.cfg", b"# caf\xe9\nlambda = 1\n"), "--train", train,
                          "--out", d / "m.ckcrf"],
        "run.cfg:1: not UTF-8 text (byte 0xe9)"),
}


@pytest.mark.parametrize("case", DATA_ERRORS)
def test_data_errors_exit_2_with_their_message(case, corpus_files, tmp_path, capsys):
    argv, message = DATA_ERRORS[case]
    work = tmp_path / "work"
    work.mkdir()
    args = argv(work, corpus_files[0])
    inputs = {path: path.read_bytes() for path in work.rglob("*") if path.is_file()}
    assert run(args) == EXIT_DATA
    captured = capsys.readouterr()
    assert captured.err.startswith("error: ") and message in captured.err
    assert "Traceback" not in captured.err
    assert not (work / "m.ckcrf").exists()
    assert {path: path.read_bytes() for path in work.rglob("*") if path.is_file()} == inputs


class TestBench:
    def test_bench_emits_csv(self, tmp_path, capsys):
        out = tmp_path / "bench.csv"
        code = run(
            ["bench", "--sentences", "20", "--length", "6", "--labels", "2,3",
             "--iterations", "1", "--warmup", "0", "--out", out]
        )
        assert code == EXIT_OK
        lines = out.read_text().strip().splitlines()
        assert lines[0] == "model,num_labels,n,L,edges,sec_per_iter"
        assert len(lines) == 1 + 2 * 3  # two alphabet sizes, three models
        assert "semi/weak time ratio" in capsys.readouterr().out

    def test_rows_time_the_requested_alphabet(self, tmp_path):
        # five four-token messages carry no chunk, yet the lattices span all 16 labels
        out = tmp_path / "bench.csv"
        assert run(["bench", "--sentences", "5", "--length", "4", "--labels", "3,16", "--max-seg-len", "3",
                    "--iterations", "2", "--warmup", "1", "--out", out]) == EXIT_OK
        _, *rows = out.read_text(encoding="utf-8").splitlines()
        assert [row.split(",")[:2] for row in rows] == [[kind, str(y)] for y in (3, 16) for kind in MODEL_KINDS]
        for model, num_labels, n, max_seg_len, edges, seconds in (row.split(",") for row in rows):
            label_set = LabelSet(tuple(chunk_label_names(int(num_labels) - 1)))
            assert (n, max_seg_len) == ("4", "3")
            assert int(edges) == 5 * topology(model, 4, label_set, 3).num_edges
            assert float(seconds) > 0

    def test_csv_schema(self, tmp_path, capsys):
        out = tmp_path / "bench.csv"
        assert run(["bench", "--sentences", "2", "--labels", "2", "--iterations", "1", "--warmup", "0",
                    "--out", out]) == EXIT_OK
        text = out.read_text(encoding="utf-8")
        header, *rows = text.splitlines()
        assert header == "model,num_labels,n,L,edges,sec_per_iter"
        for kind, row in zip(MODEL_KINDS, rows, strict=True):
            assert re.fullmatch(rf"{kind},2,10,6,\d+,\d+\.\d{{6}}", row)
        stdout = capsys.readouterr().out
        expected = f"benchmark CSV written to {out}\n{text}labels=2: semi/weak time ratio "
        assert re.fullmatch(re.escape(expected) + r"\d+\.\d{3}\n", stdout)

    @pytest.mark.parametrize(
        "argv, message",
        [
            (["--labels", "2,1"], "label-alphabet sizes count the outside label and must be >= 2, got 1"),
            (["--iterations", "0"], "iterations must be >= 1, got 0"),
            (["--warmup", "-1"], "warmup must be >= 0, got -1"),
            (["--sentences", "0"], "sentences must be >= 1, got 0"),
            (["--length", "0"], "sentence length must be >= 1, got 0"),
            (["--max-seg-len", "0"], "max_seg_len must be between 1 and 100, got 0"),
            (["--max-seg-len", "101"], "max_seg_len must be between 1 and 100, got 101"),
            (["--labels", ","], "need at least one label-alphabet size"),
            (["--labels", "2,2"], "label-alphabet sizes must not repeat, got 2, 2"),
        ],
        ids=["labels", "iterations", "warmup", "sentences", "length", "max-seg-len", "max-seg-len-limit",
             "no-labels", "repeated-labels"],
    )
    def test_rejects_bad_arguments_before_any_work(self, monkeypatch, capsys, argv, message):
        def no_work(*args, **kwargs):
            raise AssertionError("the benchmark built its messages before checking its arguments")

        for name in ("Dataset", "compile_split"):
            monkeypatch.setattr(cli, name, no_work)
        assert run(["bench", "--labels", "2", *argv]) == EXIT_DATA
        assert capsys.readouterr().err == f"error: {message}\n"

    @pytest.mark.parametrize(
        "labels, message",
        [
            ("2,1", "label-alphabet sizes count the outside label"),
            ("2,x", "label-alphabet sizes must be integers, got 'x'"),
            (",", "need at least one label-alphabet size"),
            ("2,4,2", "label-alphabet sizes must not repeat, got 2, 4, 2"),
        ],
        ids=["too-small", "not-an-integer", "empty", "repeated"],
    )
    def test_bad_label_size_is_a_plain_data_error(self, tmp_path, capsys, labels, message):
        out = tmp_path / "bench.csv"
        assert run(["bench", "--labels", labels, "--out", out]) == EXIT_DATA
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith(f"error: {message}")
        assert "Traceback" not in captured.err
        assert not out.exists()


def _config(path, text):
    path.write_text(text, encoding="utf-8")
    return path


_FOOTPRINT_SCRIPT = """
import json, sys
from chunkcrf.cli import main

train, dev, model, work = sys.argv[1:]
codes = {
    "ingest": main(["ingest", dev, "--out", work + "/canonical.jsonl"]),
    "predict": main(["predict", "--model-file", model, "--input", dev, "--out", work + "/pred.jsonl"]),
    "eval": main(["eval", "--gold", dev, "--pred", work + "/pred.jsonl"]),
    "bench": main(["bench", "--sentences", "2", "--labels", "2", "--iterations", "1", "--warmup", "0"]),
}
decoded = "scipy.optimize" in sys.modules
codes["train"] = main(["train", "--train", train, "--model", "linear", "--lambda", "0.1",
                       "--max-iterations", "3", "--out", work + "/again.ckcrf"])
print(json.dumps({"codes": codes, "after_decode": decoded, "after_train": "scipy.optimize" in sys.modules}))
"""


class TestImportFootprint:
    """Only fitting loads ``scipy.optimize``.  The pytest process has it
    already, so the commands run in a fresh interpreter."""

    @staticmethod
    def _python(args, tmp_path):
        src = Path(__file__).resolve().parents[1] / "src"
        return subprocess.run(
            [sys.executable, *args], env={**os.environ, "PYTHONPATH": str(src)}, cwd=tmp_path,
            capture_output=True, text=True, timeout=300,
        )

    def test_only_train_loads_the_optimizer(self, corpus_files, tmp_path):
        probe = self._python(["-c", "import sys, scipy.sparse; print('scipy.optimize' in sys.modules)"], tmp_path)
        assert probe.returncode == 0, probe.stderr
        if probe.stdout.strip() == "True":
            pytest.skip("this scipy loads scipy.optimize with scipy.sparse")
        train, dev = corpus_files
        model = tmp_path / "model.ckcrf"
        assert run(["train", "--train", train, "--model", "semi", "--lambda", "0.1",
                    "--max-iterations", "5", "--out", model]) == EXIT_OK
        proc = self._python(["-c", _FOOTPRINT_SCRIPT, train, dev, model, tmp_path], tmp_path)
        assert proc.returncode == 0, proc.stderr
        report = json.loads(proc.stdout.strip().splitlines()[-1])
        assert report["codes"] == dict.fromkeys(["ingest", "predict", "eval", "bench", "train"], EXIT_OK)
        assert not report["after_decode"]
        assert report["after_train"]


class TestConfigFile:
    """Config-file values reach every command; flags still override them."""

    def test_ingest_reads_input_and_format(self, tmp_path, capsys):
        corpus = tmp_path / "brat"
        corpus.mkdir()
        (corpus / "m.txt").write_text("Dr teh says", encoding="utf-8")
        (corpus / "m.ann").write_text("T1\tNP 0 6\tDr teh\n", encoding="utf-8")
        config = _config(tmp_path / "run.cfg", f"input = {corpus}\nformat = brat\n")
        out = tmp_path / "c.jsonl"
        assert run(["ingest", "--config", config, "--out", out]) == EXIT_OK
        (item,) = read_jsonl(out)
        assert item.char_spans == (CharSpan(0, 6, "NP"),)
        assert "chunks            1" in capsys.readouterr().out

    def test_predict_reads_model_file_input_and_out(self, corpus_files, tmp_path, capsys):
        train, dev = corpus_files
        model_path = tmp_path / "m.ckcrf"
        assert run(["train", "--train", train, "--lambda", "0.1", "--max-iterations", "5",
                    "--out", model_path]) == EXIT_OK
        capsys.readouterr()
        assert run(["predict", "--model-file", model_path, "--input", dev]) == EXIT_OK
        expected = capsys.readouterr().out
        out = tmp_path / "pred.jsonl"
        config = _config(tmp_path / "run.cfg", f"model-file = {model_path}\ninput = {dev}\nout = {out}\n")
        assert run(["predict", "--config", config]) == EXIT_OK
        assert capsys.readouterr().out == ""
        assert out.read_text(encoding="utf-8") == expected

    def test_eval_level_char_prints_only_the_char_row(self, corpus_files, tmp_path, capsys):
        _, dev = corpus_files
        config = _config(tmp_path / "run.cfg", f"gold = {dev}\npred = {dev}\nlevel = char\n")
        assert run(["eval", "--config", config]) == EXIT_OK
        assert capsys.readouterr().out == "char-level: Prec Rec F = 100.00 100.00 100.00\n"

    def test_bench_reads_its_options_and_a_flag_overrides_one(self, tmp_path, capsys):
        out = tmp_path / "bench.csv"
        config = _config(
            tmp_path / "run.cfg",
            f"sentences = 12\nlength = 5\nlabels = 2,3\niterations = 1\nwarmup = 0\nout = {out}\n",
        )
        assert run(["bench", "--config", config, "--labels", "3"]) == EXIT_OK
        header, *rows = out.read_text().strip().splitlines()
        assert header == "model,num_labels,n,L,edges,sec_per_iter"
        assert [row.split(",")[:3] for row in rows] == [[kind, "3", "5"] for kind in ("linear", "semi", "weak")]
        assert "labels=3: semi/weak time ratio" in capsys.readouterr().out

    @pytest.mark.parametrize(
        "argv, key",
        [
            (["train", "--train", "DEV", "--lambda", "0.1", "--out", "OUT"], "model"),
            (["eval", "--gold", "DEV", "--pred", "DEV", "--json-out", "OUT"], "level"),
            (["ingest", "DEV", "--out", "OUT"], "format"),
        ],
        ids=["model", "level", "format"],
    )
    def test_value_outside_the_choices_is_a_data_error(self, corpus_files, tmp_path, capsys, argv, key):
        _, dev = corpus_files
        config = _config(tmp_path / "run.cfg", f"{key} = bogus\n")
        argv = [{"DEV": dev, "OUT": tmp_path / "out"}.get(arg, arg) for arg in argv]
        assert run([*argv, "--config", config]) == EXIT_DATA
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith(f"error: {config}:1: {key} must be one of ")
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize(
        "line, message",
        [("lambda 0.5", "expected 'key = value', got 'lambda 0.5'"), ("lambda-grid = maybe", "not a boolean: 'maybe'")],
        ids=["no-equals-sign", "not-a-boolean"],
    )
    def test_malformed_config_line_is_a_data_error(self, corpus_files, tmp_path, capsys, line, message):
        train, _ = corpus_files
        config = _config(tmp_path / "run.cfg", f"{line}\n")
        assert run(["train", "--train", train, "--config", config, "--out", tmp_path / "out"]) == EXIT_DATA
        assert capsys.readouterr().err.startswith(f"error: {config}:1: {message}")
        assert not (tmp_path / "out").exists()

    def test_a_hash_inside_a_value_is_part_of_it(self, corpus_files, tmp_path):
        train, _ = corpus_files
        out = tmp_path / "run#1.ckcrf"
        config = _config(tmp_path / "run.cfg", f"out = {out}\n")
        assert run(["train", "--train", train, "--lambda", "0.1", "--max-iterations", "5", "--config", config]) == EXIT_OK
        assert out.is_file() and not (tmp_path / "run").exists()

    def test_a_hash_after_whitespace_starts_a_comment(self, tmp_path):
        config = _config(tmp_path / "run.cfg", "# a whole-line comment\nlambda = 0.25  # note\n")
        assert load_config_file(str(config), build_parser(), "train") == {"lam": 0.25}

    @staticmethod
    def _sample_value(action):
        """A config-file value the option accepts, and what it parses to."""
        if action.nargs == 0:
            return "yes", True
        if action.choices:
            return action.choices[-1], action.choices[-1]
        if action.type is int:
            return "7", 7
        if action.type is float:
            return "0.5", 0.5
        return "some/path", "some/path"

    def test_every_option_is_a_config_key(self, tmp_path):
        # under its destination and under each flag name, so a newly added
        # option cannot miss the config file
        parser = build_parser()
        config = tmp_path / "run.cfg"
        checked = set()
        for name, command in parser.commands.items():
            for action in command._actions:
                if action.dest in ("help", "config"):
                    continue
                raw, value = self._sample_value(action)
                for key in {action.dest, *(flag.lstrip("-") for flag in action.option_strings)}:
                    _config(config, f"{key} = {raw}\n")
                    assert load_config_file(str(config), parser, name) == {action.dest: value}, (name, key)
                    checked.add(key)
        assert {"input", "lambda", "lam", "lambda-grid", "model-file", "json-out", "warmup"} <= checked
        _config(config, "lambda = 0.5\n")
        assert load_config_file(str(config), parser, "train") == {"lam": 0.5}
