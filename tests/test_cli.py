"""End-to-end command-line behavior and exit codes."""

import json
import os
import struct
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from chunkcrf import cli
from chunkcrf.cli import EXIT_DATA, EXIT_NUMERIC, EXIT_OK, EXIT_USAGE, build_parser, load_config_file, main
from chunkcrf.core import CharSpan
from chunkcrf.ingest import AnnotatedText, annotate, read_jsonl, write_jsonl
from chunkcrf.synth import separable_corpus
from chunkcrf.training import MODEL_MAGIC, MODEL_VERSION, load_model, save_model


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
        assert (model_path.parent / (model_path.name + ".log")).exists()

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
            ["predict", "--input", "DEV", "--out", "OUT"],
            ["eval", "--pred", "DEV", "--json-out", "OUT"],
        ],
        ids=["ingest-input", "train-train", "predict-model-file", "eval-gold"],
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

    @pytest.mark.parametrize(
        "labels, message",
        [
            ("2,1", "label-alphabet sizes count the outside label"),
            ("2,x", "label-alphabet sizes must be integers, got 'x'"),
            (",", "need at least one label-alphabet size"),
        ],
        ids=["too-small", "not-an-integer", "empty"],
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
