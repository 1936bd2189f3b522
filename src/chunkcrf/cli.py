"""Command-line front end: ingest, train, predict, eval, bench.

Runs are reproducible: every option can live in a flat ``key = value``
config file, command-line flags override config values one-to-one, and all
randomness flows from the ``seed`` option.  Inputs are validated before any
work starts.  Exit codes: 0 success, 1 usage error, 2 data error,
3 numerical failure.  A usage error is a command line the parser rejects.
A required value still missing once flags and the config file are merged
(``ingest``'s input, ``train``'s ``--train``, ``predict``'s ``--model-file``
or ``--input``, ``eval``'s ``--gold`` or ``--pred``) is a data error: the
command line parsed, and a config file could have supplied the value.
"""

from __future__ import annotations

import argparse
import json
import sys
from dataclasses import dataclass
from pathlib import Path

from .core import SpanError, char_spans_to_word_spans, word_spans_to_char_spans
from .evaluate import (
    benchmark_label_sweep,
    format_eval_table,
    score_corpus,
    sweep_rows_to_csv,
)
from .features import load_brown_clusters
from .ingest import DataFormatError, corpus_stats, read_corpus, read_jsonl, write_jsonl
from .lattice import MODEL_KINDS
from .training import (
    LAMBDA_GRID,
    Dataset,
    ModelFormatError,
    NumericalError,
    TrainConfig,
    load_model,
    save_model,
    train,
    tune_lambda,
)

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_DATA = 2
EXIT_NUMERIC = 3

DEFAULT_SEED = 13


class _Parser(argparse.ArgumentParser):
    def error(self, message: str):  # argparse defaults to exit code 2
        self.print_usage(sys.stderr)
        print(f"{self.prog}: error: {message}", file=sys.stderr)
        raise SystemExit(EXIT_USAGE)


def _parse_bool(text: str) -> bool:
    if text.lower() in ("1", "true", "yes", "on"):
        return True
    if text.lower() in ("0", "false", "no", "off"):
        return False
    raise ValueError(f"not a boolean: {text!r}")


# key -> parser for values coming from a config file
_CONFIG_TYPES = {
    "train": str,
    "dev": str,
    "input": str,
    "format": str,
    "model": str,
    "model_file": str,
    "gold": str,
    "pred": str,
    "level": str,
    "features": str,
    "lam": float,
    "lambda_grid": _parse_bool,
    "max_seg_len": int,
    "brown": str,
    "seed": int,
    "out": str,
    "max_iterations": int,
    "tolerance": float,
    "sentences": int,
    "length": int,
    "labels": str,
    "iterations": int,
    "warmup": int,
    "json_out": str,
}


def load_config_file(path: str) -> dict:
    values = {}
    with open(path, encoding="utf-8") as fh:
        for lineno, line in enumerate(fh, start=1):
            line = line.split("#", 1)[0].strip()
            if not line:
                continue
            if "=" not in line:
                raise DataFormatError(f"{path}:{lineno}: expected 'key = value', got {line!r}")
            key, _, raw = line.partition("=")
            key = key.strip().replace("-", "_")
            if key == "lambda":
                key = "lam"
            if key not in _CONFIG_TYPES:
                raise DataFormatError(f"{path}:{lineno}: unknown key {key!r}")
            try:
                values[key] = _CONFIG_TYPES[key](raw.strip())
            except ValueError as exc:
                raise DataFormatError(f"{path}:{lineno}: {exc}") from exc
    return values


def _merged(args: argparse.Namespace, defaults: dict) -> dict:
    """CLI flag > config-file value > built-in default.

    Only the command's own keys are taken, so one config file can serve
    several commands.
    """
    config = load_config_file(args.config) if getattr(args, "config", None) else {}
    merged = dict(defaults)
    merged.update((key, value) for key, value in config.items() if key in defaults)
    for key in defaults:
        value = getattr(args, key, None)
        if value is not None:
            merged[key] = value
    return merged


@dataclass(frozen=True)
class RunConfig:
    """Validated options for a training run."""

    train: str
    dev: str | None
    model: str
    features: str
    lam: float | None
    lambda_grid: bool
    max_seg_len: int
    brown: str | None
    seed: int
    out: str
    max_iterations: int
    tolerance: float

    def __post_init__(self) -> None:
        if self.model not in MODEL_KINDS:
            raise ValueError(f"unknown model {self.model!r}")
        flags = self.feature_flags
        unknown = flags - {"a", "b", "s"}
        if unknown:
            raise ValueError(f"unknown feature flags {sorted(unknown)} (expected subset of a,b,s)")
        if self.lam is None and not self.lambda_grid:
            raise ValueError("need either a fixed lambda or --lambda-grid")
        if not Path(self.train).exists():
            raise FileNotFoundError(f"training data not found: {self.train}")
        if self.lambda_grid and (self.dev is None or not Path(self.dev).exists()):
            raise FileNotFoundError("lambda tuning needs an existing dev split")
        if self.dev is not None and not Path(self.dev).exists():
            raise FileNotFoundError(f"dev data not found: {self.dev}")
        if "b" in flags and (self.brown is None or not Path(self.brown).exists()):
            raise FileNotFoundError("cluster features enabled but no readable cluster file given")

    @property
    def feature_flags(self) -> set[str]:
        return {f.strip() for f in self.features.split(",") if f.strip()}

    def train_config(self, lam: float) -> TrainConfig:
        flags = self.feature_flags
        return TrainConfig(
            model_kind=self.model,
            lam=lam,
            max_seg_len=self.max_seg_len,
            use_affix="a" in flags,
            use_brown="b" in flags,
            use_shape="s" in flags,
            max_iterations=self.max_iterations,
            tolerance=self.tolerance,
        )


def cmd_ingest(args: argparse.Namespace) -> int:
    merged = _merged(args, {"input": None, "format": "jsonl", "out": None})
    if not merged["input"]:
        raise ValueError("ingest needs an input path")
    items = read_corpus(merged["input"], merged["format"])
    if merged["out"]:
        write_jsonl(merged["out"], items)
    for line in corpus_stats(items).lines():
        print(line)
    return EXIT_OK


def cmd_train(args: argparse.Namespace) -> int:
    merged = _merged(
        args,
        {
            "train": None,
            "dev": None,
            "model": "weak",
            "features": "",
            "lam": None,
            "lambda_grid": False,
            "max_seg_len": 6,
            "brown": None,
            "seed": DEFAULT_SEED,
            "out": "model.ckcrf",
            "max_iterations": 500,
            "tolerance": 1e-6,
        },
    )
    if not merged["train"]:
        raise ValueError("train needs a training split")
    run = RunConfig(**merged)

    train_set = Dataset.from_annotated(read_jsonl(run.train), split="train")
    dev_set = Dataset.from_annotated(read_jsonl(run.dev), split="dev") if run.dev else None
    brown = load_brown_clusters(run.brown) if "b" in run.feature_flags else None
    log_path = run.out + ".log"

    if run.lambda_grid:
        best_lam, reports, model = tune_lambda(train_set, dev_set, run.train_config(lam=1.0), LAMBDA_GRID, brown)
        with open(log_path, "w", encoding="utf-8") as fh:
            for lam, report in sorted(reports.items()):
                line = f"lambda={lam}: dev char F1 {100 * report.f1:.2f} (P {100 * report.precision:.2f} R {100 * report.recall:.2f})"
                print(line)
                fh.write(line + "\n")
        print(f"selected lambda={best_lam}")
    else:
        model = train(train_set, run.train_config(run.lam), brown, log_path=log_path)

    save_model(model, run.out)
    meta = model.metadata
    print(
        f"trained {run.model} model: {len(model.weights)} features, "
        f"{meta['iterations']} iterations, objective {meta['final_objective']:.4f}"
    )
    print(f"model written to {run.out}")
    return EXIT_OK


def cmd_predict(args: argparse.Namespace) -> int:
    merged = _merged(args, {"model_file": None, "input": None, "out": None})
    if not merged["model_file"] or not merged["input"]:
        raise ValueError("predict needs a model file and an input file")
    model = load_model(merged["model_file"])
    items = read_jsonl(merged["input"])
    out_fh = open(merged["out"], "w", encoding="utf-8") if merged["out"] else sys.stdout
    try:
        for item in items:
            spans = model.predict_char_spans(item.sentence)
            obj = {
                "text": item.sentence.raw_text,
                "spans": [{"start": s.start, "end": s.end, "label": s.label} for s in spans],
            }
            out_fh.write(json.dumps(obj, ensure_ascii=False) + "\n")
    finally:
        if merged["out"]:
            out_fh.close()
    return EXIT_OK


def cmd_eval(args: argparse.Namespace) -> int:
    merged = _merged(args, {"gold": None, "pred": None, "level": "both", "json_out": None})
    if not merged["gold"] or not merged["pred"]:
        raise ValueError("eval needs gold and predicted files")
    gold_items = read_jsonl(merged["gold"])
    pred_items = read_jsonl(merged["pred"])
    if len(gold_items) != len(pred_items):
        raise DataFormatError(
            f"gold has {len(gold_items)} messages but predictions have {len(pred_items)}"
        )
    char_gold = [list(i.char_spans) for i in gold_items]
    char_pred = [list(i.char_spans) for i in pred_items]
    word_gold = [char_spans_to_word_spans(i.sentence, list(i.char_spans)) for i in gold_items]
    word_pred = [
        char_spans_to_word_spans(g.sentence, list(p.char_spans))
        for g, p in zip(gold_items, pred_items)
    ]

    reports = {}
    if merged["level"] in ("char", "both"):
        reports["char"] = score_corpus(char_gold, char_pred, level="char")
    if merged["level"] in ("word", "both"):
        reports["word"] = score_corpus(word_gold, word_pred, level="word")
    if not reports:
        raise ValueError(f"unknown eval level {merged['level']!r}")

    if "char" in reports and "word" in reports:
        print(format_eval_table({"system": (reports["char"], reports["word"])}))
    else:
        for level, report in reports.items():
            print(f"{level}-level: Prec Rec F = {report.row()}")
    if merged["json_out"]:
        payload = {
            level: {
                "precision": r.precision,
                "recall": r.recall,
                "f1": r.f1,
                "tp": r.tp,
                "fp": r.fp,
                "fn": r.fn,
            }
            for level, r in reports.items()
        }
        Path(merged["json_out"]).write_text(json.dumps(payload, indent=2) + "\n", encoding="utf-8")
    return EXIT_OK


def cmd_bench(args: argparse.Namespace) -> int:
    merged = _merged(
        args,
        {
            "sentences": 2000,
            "length": 10,
            "labels": "2,4,8,16",
            "max_seg_len": 6,
            "iterations": 3,
            "warmup": 1,
            "seed": DEFAULT_SEED,
            "out": None,
        },
    )
    label_values = tuple(int(x) for x in merged["labels"].split(",") if x.strip())
    rows = benchmark_label_sweep(
        num_label_values=label_values,
        sentences=merged["sentences"],
        sentence_len=merged["length"],
        max_seg_len=merged["max_seg_len"],
        iterations=merged["iterations"],
        warmup=merged["warmup"],
        seed=merged["seed"],
    )
    csv_text = sweep_rows_to_csv(rows)
    if merged["out"]:
        Path(merged["out"]).write_text(csv_text, encoding="utf-8")
        print(f"benchmark CSV written to {merged['out']}")
    print(csv_text, end="")
    for num_labels in label_values:
        semi = next(r for r in rows if r.model == "semi" and r.num_labels == num_labels)
        weak = next(r for r in rows if r.model == "weak" and r.num_labels == num_labels)
        print(f"labels={num_labels}: semi/weak time ratio {semi.sec_per_iter / weak.sec_per_iter:.3f}")
    return EXIT_OK


def build_parser() -> _Parser:
    parser = _Parser(prog="chunkcrf", description="CRF span chunking toolkit")
    sub = parser.add_subparsers(dest="command", required=True)

    def add_common(p: _Parser) -> None:
        p.add_argument("--config", help="flat key = value config file; flags override it")

    p_ingest = sub.add_parser("ingest", help="convert a corpus to canonical JSON-lines and print stats")
    p_ingest.add_argument("input", nargs="?", help="input path (file for jsonl, directory for brat)")
    p_ingest.add_argument("--format", choices=["brat", "jsonl"])
    p_ingest.add_argument("--out", help="canonical JSON-lines output path")
    add_common(p_ingest)
    p_ingest.set_defaults(func=cmd_ingest)

    p_train = sub.add_parser("train", help="train a chunking model")
    p_train.add_argument("--train", help="training split (canonical JSON-lines)")
    p_train.add_argument("--dev", help="development split (needed for --lambda-grid)")
    p_train.add_argument("--model", choices=list(MODEL_KINDS))
    p_train.add_argument("--features", help="comma list from {a,b,s}: affixes, clusters, shapes")
    p_train.add_argument("--lambda", dest="lam", type=float, help="fixed regularization strength")
    p_train.add_argument(
        "--lambda-grid", dest="lambda_grid", action="store_const", const=True,
        help=f"tune over the grid {LAMBDA_GRID} on the dev split",
    )
    p_train.add_argument("--max-seg-len", dest="max_seg_len", type=int)
    p_train.add_argument("--brown", help="cluster file (tab-separated)")
    p_train.add_argument("--seed", type=int, help="no effect: training is deterministic")
    p_train.add_argument("--out", help="model output path")
    p_train.add_argument("--max-iterations", dest="max_iterations", type=int)
    p_train.add_argument("--tolerance", type=float)
    add_common(p_train)
    p_train.set_defaults(func=cmd_train)

    p_predict = sub.add_parser("predict", help="chunk new text with a trained model")
    p_predict.add_argument("--model-file", dest="model_file")
    p_predict.add_argument("--input", help="JSON-lines with a text field per line")
    p_predict.add_argument("--out", help="JSON-lines output (default stdout)")
    add_common(p_predict)
    p_predict.set_defaults(func=cmd_predict)

    p_eval = sub.add_parser("eval", help="score predictions against gold spans")
    p_eval.add_argument("--gold")
    p_eval.add_argument("--pred")
    p_eval.add_argument("--level", choices=["char", "word", "both"])
    p_eval.add_argument("--json-out", dest="json_out", help="also write scores as JSON")
    add_common(p_eval)
    p_eval.set_defaults(func=cmd_eval)

    p_bench = sub.add_parser("bench", help="per-iteration training-time benchmark")
    p_bench.add_argument("--sentences", type=int)
    p_bench.add_argument("--length", type=int, help="tokens per synthetic sentence")
    p_bench.add_argument("--labels", help="comma list of label-alphabet sizes")
    p_bench.add_argument("--max-seg-len", dest="max_seg_len", type=int)
    p_bench.add_argument("--iterations", type=int)
    p_bench.add_argument("--warmup", type=int)
    p_bench.add_argument("--seed", type=int)
    p_bench.add_argument("--out", help="CSV output path")
    add_common(p_bench)
    p_bench.set_defaults(func=cmd_bench)

    return parser


def main(argv: list[str] | None = None) -> int:
    """Run one ``chunkcrf`` command and return its exit code.

    Bad arguments return ``EXIT_USAGE`` (after the usage and error message go
    to stderr) and ``--help`` returns ``EXIT_OK``; the parser's ``SystemExit``
    does not escape.  Data and numerical failures return ``EXIT_DATA`` and
    ``EXIT_NUMERIC``; so does a required value that neither the flags nor the
    config file supply, since a config file could have.
    """
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:  # raised by _Parser.error or by --help
        return exc.code or EXIT_OK
    try:
        return args.func(args)
    except NumericalError as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return EXIT_NUMERIC
    except (DataFormatError, SpanError, ModelFormatError, FileNotFoundError, IsADirectoryError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_DATA


if __name__ == "__main__":
    sys.exit(main())
