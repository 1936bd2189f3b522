"""Command-line front end: ingest, train, predict, eval, bench.

Every option is declared once, in :func:`build_parser`: its flags, type and
built-in default.  Runs are reproducible: every option can also live in a
flat ``key = value`` config file, whose keys are the options' destinations
or flag names (``-`` and ``_`` alike); a ``#`` at the start of a line or
after whitespace starts a comment, and any other ``#`` is part of the
value.  Command-line flags override config values one-to-one and config
values override the built-in defaults.  Only ``bench`` draws random data,
from its ``seed`` option; training and prediction are deterministic.
Inputs and output paths are checked before any work starts, and no output
may be one of the command's inputs.
``train --out X`` writes the model to ``X`` and its log to ``X.log``: with a
fixed lambda, the CSV header ``iter, objective, grad_norm, seconds`` and one
row per L-BFGS iteration; with ``--lambda-grid``, one
``lambda=...: dev char F1 ...`` line per grid point.  ``predict --out X``
writes ``X`` once every message is decoded, so a failed run leaves it as
it was.  Exit codes: 0 success, 1 usage error, 2 data error, 3 numerical
failure.  A usage error is a command line the parser rejects.  A required
value still missing once flags and the config file are merged (``ingest``'s
input, ``train``'s ``--train``, ``predict``'s ``--model-file`` or
``--input``, ``eval``'s ``--gold`` or ``--pred``) is a data error: the
command line parsed, and a config file could have supplied the value.
"""

from __future__ import annotations

import argparse
import json
import re
import sys
import time
from dataclasses import asdict
from pathlib import Path

import numpy as np

from .core import LabelSet, char_spans_to_word_spans, tokenize, word_spans_to_char_spans
from .evaluate import format_eval_table, score_corpus
from .features import load_brown_clusters
from .ingest import DataFormatError, corpus_stats, jsonl_line, read_corpus, read_jsonl, utf8_text, write_jsonl
from .lattice import MODEL_KINDS
from .synth import chunk_label_names
from .training import (
    LAMBDA_GRID,
    DataItem,
    Dataset,
    NumericalError,
    TrainConfig,
    compile_split,
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

# Messages ``predict`` compiles and decodes together; bounds the lattices held.
PREDICT_CHUNK = 256


_COMMENT_RE = re.compile(r"(?:^|\s)#.*")


class _Parser(argparse.ArgumentParser):
    commands: dict[str, _Parser]  # set on the top-level parser only

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


def load_config_file(path: str, parser: _Parser, command: str) -> dict:
    """Read a flat ``key = value`` file into ``command``'s option defaults.

    A key is an option's destination or one of its flag names, with ``-``
    turned into ``_``, and its value is parsed as the option parses a flag
    value (``yes``/``no`` for a switch) and must be one of its choices.
    Keys of the other commands are checked and parsed too, then dropped, so
    one file can serve several commands.  A ``#`` starts a comment, up to the
    end of the line, only at the start of a line or after whitespace, so
    ``out = run#1.ckcrf`` keeps its ``#`` and ``lambda = 0.25  # note`` reads
    0.25.
    """
    keys = {}
    for sub_parser in parser.commands.values():
        for action in sub_parser._actions:
            if action.dest not in ("help", "config"):
                for name in (action.dest, *action.option_strings):
                    keys[name.lstrip("-").replace("-", "_")] = action
    values = {}
    with utf8_text(path) as fh:
        for lineno, line in enumerate(fh, start=1):
            line = _COMMENT_RE.sub("", line).strip()
            if not line:
                continue
            if "=" not in line:
                raise DataFormatError(f"{path}:{lineno}: expected 'key = value', got {line!r}")
            key, _, raw = line.partition("=")
            key = key.strip().replace("-", "_")
            if key not in keys:
                raise DataFormatError(f"{path}:{lineno}: unknown key {key!r}")
            action = keys[key]
            parse = _parse_bool if action.nargs == 0 else action.type or str
            try:
                value = parse(raw.strip())
            except ValueError as exc:
                raise DataFormatError(f"{path}:{lineno}: {exc}") from exc
            if action.choices is not None and value not in action.choices:
                raise DataFormatError(f"{path}:{lineno}: {key} must be one of {', '.join(action.choices)}, got {value!r}")
            values[action.dest] = value
    own = {action.dest for action in parser.commands[command]._actions}
    return {dest: value for dest, value in values.items() if dest in own}


def _train_config(args: argparse.Namespace) -> TrainConfig:
    """Check a training run's options before any data is read and return
    its configuration; ``tune_lambda`` sets lambda per grid point."""
    flags = {f.strip() for f in args.features.split(",") if f.strip()}
    unknown = flags - {"a", "b", "s"}
    if unknown:
        raise ValueError(f"unknown feature flags {sorted(unknown)} (expected subset of a,b,s)")
    if args.lam is None and not args.lambda_grid:
        raise ValueError("need either a fixed lambda or --lambda-grid")
    if args.lambda_grid and args.dev is None:
        raise ValueError("lambda tuning needs a dev split (--dev)")
    if args.lambda_grid and args.lam is not None:
        raise ValueError("--lambda and --lambda-grid exclude each other: fix lambda or tune it, not both")
    if not Path(args.train).exists():
        raise FileNotFoundError(f"training data not found: {args.train}")
    if args.dev is not None and not Path(args.dev).exists():
        raise FileNotFoundError(f"dev data not found: {args.dev}")
    if "b" in flags and (args.brown is None or not Path(args.brown).exists()):
        raise FileNotFoundError("cluster features enabled but no readable cluster file given")
    return TrainConfig(
        model_kind=args.model,
        lam=1.0 if args.lambda_grid else args.lam,
        max_seg_len=args.max_seg_len,
        use_affix="a" in flags,
        use_brown="b" in flags,
        use_shape="s" in flags,
        max_iterations=args.max_iterations,
        tolerance=args.tolerance,
    )


def _check_output(path: str | None, *inputs: str | None) -> None:
    """Fail before any work if an output path is a directory, its directory
    is missing, or it is the same file as one of the command's ``inputs``."""
    if path and Path(path).is_dir():
        raise IsADirectoryError(f"cannot write {path}: it is a directory")
    if path and not Path(path).parent.is_dir():
        raise FileNotFoundError(f"cannot write {path}: {Path(path).parent} is not a directory")
    if path and Path(path).exists() and any(src and Path(src).exists() and Path(path).samefile(src) for src in inputs):
        raise ValueError(f"cannot write {path}: it is an input of this command")


def cmd_ingest(args: argparse.Namespace) -> int:
    if not args.input:
        raise ValueError("ingest needs an input path")
    _check_output(args.out, args.input, args.config)
    items = read_corpus(args.input, args.format)
    if args.out:
        write_jsonl(args.out, items)
    for line in corpus_stats(items).lines():
        print(line)
    return EXIT_OK


def cmd_train(args: argparse.Namespace) -> int:
    if not args.train:
        raise ValueError("train needs a training split")
    if not args.out:
        raise ValueError("train needs a model output path (--out)")
    log_path = args.out + ".log"
    for path in (args.out, log_path):
        _check_output(path, args.train, args.dev, args.brown, args.config)
    config = _train_config(args)

    train_set = Dataset.from_annotated(read_jsonl(args.train))
    dev_set = Dataset.from_annotated(read_jsonl(args.dev)) if args.dev else None
    brown = load_brown_clusters(args.brown) if config.use_brown else None

    if args.lambda_grid:
        best_lam, reports, model = tune_lambda(train_set, dev_set, config, LAMBDA_GRID, brown)
        log_lines = [f"lambda={lam}: dev char F1 {100 * r.f1:.2f} (P {100 * r.precision:.2f} R {100 * r.recall:.2f})"
                     for lam, r in sorted(reports.items())]
        print(*log_lines, f"selected lambda={best_lam}", sep="\n")
    else:
        model = train(train_set, config, brown)
        log_lines = ["iter, objective, grad_norm, seconds",
                     *(f"{it}, {value:.10g}, {gnorm:.6g}, {secs:.6f}" for it, value, gnorm, secs in model.metadata["trace"])]
    Path(log_path).write_text("".join(f"{line}\n" for line in log_lines), encoding="utf-8")

    save_model(model, args.out)
    meta = model.metadata
    print(
        f"trained {args.model} model: {len(model.weights)} features, "
        f"{meta['iterations']} iterations, objective {meta['final_objective']:.4f}"
    )
    print(f"model written to {args.out}")
    return EXIT_OK


def cmd_predict(args: argparse.Namespace) -> int:
    if not args.model_file or not args.input:
        raise ValueError("predict needs a model file and an input file")
    _check_output(args.out, args.input, args.model_file, args.config)
    model = load_model(args.model_file)
    items = read_jsonl(args.input)
    lines = []
    for lo in range(0, len(items), PREDICT_CHUNK):
        sentences = [item.sentence for item in items[lo : lo + PREDICT_CHUNK]]
        for sentence, word_spans in zip(sentences, model.predict_many(sentences)):
            lines.append(jsonl_line(sentence.raw_text, word_spans_to_char_spans(sentence, word_spans)))
    text = "".join(lines)
    if args.out:
        Path(args.out).write_text(text, encoding="utf-8")
    else:
        sys.stdout.write(text)
    return EXIT_OK


def cmd_eval(args: argparse.Namespace) -> int:
    if not args.gold or not args.pred:
        raise ValueError("eval needs gold and predicted files")
    _check_output(args.json_out, args.gold, args.pred, args.config)
    gold_items = read_jsonl(args.gold)
    pred_items = read_jsonl(args.pred)
    if len(gold_items) != len(pred_items):
        raise DataFormatError(
            f"gold has {len(gold_items)} messages but predictions have {len(pred_items)}"
        )
    for i, (g, p) in enumerate(zip(gold_items, pred_items), start=1):
        if g.sentence.raw_text != p.sentence.raw_text:
            raise DataFormatError(f"prediction {i} is not for gold message {i}: their texts differ")
    char_gold = [list(i.char_spans) for i in gold_items]
    char_pred = [list(i.char_spans) for i in pred_items]
    word_gold = [char_spans_to_word_spans(i.sentence, list(i.char_spans)) for i in gold_items]
    word_pred = [
        char_spans_to_word_spans(g.sentence, list(p.char_spans))
        for g, p in zip(gold_items, pred_items)
    ]

    reports = {}
    if args.level in ("char", "both"):
        reports["char"] = score_corpus(char_gold, char_pred, level="char")
    if args.level in ("word", "both"):
        reports["word"] = score_corpus(word_gold, word_pred, level="word")

    if "char" in reports and "word" in reports:
        print(format_eval_table({"system": (reports["char"], reports["word"])}))
    else:
        for level, report in reports.items():
            print(f"{level}-level: Prec Rec F = {report.row()}")
    if args.json_out:
        payload = {level: {k: v for k, v in asdict(r).items() if k != "level"} for level, r in reports.items()}
        Path(args.json_out).write_text(json.dumps(payload, indent=2) + "\n", encoding="utf-8")
    return EXIT_OK


def cmd_bench(args: argparse.Namespace) -> int:
    """Seconds per objective-plus-gradient evaluation of every family as the
    label alphabet grows, at fixed n and L: one CSV row per (alphabet size,
    family), with the edge count of the lattices timed.

    Size Y counts the outside label: ``Y - 1`` synthetic chunk labels plus
    ``O``.  The messages are ``--length`` words from ``v0`` ... ``v59``,
    drawn with ``--seed``, and carry no chunk spans: a lattice registers
    every cell's feature whatever its gold path, and its size depends only
    on the length, the labels and ``max_seg_len``, so spans would change
    nothing but the gold path.  Each family compiles the messages once, runs
    ``--warmup`` untimed evaluations at zero weights, then times
    ``--iterations`` more: edge scoring, the forward sweep and its reverse
    pass, and gradient accumulation, as in a training iteration.  ``semi``'s
    edges grow quadratically in the alphabet size and ``weak``'s linearly, so
    their time ratio grows with it.
    """
    _check_output(args.out, args.config)
    label_values = []
    for item in filter(None, (x.strip() for x in args.labels.split(","))):
        try:
            label_values.append(int(item))
        except ValueError:
            raise ValueError(f"label-alphabet sizes must be integers, got {item!r}") from None
    if not label_values:
        raise ValueError("need at least one label-alphabet size")
    for num_labels in label_values:
        if num_labels < 2:
            raise ValueError(f"label-alphabet sizes count the outside label and must be >= 2, got {num_labels}")
    if len(set(label_values)) < len(label_values):
        raise ValueError(f"label-alphabet sizes must not repeat, got {', '.join(map(str, label_values))}")
    for name, value, least in (("sentences", args.sentences, 1), ("sentence length", args.length, 1),
                               ("max_seg_len", args.max_seg_len, 1), ("iterations", args.iterations, 1),
                               ("warmup", args.warmup, 0)):
        if value < least:
            raise ValueError(f"{name} must be >= {least}, got {value}")
    configs = {kind: TrainConfig(model_kind=kind, lam=1.0, max_seg_len=args.max_seg_len) for kind in MODEL_KINDS}

    words = np.random.default_rng(args.seed).integers(0, 60, size=(args.sentences, args.length))
    dataset = Dataset([DataItem(tokenize(" ".join(f"v{j}" for j in row)), ()) for row in words])
    lines = ["model,num_labels,n,L,edges,sec_per_iter"]
    ratios = []
    for num_labels in label_values:
        label_set = LabelSet(tuple(chunk_label_names(num_labels - 1)))
        seconds = {}
        for kind, config in configs.items():
            evaluator, _ = compile_split(dataset, config, None, label_set)
            w = np.zeros(len(evaluator.dictionary))
            for _ in range(args.warmup):
                evaluator.objective_and_gradient(w)
            t0 = time.perf_counter()
            for _ in range(args.iterations):
                evaluator.objective_and_gradient(w)
            seconds[kind] = (time.perf_counter() - t0) / args.iterations
            lines.append(f"{kind},{num_labels},{args.length},{args.max_seg_len},{evaluator.batch.num_edges},"
                         f"{seconds[kind]:.6f}")
        ratios.append(f"labels={num_labels}: semi/weak time ratio {seconds['semi'] / seconds['weak']:.3f}")
    csv_text = "".join(f"{line}\n" for line in lines)
    if args.out:
        Path(args.out).write_text(csv_text, encoding="utf-8")
        print(f"benchmark CSV written to {args.out}")
    print(csv_text, end="")
    print(*ratios, sep="\n")
    return EXIT_OK


def build_parser() -> _Parser:
    """The one declaration of every option: its flags, type and built-in
    default.  ``parser.commands`` maps each subcommand to its parser."""
    parser = _Parser(prog="chunkcrf", description="CRF span chunking toolkit")
    sub = parser.add_subparsers(dest="command", required=True)
    parser.commands = sub.choices

    def add_common(p: _Parser) -> None:
        p.add_argument("--config", help="flat key = value config file; flags override it")

    p_ingest = sub.add_parser("ingest", help="convert a corpus to canonical JSON-lines and print stats")
    p_ingest.add_argument("input", nargs="?", help="input path (file for jsonl, directory for brat)")
    p_ingest.add_argument("--format", choices=["brat", "jsonl"], default="jsonl")
    p_ingest.add_argument("--out", help="canonical JSON-lines output path")
    add_common(p_ingest)
    p_ingest.set_defaults(func=cmd_ingest)

    p_train = sub.add_parser("train", help="train a chunking model")
    p_train.add_argument("--train", help="training split (canonical JSON-lines)")
    p_train.add_argument("--dev", help="development split (needed for --lambda-grid)")
    p_train.add_argument("--model", choices=list(MODEL_KINDS), default="weak")
    p_train.add_argument("--features", default="", help="comma list from {a,b,s}: affixes, clusters, shapes")
    p_train.add_argument("--lambda", dest="lam", type=float, help="fixed regularization strength")
    p_train.add_argument(
        "--lambda-grid", dest="lambda_grid", action="store_true",
        help=f"tune over the grid {LAMBDA_GRID} on the dev split",
    )
    p_train.add_argument("--max-seg-len", dest="max_seg_len", type=int, default=TrainConfig.max_seg_len)
    p_train.add_argument("--brown", help="cluster file (tab-separated)")
    p_train.add_argument("--out", default="model.ckcrf", help="model output path")
    p_train.add_argument("--max-iterations", dest="max_iterations", type=int, default=TrainConfig.max_iterations)
    p_train.add_argument("--tolerance", type=float, default=TrainConfig.tolerance)
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
    p_eval.add_argument("--level", choices=["char", "word", "both"], default="both")
    p_eval.add_argument("--json-out", dest="json_out", help="also write scores as JSON")
    add_common(p_eval)
    p_eval.set_defaults(func=cmd_eval)

    p_bench = sub.add_parser("bench", help="per-iteration training-time benchmark")
    p_bench.add_argument("--sentences", type=int, default=2000)
    p_bench.add_argument("--length", type=int, default=10, help="tokens per synthetic sentence")
    p_bench.add_argument(
        "--labels", default="2,4,8,16",
        help="comma list of label-alphabet sizes; each counts the outside label and must be >= 2",
    )
    p_bench.add_argument("--max-seg-len", dest="max_seg_len", type=int, default=TrainConfig.max_seg_len)
    p_bench.add_argument("--iterations", type=int, default=3)
    p_bench.add_argument("--warmup", type=int, default=1)
    p_bench.add_argument("--seed", type=int, default=DEFAULT_SEED)
    p_bench.add_argument("--out", help="CSV output path")
    add_common(p_bench)
    p_bench.set_defaults(func=cmd_bench)

    return parser


def main(argv: list[str] | None = None) -> int:
    """Run one ``chunkcrf`` command and return its exit code.

    Bad arguments return ``EXIT_USAGE`` (after the usage and error message go
    to stderr) and ``--help`` returns ``EXIT_OK``; the parser's ``SystemExit``
    does not escape.  With ``--config``, the file's values become the
    command's defaults and ``argv`` is parsed again, so flags override them.
    Any ``ValueError`` or ``OSError`` (bad data, an unusable path, a required
    value neither the flags nor the config file supply) returns ``EXIT_DATA``
    and a numerical failure returns ``EXIT_NUMERIC``.
    """
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:  # raised by _Parser.error or by --help
        return exc.code or EXIT_OK
    try:
        if args.config:
            parser.commands[args.command].set_defaults(**load_config_file(args.config, parser, args.command))
            args = parser.parse_args(argv)
        return args.func(args)
    except NumericalError as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return EXIT_NUMERIC
    except (OSError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_DATA


if __name__ == "__main__":
    sys.exit(main())
