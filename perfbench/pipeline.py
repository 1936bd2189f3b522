"""One benchmark run: set up, measure, check the outputs.

After set-up, one untimed warm-up evaluation per family and an untimed
decode of the held-out set, rounds of evaluations and ``chunkcrf predict``
runs, with set-ups and closed-loop predictions in alternate rounds, repeat
until the run's seconds are used.
Interleaving spreads every metric's samples over the whole run, and the
families take turns, so a slow spell of the shared machine falls on all of
them alike.  All of these use each family's seeded weights: their cost does
not depend on the weights, and the weights do not depend on an optimizer.

Training runs in the traced run only, for its per-layer metrics and the
held-out F1 check: a run can afford one or two trainings per family, too few
samples for a gated end-to-end time.

The shared machine changes speed by up to half, for seconds or minutes at a
time, which moves every wall time of a run alike.  So each timed operation
(set-ups included) is paired with ``yardstick``, fixed work that calls nothing
of the package, timed just before and just after it.  Every timing metric is
the operation's seconds over the mean yardstick time around it, times
``YARDSTICK_SECONDS``: seconds on a machine that runs the yardstick in exactly
that long.  The machine's speed moves that ratio far less than either time; a
change to the package moves the operation's time only.  Wall seconds go to the
run record.
"""

from __future__ import annotations

import json
import math
import resource
import statistics
import sys
import time
from contextlib import nullcontext
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from chunkcrf import cli, ingest
from chunkcrf.core import LabelSet
from chunkcrf.evaluate import score_corpus
from chunkcrf.inference import edge_scores
from chunkcrf.lattice import build_lattice
from chunkcrf.training import (
    Dataset,
    Model,
    ObjectiveEvaluator,
    TrainConfig,
    build_feature_space,
    save_model,
    train,
)

from workloads import LAM, MAX_SEG_LEN, Workload, make_inputs, write_jsonl

FAMILIES = ("linear", "semi", "weak")
MIN_ROUNDS = 3
TAIL_PERCENTILE = 90
AGREEMENT_TOL = 1e-9
WEIGHT_SCALE = 0.5

# Share of the traced run's seconds per phase (the untraced run spends all of
# them on the mixed rounds).  The traced run first measures evaluations
# untraced ("base") so that tracing overhead can be reported.
TRACED_SHARES = {"base": 0.15, "train": 0.3, "mixed": 0.55}

# The yardstick's nominal time: the unit every timing metric is scaled to.
# The 2-vCPU Xeon it was tuned on runs it in 8-19 ms, depending on load.
YARDSTICK_SECONDS = 0.010
_YARDSTICK_TABLE = np.linspace(-1.0, 1.0, 8192)


def yardstick() -> float:
    """Fixed work in the idiom of the package, calling none of it: string
    keys interned in a dict, tuples counted, and small numpy log-sum-exp
    reductions over gathered values.  Changing it changes every timing
    metric."""
    index: dict[str, int] = {}
    counts: dict[tuple[int, int], int] = {}
    ids = []
    for i in range(12000):
        key = f"w{i % 911}|t{i % 7}"
        j = index.get(key)
        if j is None:
            j = index[key] = len(index)
        ids.append(j)
        pair = (i % 97, i % 13)
        counts[pair] = counts.get(pair, 0) + 1
    gathered = np.asarray(ids)
    total = 0.0
    for start in range(0, len(gathered), 40):
        total += float(np.logaddexp.reduce(_YARDSTICK_TABLE[gathered[start:start + 40]]))
    return total


def time_yardstick() -> float:
    t0 = time.perf_counter()
    yardstick()
    return time.perf_counter() - t0


class Checks:
    """Counts operations attempted and failed; a failed check is one failed
    operation and is reported on stderr."""

    def __init__(self) -> None:
        self.attempted = 0
        self.failed = 0

    def record(self, ok: bool, what: str) -> None:
        self.attempted += 1
        if not ok:
            self.failed += 1
            print(f"check failed: {what}", file=sys.stderr)


@dataclass
class Family:
    kind: str
    config: TrainConfig
    evaluator: ObjectiveEvaluator
    weights: np.ndarray
    model: Model | None = None
    model_path: Path | None = None
    train_seconds: list[float] = field(default_factory=list)
    train_iterations: list[int] = field(default_factory=list)


def train_config(workload: Workload, kind: str) -> TrainConfig:
    flags = {f for f in workload.features.split(",") if f}
    return TrainConfig(
        model_kind=kind,
        lam=LAM,
        max_seg_len=MAX_SEG_LEN,
        use_affix="a" in flags,
        use_shape="s" in flags,
    )


def seeded_weights(strings: tuple[str, ...], seed: int) -> np.ndarray:
    """Weights drawn in sorted feature-string order, so two families with the
    same feature strings get the same weight per string."""
    order = sorted(range(len(strings)), key=strings.__getitem__)
    values = np.random.default_rng([seed, 7]).normal(0.0, WEIGHT_SCALE, len(strings))
    weights = np.empty(len(strings))
    weights[order] = values
    return weights


def families_agree(
    semi: tuple[float, np.ndarray], semi_strings: tuple[str, ...],
    weak: tuple[float, np.ndarray], weak_strings: tuple[str, ...],
) -> tuple[bool, float]:
    """Whether two objective/gradient results agree to ``AGREEMENT_TOL``
    (relative to their scale), matching gradient entries by feature string.
    Returns the verdict and the largest difference."""
    if set(semi_strings) != set(weak_strings):
        return False, math.inf
    position = {s: i for i, s in enumerate(weak_strings)}
    weak_grad = weak[1][[position[s] for s in semi_strings]]
    diff = max(abs(semi[0] - weak[0]), float(np.max(np.abs(semi[1] - weak_grad), initial=0.0)))
    scale = max(1.0, abs(semi[0]), float(np.max(np.abs(semi[1]), initial=0.0)))
    return diff <= AGREEMENT_TOL * scale, diff


def path_score(model: Model, sentence, spans) -> float:
    """Score under ``model`` of the lattice path that realises ``spans``."""
    lat = build_lattice(model.model_kind, sentence, model.label_set, model.feature_config.max_seg_len, model.extractor())
    return float(np.sum(edge_scores(lat, model.weights)[lat.gold_edge_ids(spans)]))


def decode_alike(semi: Model, weak: Model, sentences: list, semi_spans: list, weak_spans: list) -> bool:
    """Whether semi and weak, holding the same weight per feature string,
    decode every sentence to an equally good path: the same spans, or, where
    two paths tie exactly (a run of one repeated word split 2+1 or 1+2 fires
    the same features), spans that score the same as semi's own decode."""
    for sentence, a, b in zip(sentences, semi_spans, weak_spans):
        if a != b:
            best = path_score(semi, sentence, semi.predict(sentence))
            other = path_score(semi, sentence, weak.predict(sentence))
            if abs(best - other) > AGREEMENT_TOL * max(1.0, abs(best)):
                return False
    return True


class Run:
    """State and results of one run of one workload."""

    def __init__(self, workload: Workload, seed: int, seconds: float, workdir: Path) -> None:
        self.workload = workload
        self.seed = seed
        self.seconds = seconds
        self.workdir = workdir
        self.checks = Checks()
        self.label_set = LabelSet(workload.chunk_labels)
        self.samples: dict[str, dict[str, list[float]]] = {}
        self.scaled: dict[str, dict[str, list[float]]] = {}
        self.scaled_setup: list[float] = []
        self.yardstick_seconds: list[float] = []
        self._last_yardstick: float | None = None
        self.families: dict[str, Family] = {}
        self.setup_seconds: list[float] = []
        self.f1: dict[str, float] = {}
        self.tracer = None
        self._api_spans: dict[str, list] = {}
        self._reference: dict[str, tuple[float, np.ndarray]] = {}
        self.semi_weak_diff: float | None = None
        self.dp_share: dict[str, float] = {}

        inputs = make_inputs(workload, seed)
        self.paths = {name: workdir / f"{name}.jsonl" for name in ("eval", "train", "heldout")}
        write_jsonl(self.paths["eval"], inputs.eval_set)
        write_jsonl(self.paths["train"], inputs.train_set)
        write_jsonl(self.paths["heldout"], inputs.heldout)

    # -- set-up ---------------------------------------------------------

    def setup(self) -> None:
        """Set up once and keep the result for the rest of the run."""
        self.eval_set, self.train_set, self.heldout, evaluators = self._set_up()
        for kind, (config, evaluator) in evaluators.items():
            weights = seeded_weights(evaluator.dictionary.strings, self.seed)
            self.families[kind] = Family(kind, config, evaluator, weights)

    def _set_up(self):
        """Read and ingest every split, then build each family's feature
        space and evaluator; the wall time goes to ``setup_seconds``."""
        t0 = time.perf_counter()
        eval_set = Dataset.from_annotated(ingest.read_jsonl(self.paths["eval"]))
        train_set = Dataset.from_annotated(ingest.read_jsonl(self.paths["train"]))
        heldout = ingest.read_jsonl(self.paths["heldout"])
        evaluators = {}
        for kind in FAMILIES:
            config = train_config(self.workload, kind)
            dictionary, _ = build_feature_space(eval_set, self.label_set, config)
            evaluators[kind] = (config, ObjectiveEvaluator(eval_set, self.label_set, config, dictionary))
        self.setup_seconds.append(time.perf_counter() - t0)
        return eval_set, train_set, heldout, evaluators

    def sizes(self) -> dict[str, dict[str, int]]:
        """Structural lattice size of the evaluation set and feature count."""
        out = {}
        for kind, fam in self.families.items():
            nodes = edges = 0
            for item in self.eval_set.items:
                lat = build_lattice(kind, item.sentence, self.label_set, MAX_SEG_LEN, None)
                nodes += lat.num_nodes
                edges += lat.num_edges
            out[kind] = {
                "sentences": len(self.eval_set),
                "tokens": sum(len(item.sentence) for item in self.eval_set.items),
                "nodes": nodes,
                "edges": edges,
                "features": len(fam.evaluator.dictionary),
            }
        return out

    # -- phases ---------------------------------------------------------

    def _context(self, phase: str, kind: str = "") -> None:
        if self.tracer is not None:
            self.tracer.set_context(phase, kind)

    def _op(self, name: str):
        return self.tracer.span(name) if self.tracer is not None else nullcontext()

    def _rounds(self, share: float, min_rounds: int):
        """Count rounds while another round of the last one's length still
        fits in the phase's share of the run, or fewer than ``min_rounds``
        have run."""
        deadline = time.perf_counter() + share * self.seconds
        rounds = 0
        last = 0.0
        while rounds < min_rounds or time.perf_counter() + last <= deadline:
            start = time.perf_counter()
            yield rounds
            last = time.perf_counter() - start
            rounds += 1

    def warm_up(self) -> None:
        """One untimed evaluation per family: the reference every timed
        evaluation must repeat bit for bit, and the semi/weak agreement check."""
        for kind, fam in self.families.items():
            self._context("warmup", kind)
            value, grad = fam.evaluator.objective_and_gradient(fam.weights)
            self.checks.record(bool(np.isfinite(value) and np.all(np.isfinite(grad))), f"{kind}: finite objective")
            self._reference[kind] = (value, grad)
        ok, self.semi_weak_diff = families_agree(
            self._reference["semi"], self.families["semi"].evaluator.dictionary.strings,
            self._reference["weak"], self.families["weak"].evaluator.dictionary.strings,
        )
        self.checks.record(ok, f"semi and weak objective/gradient differ by {self.semi_weak_diff:.3g}")

    def prepare_models(self) -> None:
        """Save each family's model at the seeded weights for ``predict`` to
        load, and decode the held-out set once, untimed: the spans every
        timed prediction must repeat.  At the same weight per feature string,
        semi and weak define the same distribution, so they must decode alike."""
        for kind, fam in self.families.items():
            fam.model = Model(kind, self.label_set, fam.config.feature_config, fam.evaluator.dictionary, fam.weights)
            fam.model_path = self.workdir / f"{kind}.ckcrf"
            save_model(fam.model, str(fam.model_path))
            self._context("reference", kind)
            self._api_spans[kind] = [fam.model.predict_char_spans(m.sentence) for m in self.heldout]
        self.checks.record(
            decode_alike(
                self.families["semi"].model, self.families["weak"].model, [m.sentence for m in self.heldout],
                self._api_spans["semi"], self._api_spans["weak"],
            ),
            "semi and weak decode alike",
        )

    def train_phase(self, share: float) -> None:
        """``train`` to convergence for each family, then held-out char F1 of
        the trained models (at least ``f1_floor``; semi and weak trained
        models must decode alike)."""
        trained = {}
        for _ in self._rounds(share, 1):
            for kind, fam in self.families.items():
                self._context("train", kind)
                with self._op("bench.train"):
                    t0 = time.perf_counter()
                    model = train(self.train_set, fam.config, label_set=self.label_set)
                    fam.train_seconds.append(time.perf_counter() - t0)
                fam.train_iterations.append(int(model.metadata["iterations"]))
                self.checks.record(bool(model.metadata["converged"]), f"{kind}: training converged")
                if kind in trained:
                    self.checks.record(
                        model.weights.tobytes() == trained[kind].weights.tobytes(),
                        f"{kind}: training repeats bit for bit",
                    )
                trained[kind] = model
        floor = self.workload.f1_floor
        gold = [list(m.char_spans) for m in self.heldout]
        decoded = {}
        for kind, model in trained.items():
            self._context("reference", kind)
            decoded[kind] = [model.predict_char_spans(m.sentence) for m in self.heldout]
            self.f1[kind] = score_corpus(gold, decoded[kind], level="char").f1
            if floor is not None:
                self.checks.record(self.f1[kind] >= floor, f"{kind}: held-out char F1 {self.f1[kind]:.4f} below {floor}")
        self.checks.record(
            decode_alike(
                trained["semi"], trained["weak"], [m.sentence for m in self.heldout], decoded["semi"], decoded["weak"]
            ),
            "semi and weak trained models decode alike",
        )

    def measure(self, share: float, ops: tuple[str, ...], label: str | None = None) -> None:
        """Rounds of the given operations until the share of the run's
        seconds is used; each round runs ``iter`` and ``cli`` for every
        family, even rounds also ``setup`` and odd rounds also ``loop``
        (the two longest, with the most samples to spare).

        - ``setup``: the whole set-up again, its result dropped; one sample
          every other round spreads ``setup_s`` over the run like the other
          metrics;
        - ``iter``: one objective plus gradient at the seeded weights;
        - ``loop``: one pass over the held-out messages, one
          ``Model.predict_char_spans`` call each (a closed loop, one client),
          so every run samples each message equally often;
        - ``cli``: ``chunkcrf predict`` over the held-out file.

        Each timed operation's seconds go to ``samples`` and its seconds
        scaled to the yardstick to ``scaled``, under ``label`` or the
        operation's name.
        """
        timed = [op for op in ops if op != "setup"]
        key = {op: label or op for op in timed}
        for op in timed:
            self.samples.setdefault(key[op], {k: [] for k in FAMILIES})
            self.scaled.setdefault(key[op], {k: [] for k in FAMILIES})
        for rounds in self._rounds(share, MIN_ROUNDS):
            even = rounds % 2 == 0
            if "setup" in ops and even:
                before = self._before()
                self._set_up()
                self.scaled_setup.append(self._scale(self.setup_seconds[-1], before))
            for op, run_op, due in (("iter", self._evaluate, True), ("loop", self._predict, not even),
                                    ("cli", self._cli, True)):
                if op in ops and due:
                    for kind in FAMILIES:
                        run_op(kind, key[op])

    def _time_yardstick(self) -> float:
        """Time the yardstick; the time is shared by the operations just
        before and just after it."""
        self._last_yardstick = time_yardstick()
        self.yardstick_seconds.append(self._last_yardstick)
        return self._last_yardstick

    def _before(self) -> float:
        return self._last_yardstick if self._last_yardstick is not None else self._time_yardstick()

    def _scale(self, seconds: float, before: float) -> float:
        """``seconds`` of an operation that ran after a yardstick time of
        ``before``, scaled by the mean yardstick time around it."""
        return seconds * YARDSTICK_SECONDS / (0.5 * (before + self._time_yardstick()))

    def _record(self, key: str, kind: str, seconds: list[float], before: float) -> None:
        """Keep ``seconds`` of operations that ran after a yardstick time of
        ``before``, as measured and scaled."""
        scale = self._scale(1.0, before)
        self.samples[key][kind].extend(seconds)
        self.scaled[key][kind].extend(t * scale for t in seconds)

    def _evaluate(self, kind: str, key: str) -> None:
        fam = self.families[kind]
        before = self._before()
        self._context("iter", kind)
        with self._op("bench.eval"):
            t0 = time.perf_counter()
            value, grad = fam.evaluator.objective_and_gradient(fam.weights)
            seconds = time.perf_counter() - t0
        self._record(key, kind, [seconds], before)
        ref_value, ref_grad = self._reference[kind]
        self.checks.record(
            value == ref_value and grad.tobytes() == ref_grad.tobytes(), f"{kind}: evaluation repeats bit for bit"
        )

    def _predict(self, kind: str, key: str) -> None:
        model = self.families[kind].model
        before = self._before()
        self._context("loop", kind)
        seconds = []
        predicted = []
        for message in self.heldout:
            with self._op("bench.predict"):
                t0 = time.perf_counter()
                predicted.append(model.predict_char_spans(message.sentence))
                seconds.append(time.perf_counter() - t0)
        self._record(key, kind, seconds, before)
        for i, spans in enumerate(predicted):
            self.checks.record(spans == self._api_spans[kind][i], f"{kind}: prediction of message {i} repeats")

    def _cli(self, kind: str, key: str) -> None:
        out = self.workdir / "predicted.jsonl"
        argv = ["predict", "--model-file", str(self.families[kind].model_path),
                "--input", str(self.paths["heldout"]), "--out", str(out)]
        before = self._before()
        self._context("cli", kind)
        with self._op("bench.cli"):
            t0 = time.perf_counter()
            code = cli.main(argv)
            seconds = time.perf_counter() - t0
        self._record(key, kind, [seconds], before)
        self.checks.record(code == 0, f"{kind}: chunkcrf predict exit code {code}")
        self.checks.record(
            _read_predictions(out) == [_span_tuples(s) for s in self._api_spans[kind]],
            f"{kind}: CLI predictions equal Model.predict_char_spans",
        )

    # -- results --------------------------------------------------------

    def end_to_end(self) -> dict[str, tuple[float, str]]:
        """Peak memory, and medians of the scaled times: set-up, one
        objective evaluation, ``chunkcrf predict`` over the held-out file
        (as messages per second) and one message of the closed loop."""
        r = self.scaled
        metrics = {
            "setup_s": (statistics.median(self.scaled_setup), "s"),
            "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB"),
        }
        for kind in FAMILIES:
            metrics[f"iter_s.{kind}"] = (statistics.median(r["iter"][kind]), "s")
        for kind in FAMILIES:
            metrics[f"predict_sps.{kind}"] = (len(self.heldout) / statistics.median(r["cli"][kind]), "1/s")
        for kind in FAMILIES:
            metrics[f"predict_p50_ms.{kind}"] = (1e3 * statistics.median(r["loop"][kind]), "ms")
        return metrics

    def record(self, sizes: dict) -> dict:
        """Per-run details printed beside the metrics (not gated); the
        closed-loop latency is scaled like ``predict_p50_ms``."""
        latency = {}
        for kind, values in self.scaled.get("loop", {}).items():
            latency[kind] = {
                "p50_ms": 1e3 * statistics.median(values),
                f"p{TAIL_PERCENTILE}_ms": 1e3 * float(np.percentile(values, TAIL_PERCENTILE)),
                "samples": len(values),
            }
        seconds = {
            phase: {kind: statistics.median(v) for kind, v in per.items() if v} for phase, per in self.samples.items()
        }
        return {
            "workload": self.workload.name,
            "seed": self.seed,
            "sizes": sizes,
            "setup_seconds": self.setup_seconds,
            "yardstick_seconds_median": statistics.median(self.yardstick_seconds) if self.yardstick_seconds else None,
            "median_wall_seconds": seconds,
            "samples": {phase: {k: len(v) for k, v in per.items()} for phase, per in self.samples.items()},
            "predict_latency": latency,
            "heldout_messages": len(self.heldout),
            "heldout_char_f1": self.f1,
            "train_seconds": {k: f.train_seconds for k, f in self.families.items()},
            "train_iterations": {k: f.train_iterations for k, f in self.families.items()},
            "semi_weak_max_diff": self.semi_weak_diff,
            "dp_share_of_eval": self.dp_share,
        }


def _span_tuples(spans) -> list[tuple[int, int, str]]:
    return [(s.start, s.end, s.label) for s in spans]


def _read_predictions(path: Path) -> list[list[tuple[int, int, str]]]:
    with open(path, encoding="utf-8") as fh:
        return [[(s["start"], s["end"], s["label"]) for s in json.loads(line)["spans"]] for line in fh]
