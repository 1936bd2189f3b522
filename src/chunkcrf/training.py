"""Training: regularized conditional log-likelihood maximized with L-BFGS.

The objective over a dataset is

    sum over instances [ gold-path score - log Z ]  -  lam * ||w||^2

and its gradient is gold-path feature counts minus expected feature counts
(from edge posteriors) minus ``2 * lam * w``.  Both counts come through one
spread of per-edge weights onto features,
:func:`~chunkcrf.inference.feature_counts`: of a gold-edge indicator, and of
the edge posteriors.  Objective and gradient are returned in maximization
orientation; the optimizer loop negates them.  The dataset's lattices
form one graph in which each shape's sentences are the columns of (cells x
width) blocks, as in decoding (:func:`_shape_blocks`); sentences of one
length train as one block, with no :class:`~chunkcrf.lattice.Batch`.  The
graph depends only on the dataset, and every reduction over it runs in a
fixed order, so results are bit-reproducible.

Chunks longer than the segment-length limit cannot be represented in the
segment lattices; such spans are dropped from the gold structure (their
tokens become outside) before training, and the dropped count is reported.

A fit keeps its per-iteration trace in the model's metadata and opens no
file: :func:`save_model` writes the only file training writes.

``scipy.optimize`` is imported by the first fit, not with this module, so a
process that only loads and decodes models never pays for it.
"""

from __future__ import annotations

import json
import logging
import struct
import time
from collections.abc import Sequence
from dataclasses import asdict, dataclass, field, fields

import numpy as np

from .core import (
    CharSpan,
    LabelSet,
    Sentence,
    WordSpan,
    char_spans_to_word_spans,
    ordered_spans,
    word_spans_to_char_spans,
)
from .features import (
    BrownClusterMap,
    FeatureConfig,
    FeatureDictionary,
    FeatureExtractor,
)
from .evaluate import score_corpus
from .ingest import AnnotatedText
from .lattice import MODEL_KINDS, Batch, Lattice, LatticeError, LevelGraph, build_lattice
from .inference import NumericalError, edge_scores, feature_counts, marginals_from_scores, viterbi, viterbi_path

log = logging.getLogger("chunkcrf")

LAMBDA_GRID = (0.125, 0.25, 0.5, 1.0, 2.0)

LBFGS_HISTORY = 10


def minimize(*args, **kwargs):
    """``scipy.optimize.minimize``, imported on the first call.

    A function rather than an imported name for two reasons: the optimizer
    (some 250 modules) loads only in processes that fit, and the benchmark's
    tracer binds ``training.minimize`` as the L-BFGS span."""
    import scipy.optimize

    return scipy.optimize.minimize(*args, **kwargs)


class ModelFormatError(ValueError):
    """Model file has a bad magic number, version, or structure."""


@dataclass(frozen=True)
class TrainConfig:
    model_kind: str
    lam: float
    max_seg_len: int = FeatureConfig.max_seg_len
    use_affix: bool = False
    use_brown: bool = False
    use_shape: bool = False
    max_iterations: int = 500
    tolerance: float = 1e-6

    def __post_init__(self) -> None:
        if self.model_kind not in MODEL_KINDS:
            raise ValueError(f"unknown model kind {self.model_kind!r}")
        if not 0 < self.lam < np.inf:
            raise ValueError("lam (the regularization strength) must be positive and finite")
        self.feature_config  # FeatureConfig checks max_seg_len
        if self.max_iterations < 1:
            raise ValueError("max_iterations must be >= 1")
        if not self.tolerance >= 0:
            raise ValueError("tolerance must be a non-negative number")

    @property
    def feature_config(self) -> FeatureConfig:
        return FeatureConfig(
            use_affix=self.use_affix,
            use_brown=self.use_brown,
            use_shape=self.use_shape,
            max_seg_len=self.max_seg_len,
        )


@dataclass(frozen=True)
class DataItem:
    sentence: Sentence
    word_spans: tuple[WordSpan, ...]
    char_spans: tuple[CharSpan, ...] | None = None

    def __post_init__(self) -> None:
        ordered_spans(self.word_spans, len(self.sentence))


@dataclass
class Dataset:
    """Instances with gold word spans; original char spans kept when known."""

    items: list[DataItem]

    def __len__(self) -> int:
        return len(self.items)

    @classmethod
    def from_annotated(cls, items: list[AnnotatedText]) -> "Dataset":
        data = []
        for item in items:
            word = char_spans_to_word_spans(item.sentence, list(item.char_spans))
            data.append(DataItem(item.sentence, tuple(word), item.char_spans))
        return cls(data)

    def chunk_labels(self) -> tuple[str, ...]:
        labels = {span.label for item in self.items for span in item.word_spans}
        return tuple(sorted(labels))

    def clip_spans(self, max_len: int) -> tuple["Dataset", int]:
        """Drop chunk spans longer than ``max_len`` (their tokens become
        outside); returns the clipped dataset and the dropped-span count."""
        dropped = 0
        items = []
        for item in self.items:
            kept = tuple(s for s in item.word_spans if s.length <= max_len)
            dropped += len(item.word_spans) - len(kept)
            items.append(DataItem(item.sentence, kept, item.char_spans))
        return Dataset(items), dropped


def derive_label_set(dataset: Dataset, label_set: LabelSet | None = None) -> LabelSet:
    if label_set is not None:
        return label_set
    labels = dataset.chunk_labels()
    if not labels:
        raise ValueError("dataset has no chunk spans, so there is no chunk label to learn")
    return LabelSet(labels)


def _compile_sentences(sentences: Sequence[Sentence], model_kind: str, label_set: LabelSet, max_seg_len: int,
                       extractor: FeatureExtractor) -> list[Lattice | None]:
    """Each sentence's lattice, in order; ``None`` for an empty one."""
    return [build_lattice(model_kind, s, label_set, max_seg_len, extractor) if len(s) else None for s in sentences]


def build_feature_space(
    dataset: Dataset,
    label_set: LabelSet,
    config: TrainConfig,
    brown: BrownClusterMap | None = None,
) -> tuple[FeatureDictionary, int]:
    """A dictionary-only pass, kept for callers without an evaluator:
    register every lattice feature, then freeze.

    Returns the frozen dictionary and the total lattice edge count.
    """
    dictionary = FeatureDictionary()
    extractor = FeatureExtractor(config.feature_config, dictionary, brown)
    lattices = _compile_sentences([item.sentence for item in dataset.items], config.model_kind, label_set,
                                  config.max_seg_len, extractor)
    dictionary.freeze()
    return dictionary, sum(lat.num_edges for lat in lattices if lat is not None)


class ObjectiveEvaluator:
    """Bound objective/gradient over a fixed dataset, dictionary, and config.

    Every lattice is compiled once, here, with its gold edge path, and the
    lattices form one graph of shape blocks (:func:`_shape_blocks`): one
    column per instance, plus padded columns.  Gold feature counts are
    summed once for the whole dataset, from one spread of the gold-edge
    indicator block.  An evaluation is then one scoring pass, one forward
    sweep over the graph with one reverse pass over its result for the edge
    posteriors, one gold-score gather at (edge, column) pairs and one
    expected-count spread.  Padded columns hold no feature, so they drop out
    of every count; only their log partitions are left out of the sum.
    Instances whose gold structure is not representable in their lattice are
    detected here, logged, and skipped.  An unfrozen ``dictionary`` grows as
    the lattices compile (freeze it afterwards); ``lam`` may be rebound
    between evaluations.  ``extractor``, the one that compiled them, can
    compile more sentences over the same dictionary.

    ``owners`` lists, by member and then by column of ``graph``, the index
    among the trainable instances of the one each column holds (``None`` for
    a padded column); ``num_edges`` counts the edges of their lattices.
    """

    def __init__(
        self,
        dataset: Dataset,
        label_set: LabelSet,
        config: TrainConfig,
        dictionary: FeatureDictionary,
        brown: BrownClusterMap | None = None,
    ) -> None:
        self.label_set = label_set
        self.config = config
        self.dictionary = dictionary
        self.lam = config.lam
        self.extractor = extractor = FeatureExtractor(config.feature_config, dictionary, brown)
        lattices = []
        gold_paths: list[list[int]] = []  # lattice edge ids, per instance
        self.skipped = 0
        compiled = _compile_sentences([item.sentence for item in dataset.items], config.model_kind, label_set,
                                      config.max_seg_len, extractor)
        for item, lat in zip(dataset.items, compiled):
            if lat is None:
                self.skipped += 1
                log.warning("skipping empty sentence %r", item.sentence.raw_text)
                continue
            try:
                gold = lat.gold_edge_ids(list(item.word_spans))
            except LatticeError as exc:
                self.skipped += 1
                log.warning("skipping unrepresentable instance (%s): %r", exc, item.sentence.raw_text)
                continue
            lattices.append(lat)
            gold_paths.append(gold)
        if not lattices:
            raise ValueError("no trainable instances")
        self.num_edges = sum(lat.num_edges for lat in lattices)
        self.graph, self.owners = graph, owners = _shape_blocks(lattices)
        shape = (graph.num_edges, *graph.cell_ids.shape[1:])
        width = len(owners) // len(graph.leaves)
        # each gold edge's position in the flattened (edges x width) scores
        self.gold_positions = np.concatenate([
            (np.asarray(gold_paths[i], dtype=np.intp) + graph.edge_ptr[k // width]) * width + k % width
            for k, i in enumerate(owners) if i is not None])
        self.unpadded = np.array([i is not None for i in owners]).reshape(len(graph.leaves), *shape[1:])
        # Indicator counts are small integers, so these sums are exact.
        on_gold = np.bincount(self.gold_positions, minlength=np.prod(shape)).reshape(shape)
        self.gold_counts = feature_counts(graph, on_gold, len(dictionary))

    def objective_and_gradient(self, weights: np.ndarray) -> tuple[float, np.ndarray]:
        w = np.asarray(weights, dtype=np.float64)
        if len(w) != len(self.dictionary):
            raise ValueError(f"weight vector of length {len(w)} does not match {len(self.dictionary)} features")

        graph = self.graph
        scores = edge_scores(graph, w)
        marg = marginals_from_scores(graph, scores)
        expected = feature_counts(graph, marg.edge_posteriors, len(self.dictionary))
        with np.errstate(all="ignore"):
            log_z = marg.log_partition[self.unpadded].sum()
            value = float(scores.take(self.gold_positions).sum() - log_z) - self.lam * float(w @ w)
            grad = self.gold_counts - expected - 2.0 * self.lam * w
        if not np.isfinite(value) or not np.all(np.isfinite(grad)):
            raise NumericalError("objective or gradient is not finite")
        return value, grad


def _block_width(counts: np.ndarray, cells: np.ndarray) -> int:
    """Columns per block for shape groups of ``counts[g]`` lattices with
    ``cells[g]`` cells each.

    Each width is charged its blocks plus its padded cells, a block counted
    as the cells of an average lattice; the cheapest wins, the widest on a
    tie.  Width 1 pads nothing and costs one block per lattice, so the
    width found never gives more blocks than lattices and pads fewer cells
    than the lattices hold.  Wherever a block costs at least as much to
    decode as a padded column of average size, as on the benchmark's
    messages, the width found also decodes no slower than width 1.
    """
    widths = np.arange(1, counts.max() + 1)[:, None]
    # blocks times all cells plus padded cells times the lattice count: the
    # cost times the lattice count, in integers, so that ties are exact
    cost = (-(-counts // widths)).sum(axis=1) * (counts @ cells) + (-counts % widths) @ cells * counts.sum()
    return len(cost) - int(cost[::-1].argmin())


def _shape_blocks(lattices: Sequence[Lattice]) -> tuple[LevelGraph, list[int | None]]:
    """One graph over ``lattices``, and the lattice each of its columns holds.

    The lattices are grouped by shape (topology and cell matrix ``P``), in
    order of first appearance, and each group's ``cell_ids`` become the
    columns of (cells x width) blocks that share the group's ``P``, the last
    block of a group padded with -1 (see :func:`_block_width`).  At width 1
    the blocks are the lattices themselves, in the order given: a vector
    gathers faster than a column.  One block is the graph itself, with no
    :class:`Batch`; several are joined in one :class:`Batch` with a block
    per member, whose levels every length shares.  The second result lists,
    by member and then by column, the index in ``lattices`` of the sentence
    each column holds, ``None`` for a padded column.
    """
    groups: dict[tuple, list[int]] = {}
    for i, lat in enumerate(lattices):  # a shape is a topology and the cell matrix of its features
        groups.setdefault((lat.topology, id(lat.P)), []).append(i)
    firsts = [lattices[members[0]] for members in groups.values()]
    width = _block_width(np.array([len(members) for members in groups.values()]),
                         np.array([len(first.cell_ids) for first in firsts]))
    if width == 1:
        blocks, owners = list(lattices), list(range(len(lattices)))
    else:
        blocks, owners = [], []
        for first, members in zip(firsts, groups.values()):
            padding = [None] * (-len(members) % width)
            ids = np.stack([lattices[i].cell_ids for i in members]
                           + [np.full(len(first.cell_ids), -1, dtype=np.int32)] * len(padding), axis=1)
            blocks += [Lattice(first.topology, ids[:, lo : lo + width], first.P)
                       for lo in range(0, len(members), width)]
            owners += members + padding
    return (blocks[0] if len(blocks) == 1 else Batch(blocks)), owners


def decode(lattices: Sequence[Lattice | None], weights: np.ndarray) -> list[list[WordSpan]]:
    """Best word spans of each lattice, from one Viterbi pass over all of
    them; ``None``, an empty sentence's lattice, decodes to ``[]``.

    A lone lattice runs on its topology's cached sweeps.  Several run on
    their :func:`_shape_blocks` graph, with the blocks' columns as its
    member axis.  A lattice's spans do not depend on the others.
    """
    decoded: list[list[WordSpan]] = [[] for _ in lattices]
    present = [i for i, lat in enumerate(lattices) if lat is not None]
    if len(present) == 1:
        decoded[present[0]] = viterbi(lattices[present[0]], weights)[0]
    elif present:
        graph, owners = _shape_blocks([lattices[i] for i in present])
        paths, _ = viterbi_path(graph, weights)
        for k, path in zip(owners, paths):
            if k is not None:  # not a padded column
                decoded[present[k]] = lattices[present[k]].path_spans(path)
    return decoded


@dataclass
class Model:
    """A trained chunker: label set, feature space, and weights.

    The model keeps one extractor, made on first use, so every prediction
    reuses its word rows and feature-id table.
    """

    model_kind: str
    label_set: LabelSet
    feature_config: FeatureConfig
    dictionary: FeatureDictionary
    weights: np.ndarray
    brown: BrownClusterMap | None = None
    metadata: dict = field(default_factory=dict)
    _extractor: FeatureExtractor | None = field(default=None, init=False, repr=False, compare=False)

    def extractor(self) -> FeatureExtractor:
        if self._extractor is None:
            self._extractor = FeatureExtractor(self.feature_config, self.dictionary, self.brown)
        return self._extractor

    def predict_many(self, sentences: Sequence[Sentence]) -> list[list[WordSpan]]:
        """Compile every sentence, then :func:`decode` them together."""
        lattices = _compile_sentences(sentences, self.model_kind, self.label_set, self.feature_config.max_seg_len,
                                      self.extractor())
        return decode(lattices, self.weights)

    def predict(self, sentence: Sentence) -> list[WordSpan]:
        return self.predict_many([sentence])[0]

    def predict_char_spans(self, sentence: Sentence) -> list[CharSpan]:
        return word_spans_to_char_spans(sentence, self.predict(sentence))


def compile_split(dataset: Dataset, config: TrainConfig, brown: BrownClusterMap | None,
                  label_set: LabelSet | None) -> tuple[ObjectiveEvaluator, int]:
    """Compile a split once: drop gold spans over the length limit, then
    build the evaluator over a fresh dictionary, frozen afterwards.  Returns
    the evaluator and the dropped-span count."""
    if len(dataset) == 0:
        raise ValueError("training split is empty")
    label_set = derive_label_set(dataset, label_set)
    clipped, dropped = dataset.clip_spans(config.max_seg_len)
    if dropped:
        log.info("dropped %d gold spans longer than %d tokens", dropped, config.max_seg_len)
    dictionary = FeatureDictionary()
    evaluator = ObjectiveEvaluator(clipped, label_set, config, dictionary, brown)
    dictionary.freeze()
    return evaluator, dropped


def _fit(evaluator: ObjectiveEvaluator, dropped: int) -> Model:
    """The fitting half of :func:`train`, at ``evaluator.lam``.  The model's
    ``metadata["trace"]`` holds one ``(iteration, objective, gradient norm,
    seconds)`` row per L-BFGS iteration."""
    config = evaluator.config
    last_eval = {"value": np.nan, "grad_norm": np.nan}

    def fun(w: np.ndarray) -> tuple[float, np.ndarray]:
        value, grad = evaluator.objective_and_gradient(w)
        last_eval["value"] = value
        last_eval["grad_norm"] = float(np.linalg.norm(grad))
        return -value, -grad

    trace: list[tuple[int, float, float, float]] = []
    clock = {"t": time.perf_counter()}

    def callback(_xk: np.ndarray) -> None:
        now = time.perf_counter()
        trace.append((len(trace) + 1, last_eval["value"], last_eval["grad_norm"], now - clock["t"]))
        clock["t"] = now

    w0 = np.zeros(len(evaluator.dictionary))
    result = minimize(
        fun,
        w0,
        jac=True,
        method="L-BFGS-B",
        callback=callback,
        options={
            "maxiter": config.max_iterations,
            "ftol": config.tolerance,
            "gtol": 1e-10,
            "maxcor": LBFGS_HISTORY,
        },
    )

    metadata = {
        "iterations": int(result.nit),
        "final_objective": float(-result.fun),
        "converged": bool(result.success),
        "clipped_spans": dropped,
        "skipped_instances": evaluator.skipped,
        "trace": trace,
    }
    return Model(
        config.model_kind,
        evaluator.label_set,
        config.feature_config,
        evaluator.dictionary,
        np.asarray(result.x, dtype=np.float64).copy(),
        evaluator.extractor.brown,
        metadata,
    )


def train(
    dataset: Dataset,
    config: TrainConfig,
    brown: BrownClusterMap | None = None,
    label_set: LabelSet | None = None,
) -> Model:
    """Compile the split once, then fit weights from zero with L-BFGS
    (history 10) until the relative objective change drops below the
    tolerance or the iteration cap."""
    evaluator, dropped = compile_split(dataset, config, brown, label_set)
    return _fit(evaluator, dropped)


def tune_lambda(
    train_split: Dataset,
    dev_split: Dataset,
    config: TrainConfig,
    grid: tuple[float, ...] = LAMBDA_GRID,
    brown: BrownClusterMap | None = None,
    label_set: LabelSet | None = None,
) -> tuple[float, dict, Model]:
    """Compile train once, fit once per grid point and pick the best
    character-level dev F1.

    The dictionary is frozen once train is compiled, so dev is compiled once
    too, through the evaluator's extractor, and decoded in one
    :func:`decode` call per grid point.  Ties go to
    the larger regularization strength.  Returns the chosen value, a
    per-grid-point report dict and the model :func:`train` gives there.
    """
    if len(train_split) == 0 or len(dev_split) == 0:
        raise ValueError("tuning needs non-empty train and dev splits")
    evaluator, dropped = compile_split(train_split, config, brown, label_set)
    gold = [
        list(item.char_spans) if item.char_spans is not None
        else word_spans_to_char_spans(item.sentence, list(item.word_spans))
        for item in dev_split.items
    ]
    sentences = [item.sentence for item in dev_split.items]
    lattices = _compile_sentences(sentences, config.model_kind, evaluator.label_set, config.max_seg_len,
                                  evaluator.extractor)
    reports, models = {}, {}
    for lam in sorted(grid):
        evaluator.lam = lam
        models[lam] = _fit(evaluator, dropped)
        decoded = decode(lattices, models[lam].weights)
        predicted = [word_spans_to_char_spans(s, spans) for s, spans in zip(sentences, decoded)]
        reports[lam] = score_corpus(gold, predicted, level="char")
    best_lam = max(reports, key=lambda lam: (reports[lam].f1, lam))
    return best_lam, reports, models[best_lam]


# ----------------------------------------------------------------------
# Serialization: versioned binary container.
# ----------------------------------------------------------------------

MODEL_MAGIC = b"CKCRFMDL"
MODEL_VERSION = 1

# Volatile fields (wall-clock times) stay out of the file so identical
# configurations produce byte-identical models.
_PERSISTED_METADATA = ("iterations", "final_objective", "converged", "clipped_spans", "skipped_instances")


def save_model(model: Model, path: str) -> None:
    contents = {
        "model_kind": model.model_kind,
        "chunk_labels": list(model.label_set.chunk_labels),
        "feature_config": asdict(model.feature_config),
        "brown": model.brown.entries if model.brown is not None else None,
        "features": list(model.dictionary.strings),
        "metadata": {k: model.metadata[k] for k in _PERSISTED_METADATA if k in model.metadata},
    }
    header = json.dumps(contents, sort_keys=True, ensure_ascii=True, separators=(",", ":")).encode()
    weights = np.ascontiguousarray(model.weights, dtype="<f8").tobytes()
    with open(path, "wb") as fh:
        fh.write(MODEL_MAGIC)
        fh.write(struct.pack("<I", MODEL_VERSION))
        fh.write(struct.pack("<Q", len(header)))
        fh.write(header)
        fh.write(struct.pack("<Q", len(model.weights)))
        fh.write(weights)


# Header field -> the JSON type it must hold.
_HEADER_TYPES = {
    "model_kind": str,
    "chunk_labels": list,
    "feature_config": dict,
    "brown": (dict, type(None)),
    "features": list,
    "metadata": dict,
}
_FEATURE_CONFIG_KEYS = {f.name for f in fields(FeatureConfig)}


def load_model(path: str) -> Model:
    """Read a model written by :func:`save_model`.

    Every length field must match the bytes present, nothing may follow the
    weights, every weight must be finite, and the header must hold exactly
    the fields :func:`save_model` writes; any deviation raises
    :class:`ModelFormatError`.
    """
    with open(path, "rb") as fh:
        data = fh.read()
    pos = 0

    def take(size: int, what: str) -> bytes:
        nonlocal pos
        if size > len(data) - pos:
            raise ModelFormatError(f"{path}: truncated model file ({what})")
        pos += size
        return data[pos - size : pos]

    if take(len(MODEL_MAGIC), "magic") != MODEL_MAGIC:
        raise ModelFormatError(f"{path}: not a model file (bad magic)")
    (version,) = struct.unpack("<I", take(4, "version"))
    if version != MODEL_VERSION:
        raise ModelFormatError(f"{path}: unsupported model version {version}")
    (header_len,) = struct.unpack("<Q", take(8, "header length"))
    header_bytes = take(header_len, "header")
    (dim,) = struct.unpack("<Q", take(8, "weight count"))
    weights = np.frombuffer(take(dim * 8, "weights"), dtype="<f8").astype(np.float64)
    if pos != len(data):
        raise ModelFormatError(f"{path}: {len(data) - pos} trailing bytes after the weights")

    try:
        header = json.loads(header_bytes.decode())
    except ValueError as exc:  # also UnicodeDecodeError
        raise ModelFormatError(f"{path}: unreadable header ({exc})") from exc
    if not isinstance(header, dict) or set(header) != set(_HEADER_TYPES):
        raise ModelFormatError(f"{path}: header fields are not {sorted(_HEADER_TYPES)}")
    for key, kind in _HEADER_TYPES.items():
        if not isinstance(header[key], kind):
            raise ModelFormatError(f"{path}: header field {key!r} has the wrong type")
    if header["model_kind"] not in MODEL_KINDS:
        raise ModelFormatError(f"{path}: unknown model kind {header['model_kind']!r}")
    if not all(isinstance(f, str) for f in header["features"]):
        raise ModelFormatError(f"{path}: feature table holds a non-string")
    dictionary = FeatureDictionary.from_strings(header["features"])
    if len(dictionary) != len(header["features"]):
        raise ModelFormatError(f"{path}: feature table lists a string twice")
    if len(dictionary) != dim:
        raise ModelFormatError(f"{path}: feature table and weight vector disagree")
    if not np.all(np.isfinite(weights)):
        raise ModelFormatError(f"{path}: weight vector holds non-finite values")
    fc = header["feature_config"]
    if set(fc) != _FEATURE_CONFIG_KEYS:
        raise ModelFormatError(f"{path}: feature_config keys are not {sorted(_FEATURE_CONFIG_KEYS)}")
    try:
        model = Model(
            header["model_kind"],
            LabelSet(tuple(header["chunk_labels"])),
            FeatureConfig(**fc),
            dictionary,
            weights,
            BrownClusterMap(header["brown"]) if header["brown"] is not None else None,
            dict(header["metadata"]),
        )
        model.extractor()  # cluster features need a cluster map
    except (KeyError, TypeError, ValueError) as exc:
        raise ModelFormatError(f"{path}: invalid header ({exc!r})") from exc
    return model
