"""Brute-force oracles, kept independent of the dynamic programs they check.

Path-level oracles enumerate every root-to-leaf path by DFS over an adjacency
built here from the lattice's edge arrays (``edge_src``/``edge_dst``), and
score each edge from the features :func:`edge_features` reads out of the
expanded part table (:func:`part_table`), so neither the lattice's CSR index
nor the package's scoring is used.  Labeling-level oracles enumerate BIO
strings or segmentations without touching the lattice at all.
"""

from __future__ import annotations

import itertools
import math

import numpy as np

from chunkcrf.core import OUTSIDE, LabelSet, Sentence, WordSpan, tokenize
from chunkcrf.features import FeatureDictionary, FeatureExtractor
from chunkcrf.lattice import Lattice, LevelGraph, build_lattice
from chunkcrf.training import TrainConfig


def synthetic_sentence(n: int) -> Sentence:
    """An n-token placeholder sentence ``w0 w1 ...`` for structural tests."""
    return tokenize(" ".join(f"w{i}" for i in range(n)))


def all_edge_paths(lattice: Lattice) -> list[list[int]]:
    """Every root-to-leaf path as a list of edge ids (DFS, no DP)."""
    out_edges: list[list[int]] = [[] for _ in range(lattice.num_nodes)]
    for eid, src in enumerate(lattice.edge_src.tolist()):
        out_edges[src].append(eid)
    edge_dst = lattice.edge_dst.tolist()
    paths: list[list[int]] = []
    stack: list[tuple[int, list[int]]] = [(lattice.root, [])]
    while stack:
        node, acc = stack.pop()
        if node == lattice.leaf:
            paths.append(acc)
            continue
        for eid in out_edges[node]:
            stack.append((edge_dst[eid], acc + [eid]))
    return paths


def path_nodes(lattice: Lattice, edge_path: list[int]) -> list[int]:
    nodes = [lattice.root]
    for eid in edge_path:
        nodes.append(int(lattice.edge_dst[eid]))
    return nodes


def part_table(graph: LevelGraph) -> tuple[np.ndarray, np.ndarray]:
    """The expanded part table of a lattice or batch, read from its cells:
    the feature id of every (part, cell) entry of ``P`` that has one, part
    by part in row order, and the part of each entry."""
    P = graph.P
    ids = graph.cell_ids[P.indices]
    part = np.repeat(np.arange(P.shape[0], dtype=np.int32), np.diff(P.indptr))
    keep = ids >= 0
    return ids[keep], part[keep]


def edge_parts(graph: LevelGraph) -> np.ndarray:
    """Each edge's parts read back from ``part_edges``, as an E x 2 array in
    part order; an edge that carries one part is padded with ``num_parts``,
    one past the last part, which has no cells."""
    M = graph.part_edges.tocsc()  # column e lists edge e's parts in part order
    per_edge = np.diff(M.indptr)
    edge = np.repeat(np.arange(graph.num_edges), per_edge)
    pairs = np.full((graph.num_edges, 2), graph.num_parts)
    pairs[edge, np.arange(M.nnz) - M.indptr[edge]] = M.indices
    return pairs


def table_edge_scores(graph: LevelGraph, weights: np.ndarray) -> np.ndarray:
    """Edge scores from the expanded part table: each part's weights summed
    from zero in entry order, then the edge's two parts added."""
    ids, part = part_table(graph)
    scores = np.bincount(part, weights=weights[ids], minlength=graph.num_parts + 1)
    pairs = edge_parts(graph)
    return scores[pairs[:, 0]] + scores[pairs[:, 1]]


def gather_edge_scores(graph: LevelGraph, weights: np.ndarray) -> np.ndarray:
    """The exact reference of :func:`~chunkcrf.inference.edge_scores`: each
    part scored as ``P`` times its cells' weights (0 for a cell without a
    feature), then each edge's two part scores gathered and added, the
    padding part scoring +0.0."""
    ids = graph.cell_ids
    cells = np.zeros(len(ids))
    cells[ids >= 0] = weights[ids[ids >= 0]]
    part = np.append(graph.P @ cells, 0.0)
    pairs = edge_parts(graph)
    with np.errstate(all="ignore"):
        return part[pairs[:, 0]] + part[pairs[:, 1]]


def table_feature_counts(graph: LevelGraph, edge_weights: np.ndarray, dim: int) -> np.ndarray:
    """Per-feature sums of ``edge_weights`` through the expanded part table:
    each edge's weight onto its parts, each part's onto its entries."""
    ids, part = part_table(graph)
    per_part = np.bincount(edge_parts(graph).ravel(), weights=np.repeat(edge_weights, 2),
                           minlength=graph.num_parts + 1)
    return np.bincount(ids, weights=per_part[part], minlength=dim)


def bincount_feature_counts(graph: LevelGraph, edge_weights: np.ndarray, dim: int) -> np.ndarray:
    """The exact reference of :func:`~chunkcrf.inference.feature_counts`:
    each edge's weight spread onto its parts by a weighted bincount over
    the edge order, then each part's onto its cells through ``P``'s
    transpose, then each cell's onto its feature."""
    part = np.bincount(edge_parts(graph).ravel(), weights=np.repeat(edge_weights, 2), minlength=graph.num_parts + 1)
    return np.bincount(graph.cell_ids + 1, weights=graph.P_T @ part[:-1], minlength=dim + 1)[1:]


def edge_features(lattice: Lattice, eid: int) -> np.ndarray:
    """Feature ids of edge ``eid``: every part-table entry of its template
    part, then of its transition part (a ``weak`` edge carries one of the
    two), in table order."""
    ids, part = part_table(lattice)
    carried = [p for p in edge_parts(lattice)[eid] if p < lattice.num_parts]
    carried.sort(key=lambda p: lattice.slots[p][0].endswith("transition"))
    return np.concatenate([ids[part == p] for p in carried])


def edge_score(lattice: Lattice, eid: int, weights: np.ndarray) -> float:
    """In-order sum of the weights of the edge's indicator features."""
    return float(sum(weights[f] for f in edge_features(lattice, eid)))


def path_score(lattice: Lattice, edge_path: list[int], weights: np.ndarray) -> float:
    return sum(edge_score(lattice, eid, weights) for eid in edge_path)


def scored_paths(lattice: Lattice, weights: np.ndarray) -> list[tuple[float, list[int]]]:
    """Every root-to-leaf path with its score: each edge's :func:`edge_score`
    is computed once and summed along the path as :func:`path_score` does."""
    table = [edge_score(lattice, eid, weights) for eid in range(lattice.num_edges)]
    return [(sum(table[eid] for eid in p), p) for p in all_edge_paths(lattice)]


def _log_sum_exp(scores: list[float]) -> float:
    m = max(scores)
    return m + math.log(sum(math.exp(s - m) for s in scores))


def brute_log_partition(lattice: Lattice, weights: np.ndarray) -> float:
    return _log_sum_exp([s for s, _ in scored_paths(lattice, weights)])


def brute_best_paths(lattice: Lattice, weights: np.ndarray, tol: float = 1e-9):
    """All argmax paths within ``tol`` of the best score, plus that score."""
    scored = scored_paths(lattice, weights)
    best = max(s for s, _ in scored)
    return [p for s, p in scored if s >= best - tol], best


def brute_edge_marginals(lattice: Lattice, weights: np.ndarray) -> np.ndarray:
    scored = scored_paths(lattice, weights)
    scores = np.array([s for s, _ in scored])
    log_z = _log_sum_exp(scores.tolist())
    probs = np.exp(scores - log_z)
    marg = np.zeros(lattice.num_edges)
    for prob, (_, path) in zip(probs, scored):
        for eid in path:
            marg[eid] += prob
    return marg


def enumerate_bio_spansets(n: int, label_set: LabelSet) -> set[tuple]:
    """Span sets of all valid BIO strings of length n (no lattice involved)."""
    out: set[tuple] = set()
    tag_set = [OUTSIDE] + [f"{prefix}-{label}" for label in label_set.chunk_labels for prefix in "BI"]
    for tags in itertools.product(tag_set, repeat=n):
        prev = OUTSIDE
        ok = True
        for tag in tags:
            if tag.startswith("I-") and not (prev == f"B-{tag[2:]}" or prev == tag):
                ok = False
                break
            prev = tag
        if not ok:
            continue
        spans = []
        start = None
        label = None
        for i, tag in enumerate(tags):
            if tag == OUTSIDE or tag.startswith("B-"):
                if start is not None:
                    spans.append((start, i - 1, label))
                start, label = (i, tag[2:]) if tag.startswith("B-") else (None, None)
        if start is not None:
            spans.append((start, n - 1, label))
        out.add(tuple(spans))
    return out


def enumerate_segmentations(n: int, label_set: LabelSet, max_seg_len: int) -> list[tuple]:
    """All labeled segmentations: chunk segments up to ``max_seg_len``,
    outside segments of length one."""
    results: list[tuple] = []

    def extend(pos: int, acc: tuple) -> None:
        if pos == n:
            results.append(acc)
            return
        for label in label_set.alphabet:
            limit = 1 if label == OUTSIDE else min(max_seg_len, n - pos)
            for length in range(1, limit + 1):
                extend(pos + length, acc + ((pos, pos + length - 1, label),))

    extend(0, ())
    return results


def segmentation_spanset(segmentation: tuple) -> tuple:
    return tuple((f, l, lab) for f, l, lab in segmentation if lab != OUTSIDE)


def random_instance(rng: np.random.Generator, model_kind: str, max_n: int = 5, max_labels: int = 3, max_l: int = 3):
    """A random sentence, label set, lattice, and weights for oracle tests.

    Returns (lattice, weights, extractor, label_set, gold_spans).
    """
    n = int(rng.integers(1, max_n + 1))
    num_chunk = int(rng.integers(1, max_labels))  # alphabet size = num_chunk + 1
    max_seg_len = int(rng.integers(1, max_l + 1))
    words = [f"t{rng.integers(0, 6)}" for _ in range(n)]
    sentence = tokenize(" ".join(words))
    label_set = LabelSet(tuple(f"L{i}" for i in range(num_chunk)))
    dictionary = FeatureDictionary()
    config = TrainConfig(model_kind=model_kind, lam=0.1, max_seg_len=max_seg_len)
    extractor = FeatureExtractor(config.feature_config, dictionary)
    lattice = build_lattice(model_kind, sentence, label_set, max_seg_len, extractor)
    dictionary.freeze()
    weights = rng.uniform(-2.0, 2.0, size=len(dictionary))
    gold = random_gold(rng, n, label_set, max_seg_len)
    return lattice, weights, extractor, label_set, gold


def random_gold(rng: np.random.Generator, n: int, label_set: LabelSet, max_seg_len: int) -> list[WordSpan]:
    spans = []
    pos = 0
    while pos < n:
        if rng.random() < 0.5:
            length = int(rng.integers(1, min(max_seg_len, n - pos) + 1))
            label = label_set.chunk_labels[int(rng.integers(0, len(label_set.chunk_labels)))]
            spans.append(WordSpan(pos, pos + length - 1, label))
            pos += length
        else:
            pos += 1
    return spans
