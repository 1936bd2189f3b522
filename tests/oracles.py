"""Brute-force oracles, kept independent of the dynamic programs they check.

Path-level oracles enumerate every root-to-leaf path by DFS over the lattice
adjacency and reduce scores directly; labeling-level oracles enumerate BIO
strings or segmentations without touching the lattice at all.
"""

from __future__ import annotations

import itertools
import math

import numpy as np

from chunkcrf.core import OUTSIDE, LabelSet, Sentence, WordSpan, tokenize
from chunkcrf.features import FeatureDictionary, FeatureExtractor
from chunkcrf.lattice import Lattice, build_lattice
from chunkcrf.training import TrainConfig


def synthetic_sentence(n: int) -> Sentence:
    """An n-token placeholder sentence ``w0 w1 ...`` for structural tests."""
    return tokenize(" ".join(f"w{i}" for i in range(n)))


def all_edge_paths(lattice: Lattice) -> list[list[int]]:
    """Every root-to-leaf path as a list of edge ids (DFS, no DP)."""
    out_edges = [lattice.out_edge_ids(v).tolist() for v in range(lattice.num_nodes)]
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


def edge_score(lattice: Lattice, eid: int, weights: np.ndarray) -> float:
    """In-order sum of the weights of the edge's indicator features."""
    return float(sum(weights[f] for f in lattice.edge_features(eid)))


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
    for tags in itertools.product(label_set.bio_tags, repeat=n):
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
