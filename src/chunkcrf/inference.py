"""Exact log-space dynamic programming over labeling lattices.

Every program runs on a :class:`~chunkcrf.lattice.LevelGraph`: one lattice,
or a :class:`~chunkcrf.lattice.Batch` holding several lattices of one family
whose nodes are numbered level by level.  Forward and Viterbi walk the levels
bottom-up, backward top-down, and each level is a handful of numpy
reductions (``maximum.reduceat`` and an ``add.reduceat`` log-sum-exp) over
the contiguous run of that level's edges, so the cost is per level and per
edge, with no Python work per node.  One call covers every member of a batch,
and a member's results do not depend on which other lattices share its batch.

An edge's score is the dot product of the weight vector with its indicator
features, computed once per part and summed over the edge's two parts.
Arithmetic runs with numpy's floating-point warnings off; a log partition or
a best path score that is not finite raises :class:`NumericalError` instead.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .core import LabelSet, WordSpan
from .lattice import Lattice, LevelGraph, Sweep, build_lattice, synthetic_sentence


class NumericalError(RuntimeError):
    """Objective, gradient, log partition or best path score became non-finite."""


def edge_scores(graph: LevelGraph, weights: np.ndarray) -> np.ndarray:
    """Per-edge linear scores w . f(e).

    Each part's weights are summed from zero in feature order, and an edge's
    second part is at most one transition feature, so every score equals the
    in-order sum over the edge's features bit for bit.
    """
    w = np.asarray(weights, dtype=np.float64)
    part = np.bincount(graph.part_row, weights=w[graph.part_idx], minlength=graph.num_parts)
    with np.errstate(all="ignore"):
        return part[graph.edge_parts[:, 0]] + part[graph.edge_parts[:, 1]]


def _log_sweep(sweep: Sweep, scores: np.ndarray, x: np.ndarray) -> np.ndarray:
    """Fill ``x`` step by step with the log-sum-exp over each node's edges of
    (score + value of the node the edge reads)."""
    s = scores[sweep.order]
    for a, b, lo, hi, starts in sweep.steps:
        vals = x[sweep.read[lo:hi]]
        vals += s[lo:hi]
        x[a:b] = np.maximum.reduceat(vals, starts)
        vals -= x[sweep.write[lo:hi]]
        np.exp(vals, out=vals)
        x[a:b] += np.log(np.add.reduceat(vals, starts))
    return x


def _check_finite(values: np.ndarray, what: str) -> None:
    if not np.all(np.isfinite(values)):
        raise NumericalError(f"{what} is not finite")


def forward_log(graph: LevelGraph, scores: np.ndarray) -> np.ndarray:
    """Log-sums of path prefixes ending at each node (roots = 0)."""
    with np.errstate(all="ignore"):
        alpha = _log_sweep(graph.forward_sweep, scores, np.zeros(graph.num_nodes))
    _check_finite(alpha[graph.leaves], "log partition")
    return alpha


def backward_log(graph: LevelGraph, scores: np.ndarray) -> np.ndarray:
    """Log-sums of path suffixes starting at each node (leaves = 0)."""
    with np.errstate(all="ignore"):
        beta = _log_sweep(graph.backward_sweep, scores, np.zeros(graph.num_nodes))
    _check_finite(beta[: graph.level_ptr[1]], "log partition")
    return beta


def log_partition(lattice: Lattice, weights: np.ndarray) -> float:
    """log of the sum over all root-to-leaf paths of exp(path score)."""
    scores = edge_scores(lattice, weights)
    return float(forward_log(lattice, scores)[lattice.leaf])


@dataclass(frozen=True)
class Marginals:
    """Posterior probability of each edge plus each member's log normalizer."""

    edge_posteriors: np.ndarray
    log_partition: np.ndarray


def marginals_from_scores(graph: LevelGraph, scores: np.ndarray) -> Marginals:
    alpha = forward_log(graph, scores)
    beta = backward_log(graph, scores)
    log_z = alpha[graph.leaves]
    edge_log_z = np.repeat(log_z, np.diff(graph.edge_ptr))
    with np.errstate(all="ignore"):
        post = np.exp(alpha[graph.edge_src] + scores + beta[graph.edge_dst] - edge_log_z)
    return Marginals(post, log_z)


def edge_marginals(graph: LevelGraph, weights: np.ndarray) -> Marginals:
    """Forward-backward edge posteriors under the model distribution."""
    return marginals_from_scores(graph, edge_scores(graph, weights))


def viterbi_path(graph: LevelGraph, weights: np.ndarray) -> tuple[list[list[int]], np.ndarray]:
    """Maximum-score root-to-leaf node path of each member, in member-local
    node ids, with its score.

    Ties are broken toward the topologically earliest predecessor: each
    node's in-edges are source-sorted and the first one reaching the maximum
    wins.  That makes decoding deterministic; with all-zero weights every
    construction decodes to the all-outside labeling.
    """
    scores = edge_scores(graph, weights)
    sweep = graph.forward_sweep
    s = scores[sweep.order]
    delta = np.zeros(graph.num_nodes)
    pred = np.zeros(graph.num_nodes, dtype=np.int64)
    with np.errstate(all="ignore"):
        for a, b, lo, hi, starts in sweep.steps:
            vals = delta[sweep.read[lo:hi]] + s[lo:hi]
            delta[a:b] = np.maximum.reduceat(vals, starts)
            # A NaN segment has no hit; its index stays in range, and the
            # NaN reaches the leaf's score, which is checked below.
            hit = np.where(vals == delta[sweep.write[lo:hi]], np.arange(lo, hi), hi - 1)
            pred[a:b] = sweep.read[np.minimum.reduceat(hit, starts)]
    best = delta[graph.leaves]
    _check_finite(best, "best path score")
    num_roots = int(graph.level_ptr[1])
    back = pred.tolist()
    paths = []
    for leaf in graph.leaves.tolist():
        path = [leaf]
        while path[-1] >= num_roots:
            path.append(back[path[-1]])
        path.reverse()
        paths.append(graph.local_ids(path))
    return paths, best


def viterbi(lattice: Lattice, weights: np.ndarray) -> tuple[list[WordSpan], float]:
    """Best labeling as word spans, with its path score."""
    (path,), (score,) = viterbi_path(lattice, weights)
    return lattice.path_spans(path), float(score)


def complexity_probe(model_kind: str, n: int, max_seg_len: int, num_labels: int) -> int:
    """Exact edge count of a structural lattice over a generic label alphabet.

    The probe generalizes past the chunk/outside split: all ``num_labels``
    labels admit segments up to ``max_seg_len`` so the count reflects the
    uniform-alphabet scaling regime (for the linear trellis, the alphabet is
    expanded to its BIO tag set).  No features are attached.
    """
    if num_labels < 2:
        raise ValueError("need at least two labels (one chunk label plus outside)")
    label_set = LabelSet(tuple(f"Y{i}" for i in range(1, num_labels)))
    sentence = synthetic_sentence(n)
    lattice = build_lattice(
        model_kind, sentence, label_set, max_seg_len, extractor=None, outside_max_len=max_seg_len
    )
    return lattice.num_edges
