"""Exact log-space dynamic programming over labeling lattices.

Every program runs on a :class:`~chunkcrf.lattice.LevelGraph`: one lattice
(its shared topology's levels, edges and sweeps with the sentence's part
table), or a :class:`~chunkcrf.lattice.Batch` holding several lattices of one
family whose nodes are numbered level by level.  One level sweep serves
forward and Viterbi (bottom-up) and backward (top-down): each level is a
handful of numpy reductions over the contiguous run of that level's edges, a
``maximum.reduceat`` and then, outside Viterbi's max-plus semiring, an
``add.reduceat`` log-sum-exp.  The cost is per level and per edge, with no
Python work per node.  One call covers every member of a batch, and a
member's results do not depend on which other lattices share its batch.

An edge's score is the dot product of the weight vector with its indicator
features, computed once per part and summed over the edge's two parts.
Arithmetic runs with numpy's floating-point warnings off; a log partition or
a best path score that is not finite raises :class:`NumericalError` instead.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .core import WordSpan
from .lattice import Lattice, LevelGraph, Sweep


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


def _sweep(sweep: Sweep, scores: np.ndarray, x: np.ndarray, log: bool = True) -> np.ndarray:
    """Fill ``x`` step by step with the log-sum-exp over each node's edges of
    (score + value of the node the edge reads), or with their maximum when
    ``log`` is false (the max-plus semiring, for Viterbi).  Returns those
    per-edge sums, in ``sweep.order``."""
    sums = scores[sweep.order]
    for a, b, lo, hi, starts in sweep.steps:
        vals = sums[lo:hi]
        vals += x[sweep.read[lo:hi]]
        x[a:b] = np.maximum.reduceat(vals, starts)
        if log:
            shifted = x[sweep.write[lo:hi]]
            np.subtract(vals, shifted, out=shifted)
            np.exp(shifted, out=shifted)
            x[a:b] += np.log(np.add.reduceat(shifted, starts))
    return sums


def _check_finite(values: np.ndarray, what: str) -> None:
    if not np.all(np.isfinite(values)):
        raise NumericalError(f"{what} is not finite")


def forward_log(graph: LevelGraph, scores: np.ndarray) -> np.ndarray:
    """Log-sums of path prefixes ending at each node (roots = 0)."""
    alpha = np.zeros(graph.num_nodes)
    with np.errstate(all="ignore"):
        _sweep(graph.forward_sweep, scores, alpha)
    _check_finite(alpha[graph.leaves], "log partition")
    return alpha


def backward_log(graph: LevelGraph, scores: np.ndarray) -> np.ndarray:
    """Log-sums of path suffixes starting at each node (leaves = 0)."""
    beta = np.zeros(graph.num_nodes)
    with np.errstate(all="ignore"):
        _sweep(graph.backward_sweep, scores, beta)
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

    Ties go to the lowest source: after the max-plus sweep, a node's
    back-pointer is the first *tight* edge (source value + score == node
    value) in its source-sorted in-edge run ``in_ptr[v]:in_ptr[v + 1]``.
    That makes decoding deterministic; with all-zero weights every
    construction decodes to the all-outside labeling.
    """
    scores = edge_scores(graph, weights)
    sweep = graph.forward_sweep
    delta = np.zeros(graph.num_nodes)
    with np.errstate(all="ignore"):
        sums = _sweep(sweep, scores, delta, log=False)
    best = delta[graph.leaves]
    # np.maximum keeps NaNs and every node reaches a leaf, so with finite
    # leaves each node's value is one of its in-edge sums: it has a tight edge.
    _check_finite(best, "best path score")
    num_roots = int(graph.level_ptr[1])
    edge_ids = np.where(sums == delta[sweep.write], np.arange(len(sums)), len(sums) - 1)
    back = sweep.read[np.minimum.reduceat(edge_ids, graph.in_ptr[num_roots:-1])].tolist()
    paths = []
    for leaf in graph.leaves.tolist():
        path = [leaf]
        while path[-1] >= num_roots:
            path.append(back[path[-1] - num_roots])
        path.reverse()
        paths.append(graph.local_ids(path))
    return paths, best


def viterbi(lattice: Lattice, weights: np.ndarray) -> tuple[list[WordSpan], float]:
    """Best labeling as word spans, with its path score."""
    (path,), (score,) = viterbi_path(lattice, weights)
    return lattice.path_spans(path), float(score)
