"""Exact log-space dynamic programming over labeling lattices.

All accumulation happens in log space with max-shifted log-sum-exp; an
edge's score is the dot product of the weight vector with its indicator
features, computed once per part of the lattice and summed over the edge's
two parts.  Everything here is a pure function of an immutable lattice plus a
weight vector, so concurrent use over different sentences needs no locking.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .core import LabelSet, WordSpan
from .lattice import Lattice, build_lattice, synthetic_sentence


def _logsumexp(values: np.ndarray) -> float:
    m = values.max()
    if not np.isfinite(m):
        return float(m)
    return float(m + np.log(np.exp(values - m).sum()))


def edge_scores(lattice: Lattice, weights: np.ndarray) -> np.ndarray:
    """Per-edge linear scores w . f(e).

    Each part's weights are summed from zero in feature order, and an edge's
    second part is at most one transition feature, so every score equals the
    in-order sum over the edge's features bit for bit.
    """
    w = np.asarray(weights, dtype=np.float64)
    part = np.bincount(lattice.part_row, weights=w[lattice.part_idx], minlength=lattice.num_parts)
    return part[lattice.edge_parts[:, 0]] + part[lattice.edge_parts[:, 1]]


def forward_log(lattice: Lattice, scores: np.ndarray) -> np.ndarray:
    """Log-sums of path prefixes ending at each node (root = 0)."""
    alpha = np.full(lattice.num_nodes, -np.inf)
    alpha[lattice.root] = 0.0
    src = lattice.edge_src
    for v in range(1, lattice.num_nodes):
        eids = lattice.in_edges[v]
        if len(eids) == 1:
            e = eids[0]
            alpha[v] = alpha[src[e]] + scores[e]
        else:
            alpha[v] = _logsumexp(alpha[src[eids]] + scores[eids])
    return alpha


def backward_log(lattice: Lattice, scores: np.ndarray) -> np.ndarray:
    """Log-sums of path suffixes starting at each node (leaf = 0)."""
    beta = np.full(lattice.num_nodes, -np.inf)
    beta[lattice.leaf] = 0.0
    dst = lattice.edge_dst
    for v in range(lattice.num_nodes - 2, -1, -1):
        eids = lattice.out_edges[v]
        if len(eids) == 1:
            e = eids[0]
            beta[v] = scores[e] + beta[dst[e]]
        else:
            beta[v] = _logsumexp(scores[eids] + beta[dst[eids]])
    return beta


def log_partition(lattice: Lattice, weights: np.ndarray) -> float:
    """log of the sum over all root-to-leaf paths of exp(path score)."""
    scores = edge_scores(lattice, weights)
    return float(forward_log(lattice, scores)[lattice.leaf])


@dataclass(frozen=True)
class Marginals:
    """Posterior probability of each edge plus the log normalizer."""

    edge_posteriors: np.ndarray
    log_partition: float


def marginals_from_scores(lattice: Lattice, scores: np.ndarray) -> Marginals:
    alpha = forward_log(lattice, scores)
    beta = backward_log(lattice, scores)
    log_z = alpha[lattice.leaf]
    post = np.exp(alpha[lattice.edge_src] + scores + beta[lattice.edge_dst] - log_z)
    return Marginals(post, float(log_z))


def edge_marginals(lattice: Lattice, weights: np.ndarray) -> Marginals:
    """Forward-backward edge posteriors under the model distribution."""
    return marginals_from_scores(lattice, edge_scores(lattice, weights))


def viterbi_path(lattice: Lattice, weights: np.ndarray) -> tuple[list[int], float]:
    """Maximum-score root-to-leaf node path.

    Ties are broken toward the topologically earliest predecessor (in-edge
    lists are source-sorted and argmax keeps the first maximum), which makes
    decoding deterministic; with all-zero weights every construction decodes
    to the all-outside labeling.
    """
    scores = edge_scores(lattice, weights)
    delta = np.full(lattice.num_nodes, -np.inf)
    delta[lattice.root] = 0.0
    back = np.full(lattice.num_nodes, -1, dtype=np.int64)
    src = lattice.edge_src
    for v in range(1, lattice.num_nodes):
        eids = lattice.in_edges[v]
        cand = delta[src[eids]] + scores[eids]
        best = int(np.argmax(cand))
        delta[v] = cand[best]
        back[v] = eids[best]
    path = [lattice.leaf]
    while path[-1] != lattice.root:
        path.append(int(src[back[path[-1]]]))
    path.reverse()
    return path, float(delta[lattice.leaf])


def viterbi(lattice: Lattice, weights: np.ndarray) -> tuple[list[WordSpan], float]:
    """Best labeling as word spans, with its path score."""
    path, score = viterbi_path(lattice, weights)
    return lattice.path_spans(path), score


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
