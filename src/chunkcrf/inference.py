"""Exact dynamic programming over labeling lattices.

Every program runs on a :class:`~chunkcrf.lattice.LevelGraph`: one lattice
(its shared topology's levels, edges and sweeps with the sentence's cell
ids), or a :class:`~chunkcrf.lattice.Batch` holding several lattices of one
family whose nodes are numbered level by level.  The graph's two sweeps are
its only adjacency: the forward sweep, each node's in-edges, serves forward
and Viterbi (bottom-up), and the backward sweep, each node's out-edges,
serves backward and the reverse pass (top-down).  A level step adds the
values its edges read to their scores, gathered through the step's own
views of the sweep's index arrays, then writes a ``maximum.reduceat`` over
the contiguous run of the level's edges straight into the level's node
values and, outside Viterbi's max-plus semiring, adds an ``add.reduceat``
log-sum-exp to them in place.  The cost is per level and per edge, with no
Python work per node.  One call covers every member of a batch, and a
member's results do not depend on which other lattices share its batch.

Edge posteriors are the gradient of the log partition with respect to the
edge scores, so :func:`marginals_from_scores` takes them from the forward
sweep alone: one reverse pass walks the backward sweep's levels top-down in
probability space, each level a gather, a product and an ``add.reduceat``
with no exp or log.  :func:`backward_log` runs the log-space backward sweep
the reverse pass replaced; nothing in the package calls it.

An edge's score is the dot product of the weight vector with its indicator
features, computed once per part and summed over the parts the edge
carries.  A part's score is one row of the graph's sparse parts x cells
matrix ``P`` times the weights of the cells' features (``cell_ids``, where
-1 stands for a zero weight), so a weight read by many parts is gathered
once.  Which edge carries which part is the sparse parts x edges matrix
``part_edges``, built once per shape.  Scoring is two products, cells onto
parts through ``P`` and parts onto edges through ``part_edges``'s
transpose; :func:`feature_counts` is its transpose, edges onto parts
through ``part_edges`` and parts onto cells through ``P``'s transpose, as
the gradient of a linear map is its transpose.  The two are the only
readers of ``P``, ``part_edges`` and ``cell_ids`` outside
:mod:`~chunkcrf.lattice`, which builds and batches them.

``cell_ids`` may carry a trailing member axis, (cells x width): one column
per sentence of the graph's shape.  :func:`edge_scores`, the sweep and
:func:`viterbi_path` then run on every column at once, as the same
functions: ``reduceat`` and the row gathers work along axis 0, and a sparse
product with a dense block sums each column in the order of the product
with one vector, so each column's scores, back-pointers and tie-breaks are
bit for bit those of its sentence alone.  Decoding uses it; training keeps
one column per member.  Arithmetic runs with numpy's floating-point
warnings off; a log partition or a best path score that is not finite
raises :class:`NumericalError` instead.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .core import WordSpan
from .lattice import Lattice, LevelGraph, Sweep


class NumericalError(RuntimeError):
    """Objective, gradient, log partition or best path score became non-finite."""


def edge_scores(graph: LevelGraph, weights: np.ndarray) -> np.ndarray:
    """Per-edge linear scores w . f(e): ``part_edges.T @ (P @ cells)``.

    Each part's weights are summed from +0.0 in feature order (a cell
    without a feature adds an exact ``+0.0``), so no part scores -0.0.  Each
    edge then sums its parts from +0.0: at most two, and two-term addition
    commutes, so the order of the parts does not matter.  An edge's
    transition part holds at most one feature, so every score equals the
    in-order sum over the edge's features, template part first, bit for bit.
    With a member axis the scores are (edges x width), column for column.
    """
    w = np.asarray(weights, dtype=np.float64)
    # take is twice as fast as w[ids] on int32 ids; a cell without a feature
    # (id -1) reads the appended +0.0
    cells = np.append(w, 0.0).take(graph.cell_ids)
    return graph.part_edges_T @ (graph.P @ cells)


def feature_counts(graph: LevelGraph, edge_weights: np.ndarray, dim: int) -> np.ndarray:
    """Per-feature sums of ``edge_weights`` over the edges that carry each
    feature, the transpose of :func:`edge_scores`: spread each edge's weight
    onto its parts, each part's onto its cells, then each cell's onto its
    feature (bin 0 of the shifted ids collects the cells without one).

    The first spread is ``part_edges @ edge_weights``: each part's row sums
    its edges' weights from +0.0 in edge order, as a weighted bincount over
    the edges' parts would, so counts are the same bit for bit."""
    part = graph.part_edges @ edge_weights
    return np.bincount(graph.cell_ids + 1, weights=graph.P_T @ part, minlength=dim + 1)[1:]


def _sweep(sweep: Sweep, scores: np.ndarray, x: np.ndarray, log: bool = True) -> np.ndarray:
    """Fill ``x`` step by step with the log-sum-exp over each node's edges of
    (score + value of the node the edge reads), or with their maximum when
    ``log`` is false (the max-plus semiring, for Viterbi).  Returns those
    per-edge sums, in ``sweep.order``.

    Fancy indexing is the fastest gather of a vector, but gathers the rows
    of a member axis several times as slowly as ``take``, so a member axis
    gathers through ``take``.  (A gather picked once per call, as a bound
    method, costs a lone lattice's Viterbi more than this branch does.)"""
    flat = x.ndim == 1
    sums = scores[sweep.order] if flat else scores.take(sweep.order, 0)
    for a, b, lo, hi, read, write, starts in sweep.steps:
        vals = sums[lo:hi]
        vals += x[read] if flat else x.take(read, 0)
        np.maximum.reduceat(vals, starts, out=x[a:b])
        if log:
            shifted = x[write]
            np.subtract(vals, shifted, out=shifted)
            np.exp(shifted, out=shifted)
            total = np.add.reduceat(shifted, starts)
            x[a:b] += np.log(total, out=total)
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
    """Log-sums of path suffixes starting at each node (leaves = 0).

    Nothing in the package calls it: :func:`marginals_from_scores` replaced
    it with a reverse pass, whose posteriors the tests hold equal to
    ``exp(alpha + s + beta - log Z)``."""
    beta = np.zeros(graph.num_nodes)
    with np.errstate(all="ignore"):
        _sweep(graph.backward_sweep, scores, beta)
    _check_finite(beta[: graph.level_ptr[1]], "log partition")
    return beta


@dataclass(frozen=True)
class Marginals:
    """Posterior probability of each edge plus each member's log normalizer."""

    edge_posteriors: np.ndarray
    log_partition: np.ndarray


def marginals_from_scores(graph: LevelGraph, scores: np.ndarray) -> Marginals:
    """Edge posteriors and log partitions from one forward sweep and one
    reverse pass over its result.

    An edge's posterior is ``exp(alpha[src] + s + beta[dst] - log Z)``, the
    derivative of ``log Z`` with respect to its score, so it is found by
    backpropagating through the forward sweep instead of running a second
    log-space one.  Edge ``e``'s share of its head node's inflow,
    ``exp(s + alpha[src] - alpha[dst])``, is computed once over all edges.
    Then the backward sweep's steps run top-down in probability space: a
    node's posterior is 1 at the leaves and, below, the sum of its out-edges'
    posteriors, each its share times its head's posterior.  Each level is a
    gather, a product and an ``add.reduceat``, with no exp or log.

    With a finite log partition every forward value is finite (forward_log
    raises otherwise), so shares and posteriors lie in [0, 1]; an edge
    scored -inf gets posterior 0.
    """
    alpha = forward_log(graph, scores)
    sweep = graph.backward_sweep
    gamma = np.ones(graph.num_nodes)  # the leaves keep 1; each step sets one level
    with np.errstate(all="ignore"):
        mu = np.exp(scores[sweep.order] + alpha[sweep.write] - alpha[sweep.read])
        for a, b, lo, hi, read, _, starts in sweep.steps:
            run = mu[lo:hi]
            run *= gamma[read]
            np.add.reduceat(run, starts, out=gamma[a:b])
    post = np.empty(len(mu))
    post[sweep.order] = mu
    return Marginals(post, alpha[graph.leaves])


def viterbi_path(graph: LevelGraph, weights: np.ndarray) -> tuple[list[list[int]], np.ndarray]:
    """Maximum-score root-to-leaf node path of each member, in member-local
    node ids, with its score.

    Ties go to the lowest source: after the max-plus sweep, a node's
    back-pointer is the first *tight* edge (source value + score == node
    value) in its source-sorted run of in-edges in the forward sweep, which
    starts at the node's entry of ``node_starts``.
    That makes decoding deterministic; with all-zero weights every
    construction decodes to the all-outside labeling.

    When ``cell_ids`` has a member axis (cells x width), every step runs on
    all columns at once and each column decodes as it would alone, bit for
    bit.  Paths are then listed by member, then by column, and scores are
    (members x width).  A padded column (all ids -1, transitions included)
    scores 0 on every edge, so it is always finite and decodes like any
    other.
    """
    scores = edge_scores(graph, weights)
    sweep = graph.forward_sweep
    delta = np.zeros((graph.num_nodes, *scores.shape[1:]))
    with np.errstate(all="ignore"):
        sums = _sweep(sweep, scores, delta, log=False)
    best = delta[graph.leaves]
    # np.maximum keeps NaNs and every node reaches a leaf, so with finite
    # leaves each node's value is one of its in-edge sums: it has a tight edge.
    _check_finite(best, "best path score")
    num_roots = int(graph.level_ptr[1])
    if delta.ndim == 1:
        edge_ids = np.where(sums == delta[sweep.write], np.arange(len(sums)), len(sums) - 1)
        columns = [sweep.read[np.minimum.reduceat(edge_ids, sweep.node_starts)].tolist()]
    else:
        edge_ids = np.where(sums == delta.take(sweep.write, 0), np.arange(len(sums))[:, None], len(sums) - 1)
        columns = sweep.read[np.minimum.reduceat(edge_ids, sweep.node_starts)].T.tolist()
    paths = []
    for leaf in graph.leaves.tolist():
        for back in columns:
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
