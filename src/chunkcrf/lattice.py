"""Per-sentence labeling lattices for the three model families.

Each lattice is a rooted DAG whose root-to-leaf paths are in bijection with
the legal labelings of one sentence.  A node is a :class:`Node`, a
``(kind, position, label)`` tuple that is also its key in the lattice:

- ``linear``: one ``tag`` node per (position, BIO tag): ``O`` outside a
  chunk, ``B-<label>`` on a chunk's first token, ``I-<label>`` on its later
  tokens.  Edges connect adjacent positions wherever the second tag may
  follow the first (an ``I-`` tag only continues its own label's chunk).
- ``semi``: one ``seg`` node per (position, segment label), a node marking a
  segment that ends at that position; an edge spans the whole segment, so it
  carries the segment templates plus the label-transition template.
- ``weak``: every segment node splits into a ``begin`` and an ``end`` node.
  Segment edges (Begin -> End, same label) carry only segment templates;
  transition edges (End -> next Begin, any label pair) carry only the
  transition template.  Choosing a segment's length and choosing the next
  label become separate decisions, which shrinks the edge count from
  O(n * L * |labels|^2) to O(n * |labels|^2 + n * L * |labels|).

The ``root`` sits at position -1 and the ``leaf`` at ``n``.  A labeling is a
list of chunk spans; :meth:`Lattice.gold_edge_ids` encodes it as a path and
:meth:`Lattice.path_spans` decodes a path back, in every family through one
segmentation (:func:`_segments`: the chunks, with every other token a
one-token outside segment), so a gold path and a decoded path of the same
spans are the same path.  In ``linear`` a segment is a run of tag nodes,
the BIO tags being only the trellis's node labels.

Nodes are stored level by level (outside label first within a layer;
decoding tie-breaks rely on that): the root, then one level per position (two
in ``weak``: its Begin nodes, then its End nodes), then the leaf.  Every edge
climbs from a lower level to a higher one, and every node is reachable from
the root and co-reachable from the leaf.  The dynamic programs run level by
level, over one lattice or over a :class:`Batch` of lattices of one family,
which keeps that layout: roots alone in its first level, leaves in its last.

A lattice is its shape plus a sentence's cell ids, and keeps no sentence.
The shape, a :class:`Topology` (nodes, levels, edges, sweeps and edge lookup),
depends only on the family, the sentence length, the label set and the
segment-length limit (outside segments are always one token long), so it is
built once per shape, cached, and its arrays and sweeps shared by reference
by every lattice of it.  It names the *parts* whose features an edge
carries by *slots*, template keys such as ``("segment", first, last,
label)`` or ``("transition", prev, label)``: two per edge in ``linear`` and
``semi``, one in ``weak``.  One sparse matrix, ``part_edges`` (parts x
edges), records which edge carries which part; an edge's score is the sum
of its parts' scores, and many edges share each part: in a ``semi`` lattice
all ``|labels|`` edges into one segment share its segment part, and all
edges between one label pair share its transition part.

Parts in turn share features, and ``features.py`` decides where they come
from.  A topology keeps one :class:`~chunkcrf.features.AttributePattern` per
feature configuration, compiled from its slots by
:meth:`~chunkcrf.features.TemplateLayout.pattern` on first use, so every
extractor of that configuration shares it.  A sentence then gathers only its
cells' feature ids (``cell_ids``, -1 for a cell without one), and a part's
score is ``P`` times the weights of its cells: the sentence-dependent data is
one ``int32`` per cell, and ``P`` is shared by every lattice of the shape.
Edge and sweep index arrays are ``intp``, because numpy gathers
through ``intp`` ids without casting them first, and the dynamic programs
gather through them at every level; cell ids are feature ids, and stay
``int32`` like the extractor's tables.
:class:`_FeatureMemo`, one extractor call per slot, is the reference the
compiled features equal bit for bit.  The arrays a lattice shares with its
shape (the topology's arrays, ``part_edges``, its sweeps' edge arrays and
``P``) are read-only, except the sweeps' ``reduceat`` offsets (see
:class:`Sweep`); its own ``cell_ids`` is writable.  Training compiles each
sentence of its split once, while the objective evaluator is built, stacks
them into shape blocks, and every evaluation reuses those blocks.
"""

from __future__ import annotations

from collections.abc import Sequence
from dataclasses import dataclass
from functools import cached_property, lru_cache
from typing import NamedTuple

import numpy as np
from scipy.sparse import csc_matrix, csr_matrix

from .core import OUTSIDE, LabelSet, Sentence, SpanError, WordSpan, ordered_spans
from .features import START_LABEL, STOP_LABEL, AttributePattern, FeatureConfig, FeatureExtractor, TemplateLayout

MODEL_KINDS = ("linear", "semi", "weak")

# Topologies :func:`topology` keeps: every sentence length of a corpus, per family.
TOPOLOGY_CACHE_SIZE = 128
NO_IDS = np.zeros(0, dtype=np.int32)  # no cell ids, or no feature ids
NO_IDS.flags.writeable = False


class LatticeError(ValueError):
    """Raised when a labeling cannot be represented in a lattice."""


class Node(NamedTuple):
    """One lattice node, and its key: ``kind`` is ``"root"``, ``"leaf"``,
    ``"tag"`` (linear), ``"seg"`` (semi), ``"begin"`` or ``"end"`` (weak);
    ``label`` is the node's BIO tag or segment label, ``None`` at the root
    and the leaf."""

    kind: str
    position: int
    label: str | None = None


@dataclass(frozen=True)
class Sweep:
    """One direction of a level schedule, and the graph's adjacency in it.

    ``order`` lists every edge once, grouped by the node it feeds, in node
    order: the edge at position ``i`` reads node ``read[i]`` and feeds node
    ``write[i]``.  Each step ``(a, b, lo, hi, read, write, starts)`` computes
    the node range ``a:b`` from the edge run ``lo:hi`` of ``order``: its
    ``read`` and ``write`` are views of that run of the full arrays, and
    ``starts`` holds the offset of each node's first edge within the run (no
    node's run is empty).  ``node_starts`` holds the offset in ``order`` of
    each swept node's first edge, in node order, for one ``reduceat`` over
    the whole sweep (Viterbi's back-pointers).  ``order``, ``read`` and
    ``write`` are read-only; the offsets are not, because numpy's
    ``reduceat`` copies a read-only index array on every call, and the
    dynamic programs make one or two such calls per level.
    """

    order: np.ndarray
    read: np.ndarray
    write: np.ndarray
    steps: list[tuple[int, int, int, int, np.ndarray, np.ndarray, np.ndarray]]
    node_starts: np.ndarray


class LevelGraph:
    """Level-ordered DAG with part scores: what the dynamic programs run on.

    Level ``l`` is the node range ``level_ptr[l]:level_ptr[l + 1]``.  Level 0
    holds the roots, the last level the leaves (one per member) alone, every
    edge climbs to a higher level, and every other node has an out-edge.  A
    :class:`Lattice` is such a graph with one member; a :class:`Batch` is the
    disjoint union of several.  Member ``i`` owns edges
    ``edge_ptr[i]:edge_ptr[i + 1]`` and ends in node ``leaves[i]``.

    The two sweeps are the graph's only adjacency.  ``forward_sweep`` lists
    the edges by head, each head's in-edges sorted by source, so each level's
    in-edges form one run and the lowest source comes first (decoding breaks
    ties toward it); it runs the levels above the roots bottom-up, each node
    from its in-edges: the forward pass and Viterbi.  ``backward_sweep``
    lists them by source and runs the others top-down, each node from its
    out-edges: the reverse pass that turns the forward result into edge
    posteriors.  Every program reads the forward sweep, so it is built with
    the graph; only training reads the backward sweep, built on first use.

    Edge ``e``'s features are those of the parts in column ``e`` of the
    sparse matrix ``part_edges`` (parts x edges, CSR): row ``p`` lists, in
    edge order, the edges that carry part ``p``, each with a 1.0.  Part
    ``p``'s features are those of the cells in row ``p`` of the sparse matrix
    ``P`` (parts x cells), in row order, and cell ``c``'s feature is
    ``cell_ids[c]``, or none where that is -1.  Scoring multiplies cell
    weights by ``P``, then by ``part_edges_T``, built with the graph;
    expected counts multiply edge weights by ``part_edges``, then by
    ``P_T``, built on first use.  ``cell_ids`` may also be a (cells x width)
    block, one column per sentence of the shape, which decoding and training
    run on as a trailing member axis (see :mod:`~chunkcrf.inference`).
    """

    @property
    def num_edges(self) -> int:
        return len(self.edge_src)

    @property
    def num_parts(self) -> int:
        return self.P.shape[0]

    @cached_property
    def P_T(self) -> csc_matrix:
        """``P`` transposed, kept: scipy's transpose costs more than a
        product with a small ``P``."""
        return self.P.T

    @property
    def num_levels(self) -> int:
        return len(self.level_ptr) - 1

    def node_levels(self) -> np.ndarray:
        return np.repeat(np.arange(self.num_levels), np.diff(self.level_ptr))

    def local_ids(self, nodes: list[int]) -> list[int]:
        """Member-local ids of the given nodes (a lattice's are its own)."""
        return nodes

    def _forward_sweep(self, order: np.ndarray) -> Sweep:
        """The forward sweep through ``order``, the edges by head, then source."""
        bounds = self.level_ptr.tolist()
        return _sweep(order, self.edge_src, self.edge_dst, self.num_nodes, zip(bounds[1:-1], bounds[2:]))

    @cached_property
    def backward_sweep(self) -> Sweep:
        bounds = self.level_ptr.tolist()
        return _sweep(np.argsort(self.edge_src, kind="stable"), self.edge_dst, self.edge_src, self.num_nodes,
                      zip(bounds[-3::-1], bounds[-2:0:-1]))


def _sweep(order, read, write, num_nodes, levels) -> Sweep:
    """The sweep over ``levels`` through ``order``, which lists the edges
    grouped by the node they ``write``, in node order; each node's run
    offsets come from a count of the edges it writes.  Every lattice of a
    shape shares its topology's sweeps, so the edge arrays are read-only,
    and marked so before the step views are cut (a view inherits the
    flag)."""
    ptr = np.concatenate(([0], np.cumsum(np.bincount(write, minlength=num_nodes))))
    read, write = read[order], write[order]
    for array in (order, read, write):
        array.flags.writeable = False
    steps = []
    for a, b in levels:
        lo, hi = int(ptr[a]), int(ptr[b])
        steps.append((a, b, lo, hi, read[lo:hi], write[lo:hi], ptr[a:b] - lo))
    first, last = min(step[0] for step in steps), max(step[1] for step in steps)
    return Sweep(order, read, write, steps, ptr[first:last])


class Topology(LevelGraph):
    """Structure shared by every lattice of one shape: nodes, levels, edge
    arrays, sweeps and edge lookup, with one root (node 0) and one leaf (the
    last node), compiled from a :class:`_Builder`.

    ``nodes[v]`` is node ``v``'s :class:`Node`, which is also its key:
    ``_node_ids`` maps it back to ``v``.  ``in_key`` keys each edge
    ``dst * num_nodes + src`` in the forward sweep's order, for
    :meth:`edge_ids`.  Slots are numbered in first-use order, ``slots[s]``
    being slot ``s``'s template key, and part ``s`` of a lattice is slot
    ``s``.  ``part_edges`` is built here from the edges' slots, with its
    transpose and the forward sweep, so every lattice of the shape shares
    them; a lattice shares the backward sweep too, built on first use.
    :func:`topology` caches topologies, so their arrays are read-only; each
    also keeps the attribute patterns compiled for it.
    """

    def __init__(self, b: _Builder) -> None:
        self.model_kind = b.model_kind
        self.nodes = b.nodes
        self._node_ids = b.node_ids
        self.num_nodes = len(b.nodes)
        self.root = 0
        self.leaf = self.num_nodes - 1
        self.leaves = np.array([self.leaf])
        self.level_ptr = np.asarray(b.level_ptr + [self.num_nodes], dtype=np.int64)

        self.edge_src = np.asarray(b.edge_src, dtype=np.intp)
        self.edge_dst = np.asarray(b.edge_dst, dtype=np.intp)
        self.edge_ptr = np.array([0, len(b.edge_src)])
        self.slots = b.slots
        self._patterns: dict[FeatureConfig, AttributePattern] = {}

        self._check_connected()  # before any sweep: a sweep runs each node from a non-empty run
        self.forward_sweep = sweep = self._forward_sweep(np.lexsort((self.edge_src, self.edge_dst)))
        self.in_key = sweep.write * np.int64(self.num_nodes) + sweep.read
        parts = np.asarray(b.entry_part, dtype=np.intp)
        order = np.argsort(parts, kind="stable")  # each part's edges stay in edge order
        indptr = np.concatenate(([0], np.cumsum(np.bincount(parts, minlength=len(self.slots)))))
        self.part_edges = csr_matrix((np.ones(len(parts)), np.asarray(b.entry_edge)[order], indptr),
                                     shape=(len(self.slots), self.num_edges))
        self.part_edges_T = self.part_edges.T
        for array in (self.leaves, self.level_ptr, self.edge_src, self.edge_dst, self.edge_ptr, self.in_key,
                      self.part_edges.data, self.part_edges.indices, self.part_edges.indptr):
            array.flags.writeable = False

    def _check_connected(self) -> None:
        """Level 0 is the root alone and the last level the leaf alone, every
        edge climbs at least one level, every other node has an in-edge and
        every node but the leaf an out-edge.  By induction over the levels,
        every node is then reachable from the root and reaches the leaf."""
        level = self.node_levels()
        in_deg = np.bincount(self.edge_dst, minlength=self.num_nodes)
        out_deg = np.bincount(self.edge_src, minlength=self.num_nodes)
        if not np.all(level[self.edge_src] < level[self.edge_dst]):
            raise AssertionError("an edge does not climb from a lower level to a higher one")
        ends_ok = self.level_ptr[1] == 1 and self.level_ptr[-2] == self.leaf
        if not (ends_ok and in_deg[1:].all() and out_deg[:-1].all()):
            raise AssertionError("lattice has unreachable or dead-end nodes")

    def edge_ids(self, src: Sequence[int] | np.ndarray, dst: Sequence[int] | np.ndarray) -> np.ndarray:
        """Ids of the edges ``src[i] -> dst[i]``, -1 where there is none."""
        key = np.asarray(dst, dtype=np.int64) * self.num_nodes + src
        k = np.searchsorted(self.in_key, key).clip(max=len(self.in_key) - 1)
        return np.where(self.in_key[k] == key, self.forward_sweep.order[k], -1)

    @cached_property
    def no_cells(self) -> csr_matrix:
        """``P`` of a lattice without features: every part empty."""
        P = csr_matrix((len(self.slots), 0))
        for array in (P.data, P.indices, P.indptr):
            array.flags.writeable = False
        return P

    def pattern(self, layout: TemplateLayout) -> AttributePattern:
        """Where each slot's features come from under ``layout``, compiled on
        first use per feature configuration."""
        pattern = self._patterns.get(layout.config)
        if pattern is None:
            pattern = self._patterns[layout.config] = layout.pattern(self.nodes[self.leaf].position, self.slots)
        return pattern


class Lattice(Topology):
    """Compiled lattice of one sentence: its shape's
    :class:`Topology`, the shape's cell matrix ``P``, whose part ``s`` holds
    the cells of slot ``s``, and the sentence's ``cell_ids``.  Decoding and
    training also make one per block of a shape's sentences, whose
    ``cell_ids`` hold their columns side by side (cells x width), and which
    shares the shape's ``P``.

    It takes the topology's attributes by reference, so its nodes, levels,
    edge arrays, ``part_edges`` and forward sweep are the shape's own, and
    it reads its backward sweep from the shape, which builds it on first use.
    :meth:`gold_edge_ids` and :meth:`path_spans` map chunk spans to a path
    and back through one segmentation, :func:`_segments`, in every family;
    BIO tags are only the ``linear`` trellis's node labels.
    """

    def __init__(self, topology: Topology, cell_ids: np.ndarray, P: csr_matrix) -> None:
        vars(self).update(vars(topology))
        self.topology = topology
        self.cell_ids = cell_ids
        self.P = P

    @property
    def backward_sweep(self) -> Sweep:
        return self.topology.backward_sweep

    def gold_edge_ids(self, spans: list[WordSpan]) -> list[int]:
        """Edge path realizing the given chunk structure.

        Raises :class:`LatticeError` when the structure is not representable
        (spans :func:`_segments` rejects, an unknown label, a segment too
        long, or a missing edge).
        """
        try:
            segments = _segments(self.nodes[self.leaf].position, spans)  # checks the spans in every family
            if self.model_kind == "linear":
                nodes = [Node("tag", i, label if label == OUTSIDE else ("B-" if i == first else "I-") + label)
                         for first, last, label in segments for i in range(first, last + 1)]
            elif self.model_kind == "semi":
                nodes = [Node("seg", last, label) for _, last, label in segments]
            else:
                nodes = [node for first, last, label in segments
                         for node in (Node("begin", first, label), Node("end", last, label))]
        except ValueError as exc:
            raise LatticeError(str(exc)) from exc
        path = [self.root, *map(self._node_ids.get, nodes), self.leaf]
        if None in path:
            raise LatticeError(f"no lattice node {nodes[path.index(None) - 1]}")
        edges = self.edge_ids(path[:-1], path[1:])
        missing = np.flatnonzero(edges < 0)
        if len(missing):
            src, dst = path[missing[0]], path[missing[0] + 1]
            raise LatticeError(f"missing edge {self.nodes[src]} -> {self.nodes[dst]}")
        return edges.tolist()

    def path_spans(self, node_path: list[int]) -> list[WordSpan]:
        """Chunk spans encoded by a full root-to-leaf node path: the nodes
        along :meth:`gold_edge_ids`'s edge path for some spans decode to them."""
        nodes = [self.nodes[v] for v in node_path[:-1]]
        if self.model_kind == "linear":  # a segment opens at every tag but I-, and runs to the next opening
            firsts = [node.position for node in nodes[1:] if not node.label.startswith("I-")]
            segments = [(first, following - 1, nodes[first + 1].label.removeprefix("B-"))
                        for first, following in zip(firsts, firsts[1:] + [len(nodes) - 1])]
        elif self.model_kind == "semi":
            segments = [(prev.position + 1, end.position, end.label) for prev, end in zip(nodes, nodes[1:])]
        else:
            segments = [(begin.position, end.position, end.label) for begin, end in zip(nodes[1::2], nodes[2::2])]
        return [WordSpan(first, last, label) for first, last, label in segments if label != OUTSIDE]


def _segments(n: int, spans: list[WordSpan]) -> list[tuple[int, int, str]]:
    """The segmentation of ``n`` tokens that chunk ``spans`` encode, in order:
    each chunk as ``(first, last, label)``, each other token as a one-token
    outside segment.  Raises :class:`~chunkcrf.core.SpanError` for spans
    :func:`~chunkcrf.core.ordered_spans` rejects and for a chunk labeled
    outside, which would decode to no chunk."""
    segments: list[tuple[int, int, str]] = []
    cursor = 0
    for span in ordered_spans(spans, n):
        if span.label == OUTSIDE:
            raise SpanError(f"a chunk cannot take the outside label {OUTSIDE!r}")
        segments += [(i, i, OUTSIDE) for i in range(cursor, span.first_token)]
        segments.append((span.first_token, span.last_token, span.label))
        cursor = span.last_token + 1
    return segments + [(i, i, OUTSIDE) for i in range(cursor, n)]


class Batch(LevelGraph):
    """Disjoint union of lattices of one family, so that each dynamic program
    runs once over all of them.

    Member ``i``'s edges are batch edges ``edge_ptr[i]:edge_ptr[i + 1]`` in
    the member's own order, and its parts and cells one block of the
    block-diagonal ``P`` and ``part_edges`` and of the concatenated
    ``cell_ids``: the batch joins both matrices alike, when it is built.
    Members whose ``cell_ids`` carry columns, as the shape blocks decoding
    and training join do, must all have the same width, and the batch's
    ``cell_ids`` then has it too: the blocks keep one copy of ``P`` and
    ``part_edges`` per block, not per sentence.  Every
    member's leaf is lifted to the batch's top level, so the batch keeps a
    lattice's layout (the leaves alone in the last level, in member order),
    and nodes are renumbered by level, then by member and member node id,
    which keeps each member's source order for tie-breaking.  ``local_node``
    maps a batch node to its id in its member.

    Since renumbering keeps each member's node order, the forward sweep's
    order is the members' own, offset and stably sorted by batch head: the
    same order as a sort of every edge, from runs that are already sorted.
    A batch that is only decoded never sorts its edges by source.
    """

    def __init__(self, lattices: Sequence[Lattice]) -> None:
        if not lattices:
            raise ValueError("a batch needs at least one lattice")
        if len({lat.model_kind for lat in lattices}) > 1:
            raise ValueError("a batch holds lattices of one model family")
        sizes = np.array([lat.num_nodes for lat in lattices])
        node_off = np.concatenate(([0], np.cumsum(sizes)))
        self.num_nodes = int(node_off[-1])
        level = np.concatenate([lat.node_levels() for lat in lattices])
        level[node_off[1:] - 1] = level.max()
        order = np.argsort(level, kind="stable")
        new_id = np.empty(self.num_nodes, dtype=np.intp)
        new_id[order] = np.arange(self.num_nodes)
        self.local_node = (np.arange(self.num_nodes) - np.repeat(node_off[:-1], sizes))[order]
        self.level_ptr = np.concatenate(([0], np.cumsum(np.bincount(level))))
        self.leaves = new_id[node_off[1:] - 1]

        self.edge_ptr = np.concatenate(([0], np.cumsum([lat.num_edges for lat in lattices])))
        self.edge_src = new_id[np.concatenate([lat.edge_src + off for lat, off in zip(lattices, node_off)])]
        self.edge_dst = new_id[np.concatenate([lat.edge_dst + off for lat, off in zip(lattices, node_off)])]
        self.cell_ids = np.concatenate([lat.cell_ids for lat in lattices])
        self.P = _block_diagonal([lat.P for lat in lattices])
        self.part_edges = _block_diagonal([lat.part_edges for lat in lattices])
        self.part_edges_T = self.part_edges.T
        runs = np.concatenate([lat.forward_sweep.order + off for lat, off in zip(lattices, self.edge_ptr)])
        self.forward_sweep = self._forward_sweep(runs[np.argsort(self.edge_dst[runs], kind="stable")])

    def local_ids(self, nodes: list[int]) -> list[int]:
        return self.local_node[nodes].tolist()


def _block_diagonal(blocks: Sequence[csr_matrix]) -> csr_matrix:
    """The CSR matrix with ``blocks`` down its diagonal, each row's entries
    in its block's order.  Its index arrays are ``int32`` where they fit, as
    the blocks' are, so scipy takes them without a scan or a copy."""
    rows = sum(block.shape[0] for block in blocks)
    col_off = np.cumsum([0] + [block.shape[1] for block in blocks])
    nnz_off = np.cumsum([0] + [block.nnz for block in blocks])
    if max(rows, col_off[-1], nnz_off[-1]) <= np.iinfo(np.int32).max:
        col_off, nnz_off = col_off.astype(np.int32), nnz_off.astype(np.int32)
    indptr = np.concatenate([block.indptr[:-1] + off for block, off in zip(blocks, nnz_off)] + [nnz_off[-1:]])
    indices = np.concatenate([block.indices + off for block, off in zip(blocks, col_off)])
    data = np.concatenate([block.data for block in blocks])
    return csr_matrix((data, indices, indptr), shape=(rows, int(col_off[-1])))


class _Builder:
    """Collects one topology: levels of nodes, then edges, each with the
    parts it carries named by slot key.  Slots are numbered in first-use
    order, and ``entry_part``/``entry_edge`` list every (part, edge) pair in
    edge order: the entries of the topology's ``part_edges``."""

    def __init__(self, model_kind: str) -> None:
        self.model_kind = model_kind
        self.nodes: list[Node] = []
        self.node_ids: dict[Node, int] = {}
        self.level_ptr: list[int] = []
        self.edge_src: list[int] = []
        self.edge_dst: list[int] = []
        self.entry_part: list[int] = []
        self.entry_edge: list[int] = []
        self.slots: list[tuple] = []
        self.slot_ids: dict[tuple, int] = {}

    def new_level(self) -> None:
        """Start a level: the nodes added next, up to the next call, form it."""
        self.level_ptr.append(len(self.nodes))

    def add_node(self, node: Node) -> int:
        nid = len(self.nodes)
        self.nodes.append(node)
        self.node_ids[node] = nid
        return nid

    def _slot_id(self, slot: tuple) -> int:
        sid = self.slot_ids.get(slot)
        if sid is None:
            sid = self.slot_ids[slot] = len(self.slots)
            self.slots.append(slot)
        return sid

    def add_edge(self, src: int, dst: int, *slots: tuple) -> None:
        """Append an edge that carries the parts named by ``slots``."""
        if not src < dst:
            raise AssertionError("edges must go forward in topological order")
        for slot in slots:
            self.entry_part.append(self._slot_id(slot))
            self.entry_edge.append(len(self.edge_src))
        self.edge_src.append(src)
        self.edge_dst.append(dst)


class _FeatureMemo:
    """Reference features: one extractor call per slot, the part's
    features by the template methods themselves.

    A slot key is a method name and its arguments.  :func:`build_lattice`
    compiles the same features through an attribute pattern instead; the
    tests hold the two equal.  Without an extractor every part is empty.  The
    benchmark's tracer still wraps the four methods by name
    (``perfbench/tracing.py``), so its ``features.extract`` spans stay empty.
    """

    def __init__(self, extractor: FeatureExtractor | None, sentence: Sentence) -> None:
        self.extractor = extractor
        self.sentence = sentence

    def part(self, slot: tuple) -> np.ndarray:
        if self.extractor is None:
            return NO_IDS
        method, *args = slot
        return getattr(self, method)(*args)

    def segment(self, first: int, last: int, label: str) -> np.ndarray:
        return self.extractor.segment_features(self.sentence, first, last, label)

    def transition(self, prev_label: str, label: str) -> np.ndarray:
        return self.extractor.transition_features(prev_label, label)

    def token_context(self, position: int, cur_tag: str) -> np.ndarray:
        return self.extractor.token_context_features(self.sentence, position, cur_tag)

    def token_transition(self, prev_tag: str, cur_tag: str) -> np.ndarray:
        return self.extractor.token_transition_features(prev_tag, cur_tag)


def _bio_tags(label_set: LabelSet) -> list[str]:
    """The trellis's node labels, ``O`` first, then ``B-``/``I-`` per chunk
    label: decoding tie-breaks and first-use feature order follow it."""
    return [OUTSIDE, *(f"{prefix}-{label}" for label in label_set.chunk_labels for prefix in "BI")]


def _bio_follows(prev: str, tag: str) -> bool:
    """Whether ``tag`` may follow ``prev`` (``O`` before the first token):
    ``I-X`` continues only ``B-X`` or ``I-X``; any other tag follows anything."""
    return not tag.startswith("I-") or prev in (f"B-{tag[2:]}", tag)


def _linear_topology(n: int, label_set: LabelSet) -> Topology:
    """Token-level trellis over BIO tags, with an edge wherever
    :func:`_bio_follows` lets one tag follow another."""
    b = _Builder("linear")
    tags = _bio_tags(label_set)
    b.new_level()
    b.add_node(Node("root", -1))
    for i in range(n):
        b.new_level()
        for tag in tags:
            if i > 0 or _bio_follows(OUTSIDE, tag):  # the first tag continues nothing
                b.add_node(Node("tag", i, tag))
    b.new_level()
    leaf = b.add_node(Node("leaf", n))

    for tag in tags:
        dst = b.node_ids.get(Node("tag", 0, tag))
        if dst is not None:
            b.add_edge(0, dst, ("token_context", 0, tag), ("token_transition", START_LABEL, tag))
    for i in range(1, n):
        for cur in tags:
            dst = b.node_ids[Node("tag", i, cur)]
            ctx = ("token_context", i, cur)
            for prev in tags:
                src = b.node_ids.get(Node("tag", i - 1, prev))
                if src is not None and _bio_follows(prev, cur):
                    b.add_edge(src, dst, ctx, ("token_transition", prev, cur))
    for tag in tags:
        src = b.node_ids.get(Node("tag", n - 1, tag))
        if src is not None:
            b.add_edge(src, leaf, ("token_context", n, STOP_LABEL), ("token_transition", tag, STOP_LABEL))
    return Topology(b)


def _semi_topology(n: int, label_set: LabelSet, max_seg_len: int) -> Topology:
    """Segment lattice: an edge covers a whole segment and carries both the
    segment templates and the transition template.  Outside segments are
    one token long."""
    b = _Builder("semi")
    alphabet = label_set.alphabet
    b.new_level()
    b.add_node(Node("root", -1))
    for i in range(n):
        b.new_level()
        for label in alphabet:
            b.add_node(Node("seg", i, label))
    b.new_level()
    leaf = b.add_node(Node("leaf", n))

    for i in range(n):
        for label in alphabet:
            dst = b.node_ids[Node("seg", i, label)]
            limit = 1 if label == OUTSIDE else max_seg_len
            for k in range(1, min(limit, i + 1) + 1):
                j = i - k
                seg = ("segment", j + 1, i, label)
                if j < 0:
                    b.add_edge(0, dst, seg, ("transition", START_LABEL, label))
                else:
                    for prev in alphabet:
                        b.add_edge(b.node_ids[Node("seg", j, prev)], dst, seg, ("transition", prev, label))
    for label in alphabet:
        b.add_edge(b.node_ids[Node("seg", n - 1, label)], leaf, ("transition", label, STOP_LABEL))
    return Topology(b)


def _weak_topology(n: int, label_set: LabelSet, max_seg_len: int) -> Topology:
    """Split-node segment lattice: segment-length and label-transition
    decisions live on separate edges.  Outside segments are one token long."""
    b = _Builder("weak")
    alphabet = label_set.alphabet
    b.new_level()
    b.add_node(Node("root", -1))
    for i in range(n):
        b.new_level()
        for label in alphabet:
            b.add_node(Node("begin", i, label))
        b.new_level()
        for label in alphabet:
            b.add_node(Node("end", i, label))
    b.new_level()
    leaf = b.add_node(Node("leaf", n))

    for label in alphabet:
        b.add_edge(0, b.node_ids[Node("begin", 0, label)], ("transition", START_LABEL, label))
    for j in range(n):
        for label in alphabet:
            src = b.node_ids[Node("begin", j, label)]
            limit = 1 if label == OUTSIDE else max_seg_len
            for i in range(j, min(j + limit, n)):
                b.add_edge(src, b.node_ids[Node("end", i, label)], ("segment", j, i, label))
    for i in range(n - 1):
        for prev in alphabet:
            src = b.node_ids[Node("end", i, prev)]
            for label in alphabet:
                b.add_edge(src, b.node_ids[Node("begin", i + 1, label)], ("transition", prev, label))
    for label in alphabet:
        b.add_edge(b.node_ids[Node("end", n - 1, label)], leaf, ("transition", label, STOP_LABEL))
    return Topology(b)


@lru_cache(maxsize=TOPOLOGY_CACHE_SIZE)
def topology(model_kind: str, n: int, label_set: LabelSet, max_seg_len: int) -> Topology:
    """The shared topology of every ``n``-token lattice of one family, label
    set and segment-length limit (``linear`` ignores the limit)."""
    if n == 0:
        raise ValueError("cannot build a lattice for an empty sentence")
    if model_kind == "linear":
        return _linear_topology(n, label_set)
    if model_kind not in MODEL_KINDS:
        raise ValueError(f"unknown model kind {model_kind!r} (expected one of {MODEL_KINDS})")
    if max_seg_len < 1:
        raise ValueError("max_seg_len must be >= 1")
    if model_kind == "semi":
        return _semi_topology(n, label_set, max_seg_len)
    return _weak_topology(n, label_set, max_seg_len)


def build_lattice(
    model_kind: str,
    sentence: Sentence,
    label_set: LabelSet,
    max_seg_len: int,
    extractor: FeatureExtractor | None,
) -> Lattice:
    """Compile ``sentence``'s lattice: the cached topology of its shape plus
    the feature id of each of the shape's cells (no cells without an
    extractor)."""
    shape = topology(model_kind, len(sentence), label_set, max_seg_len)
    if extractor is None:
        return Lattice(shape, NO_IDS, shape.no_cells)
    pattern = shape.pattern(extractor.layout)
    return Lattice(shape, extractor.part_table(sentence, pattern), pattern.P)
