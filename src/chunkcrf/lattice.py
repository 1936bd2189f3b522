"""Per-sentence labeling lattices for the three model families.

Each lattice is a rooted DAG whose root-to-leaf paths are in bijection with
the legal labelings of one sentence:

- ``linear``: one node per (position, BIO tag); edges connect adjacent
  positions and respect BIO validity.
- ``semi``: one node per (position, segment label), a node marking a segment
  that ends at that position; an edge spans the whole segment, so it carries
  the segment templates plus the label-transition template.
- ``weak``: every segment node splits into a Begin and an End node.  Segment
  edges (Begin -> End, same label) carry only segment templates; transition
  edges (End -> next Begin, any label pair) carry only the transition
  template.  Choosing a segment's length and choosing the next label become
  separate decisions, which shrinks the edge count from
  O(n * L * |labels|^2) to O(n * |labels|^2 + n * L * |labels|).

Nodes are stored level by level (outside label first within a layer;
decoding tie-breaks rely on that): the root, then one level per position (two
in ``weak``: its Begin nodes, then its End nodes), then the leaf.  Every edge
climbs from a lower level to a higher one, and every node is reachable from
the root and co-reachable from the leaf.  The dynamic programs run level by
level, over one lattice or over a :class:`Batch` of lattices of one family.

A lattice is a :class:`Topology` plus a part table.  The topology (nodes,
levels, edges, adjacency and sweeps) depends only on the family, the
sentence length, the label set and the segment-length limit (outside
segments are always one token long), so it is built once per such shape,
cached, and shared by every sentence of that shape.  It names each edge's
features by two *slots*: template keys such as ``("segment", first, last,
label)`` or ``("transition", prev, label)``, with slot 0 the empty part that
pads an edge with one.  The sentence's part table then holds the feature
ids of each slot, so an edge's score is the sum of two part scores and many
edges share each part: in a ``semi`` lattice all ``|labels|`` edges into one
segment share its segment part, and all edges between one label pair share
its transition part.

The part table is compiled for the whole sentence at once.  Every slot's
features are label-free attributes conjoined with the slot's label (see
``features.py``), so a topology compiles, once per template layout, an
:class:`~chunkcrf.features.AttributePattern`: for every (slot, template)
entry, which word row and column, or which transition attribute, it reads,
and which label it takes.  A sentence then gathers its word rows through the
pattern and the resulting (attribute, label) pairs through the extractor's
feature-id table.  :class:`_FeatureMemo`, one extractor call per slot, is the
reference the compiled table equals bit for bit.  A built lattice is
immutable and safe to share read-only.  Training compiles each sentence of
its split once, while the objective evaluator is built, and every evaluation
reuses those lattices.
"""

from __future__ import annotations

import enum
from collections.abc import Sequence
from dataclasses import dataclass
from functools import cached_property, lru_cache

import numpy as np

from .core import (
    OUTSIDE, BioSequence, LabelSet, Sentence, WordSpan, bio_to_word_spans, ordered_spans, word_spans_to_bio,
)
from .features import (
    LINEAR_TRANSITION_PREFIX,
    SEGMENT_TRANSITION_PREFIX,
    START_LABEL,
    STOP_LABEL,
    AttributePattern,
    FeatureConfig,
    FeatureExtractor,
    TemplateLayout,
)

MODEL_KINDS = ("linear", "semi", "weak")

# Topologies :func:`topology` keeps: every sentence length of a corpus, per family.
TOPOLOGY_CACHE_SIZE = 128
EMPTY_SLOT = ("empty",)  # slot 0 of every topology
EMPTY_PART = np.zeros(0, dtype=np.int32)  # its feature ids
EMPTY_PART.flags.writeable = False


class LatticeError(ValueError):
    """Raised when a labeling cannot be represented in a lattice."""


class NodeKind(enum.Enum):
    ROOT = "root"
    LEAF = "leaf"
    TAG = "tag"       # linear trellis only
    SEG = "seg"       # segment lattice: a segment with this label ends here
    BEGIN = "begin"   # split-node lattice only
    END = "end"       # split-node lattice only


class EdgeClass(enum.Enum):
    TRANSITION = "transition"
    SEGMENT = "segment"


@dataclass(frozen=True, slots=True)
class Node:
    kind: NodeKind
    position: int
    label: str | None = None

    def __str__(self) -> str:
        if self.kind is NodeKind.ROOT:
            return "Root"
        if self.kind is NodeKind.LEAF:
            return "Leaf"
        return f"{self.kind.value.capitalize()}({self.position},{self.label})"


@dataclass(frozen=True)
class Sweep:
    """One direction of a level schedule.

    Each step computes the node range ``a:b`` from the edge run ``lo:hi`` of
    ``order``: the edge at run position ``i`` reads node ``read[i]`` and
    feeds node ``write[i]``, and ``starts`` holds the offset of each node's
    first edge within the run (no node's run is empty).
    """

    order: np.ndarray
    read: np.ndarray
    write: np.ndarray
    steps: list[tuple[int, int, int, int, np.ndarray]]


class LevelGraph:
    """Level-ordered DAG with a part table: what the dynamic programs run on.

    Level ``l`` is the node range ``level_ptr[l]:level_ptr[l + 1]``.  Level 0
    holds the roots, every edge climbs to a higher level, and within a level
    the nodes with no out-edges (the leaves, one per member) come last.  A
    :class:`Lattice` is such a graph with one member; a :class:`Batch` is the
    disjoint union of several.  Member ``i`` owns edges
    ``edge_ptr[i]:edge_ptr[i + 1]`` and ends in node ``leaves[i]``.

    Adjacency is CSR: node ``v``'s in-edges are
    ``in_order[in_ptr[v]:in_ptr[v + 1]]``, sorted by source, so each level's
    in-edges form one run and the lowest source comes first (decoding breaks
    ties toward it); ``out_order``/``out_ptr`` list out-edges by source.

    Edge ``e``'s features are those of parts ``edge_parts[e, 0]`` and
    ``edge_parts[e, 1]``, in that order.  The part table lists every part's
    feature ids once, part by part: ``part_idx`` holds the ids and
    ``part_row`` the part of each entry (sorted, so part ``p`` is one
    contiguous run).
    """

    def _index(self, in_order: np.ndarray, out_order: np.ndarray) -> None:
        n = self.num_nodes
        self.in_order = in_order.astype(np.int32)
        self.in_ptr = np.concatenate(([0], np.cumsum(np.bincount(self.edge_dst, minlength=n))))
        self.out_order = out_order.astype(np.int32)
        self.out_ptr = np.concatenate(([0], np.cumsum(np.bincount(self.edge_src, minlength=n))))

    @property
    def num_edges(self) -> int:
        return len(self.edge_src)

    @property
    def num_levels(self) -> int:
        return len(self.level_ptr) - 1

    def node_levels(self) -> np.ndarray:
        return np.repeat(np.arange(self.num_levels), np.diff(self.level_ptr))

    def in_edge_ids(self, v: int) -> np.ndarray:
        """Ids of the edges into node ``v``, by source."""
        return self.in_order[self.in_ptr[v] : self.in_ptr[v + 1]]

    def out_edge_ids(self, v: int) -> np.ndarray:
        """Ids of the edges out of node ``v``."""
        return self.out_order[self.out_ptr[v] : self.out_ptr[v + 1]]

    def local_ids(self, nodes: list[int]) -> list[int]:
        """Member-local ids of the given nodes (a lattice's are its own)."""
        return nodes

    @cached_property
    def forward_sweep(self) -> Sweep:
        """Levels bottom-up, each node from its in-edges."""
        bounds = self.level_ptr.tolist()
        return _sweep(self.in_order, self.in_ptr, self.edge_src, self.edge_dst, zip(bounds[1:-1], bounds[2:]))

    @cached_property
    def backward_sweep(self) -> Sweep:
        """Levels top-down, each node with out-edges from them; those are
        the level's first nodes, up to the first leaf."""
        ptr = self.out_ptr
        bounds = self.level_ptr.tolist()
        ranges = [(a, max(a, int(np.searchsorted(ptr, ptr[b])))) for a, b in zip(bounds[-2::-1], bounds[:0:-1])]
        return _sweep(self.out_order, ptr, self.edge_dst, self.edge_src, ranges)


def _sweep(order, ptr, read, write, ranges) -> Sweep:
    steps = [(a, b, int(ptr[a]), int(ptr[b]), ptr[a:b] - ptr[a]) for a, b in ranges if b > a]
    return Sweep(order, read[order], write[order], steps)


class Topology(LevelGraph):
    """Structure shared by every lattice of one shape: nodes, levels, edge
    arrays, adjacency and sweeps, with one root (node 0) and one leaf (the
    last node), compiled from a :class:`_Builder`.

    ``edge_parts[e]`` holds the slots of edge ``e``'s two parts, numbered in
    first-use order; ``slots[s]`` is slot ``s``'s template key, and slot 0 is
    the empty part.  :func:`topology` caches topologies, so their arrays are
    read-only; each also keeps the attribute patterns compiled for it.
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

        self.edge_src = np.asarray(b.edge_src, dtype=np.int32)
        self.edge_dst = np.asarray(b.edge_dst, dtype=np.int32)
        self.edge_ptr = np.array([0, len(b.edge_src)])
        self.edge_parts = np.asarray(b.edge_parts, dtype=np.int32).reshape(-1, 2)
        self.slots = b.slots
        self._patterns: dict[FeatureConfig, AttributePattern] = {}

        self._index(np.lexsort((self.edge_src, self.edge_dst)), np.argsort(self.edge_src, kind="stable"))
        self._check_connected()
        for array in (self.leaves, self.level_ptr, self.edge_src, self.edge_dst, self.edge_ptr, self.edge_parts,
                      self.in_order, self.in_ptr, self.out_order, self.out_ptr):
            array.flags.writeable = False

    def _check_connected(self) -> None:
        """Level 0 is the root alone and the last level the leaf alone, every
        edge climbs at least one level, every other node has an in-edge and
        every node but the leaf an out-edge.  By induction over the levels,
        every node is then reachable from the root and reaches the leaf."""
        level = self.node_levels()
        in_deg = np.diff(self.in_ptr)
        out_deg = np.diff(self.out_ptr)
        if not np.all(level[self.edge_src] < level[self.edge_dst]):
            raise AssertionError("an edge does not climb from a lower level to a higher one")
        ends_ok = self.level_ptr[1] == 1 and self.level_ptr[-2] == self.leaf
        if not (ends_ok and in_deg[1:].all() and out_deg[:-1].all()):
            raise AssertionError("lattice has unreachable or dead-end nodes")

    def pattern(self, layout: TemplateLayout) -> AttributePattern:
        """Where each slot's features come from under ``layout``, compiled on
        first use per feature configuration."""
        pattern = self._patterns.get(layout.config)
        if pattern is None:
            pattern = self._patterns[layout.config] = _compile_pattern(self, layout)
        return pattern

    def edge_id(self, src: int, dst: int) -> int | None:
        """Id of the edge from ``src`` to ``dst``, or ``None`` if there is none."""
        eids = self.in_edge_ids(dst)
        k = int(np.searchsorted(self.edge_src[eids], src))
        if k < len(eids) and self.edge_src[eids[k]] == src:
            return int(eids[k])
        return None

    def edge_class(self, eid: int) -> EdgeClass:
        """Segment edges are exactly those that end on a segment node."""
        if self.nodes[self.edge_dst[eid]].kind in (NodeKind.SEG, NodeKind.END):
            return EdgeClass.SEGMENT
        return EdgeClass.TRANSITION

    def edge_list_text(self) -> str:
        """Debug export: one ``from -> to [class]`` line per edge."""
        lines = [
            f"{self.nodes[src]} -> {self.nodes[dst]} [{self.edge_class(eid).value}]"
            for eid, (src, dst) in enumerate(zip(self.edge_src, self.edge_dst))
        ]
        return "\n".join(lines) + "\n"

    def path_spans(self, node_path: list[int]) -> list[WordSpan]:
        """Chunk spans encoded by a full root-to-leaf node path."""
        interior = [self.nodes[v] for v in node_path[1:-1]]
        if self.model_kind == "linear":
            tags = tuple(node.label for node in interior)
            return bio_to_word_spans(BioSequence(tags))
        spans: list[WordSpan] = []
        if self.model_kind == "semi":
            prev_end = -1
            for node in interior:
                if node.label != OUTSIDE:
                    spans.append(WordSpan(prev_end + 1, node.position, node.label))
                prev_end = node.position
            return spans
        for begin, end in zip(interior[0::2], interior[1::2]):
            if begin.label != OUTSIDE:
                spans.append(WordSpan(begin.position, end.position, begin.label))
        return spans


class Lattice:
    """Immutable compiled lattice of one sentence: its shape's shared
    :class:`Topology` plus the sentence's part table, whose part ``s`` holds
    the features of slot ``s``.

    Every other attribute (nodes, levels, edge arrays, ``edge_parts``,
    adjacency, sweeps and the path mapping) is the topology's, so a lattice
    runs wherever a :class:`LevelGraph` does.
    """

    def __init__(self, topology: Topology, sentence: Sentence, part_idx: np.ndarray, part_row: np.ndarray) -> None:
        self.topology = topology
        self.sentence = sentence
        self.num_parts = len(topology.slots)
        self.part_idx = part_idx
        self.part_row = part_row

    def __getattr__(self, name: str):
        return getattr(self.topology, name)

    def edge_features(self, eid: int) -> np.ndarray:
        """Feature ids of edge ``eid``: its first part's, then its second's."""
        bounds = np.searchsorted(self.part_row, [self.edge_parts[eid], self.edge_parts[eid] + 1])
        return np.concatenate([self.part_idx[lo:hi] for lo, hi in bounds.T])

    def _segments(self, spans: list[WordSpan]) -> list[tuple[int, int, str]]:
        segments: list[tuple[int, int, str]] = []
        cursor = 0
        for span in ordered_spans(spans, len(self.sentence)):
            while cursor < span.first_token:
                segments.append((cursor, cursor, OUTSIDE))
                cursor += 1
            segments.append((span.first_token, span.last_token, span.label))
            cursor = span.last_token + 1
        while cursor < len(self.sentence):
            segments.append((cursor, cursor, OUTSIDE))
            cursor += 1
        return segments

    def gold_edge_ids(self, spans: list[WordSpan]) -> list[int]:
        """Edge path realizing the given chunk structure.

        Raises :class:`LatticeError` when the structure is not representable
        (spans :func:`~chunkcrf.core.ordered_spans` rejects, an unknown label,
        a segment too long, or a missing edge).
        """
        try:
            if self.model_kind == "linear":
                bio = word_spans_to_bio(self.sentence, spans)
                keys = [("tag", i, tag) for i, tag in enumerate(bio.tags)]
            elif self.model_kind == "semi":
                keys = [("seg", last, label) for _, last, label in self._segments(spans)]
            else:
                keys = []
                for first, last, label in self._segments(spans):
                    keys.append(("begin", first, label))
                    keys.append(("end", last, label))
        except ValueError as exc:
            raise LatticeError(str(exc)) from exc
        path = [self.root]
        for key in keys:
            node = self._node_ids.get(key)
            if node is None:
                raise LatticeError(f"no lattice node for {key}")
            path.append(node)
        path.append(self.leaf)
        edges = []
        for src, dst in zip(path, path[1:]):
            eid = self.edge_id(src, dst)
            if eid is None:
                raise LatticeError(f"missing edge {self.nodes[src]} -> {self.nodes[dst]}")
            edges.append(eid)
        return edges


class Batch(LevelGraph):
    """Disjoint union of lattices of one family, so that each dynamic program
    runs once over all of them.

    Member ``i``'s edges are batch edges ``edge_ptr[i]:edge_ptr[i + 1]`` in
    the member's own order, and its parts one block of the concatenated part
    table.  Nodes are renumbered by level, then leaves last (a short member's
    leaf shares a level with interior nodes of longer members, and a level's
    out-edge run must not hold an empty segment, which ``reduceat`` cannot
    take), then by member and member node id, which keeps each member's
    source order for tie-breaking.  ``local_node`` maps a batch node to its
    id in its member.

    Since renumbering keeps each member's node order, the adjacency is each
    member's own, offset and stably sorted by batch node: the same arrays as
    a sort of every edge, from runs that are already sorted.
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
        is_leaf = np.zeros(self.num_nodes, dtype=np.int64)
        is_leaf[node_off[1:] - 1] = 1
        order = np.argsort(2 * level + is_leaf, kind="stable")
        new_id = np.empty(self.num_nodes, dtype=np.int32)
        new_id[order] = np.arange(self.num_nodes, dtype=np.int32)
        self.local_node = (np.arange(self.num_nodes) - np.repeat(node_off[:-1], sizes))[order]
        self.level_ptr = np.concatenate(([0], np.cumsum(np.bincount(level))))
        self.leaves = new_id[node_off[1:] - 1]

        self.edge_ptr = np.concatenate(([0], np.cumsum([lat.num_edges for lat in lattices])))
        self.edge_src = new_id[np.concatenate([lat.edge_src + off for lat, off in zip(lattices, node_off)])]
        self.edge_dst = new_id[np.concatenate([lat.edge_dst + off for lat, off in zip(lattices, node_off)])]
        part_off = np.concatenate(([0], np.cumsum([lat.num_parts for lat in lattices])))
        self.num_parts = int(part_off[-1])
        self.edge_parts = np.concatenate([lat.edge_parts + off for lat, off in zip(lattices, part_off)])
        self.part_idx = np.concatenate([lat.part_idx for lat in lattices])
        self.part_row = np.concatenate([lat.part_row + off for lat, off in zip(lattices, part_off)])
        in_order = np.concatenate([lat.in_order + off for lat, off in zip(lattices, self.edge_ptr)])
        out_order = np.concatenate([lat.out_order + off for lat, off in zip(lattices, self.edge_ptr)])
        self._index(in_order[np.argsort(self.edge_dst[in_order], kind="stable")],
                    out_order[np.argsort(self.edge_src[out_order], kind="stable")])

    def local_ids(self, nodes: list[int]) -> list[int]:
        return self.local_node[nodes].tolist()


class _Builder:
    """Collects one topology: levels of nodes, then edges whose two parts
    are named by slot key."""

    def __init__(self, model_kind: str) -> None:
        self.model_kind = model_kind
        self.nodes: list[Node] = []
        self.node_ids: dict[tuple, int] = {}
        self.level_ptr: list[int] = []
        self.edge_src: list[int] = []
        self.edge_dst: list[int] = []
        self.edge_parts: list[int] = []
        self.slots: list[tuple] = [EMPTY_SLOT]
        self.slot_ids: dict[tuple, int] = {EMPTY_SLOT: 0}

    def new_level(self) -> None:
        """Start a level: the nodes added next, up to the next call, form it."""
        self.level_ptr.append(len(self.nodes))

    def add_node(self, key: tuple, node: Node) -> int:
        nid = len(self.nodes)
        self.nodes.append(node)
        self.node_ids[key] = nid
        return nid

    def _slot_id(self, slot: tuple) -> int:
        sid = self.slot_ids.get(slot)
        if sid is None:
            sid = self.slot_ids[slot] = len(self.slots)
            self.slots.append(slot)
        return sid

    def add_edge(self, src: int, dst: int, first: tuple, second: tuple = EMPTY_SLOT) -> None:
        """Append an edge whose features are those of slots ``first`` then
        ``second``."""
        if not src < dst:
            raise AssertionError("edges must go forward in topological order")
        self.edge_src.append(src)
        self.edge_dst.append(dst)
        self.edge_parts.append(self._slot_id(first))
        self.edge_parts.append(self._slot_id(second))


class _FeatureMemo:
    """Reference part table: one extractor call per slot, the part's
    features by the template methods themselves.

    A slot key is a method name and its arguments.  :func:`build_lattice`
    compiles the same table through an attribute pattern instead; the tests
    hold the two equal.  Without an extractor every part is empty.  The
    benchmark's tracer still wraps the four methods by name
    (``perfbench/tracing.py``), so its ``features.extract`` spans stay empty.
    """

    def __init__(self, extractor: FeatureExtractor | None, sentence: Sentence) -> None:
        self.extractor = extractor
        self.sentence = sentence

    def part(self, slot: tuple) -> np.ndarray:
        if self.extractor is None or slot == EMPTY_SLOT:
            return EMPTY_PART
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


def _bio_ok(prev_tag: str, cur_tag: str) -> bool:
    if cur_tag.startswith("I-"):
        return prev_tag == f"B-{cur_tag[2:]}" or prev_tag == cur_tag
    return True


def _linear_topology(n: int, label_set: LabelSet) -> Topology:
    """Token-level trellis over BIO tags with validity-pruned edges."""
    b = _Builder("linear")
    tags = label_set.bio_tags
    b.new_level()
    b.add_node(("root",), Node(NodeKind.ROOT, -1))
    for i in range(n):
        b.new_level()
        for tag in tags:
            if i == 0 and tag.startswith("I-"):
                continue  # nothing to continue at the first position
            b.add_node(("tag", i, tag), Node(NodeKind.TAG, i, tag))
    b.new_level()
    leaf = b.add_node(("leaf",), Node(NodeKind.LEAF, n))

    for tag in tags:
        if tag.startswith("I-"):
            continue
        b.add_edge(0, b.node_ids[("tag", 0, tag)], ("token_context", 0, tag), ("token_transition", START_LABEL, tag))
    for i in range(1, n):
        for cur in tags:
            dst = b.node_ids[("tag", i, cur)]
            ctx = ("token_context", i, cur)
            for prev in tags:
                if i == 1 and prev.startswith("I-"):
                    continue
                if not _bio_ok(prev, cur):
                    continue
                b.add_edge(b.node_ids[("tag", i - 1, prev)], dst, ctx, ("token_transition", prev, cur))
    for tag in tags:
        if n == 1 and tag.startswith("I-"):
            continue
        ctx = ("token_context", n, STOP_LABEL)
        b.add_edge(b.node_ids[("tag", n - 1, tag)], leaf, ctx, ("token_transition", tag, STOP_LABEL))
    return Topology(b)


def _semi_topology(n: int, label_set: LabelSet, max_seg_len: int) -> Topology:
    """Segment lattice: an edge covers a whole segment and carries both the
    segment templates and the transition template.  Outside segments are
    one token long."""
    b = _Builder("semi")
    alphabet = label_set.alphabet
    b.new_level()
    b.add_node(("root",), Node(NodeKind.ROOT, -1))
    for i in range(n):
        b.new_level()
        for label in alphabet:
            b.add_node(("seg", i, label), Node(NodeKind.SEG, i, label))
    b.new_level()
    leaf = b.add_node(("leaf",), Node(NodeKind.LEAF, n))

    for i in range(n):
        for label in alphabet:
            dst = b.node_ids[("seg", i, label)]
            limit = 1 if label == OUTSIDE else max_seg_len
            for k in range(1, min(limit, i + 1) + 1):
                j = i - k
                seg = ("segment", j + 1, i, label)
                if j < 0:
                    b.add_edge(0, dst, seg, ("transition", START_LABEL, label))
                else:
                    for prev in alphabet:
                        b.add_edge(b.node_ids[("seg", j, prev)], dst, seg, ("transition", prev, label))
    for label in alphabet:
        b.add_edge(b.node_ids[("seg", n - 1, label)], leaf, ("transition", label, STOP_LABEL))
    return Topology(b)


def _weak_topology(n: int, label_set: LabelSet, max_seg_len: int) -> Topology:
    """Split-node segment lattice: segment-length and label-transition
    decisions live on separate edges.  Outside segments are one token long."""
    b = _Builder("weak")
    alphabet = label_set.alphabet
    b.new_level()
    b.add_node(("root",), Node(NodeKind.ROOT, -1))
    for i in range(n):
        b.new_level()
        for label in alphabet:
            b.add_node(("begin", i, label), Node(NodeKind.BEGIN, i, label))
        b.new_level()
        for label in alphabet:
            b.add_node(("end", i, label), Node(NodeKind.END, i, label))
    b.new_level()
    leaf = b.add_node(("leaf",), Node(NodeKind.LEAF, n))

    for label in alphabet:
        b.add_edge(0, b.node_ids[("begin", 0, label)], ("transition", START_LABEL, label))
    for j in range(n):
        for label in alphabet:
            src = b.node_ids[("begin", j, label)]
            limit = 1 if label == OUTSIDE else max_seg_len
            for i in range(j, min(j + limit, n)):
                b.add_edge(src, b.node_ids[("end", i, label)], ("segment", j, i, label))
    for i in range(n - 1):
        for prev in alphabet:
            src = b.node_ids[("end", i, prev)]
            for label in alphabet:
                b.add_edge(src, b.node_ids[("begin", i + 1, label)], ("transition", prev, label))
    for label in alphabet:
        b.add_edge(b.node_ids[("end", n - 1, label)], leaf, ("transition", label, STOP_LABEL))
    return Topology(b)


def _compile_pattern(shape: Topology, layout: TemplateLayout) -> AttributePattern:
    """Lay every slot's template entries out over a sentence's source
    vector (see :class:`~chunkcrf.features.AttributePattern`)."""
    kind = "token" if shape.model_kind == "linear" else "segment"
    width = layout.width(kind)
    n = shape.nodes[shape.leaf].position
    labels = tuple(sorted({slot[-1] for slot in shape.slots[1:]}))
    label_col = {label: i for i, label in enumerate(labels)}
    transitions: dict[str, int] = {}
    attr_pos: list[int] = []
    label_pos: list[int] = []
    entry_part: list[int] = []
    for sid, (method, *args) in enumerate(shape.slots):
        if method == "empty":
            continue
        label = args[-1]
        if method in ("transition", "token_transition"):
            prefix = SEGMENT_TRANSITION_PREFIX if method == "transition" else LINEAR_TRANSITION_PREFIX
            t = transitions.setdefault(prefix + args[0], len(transitions))
            pos = [(n + 2) * width + t]
        else:
            cells = layout.segment_cells(*args) if method == "segment" else layout.token_cells(args[0])
            pos = [(p + 1) * width + col for p, col in cells]
        attr_pos += pos
        label_pos += [label_col[label]] * len(pos)
        entry_part += [sid] * len(pos)
    arrays = [np.asarray(a, dtype=np.int32) for a in (attr_pos, label_pos, entry_part)]
    for array in arrays:
        array.flags.writeable = False
    return AttributePattern(kind, labels, tuple(transitions), *arrays)


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
    the feature ids of each slot."""
    shape = topology(model_kind, len(sentence), label_set, max_seg_len)
    if extractor is None:
        return Lattice(shape, sentence, EMPTY_PART, EMPTY_PART)
    part_idx, part_row = extractor.part_table(sentence, shape.pattern(extractor.layout))
    return Lattice(shape, sentence, part_idx, part_row)
