"""Feature templates for the three model families.

Template inventory (every feature string is conjoined with the current
tag/label after a ``|`` separator):

- token mode (linear trellis): previous word ``W[-1]``, current word
  ``W[0]``, tag transition ``T=prev|cur``.
- segment mode: words inside the segment indexed from the start ``WS[j]``
  and from the end ``WE[j]``, the words before/after the segment
  ``W[before]`` / ``W[after]``, label transition ``TR=prev|cur``.
- optional augmentations: character prefixes/suffixes up to length 3
  (``PRE``/``SUF``), a word-cluster id for each content word (``BR``/``BRS``),
  and word shapes mirroring every word-valued template (``S``/``SS``/``SE``).

Four template families (token context, tag transition, segment, label
transition) each have one :class:`FeatureExtractor` method returning their
feature ids as an ``int32`` array.  These methods are the reference
definition of the templates; lattices are compiled through the faster,
equivalent path below.

Sentinel words ``<BOS>``/``<EOS>`` stand in at sentence boundaries and pass
through the shape mapping unchanged; affix and cluster templates skip them.
Both rules look at the surface only, so a real token spelled ``<BOS>`` is
treated the same way.  Feature strings map to dense indices through a
freezable dictionary; once frozen, unseen strings are dropped rather than
allocated.  Both paths look strings up through one bulk call,
:meth:`FeatureDictionary.indices`: the template methods one part's strings
at a time, compiled lattices all the new strings of a sentence at once.

Attributes x labels.  Every feature string is a label-free observation
*attribute* (``WS[0]=cat``, ``TR=O``) conjoined with a label (as in CRFsuite).
A :class:`TemplateLayout` lays each word's attributes out in a fixed-width
*row*, one column per template role (``WS[j]``, ``PRE2[j]``, ``S[before]``,
...), with :data:`PAD_ATTRIBUTE` where the word has no value (an affix longer
than the word, an affix of a sentinel).  The extractor builds each word
type's row once and keeps a dense ``int32`` table from (attribute, label) to
feature id, filled lazily through the dictionary, with -1 for a feature the
frozen dictionary lacks.

:meth:`TemplateLayout.pattern` compiles the slots of a lattice shape
(``lattice.py`` names them) into an :class:`AttributePattern`.  It decides
where every slot's features come from: the layout of a sentence's source
vector (token slots read token rows, every other slot segment rows, and the
transition attributes follow the rows), the transition attribute strings,
and the shape's *cells*, the distinct (source position, label) pairs its
parts read.  A word's ``WS[0]`` cell is read by every segment that starts at
it, so a ``semi`` pattern has about three times as many (part, cell) entries
as cells; a ``linear`` one has as many.  A sentence's features are then two
gathers, :meth:`FeatureExtractor.part_table`: its word rows at the cells'
positions, then the resulting (attribute, label) pairs through the table,
one feature id per cell.  Which parts hold which cells is the pattern's
sparse matrix ``P``, the same for every sentence of the shape.  The pairs
the table has not met yet are its *first-use* cells: they are deduplicated
in first-use order, spelled out, and resolved in one bulk dictionary call
per sentence, so a warm table costs no Python work per cell.
"""

from __future__ import annotations

from collections.abc import Sequence
from dataclasses import dataclass
from itertools import repeat
from pathlib import Path

import numpy as np
from scipy.sparse import csr_matrix

from .core import OUTSIDE, Sentence
from .ingest import utf8_text

BOS_WORD = "<BOS>"
EOS_WORD = "<EOS>"
START_LABEL = "<START>"
STOP_LABEL = "<STOP>"
UNKNOWN_CLUSTER = "<UNK>"

LINEAR_TRANSITION_PREFIX = "T="
SEGMENT_TRANSITION_PREFIX = "TR="
TRANSITION_PREFIXES = (LINEAR_TRANSITION_PREFIX, SEGMENT_TRANSITION_PREFIX)
_TRANSITION_PREFIX = {"token_transition": LINEAR_TRANSITION_PREFIX, "transition": SEGMENT_TRANSITION_PREFIX}

PAD_ATTRIBUTE = 0  # attribute id of a role a word has no value for; its table row is all -1
UNSEEN = -2  # table cell not looked up in the dictionary yet
# Word types an extractor over a frozen dictionary keeps rows for; past this
# many it starts its caches afresh, so decoding an open-ended stream of new
# words holds them bounded (a growing dictionary's finite data bounds them).
WORD_CACHE_SIZE = 2048
# Largest ``max_seg_len`` (tokens) and ``affix_max_len`` (characters): a
# segment word row has about (5 + 2 * affix_max_len) * max_seg_len columns,
# laid out whenever an extractor is made, so a corrupt model header must not
# set them at will.
MAX_SEG_LEN_LIMIT = 100
AFFIX_MAX_LEN_LIMIT = 10


class FeatureDictionary:
    """Bidirectional feature-string <-> dense-index map with a freeze switch.

    :meth:`indices` looks strings up, many in one call; it allocates a
    string the dictionary lacks at the next index unless the dictionary is
    frozen, so strings keep the order they were first asked for.
    """

    __slots__ = ("_index", "_frozen")

    def __init__(self) -> None:
        self._index: dict[str, int] = {}  # in index order
        self._frozen = False

    def __len__(self) -> int:
        return len(self._index)

    @property
    def frozen(self) -> bool:
        return self._frozen

    def freeze(self) -> None:
        self._frozen = True

    def indices(self, features: Sequence[str]) -> np.ndarray:
        """The ``int32`` index of every string of ``features``, in one call.

        Unless frozen, the dictionary first allocates the strings it lacks in
        the order given, a repeated one once; a frozen dictionary never grows
        and gives -1 for a string it lacks.
        """
        index = self._index
        if not self._frozen:
            for feature in features:
                if feature not in index:
                    index[feature] = len(index)
        return np.fromiter(map(index.get, features, repeat(-1)), dtype=np.int32, count=len(features))

    @property
    def strings(self) -> tuple[str, ...]:
        return tuple(self._index)

    @classmethod
    def from_strings(cls, strings: list[str]) -> "FeatureDictionary":
        """A frozen dictionary listing ``strings`` in order (a repeated
        string once, at its first position)."""
        d = cls()
        d._index = dict(zip(dict.fromkeys(strings), range(len(strings))))
        d.freeze()
        return d


class BrownClusterMap:
    """Word -> cluster id lookup, total via an unknown-word sentinel."""

    __slots__ = ("_clusters",)

    def __init__(self, clusters: dict[str, str]) -> None:
        self._clusters = dict(clusters)

    def cluster(self, word: str) -> str:
        return self._clusters.get(word, UNKNOWN_CLUSTER)

    def __len__(self) -> int:
        return len(self._clusters)

    @property
    def entries(self) -> dict[str, str]:
        return dict(self._clusters)


def load_brown_clusters(path: str | Path) -> BrownClusterMap:
    """Read a tab-separated cluster file: ``cluster<TAB>word[<TAB>count]``.

    Duplicate words keep their first entry; a malformed line aborts with its
    line number.
    """
    clusters: dict[str, str] = {}
    with utf8_text(path) as fh:
        for lineno, line in enumerate(fh, start=1):
            line = line.rstrip("\n")
            if not line:
                continue
            parts = line.split("\t")
            if len(parts) < 2 or not parts[0] or not parts[1]:
                raise ValueError(f"{path}:{lineno}: malformed cluster line {line!r}")
            cluster, word = parts[0], parts[1]
            clusters.setdefault(word, cluster)
    return BrownClusterMap(clusters)


@dataclass(frozen=True)
class FeatureConfig:
    """Which augmentations are active, plus template-shaping limits."""

    use_affix: bool = False
    use_brown: bool = False
    use_shape: bool = False
    affix_max_len: int = 3
    max_seg_len: int = 6

    def __post_init__(self) -> None:
        for name in ("use_affix", "use_brown", "use_shape"):
            if not isinstance(getattr(self, name), bool):
                raise ValueError(f"{name} must be a bool, got {getattr(self, name)!r}")
        for name, limit in (("affix_max_len", AFFIX_MAX_LEN_LIMIT), ("max_seg_len", MAX_SEG_LEN_LIMIT)):
            value = getattr(self, name)
            if isinstance(value, bool) or not isinstance(value, int):
                raise ValueError(f"{name} must be an int, got {value!r}")
            if not 1 <= value <= limit:
                raise ValueError(f"{name} must be between 1 and {limit}, got {value}")


def word_shape(surface: str) -> str:
    """Collapse a word to its case/digit shape.

    Uppercase -> ``X``, lowercase -> ``x``, digit -> ``d``, anything else is
    kept verbatim; runs of an identical shape character longer than two
    collapse to two.
    """
    out: list[str] = []
    run_char = ""
    run_len = 0
    for ch in surface:
        if ch.isupper():
            shape = "X"
        elif ch.islower():
            shape = "x"
        elif ch.isdigit():
            shape = "d"
        else:
            shape = ch
        if shape == run_char:
            run_len += 1
        else:
            run_char, run_len = shape, 1
        if run_len <= 2:
            out.append(shape)
    return "".join(out)


def _shape_of(word: str) -> str:
    if word in (BOS_WORD, EOS_WORD):
        return word
    return word_shape(word)


class TemplateLayout:
    """The label-free templates of one :class:`FeatureConfig`, as the
    columns of a word row, and the attribute patterns they compile to.

    There are two row kinds: ``"token"`` rows hold the linear trellis's
    token-context roles, ``"segment"`` rows the segment roles.  A role is an
    attribute name and the word value it takes (``("SS[2]", "shape")``).  A
    part's template lists its attributes in template order, each with the
    word position it reads (-1 and ``n`` are the sentinels); a kind's roles
    are those of its widest part, so every part's attributes fit its rows.
    :meth:`pattern` lays a lattice shape's slots out over those rows.
    """

    def __init__(self, config: FeatureConfig) -> None:
        self.config = config
        self.roles = {
            "token": [(name, value) for _, name, value in self._token_template(0)],
            "segment": [(name, value) for _, name, value in self._segment_template(0, config.max_seg_len - 1)],
        }

    def _token_template(self, position: int) -> list[tuple[int, str, str]]:
        config = self.config
        prev = position - 1
        cells = [(prev, "W[-1]", "word"), (position, "W[0]", "word")]
        if config.use_affix:
            for k in range(1, config.affix_max_len + 1):
                cells += [(position, f"PRE{k}", f"token_prefix{k}"), (position, f"SUF{k}", f"token_suffix{k}")]
        if config.use_brown:
            cells.append((position, "BR[0]", "token_cluster"))
        if config.use_shape:
            cells += [(prev, "S[-1]", "boundary_shape"), (position, "S[0]", "boundary_shape")]
        return cells

    def _segment_template(self, first: int, last: int) -> list[tuple[int, str, str]]:
        config = self.config
        cap = config.max_seg_len
        head = list(range(first, last + 1))[:cap]
        tail = list(range(last, first - 1, -1))[:cap]
        cells = [(p, f"WS[{j}]", "word") for j, p in enumerate(head)]
        cells += [(p, f"WE[{j}]", "word") for j, p in enumerate(tail)]
        cells += [(first - 1, "W[before]", "word"), (last + 1, "W[after]", "word")]
        if config.use_affix:
            for j, p in enumerate(head):
                for k in range(1, config.affix_max_len + 1):
                    cells += [(p, f"PRE{k}[{j}]", f"prefix{k}"), (p, f"SUF{k}[{j}]", f"suffix{k}")]
        if config.use_brown:
            cells += [(p, f"BRS[{j}]", "cluster") for j, p in enumerate(head)]
        if config.use_shape:
            cells += [(p, f"SS[{j}]", "shape") for j, p in enumerate(head)]
            cells += [(p, f"SE[{j}]", "shape") for j, p in enumerate(tail)]
            cells += [(first - 1, "S[before]", "boundary_shape"), (last + 1, "S[after]", "boundary_shape")]
        return cells

    def pattern(self, n: int, slots: Sequence[tuple]) -> AttributePattern:
        """Lay the templates of ``slots`` (the slot keys of an ``n``-token
        lattice shape; row ``s`` of ``P`` is slot ``s``'s part) out over a
        sentence's source vector, then merge the entries that read one (source
        position, label) cell.  Token slots read token rows, every other slot
        segment rows.

        Rejects a segment longer than the configuration allows, as
        :meth:`FeatureExtractor.segment_features` does.
        """
        kind = "token" if any(method == "token_context" for method, *_ in slots) else "segment"
        width = len(self.roles[kind])
        columns = {name: c for c, (name, _) in enumerate(self.roles[kind])}
        labels = tuple(sorted({slot[-1] for slot in slots}))
        label_col = {label: i for i, label in enumerate(labels)}
        transitions: dict[str, int] = {}
        attr_pos: list[int] = []
        label_pos: list[int] = []
        part_size = np.zeros(len(slots), dtype=np.int32)
        for sid, (method, *args) in enumerate(slots):
            if method == "segment" and args[1] - args[0] >= self.config.max_seg_len:
                raise ValueError(f"segment length {args[1] - args[0] + 1} exceeds limit {self.config.max_seg_len}")
            if method in _TRANSITION_PREFIX:
                t = transitions.setdefault(_TRANSITION_PREFIX[method] + args[0], len(transitions))
                pos = [(n + 2) * width + t]
            else:
                template = self._segment_template(*args[:2]) if method == "segment" else self._token_template(args[0])
                pos = [(p + 1) * width + columns[name] for p, name, _ in template]
            attr_pos += pos
            label_pos += [label_col[args[-1]]] * len(pos)
            part_size[sid] = len(pos)
        key = np.asarray(attr_pos, dtype=np.int64) * len(labels) + label_pos
        _, first_use, entry_key = np.unique(key, return_index=True, return_inverse=True)
        order = np.argsort(first_use)  # cells in first-use order
        rank = np.empty_like(order)
        rank[order] = np.arange(len(order))
        indptr = np.concatenate(([0], np.cumsum(part_size)))
        P = csr_matrix((np.ones(len(key)), rank[entry_key], indptr), shape=(len(slots), len(order)))
        cell_attr_pos = np.asarray(attr_pos, dtype=np.int32)[first_use[order]]
        cell_label_pos = np.asarray(label_pos, dtype=np.int32)[first_use[order]]
        for array in (cell_attr_pos, cell_label_pos, P.data, P.indices, P.indptr):
            array.flags.writeable = False
        return AttributePattern(kind, labels, tuple(transitions), cell_attr_pos, cell_label_pos, P)


@dataclass(frozen=True)
class AttributePattern:
    """Where a lattice shape's features come from, for one layout.

    A sentence of ``n`` tokens lays out a source vector: the ``kind`` rows
    of its words at positions -1 (``<BOS>``) to ``n`` (``<EOS>``), flattened,
    then the attribute ids of ``transitions``.  Cell ``c`` is attribute
    ``source[attr_pos[c]]`` conjoined with label ``labels[label_pos[c]]``;
    cells are distinct (source position, label) pairs, numbered in the order
    the parts first use them.  ``P`` (parts x cells, CSR, read-only) holds a
    1.0 for every (part, cell) entry: row ``p`` lists part ``p``'s cells in
    template order.
    """

    kind: str
    labels: tuple[str, ...]
    transitions: tuple[str, ...]
    attr_pos: np.ndarray
    label_pos: np.ndarray
    P: csr_matrix


class FeatureExtractor:
    """Expands templates into dictionary indices for one model configuration.

    While the dictionary is unfrozen, extraction grows it; afterwards unseen
    feature strings are silently dropped.  Besides the dictionary, extraction
    only fills the extractor's own caches (attribute ids, word rows and the
    attribute x label tables), which never change a result.
    """

    def __init__(
        self,
        config: FeatureConfig,
        dictionary: FeatureDictionary,
        brown: BrownClusterMap | None = None,
    ) -> None:
        if config.use_brown and brown is None:
            raise ValueError("cluster features requested but no cluster map given")
        self.config = config
        self.dictionary = dictionary
        self.brown = brown
        self.layout = TemplateLayout(config)
        self._clear_caches()

    def _clear_caches(self) -> None:
        self._attribute_ids: dict[str, int] = {}
        self._attributes: list[str | None] = [None]  # PAD_ATTRIBUTE has no string
        self._row_ids: dict[str, dict[str, int]] = {kind: {} for kind in self.layout.roles}
        self._rows = {kind: np.empty((64, len(roles)), dtype=np.int32) for kind, roles in self.layout.roles.items()}
        self._tables: dict[tuple[str, ...], np.ndarray] = {}

    def _attribute(self, attribute: str) -> int:
        aid = self._attribute_ids.get(attribute)
        if aid is None:
            aid = self._attribute_ids[attribute] = len(self._attributes)
            self._attributes.append(attribute)
        return aid

    def _word_values(self, word: str) -> dict[str, str | None]:
        """The value of ``word`` under every role of the layout; ``None``
        where the template emits nothing for it."""
        config = self.config
        sentinel = word in (BOS_WORD, EOS_WORD)
        values: dict[str, str | None] = {"word": word}
        if config.use_affix:
            for k in range(1, config.affix_max_len + 1):
                affixes = (None, None) if k > len(word) else (word[:k], word[-k:])
                values[f"prefix{k}"], values[f"suffix{k}"] = affixes
                values[f"token_prefix{k}"], values[f"token_suffix{k}"] = (None, None) if sentinel else affixes
        if config.use_brown:
            values["cluster"] = self.brown.cluster(word)
            values["token_cluster"] = None if sentinel else values["cluster"]
        if config.use_shape:
            values["shape"] = word_shape(word)
            values["boundary_shape"] = word if sentinel else values["shape"]
        return values

    def _add_row(self, kind: str, word: str) -> int:
        values = self._word_values(word)
        row = [PAD_ATTRIBUTE if values[value] is None else self._attribute(f"{name}={values[value]}")
               for name, value in self.layout.roles[kind]]
        rid = len(self._row_ids[kind])
        rows = self._rows[kind]
        if rid == len(rows):
            rows = self._rows[kind] = np.concatenate((rows, np.empty_like(rows)))
        rows[rid] = row
        self._row_ids[kind][word] = rid
        return rid

    def _table(self, labels: tuple[str, ...]) -> np.ndarray:
        """The (attribute, label) -> feature id table over ``labels``, with
        a row for every attribute interned so far."""
        table = self._tables.get(labels)
        if table is None or len(table) < len(self._attributes):
            grown = np.full((2 * len(self._attributes), len(labels)), UNSEEN, dtype=np.int32)
            grown[PAD_ATTRIBUTE] = -1
            if table is not None:
                grown[: len(table)] = table
            table = self._tables[labels] = grown
        return table

    def part_table(self, sentence: Sentence, pattern: AttributePattern) -> np.ndarray:
        """The feature id of every cell of ``sentence``'s lattice, -1 where
        the cell has none (a padded role, or a feature a frozen dictionary
        lacks): two gathers.

        Table entries met for the first time are filled by one
        :meth:`FeatureDictionary.indices` call: the new (attribute, label)
        pairs, each once, in the order of the first cell that reads them,
        which is first-use order, so an unfrozen dictionary registers new
        strings in the order the per-part methods would.
        """
        kind = pattern.kind
        if self.dictionary.frozen and len(self._row_ids[kind]) > WORD_CACHE_SIZE:
            self._clear_caches()
        row_ids = self._row_ids[kind]
        words = [BOS_WORD, *(token.surface for token in sentence.tokens), EOS_WORD]
        rows = [row_ids[w] if w in row_ids else self._add_row(kind, w) for w in words]
        transitions = np.array([self._attribute(t) for t in pattern.transitions], dtype=np.int32)
        source = np.concatenate((self._rows[kind][rows].ravel(), transitions))
        labels = pattern.labels
        table = self._table(labels)
        # each cell's (attribute, label) pair as a flat index into the table
        keys = source[pattern.attr_pos].astype(np.intp) * len(labels) + pattern.label_pos
        ids = table.take(keys)
        unseen = np.flatnonzero(ids == UNSEEN)
        if len(unseen):
            keys = keys[unseen]
            new = list(dict.fromkeys(keys.tolist()))  # each new pair once, in first-use order
            attributes = self._attributes
            table.put(new, self.dictionary.indices(
                [f"{attributes[a]}|{labels[lab]}" for a, lab in map(divmod, new, repeat(len(labels)))]))
            ids[unseen] = table.take(keys)
        return ids

    def _word(self, sentence: Sentence, i: int) -> str:
        if i < 0:
            return BOS_WORD
        if i >= len(sentence):
            return EOS_WORD
        return sentence.tokens[i].surface

    def _affixes(self, word: str, tag: str, slot: str) -> list[str]:
        feats = []
        for k in range(1, min(self.config.affix_max_len, len(word)) + 1):
            feats.append(f"PRE{k}{slot}={word[:k]}|{tag}")
            feats.append(f"SUF{k}{slot}={word[-k:]}|{tag}")
        return feats

    def _to_ids(self, feats: list[str]) -> np.ndarray:
        """The ids of ``feats``' distinct strings, in first-use order, less
        those a frozen dictionary lacks."""
        ids = self.dictionary.indices(list(dict.fromkeys(feats)))
        return ids[ids >= 0]

    def token_context_features(self, sentence: Sentence, position: int, cur_tag: str) -> np.ndarray:
        """Token-mode word templates at ``position`` (``position ==
        len(sentence)`` is the terminal step; sentinels fill the boundary
        words)."""
        if not 0 <= position <= len(sentence):
            raise ValueError(f"position {position} outside [0, {len(sentence)}]")
        w_prev = self._word(sentence, position - 1)
        w_cur = self._word(sentence, position)
        feats = [f"W[-1]={w_prev}|{cur_tag}", f"W[0]={w_cur}|{cur_tag}"]
        if self.config.use_affix and w_cur not in (BOS_WORD, EOS_WORD):
            feats.extend(self._affixes(w_cur, cur_tag, ""))
        if self.config.use_brown and w_cur not in (BOS_WORD, EOS_WORD):
            feats.append(f"BR[0]={self.brown.cluster(w_cur)}|{cur_tag}")
        if self.config.use_shape:
            feats.append(f"S[-1]={_shape_of(w_prev)}|{cur_tag}")
            feats.append(f"S[0]={_shape_of(w_cur)}|{cur_tag}")
        return self._to_ids(feats)

    def token_transition_features(self, prev_tag: str, cur_tag: str) -> np.ndarray:
        """The token-mode tag transition template."""
        return self._to_ids([f"{LINEAR_TRANSITION_PREFIX}{prev_tag}|{cur_tag}"])

    def segment_features(self, sentence: Sentence, first_token: int, last_token: int, label: str) -> np.ndarray:
        """Segment-mode word templates for tokens ``first_token..last_token``."""
        length = last_token - first_token + 1
        if not 0 <= first_token <= last_token < len(sentence):
            raise ValueError(f"segment ({first_token}, {last_token}) outside sentence of {len(sentence)} tokens")
        if label == OUTSIDE:
            if length != 1:
                raise ValueError(f"outside segments must have length 1, got {length}")
        elif length > self.config.max_seg_len:
            raise ValueError(f"segment length {length} exceeds limit {self.config.max_seg_len}")

        words = [sentence.tokens[i].surface for i in range(first_token, last_token + 1)]
        cap = self.config.max_seg_len
        feats: list[str] = []
        for j, w in enumerate(words[:cap]):
            feats.append(f"WS[{j}]={w}|{label}")
        for j, w in enumerate(words[::-1][:cap]):
            feats.append(f"WE[{j}]={w}|{label}")
        before = self._word(sentence, first_token - 1)
        after = self._word(sentence, last_token + 1)
        feats.append(f"W[before]={before}|{label}")
        feats.append(f"W[after]={after}|{label}")
        if self.config.use_affix:
            for j, w in enumerate(words[:cap]):
                feats.extend(self._affixes(w, label, f"[{j}]"))
        if self.config.use_brown:
            for j, w in enumerate(words[:cap]):
                feats.append(f"BRS[{j}]={self.brown.cluster(w)}|{label}")
        if self.config.use_shape:
            for j, w in enumerate(words[:cap]):
                feats.append(f"SS[{j}]={word_shape(w)}|{label}")
            for j, w in enumerate(words[::-1][:cap]):
                feats.append(f"SE[{j}]={word_shape(w)}|{label}")
            feats.append(f"S[before]={_shape_of(before)}|{label}")
            feats.append(f"S[after]={_shape_of(after)}|{label}")
        return self._to_ids(feats)

    def transition_features(self, prev_label: str, label: str) -> np.ndarray:
        """The segment-mode label transition template."""
        return self._to_ids([f"{SEGMENT_TRANSITION_PREFIX}{prev_label}|{label}"])
