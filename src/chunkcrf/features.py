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
feature ids as an ``int32`` array; a lattice edge carries the ids of the
families on it.

Sentinel words ``<BOS>``/``<EOS>`` stand in at sentence boundaries and pass
through the shape mapping unchanged; affix and cluster templates skip them.
Feature strings map to dense indices through a freezable dictionary; once
frozen, unseen strings are dropped rather than allocated.
"""

from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .core import OUTSIDE, Sentence

BOS_WORD = "<BOS>"
EOS_WORD = "<EOS>"
START_LABEL = "<START>"
STOP_LABEL = "<STOP>"
UNKNOWN_CLUSTER = "<UNK>"

LINEAR_TRANSITION_PREFIX = "T="
SEGMENT_TRANSITION_PREFIX = "TR="
TRANSITION_PREFIXES = (LINEAR_TRANSITION_PREFIX, SEGMENT_TRANSITION_PREFIX)


class FeatureDictionary:
    """Bidirectional feature-string <-> dense-index map with a freeze switch."""

    __slots__ = ("_index", "_strings", "_frozen")

    def __init__(self) -> None:
        self._index: dict[str, int] = {}
        self._strings: list[str] = []
        self._frozen = False

    def __len__(self) -> int:
        return len(self._strings)

    @property
    def frozen(self) -> bool:
        return self._frozen

    def freeze(self) -> None:
        self._frozen = True

    def index(self, feature: str) -> int | None:
        """Index of ``feature``; allocates a new slot unless frozen."""
        idx = self._index.get(feature)
        if idx is not None:
            return idx
        if self._frozen:
            return None
        idx = len(self._strings)
        self._index[feature] = idx
        self._strings.append(feature)
        return idx

    def string(self, idx: int) -> str:
        return self._strings[idx]

    @property
    def strings(self) -> tuple[str, ...]:
        return tuple(self._strings)

    @classmethod
    def from_strings(cls, strings: list[str], frozen: bool = True) -> "FeatureDictionary":
        d = cls()
        for s in strings:
            d.index(s)
        if frozen:
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
    with open(path, encoding="utf-8") as fh:
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
        if self.affix_max_len < 1:
            raise ValueError("affix_max_len must be >= 1")
        if self.max_seg_len < 1:
            raise ValueError("max_seg_len must be >= 1")


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


class FeatureExtractor:
    """Expands templates into dictionary indices for one model configuration.

    While the dictionary is unfrozen, extraction grows it; afterwards unseen
    feature strings are silently dropped.  Extraction never mutates anything
    else, so a frozen extractor can be shared.
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
        ids = []
        for f in dict.fromkeys(feats):
            idx = self.dictionary.index(f)
            if idx is not None:
                ids.append(idx)
        return np.asarray(ids, dtype=np.int32)

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
