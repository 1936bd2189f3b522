"""Seeded input generators and the three workload definitions.

Every workload is learnable by construction (the separable design of
``chunkcrf.synth.separable_corpus``): each chunk label has its own
vocabulary, filler words come from a disjoint one, and two chunks are always
separated by filler, so a trained model's held-out F1 can be checked.  The
generator lives here rather than in the package so a change to the program
cannot change the benchmark's inputs.

The seed draws the words, the chunk layout and the order of messages.  The
multiset of message lengths is part of the workload's definition, not of the
seed, so the amount of work per run does not swing with the seed.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from pathlib import Path

import numpy as np

SMS_FILLER_WORDS = ("ok", "lol", "u", "gr8", "pls", "thx", "wat", "2nite", "hw", "r", "cya", "bt")
SMS_PLACEHOLDERS = ("<DECIMAL>", "<TIME>", "<NUM>", "<URL>")
SMS_PUNCT = ("!!", "...", "?", "?!", ":)", "--")

CHUNK_VOCAB = 6  # words per chunk label
FILLER_VOCAB = 10  # filler words outside SMS text
MAX_CHUNK_LEN = 3  # tokens per generated chunk
MAX_SEG_LEN = 6  # longest segment the semi and weak lattices allow
LAM = 0.1  # L2 weight of the training objective


@dataclass(frozen=True)
class Workload:
    """Corpus shape, feature flags and set sizes of one workload.

    ``eval_lengths`` are the sentences each objective evaluation covers;
    ``train_lengths`` the training split that ``train`` runs to convergence on;
    ``heldout_lengths`` the messages ``predict`` decodes.  ``f1_floor`` is the
    held-out char F1 every family must reach; it is None where the training
    split is too small to learn the task (8 labels from 3 sentences), which
    keeps training affordable there.
    """

    name: str
    chunk_labels: tuple[str, ...]
    eval_lengths: tuple[int, ...]
    train_lengths: tuple[int, ...]
    heldout_lengths: tuple[int, ...]
    features: str = ""
    sms: bool = False
    f1_floor: float | None = 0.9


def _cycle(values: tuple[int, ...], count: int) -> tuple[int, ...]:
    return tuple(values[i % len(values)] for i in range(count))


WORKLOADS = {
    w.name: w
    for w in (
        # The paper's label-scaling regime: semi has 2.5x weak's edges and
        # lattice build plus feature extraction is most of an evaluation.
        Workload(
            name="wide",
            chunk_labels=tuple(f"T{i}" for i in range(1, 8)),
            eval_lengths=(10,) * 8,
            train_lengths=(10,) * 3,
            heldout_lengths=(10,) * 10,
            f1_floor=None,
        ),
        # The real task: raw SMS-like text of mixed length with placeholders
        # and glued punctuation, so the tokenizer and the affix and shape
        # templates do real work.  With two labels weak's edge advantage
        # nearly vanishes (semi has 1.17x its edges), and mixed lengths are
        # where batching by length would help least.  Forward plus backward
        # is 12-27% of a traced evaluation here (5-20% on wide), so neither
        # workload is dominated by the DP.
        Workload(
            name="sms",
            chunk_labels=("NP",),
            eval_lengths=tuple(range(5, 26)),
            train_lengths=_cycle(tuple(range(5, 26, 2)), 16),
            heldout_lengths=_cycle(tuple(range(5, 26)), 42),
            features="a,s",
            sms=True,
        ),
    )
}


@dataclass(frozen=True)
class Vocabulary:
    """Per-label chunk words and filler words."""

    chunk: dict[str, list[str]]
    filler: list[str]

    @classmethod
    def of(cls, workload: Workload) -> "Vocabulary":
        chunk = {label: [f"{label.lower()}w{j}" for j in range(CHUNK_VOCAB)] for label in workload.chunk_labels}
        if workload.sms:
            return cls(chunk, list(SMS_FILLER_WORDS + SMS_PLACEHOLDERS + SMS_PUNCT))
        return cls(chunk, [f"fill{j}" for j in range(FILLER_VOCAB)])

    def restricted_to(self, messages: list[dict]) -> "Vocabulary":
        """The words that occur in ``messages``; held-out text draws from it so
        every held-out word was seen in training."""
        seen = {w for m in messages for w in m["words"]}
        chunk = {label: [w for w in words if w in seen] for label, words in self.chunk.items()}
        return Vocabulary({label: words for label, words in chunk.items() if words}, [w for w in self.filler if w in seen])


def generate(workload: Workload, vocab: Vocabulary, lengths: tuple[int, ...], rng: np.random.Generator) -> list[dict]:
    """Messages with exactly the given token counts, in seeded order.

    Each message is ``{"text", "spans", "words"}``; ``spans`` are character
    spans in the JSONL schema the package reads.
    """
    labels = sorted(vocab.chunk)
    order = rng.permutation(len(lengths))
    messages = []
    for idx in order:
        target = lengths[idx]
        words: list[str] = []
        ranges: list[tuple[int, int, str]] = []
        can_chunk = True
        while len(words) < target:
            if can_chunk and rng.random() < 0.45:
                label = labels[int(rng.integers(0, len(labels)))]
                size = min(int(rng.integers(1, MAX_CHUNK_LEN + 1)), target - len(words))
                first = len(words)
                pool = vocab.chunk[label]
                words.extend(pool[int(rng.integers(0, len(pool)))] for _ in range(size))
                ranges.append((first, len(words) - 1, label))
                can_chunk = False
            else:
                words.append(vocab.filler[int(rng.integers(0, len(vocab.filler)))])
                can_chunk = True
        messages.append(_assemble(words, ranges, workload.sms, rng))
    return messages


def _assemble(words: list[str], ranges: list[tuple[int, int, str]], sms: bool, rng: np.random.Generator) -> dict:
    """Join words into text; in SMS text a punctuation run after a word is
    sometimes glued to it, so only the tokenizer recovers the boundary."""
    starts, ends = [], []
    text = ""
    for i, w in enumerate(words):
        if i > 0:
            glue = sms and w in SMS_PUNCT and words[i - 1].isalnum() and rng.random() < 0.5
            if not glue:
                text += " "
        starts.append(len(text))
        text += w
        ends.append(len(text))
    spans = [{"start": starts[a], "end": ends[b], "label": label} for a, b, label in ranges]
    return {"text": text, "spans": spans, "words": words}


def write_jsonl(path: Path, messages: list[dict]) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        for m in messages:
            fh.write(json.dumps({"text": m["text"], "spans": m["spans"]}) + "\n")


@dataclass
class Inputs:
    eval_set: list[dict]
    train_set: list[dict]
    heldout: list[dict]


def make_inputs(workload: Workload, seed: int) -> Inputs:
    """All inputs of one run, a pure function of the workload and the seed."""
    rng = np.random.default_rng([seed, sum(map(ord, workload.name))])
    vocab = Vocabulary.of(workload)
    train_set = generate(workload, vocab, workload.train_lengths, rng)
    eval_set = generate(workload, vocab, workload.eval_lengths, rng)
    heldout = generate(workload, vocab.restricted_to(train_set), workload.heldout_lengths, rng)
    return Inputs(eval_set, train_set, heldout)
