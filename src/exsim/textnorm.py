"""Text cleaning, tokenization, vocabulary, and metadata encoding.

The normalization pipeline applied before any matching or embedding:

1. strip HTML/CSS markup and configured stop words (``clean_text``),
2. replace each ``$...$`` formula with its canonical spelling
   (:mod:`exsim.formula`),
3. lowercase and split into word / number / single-character tokens.

All functions here are pure; a built :class:`Vocab` is immutable and owns
the stop words every text mapped through it is normalized with.
"""

from __future__ import annotations

import json
import re
from collections import Counter
from dataclasses import dataclass
from typing import Iterable, Sequence

import numpy as np

from .formula import normalize_formula
from .snapshots import atomic_write

PAD_ID = 0
UNK_ID = 1
SEP_ID = 2
RESERVED_TOKENS = ("<pad>", "<unk>", "<sep>")

_SCRIPT_STYLE_RE = re.compile(r"<(script|style)\b[^>]*>.*?</\1\s*>", re.I | re.S)
_TAG_RE = re.compile(r"<[^>]*>")
_TOKEN_RE = re.compile(r"[a-z]+|\d+(?:\.\d+)?|\S")
# first line of a saved vocabulary; it holds a space, which no token does
_STOP_WORDS_HEADER = "<stop words> "


def _formula_segments(text: str):
    """Yield (is_formula, segment) pieces; formula segments keep their $ fences.

    An unpaired trailing ``$`` is treated as plain text.
    """
    pos = 0
    while True:
        start = text.find("$", pos)
        if start < 0:
            break
        end = text.find("$", start + 1)
        if end < 0:
            break
        if start > pos:
            yield False, text[pos:start]
        yield True, text[start:end + 1]
        pos = end + 1
    if pos < len(text):
        yield False, text[pos:]


def clean_text(raw: str, stop_words: Iterable[str] = ()) -> str:
    """Strip markup and stop words, collapse whitespace. Total; never grows.

    Stop words are removed as whole words and only outside ``$...$`` spans,
    so formula content is untouched.
    """
    text = _SCRIPT_STYLE_RE.sub(" ", raw)
    text = _TAG_RE.sub(" ", text)
    stop = canonical_stop_words(stop_words)
    if stop:
        pattern = re.compile(r"\b(?:" + "|".join(re.escape(w) for w in stop) + r")\b",
                             re.IGNORECASE)
        text = "".join(seg if is_formula else pattern.sub(" ", seg)
                       for is_formula, seg in _formula_segments(text))
    return " ".join(text.split())


def canonical_stop_words(stop_words: Iterable[str]) -> tuple[str, ...]:
    """Distinct non-empty stop words, sorted: equal exactly when they act alike."""
    return tuple(sorted({w for w in stop_words if w}))


def normalize_text(raw: str, stop_words: Iterable[str] = ()) -> tuple[str, int]:
    """Clean text and canonicalize every ``$...$`` formula.

    Returns the normalized text (formula fences dropped, canonical tokens
    inlined) and the number of formulas that needed the character-level
    fallback.
    """
    cleaned = clean_text(raw, stop_words)
    parts = []
    fallbacks = 0
    for is_formula, seg in _formula_segments(cleaned):
        if is_formula:
            norm = normalize_formula(seg[1:-1])
            if not norm.parsed:
                fallbacks += 1
            parts.append(norm.text)
        else:
            parts.append(seg)
    return " ".join(" ".join(parts).split()), fallbacks


class Vocab:
    """Token to id map with reserved PAD/UNK/SEP ids and stable ordering,
    plus the stop words of the texts it maps (``canonical_stop_words``)."""

    def __init__(self, tokens: Sequence[str], stop_words: Iterable[str] = ()):
        self._id_to_token = list(RESERVED_TOKENS) + list(tokens)
        self._token_to_id = {t: i for i, t in enumerate(self._id_to_token)}
        if len(self._token_to_id) != len(self._id_to_token):
            raise ValueError("vocabulary contains duplicate tokens")
        if any(t.split() != [t] for t in tokens):
            raise ValueError("a token is empty or holds whitespace")
        self.stop_words = canonical_stop_words(stop_words)

    @classmethod
    def build(cls, token_lists: Iterable[Sequence[str]], min_count: int = 1,
              stop_words: Iterable[str] = ()) -> "Vocab":
        """Count the tokens of texts normalized with ``stop_words``; order by
        count desc, then token."""
        counts = Counter()
        for tokens in token_lists:
            counts.update(tokens)
        kept = sorted((t for t, c in counts.items() if c >= min_count),
                      key=lambda t: (-counts[t], t))
        return cls(kept, stop_words)

    def __len__(self) -> int:
        return len(self._id_to_token)

    def __contains__(self, token: str) -> bool:
        return token in self._token_to_id

    def id_of(self, token: str) -> int:
        return self._token_to_id.get(token, UNK_ID)

    def save(self, path) -> None:
        """A header line with the stop words, then one non-reserved token per
        line: line number after the header + reserved count = id."""
        with atomic_write(path) as fh:
            fh.write(_STOP_WORDS_HEADER + json.dumps(list(self.stop_words)) + "\n")
            for token in self._id_to_token[len(RESERVED_TOKENS):]:
                fh.write(token + "\n")

    @classmethod
    def load(cls, path) -> "Vocab":
        """Read a saved vocabulary; one without the header line has no stop
        words."""
        with open(path, "r", encoding="utf-8") as fh:
            lines = [line.rstrip("\n") for line in fh]
        stop_words = []
        if lines and lines[0].startswith(_STOP_WORDS_HEADER):
            stop_words = json.loads(lines.pop(0)[len(_STOP_WORDS_HEADER):])
        return cls([line for line in lines if line], stop_words)


def split_tokens(text: str) -> list[str]:
    """Lowercase and split into words, numbers and single symbol characters."""
    return _TOKEN_RE.findall(text.lower())


# ---------------------------------------------------------------------------
# Metadata encoding

class MetadataError(ValueError):
    """Metadata references something outside the corpus dictionaries."""


@dataclass(frozen=True)
class MetadataEncoding:
    type_onehot: np.ndarray
    difficulty_onehot: np.ndarray
    concept_vector: np.ndarray  # 1/n at each of the n concept indices


def encode_metadata(metadata, exercise_types: Sequence[str], levels: int,
                    concepts: Sequence[str]) -> MetadataEncoding:
    """One-hot type and difficulty; concepts as a normalized multi-hot.

    An exercise with n concepts gets value 1/n at each concept index, so the
    concept vector always sums to one and doubles as a target distribution.
    """
    try:
        type_idx = exercise_types.index(metadata.exercise_type)
    except ValueError:
        raise MetadataError(f"unknown exercise type {metadata.exercise_type!r}") from None
    if not 1 <= metadata.difficulty <= levels:
        raise MetadataError(f"difficulty {metadata.difficulty} outside [1, {levels}]")
    concept_idx = []
    for c in metadata.knowledge_concepts:
        try:
            concept_idx.append(concepts.index(c))
        except ValueError:
            raise MetadataError(f"unknown concept id {c!r}") from None

    type_vec = np.zeros(len(exercise_types))
    type_vec[type_idx] = 1.0
    diff_vec = np.zeros(levels)
    diff_vec[metadata.difficulty - 1] = 1.0
    concept_vec = np.zeros(len(concepts))
    concept_vec[concept_idx] = 1.0 / len(concept_idx)
    return MetadataEncoding(type_vec, diff_vec, concept_vec)
