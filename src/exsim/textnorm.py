"""Text cleaning, tokenization and vocabulary.

The normalization pipeline applied before any matching or embedding:

1. strip HTML/CSS markup and configured stop words (``clean_text``); a stop
   word is removed as a whole word, so one that does not begin and end with
   a word character is refused (``canonical_stop_words``),
2. replace each ``$...$`` formula with its canonical spelling
   (:mod:`exsim.formula`): fully parenthesized, numbers spelled from their
   digits, and a formula that does not parse spelled by its non-space
   characters. ``normalize_text`` never raises on any text and returns a
   ``str``; its formula spellings are idempotent,
3. lowercase and split into word / number / single-character tokens.

All functions here are pure; a built :class:`Vocab` is immutable and owns
the stop words every text mapped through it is normalized with. It is not
saved on its own: the encoder snapshot, whose ``emb`` rows are its ids,
keeps its tokens and stop words (``encoder.save_encoder``). Metadata never
passes through here: pre-training builds its targets from a ``Corpus``'s own
dictionaries (``encoder.metadata_targets``).
"""

from __future__ import annotations

import re
from collections import Counter
from typing import Iterable, Sequence

from .formula import normalize_formula

PAD_ID = 0
UNK_ID = 1
SEP_ID = 2
RESERVED_TOKENS = ("<pad>", "<unk>", "<sep>")

_SCRIPT_STYLE_RE = re.compile(r"<(script|style)\b[^>]*>.*?</\1\s*>", re.I | re.S)
_TAG_RE = re.compile(r"<[^>]*>")
_TOKEN_RE = re.compile(r"[a-z]+|\d+(?:\.\d+)?|\S")
_STOP_WORD_RE = re.compile(r"\w(?:.*\w)?", re.S)


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
    """Distinct non-empty stop words, lowercased and sorted: equal exactly
    when they act alike, as ``clean_text`` removes them ignoring case.

    ValueError names a word that does not begin and end with a word
    character: ``clean_text`` removes whole words only, so it could never
    match."""
    # str.lower spells "\u0130" (dotted capital I) as two characters, but
    # the regex's case folding, which clean_text matches by, reads it as "i";
    # it also matches the final sigma as any sigma, which str.lower keeps
    # apart (str.casefold would merge them, but spell "\u00df" as "ss")
    words = tuple(sorted({w.replace("\u0130", "i").lower().replace("\u03c2", "\u03c3")
                          for w in stop_words if w}))
    for w in words:
        if not _STOP_WORD_RE.fullmatch(w):
            raise ValueError(f"stop word {w!r} never matches: a stop word must begin "
                             f"and end with a letter, digit or underscore")
    return words


def normalize_text(raw: str, stop_words: Iterable[str] = ()) -> str:
    """Clean text and put every ``$...$`` formula in its canonical spelling
    (formula fences dropped, canonical tokens inlined)."""
    cleaned = clean_text(raw, stop_words)
    parts = [normalize_formula(seg[1:-1]) if is_formula else seg
             for is_formula, seg in _formula_segments(cleaned)]
    return " ".join(" ".join(parts).split())


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
    def build(cls, token_lists: Iterable[Sequence[str]],
              stop_words: Iterable[str] = ()) -> "Vocab":
        """Count the tokens of texts normalized with ``stop_words``; order by
        count desc, then token.

        The vocabulary holds strings of its own, made in one pass as a
        loaded encoder snapshot's are, not the texts' token strings: a
        vocabulary kept after its texts are freed does not pin the memory
        they were allocated in."""
        counts = Counter()
        for tokens in token_lists:
            counts.update(tokens)
        order = sorted(counts, key=lambda t: (-counts[t], t))
        fresh = "\n".join(order).split("\n") if order else []
        # a token holding a newline splits: the check in __init__ refuses it
        return cls(fresh if len(fresh) == len(order) else order, stop_words)

    def __eq__(self, other) -> bool:
        """The same tokens under the same ids and the same stop words: equal
        vocabularies map every text alike."""
        if not isinstance(other, Vocab):
            return NotImplemented
        return (self._id_to_token == other._id_to_token
                and self.stop_words == other.stop_words)

    def __len__(self) -> int:
        return len(self._id_to_token)

    @property
    def tokens(self) -> list[str]:
        """The non-reserved tokens in id order: ``Vocab(vocab.tokens,
        vocab.stop_words) == vocab``."""
        return self._id_to_token[len(RESERVED_TOKENS):]

    def __contains__(self, token: str) -> bool:
        return token in self._token_to_id

    def id_of(self, token: str) -> int:
        return self._token_to_id.get(token, UNK_ID)


def split_tokens(text: str) -> list[str]:
    """Lowercase and split into words, numbers and single symbol characters."""
    return _TOKEN_RE.findall(text.lower())

