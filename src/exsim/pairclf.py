"""Binary classifier over exercise-pair features.

Both duplicate detection (recall stage) and variant classification (re-rank
stage) stack the same head on the encoder: a logistic regression over
[u, v, |u - v|, u * v, edit_similarity] where u and v are the two
exercises' embeddings and the last scalar is a normalized token-level
Levenshtein similarity of the normalized texts. Canonical formula spelling
matters here: structural edits such as a raised power inflate into several
canonical tokens, while cosmetic digit noise stays small.

Hot path. Every uncached query scores about a hundred (query, candidate)
pairs twice, once for dedup and once for the variant split, so the pair work
is organised around two pieces:

* :func:`levenshtein`, one edit-distance kernel over padded integer token
  codes. It runs the row DP over the first sequence's tokens and is
  vectorized across all pairs, either one query against many candidates or
  aligned pairs at training time. ``edit_similarity`` is a thin wrapper over
  it; there is no second implementation.
* :class:`PreparedCorpus`, a view that normalizes each exercise's text once:
  padded token codes and lengths, each exercise's single-text
  ``embed_text`` embedding, and the vocabulary ids the ranker reads. Token
  codes are equal exactly when tokens are equal: in-vocabulary tokens use
  their vocabulary id, every out-of-vocabulary token gets a code of its own
  (vocabulary ids alone would collapse all of them onto UNK). A query is
  always prepared from its own text, never looked up by id.

Bit-identity rules. The batched path must give the same bits as scoring one
pair at a time with :meth:`PairFeaturizer.features` and
:meth:`PairClassifier.prob`; the tests compare them with ``==``.

1. Each feature row is scored with the 1-D ``row @ weights``
   (:meth:`PairClassifier.prob_rows`). The matrix product of
   :meth:`PairClassifier.prob_batch` rounds differently in the last bit.
2. Variant embeddings are single-text ``embed_text`` results, as the view
   stores them. Rows of a batched ``embed_text_batch`` (the vector index)
   differ from them bitwise.
3. Dedup keeps the inputs it always had: the query's ``query_embedding``
   vector and the vector-index rows of the candidates.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Optional, Sequence

import numpy as np

from .corpus import Exercise
from .encoder import EncoderParams, embed_text
from .snapshots import load_arrays, save_arrays
from .textnorm import UNK_ID, TokenSequence, Vocab, normalize_text, split_tokens, tokenize

PAD_CODE = -1
_BLOCK = 512  # pairs per pass of the edit-distance kernel


class UntrainedModelError(RuntimeError):
    pass


# ---------------------------------------------------------------------------
# Edit distance over integer token codes

def levenshtein(a: np.ndarray, a_len, b: np.ndarray, b_len) -> np.ndarray:
    """Token-level Levenshtein distance of each pair (a[p], b[p]).

    ``a`` is (P, La) or a single (1, La) row that broadcasts against every
    row of ``b`` (P, Lb); ``a_len``/``b_len`` give each row's true length and
    the entries past it are padding, whatever their value. The DP runs one
    row per token of ``a``, vectorized across pairs and across the columns
    of ``b``: ``tmp = min(prev[1:] + 1, prev[:-1] + cost)`` covers deletion
    and substitution, and a prefix ``minimum.accumulate(tmp - j) + j`` then
    settles the insertion chain along the row. Pairs go through in blocks
    of ``_BLOCK`` to bound the temporaries.
    """
    a = np.atleast_2d(a)
    b = np.atleast_2d(b)
    n = np.broadcast_shapes((len(a),), (len(b),))[0]
    a = np.broadcast_to(a, (n, a.shape[1]))
    b = np.broadcast_to(b, (n, b.shape[1]))
    a_len = np.broadcast_to(np.asarray(a_len, dtype=np.int64), (n,))
    b_len = np.broadcast_to(np.asarray(b_len, dtype=np.int64), (n,))
    out = np.empty(n, dtype=np.int64)
    for s in range(0, n, _BLOCK):
        block = slice(s, s + _BLOCK)
        out[block] = _levenshtein_block(a[block], a_len[block], b[block], b_len[block])
    return out


def _levenshtein_block(a, a_len, b, b_len) -> np.ndarray:
    n = len(a)
    # longest first, so the pairs still inside their a-sequence at row i are
    # a prefix; a pair's DP row then stays at i = a_len once it is done
    order = np.argsort(-a_len, kind="stable")
    a, b, a_len, b_len = a[order], b[order], a_len[order], b_len[order]
    j = np.arange(b.shape[1] + 1, dtype=np.int32)
    prev = np.tile(j, (n, 1))
    tmp = np.empty_like(prev)
    # active[i - 1]: how many pairs have a_len >= i
    active = np.searchsorted(-a_len, -np.arange(1, int(a_len.max(initial=0)) + 1),
                             side="right")
    for i, k in enumerate(active.tolist(), start=1):
        cost = a[:k, i - 1, None] != b[:k]
        tmp[:k, 0] = i
        np.minimum(prev[:k, 1:] + 1, prev[:k, :-1] + cost, out=tmp[:k, 1:])
        tmp[:k] -= j
        np.minimum.accumulate(tmp[:k], axis=1, out=prev[:k])
        prev[:k] += j
    out = np.empty(n, dtype=np.int64)
    out[order] = prev[np.arange(n), b_len]
    return out


def edit_similarities(a: np.ndarray, a_len, b: np.ndarray, b_len) -> np.ndarray:
    """1 - levenshtein / max(len) per pair; 1.0 for two empty sequences."""
    a_len = np.asarray(a_len, dtype=np.int64)
    b_len = np.asarray(b_len, dtype=np.int64)
    longest = np.maximum(a_len, b_len)
    dist = levenshtein(a, a_len, b, b_len)
    return np.where(longest == 0, 1.0, 1.0 - dist / np.maximum(longest, 1))


def edit_similarity(a: Sequence[str], b: Sequence[str]) -> float:
    """1 - levenshtein(a, b) / max(len); 1.0 for two empty sequences."""
    codes: dict[str, int] = {}
    a_codes = [codes.setdefault(t, len(codes)) for t in a]
    b_codes = [codes.setdefault(t, len(codes)) for t in b]
    a_arr, b_arr = pad_codes([a_codes, b_codes])
    return float(edit_similarities(a_arr[:1], len(a), a_arr[1:], len(b))[0])


def pad_codes(rows: Sequence[Sequence[int]]) -> tuple[np.ndarray, np.ndarray]:
    """Stack code sequences into a PAD_CODE-padded matrix plus their lengths."""
    lengths = np.array([len(r) for r in rows], dtype=np.int64)
    out = np.full((len(rows), int(lengths.max(initial=0))), PAD_CODE, dtype=np.int32)
    for i, r in enumerate(rows):
        out[i, :len(r)] = r
    return out, lengths


class CodeTable:
    """Token codes: the vocabulary id, or a code of its own past the vocabulary.

    ``known`` holds codes already given to out-of-vocabulary tokens (a
    prepared corpus's); it is read, never written, so one table per query
    can extend it without touching the shared one.
    """

    def __init__(self, vocab: Vocab, known: Optional[dict[str, int]] = None):
        self.vocab = vocab
        self.known = known or {}
        self.extra: dict[str, int] = {}

    def encode(self, tokens: Sequence[str]) -> list[int]:
        out = []
        for t in tokens:
            code = self.vocab.id_of(t)
            if code == UNK_ID:
                code = self.known.get(t)
                if code is None:
                    code = self.extra.setdefault(
                        t, len(self.vocab) + len(self.known) + len(self.extra))
            out.append(code)
        return out


# ---------------------------------------------------------------------------
# Prepared corpus view

class PreparedCorpus:
    """Each exercise's text normalized once, held column-wise.

    ``codes``/``lengths`` are the padded token codes of every exercise,
    ``embeddings`` its single-text ``embed_text`` vector (row i is
    bit-identical to ``PairFeaturizer.embedding`` of exercise i), and
    ``vocab_ids`` gives the vocabulary ids the ranker pools.
    """

    def __init__(self, exercises: Iterable[Exercise], vocab: Vocab,
                 params: EncoderParams, stop_words: Iterable[str] = ()):
        self.exercises = list(exercises)
        self.vocab = vocab
        self.stop_words = tuple(stop_words)
        self.row_of = {ex.id: i for i, ex in enumerate(self.exercises)}
        table = CodeTable(vocab)
        rows, embeddings = [], []
        for ex in self.exercises:
            tokens = split_tokens(normalize_text(ex.text, self.stop_words)[0])
            rows.append(table.encode(tokens))
            ids = TokenSequence(tuple(vocab.id_of(t) for t in tokens))
            embeddings.append(embed_text(ids, params))
        self.oov_codes = table.extra
        self.codes, self.lengths = pad_codes(rows)
        self.embeddings = (np.stack(embeddings) if embeddings
                           else np.zeros((0, params.d)))

    def lookup(self, ex: Exercise) -> Optional[int]:
        """Row of this very exercise object, or None (an equal id is not enough)."""
        row = self.row_of.get(ex.id)
        if row is not None and self.exercises[row] is ex:
            return row
        return None

    def rows(self, exercises: Sequence[Exercise]) -> Optional[np.ndarray]:
        """Rows of all the exercises, or None when any of them is not in the view."""
        out = [self.lookup(ex) for ex in exercises]
        return None if None in out else np.array(out, dtype=np.int64)

    def vocab_ids(self, row: int) -> np.ndarray:
        ids = self.codes[row, :self.lengths[row]]
        return np.where(ids >= len(self.vocab), UNK_ID, ids)

    def code_table(self) -> CodeTable:
        """A fresh table for one query, consistent with the view's codes."""
        return CodeTable(self.vocab, self.oov_codes)

    def check(self, vocab: Vocab, stop_words: tuple[str, ...]) -> None:
        """Refuse a consumer whose text preparation differs from the view's."""
        if self.vocab is not vocab or self.stop_words != tuple(stop_words):
            raise ValueError("prepared corpus was built with another vocab or stop words")


# ---------------------------------------------------------------------------
# Pair features

def pair_features(u: np.ndarray, v: np.ndarray, edit_sim: float) -> np.ndarray:
    return np.concatenate([u, v, np.abs(u - v), u * v, [edit_sim]])


def pair_feature_rows(u: np.ndarray, v: np.ndarray, sims: np.ndarray,
                      out: Optional[np.ndarray] = None) -> np.ndarray:
    """``pair_features`` of every row; u or v may be one vector broadcast to all."""
    u, v = np.broadcast_arrays(np.atleast_2d(u), np.atleast_2d(v))
    n, d = u.shape
    if out is None:
        out = np.empty((n, 4 * d + 1))
    out[:, :d] = u
    out[:, d:2 * d] = v
    np.abs(np.subtract(u, v, out=out[:, 2 * d:3 * d]), out=out[:, 2 * d:3 * d])
    np.multiply(u, v, out=out[:, 3 * d:4 * d])
    out[:, 4 * d] = sims
    return out


@dataclass
class PairFeaturizer:
    """Turns two exercises into the classifier's feature vector.

    ``view``, when given, must be prepared with this featurizer's vocab,
    encoder and stop words; the batched methods read candidates from it.
    """

    vocab: Vocab
    params: EncoderParams
    stop_words: tuple[str, ...] = ()
    view: Optional[PreparedCorpus] = None

    def __post_init__(self):
        self.stop_words = tuple(self.stop_words)
        if self.view is not None:
            self.view.check(self.vocab, self.stop_words)

    def norm_tokens(self, ex: Exercise) -> list[str]:
        return split_tokens(normalize_text(ex.text, self.stop_words)[0])

    def embedding(self, ex: Exercise) -> np.ndarray:
        seq = tokenize(normalize_text(ex.text, self.stop_words)[0], self.vocab)
        return embed_text(seq, self.params)

    def features(self, ex_a: Exercise, ex_b: Exercise,
                 u: Optional[np.ndarray] = None,
                 v: Optional[np.ndarray] = None) -> np.ndarray:
        if u is None:
            u = self.embedding(ex_a)
        if v is None:
            v = self.embedding(ex_b)
        sim = edit_similarity(self.norm_tokens(ex_a), self.norm_tokens(ex_b))
        return pair_features(u, v, sim)

    def prepare(self, exercises: Sequence[Exercise]) -> PreparedCorpus:
        return PreparedCorpus(exercises, self.vocab, self.params, self.stop_words)

    def query_pairs(self, query: Exercise, others: Sequence[Exercise],
                    u: Optional[np.ndarray] = None,
                    v: Optional[np.ndarray] = None):
        """(u, v, edit similarities) of the pairs (query, other), one kernel call.

        ``u`` defaults to the query's single-text embedding and ``v`` (one row
        per other) to the view's rows. Others outside the view are prepared
        from their text, all of them, in a view of their own.
        """
        view = self.view
        rows = view.rows(others) if view is not None else None
        if rows is None:
            view = self.prepare(others)
            rows = np.arange(len(others))
        tokens = self.norm_tokens(query)
        q_codes, q_len = pad_codes([view.code_table().encode(tokens)])
        sims = edit_similarities(q_codes, q_len, view.codes[rows], view.lengths[rows])
        if u is None:
            u = embed_text(TokenSequence(tuple(self.vocab.id_of(t) for t in tokens)),
                           self.params)
        if v is None:
            v = view.embeddings[rows]
        return u, v, sims

    def both_orders(self, pairs: Sequence[tuple[Exercise, Exercise]]) -> np.ndarray:
        """Feature rows of every pair as (a, b) then (b, a), interleaved.

        Row 2k equals ``features(a_k, b_k)`` and row 2k + 1 equals
        ``features(b_k, a_k)``, bit for bit; each distinct exercise is
        prepared once.
        """
        index: dict[int, int] = {}
        unique: list[Exercise] = []
        for pair in pairs:
            for ex in pair:
                if id(ex) not in index:
                    index[id(ex)] = len(unique)
                    unique.append(ex)
        view = self.prepare(unique)
        ra = np.array([index[id(a)] for a, _ in pairs], dtype=np.int64)
        rb = np.array([index[id(b)] for _, b in pairs], dtype=np.int64)
        sims = edit_similarities(view.codes[ra], view.lengths[ra],
                                 view.codes[rb], view.lengths[rb])
        u, v = view.embeddings[ra], view.embeddings[rb]
        rows = np.empty((len(pairs), 2, self.n_features))
        pair_feature_rows(u, v, sims, out=rows[:, 0])
        pair_feature_rows(v, u, sims, out=rows[:, 1])
        return rows.reshape(2 * len(pairs), self.n_features)

    @property
    def n_features(self) -> int:
        return 4 * self.params.d + 1


def _sigmoid(z: np.ndarray) -> np.ndarray:
    return 1.0 / (1.0 + np.exp(-np.clip(z, -35.0, 35.0)))


@dataclass
class PairClassifier:
    weights: np.ndarray
    bias: float

    def prob(self, features: np.ndarray) -> float:
        return float(_sigmoid(features @ self.weights + self.bias))

    def prob_rows(self, features: np.ndarray) -> np.ndarray:
        """``prob`` of every row, bit for bit: each row is its own 1-D dot
        product (the matrix product of ``prob_batch`` rounds differently)."""
        z = np.array([row @ self.weights for row in features], dtype=np.float64)
        return _sigmoid(z + self.bias)

    def prob_batch(self, features: np.ndarray) -> np.ndarray:
        return _sigmoid(features @ self.weights + self.bias)

    @classmethod
    def train(cls, features: np.ndarray, labels: np.ndarray, lr: float = 5.0,
              epochs: int = 6000, l2: float = 1e-6) -> "PairClassifier":
        """Full-batch logistic regression; deterministic from zero init.

        The step count is generous because the decisive weights (notably the
        edit-similarity one) need to grow large before thin margins separate.
        """
        x = np.asarray(features, dtype=np.float64)
        y = np.asarray(labels, dtype=np.float64)
        if x.ndim != 2 or len(x) != len(y):
            raise ValueError("features must be (n, f) aligned with labels")
        w = np.zeros(x.shape[1])
        b = 0.0
        n = len(y)
        for _ in range(epochs):
            p = _sigmoid(x @ w + b)
            err = (p - y) / n
            w -= lr * (x.T @ err + l2 * w)
            b -= lr * float(err.sum())
        return cls(weights=w, bias=b)

    def save(self, path, kind: str) -> None:
        save_arrays(path, kind, {"bias": self.bias}, {"weights": self.weights})

    @classmethod
    def load(cls, path, kind: str) -> "PairClassifier":
        meta, arrays = load_arrays(path, kind)
        return cls(weights=arrays["weights"], bias=float(meta["bias"]))


def bce_loss_and_grads(weights: np.ndarray, bias: float, features: np.ndarray,
                       labels: np.ndarray, l2: float = 0.0):
    """Mean binary cross-entropy with the analytic gradients (for checking).

    Written as softplus(z) - y*z, which is exact for any logit magnitude.
    """
    z = features @ weights + bias
    loss = float((np.logaddexp(0.0, z) - labels * z).mean())
    loss += 0.5 * l2 * float(weights @ weights)
    err = (1.0 / (1.0 + np.exp(-z)) - labels) / len(labels)
    return loss, features.T @ err + l2 * weights, float(err.sum())
