"""Binary classifier over exercise-pair features.

Both duplicate detection (recall stage) and variant classification (re-rank
stage) stack the same head on the encoder: a logistic regression over
[u, v, |u - v|, u * v, edit_similarity] where u and v are the two
exercises' embeddings and the last scalar is a normalized token-level
Levenshtein similarity of the normalized texts. Canonical formula spelling
matters here: structural edits such as a raised power inflate into several
canonical tokens, while cosmetic digit noise stays small.

Training. :meth:`PairClassifier.train` fits a head by Newton's method on
the convex objective, mean binary cross-entropy plus a small L2 penalty on
the weights, with a backtracking line search. It converges in 10 to 15
steps on both heads; the Hessian is summed over row blocks of the features,
so a fit holds no second copy of them.

Hot path. Every uncached query scores about a hundred (query, candidate)
pairs in three stages: dedup, ranking and the variant split. The pair work
is organised around three pieces:

* :func:`levenshtein`, one edit-distance kernel over padded integer token
  codes. It runs the row DP over the first sequence's tokens and is
  vectorized across all pairs, either one query against many candidates or
  aligned pairs at training time. ``edit_similarity`` is a thin wrapper over
  it; there is no second implementation.
* :class:`PreparedCorpus`, a view that normalizes each exercise's texts
  once, for serving and for training alike: their tokens, padded token
  codes and lengths, their vocabulary ids, and each exercise's single-text
  ``embed_text`` embedding. Every build step prepares the bank once and
  passes the view down: the vocabulary is built from its token lists, the
  encoder trains on its ids, and the ranker's task instances read its stem
  and analysis codes. Token codes are equal exactly when tokens are equal:
  in-vocabulary tokens use their vocabulary id, every out-of-vocabulary
  token gets a code of its own (vocabulary ids alone would collapse all of
  them onto UNK).
* :class:`PreparedQuery`, the query's side of every pair, prepared once per
  cache miss and passed through all three stages: its tokens, its codes
  under the view's code table, its embedding under each backbone, and its
  edit similarities to view rows. The stages score shrinking subsets of the
  recalled list, so one kernel call, made by whichever stage asks first,
  serves all three. A query is always prepared from its own text, never
  looked up by id.

A stage is built from one view; a miss passes one ``PreparedQuery``. A
:class:`PairFeaturizer` is over one view and reads its vocabulary and
params from it, and :meth:`PairFeaturizer.row_pairs` reads a pair's
candidate side straight from the view's rows. It refuses rows of another
``RowIndex`` and a query prepared with another vocabulary; nothing else
holds a second copy of the view's vocabulary or params to disagree with.

Bit-identity rules. The batched path must give the same bits as scoring one
pair at a time with :meth:`PairFeaturizer.features` and
:meth:`PairClassifier.prob`; the tests compare them with ``==``.

1. :meth:`PairClassifier.prob_rows` scores all rows with one
   ``np.vecdot(features, weights)`` (numpy >= 2.0), which sends each row
   through the same 1-D dot kernel as ``row @ weights`` in ``prob``, so
   every row's logit has the bits of the per-row product. A matrix product
   over many rows rounds differently in the last bit.
2. Every encoder embedding is a single-text ``embed_text`` result: the
   view's rows (``encoder.embed_corpus`` rows, bit for bit) and the query's
   :meth:`PreparedQuery.embedding`. One array serves the vector channel,
   dedup and the variant split. Rows of an ``embed_text_batch`` call over
   several texts can differ from it in the last bit; only training makes
   such calls.
3. Edit similarities are integer distances divided elementwise, so a kept
   similarity read back for a subset of rows equals a fresh kernel call.
"""

from __future__ import annotations

import copy
from dataclasses import dataclass
from functools import cached_property
from typing import Iterable, NamedTuple, Optional, Sequence

import numpy as np

from .corpus import Corpus, Exercise, RowIndex
from .encoder import EncoderParams, embed_corpus, embed_text
from .snapshots import SnapshotFormatError, load_arrays, save_arrays
from .textnorm import UNK_ID, Vocab, canonical_stop_words, normalize_text, split_tokens

PAD_CODE = -1
_BLOCK = 512  # pairs per pass of the edit-distance kernel
_NEWTON_STEPS = 50  # iteration cap of PairClassifier.train
_NEWTON_TOL = 1e-8  # ... and its stopping bound on max |gradient|
_ARMIJO = 1e-4  # sufficient-decrease fraction of the line search
_MIN_STEP = 2.0 ** -40  # shortest step the line search tries
# multiply-adds per block of the Newton Hessian sum (f^2 per feature row):
# OpenBLAS runs a product this small on one thread. Threaded products of the
# whole matrix stalled for tens of ms each on a host with shared cores.
_HESSIAN_BLOCK = 2 ** 19


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
    of ``b``. A row stores ``D[i, c] - c``: ``min(prev[1:] + 1, prev[:-1] -
    match)`` covers deletion and substitution, and a prefix
    ``minimum.accumulate`` along the columns settles the insertion chain.
    Rows are laid out (columns, pairs), so every step works on contiguous
    runs of pairs. Pairs go through in blocks of ``_BLOCK`` to bound the
    temporaries. The result is integers, so it is exact whatever the layout.
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
    a_len, b_len = a_len[order], b_len[order]
    # tokens and DP rows are stored position-major, pairs on the contiguous
    # axis, so the insertion chain accumulates along axis 0 over whole rows
    at = np.ascontiguousarray(a[order].T)
    bt = np.ascontiguousarray(b[order].T)
    # a row holds D[i, c] - c: insertion (D[i, c - 1] + 1) is then the plain
    # prefix minimum, deletion adds 1 and a match subtracts 1
    prev = np.zeros((b.shape[1] + 1, n), dtype=np.int32)
    tmp = np.empty_like(prev)
    # active[i - 1]: how many pairs have a_len >= i
    active = np.searchsorted(-a_len, -np.arange(1, int(a_len.max(initial=0)) + 1),
                             side="right")
    for i, k in enumerate(active.tolist(), start=1):
        match = at[i - 1, :k] == bt[:, :k]
        tmp[0, :k] = i
        np.subtract(prev[:-1, :k], match, out=tmp[1:, :k])
        np.minimum(tmp[1:, :k], prev[1:, :k] + 1, out=tmp[1:, :k])
        np.minimum.accumulate(tmp[:, :k], axis=0, out=prev[:, :k])
    out = np.empty(n, dtype=np.int64)
    out[order] = prev[b_len, np.arange(n)] + b_len
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


def text_tokens(text: str, stop_words: Sequence[str]) -> list[str]:
    """The tokens of one text normalized with ``stop_words``; every prepared
    view and query goes through here."""
    return split_tokens(normalize_text(text, stop_words)[0])


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

class TextColumn(NamedTuple):
    """One text of every exercise: normalized tokens, padded codes, lengths."""

    tokens: list[list[str]]
    codes: np.ndarray
    lengths: np.ndarray


class PreparedCorpus:
    """Each exercise's texts normalized once, held column-wise: the one place
    where an exercise's text becomes tokens, vocabulary ids and edit-distance
    codes, for training and for serving.

    The stem side (``Exercise.text``, stem and options) is prepared at
    construction: ``tokens`` holds every exercise's normalized tokens,
    ``codes``/``lengths`` their padded token codes and :meth:`stem_ids` their
    vocabulary ids. The answer/analysis side, ``analysis`` and
    :meth:`analysis_ids`, is prepared on first use, with codes consistent
    with the stem side's; serving never reads it.

    ``embeddings`` holds each row's single-text ``embed_text`` vector under
    ``params`` (row i is bit-identical to the ``PreparedQuery.embedding`` of
    exercise i), computed on first read; ``params`` is the encoder's or any
    backbone ``embed_text`` takes, and training views need none. The recall
    indexes read the same tokens and, under the encoder, the same embeddings.
    ``index`` gives the rows of the ids; a view of a ``Corpus`` shares the
    corpus's, so candidates recalled from that corpus are rows of the view.
    """

    def __init__(self, exercises: Iterable[Exercise], vocab: Vocab,
                 params: Optional[EncoderParams] = None):
        exercises = exercises if isinstance(exercises, Corpus) else list(exercises)
        self._prepare(exercises, vocab, params,
                      [text_tokens(ex.text, vocab.stop_words) for ex in exercises])

    @classmethod
    def with_own_vocab(cls, corpus: Corpus, stop_words: Iterable[str] = ()) -> "PreparedCorpus":
        """``corpus`` prepared under a new vocabulary of its stem and analysis
        tokens, which keeps ``stop_words``; each text is normalized once, for
        the vocabulary and the view alike."""
        stop = canonical_stop_words(stop_words)
        stems = [text_tokens(ex.text, stop) for ex in corpus]
        analyses = [text_tokens(ex.answer_analysis, stop) for ex in corpus]
        view = cls.__new__(cls)
        view._prepare(corpus, Vocab.build(stems + analyses, stop_words=stop), None, stems)
        view.analysis = view._column(analyses)
        return view

    def _prepare(self, exercises, vocab: Vocab, params, tokens: list[list[str]]) -> None:
        self.exercises = list(exercises)
        self.vocab = vocab
        self.params = params
        self.index = (exercises.index if isinstance(exercises, Corpus)
                      else RowIndex(ex.id for ex in self.exercises))
        self.tokens = tokens
        table = CodeTable(vocab)
        self.oov_codes = table.extra
        self.codes, self.lengths = pad_codes([table.encode(t) for t in tokens])
        self._embeddings: Optional[np.ndarray] = None

    def _column(self, tokens: list[list[str]]) -> TextColumn:
        table = self.code_table()
        return TextColumn(tokens, *pad_codes([table.encode(t) for t in tokens]))

    @cached_property
    def analysis(self) -> TextColumn:
        """Every exercise's answer and analysis, prepared on first use."""
        return self._column([text_tokens(ex.answer_analysis, self.vocab.stop_words)
                             for ex in self.exercises])

    def _ids(self, codes: np.ndarray, lengths: np.ndarray) -> list[np.ndarray]:
        ids = np.where(codes >= len(self.vocab), UNK_ID, codes).astype(np.int64)
        return [row[:n] for row, n in zip(ids, lengths.tolist())]

    def stem_ids(self) -> list[np.ndarray]:
        """Each row's stem vocabulary ids; out-of-vocabulary tokens are UNK."""
        return self._ids(self.codes, self.lengths)

    def analysis_ids(self) -> list[np.ndarray]:
        """Each row's answer/analysis vocabulary ids."""
        return self._ids(self.analysis.codes, self.analysis.lengths)

    @property
    def embeddings(self) -> np.ndarray:
        if self._embeddings is None:
            if self.params is None:
                raise ValueError("prepared corpus has no params to embed under")
            self._embeddings = embed_corpus(self.stem_ids(), self.params)
        return self._embeddings

    def embedded_with(self, params) -> "PreparedCorpus":
        """This view with every row embedded under other ``params`` (the
        ranker's backbone) here, at once; the text, codes and lookups are
        shared."""
        out = copy.copy(self)
        out.params = params
        out._embeddings = embed_corpus(self.stem_ids(), params)
        return out

    def code_table(self) -> CodeTable:
        """A fresh table for one query, consistent with the view's codes."""
        return CodeTable(self.vocab, self.oov_codes)


class PreparedQuery:
    """One query's side of its pairs, prepared once for every stage of a miss.

    ``tokens`` are the query's normalized tokens, ``ids`` their vocabulary
    ids and ``concepts`` its knowledge concepts. The rest is computed on
    first use and kept:

    * :meth:`embedding`, the single-text ``embed_text`` vector under one
      backbone. Recall's ``query_embedding``, dedup and the variant split
      read the encoder's; the ranker reads its own.
    * :meth:`edit_similarities` to view rows, over ``codes``, the query's
      codes under the view's code table. Rows not scored yet go through one
      kernel call; rows scored before are read back, which equals a fresh
      call bit for bit (rule 3 above).

    Similarities belong to the view's codes; views that share them
    (``embedded_with`` copies) share the kept values, and another view starts
    them afresh.
    """

    def __init__(self, exercise: Exercise, vocab: Vocab):
        self.exercise = exercise
        self.vocab = vocab
        self.tokens = text_tokens(exercise.text, vocab.stop_words)
        self.ids = np.array([vocab.id_of(t) for t in self.tokens], dtype=np.int64)
        self.concepts = frozenset(exercise.metadata.knowledge_concepts)
        self._embeddings: dict[int, tuple[object, np.ndarray]] = {}
        self._view_codes: Optional[np.ndarray] = None
        self.codes = self.length = None
        self._sims = np.zeros(0)

    def embedding(self, params) -> np.ndarray:
        kept = self._embeddings.get(id(params))
        if kept is None:  # the params are kept too, so their id stays theirs
            kept = self._embeddings[id(params)] = (params, embed_text(self.ids, params))
        return kept[1]

    def _bind(self, view: PreparedCorpus) -> None:
        if self._view_codes is not view.codes:
            self._view_codes = view.codes
            self.codes, self.length = pad_codes([view.code_table().encode(self.tokens)])
            self._sims = np.full(len(view.lengths), np.nan)

    def edit_similarities(self, view: PreparedCorpus, rows: np.ndarray) -> np.ndarray:
        """Edit similarity of the query to each of ``view``'s ``rows``."""
        self._bind(view)
        todo = rows[np.isnan(self._sims[rows])]
        if len(todo):
            self._sims[todo] = edit_similarities(self.codes, self.length,
                                                 view.codes[todo], view.lengths[todo])
        return self._sims[rows]


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
    """Turns (query, candidate) pairs into the classifier's feature rows,
    over one prepared ``view``: its vocabulary, its ``params`` (the
    encoder's, or any backbone ``embed_text`` takes; the ranker scores its
    pairs over an ``embedded_with`` copy) and its rows as candidates."""

    view: PreparedCorpus

    def embedding(self, query: PreparedQuery) -> np.ndarray:
        """``query``'s single-text embedding under the view's params."""
        return query.embedding(self.view.params)

    def features(self, a: PreparedQuery, b: PreparedQuery) -> np.ndarray:
        """The feature row of one pair, each side from its own prepared text."""
        sim = edit_similarity(a.tokens, b.tokens)
        return pair_features(self.embedding(a), self.embedding(b), sim)

    def row_pairs(self, query: PreparedQuery, index: RowIndex, rows: np.ndarray):
        """(u, v, edit similarities) of the pairs (query, row) over ``index``'s
        ``rows``: ``u`` is the query's embedding and ``v`` the view's rows.
        Refuses rows of an index other than the view's and a query prepared
        with another vocabulary, whose tokens and ids the view's codes and
        params do not read."""
        if index is not self.view.index:
            raise ValueError("candidates are not rows of this featurizer's view")
        if query.vocab is not self.view.vocab:
            raise ValueError("prepared query was built with another vocab")
        return (query.embedding(self.view.params), self.view.embeddings[rows],
                query.edit_similarities(self.view, rows))

    @property
    def n_features(self) -> int:
        return 4 * self.view.params.d + 1


def both_orders(pairs: Sequence[tuple[Exercise, Exercise]], vocab: Vocab,
                params: EncoderParams) -> np.ndarray:
    """Feature rows of every pair as (a, b) then (b, a), interleaved.

    Row 2k equals ``features(a_k, b_k)`` and row 2k + 1 equals
    ``features(b_k, a_k)`` under ``vocab`` and ``params``, bit for bit. Each
    distinct exercise is prepared once, as a row of a view of its own.
    """
    index: dict[int, int] = {}
    unique: list[Exercise] = []
    for pair in pairs:
        for ex in pair:
            if id(ex) not in index:
                index[id(ex)] = len(unique)
                unique.append(ex)
    view = PreparedCorpus(unique, vocab, params)
    ra = np.array([index[id(a)] for a, _ in pairs], dtype=np.int64)
    rb = np.array([index[id(b)] for _, b in pairs], dtype=np.int64)
    sims = edit_similarities(view.codes[ra], view.lengths[ra],
                             view.codes[rb], view.lengths[rb])
    u, v = view.embeddings[ra], view.embeddings[rb]
    n_features = 4 * params.d + 1
    rows = np.empty((len(pairs), 2, n_features))
    pair_feature_rows(u, v, sims, out=rows[:, 0])
    pair_feature_rows(v, u, sims, out=rows[:, 1])
    return rows.reshape(2 * len(pairs), n_features)


def _sigmoid(z: np.ndarray) -> np.ndarray:
    return 1.0 / (1.0 + np.exp(-np.clip(z, -35.0, 35.0)))


def _expit(z: np.ndarray) -> np.ndarray:
    """The sigmoid without clipping or overflow, for training and checking."""
    return np.exp(-np.logaddexp(0.0, -z))


@dataclass
class PairClassifier:
    weights: np.ndarray
    bias: float

    def prob(self, features: np.ndarray) -> float:
        return float(_sigmoid(features @ self.weights + self.bias))

    def prob_rows(self, features: np.ndarray) -> np.ndarray:
        """``prob`` of every row, bit for bit: ``vecdot`` takes each row's dot
        product with the 1-D kernel of ``prob`` (a matrix product rounds
        differently)."""
        return _sigmoid(np.vecdot(features, self.weights) + self.bias)

    @classmethod
    def train(cls, features: np.ndarray, labels: np.ndarray,
              l2: float = 1e-6) -> "PairClassifier":
        """Logistic regression fitted by Newton's method; deterministic.

        Minimizes mean binary cross-entropy + ``l2``/2 |w|^2 with the bias
        unpenalized, a convex objective. From zero, each step solves the
        Newton system and backtracks until the Armijo condition holds. It
        stops once every gradient entry is below ``_NEWTON_TOL`` in size, or
        after ``_NEWTON_STEPS`` steps, or when float64 can no longer decrease
        the objective along the step. On separable data the ``l2`` term keeps
        the minimum, and so the weights, finite.
        """
        x = np.asarray(features, dtype=np.float64)
        y = np.asarray(labels, dtype=np.float64)
        if x.ndim != 2 or len(x) != len(y):
            raise ValueError("features must be (n, f) aligned with labels")
        if not l2 > 0:
            raise ValueError("l2 must be positive, or separable data has no minimum")
        w = np.zeros(x.shape[1])
        b = 0.0
        loss, gw, gb = bce_loss_and_grads(w, b, x, y, l2)
        for _ in range(_NEWTON_STEPS):
            if max(np.abs(gw).max(initial=0.0), abs(gb)) < _NEWTON_TOL:
                break
            dw, db = _newton_step(x, w, b, gw, gb, l2)
            slope = float(gw @ dw) + gb * db
            t = 1.0
            while True:
                trial = bce_loss_and_grads(w + t * dw, b + t * db, x, y, l2)
                if trial[0] <= loss + _ARMIJO * t * slope:
                    break
                t *= 0.5
                if t < _MIN_STEP:
                    return cls(weights=w, bias=b)
            w, b = w + t * dw, b + t * db
            loss, gw, gb = trial
        return cls(weights=w, bias=b)

    def save(self, path, kind: str) -> None:
        save_arrays(path, kind, {"bias": self.bias}, {"weights": self.weights})

    @classmethod
    def load(cls, path, kind: str, n_features: int) -> "PairClassifier":
        """Read a head snapshot; refuses one that is not ``n_features`` wide."""
        meta, arrays = load_arrays(path, kind)
        weights = arrays["weights"]
        if weights.shape != (n_features,):
            raise SnapshotFormatError(
                f"{path}: {kind} head has shape {weights.shape}, expected "
                f"({n_features},) over the pair features of the current encoder; "
                "the head is stale, rerun step_index")
        return cls(weights=weights, bias=float(meta["bias"]))


def bce_loss_and_grads(weights: np.ndarray, bias: float, features: np.ndarray,
                       labels: np.ndarray, l2: float = 0.0):
    """Mean binary cross-entropy with the analytic gradients: the objective
    ``PairClassifier.train`` minimizes, and the tests' reference.

    Written as softplus(z) - y*z, which is exact for any logit magnitude.
    """
    z = features @ weights + bias
    loss = float((np.logaddexp(0.0, z) - labels * z).mean())
    loss += 0.5 * l2 * float(weights @ weights)
    err = (_expit(z) - labels) / len(labels)
    return loss, features.T @ err + l2 * weights, float(err.sum())


def _newton_step(x: np.ndarray, w: np.ndarray, b: float, gw: np.ndarray,
                 gb: float, l2: float) -> tuple[np.ndarray, float]:
    """Solve H [dw; db] = -[gw; gb] for the Hessian of ``bce_loss_and_grads``.

    H = [[x^T S x + l2 I, x^T s], [s^T x, sum s]] with s = p (1 - p) / n.
    The bias stays a row and column of its own and x^T S x is summed over
    row blocks of ``_HESSIAN_BLOCK`` multiply-adds, so no (n, f + 1) copy of
    the features is made. H is positive definite while any p is short of 0
    and 1 in float64.
    """
    n, f = x.shape
    z = x @ w + b
    s = _expit(z) * _expit(-z) / n
    h = np.zeros((f + 1, f + 1))
    rows = max(1, _HESSIAN_BLOCK // (f * f))
    for start in range(0, n, rows):
        block = x[start:start + rows]
        h[:f, :f] += block.T @ (block * s[start:start + rows, None])
    h[:f, f] = h[f, :f] = x.T @ s
    h[f, f] = s.sum()
    h[np.diag_indices(f)] += l2
    d = _cholesky_solve(h, -np.append(gw, gb))
    return d[:f], float(d[f])


def _cholesky_solve(h: np.ndarray, g: np.ndarray) -> np.ndarray:
    """Solve ``h d = g`` for a symmetric positive definite ``h``.

    A column-by-column Cholesky factorization and the two triangular solves
    in numpy, on one thread. The systems are small (4d + 2 square); LAPACK's
    threaded solver took ~0.13 s per call on them in the first calls of a
    process on a host with shared cores, against ~0.3 ms afterwards.
    """
    m = len(h)
    # g rides along as row m, so factoring column j also solves L y = g for
    # y[j]: row m of the factor ends up holding y
    low = np.zeros((m + 1, m))
    aug = np.vstack([h, g])
    for j in range(m):
        col = aug[j:, j] - low[j:, :j] @ low[j, :j]
        low[j, j] = np.sqrt(col[0])
        low[j + 1:, j] = col[1:] / low[j, j]
    y = low[m]
    d = np.empty(m)
    for i in range(m - 1, -1, -1):
        d[i] = (y[i] - low[i + 1:m, i] @ d[i + 1:]) / low[i, i]
    return d
