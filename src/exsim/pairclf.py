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
  codes: Myers' bit-vector algorithm (1999) in Hyyrö's formulation (2003).
  Its bit vectors run along each pair's second sequence, one loop step per
  token of the first sequence. Every pair of a block of ``_BLOCK`` pairs
  (one query against many candidates, or aligned pairs at training time)
  is a lane of bits in one Python int, so a step is a dozen int operations
  over all pairs at once. Every step is integer arithmetic, so it returns
  the textbook DP's distances exactly. ``edit_similarity`` is a thin
  wrapper over it; there is no second implementation.
* :class:`PreparedCorpus`, a view that normalizes each exercise's texts
  once, for serving and for training alike: their tokens, padded token
  codes and lengths, their vocabulary ids, and each exercise's single-text
  ``embed_text`` embedding. Every build step prepares the bank once and
  passes the view down: the vocabulary is built from its token lists, the
  encoder trains on its ids, and the ranker's task instances read its stem
  and analysis codes. Token codes are equal exactly when tokens are equal:
  in-vocabulary tokens use their vocabulary id, every out-of-vocabulary
  token gets a code of its own (vocabulary ids alone would collapse all of
  them onto UNK). Its token lists hold one ``str`` object per distinct
  token, not one per occurrence: the vocabulary's own string, or for a
  token outside the vocabulary the entry of a table the view owns. No
  process-wide table is used: ``sys.intern``'s strings are never freed on
  CPython 3.12, so every probe would grow a server.
* :class:`PreparedQuery`, the query's side of every pair, made once per
  cache miss by ``PreparedQuery(exercise, view)`` over the view the stages
  are built from and passed through all three: its tokens, its codes under
  the view's code table, its embedding under the view's params, and its
  edit similarities to the view's rows. The stages score shrinking subsets
  of the recalled list, so one kernel call, made by whichever stage asks
  first, serves all three. The very ``Exercise`` object the view holds at
  row r (checked by identity, never by id) reads that row's tokens, codes
  and length, and its embedding is the view's row r, the same bits by rule
  2 below. Any other exercise, a probe or an equal copy of a bank exercise,
  is prepared from its own text.

A stage is built from one view; a miss passes one ``PreparedQuery`` over
it. A view embeds under one backbone, the encoder's. A
:class:`PairFeaturizer` is over one view and reads its params from it, and
:meth:`PairFeaturizer.row_pairs` reads a pair's candidate side straight
from the view's rows. It refuses rows of another ``RowIndex`` and a query
prepared over another view; nothing else holds a second copy of the view's
codes or params to disagree with. A stage with a backbone of its own (the
ranker) keeps its own rows and embeds a probe with
:meth:`PreparedQuery.embedding`.

Bit-identity rules. The batched path must give the same bits as scoring one
pair at a time with :meth:`PairFeaturizer.features` and
:meth:`PairClassifier.prob`; the tests compare them with ``==``.

1. :meth:`PairClassifier.prob_rows` scores all rows with one
   ``np.vecdot(features, weights)`` (numpy >= 2.0), which sends each row
   through the same 1-D dot kernel as ``row @ weights`` in ``prob``, so
   every row's logit has the bits of the per-row product. A matrix product
   over many rows rounds differently in the last bit.
2. Every embedding is a single-text ``embed_text`` result: the view's rows
   (``encoder.embed_corpus`` rows, bit for bit), which a bank query reads as
   its own, and any other query's :meth:`PreparedQuery.embedding`. One
   array serves the vector channel, dedup and the variant split. Rows of an
   ``embed_text_batch`` call over several texts can differ from it in the
   last bit; only training makes such calls.
3. Edit similarities are integer distances divided elementwise, so a kept
   similarity read back for a subset of rows equals a fresh kernel call.
"""

from __future__ import annotations

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
_COMPARE_BOOLS = 2 ** 17  # bool temporary of one compare in the kernel
_NEWTON_STEPS = 50  # iteration cap of PairClassifier.train
_NEWTON_TOL = 1e-8  # ... and its stopping bound on max |gradient|
_ARMIJO = 1e-4  # sufficient-decrease fraction of the line search
_MIN_STEP = 2.0 ** -40  # shortest step the line search tries
_L2 = 1e-6  # weight penalty of PairClassifier.train
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
    row of ``b`` (P, Lb), or the other way round; ``a_len``/``b_len`` give
    each row's true length and the entries past it are padding, whatever
    their value.

    Bit-parallel: Myers' algorithm (J. ACM 1999) in Hyyrö's formulation
    (2003), with the pairs packed side by side as in Hyyrö, Fredriksson and
    Navarro (JEA 2005). With D[j, i] the distance of b[:j] to a[:i], column
    i is held as two bit vectors along ``b``, the positions j where
    D[j + 1, i] - D[j, i] is +1 (``vp``) and -1 (``vn``). Each pair owns a
    lane of ``width`` = (max b_len // 8 + 1) * 8 bits, and the lanes of a
    block sit end to end in one Python int, bit j of pair p at bit
    p * width + j; the matches of every token of ``a`` along ``b`` are ints
    of the same layout, built up front for the whole block. One loop step
    takes one token of ``a`` to the next column in about a dozen int
    operations across every pair.

    Masking rule: the lane mask ``mask`` holds the first ``b_len`` bits of
    each lane, so every lane has at least one guard bit above its row, and
    ``vp``/``vn`` never hold a bit outside it. The add then carries at most
    into a lane's first guard bit, and a shift by one moves a lane's top row
    bit into that guard and the 0 of the guard below into its bit 0 (the
    hp = 1 of row 0). ``& mask`` after the add and after each shift clears
    those bits again, so no lane reaches its neighbour and the bits of
    ``b``'s padding (matches past ``b_len``) never enter the state. Bit j of
    a lane depends only on bits 0..j of it, so the masking leaves the bits
    below ``b_len`` as the unpacked algorithm computes them.

    The distance is D[0, a_len] = a_len plus the deltas down the pair's
    last column: the set bits of its lane of ``vp`` minus those of ``vn``.
    A pair whose ``a`` ends before the block's longest keeps its lanes of
    that column. Pairs go through in blocks of ``_BLOCK``, which bounds the
    temporaries. Every step is exact integer arithmetic, so the result
    equals the textbook DP's.
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


def _pack(flags: np.ndarray) -> np.ndarray:
    """Bool ``flags`` (..., width), width a multiple of 8, as the flat bytes
    of one little-endian bit string: flag j of row p at bit p * width + j.
    Each row is whole bytes, so packing the flat array packs every row
    (several times faster than ``axis=-1`` over short rows)."""
    return np.packbits(flags.reshape(-1), bitorder="little")


def _levenshtein_block(a, a_len, b, b_len) -> np.ndarray:
    n = len(a)
    la, lb = int(a_len.max(initial=0)), int(b_len.max(initial=0))
    width = (lb // 8 + 1) * 8  # bits of one pair's lane, guard bits included
    lane_bytes = width // 8
    # b's tokens to the lane width; what the padding matches lands past
    # b_len. A one-row a keeps its zero stride, so numpy runs each compare
    # as one loop over every (pair, position); a chunk of a's columns at a
    # time bounds the bool temporary, laid out in C order for the packing
    # (numpy would follow the layout of a's transposed columns otherwise).
    b_lane = np.full((n, width), PAD_CODE, dtype=b.dtype)
    b_lane[:, :lb] = b[:, :lb]
    a_cols = a[:, :la].T[:, :, None]
    eq = np.empty((la, n * lane_bytes), dtype=np.uint8)
    chunk = max(1, _COMPARE_BOOLS // (n * width))
    for i in range(0, la, chunk):
        eq[i:i + chunk] = _pack(np.equal(a_cols[i:i + chunk], b_lane, order="C")).reshape(
            -1, n * lane_bytes)
    mask = int.from_bytes(_pack(np.arange(width) < b_len[:, None]), "little")
    vp, vn = mask, 0  # D[j, 0] = j: every delta down the first column is +1
    # the vectors of the pairs whose a ends before the last column are kept
    # there, through the lane masks of every a_len; one a_len needs none
    ends = _lane_masks(a_len, lane_bytes) if a_len.min() < la else {}
    kept_p, kept_n = mask & ends.get(0, 0), 0
    for i, eq_i in enumerate(eq, start=1):
        x = int.from_bytes(eq_i, "little") | vn
        d0 = ((((x & vp) + vp) ^ vp) | x) & mask
        hn = ((vp & d0) << 1) & mask
        # hp = vn | ~(vp | d0) is the complement of (vp | d0) ^ vn, as vn
        # lies inside d0. Shifted up by one, the complement takes in the 0
        # (the guard bit of the lane below) that stands for hp = 1 in row 0.
        not_hp = (((vp | d0) ^ vn) << 1) & mask
        # with the shifted hp = ~not_hp: vn = hp & d0 = d0 ^ (not_hp & d0)
        # and vp = hn | ~(hp | d0) = hn | (not_hp ^ (not_hp & d0))
        t = not_hp & d0
        vn = d0 ^ t
        vp = hn | (not_hp ^ t)
        if i in ends:
            kept_p |= vp & ends[i]
            kept_n |= vn & ends[i]
    if ends:
        vp, vn = kept_p, kept_n
    return a_len + _lane_counts(vp, n, lane_bytes) - _lane_counts(vn, n, lane_bytes)


def _lane_masks(a_len: np.ndarray, lane_bytes: int) -> dict[int, int]:
    """For each distinct ``a_len``, the int with every bit of the lanes of
    the pairs of that length set, built in one pass. The lengths come from
    ``bincount``: the first ``np.unique`` call of a process maps about
    1.6 MB more, which raised cold-5k's peak memory."""
    lengths = np.flatnonzero(np.bincount(a_len))
    rows = np.repeat(a_len == lengths[:, None], lane_bytes, axis=1) * np.uint8(255)
    return {k: int.from_bytes(row, "little") for k, row in zip(lengths.tolist(), rows)}


def _lane_counts(lanes: int, n: int, lane_bytes: int) -> np.ndarray:
    """The number of set bits in each of the ``n`` lanes of ``lanes``."""
    packed = np.frombuffer(lanes.to_bytes(n * lane_bytes, "little"), dtype=np.uint8)
    return np.bitwise_count(packed.reshape(n, lane_bytes)).sum(axis=1, dtype=np.int64)


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
    exercise i), computed on first read; ``params`` is the encoder's, and
    training views need none. The recall indexes read the same tokens and
    the same embeddings.
    ``index`` gives the rows of the ids; a view of a ``Corpus`` shares the
    corpus's, so candidates recalled from that corpus are rows of the view.

    Sharing rule: ``tokens`` and ``analysis.tokens`` hold one ``str`` object
    per distinct token, however often it occurs. An in-vocabulary token is
    the vocabulary's own string, any other token the entry of
    ``oov_strings``, a table that lives as long as the view. Each text is
    shared as it is tokenized (``Vocab.share``), so the occurrences' own
    strings do not outlive it; :meth:`with_own_vocab` shares once its
    vocabulary, which needs every text, is built. A query's tokens stay its
    own: preparing a ``PreparedQuery`` adds nothing to the table.
    """

    def __init__(self, exercises: Iterable[Exercise], vocab: Vocab,
                 params: Optional[EncoderParams] = None):
        exercises = exercises if isinstance(exercises, Corpus) else list(exercises)
        self._prepare(exercises, vocab, params,
                      (text_tokens(ex.text, vocab.stop_words) for ex in exercises))

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
        view.analysis = view._column(analyses, view.code_table())
        return view

    def _prepare(self, exercises, vocab: Vocab, params, tokens: Iterable[list[str]]) -> None:
        self.exercises = list(exercises)
        self.vocab = vocab
        self.params = params
        self.index = (exercises.index if isinstance(exercises, Corpus)
                      else RowIndex(ex.id for ex in self.exercises))
        self.oov_strings: dict[str, str] = {}
        table = CodeTable(vocab)
        self.oov_codes = table.extra
        self.tokens, self.codes, self.lengths = self._column(tokens, table)
        self._embeddings: Optional[np.ndarray] = None

    def _column(self, tokens: Iterable[list[str]], table: CodeTable) -> TextColumn:
        """Each text's ``tokens`` with one ``str`` per distinct token of the
        view (``Vocab.share`` through ``oov_strings``), and their codes under
        ``table``."""
        tokens = [self.vocab.share(t, self.oov_strings) for t in tokens]
        return TextColumn(tokens, *pad_codes([table.encode(t) for t in tokens]))

    @cached_property
    def analysis(self) -> TextColumn:
        """Every exercise's answer and analysis, prepared on first use."""
        return self._column((text_tokens(ex.answer_analysis, self.vocab.stop_words)
                             for ex in self.exercises), self.code_table())

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

    def code_table(self) -> CodeTable:
        """A fresh table for one query, consistent with the view's codes."""
        return CodeTable(self.vocab, self.oov_codes)


class PreparedQuery:
    """One query's side of its pairs over one ``view``, prepared once for
    every stage of a miss.

    The very ``Exercise`` object the view holds at row r (an identity check,
    never the id) reads row r's tokens, codes and length. Any other
    exercise, a probe or an equal copy, is prepared here from its own text,
    with the view's stop words and code table. ``ids`` are the vocabulary
    ids of ``codes`` and ``concepts`` the knowledge concepts. The rest is
    computed on first use and kept:

    * :attr:`view_embedding`, the single-text ``embed_text`` vector under the
      view's params: the view's row r for a bank query (the same bits, rule
      2), else :meth:`embedding` under ``view.params``, computed once.
      Recall's ``query_embedding``, dedup and the variant split read it.
    * :meth:`edit_similarities` to view rows. Rows not scored yet go through
      one kernel call; rows scored before are read back, which equals a
      fresh call bit for bit (rule 3 above).
    """

    def __init__(self, exercise: Exercise, view: PreparedCorpus):
        self.exercise = exercise
        self.view = view
        self.concepts = frozenset(exercise.metadata.knowledge_concepts)
        row = view.index.row_of.get(exercise.id)
        self.row = row if row is not None and view.exercises[row] is exercise else None
        if self.row is not None:
            self.tokens = view.tokens[row]
            self.length = view.lengths[row:row + 1]
            self.codes = view.codes[row:row + 1, :int(self.length[0])]
        else:
            self.tokens = text_tokens(exercise.text, view.vocab.stop_words)
            self.codes, self.length = pad_codes([view.code_table().encode(self.tokens)])
        self.ids = view._ids(self.codes, self.length)[0]
        self._sims = np.full(len(view.lengths), np.nan)

    def require_view(self, view: PreparedCorpus) -> None:
        """Refuses any ``view`` but the one this query was prepared over, even
        one of the same exercises and vocabulary: its out-of-vocabulary codes
        can differ, and the kept similarities and embedding would not follow."""
        if view is not self.view:
            raise ValueError("prepared query is over another view")

    def embedding(self, params) -> np.ndarray:
        """The query's single-text ``embed_text`` vector under ``params``,
        from its own ids; computed on every call, kept nowhere."""
        return embed_text(self.ids, params)

    @cached_property
    def view_embedding(self) -> np.ndarray:
        """The embedding under the view's params: the view's own row for a
        bank query (the same bits, rule 2), else :meth:`embedding`."""
        if self.row is not None:
            return self.view.embeddings[self.row]
        return self.embedding(self.view.params)

    def edit_similarities(self, rows: np.ndarray) -> np.ndarray:
        """Edit similarity of the query to each of the view's ``rows``."""
        todo = rows[np.isnan(self._sims[rows])]
        if len(todo):
            self._sims[todo] = edit_similarities(self.codes, self.length,
                                                 self.view.codes[todo],
                                                 self.view.lengths[todo])
        return self._sims[rows]


# ---------------------------------------------------------------------------
# Pair features

def pair_features(u: np.ndarray, v: np.ndarray, edit_sim: float) -> np.ndarray:
    return np.concatenate([u, v, np.abs(u - v), u * v, [edit_sim]])


def pair_feature_rows(u: np.ndarray, v: np.ndarray, sims: np.ndarray,
                      out: Optional[np.ndarray] = None) -> np.ndarray:
    """``pair_features`` of every row; u or v may be one vector broadcast to all."""
    n, d = len(sims), np.shape(u)[-1]
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
    over one prepared ``view``: its ``params`` (the encoder's), its rows as
    candidates, and queries prepared over it."""

    view: PreparedCorpus

    def embedding(self, query: PreparedQuery) -> np.ndarray:
        """``query``'s kept single-text embedding under its view's params."""
        return query.view_embedding

    def features(self, a: PreparedQuery, b: PreparedQuery) -> np.ndarray:
        """The feature row of one pair, each side from its own prepared text."""
        sim = edit_similarity(a.tokens, b.tokens)
        return pair_features(self.embedding(a), self.embedding(b), sim)

    def row_pairs(self, query: PreparedQuery, index: RowIndex, rows: np.ndarray):
        """(u, v, edit similarities) of the pairs (query, row) over ``index``'s
        ``rows``: ``u`` is the query's embedding and ``v`` the view's rows.
        Refuses rows of an index other than the view's and a query prepared
        over another view (``PreparedQuery.require_view``)."""
        if index is not self.view.index:
            raise ValueError("candidates are not rows of this featurizer's view")
        query.require_view(self.view)
        return query.view_embedding, self.view.embeddings[rows], query.edit_similarities(rows)

    @property
    def n_features(self) -> int:
        return 4 * self.view.params.d + 1


def both_orders(pairs: Sequence[tuple[Exercise, Exercise]], vocab: Vocab,
                params: EncoderParams) -> np.ndarray:
    """Feature rows of every pair as (a, b) then (b, a), interleaved.

    Row 2k equals ``features(a_k, b_k)`` and row 2k + 1 equals
    ``features(b_k, a_k)`` under ``vocab`` and ``params``, bit for bit. Each
    distinct exercise is prepared once, as a row of a view of its own. Edit
    similarities are computed one block of ``_BLOCK`` pairs at a time, and
    the view is dropped before :func:`both_order_rows` allocates the
    (2 x pairs, 4d + 1) matrix, so at the peak the matrix is the only large
    array alive here.
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
    sims = np.empty(len(pairs))
    for s in range(0, len(pairs), _BLOCK):
        a, b = ra[s:s + _BLOCK], rb[s:s + _BLOCK]
        sims[s:s + _BLOCK] = edit_similarities(view.codes[a], view.lengths[a],
                                               view.codes[b], view.lengths[b])
    embeddings = view.embeddings
    del view
    return both_order_rows(embeddings, ra, rb, sims)


def both_order_rows(embeddings: np.ndarray, rows_a: np.ndarray, rows_b: np.ndarray,
                    sims: np.ndarray) -> np.ndarray:
    """Feature rows of the pairs (rows_a[k], rows_b[k]) of ``embeddings``
    with edit similarities ``sims``, as (a, b) then (b, a), interleaved; the
    embeddings are gathered one block of ``_BLOCK`` pairs at a time."""
    n_features = 4 * embeddings.shape[1] + 1
    rows = np.empty((len(sims), 2, n_features))
    for s in range(0, len(sims), _BLOCK):
        block = slice(s, s + _BLOCK)
        u, v = embeddings[rows_a[block]], embeddings[rows_b[block]]
        pair_feature_rows(u, v, sims[block], out=rows[block, 0])
        pair_feature_rows(v, u, sims[block], out=rows[block, 1])
    return rows.reshape(2 * len(sims), n_features)


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
    def train(cls, features: np.ndarray, labels: np.ndarray) -> "PairClassifier":
        """Logistic regression fitted by Newton's method; deterministic.

        Minimizes mean binary cross-entropy + ``_L2``/2 |w|^2 with the bias
        unpenalized, a convex objective. From zero, each step solves the
        Newton system and backtracks until the Armijo condition holds. It
        stops once every gradient entry is below ``_NEWTON_TOL`` in size, or
        after ``_NEWTON_STEPS`` steps, or when float64 can no longer decrease
        the objective along the step. On separable data the ``_L2`` term keeps
        the minimum, and so the weights, finite.
        """
        x = np.asarray(features, dtype=np.float64)
        y = np.asarray(labels, dtype=np.float64)
        if x.ndim != 2 or len(x) != len(y):
            raise ValueError("features must be (n, f) aligned with labels")
        w = np.zeros(x.shape[1])
        b = 0.0
        loss, gw, gb = bce_loss_and_grads(w, b, x, y, _L2)
        for _ in range(_NEWTON_STEPS):
            if max(np.abs(gw).max(initial=0.0), abs(gb)) < _NEWTON_TOL:
                break
            dw, db = _newton_step(x, w, b, gw, gb, _L2)
            slope = float(gw @ dw) + gb * db
            t = 1.0
            while True:
                trial = bce_loss_and_grads(w + t * dw, b + t * db, x, y, _L2)
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
