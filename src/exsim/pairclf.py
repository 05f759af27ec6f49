"""Binary classifier over exercise-pair features.

Duplicate detection (recall stage), variant classification (re-rank stage)
and the cleaning folds stack the same head on the encoder: a logistic
regression over the symmetric pair features
[(u + v) / sqrt(2), |u - v|, u * v, edit_similarity], where u and v are the
two exercises' embeddings and the last scalar is a normalized token-level
Levenshtein similarity of the normalized texts. Every entry is the same
whichever side is u, so every head scores (a, b) and (b, a) alike.
Canonical formula spelling matters here: structural edits such as a raised
power inflate into several canonical tokens, while cosmetic digit noise
stays small.

Training. :meth:`PairClassifier.train` fits a head by Newton's method on
the convex objective, mean binary cross-entropy plus a small L2 penalty on
the weights, with a backtracking line search. It converges in 10 to 15
steps on both heads; the Hessian is summed over row blocks of the features,
so a fit holds no second copy of them. The variant head and the cleaning
folds fit on row pairs of a :class:`PreparedCorpus` (:func:`train_pair_head`,
with :func:`row_pair_similarities`, which the ranker's tasks call too); the
dedup head on bank rows against clones prepared as queries (``recall``).
The 1/sqrt(2) makes the first block the symmetric half of an orthonormal
rotation of [u, v], which keeps both the logits and the L2 penalty: a head
here is a head over [u, v, |u - v|, u * v, sim] with equal weights on u and
v, where a fit on both orders of every pair ends anyway.

Hot path. Every uncached query scores up to a hundred (query, candidate)
pairs in three stages: dedup, ranking and the variant split (a profiled
query only the rows the student can be served, see ``recall``). The pair
work is organised around three pieces:

* :func:`levenshtein`, one edit-distance kernel over padded integer token
  codes: Myers' bit-vector algorithm (1999) in Hyyrö's formulation (2003).
  Its bit vectors run along each pair's second sequence, one loop step per
  token of the first sequence. Every pair of a block of ``_BLOCK`` pairs
  (one query against many candidates, or aligned pairs at training time)
  is a lane of bits in one Python int, so a step is a dozen int operations
  over all pairs at once. Every step is integer arithmetic, so it returns
  the textbook DP's distances exactly. ``edit_similarity`` is a thin
  wrapper over it, and a query's distances to the view's rows
  (:meth:`PreparedCorpus.distances`) run the same loop, :func:`_myers`,
  over lanes prepared with the view; there is no second implementation.
* :class:`PreparedCorpus`, a view that normalizes each exercise's texts
  once, for serving and for training alike, and keeps them only as padded
  token codes with their lengths, from which it maps their padded
  vocabulary ids, and each exercise's single-text ``embed_text``
  embedding. Token codes are equal exactly when tokens are equal:
  in-vocabulary tokens use their vocabulary id, every out-of-vocabulary
  token gets a code of its own (vocabulary ids alone would collapse all of
  them onto UNK). Each row's kernel lane is prepared with it: the code
  matrix is padded to the lane width of the longest row, and
  ``lane_masks`` holds each row's packed lane mask, so a query's kernel
  call gathers rows instead of padding and packing them, and compares each
  distinct query code with them once. A process codes the bank's stems
  once (a corpus keeps the stem column of its views) and every build step
  passes its view down: the encoder trains on its ids, the ranker's task
  instances read its stem and analysis codes, BM25 indexes its stem codes,
  and the pair heads train from its rows.
* :class:`PreparedQuery`, the query's side of every pair, made once per
  cache miss by ``PreparedQuery(exercise, view)`` over the view the stages
  are built from and passed through all three: its codes under the view's
  code table, its embedding under the view's params, its edit
  similarities to the view's rows and its block of feature rows over them.
  The stages score shrinking subsets of the recalled list, so one kernel
  call, made by whichever stage asks first, serves all three. The block
  dedup builds, one feature row per candidate, serves the variant split
  too: it reads its rows back. With the ranker's own block, a miss builds
  feature rows twice. The very ``Exercise`` object the view holds at row r
  (checked by identity, never by id) reads that row's codes and length,
  and its embedding is the view's row r, the same bits by rule 2 below.
  Any other exercise, a probe or an equal copy of a bank exercise, is
  coded from its own text.

Text becomes tokens in this module alone (:func:`text_tokens`), and token
strings live only while a text is coded, or while
:meth:`PreparedCorpus.with_own_vocab` builds its vocabulary. The per-pair
reference :meth:`PairFeaturizer.features` normalizes both texts again, so
it stays independent of the view's codes.

A stage is built from one view, which holds the ``Corpus`` it is the rows
of, and a miss passes one ``PreparedQuery`` over it. A view embeds under
one backbone, the encoder's. The dedup and variant heads are bare
:class:`PairClassifier` s that score the query's feature rows, whose
candidate side is read straight from the view's rows; nothing else holds a
second copy of the view's codes or params to disagree with. A stage with a
backbone of its own (the ranker) keeps its own rows and embeds a probe with
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
4. Every entry of a feature row is computed from that pair's inputs alone,
   so a row read back from the query's block has the bits of building it
   again. The (v, u) row equals the (u, v) row bit for bit: v + u = u + v,
   |v - u| = |u - v| and v * u = u * v hold exactly in IEEE arithmetic, and
   the edit distance is symmetric.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import cached_property
from typing import Iterable, NamedTuple, Optional, Sequence

import numpy as np

from .corpus import Corpus, Exercise
from .encoder import EncoderParams, embed_corpus, embed_text
from .snapshots import load_arrays, save_arrays
from .textnorm import UNK_ID, Vocab, canonical_stop_words, normalize_text, split_tokens

PAD_CODE = -1
_BLOCK = 512  # pairs per pass of the edit-distance kernel
_SQRT2 = math.sqrt(2.0)  # scales the u + v block (see Training above)
_SIM_BLOCK = 4096  # row pairs per edit-similarity call of row_pair_similarities
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
    equals the textbook DP's. :meth:`PreparedCorpus.distances` runs the
    same loop over lanes the view prepared once.
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


def _lane_width(longest: int) -> int:
    """Bits of the lane of a row of ``longest`` tokens, guard bits included:
    whole bytes, at least one bit above the row."""
    return (longest // 8 + 1) * 8


def _row_masks(lengths: np.ndarray, width: int) -> np.ndarray:
    """Each row's lane mask, its first ``lengths`` bits set, packed into
    ``width // 8`` bytes per row."""
    return _pack(np.arange(width) < lengths[:, None]).reshape(len(lengths), width // 8)


def _levenshtein_block(a, a_len, b, b_len) -> np.ndarray:
    """One block of aligned or broadcast pairs: ``b``'s lanes to its longest
    row's lane width, the matches of each column of ``a``, then
    :func:`_myers`."""
    lb = int(b_len.max(initial=0))
    width = _lane_width(lb)
    # b's tokens to the lane width; what the padding matches lands past b_len
    lanes = np.full((len(b), width), PAD_CODE, dtype=b.dtype)
    lanes[:, :lb] = b[:, :lb]
    columns = a[:, :int(a_len.max(initial=0))].T[:, :, None]
    return _myers(_match_words(columns, lanes), _row_masks(b_len, width), a_len)


def _match_words(columns: np.ndarray, lanes: np.ndarray) -> list[int]:
    """For each entry of ``columns`` (k, n or 1, 1), codes of ``a`` one per
    pair or one for all, the int whose lane p has bit j set where
    ``lanes[p, j]`` equals pair p's code. A chunk of columns at a time bounds
    the bool temporary, laid out in C order for the packing (numpy would
    follow the layout of transposed columns otherwise); a code broadcast
    over every pair is one loop over every (pair, position)."""
    n, width = lanes.shape
    step = n * width // 8
    chunk = max(1, _COMPARE_BOOLS // (n * width))
    words = []
    for i in range(0, len(columns), chunk):
        packed = _pack(np.equal(columns[i:i + chunk], lanes, order="C")).tobytes()
        words += [int.from_bytes(packed[j:j + step], "little")
                  for j in range(0, len(packed), step)]
    return words


def _myers(columns: Sequence[int], masks: np.ndarray, a_len: np.ndarray) -> np.ndarray:
    """The distance of each pair p from ``columns``, the match words of ``a``'s
    tokens (:func:`_match_words`) up to its longest, ``masks`` (n,
    width // 8), each lane's packed mask, and each ``a``'s length ``a_len``
    (see :func:`levenshtein`)."""
    n, lane_bytes = masks.shape
    la = len(columns)
    mask = int.from_bytes(masks.tobytes(), "little")
    vp, vn = mask, 0  # D[j, 0] = j: every delta down the first column is +1
    # the vectors of the pairs whose a ends before the last column are kept
    # there, through the lane masks of every a_len; one a_len needs none
    ends = _lanes_by_length(a_len, lane_bytes) if a_len.min() < la else {}
    kept_p, kept_n = mask & ends.get(0, 0), 0
    for i, eq_i in enumerate(columns, start=1):
        x = eq_i | vn
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
    # the set bits of each lane of vp minus those of vn, in one pass
    size = n * lane_bytes
    packed = np.frombuffer(vp.to_bytes(size, "little") + vn.to_bytes(size, "little"),
                           dtype=np.uint8)
    counts = np.bitwise_count(packed.reshape(2, n, lane_bytes)).sum(axis=2, dtype=np.int64)
    return a_len + counts[0] - counts[1]


def _lanes_by_length(a_len: np.ndarray, lane_bytes: int) -> dict[int, int]:
    """For each distinct ``a_len``, the int with every bit of the lanes of
    the pairs of that length set, built in one pass. The lengths come from
    ``bincount``: the first ``np.unique`` call of a process maps about
    1.6 MB more, which raised cold-5k's peak memory."""
    lengths = np.flatnonzero(np.bincount(a_len))
    rows = np.repeat(a_len == lengths[:, None], lane_bytes, axis=1) * np.uint8(255)
    return {k: int.from_bytes(row, "little") for k, row in zip(lengths.tolist(), rows)}


def edit_similarities(a: np.ndarray, a_len, b: np.ndarray, b_len) -> np.ndarray:
    """1 - levenshtein / max(len) per pair; 1.0 for two empty sequences."""
    a_len = np.asarray(a_len, dtype=np.int64)
    b_len = np.asarray(b_len, dtype=np.int64)
    return _similarities(levenshtein(a, a_len, b, b_len), a_len, b_len)


def _similarities(dist: np.ndarray, a_len, b_len) -> np.ndarray:
    longest = np.maximum(a_len, b_len)
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
    view and query, and the per-pair reference, goes through here."""
    return split_tokens(normalize_text(text, stop_words))


def pad_codes(rows: Sequence[Sequence[int]]) -> tuple[np.ndarray, np.ndarray]:
    """Stack code sequences into a PAD_CODE-padded matrix plus their lengths.
    The matrix is as wide as the kernel's lane of the longest row, a
    multiple of 8 above it, so its rows are the kernel's lanes."""
    lengths = np.array([len(r) for r in rows], dtype=np.int64)
    out = np.full((len(rows), _lane_width(int(lengths.max(initial=0)))), PAD_CODE,
                  dtype=np.int32)
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
    """One text of every exercise: padded token codes and lengths."""

    codes: np.ndarray
    lengths: np.ndarray


def _text_column(tokens: Iterable[list[str]], table: CodeTable) -> TextColumn:
    """Each text's ``tokens`` coded under ``table``."""
    return TextColumn(*pad_codes([table.encode(t) for t in tokens]))


class _Stems(NamedTuple):
    """A stem column with what it was made under: the vocabulary, and the
    codes of its out-of-vocabulary tokens."""

    vocab: Vocab
    column: TextColumn
    oov_codes: dict[str, int]


def _stacked(top: TextColumn, bottom: TextColumn) -> tuple[np.ndarray, np.ndarray]:
    """The codes of ``top``'s rows then ``bottom``'s, in the lane of the
    longer of the two widest rows, as ``pad_codes`` over both; and their
    lengths."""
    width = max(top.codes.shape[1], bottom.codes.shape[1])
    codes = [np.pad(c.codes, ((0, 0), (0, width - c.codes.shape[1])), constant_values=PAD_CODE)
             for c in (top, bottom)]
    return np.concatenate(codes), np.concatenate([top.lengths, bottom.lengths])


def _corpus_stems(corpus: Corpus, vocab: Vocab,
                  tokens: Optional[Iterable[list[str]]] = None) -> _Stems:
    """The stem column ``corpus`` keeps when it was made under a vocabulary
    equal to ``vocab``; else one made now, from ``tokens`` when given, and
    kept in its place."""
    kept = corpus.stems
    if kept is None or kept.vocab != vocab:
        if tokens is None:
            tokens = (text_tokens(ex.text, vocab.stop_words) for ex in corpus)
        table = CodeTable(vocab)
        kept = _Stems(vocab, _text_column(tokens, table), table.extra)
        kept.column.codes.flags.writeable = False
        kept.column.lengths.flags.writeable = False
        corpus.stems = kept
    return kept


class PreparedCorpus:
    """The rows of one ``Corpus``: each exercise's texts normalized once and
    held as padded token codes with their lengths, column-wise, the one
    place where an exercise's text becomes codes and vocabulary ids, for
    training and for serving.

    The stem side (``Exercise.text``, stem and options) is coded at
    construction into ``codes``/``lengths``. The answer/analysis side,
    ``analysis``, is coded on first use under the same table; serving never
    reads it. :meth:`texts` stacks the two. No token string outlives the
    coding of its text.

    Codes are equal exactly when tokens are equal: an in-vocabulary token's
    code is its vocabulary id, and every out-of-vocabulary token has a code
    of its own past the vocabulary, which ``oov_codes`` maps it to (the stem
    side's; the analysis side's extra codes are not kept). Token ids have
    one format, a padded matrix with the rows' lengths: :meth:`token_ids`
    maps a code matrix (``codes``, ``analysis.codes``, ``texts``' or a
    query's) on each call. An in-vocabulary code is its id, an
    out-of-vocabulary code UNK, and ``PAD_CODE`` the vocabulary size, the id
    of the zero row ``encoder._pool`` appends to the table.

    ``embeddings`` holds each row's single-text ``embed_text`` vector under
    ``params`` (row i is bit-identical to the ``PreparedQuery.embedding`` of
    exercise i), computed on first read; ``params`` is the encoder's, and
    training views need none. The recall indexes read the same codes and
    the same embeddings. ``corpus`` is the corpus the view is the rows of,
    which the trainers and the re-rank filters read, ``exercises`` its row
    tuple (``Corpus.exercises`` itself) and ``index`` its index, so
    candidates recalled from it are rows of the view; an exercise outside
    it is a ``PreparedQuery`` over the view.

    A process codes a corpus's stems once: the view keeps its stem column
    (codes and lengths, read-only) in the corpus, as ``Corpus.stems``, keyed
    by the vocabulary's tokens and stop words. A later view of that corpus
    under an equal vocabulary, a vocabulary loaded again included, reads the
    column, normalizes no stem and takes the vocabulary the column was made
    under as its ``vocab``. A corpus keeps one column, the last one made;
    the analysis column, the embeddings and the lane masks stay the view's
    own, so training data is not kept.
    """

    def __init__(self, corpus: Corpus, vocab: Vocab, params: Optional[EncoderParams] = None):
        stems = _corpus_stems(corpus, vocab)
        self.corpus = corpus
        self.exercises = corpus.exercises
        self.index = corpus.index
        self.params = params
        self.vocab = stems.vocab
        self.codes, self.lengths = stems.column
        self.oov_codes = stems.oov_codes
        self.lane_masks = _row_masks(self.lengths, self.codes.shape[1])
        self._embeddings: Optional[np.ndarray] = None

    @classmethod
    def with_own_vocab(cls, corpus: Corpus, stop_words: Iterable[str] = ()) -> "PreparedCorpus":
        """``corpus`` prepared under a new vocabulary of its stem and analysis
        tokens, which keeps ``stop_words``; each text is normalized once, for
        the vocabulary and the view alike."""
        stop = canonical_stop_words(stop_words)
        stems = [text_tokens(ex.text, stop) for ex in corpus]
        analyses = [text_tokens(ex.answer_analysis, stop) for ex in corpus]
        vocab = Vocab.build(stems + analyses, stop_words=stop)
        _corpus_stems(corpus, vocab, stems)
        view = cls(corpus, vocab)
        view.analysis = _text_column(analyses, view.code_table())
        return view

    @cached_property
    def analysis(self) -> TextColumn:
        """Every exercise's answer and analysis, coded on first use."""
        return _text_column((text_tokens(ex.answer_analysis, self.vocab.stop_words)
                             for ex in self.exercises), self.code_table())

    def texts(self) -> tuple[np.ndarray, np.ndarray]:
        """Every stem, then every answer/analysis, as one padded code matrix
        and its lengths: row r < n is exercise r's stem and row n + r its
        answer/analysis, n being the number of exercises."""
        return _stacked(TextColumn(self.codes, self.lengths), self.analysis)

    def token_ids(self, codes: np.ndarray) -> np.ndarray:
        """The vocabulary ids of a code matrix under this view's table: an
        out-of-vocabulary code becomes UNK and ``PAD_CODE`` the vocabulary
        size, the id of the zero row pooling appends (``encoder._pool``)."""
        ids = np.where(codes >= len(self.vocab), UNK_ID, codes).astype(np.int64)
        ids[codes == PAD_CODE] = len(self.vocab)
        return ids

    @property
    def embeddings(self) -> np.ndarray:
        if self._embeddings is None:
            if self.params is None:
                raise ValueError("prepared corpus has no params to embed under")
            self._embeddings = embed_corpus(self, self.params)
        return self._embeddings

    def code_table(self) -> CodeTable:
        """A fresh table for one query, consistent with the view's codes."""
        return CodeTable(self.vocab, self.oov_codes)

    def distances(self, codes: np.ndarray, length: int, rows: np.ndarray) -> np.ndarray:
        """Levenshtein distance of one code row, the first ``length`` of
        ``codes`` (1, L) under this view's code table, to each of ``rows``:
        the kernel of :func:`levenshtein` over the rows' prepared lanes, cut
        to the lane width of each block's longest row."""
        # each distinct code of the row is compared once
        at: dict[int, int] = {}
        order = [at.setdefault(c, len(at)) for c in codes[0, :length].tolist()]
        distinct = np.fromiter(at, dtype=self.codes.dtype, count=len(at))[:, None, None]
        out = np.empty(len(rows), dtype=np.int64)
        for s in range(0, len(rows), _BLOCK):
            block = rows[s:s + _BLOCK]
            lane_bytes = _lane_width(int(self.lengths[block].max(initial=0))) // 8
            words = _match_words(distinct, self.codes[block, :8 * lane_bytes])
            out[s:s + _BLOCK] = _myers([words[k] for k in order],
                                       self.lane_masks[block, :lane_bytes],
                                       np.full(len(block), length, dtype=np.int64))
        return out


class PreparedQuery:
    """One query's side of its pairs over one ``view``, prepared once for
    every stage of a miss.

    The very ``Exercise`` object the view holds at row r (an identity check,
    never the id) reads row r's codes and length. Any other exercise, a
    probe or an equal copy, is coded here from its own text, with the
    view's stop words and code table. ``concepts`` are the knowledge
    concepts. The rest is computed on first use and kept, so a query
    allocates nothing per view row until a stage scores pairs:

    * :attr:`ids`, the vocabulary ids of ``codes``; a bank query's embeddings
      are rows, so only a probe's are read.
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
            self.length = view.lengths[row:row + 1]
            self.codes = view.codes[row:row + 1, :int(self.length[0])]
        else:
            self.codes, self.length = pad_codes([view.code_table().encode(
                text_tokens(exercise.text, view.vocab.stop_words))])
        # per view row, allocated by the first edit_similarities/feature_rows call
        self._sims: Optional[np.ndarray] = None
        self._block_at: Optional[np.ndarray] = None
        self._block: Optional[np.ndarray] = None

    @cached_property
    def ids(self) -> np.ndarray:
        """The vocabulary ids of ``codes``, mapped on first use."""
        return self.view.token_ids(self.codes)[0, :int(self.length[0])]

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
        if self._sims is None:
            self._sims = np.full(len(self.view.lengths), np.nan)
        todo = rows[np.isnan(self._sims[rows])]
        if len(todo):
            dist = self.view.distances(self.codes, int(self.length[0]), todo)
            self._sims[todo] = _similarities(dist, self.length, self.view.lengths[todo])
        return self._sims[rows]

    def feature_rows(self, rows: np.ndarray) -> np.ndarray:
        """The feature rows of the pairs (query, row) for the view's ``rows``
        (:func:`pair_feature_rows`): ``u`` is :attr:`view_embedding`, ``v``
        the view's row. Rows not featurized yet go through one
        :func:`pair_feature_rows` call, kept in the query's block; rows
        featurized before are read back, the same bits (rule 4)."""
        if self._block_at is None:
            self._block_at = np.full(len(self.view.lengths), -1, dtype=np.intp)
        at = self._block_at[rows]
        todo = rows[at < 0]
        if len(todo) or self._block is None:
            new = pair_feature_rows(self.view_embedding, self.view.embeddings[todo],
                                    self.edit_similarities(todo))
            kept = 0 if self._block is None else len(self._block)
            self._block_at[todo] = kept + np.arange(len(todo))
            self._block = new if self._block is None else np.concatenate([self._block, new])
            if len(todo) == len(rows):
                return new
            at = self._block_at[rows]
        return self._block[at]


# ---------------------------------------------------------------------------
# Pair features

def pair_features(u: np.ndarray, v: np.ndarray, edit_sim: float) -> np.ndarray:
    """The feature row ``[(u + v) / sqrt(2), |u - v|, u * v, edit_sim]``
    (3d + 1 wide) of one pair."""
    return np.concatenate([(u + v) / _SQRT2, np.abs(u - v), u * v, [edit_sim]])


def pair_feature_rows(u: np.ndarray, v: np.ndarray, sims: np.ndarray) -> np.ndarray:
    """``pair_features`` of every row; u or v may be one vector broadcast to all."""
    u, v = np.atleast_2d(u, v)
    return np.concatenate([(u + v) / _SQRT2, np.abs(u - v), u * v,
                           np.reshape(sims, (-1, 1))], axis=1)


@dataclass
class PairFeaturizer:
    """The per-pair reference the served path is checked against: the
    feature row of one pair of queries prepared over ``view``, under its
    ``params``. The served stages read :meth:`PreparedQuery.feature_rows`."""

    view: PreparedCorpus

    def embedding(self, query: PreparedQuery) -> np.ndarray:
        """``query``'s kept single-text embedding under its view's params."""
        return query.view_embedding

    def features(self, a: PreparedQuery, b: PreparedQuery) -> np.ndarray:
        """The feature row of one pair, its edit similarity over each side's
        own normalized text, not the view's codes: the per-pair reference
        the batched path is checked against."""
        sim = edit_similarity(*(text_tokens(q.exercise.text, q.view.vocab.stop_words)
                                for q in (a, b)))
        return pair_features(self.embedding(a), self.embedding(b), sim)


def row_pair_similarities(codes: np.ndarray, lengths: np.ndarray, left: np.ndarray,
                          right: np.ndarray) -> np.ndarray:
    """Edit similarity of the rows (left, right) of the code matrix ``codes``
    with row lengths ``lengths``; ``left`` and ``right`` are aligned arrays
    of any one shape, which the result takes. Each distinct pair of rows is
    computed once, ``_SIM_BLOCK`` pairs per kernel call."""
    keys = np.asarray(left, dtype=np.int64) * len(codes) + right
    unique, inverse = np.unique(keys, return_inverse=True)
    l_rows, r_rows = np.divmod(unique, len(codes))
    sims = np.empty(len(unique))
    for start in range(0, len(unique), _SIM_BLOCK):
        l, r = l_rows[start:start + _SIM_BLOCK], r_rows[start:start + _SIM_BLOCK]
        sims[start:start + _SIM_BLOCK] = edit_similarities(codes[l], lengths[l],
                                                           codes[r], lengths[r])
    return sims[inverse].reshape(keys.shape)


def train_pair_head(view: PreparedCorpus, rows_a: np.ndarray, rows_b: np.ndarray,
                    labels: np.ndarray, sims: Optional[np.ndarray] = None) -> PairClassifier:
    """A head fitted on the feature rows of the row pairs (rows_a[k],
    rows_b[k]) of ``view``, one per pair. ``sims`` are the pairs' edit
    similarities, computed here over the view's codes when not given."""
    if sims is None:
        sims = row_pair_similarities(view.codes, view.lengths, rows_a, rows_b)
    return PairClassifier.train(
        pair_feature_rows(view.embeddings[rows_a], view.embeddings[rows_b], sims), labels)


def _sigmoid(z: np.ndarray) -> np.ndarray:
    return 1.0 / (1.0 + np.exp(-np.clip(z, -35.0, 35.0)))


def _expit(z: np.ndarray) -> np.ndarray:
    """The sigmoid without clipping or overflow, for training and checking."""
    return np.exp(-np.logaddexp(0.0, -z))


@dataclass
class PairClassifier:
    weights: np.ndarray
    bias: float
    # the digests of the files the loaded snapshot was fitted from
    made_from: dict[str, str] = field(default_factory=dict)

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

    def save(self, path, kind: str, made_from: dict[str, str]) -> None:
        save_arrays(path, kind, {"bias": self.bias, "made_from": made_from},
                    {"weights": self.weights})

    @classmethod
    def load(cls, path, kind: str) -> "PairClassifier":
        """Read a head snapshot; the head carries its ``made_from``."""
        meta, arrays = load_arrays(path, kind)
        return cls(weights=arrays["weights"], bias=float(meta["bias"]),
                   made_from=meta["made_from"])


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
    in numpy, on one thread. The systems are small (3d + 2 square); LAPACK's
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
