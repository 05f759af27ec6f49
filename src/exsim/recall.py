"""Candidate recall: lexical BM25 channel, embedding channel, merge, dedup.

Two complementary retrieval channels run per query. The lexical channel is
an inverted-index BM25 (k1=1.2, b=0.75) over the normalized stem+options
text with an additive bonus per shared knowledge concept; it only retrieves
documents sharing at least one text token with the query. The embedding
channel scans unit-norm encoder embeddings by cosine. Both indexes are
derived data: ``Recaller.build`` makes them in memory from one prepared
view of the corpus under the vocabulary and the encoder, so they always
match the artifacts they serve.

No per-document Python loop runs per query, and both channels return what a
plain loop and ``sorted(..., key=(-score, id))[:k]`` would, bit for bit:

- BM25 indexes the view's stem code matrix: the postings of every code
  come from one ``np.unique`` over (code, row) keys, with each posting's
  length denominator computed by the loop's float operations and each
  code's ``math.log`` idf (not ``np.log``, whose last bit can differ).
  Each posting's term is computed once per (code, query count) and kept,
  for counts up to ``KEPT_COUNTS`` (a higher count is recomputed per
  query). A query adds its terms into one +0.0 vector in the sorted order
  of their token strings, through a rank per code the index computes once
  from the view's vocabulary and out-of-vocabulary table, so each
  document's score is the same sequence of additions from +0.0 as a
  per-document loop over sorted tokens (in code order the last bits
  differ); a frequent code's dense vector adds +0.0 to the other rows,
  which is exact. Every term is positive, so a document shares a query
  token exactly when its score is above 0.
- Top-k selects from a dense vector of one score per row. The (k+1)-th
  best score is found by one partition (k + 1 leaves room for the excluded
  row), so the rows scoring at least that much hold the k best of the
  other rows with every tie at the cut; the excluded row is dropped from
  those few, which ``np.lexsort`` orders by (-score, the row's rank in
  sorted-id order), so ties break by id, not by row, before the cut at k.
  BM25 selects only rows a query token touched.

Candidates travel as :class:`Candidates`: the corpus rows, their scores and
a source code per row, in arrays, from top-k through ranking to the served
list. Ids are looked up only for the served list; iterating a candidate
list builds a :class:`Candidate` per row for callers that want objects.
Both channels share the corpus's ``RowIndex`` (each id's row and each row's
rank in sorted-id order).

Channel results merge by a set rule: candidates found by both channels come
first (ordered by embedding score), then the remaining slots split between
the channel-only lists, the lexical side receiving the extra slot on odd
remainders, backfilling from the other side when one list runs short. The
rule is applied with boolean masks over the corpus rows.

Filters before pair work. A miss with a student profile runs the re-rank's
stage and difficulty filters (``rerank.stage_filter`` and
``rerank.personalize_filter``) on the merged list, before dedup; no other
stage filters. Neither channel nor the merge reads the profile, and dedup,
ranking and the variant split each score a candidate from its own pair
alone, so the kernel and every feature row are spent only on rows the
student can be served, and the served list has the bits of filtering the
whole ranked list.

Finally, candidates the duplicate classifier flags against the query are
dropped so near-identical exercises are never recommended. The dedup head
is a bare ``pairclf.PairClassifier``; it scores all merged candidates at
once, ``prob_rows`` over the query's feature rows of the merged list
(``PreparedQuery.feature_rows``): one kernel call, then one block of
feature rows, which ranking and the variant split read back for their
subsets. The batch is bit-identical to the per-pair reference
``DuplicateDetector.prob`` per candidate (see the rules in ``pairclf``).
``train_dedup`` fits the head on ``corpus.generate_dedup_pairs``' clone
pairs with each clone prepared as a served probe is, so it is fitted on
the feature rows a miss builds.

A stage is built from one view; a miss passes one ``PreparedQuery`` over
it. ``Recaller.build`` takes one ``pairclf.PreparedCorpus`` (the one
``Pipeline.load`` shares with the ranker) and a head: BM25 reads the view's
stem codes and its exercises' concepts, the vector index is the view's
embedding matrix itself, and dedup and the filters read the view's rows and
its corpus. So the corpus is normalized and embedded once; the rows equal
``embed_corpus``'s bit for bit. ``Recaller.recall`` takes the miss's
``PreparedQuery`` and profile alone, and refuses a query prepared over
another view, even one of the same exercises and vocabulary.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Iterable, NamedTuple, Optional

import numpy as np

from . import rerank as rerank_mod
from . import corpus as corpus_mod
from .corpus import RowIndex, SyntheticTruth
# embed_text stays bound, unused: perfbench's tracer wraps it where imported
from .encoder import embed_text  # noqa: F401
from .pairclf import (PairClassifier, PairFeaturizer, PreparedCorpus, PreparedQuery,
                      UntrainedModelError, edit_similarities, pad_codes, pair_feature_rows)
from .textnorm import RESERVED_TOKENS, Vocab
# normalize_text stays bound, unused: perfbench's tracer wraps it where imported
from .textnorm import normalize_text  # noqa: F401

BM25_K1 = 1.2
BM25_B = 0.75
# a token in at least this share of the documents keeps its BM25 terms as a
# dense vector over every row, which one vector add reads
DENSE_SHARE = 0.25
# a token keeps its BM25 terms for query counts up to this; a higher count
# (under 1% of the lookups of every benchmark stream) is computed per query,
# so what a token keeps is bounded whatever text the queries hold
KEPT_COUNTS = 4

# a candidate's source code is its source's position here
SOURCES = ("exact", "embed", "both")
EXACT, EMBED, BOTH = range(len(SOURCES))


class Candidate(NamedTuple):
    ex_id: str
    score: float
    source: str


class Candidates:
    """A candidate list, column-wise: ``rows`` of ``index`` (intp), their
    ``scores`` (float64) and ``sources`` (int8 codes into ``SOURCES``).
    Iterating builds a ``Candidate`` per row."""

    __slots__ = ("index", "rows", "scores", "sources")

    def __init__(self, index: RowIndex, rows: np.ndarray, scores: np.ndarray,
                 sources: np.ndarray):
        self.index = index
        self.rows = rows
        self.scores = scores
        self.sources = sources

    @classmethod
    def empty(cls, index: RowIndex) -> "Candidates":
        return cls(index, np.zeros(0, dtype=np.intp), np.zeros(0),
                   np.zeros(0, dtype=np.int8))

    def take(self, which) -> "Candidates":
        """The candidates ``which`` (a mask, positions or a slice) selects."""
        return Candidates(self.index, self.rows[which], self.scores[which],
                          self.sources[which])

    @property
    def ids(self) -> list[str]:
        return list(map(self.index.ids.__getitem__, self.rows.tolist()))

    @property
    def source_names(self) -> list[str]:
        return list(map(SOURCES.__getitem__, self.sources.tolist()))

    def __len__(self) -> int:
        return len(self.rows)

    def __iter__(self):
        return map(Candidate, self.ids, self.scores.tolist(), self.source_names)


@dataclass
class RecallConfig:
    k_exact: int = 200
    k_embed: int = 200
    n: int = 100
    dedup_threshold: float = 0.5
    concept_boost: float = 0.5


# ---------------------------------------------------------------------------
# Top-k shared by both channels

def _top_k(scores: np.ndarray, index: RowIndex, k: int, exclude_row: int,
           source: int, floor: float = -np.inf) -> Candidates:
    """The k best rows of ``scores`` (one score per row of ``index``) other
    than ``exclude_row``, by (-score, id), as ``sorted`` with that key would
    give them; only rows scoring above ``floor`` are candidates.

    Every row scoring at least the (k+1)-th best score is kept: a superset of
    the k best of the other rows, with all their ties. When that score is
    not above ``floor``, fewer than k + 1 rows are candidates, and all of
    them are kept.
    """
    if k <= 0:
        return Candidates.empty(index)
    cut = len(scores) - k - 1
    # with k + 1 rows or fewer, every candidate is kept unpartitioned
    bar = np.partition(scores, cut)[cut] if cut > 0 else floor
    rows = np.flatnonzero(scores > floor if bar <= floor else scores >= bar)
    if exclude_row >= 0:
        rows = rows[rows != exclude_row]
    rows = rows[np.lexsort((index.id_rank[rows], -scores[rows]))[:k]]
    return Candidates(index, rows, scores[rows], np.full(len(rows), source, dtype=np.int8))


# ---------------------------------------------------------------------------
# Lexical channel

class Postings:
    """One code's postings: the rows holding it (ascending), each row's term
    frequency and BM25 denominator ``tf + k1 * (1 - b + b * len / avg_len)``,
    and the code's idf. ``len`` is the code's document frequency.

    ``contributions(count)`` is each posting's BM25 term for a query holding
    the code ``count`` times, computed on first use and kept for counts up
    to ``KEPT_COUNTS`` (a higher count is computed by the same expression on
    every use), so a code keeps at most ``KEPT_COUNTS`` arrays. A code in
    at least ``DENSE_SHARE`` of the ``n_docs`` documents keeps them as dense
    vectors over every row, +0.0 where the code is absent; ``dense`` says
    which. A kept array is written once per count and never changed, so two
    queries racing on one count at worst compute the same bits twice.
    """

    __slots__ = ("rows", "tf", "denom", "idf", "dense", "n_docs", "_kept")

    def __init__(self, rows: np.ndarray, tf: np.ndarray, denom: np.ndarray,
                 idf: float, n_docs: int):
        self.rows = rows
        self.tf = tf
        self.denom = denom
        self.idf = idf
        self.n_docs = n_docs
        self.dense = len(rows) >= DENSE_SHARE * n_docs
        self._kept: dict[int, np.ndarray] = {}

    def __len__(self) -> int:
        return len(self.rows)

    def contributions(self, count: int) -> np.ndarray:
        """``count * idf * tf * (k1 + 1) / denom`` per posting, or per row
        when ``dense``."""
        kept = self._kept.get(count)
        if kept is None:
            kept = count * self.idf * self.tf * (BM25_K1 + 1.0) / self.denom
            if self.dense:
                full = np.zeros(self.n_docs)
                full[self.rows] = kept
                kept = full
            if count <= KEPT_COUNTS:
                self._kept[count] = kept
        return kept


class RowScores:
    """One query's BM25 scores: ``vector`` holds a score per row of the index,
    and the rows a query token touched are those scoring above ``floor``
    (0, or -inf when a negative concept bonus may take a touched row below
    0). ``rows`` (ascending), ``scores`` (aligned with them) and ``len``
    (the number of touched rows) are computed when read."""

    __slots__ = ("vector", "floor")

    def __init__(self, vector: np.ndarray, floor: float = 0.0):
        self.vector = vector
        self.floor = floor

    @property
    def rows(self) -> np.ndarray:
        return np.flatnonzero(self.vector > self.floor)

    @property
    def scores(self) -> np.ndarray:
        return self.vector[self.rows]

    def __len__(self) -> int:
        return int(np.count_nonzero(self.vector > self.floor))


class LexicalIndex:
    """Inverted index over a padded code matrix, with BM25 scoring and a
    concept-overlap bonus.

    ``codes`` (n, width) holds each document's token codes, the first
    ``lengths`` of each row, with codes equal exactly when tokens are
    equal; ``vocab`` and ``oov_codes`` spell them (``oov_codes`` maps each
    out-of-vocabulary token to its code, numbered on from ``len(vocab)``).
    ``concept_sets`` lists each row's distinct concepts, and ``concept_rows``
    maps each concept to the rows holding it, ascending.
    Each code's postings are numpy arrays holding the per-posting BM25
    denominator, and its idf is a ``math.log`` float, both computed once,
    as is ``rank``, each indexed code's place in the sorted order of the
    token strings. A query reads each of its codes'
    ``Postings.contributions`` for its query count, ``(qtf * idf) * tf *
    (k1 + 1) / denom`` per posting, computed by those float operations on
    the first query with that count and kept (counts above ``KEPT_COUNTS``
    are not kept). It adds them, in ``rank`` order, into one vector of +0.0:
    a sparse code's at its rows, a dense code's (one in at least
    ``DENSE_SHARE`` of the documents) over every row, whose +0.0 entries
    leave the other rows' sums exactly as they were. A document is touched
    exactly when its score is above 0, as every term is positive; then the
    query adds ``boost * shared`` to the touched rows among ``concept_rows``
    of its concepts, ``shared`` being how many of them a row holds.
    Every float operation is the one a per-document loop over sorted token
    strings performs, in the same order, so such a loop reproduces the
    scores bit for bit. Kept arrays are written once per (code, count) and
    never changed, so concurrent queries can at worst compute the same bits
    twice.
    """

    def __init__(self, index: RowIndex, codes: np.ndarray, lengths: np.ndarray,
                 vocab: Vocab, oov_codes: dict[str, int],
                 concept_sets: Iterable[Iterable[str]], concept_boost: float = 0.5):
        self.index = index
        self.ids = ids = index.ids
        n = len(ids)
        self.avg_len = int(lengths.sum()) / n if n else 0.0
        self.concept_boost = concept_boost
        # one key per token occurrence, row by row; unique sorts them by code,
        # then row, and counts each (code, row)'s term frequency
        occurrences = codes[np.arange(codes.shape[1]) < lengths[:, None]].astype(np.int64)
        keys, tf = np.unique(occurrences * n + np.repeat(np.arange(n), lengths),
                             return_counts=True)
        posting_codes, rows = np.divmod(keys, max(n, 1))
        tf = tf.astype(np.float64)
        denom = tf + BM25_K1 * (1.0 - BM25_B + BM25_B * (lengths[rows] / self.avg_len))
        distinct, starts, dfs = np.unique(posting_codes, return_index=True, return_counts=True)
        self.postings: dict[int, Postings] = {}
        for code, start, df in zip(distinct.tolist(), starts.tolist(), dfs.tolist()):
            at = slice(start, start + df)
            self.postings[code] = Postings(rows[at], tf[at], denom[at],
                                           math.log(1.0 + (n - df + 0.5) / (df + 0.5)), n)
        # each code's token: the vocabulary's ids, then the out-of-vocabulary
        # codes, which a code table numbers on from len(vocab)
        spelled = [*RESERVED_TOKENS, *vocab.tokens, *sorted(oov_codes, key=oov_codes.get)]
        self.rank = {code: r for r, code in
                     enumerate(sorted(self.postings, key=spelled.__getitem__))}
        by_concept: dict[str, list[int]] = {}
        for row, concepts in enumerate(concept_sets):
            for c in concepts:
                by_concept.setdefault(c, []).append(row)
        self.concept_rows = {c: np.array(rows, dtype=np.intp)
                             for c, rows in by_concept.items()}

    @classmethod
    def build(cls, view: PreparedCorpus, concept_boost: float = 0.5) -> "LexicalIndex":
        """Index the view's stem codes and its exercises' concepts."""
        return cls(view.index, view.codes, view.lengths, view.vocab, view.oov_codes,
                   (ex.metadata.knowledge_concepts for ex in view.exercises), concept_boost)

    def score_all(self, query_codes: np.ndarray,
                  query_concepts: frozenset[str]) -> RowScores:
        """BM25 of every row for ``query_codes`` (the query's codes under the
        index's table, unpadded), plus the concept bonus of the touched rows."""
        counts: dict[int, int] = {}
        for c in query_codes.tolist():
            counts[c] = counts.get(c, 0) + 1
        rank = self.rank
        scores = np.zeros(len(self.ids))
        for c in sorted((c for c in counts if c in rank), key=rank.__getitem__):
            plist = self.postings[c]
            if plist.dense:
                scores += plist.contributions(counts[c])
            else:
                scores[plist.rows] += plist.contributions(counts[c])
        boost = self.concept_boost
        found = [self.concept_rows[c] for c in query_concepts if c in self.concept_rows]
        if not (boost and found):
            return RowScores(scores)
        floor = 0.0
        if boost < 0:
            # the bonus may take a touched row to 0 or below, so every
            # untouched row goes below any score
            scores[scores == 0] = -np.inf
            floor = -np.inf
        # a row is listed once per query concept it holds, and each copy
        # writes the same sum
        shared = np.zeros(len(scores), dtype=np.intp)
        for rows in found:
            shared[rows] += 1
        rows = np.concatenate(found)
        rows = rows[scores[rows] > floor]
        scores[rows] += boost * shared[rows]
        return RowScores(scores, floor)

    def search(self, query_codes: np.ndarray, query_concepts: frozenset[str],
               k: int, exclude_id: Optional[str] = None) -> Candidates:
        """The k touched rows of highest score other than ``exclude_id``,
        ordered by (-score, id); ties at the cut break by id."""
        scored = self.score_all(query_codes, query_concepts)
        return _top_k(scored.vector, self.index, k, self.index.row_of.get(exclude_id, -1),
                      EXACT, floor=scored.floor)


# ---------------------------------------------------------------------------
# Embedding channel

class VectorIndex:
    """Unit-norm embedding matrix scanned by cosine."""

    def __init__(self, matrix: np.ndarray, index: RowIndex):
        if matrix.ndim != 2 or len(index) != matrix.shape[0]:
            raise ValueError("matrix rows must align with ids")
        norms = np.linalg.norm(matrix, axis=1)
        if len(index) and not np.allclose(norms, 1.0, atol=1e-6):
            raise ValueError("vector index rows must be unit-norm")
        self.matrix = matrix
        self.index = index
        self.ids = index.ids

    @classmethod
    def build(cls, view: PreparedCorpus) -> "VectorIndex":
        """The view's embedding matrix, over its rows."""
        return cls(view.embeddings, view.index)

    @property
    def dim(self) -> int:
        return self.matrix.shape[1]

    def search(self, query: np.ndarray, k: int,
               exclude_id: Optional[str] = None) -> Candidates:
        """The k rows of highest cosine other than ``exclude_id``, ordered by
        (-score, id); ties at the cut break by id."""
        query = np.asarray(query, dtype=np.float64)
        if query.shape != (self.dim,):
            raise ValueError(f"query must have dimension {self.dim}")
        return _top_k(self.matrix @ query, self.index, k,
                      self.index.row_of.get(exclude_id, -1), EMBED)


# ---------------------------------------------------------------------------
# Merge rule

def merge_candidates(exact: Candidates, embed: Candidates, n: int) -> Candidates:
    """Merge the two channel lists into at most n candidates.

    Intersection members come first, ordered by embedding score. The
    remaining slots split evenly between the channel-only lists (lexical
    receives the extra slot on odd remainders); when one side runs out the
    other fills in. The tail interleaves the channels, lexical first.
    Membership is read from boolean masks over the rows of the shared index.
    """
    if n < 1:
        raise ValueError("n must be >= 1")
    index = exact.index
    if embed.index is not index:
        raise ValueError("the channel lists are rows of different indexes")
    in_exact = np.zeros(len(index), dtype=bool)
    in_exact[exact.rows] = True
    in_embed = np.zeros(len(index), dtype=bool)
    in_embed[embed.rows] = True
    shared = in_exact[embed.rows]
    inter = np.flatnonzero(shared)[:n]
    exact_only = np.flatnonzero(~in_embed[exact.rows])
    embed_only = np.flatnonzero(~shared)
    rem = n - len(inter)
    take_exact = min((rem + 1) // 2, len(exact_only))
    take_embed = min(rem - take_exact, len(embed_only))
    take_exact = min(rem - take_embed, len(exact_only))
    e, m = exact_only[:take_exact], embed_only[:take_embed]
    # intersection first, then lexical i at 2i and embedding j at 2j + 1, so
    # the tail alternates until one side runs out
    order = np.argsort(np.concatenate([np.arange(len(inter)) - len(inter),
                                       2 * np.arange(len(e)), 2 * np.arange(len(m)) + 1]))
    return Candidates(
        index,
        np.concatenate([embed.rows[inter], exact.rows[e], embed.rows[m]])[order],
        np.concatenate([embed.scores[inter], exact.scores[e], embed.scores[m]])[order],
        np.repeat(np.array([BOTH, EXACT, EMBED], dtype=np.int8),
                  [len(inter), len(e), len(m)])[order])


# ---------------------------------------------------------------------------
# Duplicate detection

@dataclass
class DuplicateDetector:
    """The per-pair reference the served dedup is checked against: the
    duplicate probability of one pair over the symmetric pair features, so
    prob(a, b) == prob(b, a) holds exactly. Recall drops a candidate at
    ``RecallConfig.dedup_threshold``."""

    classifier: PairClassifier
    featurizer: PairFeaturizer

    def prob(self, a: PreparedQuery, b: PreparedQuery) -> float:
        return self.classifier.prob(self.featurizer.features(a, b))


def train_dedup(truth: SyntheticTruth, view: PreparedCorpus) -> PairClassifier:
    """Fit the dedup head (saved as kind ``"dedup"``) on the pairs of
    ``generate_dedup_pairs`` over the view's corpus: each anchor's row
    against the other side prepared as a served probe is. A clone's own
    codes lie past every code of the view, so one kernel call over the rows
    and the probes' codes gives each distance exactly."""
    dedup_pairs = corpus_mod.generate_dedup_pairs(view.corpus, truth, seed=97)
    if not dedup_pairs:
        raise UntrainedModelError("no duplicate-labeled pairs to train on")
    queries = [PreparedQuery(other, view) for _, other, _ in dedup_pairs]
    anchors = np.array([view.index.row_of[a.id] for a, _, _ in dedup_pairs], dtype=np.intp)
    sims = edit_similarities(view.codes[anchors], view.lengths[anchors],
                             *pad_codes([q.codes[0, :int(q.length[0])] for q in queries]))
    probes = np.stack([q.view_embedding for q in queries])
    return PairClassifier.train(pair_feature_rows(view.embeddings[anchors], probes, sims),
                                np.array([label for _, _, label in dedup_pairs]))


# ---------------------------------------------------------------------------
# Full recall

@dataclass
class Recaller:
    """Bundles everything a recall query needs, built from one prepared
    ``view``: both indexes, and the dedup head that scores its rows."""

    view: PreparedCorpus
    lexical: LexicalIndex
    vector: VectorIndex
    dedup: Optional[PairClassifier] = None
    config: RecallConfig = field(default_factory=RecallConfig)

    @classmethod
    def build(cls, view: PreparedCorpus, dedup: Optional[PairClassifier] = None,
              config: Optional[RecallConfig] = None) -> "Recaller":
        """Both indexes from ``view``, embedded under the encoder."""
        config = config or RecallConfig()
        return cls(view=view, lexical=LexicalIndex.build(view, config.concept_boost),
                   vector=VectorIndex.build(view), dedup=dedup, config=config)

    def query_embedding(self, query: PreparedQuery) -> np.ndarray:
        """The encoder embedding of ``query``, the one it keeps."""
        return query.view_embedding

    def recall(self, query: PreparedQuery,
               profile: Optional[rerank_mod.StudentProfile] = None) -> Candidates:
        """Merged, deduplicated candidates of ``query``, as rows of the view;
        the query keeps the dedup feature rows for the later stages. With a
        ``profile``, the merged list first goes through ``rerank``'s stage
        and difficulty filters over the view's corpus. Refuses a query
        prepared over another view."""
        query.require_view(self.view)
        cfg = self.config
        query_id = query.exercise.id
        length = int(query.length[0])
        exact = self.lexical.search(query.codes[0, :length], query.concepts, cfg.k_exact,
                                    exclude_id=query_id)
        embed = (self.vector.search(self.query_embedding(query), cfg.k_embed,
                                    exclude_id=query_id)
                 if length else Candidates.empty(self.vector.index))
        merged = merge_candidates(exact, embed, cfg.n)
        if profile is not None:
            # the student is served no other row, and dedup, ranking and the
            # variant split score each row on its own, so the pair work
            # starts from the rows that can be served
            corpus = self.view.corpus
            merged = rerank_mod.personalize_filter(
                rerank_mod.stage_filter(merged, profile, corpus),
                query.exercise.metadata.difficulty, profile, corpus)
        if self.dedup is None or not len(merged):
            return merged
        probs = self.dedup.prob_rows(query.feature_rows(merged.rows))
        return merged.take(probs < cfg.dedup_threshold)
