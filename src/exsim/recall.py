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

- BM25 postings are numpy arrays built once with each posting's length
  denominator and each token's ``math.log`` idf (not ``np.log``, whose last
  bit can differ). Each posting's term is computed once per (token, query
  count) by the loop's float operations and kept, for counts up to
  ``KEPT_COUNTS`` (a higher count is recomputed per query). A query adds
  its tokens' terms into one +0.0 vector in sorted-token order, so each
  document's score is the same sequence of additions from +0.0 as the
  per-document loop; a frequent token's dense vector adds +0.0 to the
  other rows, which is exact. Every term is positive, so a document shares
  a query token exactly when its score is above 0.
- Top-k finds the k-th best score by partition and keeps every row scoring
  at least that much, so ties at the cut survive; those rows are ordered by
  ``np.lexsort`` on (-score, the row's rank in sorted-id order), so ties
  break by id, not by row.

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
rule is applied with boolean masks over the corpus rows. Finally,
candidates the duplicate classifier flags against the query are dropped so
near-identical exercises are never recommended. Dedup scores all merged
candidates at once, both argument orders averaged. Its edit similarities
come from the query's ``pairclf.PreparedQuery``: one kernel call over the
whole merged list, which ranking and the variant split then read back for
their subsets. Its embeddings are the query's ``query_embedding`` vector
and the view's rows, and the feature rows are scored by ``prob_rows``, so
the batch is bit-identical to calling ``DuplicateDetector.prob`` per
candidate (see the rules in ``pairclf``).

A stage is built from one view; a miss passes one ``PreparedQuery``.
``Recaller.build`` takes one ``pairclf.PreparedCorpus`` (the one
``Pipeline.load`` shares with dedup, the ranker and the variant split) and
nothing else: BM25 reads the view's token lists and its exercises'
concepts, the vector index is the view's embedding matrix itself, and a
dedup head must be over the same view. So the corpus is normalized and
embedded once; the rows equal ``embed_corpus``'s bit for bit, and dedup and
the variant split read the same rows. ``Recaller.recall`` takes the miss's
``PreparedQuery`` alone.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import NamedTuple, Optional, Sequence

import numpy as np

from .corpus import Exercise, RowIndex
# embed_text stays bound, unused: perfbench's tracer wraps it where imported
from .encoder import EncoderParams, embed_text  # noqa: F401
from .pairclf import (PairClassifier, PairFeaturizer, PreparedCorpus, PreparedQuery,
                      UntrainedModelError, both_orders, pair_feature_rows)
from .textnorm import Vocab
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

def _top_k(rows: np.ndarray, scores: np.ndarray, index: RowIndex, k: int,
           exclude_row: int, source: int) -> Candidates:
    """The k best of ``rows`` by (-score, id), as ``sorted`` with that key
    would give them.

    The k-th best score is found by partition and every row scoring at least
    that much is kept, so ties straddling position k are all ordered by id
    before the cut.
    """
    if k <= 0:
        return Candidates.empty(index)
    if exclude_row >= 0:
        keep = rows != exclude_row
        rows, scores = rows[keep], scores[keep]
    if k < len(scores):
        kth = np.partition(scores, len(scores) - k)[len(scores) - k]
        keep = scores >= kth
        rows, scores = rows[keep], scores[keep]
    order = np.lexsort((index.id_rank[rows], -scores))[:k]
    return Candidates(index, rows[order], scores[order],
                      np.full(len(order), source, dtype=np.int8))


# ---------------------------------------------------------------------------
# Lexical channel

class Postings:
    """One token's postings: the rows holding it (ascending), each row's term
    frequency and BM25 denominator ``tf + k1 * (1 - b + b * len / avg_len)``,
    and the token's idf. ``len`` is the token's document frequency.

    ``contributions(count)`` is each posting's BM25 term for a query holding
    the token ``count`` times, computed on first use and kept for counts up
    to ``KEPT_COUNTS`` (a higher count is computed by the same expression on
    every use), so a token keeps at most ``KEPT_COUNTS`` arrays. A token in
    at least ``DENSE_SHARE`` of the ``n_docs`` documents keeps them as dense
    vectors over every row, +0.0 where the token is absent; ``dense`` says
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
    """Scores of the documents sharing a query token: ``rows`` ascending and
    ``scores`` aligned with them. Equal to the ``{row: score}`` dict it
    stands for; ``len`` is the number of such documents."""

    __slots__ = ("rows", "scores")

    def __init__(self, rows: np.ndarray, scores: np.ndarray):
        self.rows = rows
        self.scores = scores

    def __len__(self) -> int:
        return len(self.rows)

    def __eq__(self, other) -> bool:
        if not isinstance(other, dict):
            return NotImplemented
        return dict(zip(self.rows.tolist(), self.scores.tolist())) == other


class LexicalIndex:
    """Inverted index with BM25 scoring and a concept-overlap bonus.

    Each token's postings are numpy arrays holding the per-posting BM25
    denominator, and its idf is a ``math.log`` float, both computed once.
    A query reads each of its tokens' ``Postings.contributions`` for its
    query count, ``(qtf * idf) * tf * (k1 + 1) / denom`` per posting,
    computed by those float operations on the first query with that count
    and kept (counts above ``KEPT_COUNTS`` are not kept). It adds them, in
    sorted-token order, into one vector of +0.0: a sparse token's at its
    rows, a dense token's (one in at least ``DENSE_SHARE`` of the
    documents) over every row, whose +0.0 entries leave the other rows'
    sums exactly as they were. A document is touched
    exactly when its score is above 0, as every term is positive; then the
    query adds ``boost * shared`` to the touched rows sharing a concept.
    Every float operation is the one a per-document loop over sorted tokens
    performs, in the same order, so such a loop reproduces the scores bit
    for bit. Kept arrays are written once per (token, count) and never
    changed, so concurrent queries can at worst compute the same bits twice.
    """

    def __init__(self, index: RowIndex, token_lists: list[list[str]],
                 concept_sets: list[frozenset[str]], concept_boost: float = 0.5):
        self.index = index
        self.ids = ids = index.ids
        n_tokens = sum(len(t) for t in token_lists)
        self.avg_len = (n_tokens / len(ids)) if ids else 0.0
        self.concepts = concept_sets
        self.concept_boost = concept_boost
        raw: dict[str, tuple[list[int], list[int], list[float]]] = {}
        for row, tokens in enumerate(token_lists):
            counts: dict[str, int] = {}
            for t in tokens:
                counts[t] = counts.get(t, 0) + 1
            if not counts:
                continue
            norm = len(tokens) / self.avg_len
            length_term = BM25_K1 * (1.0 - BM25_B + BM25_B * norm)
            for t, tf in counts.items():
                rows, tfs, denoms = raw.setdefault(t, ([], [], []))
                rows.append(row)
                tfs.append(tf)
                denoms.append(tf + length_term)
        self.postings: dict[str, Postings] = {}
        for t, (rows, tfs, denoms) in raw.items():
            df = len(rows)
            self.postings[t] = Postings(
                np.array(rows, dtype=np.intp), np.array(tfs, dtype=np.float64),
                np.array(denoms, dtype=np.float64),
                math.log(1.0 + (len(ids) - df + 0.5) / (df + 0.5)), len(ids))
        by_concept: dict[str, list[int]] = {}
        for row, concepts in enumerate(concept_sets):
            for c in concepts:
                by_concept.setdefault(c, []).append(row)
        self.concept_rows = {c: np.array(rows, dtype=np.intp)
                             for c, rows in by_concept.items()}

    @classmethod
    def build(cls, view: PreparedCorpus, concept_boost: float = 0.5) -> "LexicalIndex":
        """Index the view's token lists and its exercises' concepts."""
        concept_sets = [frozenset(ex.metadata.knowledge_concepts) for ex in view.exercises]
        return cls(view.index, view.tokens, concept_sets, concept_boost)

    def score_all(self, query_tokens: Sequence[str],
                  query_concepts: frozenset[str]) -> RowScores:
        """BM25 over documents sharing a token, plus the concept bonus."""
        counts: dict[str, int] = {}
        for t in query_tokens:
            counts[t] = counts.get(t, 0) + 1
        hits = [(counts[t], self.postings[t]) for t in sorted(counts) if t in self.postings]
        if not hits:
            return RowScores(np.empty(0, dtype=np.intp), np.empty(0))
        n = len(self.ids)
        scores = np.zeros(n)
        for count, plist in hits:
            if plist.dense:
                scores += plist.contributions(count)
            else:
                scores[plist.rows] += plist.contributions(count)
        # every term is positive, so a row is touched exactly when it scores above 0
        touched = scores > 0
        if query_concepts and self.concept_boost:
            shared = np.zeros(n, dtype=np.int64)
            for c in query_concepts:
                rows = self.concept_rows.get(c)
                if rows is not None:
                    shared[rows] += 1
            bonus = touched & (shared > 0)
            scores[bonus] = scores[bonus] + self.concept_boost * shared[bonus]
        rows = np.flatnonzero(touched)
        return RowScores(rows, scores[rows])

    def search(self, query_tokens: Sequence[str], query_concepts: frozenset[str],
               k: int, exclude_id: Optional[str] = None) -> Candidates:
        """The k best-scoring documents other than ``exclude_id``, ordered by
        (-score, id)."""
        scored = self.score_all(query_tokens, query_concepts)
        return _top_k(scored.rows, scored.scores, self.index, k,
                      self.index.row_of.get(exclude_id, -1), EXACT)


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
        (-score, id)."""
        query = np.asarray(query, dtype=np.float64)
        if query.shape != (self.dim,):
            raise ValueError(f"query must have dimension {self.dim}")
        scores = self.matrix @ query
        return _top_k(np.arange(len(self.ids)), scores, self.index, k,
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
    """Symmetric duplicate probability over pair features.

    The classifier is evaluated in both argument orders and averaged, which
    makes detect(a, b) == detect(b, a) hold exactly. Recall drops a
    candidate at ``RecallConfig.dedup_threshold``.
    """

    classifier: PairClassifier
    featurizer: PairFeaturizer

    def prob(self, a: PreparedQuery, b: PreparedQuery) -> float:
        p_ab = self.classifier.prob(self.featurizer.features(a, b))
        p_ba = self.classifier.prob(self.featurizer.features(b, a))
        return (p_ab + p_ba) / 2.0

    def prob_pairs(self, u: np.ndarray, v: np.ndarray, sims: np.ndarray) -> np.ndarray:
        """``prob`` of the pairs a featurizer gives as (u, v, edit similarities).

        The (v, u) rows are the (u, v) rows with the u and v blocks swapped:
        |v - u| and v * u have the bits of |u - v| and u * v, since IEEE
        subtraction is sign-symmetric and multiplication commutes.
        """
        ab = pair_feature_rows(u, v, sims)
        d = np.shape(u)[-1]
        ba = np.empty_like(ab)
        ba[:, :d], ba[:, d:2 * d], ba[:, 2 * d:] = ab[:, d:2 * d], ab[:, :d], ab[:, 2 * d:]
        return (self.classifier.prob_rows(ab) + self.classifier.prob_rows(ba)) / 2.0

    @classmethod
    def load(cls, path, featurizer: PairFeaturizer) -> "DuplicateDetector":
        return cls(PairClassifier.load(path, "dedup", featurizer.n_features), featurizer)


def train_dedup(dedup_pairs: Sequence[tuple[Exercise, Exercise, int]],
                vocab: Vocab, params: EncoderParams) -> PairClassifier:
    """Fit the dedup head (saved as kind ``"dedup"``); each pair is fed in
    both argument orders."""
    if not dedup_pairs:
        raise UntrainedModelError("no duplicate-labeled pairs to train on")
    feats = both_orders([(a, b) for a, b, _ in dedup_pairs], vocab, params)
    labels = np.repeat([label for _, _, label in dedup_pairs], 2)
    return PairClassifier.train(feats, labels)


# ---------------------------------------------------------------------------
# Full recall

@dataclass
class Recaller:
    """Bundles everything a recall query needs, built from one prepared
    ``view``: both indexes, and the dedup head that reads its rows."""

    view: PreparedCorpus
    lexical: LexicalIndex
    vector: VectorIndex
    dedup: Optional[DuplicateDetector] = None
    config: RecallConfig = field(default_factory=RecallConfig)

    @classmethod
    def build(cls, view: PreparedCorpus, dedup: Optional[DuplicateDetector] = None,
              config: Optional[RecallConfig] = None) -> "Recaller":
        """Both indexes from ``view``, embedded under the encoder; a ``dedup``
        head must have its featurizer over the same view, whose rows it
        reads."""
        config = config or RecallConfig()
        if dedup is not None and dedup.featurizer.view is not view:
            raise ValueError("the dedup head's featurizer is not over this view")
        return cls(view=view, lexical=LexicalIndex.build(view, config.concept_boost),
                   vector=VectorIndex.build(view), dedup=dedup, config=config)

    def query_embedding(self, query: PreparedQuery) -> np.ndarray:
        """The encoder embedding of ``query``."""
        return query.embedding_in(self.view)

    def recall(self, query: PreparedQuery) -> Candidates:
        """Merged, deduplicated candidates of ``query``, as rows of the view;
        the query keeps the dedup edit similarities for the later stages."""
        cfg = self.config
        query_id = query.exercise.id
        exact = self.lexical.search(query.tokens, query.concepts, cfg.k_exact,
                                    exclude_id=query_id)
        embed = (self.vector.search(self.query_embedding(query), cfg.k_embed,
                                    exclude_id=query_id)
                 if query.tokens else Candidates.empty(self.vector.index))
        merged = merge_candidates(exact, embed, cfg.n)
        if self.dedup is None or not len(merged):
            return merged
        probs = self.dedup.prob_pairs(
            *self.dedup.featurizer.row_pairs(query, merged.index, merged.rows))
        return merged.take(probs < cfg.dedup_threshold)
