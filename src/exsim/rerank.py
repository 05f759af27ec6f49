"""Education-specific post-processing of the ranked candidate list.

Three opt-in steps, cheapest and most absolute first:

1. learning-stage filter: in synchronous practice a student should not see
   material beyond their current (grade, semester); in review mode the cut
   is on the semester component;
2. difficulty filter: excellent students get candidates at or above the
   query's difficulty, weak students at or below, average within one level;
3. variant split: a directional classifier separates genuine variants
   (changed condition, conclusion or solving method) from plain similars,
   and the variant list is presented first.

Every step preserves the incoming ranking order and is idempotent. With no
profile and no classifier the whole stage is a pass-through, so the
pipeline is testable end to end before any re-rank model exists.

A stage is built from one view; a miss passes one ``PreparedQuery``.
:func:`rerank` takes the miss's ``pairclf.PreparedQuery`` and candidates
as ``recall.Candidates``, rows of the corpus. The two filters are masks
over the corpus's per-row ``learning_stages`` and ``difficulties`` arrays,
built with the corpus. The variant head's featurizer is over the loaded
``PreparedCorpus``, and the split scores every kept row in one batch over
its rows, the feature rows scored by ``prob_rows``. It makes no
edit-distance kernel call of its own: the kept candidates are a subset of
the recalled list, whose similarities the query already holds, and its
query embedding is the one recall computed. This is bit-identical to
``VariantClassifier.prob`` per candidate (see the rules in ``pairclf``);
the split puts a candidate first at ``RerankConfig.variant_threshold``.

Results are stored column-wise (:class:`RerankedResult`): a served list is
kept in the query cache, so per-item objects are only built on access.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Sequence

import numpy as np

from .corpus import Corpus, LabeledPair, VARIANT
from .encoder import EncoderParams
from .pairclf import (PairClassifier, PairFeaturizer, PreparedQuery,
                      UntrainedModelError, both_orders, pair_feature_rows)
from .recall import Candidates
from .textnorm import Vocab

ABILITIES = ("weak", "average", "excellent")
STAGE_MODES = ("synchronous", "review")


@dataclass(frozen=True)
class StudentProfile:
    ability: str
    stage_mode: str
    current_stage: tuple[int, int]

    def __post_init__(self):
        if self.ability not in ABILITIES:
            raise ValueError(f"unknown ability {self.ability!r}")
        if self.stage_mode not in STAGE_MODES:
            raise ValueError(f"unknown stage mode {self.stage_mode!r}")

    def to_dict(self) -> dict:
        return {"ability": self.ability, "stage_mode": self.stage_mode,
                "current_stage": list(self.current_stage)}


@dataclass(frozen=True)
class RerankedItem:
    ex_id: str
    score: float
    source: str
    passed: tuple[str, ...]
    variant_prob: Optional[float] = None


class RerankedResult:
    """The served list, column-wise: the first ``n_variant`` entries are the
    variant list, the rest the similar list, each in ranking order.

    ``variant_probs`` is None when no variant step ran; ``passed`` is shared
    by every item. The ids of the candidates' rows are looked up here;
    ``variant`` and ``similar`` build their items on access.
    """

    __slots__ = ("ids", "scores", "sources", "variant_probs", "passed", "n_variant")

    def __init__(self, candidates: Candidates, passed: Sequence[str] = (),
                 variant_probs: Optional[np.ndarray] = None, n_variant: int = 0):
        self.ids = tuple(candidates.ids)
        self.scores = candidates.scores
        self.sources = tuple(candidates.source_names)
        self.passed = tuple(passed)
        self.variant_probs = variant_probs
        self.n_variant = n_variant

    def _items(self, start: int, stop: int) -> list[RerankedItem]:
        probs = ([None] * (stop - start) if self.variant_probs is None
                 else self.variant_probs[start:stop].tolist())
        return [RerankedItem(ex_id, score, source, self.passed, prob)
                for ex_id, score, source, prob in zip(
                    self.ids[start:stop], self.scores[start:stop].tolist(),
                    self.sources[start:stop], probs)]

    @property
    def variant(self) -> list[RerankedItem]:
        return self._items(0, self.n_variant)

    @property
    def similar(self) -> list[RerankedItem]:
        return self._items(self.n_variant, len(self.ids))

    def all_ids(self) -> list[str]:
        return list(self.ids)

    def to_dict(self) -> dict:
        def items(lst):
            return [{"id": i.ex_id, "score": i.score, "source": i.source,
                     "passed": list(i.passed), "variant_prob": i.variant_prob}
                    for i in lst]
        return {"variant": items(self.variant), "similar": items(self.similar)}


@dataclass
class RerankConfig:
    variant_threshold: float = 0.5
    enable_variant: bool = True


# ---------------------------------------------------------------------------
# Filters

def _corpus_rows(candidates: Candidates, corpus: Corpus) -> np.ndarray:
    if candidates.index is not corpus.index:
        raise ValueError("candidates are not rows of this corpus")
    return candidates.rows


def stage_filter(candidates: Candidates, profile: Optional[StudentProfile],
                 corpus: Corpus) -> Candidates:
    """Drop candidates beyond the student's learning stage; order preserved.

    Synchronous practice compares whole (grade, semester) stages; review
    compares the semester component only, per the stated rules.
    """
    if profile is None:
        return candidates
    grade, semester = corpus.learning_stages[_corpus_rows(candidates, corpus)].T
    cur_grade, cur_semester = profile.current_stage
    if profile.stage_mode == "synchronous":
        keep = (grade < cur_grade) | ((grade == cur_grade) & (semester <= cur_semester))
    else:  # review
        keep = semester <= cur_semester
    return candidates.take(keep)


def personalize_filter(candidates: Candidates, query_difficulty: int,
                       profile: Optional[StudentProfile],
                       corpus: Corpus) -> Candidates:
    """Difficulty band by ability: similar-or-hard for excellent students,
    similar-or-easy for weak, within one level for average."""
    if profile is None:
        return candidates
    d = corpus.difficulties[_corpus_rows(candidates, corpus)]
    if profile.ability == "excellent":
        keep = d >= query_difficulty
    elif profile.ability == "weak":
        keep = d <= query_difficulty
    else:
        keep = np.abs(d - query_difficulty) <= 1
    return candidates.take(keep)


# ---------------------------------------------------------------------------
# Variant classification

@dataclass
class VariantClassifier:
    """Directional variant-vs-plain-similar probability: the query comes
    first and is the reference whose condition may have been changed."""

    classifier: PairClassifier
    featurizer: PairFeaturizer

    def prob(self, query: PreparedQuery, candidate: PreparedQuery) -> float:
        return self.classifier.prob(self.featurizer.features(query, candidate))

    def prob_pairs(self, u: np.ndarray, v: np.ndarray, sims: np.ndarray) -> np.ndarray:
        """``prob`` of the pairs a featurizer gives as (u, v, edit similarities)."""
        return self.classifier.prob_rows(pair_feature_rows(u, v, sims))

    @classmethod
    def load(cls, path, featurizer: PairFeaturizer) -> "VariantClassifier":
        return cls(PairClassifier.load(path, "variant", featurizer.n_features), featurizer)


def train_variant(pairs: Sequence[LabeledPair], corpus: Corpus, vocab: Vocab,
                  params: EncoderParams) -> PairClassifier:
    """Fit the variant head (saved as kind ``"variant"``) on the
    variant-flagged labeled pairs (variant=1, plain-similar=0)."""
    flagged = [p for p in pairs if p.variant is not None]
    if not flagged:
        raise UntrainedModelError("no variant-flagged pairs to train on")
    feats = both_orders([(corpus[p.a_id], corpus[p.b_id]) for p in flagged], vocab, params)
    labels = np.repeat([1 if p.variant == VARIANT else 0 for p in flagged], 2)
    return PairClassifier.train(feats, labels)


# ---------------------------------------------------------------------------
# Full re-rank

def rerank(query: PreparedQuery, candidates: Candidates,
           profile: Optional[StudentProfile], corpus: Corpus,
           variant_clf: Optional[VariantClassifier] = None,
           config: RerankConfig = RerankConfig()) -> RerankedResult:
    """Stage filter, difficulty filter, then variant split, order preserved;
    ``candidates`` are rows of ``corpus``."""
    passed: list[str] = []
    kept = candidates
    if profile is not None:
        kept = stage_filter(kept, profile, corpus)
        passed.append("stage")
        kept = personalize_filter(kept, query.exercise.metadata.difficulty, profile, corpus)
        passed.append("difficulty")
    if variant_clf is None or not config.enable_variant:
        return RerankedResult(kept, passed)
    passed.append("variant")
    probs = (variant_clf.prob_pairs(*variant_clf.featurizer.row_pairs(
        query, kept.index, kept.rows)) if len(kept) else np.zeros(0))
    # stable partition: variants first, each side in ranking order
    similar = ~(probs >= config.variant_threshold)
    order = np.argsort(similar, kind="stable")
    return RerankedResult(kept.take(order), passed, variant_probs=probs[order],
                          n_variant=len(kept) - int(similar.sum()))
