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

The variant split scores every kept candidate in one batch, over their
single-text embeddings from the featurizer's ``PreparedCorpus``, each
feature row scored with its own 1-D dot product. Given the miss's
``pairclf.PreparedQuery`` it makes no edit-distance kernel call of its own:
the kept candidates are a subset of the recalled list, whose similarities
the query already holds, and its query embedding is the one recall
computed. This is bit-identical to ``VariantClassifier.prob`` per candidate
(see the rules in ``pairclf``).

Results are stored column-wise (:class:`RerankedResult`): a served list is
kept in the query cache, so per-item objects are only built on access.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional, Sequence

import numpy as np

from .corpus import Corpus, Exercise, LabeledPair, VARIANT
from .encoder import EncoderParams
from .pairclf import (PairClassifier, PairFeaturizer, PreparedQuery,
                      UntrainedModelError, pair_feature_rows)
from .recall import Candidate
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

    @classmethod
    def from_dict(cls, data: dict) -> "StudentProfile":
        stage = data["current_stage"]
        return cls(ability=data["ability"], stage_mode=data["stage_mode"],
                   current_stage=(int(stage[0]), int(stage[1])))

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
    by every item. ``variant`` and ``similar`` build their items on access.
    """

    __slots__ = ("ids", "scores", "sources", "variant_probs", "passed", "n_variant")

    def __init__(self, ids: Sequence[str], scores: Sequence[float],
                 sources: Sequence[str], passed: tuple[str, ...] = (),
                 variant_probs: Optional[Sequence[float]] = None, n_variant: int = 0):
        self.ids = tuple(ids)
        self.scores = np.asarray(scores, dtype=np.float64)
        self.sources = tuple(sources)
        self.passed = tuple(passed)
        self.variant_probs = (None if variant_probs is None
                              else np.asarray(variant_probs, dtype=np.float64))
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

def stage_filter(candidates: Sequence[Candidate], profile: Optional[StudentProfile],
                 corpus: Corpus) -> list[Candidate]:
    """Drop candidates beyond the student's learning stage; order preserved.

    Synchronous practice compares whole (grade, semester) stages; review
    compares the semester component only, per the stated rules.
    """
    if profile is None:
        return list(candidates)
    kept = []
    for c in candidates:
        stage = corpus[c.ex_id].learning_stage
        if profile.stage_mode == "synchronous":
            if stage <= profile.current_stage:
                kept.append(c)
        else:  # review
            if stage[1] <= profile.current_stage[1]:
                kept.append(c)
    return kept


def personalize_filter(candidates: Sequence[Candidate], query_difficulty: int,
                       profile: Optional[StudentProfile],
                       corpus: Corpus) -> list[Candidate]:
    """Difficulty band by ability: similar-or-hard for excellent students,
    similar-or-easy for weak, within one level for average."""
    if profile is None:
        return list(candidates)
    kept = []
    for c in candidates:
        d = corpus[c.ex_id].metadata.difficulty
        if profile.ability == "excellent":
            ok = d >= query_difficulty
        elif profile.ability == "weak":
            ok = d <= query_difficulty
        else:
            ok = abs(d - query_difficulty) <= 1
        if ok:
            kept.append(c)
    return kept


# ---------------------------------------------------------------------------
# Variant classification

@dataclass
class VariantClassifier:
    """Directional variant-vs-plain-similar probability: the query comes
    first and is the reference whose condition may have been changed."""

    classifier: PairClassifier
    featurizer: PairFeaturizer
    threshold: float = 0.5

    def prob(self, query: Exercise, candidate: Exercise,
             u: Optional[np.ndarray] = None,
             v: Optional[np.ndarray] = None) -> float:
        return self.classifier.prob(self.featurizer.features(query, candidate, u, v))

    def prob_many(self, query, candidates: Sequence[Exercise]) -> np.ndarray:
        """``prob(query, candidate)`` for every candidate, bit for bit;
        ``query`` is an ``Exercise`` or a ``PreparedQuery``."""
        u, v, sims = self.featurizer.query_pairs(query, candidates)
        return self.classifier.prob_rows(pair_feature_rows(u, v, sims))

    def is_variant(self, query: Exercise, candidate: Exercise) -> bool:
        return self.prob(query, candidate) >= self.threshold

    def save(self, path) -> None:
        self.classifier.save(path, "variant")

    @classmethod
    def load(cls, path, featurizer: PairFeaturizer,
             threshold: float = 0.5) -> "VariantClassifier":
        return cls(PairClassifier.load(path, "variant", featurizer.n_features),
                   featurizer, threshold)


def train_variant(pairs: Sequence[LabeledPair], corpus: Corpus, vocab: Vocab,
                  params: EncoderParams, threshold: float = 0.5) -> VariantClassifier:
    """Fit on the variant-flagged labeled pairs (variant=1, plain-similar=0)."""
    flagged = [p for p in pairs if p.variant is not None]
    if not flagged:
        raise UntrainedModelError("no variant-flagged pairs to train on")
    featurizer = PairFeaturizer(vocab, params)
    feats = featurizer.both_orders([(corpus[p.a_id], corpus[p.b_id]) for p in flagged])
    labels = np.repeat([1 if p.variant == VARIANT else 0 for p in flagged], 2)
    clf = PairClassifier.train(feats, labels)
    return VariantClassifier(clf, featurizer, threshold)


# ---------------------------------------------------------------------------
# Full re-rank

def rerank(query, candidates: Sequence[Candidate],
           profile: Optional[StudentProfile], corpus: Corpus,
           variant_clf: Optional[VariantClassifier] = None,
           config: RerankConfig = RerankConfig()) -> RerankedResult:
    """Stage filter, difficulty filter, then variant split, order preserved.
    ``query`` is an ``Exercise`` or a ``PreparedQuery``."""
    passed: list[str] = []
    kept = list(candidates)
    if profile is not None:
        kept = stage_filter(kept, profile, corpus)
        passed.append("stage")
        exercise = query.exercise if isinstance(query, PreparedQuery) else query
        kept = personalize_filter(kept, exercise.metadata.difficulty, profile, corpus)
        passed.append("difficulty")
    if variant_clf is None or not config.enable_variant:
        return RerankedResult([c.ex_id for c in kept], [c.score for c in kept],
                              [c.source for c in kept], tuple(passed))
    passed.append("variant")
    probs = (variant_clf.prob_many(query, [corpus[c.ex_id] for c in kept])
             if kept else np.zeros(0))
    # stable partition: variants first, each side in ranking order
    similar = ~(probs >= config.variant_threshold)
    order = np.argsort(similar, kind="stable")
    kept = [kept[i] for i in order]
    return RerankedResult([c.ex_id for c in kept], [c.score for c in kept],
                          [c.source for c in kept], tuple(passed),
                          variant_probs=probs[order],
                          n_variant=len(kept) - int(similar.sum()))
