"""Education-specific post-processing of the ranked candidate list.

Three opt-in steps, cheapest and most absolute first:

1. learning-stage filter: in synchronous practice a student should not see
   material beyond their current (grade, semester); in review mode the cut
   is on the semester component;
2. difficulty filter: excellent students get candidates at or above the
   query's difficulty, weak students at or below, average within one level;
3. variant split: a pair classifier separates genuine variants (changed
   condition, conclusion or solving method) from plain similars, and the
   variant list is presented first.

Every step preserves the incoming ranking order and is idempotent. With no
profile and no classifier the whole stage is a pass-through, so the
pipeline is testable end to end before any re-rank model exists.

The two filters are masks over the corpus's per-row ``learning_stages`` and
``difficulties`` arrays, applied to candidates as ``recall.Candidates``,
rows of the corpus. They read nothing but a candidate's own row, so
``recall.Recaller.recall`` runs them on a profiled miss's merged list,
before any pair is scored, the one place a miss is filtered. :func:`rerank`
is the split alone, by a bare ``pairclf.PairClassifier`` at one threshold:
it scores the miss's ranked list, rows of the query's view, in one
``prob_rows`` batch over the feature rows the query kept for dedup
(``PreparedQuery.feature_rows``), with no kernel call or feature row of its
own, bit for bit as the per-pair reference ``VariantClassifier.prob`` (see
the rules in ``pairclf``). ``passed`` names the filters recall ran.

A :class:`RerankedResult` keeps the ranked ``Candidates`` it serves (rows,
scores and source codes) and the variant probabilities, and nothing per
item: ids, source names and items are spelled each time they are read.
"""

from __future__ import annotations

from dataclasses import dataclass
from numbers import Integral
from typing import TYPE_CHECKING, Optional, Sequence

import numpy as np

from .corpus import Corpus, LabeledPair, VARIANT
from .pairclf import (PairClassifier, PairFeaturizer, PreparedCorpus, PreparedQuery,
                      UntrainedModelError, train_pair_head)

if TYPE_CHECKING:  # recall imports this module for its filters
    from .recall import Candidates

ABILITIES = ("weak", "average", "excellent")
STAGE_MODES = ("synchronous", "review")


@dataclass(frozen=True)
class StudentProfile:
    """A student's ability, stage mode and (grade, semester). The stage is
    kept as a tuple of two ``int``s, so the profile is hashable and keys the
    query cache; a list is converted, anything else refused."""

    ability: str
    stage_mode: str
    current_stage: tuple[int, int]

    def __post_init__(self):
        if self.ability not in ABILITIES:
            raise ValueError(f"unknown ability {self.ability!r}")
        if self.stage_mode not in STAGE_MODES:
            raise ValueError(f"unknown stage mode {self.stage_mode!r}")
        stage = self.current_stage
        if not (isinstance(stage, (tuple, list)) and len(stage) == 2
                and all(isinstance(v, Integral) and not isinstance(v, bool) for v in stage)):
            raise ValueError(f"current_stage {stage!r}: expected (grade, semester), "
                             "two integers")
        object.__setattr__(self, "current_stage", (int(stage[0]), int(stage[1])))


@dataclass(frozen=True)
class RerankedItem:
    ex_id: str
    score: float
    source: str
    passed: tuple[str, ...]
    variant_prob: Optional[float] = None


class RerankedResult:
    """The served list: ``candidates`` in served order, the first
    ``n_variant`` of them the variant list and the rest the similar list,
    each in ranking order.

    ``variant_probs`` is None when no variant step ran; ``passed`` is shared
    by every item. ``ids`` and ``sources`` are looked up from the
    candidates' rows and source codes when read, and ``variant`` and
    ``similar`` build their items when read.
    """

    __slots__ = ("candidates", "variant_probs", "passed", "n_variant")

    def __init__(self, candidates: Candidates, passed: Sequence[str] = (),
                 variant_probs: Optional[np.ndarray] = None, n_variant: int = 0):
        self.candidates = candidates
        self.passed = tuple(passed)
        self.variant_probs = variant_probs
        self.n_variant = n_variant

    @property
    def ids(self) -> tuple[str, ...]:
        return tuple(self.candidates.ids)

    @property
    def scores(self) -> np.ndarray:
        return self.candidates.scores

    @property
    def sources(self) -> tuple[str, ...]:
        return tuple(self.candidates.source_names)

    def _items(self, start: int, stop: int) -> list[RerankedItem]:
        part = self.candidates.take(slice(start, stop))
        probs = ([None] * len(part) if self.variant_probs is None
                 else self.variant_probs[start:stop].tolist())
        return [RerankedItem(ex_id, score, source, self.passed, prob)
                for ex_id, score, source, prob in zip(
                    part.ids, part.scores.tolist(), part.source_names, probs)]

    @property
    def variant(self) -> list[RerankedItem]:
        return self._items(0, self.n_variant)

    @property
    def similar(self) -> list[RerankedItem]:
        return self._items(self.n_variant, len(self.candidates))

    def all_ids(self) -> list[str]:
        return self.candidates.ids

    def to_dict(self) -> dict:
        def items(lst):
            return [{"id": i.ex_id, "score": i.score, "source": i.source,
                     "passed": list(i.passed), "variant_prob": i.variant_prob}
                    for i in lst]
        return {"variant": items(self.variant), "similar": items(self.similar)}


# ---------------------------------------------------------------------------
# Filters

def _corpus_rows(candidates: Candidates, corpus: Corpus) -> np.ndarray:
    if getattr(corpus, "index", None) is not candidates.index:
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
    rows = _corpus_rows(candidates, corpus)
    grade, semester = corpus.learning_stages[rows].T
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
    rows = _corpus_rows(candidates, corpus)
    d = corpus.difficulties[rows]
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
    """The per-pair reference the served variant split is checked against:
    the variant-vs-plain-similar probability of one (query, candidate) pair.

    Like every pair head it is symmetric: its features do not depend on
    which side is which, so prob(q, c) == prob(c, q) bit for bit. The label
    is symmetric too: the generator flags a pair a variant when exactly one
    side is in variant form (``variant_form[a] != variant_form[b]``)."""

    classifier: PairClassifier
    featurizer: PairFeaturizer

    def prob(self, query: PreparedQuery, candidate: PreparedQuery) -> float:
        return self.classifier.prob(self.featurizer.features(query, candidate))


def train_variant(pairs: Sequence[LabeledPair], view: PreparedCorpus) -> PairClassifier:
    """Fit the variant head (saved as kind ``"variant"``) on the
    variant-flagged labeled pairs (variant=1, plain-similar=0), as rows
    of ``view``."""
    flagged = [p for p in pairs if p.variant is not None]
    if not flagged:
        raise UntrainedModelError("no variant-flagged pairs to train on")
    row_of = view.index.row_of
    rows_a = np.array([row_of[p.a_id] for p in flagged], dtype=np.intp)
    rows_b = np.array([row_of[p.b_id] for p in flagged], dtype=np.intp)
    labels = np.array([1 if p.variant == VARIANT else 0 for p in flagged])
    return train_pair_head(view, rows_a, rows_b, labels)


# ---------------------------------------------------------------------------
# Full re-rank

def rerank(query: PreparedQuery, candidates: Candidates,
           profile: Optional[StudentProfile],
           variant: Optional[PairClassifier] = None,
           variant_threshold: float = 0.5) -> RerankedResult:
    """The variant split of a ranked list, order preserved: a candidate goes
    first when ``variant`` gives it at least ``variant_threshold``.
    ``candidates`` are what recall kept for ``profile``, so with a profile
    ``passed`` names the stage and difficulty filters recall ran. Refuses
    candidates that are not rows of the query's view."""
    if candidates.index is not query.view.index:
        raise ValueError("candidates are not rows of the query's view")
    passed = ["stage", "difficulty"] if profile is not None else []
    if variant is None:
        return RerankedResult(candidates, passed)
    passed.append("variant")
    probs = (variant.prob_rows(query.feature_rows(candidates.rows)) if len(candidates)
             else np.zeros(0))
    # stable partition: variants first, each side in ranking order
    similar = ~(probs >= variant_threshold)
    order = np.argsort(similar, kind="stable")
    return RerankedResult(candidates.take(order), passed, variant_probs=probs[order],
                          n_variant=len(candidates) - int(similar.sum()))
