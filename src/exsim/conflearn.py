"""Label-noise cleaning: estimate the noisy/true label joint, prune, retrain.

Annotated similarity labels disagree between annotators, so a slice of the
training pairs is simply wrong. The cleaning cycle:

1. out-of-fold probabilities: stratified folds, each scored by a frozen
   pair head (``pairclf.PairClassifier``, fitted by Newton's method) trained
   on the other folds, so no pair is scored by a model that saw it. The
   feature rows of every pair are built once, in both orders, from the
   view's encoder rows and the edit similarities
   (``pairclf.both_order_rows``), and each fold's head trains on the other
   folds' rows. A holdout pair scores the mean of its two orders, as dedup
   scores a pair;
2. confident joint: per-class thresholds (the mean predicted probability of
   a class over the pairs noisily labeled with it) decide which pairs count
   as confidently belonging to which class, giving a 2x2 count matrix of
   noisy label vs inferred true label;
3. pruning: each off-diagonal count removes that many pairs of the
   corresponding noisy label, lowest self-class probability first;
4. retraining the full ranker on the surviving pairs.

With an oracle probability function (the true 0/1 indicator) the joint is
exactly diagonal and nothing is pruned.
"""

from __future__ import annotations

import json
import logging
from dataclasses import dataclass, field
from typing import Callable, Optional, Sequence

import numpy as np

from .corpus import LabeledPair
from .pairclf import PairClassifier, PreparedCorpus, both_order_rows, edit_similarities
from .ranking import RankConfig, RankerParams, train_ranker

log = logging.getLogger(__name__)


@dataclass
class CleanConfig:
    folds: int = 5
    seed: int = 0
    retrain: RankConfig = field(default_factory=RankConfig)


@dataclass
class ConfidentJoint:
    counts: np.ndarray      # 2x2, [noisy label][inferred true label]
    thresholds: np.ndarray  # (2,) mean self-class probability per class


def stratified_folds(labels: Sequence[int], folds: int,
                     rng: np.random.Generator) -> np.ndarray:
    """Fold assignment preserving the class mix; every fold sees both classes."""
    labels = np.asarray(labels)
    assignment = np.empty(len(labels), dtype=np.int64)
    for cls in (0, 1):
        idx = np.flatnonzero(labels == cls)
        if len(idx) < folds:
            raise ValueError(
                f"class {cls} has {len(idx)} pairs, fewer than {folds} folds; "
                "cannot stratify")
        idx = idx[rng.permutation(len(idx))]
        assignment[idx] = np.arange(len(idx)) % folds
    return assignment


def out_of_fold_probs(pairs: Sequence[LabeledPair], view: PreparedCorpus,
                      config: CleanConfig = CleanConfig()) -> np.ndarray:
    """Probability of "similar" for every pair, scored out of fold by a pair
    head over ``view``'s embeddings (its encoder's rows)."""
    if len(pairs) < 2 * config.folds:
        raise ValueError("need at least two pairs per fold")
    labels = np.array([1 if p.is_similar else 0 for p in pairs])
    rng = np.random.default_rng(np.random.SeedSequence([config.seed, 41]))
    assignment = stratified_folds(labels, config.folds, rng)
    rows_a = np.array([view.index.row_of[p.a_id] for p in pairs], dtype=np.intp)
    rows_b = np.array([view.index.row_of[p.b_id] for p in pairs], dtype=np.intp)
    sims = edit_similarities(view.codes[rows_a], view.lengths[rows_a],
                             view.codes[rows_b], view.lengths[rows_b])
    features = both_order_rows(view.embeddings, rows_a, rows_b, sims)
    row_fold, row_labels = np.repeat(assignment, 2), np.repeat(labels, 2)
    probs = np.empty(len(pairs))
    for fold in range(config.folds):
        train = row_fold != fold
        head = PairClassifier.train(features[train], row_labels[train])
        p = head.prob_rows(features[~train])
        probs[assignment == fold] = (p[0::2] + p[1::2]) / 2.0
    return probs


def build_confident_joint(probs: Sequence[float],
                          labels: Sequence[int]) -> ConfidentJoint:
    """Count confident (noisy label, inferred label) pairs.

    probs are probabilities of class 1; class 0 probability is its
    complement. The threshold of a class is the mean probability of that
    class over the examples noisily labeled with it. An example counts
    toward the class of highest probability among those meeting their
    threshold, or is skipped when none does. Threshold comparisons allow a
    1e-12 absolute slack so that an example sitting exactly at a threshold
    in decimal arithmetic is not dropped by float summation rounding.
    """
    probs = np.asarray(probs, dtype=np.float64)
    labels = np.asarray(labels)
    if probs.shape != labels.shape:
        raise ValueError("probs and labels must align")
    p = np.stack([1.0 - probs, probs], axis=1)  # (n, 2) class probabilities
    thresholds = np.zeros(2)
    for cls in (0, 1):
        mask = labels == cls
        if not mask.any():
            raise ValueError(f"no examples labeled {cls}")
        thresholds[cls] = p[mask, cls].mean()
    counts = np.zeros((2, 2), dtype=np.int64)
    for i in range(len(labels)):
        eligible = [cls for cls in (0, 1) if p[i, cls] >= thresholds[cls] - 1e-12]
        if not eligible:
            continue
        inferred = max(eligible, key=lambda cls: (p[i, cls], cls))
        counts[labels[i], inferred] += 1
    return ConfidentJoint(counts=counts, thresholds=thresholds)


def prune(pairs: Sequence[LabeledPair], joint: ConfidentJoint,
          probs: Sequence[float]) -> tuple[list[LabeledPair], list[int]]:
    """Drop the likely-mislabeled pairs; returns (cleaned, pruned indices).

    Prune by noise rate: per off-diagonal cell C[i][j], prune the C[i][j]
    pairs with noisy label i of lowest self-class probability. With binary
    labels that is each class's whole off-diagonal count.
    """
    probs = np.asarray(probs, dtype=np.float64)
    labels = np.array([1 if p.is_similar else 0 for p in pairs])
    p_self = np.where(labels == 1, probs, 1.0 - probs)
    to_prune: set[int] = set()
    for noisy in (0, 1):
        k = int(joint.counts[noisy, 1 - noisy])
        if k <= 0:
            continue
        cls_idx = np.flatnonzero(labels == noisy)
        order = sorted(cls_idx, key=lambda i: (p_self[i], i))
        to_prune.update(int(i) for i in order[:k])
    cleaned = [p for i, p in enumerate(pairs) if i not in to_prune]
    return cleaned, sorted(to_prune)


@dataclass
class CleaningReport:
    joint: list[list[int]]
    thresholds: list[float]
    n_pairs: int
    n_pruned: int
    pruned: list[dict]
    p5_before: Optional[float] = None
    p5_after: Optional[float] = None
    flips: Optional[dict] = None

    def to_json(self) -> str:
        return json.dumps(self.__dict__, sort_keys=True, indent=1)

    def score_flips(self, flipped: Sequence[dict]) -> None:
        """Score the prune against the pairs known to be mislabeled (the
        generator's ``SyntheticTruth.flipped``, matched by ids) into
        ``flips``: their count, how many of them were pruned, and the
        prune's precision and recall, None where nothing divides."""
        known = {(f["a_id"], f["b_id"]) for f in flipped}
        hits = sum((p["a_id"], p["b_id"]) in known for p in self.pruned)
        self.flips = {"flipped": len(known), "pruned_flipped": hits,
                      "precision": hits / self.n_pruned if self.n_pruned else None,
                      "recall": hits / len(known) if known else None}


def clean_and_retrain(pairs: Sequence[LabeledPair], view: PreparedCorpus,
                      config: CleanConfig = CleanConfig(),
                      eval_fn: Optional[Callable[[RankerParams], float]] = None):
    """Full cycle: out-of-fold probs, joint, prune, retrain the full ranker,
    every step over ``view``, whose params are the encoder.

    Returns (params, cleaned_pairs, report). When eval_fn is given, the
    ranker is trained on every pair too, and eval_fn records precision at 5
    of the before/after rankers; else it trains once, on the cleaned pairs.
    """
    probs = out_of_fold_probs(pairs, view, config)
    labels = [1 if p.is_similar else 0 for p in pairs]
    joint = build_confident_joint(probs, labels)
    cleaned, pruned_idx = prune(pairs, joint, probs)
    log.info("confident joint %s; pruning %d of %d pairs",
             joint.counts.tolist(), len(pruned_idx), len(pairs))

    p5_before = p5_after = None
    if eval_fn is not None:
        before_params, _ = train_ranker(pairs, view, config.retrain, encoder=view.params)
        p5_before = eval_fn(before_params)
    params, _ = train_ranker(cleaned, view, config.retrain, encoder=view.params)
    if eval_fn is not None:
        p5_after = eval_fn(params)

    report = CleaningReport(
        joint=joint.counts.tolist(),
        thresholds=joint.thresholds.tolist(),
        n_pairs=len(pairs),
        n_pruned=len(pruned_idx),
        pruned=[{"index": i, "a_id": pairs[i].a_id, "b_id": pairs[i].b_id,
                 "label": pairs[i].label} for i in pruned_idx],
        p5_before=p5_before,
        p5_after=p5_after,
    )
    return params, cleaned, report
