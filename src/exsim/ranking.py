"""Pairwise multi-task ranking with a mixture-of-experts gated loss.

Every labeled exercise pair expands into three task instances sharing one
encoder backbone:

* stem-stem: do the two stems ask a similar thing (the ranking task itself);
* analysis-analysis: do the two solution analyses match;
* stem-analysis: does an analysis actually solve a stem. Positives pair each
  exercise with its own analysis; the negative pairs the first stem with the
  other's analysis when the pair is dissimilar, otherwise with the analysis
  of a random exercise sharing a knowledge concept (a direct cross pair
  would often be a false negative for genuinely similar exercises).

The combined loss is a convex combination of the per-task cross-entropies.
The coefficients come from one small expert network per task (three layers:
d -> d -> 1) fed with the batch-mean task features; their three logits
softmax into the coefficients, so they always form a probability vector.
With the gate disabled the coefficients are fixed constants instead, which
gives the single-task and equal-weight ablations.

Pair texts are encoded as left tokens, a separator, right tokens, mean
pooled and passed through the shared tanh transform. All gradients are
hand-derived, including the path through the gate and the batch means, and
are finite-difference checked in the tests.
"""

from __future__ import annotations

import logging
import math
from dataclasses import dataclass, field
from typing import Iterable, Optional, Sequence

import numpy as np

from .corpus import Corpus, Exercise, LabeledPair
from .encoder import EncoderParams, softmax_cross_entropy, TrainingDivergedError
from .pairclf import PreparedCorpus, UntrainedModelError
from .recall import Candidate
from .snapshots import load_arrays, save_arrays
from .textnorm import SEP_ID, Vocab, normalize_text, tokenize

log = logging.getLogger(__name__)

TASK_STEM_STEM = "stem-stem"
TASK_ANALYSIS_ANALYSIS = "analysis-analysis"
TASK_STEM_ANALYSIS = "stem-analysis"
TASKS = (TASK_STEM_STEM, TASK_ANALYSIS_ANALYSIS, TASK_STEM_ANALYSIS)

# short aliases accepted in configs
TASK_ALIASES = {"t1": TASK_STEM_STEM, "t2": TASK_ANALYSIS_ANALYSIS,
                "t3": TASK_STEM_ANALYSIS}


def resolve_tasks(names: Iterable[str]) -> tuple[str, ...]:
    out = []
    for name in names:
        canonical = TASK_ALIASES.get(name.lower(), name.lower())
        if canonical not in TASKS:
            raise ValueError(f"unknown task {name!r}")
        if canonical not in out:
            out.append(canonical)
    return tuple(sorted(out, key=TASKS.index))


@dataclass(frozen=True)
class TaskInstance:
    task: str
    left: tuple[int, ...]
    right: tuple[int, ...]
    label: int

    def sequence(self) -> np.ndarray:
        return np.asarray(self.left + (SEP_ID,) + self.right, dtype=np.int64)


# ---------------------------------------------------------------------------
# Parameters

@dataclass
class RankerParams:
    emb: np.ndarray  # (vocab, d) shared backbone, seeded from the encoder
    W: np.ndarray    # (d, d)
    b: np.ndarray    # (d,)
    heads: dict[str, dict[str, np.ndarray]]    # task -> {"w": (d,2), "b": (2,)}
    experts: dict[str, dict[str, np.ndarray]]  # task -> 3-layer gate expert
    seed: int = 0
    trained: bool = False

    @classmethod
    def init(cls, encoder: EncoderParams, seed: int = 0) -> "RankerParams":
        rng = np.random.default_rng(seed)
        d = encoder.d

        def u(*shape):
            return rng.uniform(-0.05, 0.05, size=shape)

        heads = {t: {"w": u(d, 2), "b": np.zeros(2)} for t in TASKS}
        experts = {t: {"w1": u(d, d), "b1": np.zeros(d),
                       "w2": u(d, d), "b2": np.zeros(d),
                       "w3": u(d), "b3": np.zeros(1)} for t in TASKS}
        return cls(emb=encoder.emb.copy(), W=encoder.W.copy(), b=encoder.b.copy(),
                   heads=heads, experts=experts, seed=seed)

    @property
    def d(self) -> int:
        return self.W.shape[0]

    def arrays(self) -> dict[str, np.ndarray]:
        out = {"emb": self.emb, "W": self.W, "b": self.b}
        for t in TASKS:
            for k, v in self.heads[t].items():
                out[f"head.{t}.{k}"] = v
            for k, v in self.experts[t].items():
                out[f"expert.{t}.{k}"] = v
        return out

    def zero_grads(self) -> dict[str, np.ndarray]:
        return {k: np.zeros_like(v) for k, v in self.arrays().items()}

    def apply_grads(self, grads: dict[str, np.ndarray], lr: float) -> None:
        live = self.arrays()
        for k, g in grads.items():
            live[k][...] -= lr * g

    def copy(self) -> "RankerParams":
        return RankerParams(
            emb=self.emb.copy(), W=self.W.copy(), b=self.b.copy(),
            heads={t: {k: v.copy() for k, v in h.items()} for t, h in self.heads.items()},
            experts={t: {k: v.copy() for k, v in e.items()} for t, e in self.experts.items()},
            seed=self.seed, trained=self.trained)


def save_ranker(params: RankerParams, path) -> None:
    save_arrays(path, "ranker", {"seed": params.seed, "trained": params.trained},
                params.arrays())


def load_ranker(path) -> RankerParams:
    meta, arrays = load_arrays(path, "ranker")
    heads = {t: {"w": arrays[f"head.{t}.w"], "b": arrays[f"head.{t}.b"]} for t in TASKS}
    experts = {t: {k: arrays[f"expert.{t}.{k}"]
                   for k in ("w1", "b1", "w2", "b2", "w3", "b3")} for t in TASKS}
    return RankerParams(emb=arrays["emb"], W=arrays["W"], b=arrays["b"],
                        heads=heads, experts=experts, seed=meta["seed"],
                        trained=bool(meta["trained"]))


# ---------------------------------------------------------------------------
# Task instance construction

class TaskBuilder:
    """Expands labeled pairs into task instances over a tokenized corpus."""

    def __init__(self, corpus: Corpus, vocab: Vocab, stop_words: Iterable[str] = ()):
        self.corpus = corpus
        self.stems: dict[str, tuple[int, ...]] = {}
        self.analyses: dict[str, tuple[int, ...]] = {}
        by_concept: dict[str, list[str]] = {}
        for ex in corpus:
            self.stems[ex.id] = tokenize(normalize_text(ex.text, stop_words)[0], vocab).ids
            self.analyses[ex.id] = tokenize(
                normalize_text(ex.answer_analysis, stop_words)[0], vocab).ids
            for c in ex.metadata.knowledge_concepts:
                by_concept.setdefault(c, []).append(ex.id)
        self.by_concept = by_concept
        self.ids = corpus.ids

    def build(self, pair: LabeledPair, rng: np.random.Generator) -> list[TaskInstance]:
        a, b = self.corpus[pair.a_id], self.corpus[pair.b_id]
        if not self.analyses[a.id] or not self.analyses[b.id]:
            raise ValueError(f"pair ({a.id}, {b.id}): both exercises need analysis text")
        label = 1 if pair.is_similar else 0
        instances = [
            TaskInstance(TASK_STEM_STEM, self.stems[a.id], self.stems[b.id], label),
            TaskInstance(TASK_ANALYSIS_ANALYSIS, self.analyses[a.id],
                         self.analyses[b.id], label),
            TaskInstance(TASK_STEM_ANALYSIS, self.stems[a.id], self.analyses[a.id], 1),
            TaskInstance(TASK_STEM_ANALYSIS, self.stems[b.id], self.analyses[b.id], 1),
        ]
        if pair.is_similar:
            neg_id = self._concept_sharing_draw(a, exclude={a.id, b.id}, rng=rng)
            instances.append(TaskInstance(TASK_STEM_ANALYSIS, self.stems[a.id],
                                          self.analyses[neg_id], 0))
        else:
            instances.append(TaskInstance(TASK_STEM_ANALYSIS, self.stems[a.id],
                                          self.analyses[b.id], 0))
        return instances

    def _concept_sharing_draw(self, ex: Exercise, exclude: set[str],
                              rng: np.random.Generator) -> str:
        pool: list[str] = []
        seen = set(exclude)
        for c in ex.metadata.knowledge_concepts:
            for other in self.by_concept.get(c, ()):
                if other not in seen:
                    pool.append(other)
                    seen.add(other)
        if not pool:
            log.debug("no concept-sharing negative for %s; drawing uniformly", ex.id)
            pool = [i for i in self.ids if i not in exclude]
        return pool[int(rng.integers(0, len(pool)))]


def build_task_instances(pair: LabeledPair, corpus: Corpus, vocab: Vocab,
                         seed: int = 0,
                         stop_words: Iterable[str] = ()) -> list[TaskInstance]:
    """One-shot instance construction for a single pair (tests, inspection)."""
    builder = TaskBuilder(corpus, vocab, stop_words)
    return builder.build(pair, np.random.default_rng(seed))


# ---------------------------------------------------------------------------
# Forward / backward

def _pair_features(seqs: Sequence[np.ndarray], params: RankerParams):
    """Mean-pooled token embeddings through the shared tanh transform."""
    pooled = np.stack([params.emb[ids].mean(axis=0) for ids in seqs])
    act = np.tanh(pooled @ params.W + params.b)
    return act, (seqs, pooled, act)


def _pair_features_backward(d_act: np.ndarray, cache, params: RankerParams,
                            grads: dict[str, np.ndarray]) -> None:
    seqs, pooled, act = cache
    d_pre = d_act * (1.0 - act * act)
    grads["W"] += pooled.T @ d_pre
    grads["b"] += d_pre.sum(axis=0)
    d_pooled = d_pre @ params.W.T
    for i, ids in enumerate(seqs):
        np.add.at(grads["emb"], ids, d_pooled[i] / len(ids))


def _expert_forward(fbar: np.ndarray, ex: dict[str, np.ndarray]):
    u1 = np.tanh(fbar @ ex["w1"] + ex["b1"])
    u2 = np.tanh(u1 @ ex["w2"] + ex["b2"])
    logit = float(u2 @ ex["w3"] + ex["b3"][0])
    return logit, (fbar, u1, u2)


def _expert_backward(d_logit: float, cache, ex_name: str,
                     ex: dict[str, np.ndarray], grads: dict[str, np.ndarray]):
    fbar, u1, u2 = cache
    grads[f"expert.{ex_name}.w3"] += d_logit * u2
    grads[f"expert.{ex_name}.b3"] += d_logit
    d_u2 = d_logit * ex["w3"]
    d_pre2 = d_u2 * (1.0 - u2 * u2)
    grads[f"expert.{ex_name}.w2"] += np.outer(u1, d_pre2)
    grads[f"expert.{ex_name}.b2"] += d_pre2
    d_u1 = d_pre2 @ ex["w2"].T
    d_pre1 = d_u1 * (1.0 - u1 * u1)
    grads[f"expert.{ex_name}.w1"] += np.outer(fbar, d_pre1)
    grads[f"expert.{ex_name}.b1"] += d_pre1
    return d_pre1 @ ex["w1"].T  # gradient w.r.t. fbar


def moe_coefficients(task_features: dict[str, np.ndarray],
                     params: RankerParams) -> dict[str, float]:
    """Softmax-normalized expert logits over the present tasks."""
    present = [t for t in TASKS if t in task_features]
    logits = np.array([_expert_forward(task_features[t], params.experts[t])[0]
                       for t in present])
    logits -= logits.max()
    expl = np.exp(logits)
    alpha = expl / expl.sum()
    return dict(zip(present, alpha.tolist()))


@dataclass
class MultitaskResult:
    total: float
    task_losses: dict[str, float]
    alpha: dict[str, float]
    grads: dict[str, np.ndarray]


def multitask_loss(instances: Sequence[TaskInstance], params: RankerParams,
                   moe: bool = True,
                   fixed_alpha: Optional[dict[str, float]] = None) -> MultitaskResult:
    """Coefficient-weighted sum of per-task cross-entropies, with gradients.

    With ``moe`` the coefficients come from the gate (and gradients flow
    through it, including into the shared features via the batch means);
    otherwise ``fixed_alpha`` supplies constants. A task with no instances
    in the batch contributes zero loss and is masked out of the softmax.
    """
    by_task: dict[str, list[TaskInstance]] = {}
    for inst in instances:
        by_task.setdefault(inst.task, []).append(inst)
    present = [t for t in TASKS if t in by_task]
    if not present:
        raise ValueError("batch contains no task instances")
    missing = [t for t in TASKS if t not in by_task]
    if missing:
        log.debug("tasks absent from batch, masked: %s", missing)

    grads = params.zero_grads()
    feats, caches, losses, d_logits_unit = {}, {}, {}, {}
    for t in present:
        seqs = [inst.sequence() for inst in by_task[t]]
        labels = np.array([inst.label for inst in by_task[t]])
        f, cache = _pair_features(seqs, params)
        targets = np.zeros((len(labels), 2))
        targets[np.arange(len(labels)), labels] = 1.0
        logits = f @ params.heads[t]["w"] + params.heads[t]["b"]
        losses[t], d_logits_unit[t] = softmax_cross_entropy(logits, targets)
        feats[t], caches[t] = f, cache

    expert_caches = {}
    if moe:
        fbars = {t: feats[t].mean(axis=0) for t in present}
        logits = []
        for t in present:
            logit, cache = _expert_forward(fbars[t], params.experts[t])
            expert_caches[t] = cache
            logits.append(logit)
        logits = np.array(logits)
        shifted = logits - logits.max()
        expl = np.exp(shifted)
        alpha_vec = expl / expl.sum()
        alpha = dict(zip(present, alpha_vec.tolist()))
    else:
        if fixed_alpha is None:
            fixed_alpha = {t: 1.0 / len(TASKS) for t in TASKS}
        alpha = {t: float(fixed_alpha.get(t, 0.0)) for t in present}

    total = sum(alpha[t] * losses[t] for t in present)

    if moe:
        loss_vec = np.array([losses[t] for t in present])
        avec = np.array([alpha[t] for t in present])
        d_gate_logits = avec * (loss_vec - float(avec @ loss_vec))
        for i, t in enumerate(present):
            d_fbar = _expert_backward(float(d_gate_logits[i]), expert_caches[t],
                                      t, params.experts[t], grads)
            d_f_gate = np.tile(d_fbar / len(by_task[t]), (len(by_task[t]), 1))
            _apply_head_backward(t, alpha[t], feats[t], caches[t], d_logits_unit[t],
                                 params, grads, extra_d_f=d_f_gate)
    else:
        for t in present:
            _apply_head_backward(t, alpha[t], feats[t], caches[t], d_logits_unit[t],
                                 params, grads)
    return MultitaskResult(total=float(total), task_losses=losses, alpha=alpha,
                           grads=grads)


def _apply_head_backward(task, alpha_t, f, cache, d_logits_unit, params, grads,
                         extra_d_f=None):
    d_logits = alpha_t * d_logits_unit
    grads[f"head.{task}.w"] += f.T @ d_logits
    grads[f"head.{task}.b"] += d_logits.sum(axis=0)
    d_f = d_logits @ params.heads[task]["w"].T
    if extra_d_f is not None:
        d_f = d_f + extra_d_f
    _pair_features_backward(d_f, cache, params, grads)


# ---------------------------------------------------------------------------
# Training

@dataclass
class RankConfig:
    lr: float = 0.01
    epochs: int = 3
    batch_pairs: int = 16
    seed: int = 0
    moe: bool = True
    alpha: tuple[float, float, float] = (1 / 3, 1 / 3, 1 / 3)
    tasks: tuple[str, ...] = TASKS


def train_ranker(pairs: Sequence[LabeledPair], corpus: Corpus, vocab: Vocab,
                 config: RankConfig = RankConfig(),
                 encoder: Optional[EncoderParams] = None,
                 init: Optional[RankerParams] = None,
                 stop_words: Iterable[str] = ()):
    """Train the multi-task ranker; returns (params, history).

    The shared backbone starts from the pre-trained encoder when given.
    Task instances are built once, deterministically from the seed, before
    the epoch loop. history carries per-epoch means of the total and
    per-task losses plus the coefficient trajectory.
    """
    if not pairs:
        raise ValueError("no training pairs")
    tasks = resolve_tasks(config.tasks)
    if init is not None:
        params = init.copy()
    else:
        if encoder is None:
            raise ValueError("train_ranker needs encoder params or an init ranker")
        params = RankerParams.init(encoder, seed=config.seed)
    fixed_alpha = dict(zip(TASKS, config.alpha))

    builder = TaskBuilder(corpus, vocab, stop_words)
    build_rng = np.random.default_rng(np.random.SeedSequence([config.seed, 5]))
    per_pair = [[inst for inst in builder.build(p, build_rng) if inst.task in tasks]
                for p in pairs]

    rng = np.random.default_rng(np.random.SeedSequence([config.seed, 7]))
    history = {"total": [], "alpha": [], "tasks": []}
    for _ in range(config.epochs):
        order = rng.permutation(len(per_pair))
        epoch_total, epoch_alpha, epoch_tasks, n_batches = 0.0, [], [], 0
        for start in range(0, len(order), config.batch_pairs):
            chunk = [inst for i in order[start:start + config.batch_pairs]
                     for inst in per_pair[i]]
            if not chunk:
                continue
            result = multitask_loss(chunk, params, moe=config.moe,
                                    fixed_alpha=fixed_alpha)
            if not math.isfinite(result.total):
                raise TrainingDivergedError("non-finite ranking loss")
            params.apply_grads(result.grads, config.lr)
            epoch_total += result.total
            epoch_alpha.append(result.alpha)
            epoch_tasks.append(result.task_losses)
            n_batches += 1
        history["total"].append(epoch_total / max(n_batches, 1))
        history["alpha"].append(_mean_dicts(epoch_alpha))
        history["tasks"].append(_mean_dicts(epoch_tasks))
    params.trained = True
    return params, history


def _mean_dicts(dicts: list[dict[str, float]]) -> dict[str, float]:
    if not dicts:
        return {}
    keys = sorted({k for d in dicts for k in d})
    return {k: float(np.mean([d[k] for d in dicts if k in d])) for k in keys}


# ---------------------------------------------------------------------------
# Scoring and ranking

@dataclass
class Ranker:
    """Scores exercise pairs with the trained stem-stem head.

    ``view``, when given, must be prepared with this ranker's vocab and stop
    words; an exercise that is one of its objects is not normalized again,
    any other (a probe, or an equal id) is prepared from its own text.
    """

    vocab: Vocab
    params: RankerParams
    stop_words: tuple[str, ...] = ()
    view: Optional[PreparedCorpus] = None

    def __post_init__(self):
        self.stop_words = tuple(self.stop_words)
        if self.view is not None:
            self.view.check(self.vocab, self.stop_words)

    def _check_trained(self):
        if not self.params.trained:
            raise UntrainedModelError("ranker has not been trained")

    def _stem_ids(self, ex: Exercise) -> np.ndarray:
        row = self.view.lookup(ex) if self.view is not None else None
        if row is not None:
            return self.view.vocab_ids(row)
        return tokenize(normalize_text(ex.text, self.stop_words)[0], self.vocab).array()

    def score_pairs(self, query: Exercise, others: Sequence[Exercise]) -> np.ndarray:
        """Positive-class probability for (query, other) under the pair head."""
        self._check_trained()
        if not others:
            return np.zeros(0)
        head = np.append(self._stem_ids(query), SEP_ID)
        seqs = [np.concatenate([head, self._stem_ids(o)]) for o in others]
        f, _ = _pair_features(seqs, self.params)
        logits = f @ self.params.heads[TASK_STEM_STEM]["w"] \
            + self.params.heads[TASK_STEM_STEM]["b"]
        shifted = logits - logits.max(axis=1, keepdims=True)
        expl = np.exp(shifted)
        return expl[:, 1] / expl.sum(axis=1)

    def score_pair(self, ex_a: Exercise, ex_b: Exercise) -> float:
        return float(self.score_pairs(ex_a, [ex_b])[0])

    def rank(self, query: Exercise, candidates: Sequence[Candidate],
             corpus: Corpus) -> list[Candidate]:
        """Re-score candidates and sort descending, ties broken by id."""
        self._check_trained()
        others = [corpus[c.ex_id] for c in candidates]
        scores = self.score_pairs(query, others)
        rescored = [Candidate(c.ex_id, float(s), c.source)
                    for c, s in zip(candidates, scores)]
        return sorted(rescored, key=lambda c: (-c.score, c.ex_id))
