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

Pair representation. Each side is encoded on its own with the encoder's
text function over the ranker's trainable copy of the backbone (sum the
token rows, tanh transform, L2 normalize), and a task head classifies the
shared pair features of :mod:`pairclf`, ``[u, v, |u - v|, u * v, edit_sim]``
(the Sentence-BERT pair head, arXiv:1908.10084). ``edit_sim`` is the
token-level edit similarity of the two texts over the same token codes dedup
uses. Training tokenizes nothing: :class:`TaskBuilder` reads each side's
vocabulary ids and codes from the ``pairclf.PreparedCorpus`` the caller
prepared, and computes ``edit_sim`` before training, once per distinct pair
of texts; a batch's instances are built only when the batch is drawn. At
serving time a stage is built from one view; a miss passes one
``PreparedQuery``. The view embeds under the encoder alone;
the ranker's backbone lives here. :class:`Ranker` is built from the loaded
``pairclf.PreparedCorpus`` and keeps its own matrix, every exercise's row
embedded once under its backbone, so a probe encodes only itself
(``PreparedQuery.embedding``) and a bank query (see
``pairclf.PreparedQuery``) reads its row instead. ``Ranker.rank`` takes the
miss's ``pairclf.PreparedQuery`` alone and makes no edit-similarity kernel
call of its own: it reads back the similarities dedup computed over the
recalled list, and makes the one call of the miss only when no dedup head
ran before it.

The combined loss is a convex combination of the per-task cross-entropies.
The coefficients come from one small expert network per task (three layers:
d -> d -> 1) fed with the batch mean of the task's ``u * v`` block; their
three logits softmax into the coefficients, so they always form a
probability vector. With the gate disabled the coefficients are the fixed
constants of ``RankConfig.alpha`` instead, which gives the single-task and
equal-weight ablations.

All gradients are hand-derived, including the path through the gate and the
batch means, and are finite-difference checked in the tests.
"""

from __future__ import annotations

import logging
import math
import operator
from collections import abc
from dataclasses import dataclass
from typing import Iterable, Optional, Sequence

import numpy as np

from .corpus import Exercise, LabeledPair
from .encoder import (EncoderParams, TrainingDivergedError, embed_corpus, embed_text_batch,
                      embed_text_batch_backward, softmax_cross_entropy)
from .pairclf import (PAD_CODE, PreparedCorpus, PreparedQuery, UntrainedModelError,
                      edit_similarities, pair_feature_rows)
from .recall import Candidates
from .snapshots import SnapshotFormatError, load_arrays, save_arrays
# normalize_text stays bound, unused: perfbench's tracer wraps it where imported
from .textnorm import normalize_text  # noqa: F401

log = logging.getLogger(__name__)

TASK_STEM_STEM = "stem-stem"
TASK_ANALYSIS_ANALYSIS = "analysis-analysis"
TASK_STEM_ANALYSIS = "stem-analysis"
TASKS = (TASK_STEM_STEM, TASK_ANALYSIS_ANALYSIS, TASK_STEM_ANALYSIS)

_SIM_BLOCK = 4096  # text pairs per edit-similarity call while building instances

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


@dataclass(frozen=True, slots=True)
class TaskInstance:
    task: str
    left: tuple[int, ...]    # vocabulary ids of each side
    right: tuple[int, ...]
    label: int
    edit_sim: float          # edit similarity of the two sides' token codes


# ---------------------------------------------------------------------------
# Parameters

@dataclass
class RankerParams:
    emb: np.ndarray  # (vocab, d) shared backbone, seeded from the encoder
    W: np.ndarray    # (d, d)
    b: np.ndarray    # (d,)
    heads: dict[str, dict[str, np.ndarray]]    # task -> {"w": (4d+1,2), "b": (2,)}
    experts: dict[str, dict[str, np.ndarray]]  # task -> 3-layer gate expert
    seed: int = 0
    trained: bool = False

    @classmethod
    def init(cls, encoder: EncoderParams, seed: int = 0) -> "RankerParams":
        rng = np.random.default_rng(seed)
        d = encoder.d

        def u(*shape):
            return rng.uniform(-0.05, 0.05, size=shape)

        heads = {t: {"w": u(4 * d + 1, 2), "b": np.zeros(2)} for t in TASKS}
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


def save_ranker(params: RankerParams, path) -> None:
    save_arrays(path, "ranker", {"seed": params.seed, "trained": params.trained},
                params.arrays())


def load_ranker(path) -> RankerParams:
    """Read a ranker snapshot; refuses one whose heads are not ``4d + 1`` wide."""
    meta, arrays = load_arrays(path, "ranker")
    width = 4 * arrays["W"].shape[0] + 1
    for t in TASKS:
        if arrays[f"head.{t}.w"].shape != (width, 2):
            raise SnapshotFormatError(
                f"{path}: head {t!r} has shape {arrays[f'head.{t}.w'].shape}, "
                f"expected ({width}, 2) over the pair features; the snapshot "
                "predates the pair head, rerun step_train_rank")
    heads = {t: {"w": arrays[f"head.{t}.w"], "b": arrays[f"head.{t}.b"]} for t in TASKS}
    experts = {t: {k: arrays[f"expert.{t}.{k}"]
                   for k in ("w1", "b1", "w2", "b2", "w3", "b3")} for t in TASKS}
    return RankerParams(emb=arrays["emb"], W=arrays["W"], b=arrays["b"],
                        heads=heads, experts=experts, seed=meta["seed"],
                        trained=bool(meta["trained"]))


# ---------------------------------------------------------------------------
# Task instance construction

class TaskBuilder:
    """Expands labeled pairs into task instances over a prepared corpus.

    Texts are rows: row r < n is exercise r's stem and row n + r its
    answer/analysis, n being the number of exercises in the view. Their
    vocabulary ids and edit-distance codes are the view's.
    """

    def __init__(self, view: PreparedCorpus):
        self.view = view
        n = len(view.exercises)
        self.texts = [tuple(ids.tolist()) for ids in view.stem_ids() + view.analysis_ids()]
        analysis = view.analysis
        self.lengths = np.concatenate([view.lengths, analysis.lengths])
        self.codes = np.full((2 * n, max(view.codes.shape[1], analysis.codes.shape[1])),
                             PAD_CODE, dtype=np.int32)
        self.codes[:n, :view.codes.shape[1]] = view.codes
        self.codes[n:, :analysis.codes.shape[1]] = analysis.codes
        self.row_of = view.index.row_of
        self.ids = view.index.ids
        self.by_concept: dict[str, list[str]] = {}
        for ex in view.exercises:
            for c in ex.metadata.knowledge_concepts:
                self.by_concept.setdefault(c, []).append(ex.id)
        self._pools: dict[str, list[str]] = {}

    def build_all(self, pairs: Sequence[LabeledPair], rng: np.random.Generator,
                  tasks: Iterable[str] = TASKS) -> PairInstances:
        """Instances of every pair, in order, keeping those of ``tasks``.

        Batch-at-a-time rule: every draw and every edit similarity is made
        here, once, into two arrays, but no ``TaskInstance`` is; item i of
        the result builds pair i's instances when it is read. A caller that
        reads one batch of pairs at a time (``train_ranker``) holds one
        batch of instances, not every pair's."""
        # (pair, instance, [task, left row, right row, label])
        specs = np.fromiter((x for p in pairs for spec in self._specs(p, rng) for x in spec),
                            dtype=np.int32, count=20 * len(pairs)).reshape(-1, 5, 4)
        sims = self._edit_sims(specs[:, :, 1], specs[:, :, 2])
        return PairInstances(self.texts, specs, sims, [TASKS.index(t) for t in tasks])

    def _edit_sims(self, left: np.ndarray, right: np.ndarray) -> np.ndarray:
        """Edit similarity of the texts in rows (left, right), each distinct
        pair computed once, ``_SIM_BLOCK`` pairs per kernel call."""
        keys = left.astype(np.int64) * len(self.texts) + right
        unique, inverse = np.unique(keys, return_inverse=True)
        l_rows, r_rows = np.divmod(unique, len(self.texts))
        sims = np.empty(len(unique))
        for start in range(0, len(unique), _SIM_BLOCK):
            l, r = l_rows[start:start + _SIM_BLOCK], r_rows[start:start + _SIM_BLOCK]
            sims[start:start + _SIM_BLOCK] = edit_similarities(
                self.codes[l], self.lengths[l], self.codes[r], self.lengths[r])
        return sims[inverse].reshape(keys.shape)

    def _specs(self, pair: LabeledPair, rng: np.random.Generator):
        """(task index, left row, right row, label) of each instance of one pair."""
        n = len(self.view.exercises)
        stem_a, stem_b = self.row_of[pair.a_id], self.row_of[pair.b_id]
        for row in (stem_a, stem_b):
            if not self.lengths[row] or not self.lengths[n + row]:
                raise ValueError(f"pair ({pair.a_id}, {pair.b_id}): both exercises need "
                                 "stem and analysis text")
        label = 1 if pair.is_similar else 0
        if pair.is_similar:
            neg_id = self._concept_sharing_draw(self.view.exercises[stem_a], pair.b_id, rng)
        else:
            neg_id = pair.b_id
        ss, aa, sa = range(len(TASKS))
        return [
            (ss, stem_a, stem_b, label),
            (aa, n + stem_a, n + stem_b, label),
            (sa, stem_a, n + stem_a, 1),
            (sa, stem_b, n + stem_b, 1),
            (sa, stem_a, n + self.row_of[neg_id], 0),
        ]

    def _concept_sharing_draw(self, ex: Exercise, partner_id: str,
                              rng: np.random.Generator) -> str:
        """A uniform draw from the exercises sharing a concept with ``ex``,
        other than ``ex`` and ``partner_id``; from the whole bank minus those
        two when none shares one."""
        pool = self._concept_pool(ex)
        try:
            skip = pool.index(partner_id)
        except ValueError:
            skip = len(pool)
        size = len(pool) - (skip < len(pool))
        if not size:
            log.debug("no concept-sharing negative for %s; drawing uniformly", ex.id)
            pool = [i for i in self.ids if i not in (ex.id, partner_id)]
            return pool[int(rng.integers(0, len(pool)))]
        pick = int(rng.integers(0, size))
        return pool[pick + (pick >= skip)]

    def _concept_pool(self, ex: Exercise) -> list[str]:
        """The exercises sharing a concept with ``ex``, other than ``ex``, in
        concept order then bank order, each once; built on first use."""
        pool = self._pools.get(ex.id)
        if pool is None:
            pool = []
            seen = {ex.id}
            for c in ex.metadata.knowledge_concepts:
                for other in self.by_concept.get(c, ()):
                    if other not in seen:
                        pool.append(other)
                        seen.add(other)
            self._pools[ex.id] = pool
        return pool


class PairInstances(abc.Sequence):
    """The task instances of labeled pairs, item i a new list of pair i's,
    equal on every read. Only ``specs`` (pairs, 5, 4) int32, each instance's
    [task, left text, right text, label], and ``sims`` (pairs, 5) float64,
    its edit similarity, are held; ``texts`` are the builder's id tuples."""

    def __init__(self, texts: list[tuple[int, ...]], specs: np.ndarray, sims: np.ndarray,
                 wanted: list[int]):
        self.texts, self.specs, self.sims, self.wanted = texts, specs, sims, wanted

    def __len__(self) -> int:
        return len(self.specs)

    def __getitem__(self, i) -> list[TaskInstance]:
        i = operator.index(i)
        texts = self.texts
        return [TaskInstance(TASKS[t], texts[l], texts[r], label, sim)
                for (t, l, r, label), sim in zip(self.specs[i].tolist(), self.sims[i].tolist())
                if t in self.wanted]


# ---------------------------------------------------------------------------
# Forward / backward

def _pair_features(instances: Sequence[TaskInstance], params: RankerParams):
    """Pair feature rows: both sides through the encoder's text function."""
    n = len(instances)
    embedded, cache = embed_text_batch(
        [inst.left for inst in instances] + [inst.right for inst in instances], params)
    u, v = embedded[:n], embedded[n:]
    sims = np.array([inst.edit_sim for inst in instances])
    return pair_feature_rows(u, v, sims), (u, v, cache)


def _pair_features_backward(d_f: np.ndarray, cache, params: RankerParams,
                            grads: dict[str, np.ndarray]) -> None:
    u, v, embed_cache = cache
    d = params.d
    d_abs = d_f[:, 2 * d:3 * d] * np.sign(u - v)
    d_prod = d_f[:, 3 * d:4 * d]
    d_u = d_f[:, :d] + d_abs + d_prod * v
    d_v = d_f[:, d:2 * d] - d_abs + d_prod * u
    embed_text_batch_backward([(np.concatenate([d_u, d_v]), embed_cache)], params, grads)


def _gate_input(f: np.ndarray, d: int) -> np.ndarray:
    """The experts' d-wide input: the batch mean of the ``u * v`` block."""
    return f[:, 3 * d:4 * d].mean(axis=0)


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


@dataclass
class MultitaskResult:
    total: float
    task_losses: dict[str, float]
    alpha: dict[str, float]
    grads: dict[str, np.ndarray]


def multitask_loss(instances: Sequence[TaskInstance], params: RankerParams,
                   alpha: Optional[dict[str, float]] = None) -> MultitaskResult:
    """Coefficient-weighted sum of per-task cross-entropies, with gradients.

    With ``alpha`` None the coefficients come from the gate (and gradients
    flow through it, including into the shared features via the batch
    means); otherwise ``alpha`` supplies constants, 0 for a task it lacks. A
    task with no instances in the batch contributes zero loss and is masked
    out of the softmax.
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
    # one encoder pass over every task's instances; task t owns rows spans[t]
    f_all, pair_cache = _pair_features([inst for t in present for inst in by_task[t]],
                                       params)
    ends = np.cumsum([len(by_task[t]) for t in present])
    spans = {t: slice(end - len(by_task[t]), end) for t, end in zip(present, ends)}
    feats, losses, d_logits_unit = {}, {}, {}
    for t in present:
        labels = np.array([inst.label for inst in by_task[t]])
        feats[t] = f_all[spans[t]]
        targets = np.zeros((len(labels), 2))
        targets[np.arange(len(labels)), labels] = 1.0
        logits = feats[t] @ params.heads[t]["w"] + params.heads[t]["b"]
        losses[t], d_logits_unit[t] = softmax_cross_entropy(logits, targets)

    moe = alpha is None
    expert_caches = {}
    if moe:
        fbars = {t: _gate_input(feats[t], params.d) for t in present}
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
        alpha = {t: float(alpha.get(t, 0.0)) for t in present}

    total = sum(alpha[t] * losses[t] for t in present)

    d_f_all = np.empty_like(f_all)
    for t in present:
        d_f_all[spans[t]] = _head_backward(t, alpha[t], feats[t], d_logits_unit[t],
                                           params, grads)
    if moe:
        loss_vec = np.array([losses[t] for t in present])
        avec = np.array([alpha[t] for t in present])
        d_gate_logits = avec * (loss_vec - float(avec @ loss_vec))
        for i, t in enumerate(present):
            d_fbar = _expert_backward(float(d_gate_logits[i]), expert_caches[t],
                                      t, params.experts[t], grads)
            d_f_all[spans[t], 3 * params.d:4 * params.d] += d_fbar / len(by_task[t])
    _pair_features_backward(d_f_all, pair_cache, params, grads)
    return MultitaskResult(total=float(total), task_losses=losses, alpha=alpha,
                           grads=grads)


def _head_backward(task, alpha_t, f, d_logits_unit, params, grads) -> np.ndarray:
    """Head gradients into ``grads``; returns the gradient w.r.t. ``f``."""
    d_logits = alpha_t * d_logits_unit
    grads[f"head.{task}.w"] += f.T @ d_logits
    grads[f"head.{task}.b"] += d_logits.sum(axis=0)
    return d_logits @ params.heads[task]["w"].T


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


def train_ranker(pairs: Sequence[LabeledPair], view: PreparedCorpus,
                 config: RankConfig = RankConfig(), *, encoder: EncoderParams):
    """Train the multi-task ranker over ``view``'s texts; returns (params,
    history).

    The shared backbone starts from the pre-trained ``encoder``.
    Every pair's draws and edit similarities are made once, deterministically
    from the seed, before the epoch loop (``TaskBuilder.build_all``); a
    batch's ``TaskInstance`` objects are built when the batch is drawn and
    dropped with it, so no more than one batch of them is alive at a time.
    history carries per-epoch means of the total and per-task losses plus
    the coefficient trajectory.
    """
    if not pairs:
        raise ValueError("no training pairs")
    tasks = resolve_tasks(config.tasks)
    params = RankerParams.init(encoder, seed=config.seed)
    alpha = None if config.moe else dict(zip(TASKS, config.alpha))

    builder = TaskBuilder(view)
    build_rng = np.random.default_rng(np.random.SeedSequence([config.seed, 5]))
    per_pair = builder.build_all(pairs, build_rng, tasks)

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
            result = multitask_loss(chunk, params, alpha)
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

    Every exercise's row of ``view`` under the ranker's own backbone is
    computed once, here, into ``embeddings`` (``encoder.embed_corpus`` rows,
    single-text results bit for bit). Candidates are rows of the view, and a
    query is prepared over it; a bank query's embedding is its row here, a
    probe's is ``PreparedQuery.embedding`` under the ranker's params.
    """

    params: RankerParams
    view: PreparedCorpus

    def __post_init__(self):
        self.embeddings = embed_corpus(self.view.stem_ids(), self.params)

    def rank(self, query: PreparedQuery, candidates: Candidates) -> Candidates:
        """Re-score candidates, rows of this ranker's view, and sort
        descending, ties broken by id. Refuses an untrained ranker,
        candidates of another index and a query prepared over another view."""
        if not self.params.trained:
            raise UntrainedModelError("ranker has not been trained")
        if candidates.index is not self.view.index:
            raise ValueError("candidates are not rows of this ranker's view")
        query.require_view(self.view)
        rows = candidates.rows
        scores = np.zeros(0)
        if len(rows):  # a markup-only probe has no tokens to embed, and no rows
            u = (self.embeddings[query.row] if query.row is not None
                 else query.embedding(self.params))
            f = pair_feature_rows(u, self.embeddings[rows], query.edit_similarities(rows))
            head = self.params.heads[TASK_STEM_STEM]
            logits = f @ head["w"] + head["b"]
            expl = np.exp(logits - logits.max(axis=1, keepdims=True))
            scores = expl[:, 1] / expl.sum(axis=1)
        order = np.lexsort((candidates.index.id_rank[rows], -scores))
        return Candidates(candidates.index, rows[order], scores[order],
                          candidates.sources[order])
