"""Pairwise multi-task ranking with a mixture-of-experts gated loss.

Every labeled exercise pair expands into five instances of three tasks
sharing one encoder backbone:

* stem-stem, one instance: do the two stems ask a similar thing (the
  ranking task itself);
* analysis-analysis, one instance: do the two solution analyses match;
* stem-analysis, three instances: does an analysis actually solve a stem.
  Two positives pair each exercise with its own analysis; the negative pairs
  the first stem with the other's analysis when the pair is dissimilar,
  otherwise with the analysis of a random exercise sharing a knowledge
  concept (a direct cross pair would often be a false negative for
  genuinely similar exercises).

Pair representation. Each side is encoded on its own with the encoder's
text function over the ranker's trainable copy of the backbone (sum the
token rows, tanh transform, L2 normalize), and a task head classifies the
directional pair rows ``[u, v, |u - v|, u * v, edit_sim]`` of
:func:`_directional_rows` (the Sentence-BERT pair head, arXiv:1908.10084).
They keep u and v apart, unlike the symmetric rows of :mod:`pairclf`'s
heads: the stem-analysis task pairs a stem with an analysis. ``edit_sim``
is the token-level edit similarity of the two texts over the same token
codes dedup uses. Training tokenizes nothing: :class:`TaskBuilder` stacks
the stem and analysis codes of the ``pairclf.PreparedCorpus`` the caller
prepared, and computes ``edit_sim`` before training, once per distinct
pair of texts (``pairclf.row_pair_similarities``). Instances stay rows of
two arrays: (task, left text, right text, label) in ``specs`` and
``edit_sim`` in ``sims``; a batch's loss reads its rows of them, and of
the padded ids of the stacked codes. At serving time a stage is built from
one view; a miss passes one ``PreparedQuery``. The view embeds under the
encoder alone; the ranker's backbone lives here. :class:`Ranker` is built
from the loaded ``pairclf.PreparedCorpus`` and keeps its own matrix, every
exercise's row embedded once under its backbone, so a probe encodes only
itself (``PreparedQuery.embedding``) and a bank query (see
``pairclf.PreparedQuery``) reads its row instead. ``Ranker.rank`` takes the
miss's ``pairclf.PreparedQuery`` alone and makes no edit-similarity kernel
call of its own: it reads back the similarities dedup computed over the
recalled list, and makes the one call of the miss only when no dedup head
ran before it. Each candidate's two logits are per-pair 1-D dots of its
feature row with the head's columns (``np.vecdot``, as
``pairclf.PairClassifier.prob_rows``), so its score has the same bits
alone, in its whole list or in any part of it; a matrix product over the
batch rounds some logits differently in the last bit, and recall filters a
profiled list before ranking it.

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
from dataclasses import dataclass, field
from typing import Iterable, Optional, Sequence

import numpy as np

from .corpus import LabeledPair
from .encoder import (EncoderParams, TrainingDivergedError, embed_corpus, embed_text_batch,
                      embed_text_batch_backward, require_finite, softmax_cross_entropy)
from .pairclf import PreparedCorpus, PreparedQuery, UntrainedModelError, row_pair_similarities
from .recall import Candidates
from .snapshots import load_arrays, save_arrays
# normalize_text stays bound, unused: perfbench's tracer wraps it where imported
from .textnorm import normalize_text  # noqa: F401

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
    # the digests of the files the loaded snapshot was trained from
    made_from: dict[str, str] = field(default_factory=dict)

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
        """Zero gradients of every array but ``emb``, whose gradient
        ``embed_text_batch_backward`` stores whole."""
        return {k: np.zeros_like(v) for k, v in self.arrays().items() if k != "emb"}

    def apply_grads(self, grads: dict[str, np.ndarray], lr: float) -> None:
        live = self.arrays()
        for k, g in grads.items():
            live[k][...] -= lr * g


def save_ranker(params: RankerParams, path, made_from: dict[str, str]) -> None:
    save_arrays(path, "ranker", {"seed": params.seed, "trained": params.trained,
                                 "made_from": made_from}, params.arrays())


def load_ranker(path) -> RankerParams:
    """Read a ranker snapshot; the params carry its ``made_from``."""
    meta, arrays = load_arrays(path, "ranker")
    heads = {t: {"w": arrays[f"head.{t}.w"], "b": arrays[f"head.{t}.b"]} for t in TASKS}
    experts = {t: {k: arrays[f"expert.{t}.{k}"]
                   for k in ("w1", "b1", "w2", "b2", "w3", "b3")} for t in TASKS}
    return RankerParams(emb=arrays["emb"], W=arrays["W"], b=arrays["b"],
                        heads=heads, experts=experts, seed=meta["seed"],
                        trained=bool(meta["trained"]), made_from=meta["made_from"])


# ---------------------------------------------------------------------------
# Task instance construction

class TaskBuilder:
    """Expands labeled pairs into task instances over a prepared corpus.

    Texts are rows: row r < n is exercise r's stem and row n + r its
    answer/analysis, n being the number of exercises in the view: the rows
    of the view's stacked code matrix (``PreparedCorpus.texts``). An
    instance's edit similarity is ``pairclf.row_pair_similarities`` of its
    two rows of it.
    """

    def __init__(self, view: PreparedCorpus):
        self.view = view
        self.codes, self.lengths = view.texts()
        self.row_of = view.index.row_of
        self.by_concept: dict[str, list[int]] = {}
        for row, ex in enumerate(view.exercises):
            for c in ex.metadata.knowledge_concepts:
                self.by_concept.setdefault(c, []).append(row)
        self._pools: dict[tuple[str, ...], tuple[list[int], dict[int, int]]] = {}

    def build_all(self, pairs: Sequence[LabeledPair],
                  rng: np.random.Generator) -> tuple[np.ndarray, np.ndarray]:
        """The five instances of every pair, in order, as ``(specs, sims)``:
        ``specs`` (pairs, 5, 4) int32 holds each instance's [task index, left
        text row, right text row, label] and ``sims`` (pairs, 5) float64 its
        edit similarity. Every draw and every edit similarity is made here,
        once."""
        n = len(self.view.exercises)
        a = np.array([self.row_of[p.a_id] for p in pairs], dtype=np.intp)
        b = np.array([self.row_of[p.b_id] for p in pairs], dtype=np.intp)
        empty = ((self.lengths[a] == 0) | (self.lengths[n + a] == 0)
                 | (self.lengths[b] == 0) | (self.lengths[n + b] == 0))
        if empty.any():
            pair = pairs[int(np.argmax(empty))]
            raise ValueError(f"pair ({pair.a_id}, {pair.b_id}): both exercises need "
                             "stem and analysis text")
        label = np.array([p.is_similar for p in pairs], dtype=bool)
        negative = b.copy()
        negative[label] = self._concept_sharing_draws(a[label], b[label], rng)
        specs = np.empty((len(pairs), 5, 4), dtype=np.int32)
        ss, aa, sa = range(len(TASKS))
        specs[:, :, 0] = (ss, aa, sa, sa, sa)
        for k, (left, right, y) in enumerate(((a, b, label), (n + a, n + b, label),
                                              (a, n + a, 1), (b, n + b, 1),
                                              (a, n + negative, 0))):
            specs[:, k, 1], specs[:, k, 2], specs[:, k, 3] = left, right, y
        return specs, row_pair_similarities(self.codes, self.lengths,
                                            specs[:, :, 1], specs[:, :, 2])

    def _concept_sharing_draws(self, anchors: np.ndarray, partners: np.ndarray,
                               rng: np.random.Generator) -> np.ndarray:
        """One row per (anchor, partner) row pair: a uniform draw from the
        rows sharing a concept with the anchor, other than it and the
        partner; from every row but those two when none does. All the draws
        are one ``rng.integers`` call over the pool sizes, which takes the
        values one scalar call per pair would, in order."""
        n = len(self.view.exercises)
        pools, skips, highs = [], [], np.empty(len(anchors), dtype=np.int64)
        for i, (anchor, partner) in enumerate(zip(anchors.tolist(), partners.tolist())):
            pool, position = self._concept_pool(
                self.view.exercises[anchor].metadata.knowledge_concepts)
            highs[i] = len(pool) - 1 - (partner in position)
            skip = sorted((position[anchor], position.get(partner, len(pool))))
            if not highs[i]:
                log.debug("no concept-sharing negative for %s; drawing uniformly",
                          self.view.index.ids[anchor])
                pool, skip, highs[i] = None, sorted((anchor, partner)), n - 2
            pools.append(pool)
            skips.append(skip)
        picks = rng.integers(0, highs).tolist() if len(highs) else []
        out = np.empty(len(anchors), dtype=np.intp)
        for i, (pick, pool, (low, high)) in enumerate(zip(picks, pools, skips)):
            # the pick-th entry of the pool (the bank when None) without the
            # anchor's and the partner's positions
            pick += pick >= low
            pick += pick >= high
            out[i] = pick if pool is None else pool[pick]
        return out

    def _concept_pool(self, concepts: tuple[str, ...]) -> tuple[list[int], dict[int, int]]:
        """The rows of the exercises with any of ``concepts``, in concept
        order then bank order, each once, and each one's position in that
        list; built once per concept set."""
        pool = self._pools.get(concepts)
        if pool is None:
            rows, position = [], {}
            for c in concepts:
                for row in self.by_concept.get(c, ()):
                    if row not in position:
                        position[row] = len(rows)
                        rows.append(row)
            pool = self._pools[concepts] = rows, position
        return pool


# ---------------------------------------------------------------------------
# Forward / backward

def _directional_rows(u: np.ndarray, v: np.ndarray, sims: np.ndarray) -> np.ndarray:
    """The rows ``[u, v, |u - v|, u * v, sim]`` (4d + 1 wide) of every pair;
    ``u`` may be one vector broadcast to every row of ``v``."""
    return np.concatenate([np.broadcast_to(u, v.shape), v, np.abs(u - v), u * v,
                           np.reshape(sims, (-1, 1))], axis=1)


def _pair_features(texts: tuple[np.ndarray, np.ndarray], specs: np.ndarray,
                   sims: np.ndarray, params: RankerParams):
    """Directional pair rows of spec rows: both sides through the encoder's
    text function."""
    ids, lengths = texts
    sides = np.concatenate([specs[:, 1], specs[:, 2]])
    embedded, cache = embed_text_batch(ids[sides], lengths[sides], params)
    u, v = embedded[:len(specs)], embedded[len(specs):]
    return _directional_rows(u, v, sims), (u, v, cache)


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


def multitask_loss(texts: tuple[np.ndarray, np.ndarray], specs: np.ndarray, sims: np.ndarray,
                   params: RankerParams,
                   alpha: Optional[dict[str, float]] = None) -> MultitaskResult:
    """Coefficient-weighted sum of per-task cross-entropies, with gradients.

    ``specs`` (instances, 4) and ``sims`` (instances,) are instance rows as
    ``TaskBuilder.build_all`` makes them; ``texts`` holds the text rows'
    padded vocabulary ids and their lengths. With ``alpha`` None the
    coefficients come from the gate (and gradients flow through it,
    including into the shared features via the batch means); otherwise
    ``alpha`` supplies constants, 0 for a task it lacks. A task with no
    instances in the batch contributes zero loss and is masked out of the
    softmax.
    """
    # rows grouped by task, in batch order within each; task t owns spans[t]
    counts = np.bincount(specs[:, 0], minlength=len(TASKS)).tolist()
    ends = np.cumsum(counts).tolist()
    spans = {t: slice(end - count, end) for t, count, end in zip(TASKS, counts, ends) if count}
    present = list(spans)
    if not present:
        raise ValueError("batch contains no task instances")
    missing = [t for t in TASKS if t not in spans]
    if missing:
        log.debug("tasks absent from batch, masked: %s", missing)

    grads = params.zero_grads()
    grouped = np.argsort(specs[:, 0], kind="stable")
    specs, sims = specs[grouped], sims[grouped]
    # one encoder pass over every task's instances
    f_all, pair_cache = _pair_features(texts, specs, sims, params)
    feats, losses, d_logits_unit = {}, {}, {}
    for t in present:
        labels = specs[spans[t], 3]
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
            d_f_all[spans[t], 3 * params.d:4 * params.d] += d_fbar / len(feats[t])
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
    from the seed, before the epoch loop (``TaskBuilder.build_all``). The
    texts are the ids of the builder's stacked stem and analysis codes, and
    the builder is dropped with its concept pools and codes. Each batch
    passes its pairs' rows of ``config.tasks``, in pair order, to
    ``multitask_loss``.
    history carries per-epoch means of the total and per-task losses plus
    the coefficient trajectory.
    """
    if not pairs:
        raise ValueError("no training pairs")
    tasks = resolve_tasks(config.tasks)
    params = RankerParams.init(encoder, seed=config.seed)
    alpha = None if config.moe else dict(zip(TASKS, config.alpha))

    build_rng = np.random.default_rng(np.random.SeedSequence([config.seed, 5]))
    builder = TaskBuilder(view)
    specs, sims = builder.build_all(pairs, build_rng)
    wanted = np.isin(specs[:, :, 0], [TASKS.index(t) for t in tasks])
    texts = view.token_ids(builder.codes), builder.lengths
    del builder

    rng = np.random.default_rng(np.random.SeedSequence([config.seed, 7]))
    history = {"total": [], "alpha": [], "tasks": []}
    for _ in range(config.epochs):
        order = rng.permutation(len(specs))
        epoch_total, epoch_alpha, epoch_tasks, n_batches = 0.0, [], [], 0
        for start in range(0, len(order), config.batch_pairs):
            batch = order[start:start + config.batch_pairs]
            keep = wanted[batch]
            if not keep.any():
                continue
            result = multitask_loss(texts, specs[batch][keep], sims[batch][keep],
                                    params, alpha)
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
    require_finite(params.arrays(), "train_ranker")
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
        self.embeddings = embed_corpus(self.view, self.params)

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
            f = _directional_rows(u, self.embeddings[rows], query.edit_similarities(rows))
            head = self.params.heads[TASK_STEM_STEM]
            # each row's two logits are 1-D dots, so a candidate gets the same
            # bits whatever else is in the batch (a matrix product does not)
            columns = np.ascontiguousarray(head["w"].T)
            logits = np.vecdot(f[:, None, :], columns) + head["b"]
            expl = np.exp(logits - logits.max(axis=1, keepdims=True))
            scores = expl[:, 1] / expl.sum(axis=1)
        order = np.lexsort((candidates.index.id_rank[rows], -scores))
        return Candidates(candidates.index, rows[order], scores[order],
                          candidates.sources[order])
