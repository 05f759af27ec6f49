"""Exercise embedding model with hand-derived gradients.

The encoder is deliberately small so every gradient can be written and
checked by hand: a token embedding table, one tanh transform applied to the
pooled (summed) token embeddings, an L2 normalization, plus a linear
projection for image feature vectors and three linear classification heads
over the metadata dictionaries.

Training runs in two supervision regimes sharing the same machinery:

* ``pretrain``: unsupervised multi-task objective over the corpus. The
  stem+options embedding is pulled toward the exercise's own answer+analysis
  embedding and its image projections (in-batch softmax contrastive loss),
  while the metadata heads classify type / difficulty / concepts.
* ``fine_tune``: supervised contrastive loss over annotated similar pairs,
  with negatives sampled uniformly from the bank excluding each anchor's
  known similars.

A note on the contrastive loss: the raw ratio of cosine sums
(pos / (pos + sum(neg))) is undefined when similarities are non-positive,
so both regimes use the softmax form exp(sim/tau) normalized over the
candidate set. Same intent (pull the positive above the negatives), total
and differentiable everywhere. Temperature defaults to 0.1.

Everything is float64, single-threaded and seeded: a fixed seed gives a
bit-identical parameter trajectory.

Pooling and its gradient run without a per-sequence loop, and their sums
keep a fixed order:

* pooling (``embed_text_batch``) gathers a batch's token rows into one block
  padded with zeros, tokens leading, and sums it: each sequence's rows are
  added in token order, its padding last, which for d >= 2 equals the
  per-sequence ``emb[ids].sum(axis=0)`` bit for bit (see ``_pool``);
* the scatter (``embed_text_batch_backward``): a training step makes one call
  over all its ``embed_text_batch`` calls (pre-training: stems, then
  analyses). ``W`` and ``b`` add each call's gradient in turn; the token rows
  take one scatter into the still-zero ``grads["emb"]``, one ``np.bincount``
  per column in sequence-then-token order, which equals one ``np.add.at``
  per call, in call order, bit for bit.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Optional, Sequence

import numpy as np

from .corpus import Corpus, CorpusError, LabeledPair
from .snapshots import atomic_write, load_arrays, save_arrays
from .textnorm import MetadataEncoding, Vocab, encode_metadata
# normalize_text stays bound, unused: perfbench's tracer wraps it where imported
from .textnorm import normalize_text  # noqa: F401

_EPS = 1e-12

_PARAM_ORDER = ("emb", "W", "b", "W_img", "b_img", "W_type", "W_diff", "W_concept")


class TrainingDivergedError(RuntimeError):
    pass


@dataclass
class EncoderParams:
    """All trainable arrays. Initialization is uniform in [-0.05, 0.05]."""

    emb: np.ndarray       # (vocab, d)
    W: np.ndarray         # (d, d) transform applied after pooling
    b: np.ndarray         # (d,)
    W_img: np.ndarray     # (d_img, d)
    b_img: np.ndarray     # (d,)
    W_type: np.ndarray    # (d, n_types)
    W_diff: np.ndarray    # (d, levels)
    W_concept: np.ndarray # (d, n_concepts)
    seed: int = 0

    @classmethod
    def init(cls, vocab_size: int, d: int, d_img: int, n_types: int,
             levels: int, n_concepts: int, seed: int = 0) -> "EncoderParams":
        rng = np.random.default_rng(seed)

        def u(*shape):
            return rng.uniform(-0.05, 0.05, size=shape)

        return cls(
            emb=u(vocab_size, d),
            W=u(d, d),
            b=np.zeros(d),
            W_img=u(d_img, d),
            b_img=np.zeros(d),
            W_type=u(d, n_types),
            W_diff=u(d, levels),
            W_concept=u(d, n_concepts),
            seed=seed,
        )

    @property
    def d(self) -> int:
        return self.W.shape[0]

    @property
    def d_img(self) -> int:
        return self.W_img.shape[0]

    def arrays(self) -> dict[str, np.ndarray]:
        return {name: getattr(self, name) for name in _PARAM_ORDER}

    def copy(self) -> "EncoderParams":
        return EncoderParams(**{k: v.copy() for k, v in self.arrays().items()},
                             seed=self.seed)

    def zero_grads(self) -> dict[str, np.ndarray]:
        return {k: np.zeros_like(v) for k, v in self.arrays().items()}

    def apply_grads(self, grads: dict[str, np.ndarray], lr: float) -> None:
        for name, g in grads.items():
            getattr(self, name)[...] -= lr * g


def save_encoder(params: EncoderParams, path) -> None:
    save_arrays(path, "encoder", {"seed": params.seed}, params.arrays())


def load_encoder(path) -> EncoderParams:
    meta, arrays = load_arrays(path, "encoder")
    return EncoderParams(**arrays, seed=meta["seed"])


# ---------------------------------------------------------------------------
# Forward / backward building blocks

def _normalize_rows(raw: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Row-normalize with an epsilon floor; exact-zero rows become basis e0."""
    # the sums np.linalg.norm(raw, axis=1) takes, bit for bit, without its
    # per-call overhead (a third of a single-sequence embed_text's pooling)
    norms = np.sqrt(np.add.reduce(raw * raw, axis=1))
    out = raw / (norms + _EPS)[:, None]
    degenerate = norms == 0.0
    if degenerate.any():
        out[degenerate] = 0.0
        out[degenerate, 0] = 1.0
    return out, norms


def _normalize_rows_backward(d_out: np.ndarray, raw: np.ndarray,
                             normed: np.ndarray, norms: np.ndarray) -> np.ndarray:
    # y = x / (|x| + eps); dy/dx = I/(|x|+eps) - x x^T / (|x| (|x|+eps)^2)
    safe = np.where(norms == 0.0, 1.0, norms)
    scale = norms + _EPS
    inner = np.einsum("bd,bd->b", d_out, raw)
    d_raw = d_out / scale[:, None] - raw * (inner / (safe * scale * scale))[:, None]
    d_raw[norms == 0.0] = 0.0
    return d_raw


def _pool(emb: np.ndarray, seqs: Sequence[Sequence[int]]):
    """Each sequence's ``emb`` rows summed; returns (pooled, ids, lengths).

    ``ids`` holds every token id, sequence by sequence. The rows are gathered
    into one (longest, n, d) block, tokens leading, and the slots after a
    shorter sequence's real tokens are zeroed in place (no copy of the
    table). Numpy starts a sum from +0.0 and sums pairwise only along the
    axis it walks innermost, here the n * d one, so it adds the block one
    token slot at a time: row i is 0.0 plus sequence i's rows in token order,
    plus 0.0 per padded slot, which changes nothing. For d >= 2 that equals
    ``emb[seqs[i]].sum(axis=0)`` bit for bit. At d = 1 that per-row sum walks
    the tokens innermost and adds them pairwise from 8 tokens on; so does
    this block for a single sequence (n * d = 1), and no other.
    """
    lengths = list(map(len, seqs))
    shortest = min(lengths, default=0)
    if shortest == 0:
        raise ValueError("cannot embed an empty token sequence")
    n, longest = len(seqs), max(lengths)
    ids = np.concatenate(seqs)
    if shortest == longest:
        block = emb.take(ids.reshape(n, longest).T, axis=0)
    else:
        real = np.arange(longest)[:, None] < np.array(lengths)
        slots = np.zeros((longest, n), dtype=np.intp)
        slots.T[real.T] = ids
        block = emb.take(slots, axis=0)
        block[~real] = 0.0
    return np.add.reduce(block, axis=0), ids, lengths


def _scatter_pooled(vocab_size: int, ids: np.ndarray, lengths: Sequence[int],
                    d_pooled: np.ndarray) -> np.ndarray:
    """The token-row gradient: ``d_pooled[i]`` added at every token of sequence i.

    Each column is one ``np.bincount``, which adds its weights in input order
    starting from 0.0, so the result equals ``np.add.at`` on a zero array bit
    for bit: per row, sequence by sequence, token by token.
    """
    rows = np.repeat(np.arange(len(lengths)), lengths)
    per_token = np.ascontiguousarray(d_pooled.T).take(rows, axis=1)
    out = np.empty((len(per_token), vocab_size))
    for column, weights in zip(out, per_token):
        column[...] = np.bincount(ids, weights=weights, minlength=vocab_size)
    return out.T


def embed_text_batch(seqs: Sequence[Sequence[int]], params: EncoderParams):
    """Embed token-id sequences: sum rows, tanh transform, L2 normalize.

    Pooling adds each sequence's embedding rows in token order, padding last
    (see ``_pool``), so for d >= 2 a row is ``emb[ids].sum(axis=0)`` bit for
    bit whatever else is in the batch.
    """
    pooled, ids, lengths = _pool(params.emb, seqs)
    pre = pooled @ params.W + params.b
    act = np.tanh(pre)
    out, norms = _normalize_rows(act)
    return out, (ids, lengths, pooled, act, norms, out)


def embed_text_batch_backward(parts: Sequence[tuple[np.ndarray, tuple]],
                              params: EncoderParams,
                              grads: dict[str, np.ndarray]) -> None:
    """Add the gradients of a training step's ``embed_text_batch`` calls.

    ``parts`` pairs d(loss)/d(output) of each call with its cache. ``W`` and
    ``b`` take each part's gradient in the order given. The token rows take
    one scatter over every part, sequence by sequence and token by token,
    into ``grads["emb"]``, which must still be zero: a step calls this once.
    That equals one ``np.add.at`` per part, in order, bit for bit.
    """
    all_ids, all_lengths, d_pooled = [], [], []
    for d_out, (ids, lengths, pooled, act, norms, out) in parts:
        d_act = _normalize_rows_backward(d_out, act, out, norms)
        d_pre = d_act * (1.0 - act * act)
        grads["W"] += pooled.T @ d_pre
        grads["b"] += d_pre.sum(axis=0)
        d_pooled.append(d_pre @ params.W.T)
        all_ids.append(ids)
        all_lengths += lengths
    grads["emb"] += _scatter_pooled(len(params.emb), np.concatenate(all_ids),
                                    all_lengths, np.concatenate(d_pooled))


def embed_text(ids: np.ndarray, params: EncoderParams) -> np.ndarray:
    """Unit-norm embedding of one sequence of vocabulary ids (int64)."""
    out, _ = embed_text_batch([ids], params)
    return out[0]


def project_image_batch(feats: np.ndarray, params: EncoderParams):
    """Project image feature vectors: linear map then L2 normalize."""
    if feats.ndim != 2 or feats.shape[1] != params.d_img:
        raise ValueError(f"image features must be (n, {params.d_img})")
    pre = feats @ params.W_img + params.b_img
    out, norms = _normalize_rows(pre)
    return out, (feats, pre, norms, out)


def project_image_batch_backward(d_out: np.ndarray, cache, params: EncoderParams,
                                 grads: dict[str, np.ndarray]) -> None:
    feats, pre, norms, out = cache
    d_pre = _normalize_rows_backward(d_out, pre, out, norms)
    grads["W_img"] += feats.T @ d_pre
    grads["b_img"] += d_pre.sum(axis=0)


# ---------------------------------------------------------------------------
# Losses (each returns the loss and analytic gradients w.r.t. its inputs)

def infonce_inbatch(anchors: np.ndarray, positives: np.ndarray, tau: float,
                    anchor_owner: Optional[np.ndarray] = None,
                    positive_owner: Optional[np.ndarray] = None):
    """Softmax contrastive loss with in-batch negatives.

    Row i's positive is column i; every other column serves as a negative.
    When owner ids are given, columns sharing the anchor's owner (other than
    the positive itself) are masked out of the softmax, which keeps multiple
    items of one exercise from acting as each other's negatives.
    """
    n = anchors.shape[0]
    if n < 2:
        raise ValueError("in-batch contrastive loss needs a batch of at least 2")
    if tau <= 0:
        raise ValueError("temperature must be positive")
    if positives.shape != anchors.shape:
        raise ValueError("anchors and positives must have identical shape")
    logits = anchors @ positives.T / tau
    if anchor_owner is not None:
        banned = anchor_owner[:, None] == positive_owner[None, :]
        np.fill_diagonal(banned, False)
        logits = np.where(banned, -np.inf, logits)
    logits -= logits.max(axis=1, keepdims=True)
    expl = np.exp(logits)
    log_probs = logits - np.log(expl.sum(axis=1, keepdims=True))
    per_anchor = -log_probs[np.arange(n), np.arange(n)]
    loss = float(per_anchor.mean())
    d_logits = np.exp(log_probs)
    d_logits[np.arange(n), np.arange(n)] -= 1.0
    d_logits /= n * tau
    d_anchors = d_logits @ positives
    d_positives = d_logits.T @ anchors
    return loss, d_anchors, d_positives, per_anchor


def infonce_sampled(anchors: np.ndarray, candidates: np.ndarray, tau: float):
    """Softmax contrastive loss with per-anchor candidate lists, positive first.

    candidates has shape (n, 1 + n_negatives, d); column 0 is the positive.
    """
    if tau <= 0:
        raise ValueError("temperature must be positive")
    n = anchors.shape[0]
    logits = np.einsum("nd,nkd->nk", anchors, candidates) / tau
    logits -= logits.max(axis=1, keepdims=True)
    log_probs = logits - np.log(np.exp(logits).sum(axis=1, keepdims=True))
    loss = float(-log_probs[:, 0].mean())
    d_logits = np.exp(log_probs)
    d_logits[:, 0] -= 1.0
    d_logits /= n * tau
    d_anchors = np.einsum("nk,nkd->nd", d_logits, candidates)
    d_candidates = d_logits[:, :, None] * anchors[:, None, :]
    return loss, d_anchors, d_candidates


def softmax_cross_entropy(logits: np.ndarray, targets: np.ndarray):
    """Mean cross-entropy between row softmax and target distributions."""
    shifted = logits - logits.max(axis=1, keepdims=True)
    log_probs = shifted - np.log(np.exp(shifted).sum(axis=1, keepdims=True))
    loss = float(-(targets * log_probs).sum(axis=1).mean())
    d_logits = (np.exp(log_probs) - targets) / logits.shape[0]
    return loss, d_logits


# metadata task -> (its head in EncoderParams, its MetadataEncoding target)
_META_TASKS = {"type": ("W_type", "type_onehot"),
               "difficulty": ("W_diff", "difficulty_onehot"),
               "concept": ("W_concept", "concept_vector")}


def metadata_task_loss(stem_embeddings: np.ndarray, targets: Sequence[MetadataEncoding],
                       params: EncoderParams):
    """Cross-entropy of the three metadata heads stacked on the stem embedding.

    Returns (parts, d_embeddings, head_grads), each keyed by task name
    ("type", "difficulty", "concept", in that order). The gradients are
    unweighted: a caller weights each task's terms and adds them up itself.
    """
    e = np.asarray(stem_embeddings, dtype=np.float64)
    parts, d_e, head_grads = {}, {}, {}
    for name, (head, target) in _META_TASKS.items():
        w = getattr(params, head)
        parts[name], d_logits = softmax_cross_entropy(
            e @ w, np.stack([getattr(t, target) for t in targets]))
        head_grads[name] = e.T @ d_logits
        d_e[name] = d_logits @ w.T
    return parts, d_e, head_grads


# ---------------------------------------------------------------------------
# Corpus-level preparation
#
# Text never becomes tokens here. ``pairclf.PreparedCorpus`` normalizes each
# exercise's texts once and hands this module their vocabulary ids, one
# array per exercise aligned with the corpus (``stem_ids``, the stem and
# options, and ``analysis_ids``, the answer and analysis).

@dataclass
class EncodedExercise:
    """Token ids and metadata targets of one exercise, ready for training."""

    stem_ids: np.ndarray
    analysis_ids: np.ndarray
    meta: MetadataEncoding
    image_feats: np.ndarray  # Exercise.image_features itself, (n_images, d_img)


def encode_corpus(corpus: Corpus, stem_ids: Sequence[np.ndarray],
                  analysis_ids: Sequence[np.ndarray]) -> list[EncodedExercise]:
    """Every exercise's training inputs; CorpusError names an exercise whose
    stem and options normalize to no tokens, which nothing can embed."""
    out = []
    for ex, stem, analysis in zip(corpus, stem_ids, analysis_ids):
        if len(stem) == 0:
            raise CorpusError(f"exercise {ex.id!r}: stem and options normalize to "
                              "no tokens, so it cannot be embedded")
        if len(analysis) == 0:
            analysis = stem  # degenerate but total: no answer/analysis text
        meta = encode_metadata(ex.metadata, corpus.exercise_types, corpus.levels,
                               corpus.concepts)
        out.append(EncodedExercise(stem, analysis, meta, ex.image_features))
    return out


# ---------------------------------------------------------------------------
# Pre-training

@dataclass
class PretrainConfig:
    d: int = 32
    epochs: int = 20
    lr: float = 0.05
    batch_size: int = 32
    tau: float = 0.1
    seed: int = 0
    w_contrastive: float = 1.0
    w_type: float = 0.5
    w_difficulty: float = 0.5
    w_concept: float = 0.5
    w_image: float = 0.5


def init_params(corpus: Corpus, vocab: Vocab, d: int, seed: int) -> EncoderParams:
    return EncoderParams.init(
        vocab_size=len(vocab), d=d, d_img=corpus.d_img,
        n_types=len(corpus.exercise_types), levels=corpus.levels,
        n_concepts=len(corpus.concepts), seed=seed)


def pretrain(corpus: Corpus, vocab: Vocab, stem_ids: Sequence[np.ndarray],
             analysis_ids: Sequence[np.ndarray], config: PretrainConfig = PretrainConfig()):
    """Multi-task pre-training over the corpus, given each exercise's stem
    and analysis ids under ``vocab``; returns (params, history).

    history maps loss names to per-epoch means. Aborts with
    TrainingDivergedError if any loss stops being finite.
    """
    if len(corpus) < 2:
        raise ValueError("pre-training needs at least 2 exercises")
    encoded = encode_corpus(corpus, stem_ids, analysis_ids)
    params = init_params(corpus, vocab, config.d, config.seed)
    rng = np.random.default_rng(np.random.SeedSequence([config.seed, 11]))
    history: dict[str, list[float]] = {k: [] for k in
                                       ("total", "contrastive", "type", "difficulty",
                                        "concept", "image")}
    for _ in range(config.epochs):
        order = rng.permutation(len(encoded))
        sums = {k: 0.0 for k in history}
        n_batches = 0
        for start in range(0, len(order), config.batch_size):
            batch = [encoded[i] for i in order[start:start + config.batch_size]]
            if len(batch) < 2:
                continue
            losses = _pretrain_step(batch, params, config)
            if not all(np.isfinite(v) for v in losses.values()):
                raise TrainingDivergedError(f"non-finite loss: {losses}")
            for k, v in losses.items():
                sums[k] += v
            n_batches += 1
        for k in history:
            history[k].append(sums[k] / max(n_batches, 1))
    return params, history


def _pretrain_step(batch: list[EncodedExercise], params: EncoderParams,
                   config: PretrainConfig) -> dict[str, float]:
    grads = params.zero_grads()
    stem_out, stem_cache = embed_text_batch([e.stem_ids for e in batch], params)
    ana_out, ana_cache = embed_text_batch([e.analysis_ids for e in batch], params)
    d_stem = np.zeros_like(stem_out)
    d_ana = np.zeros_like(ana_out)

    c_loss, da, dp, _ = infonce_inbatch(stem_out, ana_out, config.tau)
    d_stem += config.w_contrastive * da
    d_ana += config.w_contrastive * dp

    weights = {"type": config.w_type, "difficulty": config.w_difficulty,
               "concept": config.w_concept}
    parts, d_meta, head_grads = metadata_task_loss(stem_out, [e.meta for e in batch],
                                                   params)
    for name, (head, _) in _META_TASKS.items():
        grads[head] += weights[name] * head_grads[name]
        d_stem += weights[name] * d_meta[name]

    # image alignment: anchor is the owner's stem embedding, candidates are all
    # image projections in the batch, same-owner columns masked
    img_loss = 0.0
    owners, feats = [], []
    for row, e in enumerate(batch):
        for k in range(e.image_feats.shape[0]):
            owners.append(row)
            feats.append(e.image_feats[k])
    if feats and len(set(owners)) >= 2:
        owners_arr = np.asarray(owners)
        img_out, img_cache = project_image_batch(np.asarray(feats), params)
        img_loss, da_img, dp_img, _ = infonce_inbatch(
            stem_out[owners_arr], img_out, config.tau,
            anchor_owner=owners_arr, positive_owner=owners_arr)
        np.add.at(d_stem, owners_arr, config.w_image * da_img)
        project_image_batch_backward(config.w_image * dp_img, img_cache, params, grads)

    embed_text_batch_backward([(d_stem, stem_cache), (d_ana, ana_cache)], params, grads)
    params.apply_grads(grads, config.lr)

    total = (config.w_contrastive * c_loss
             + sum(weights[k] * parts[k] for k in weights)
             + config.w_image * img_loss)
    return {"total": total, "contrastive": c_loss, **parts, "image": img_loss}


# ---------------------------------------------------------------------------
# Supervised fine-tuning on labeled pairs

@dataclass
class FinetuneConfig:
    epochs: int = 4
    lr: float = 0.01
    batch_size: int = 32
    tau: float = 0.1
    n_negatives: int = 10
    seed: int = 0


def similar_sets(pairs: Iterable[LabeledPair]) -> dict[str, set[str]]:
    """Each exercise's annotated similars (for negative-sampling exclusion)."""
    sims: dict[str, set[str]] = {}
    for p in pairs:
        if p.is_similar:
            sims.setdefault(p.a_id, set()).add(p.b_id)
            sims.setdefault(p.b_id, set()).add(p.a_id)
    return sims


def fine_tune(params: EncoderParams, pairs: Sequence[LabeledPair], corpus: Corpus,
              stem_ids: Sequence[np.ndarray], config: FinetuneConfig = FinetuneConfig()):
    """Contrastive fine-tuning on similar pairs, given each exercise's stem
    ids; returns (params, history).

    history["batch"] records every batch loss (the first entry is evaluated
    before any update), history["epoch"] the per-epoch means.
    """
    positives = [(p.a_id, p.b_id) for p in pairs if p.is_similar]
    if not positives:
        raise ValueError("fine_tune needs at least one pair labeled similar")
    sims = similar_sets(pairs)
    ids = corpus.ids
    for anchor in sorted(sims):
        eligible = len(ids) - sum(1 for x in sims[anchor] | {anchor} if x in corpus)
        if eligible < config.n_negatives:
            raise ValueError(
                f"fine_tune: anchor {anchor!r} has {eligible} exercises eligible as "
                "negatives (not itself or its similars), fewer than "
                f"finetune.negatives = {config.n_negatives}")
    params = params.copy()
    seqs = dict(zip(ids, stem_ids))
    anchors_all = [(a, b) for a, b in positives] + [(b, a) for a, b in positives]
    rng = np.random.default_rng(np.random.SeedSequence([config.seed, 23]))
    history = {"batch": [], "epoch": []}
    for _ in range(config.epochs):
        order = rng.permutation(len(anchors_all))
        epoch_losses = []
        for start in range(0, len(order), config.batch_size):
            chosen = [anchors_all[i] for i in order[start:start + config.batch_size]]
            negatives = [_draw_negatives(a, sims, ids, config.n_negatives, rng)
                         for a, _ in chosen]
            loss = _finetune_step(chosen, negatives, seqs, params, config)
            if not np.isfinite(loss):
                raise TrainingDivergedError("non-finite fine-tuning loss")
            history["batch"].append(loss)
            epoch_losses.append(loss)
        history["epoch"].append(float(np.mean(epoch_losses)))
    return params, history


def _draw_negatives(anchor_id: str, sims: dict[str, set[str]], ids: list[str],
                    n: int, rng: np.random.Generator) -> list[str]:
    banned = sims.get(anchor_id, set()) | {anchor_id}
    chosen: list[str] = []
    while len(chosen) < n:
        cand = ids[int(rng.integers(0, len(ids)))]
        if cand not in banned and cand not in chosen:
            chosen.append(cand)
    return chosen


def _finetune_step(chosen, negatives, seqs, params: EncoderParams,
                   config: FinetuneConfig) -> float:
    n = len(chosen)
    k = config.n_negatives
    flat_ids = []
    for (a, b), negs in zip(chosen, negatives):
        flat_ids.extend([a, b] + negs)
    out, cache = embed_text_batch([seqs[i] for i in flat_ids], params)
    per = out.reshape(n, 2 + k, -1)
    anchors = per[:, 0]
    candidates = per[:, 1:]
    loss, d_anchors, d_candidates = infonce_sampled(anchors, candidates, config.tau)
    d_out = np.concatenate([d_anchors[:, None, :], d_candidates], axis=1)
    grads = params.zero_grads()
    embed_text_batch_backward([(d_out.reshape(n * (2 + k), -1), cache)], params, grads)
    params.apply_grads(grads, config.lr)
    return loss


# ---------------------------------------------------------------------------
# Embedding export

def export_embeddings(ex_ids: Sequence[str], matrix: np.ndarray, path) -> None:
    """One line per exercise: id then its embedding row, round-trip exact."""
    with atomic_write(path) as fh:
        for ex_id, vec in zip(ex_ids, matrix.tolist()):
            fh.write(" ".join([ex_id] + [repr(x) for x in vec]) + "\n")


def embed_corpus(seqs: Sequence[np.ndarray], params: EncoderParams) -> np.ndarray:
    """Embedding matrix of token-id sequences, one row each.

    Row i is ``embed_text`` of sequence i alone, bit for bit: the one
    encoder embedding of an exercise that every stage reads (rows of a
    batched ``embed_text_batch`` call can differ from it in the last bit).
    """
    rows = [embed_text(ids, params) for ids in seqs]
    return np.stack(rows) if rows else np.zeros((0, params.d))
