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

Token ids come in one format: rows of a padded id matrix
(``pairclf.PreparedCorpus.token_ids``) with each row's length, a padded
slot holding the vocabulary size, one past the last row of ``emb``.
Pooling and its gradient run without a per-sequence loop, and their sums
keep a fixed order:

* pooling (``embed_text_batch``) cuts a batch's rows to its longest and
  gathers them, tokens leading, from ``emb`` with a zero row appended at
  the pad id, and sums the block: each row's tokens are added in token
  order, its padding last, which for d >= 2 equals the per-sequence
  ``emb[ids].sum(axis=0)`` bit for bit (see ``_pool``);
* the scatter (``embed_text_batch_backward``): a training step makes one call
  over all its ``embed_text_batch`` calls (pre-training: stems, then
  analyses). ``W`` and ``b`` add each call's gradient in turn; the token rows
  take one scatter, stored as ``grads["emb"]`` (``zero_grads`` leaves that
  key out, so no (vocab, d) block of zeros is made per step): one
  ``np.bincount`` per column in sequence-then-token order, which equals one
  ``np.add.at`` per call, in call order, into zeros, bit for bit.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Optional, Sequence

import numpy as np

from .corpus import Corpus, CorpusError, LabeledPair
from .evaluate import annotated_similars
from .snapshots import load_arrays, save_arrays
from .textnorm import Vocab
# normalize_text stays bound, unused: perfbench's tracer wraps it where imported
from .textnorm import normalize_text  # noqa: F401

if TYPE_CHECKING:  # pairclf imports this module for its embeddings
    from .pairclf import PreparedCorpus

_EPS = 1e-12

_PARAM_ORDER = ("emb", "W", "b", "W_img", "b_img", "W_type", "W_diff", "W_concept")


class TrainingDivergedError(RuntimeError):
    pass


def require_finite(arrays: dict[str, np.ndarray], what: str) -> None:
    """TrainingDivergedError naming the ``arrays`` holding a non-finite value:
    a trainer's loss check runs before each update, this after the last."""
    bad = [name for name, value in arrays.items() if not np.isfinite(value).all()]
    if bad:
        raise TrainingDivergedError(f"{what}: non-finite parameters {bad} after training")


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
    # the digests of the files the loaded snapshot was trained from
    made_from: dict[str, str] = field(default_factory=dict)

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
        """Zero gradients of every array but ``emb``, whose gradient
        ``embed_text_batch_backward`` stores whole."""
        return {k: np.zeros_like(v) for k, v in self.arrays().items() if k != "emb"}

    def apply_grads(self, grads: dict[str, np.ndarray], lr: float) -> None:
        for name, g in grads.items():
            getattr(self, name)[...] -= lr * g


def save_encoder(params: EncoderParams, vocab: Vocab, path, made_from: dict[str, str]) -> None:
    """One snapshot of the params and the vocabulary their ``emb`` rows are
    ids of: its tokens in id order and its stop words, in the metadata, with
    ``made_from``, the digests of the files the params were trained from."""
    save_arrays(path, "encoder", {"seed": params.seed, "tokens": vocab.tokens,
                                  "stop_words": list(vocab.stop_words),
                                  "made_from": made_from}, params.arrays())


def load_encoder(path) -> tuple[EncoderParams, Vocab]:
    """The params, carrying the snapshot's ``made_from``, and their
    vocabulary, as ``save_encoder`` wrote them."""
    meta, arrays = load_arrays(path, "encoder")
    return (EncoderParams(**arrays, seed=meta["seed"], made_from=meta["made_from"]),
            Vocab(meta["tokens"], meta["stop_words"]))


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


def _pool(emb: np.ndarray, ids: np.ndarray, lengths: np.ndarray):
    """Each row's first ``lengths`` ids' ``emb`` rows summed; returns
    (pooled, ids cut to the longest row).

    ``ids`` is a batch's rows of a padded id matrix (see the module
    docstring). The cut matrix gathers one (longest, n, d) block, tokens
    leading, from the table plus a zero row at the pad id when the batch
    holds padding. Numpy starts a sum from +0.0 and sums pairwise only
    along the axis it walks innermost, here the n * d one, so it adds the
    block one token slot at a time: row i is 0.0 plus its rows in token
    order, plus 0.0 per padded slot, which changes nothing. For d >= 2 that
    equals ``emb[ids[i, :lengths[i]]].sum(axis=0)`` bit for bit. At d = 1
    that per-row sum walks the tokens innermost and adds them pairwise from
    8 tokens on; so does this block for a single row (n * d = 1), and no
    other.
    """
    shortest, longest = int(lengths.min()), int(lengths.max())
    if shortest == 0:
        raise ValueError("cannot embed an empty token sequence")
    ids = ids[:, :longest]
    table = emb if shortest == longest else np.vstack([emb, np.zeros((1, emb.shape[1]))])
    return np.add.reduce(table.take(ids.T, axis=0), axis=0), ids


def _scatter_pooled(vocab_size: int, ids: np.ndarray, lengths: np.ndarray,
                    d_pooled: np.ndarray) -> np.ndarray:
    """The token-row gradient: ``d_pooled[i]`` added at every token of row i.

    ``ids`` holds every token id, row by row, with no padding. Each column
    is one ``np.bincount``, which adds its weights in input order starting
    from 0.0, so the result equals ``np.add.at`` on a zero array bit for
    bit: per row, sequence by sequence, token by token.
    """
    per_token = np.repeat(d_pooled.T, lengths, axis=1)
    out = np.empty((len(per_token), vocab_size))
    for column, weights in zip(out, per_token):
        column[...] = np.bincount(ids, weights=weights, minlength=vocab_size)
    return out.T


def embed_text_batch(ids: np.ndarray, lengths: np.ndarray, params: EncoderParams):
    """Embed rows of a padded id matrix, each ``lengths`` ids long: sum
    rows, tanh transform, L2 normalize.

    Pooling adds each row's embedding rows in token order, padding last
    (see ``_pool``), so for d >= 2 a row is ``emb[ids].sum(axis=0)`` bit for
    bit whatever else is in the batch.
    """
    pooled, ids = _pool(params.emb, ids, lengths)
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
    one scatter over every part, row by row and token by token, stored as
    ``grads["emb"]`` (any value there is replaced): a step calls this once.
    That equals one ``np.add.at`` per part, in order, into zeros, bit for
    bit: a ``np.bincount`` bin starts at +0.0 and never becomes -0.0, so
    adding it to zeros would not change it.
    """
    vocab_size = len(params.emb)
    all_ids, all_lengths, d_pooled = [], [], []
    for d_out, (ids, lengths, pooled, act, norms, out) in parts:
        d_act = _normalize_rows_backward(d_out, act, out, norms)
        d_pre = d_act * (1.0 - act * act)
        grads["W"] += pooled.T @ d_pre
        grads["b"] += d_pre.sum(axis=0)
        d_pooled.append(d_pre @ params.W.T)
        all_ids.append(ids[ids < vocab_size])
        all_lengths.append(lengths)
    grads["emb"] = _scatter_pooled(vocab_size, np.concatenate(all_ids),
                                   np.concatenate(all_lengths), np.concatenate(d_pooled))


def embed_text(ids: np.ndarray, params: EncoderParams) -> np.ndarray:
    """Unit-norm embedding of one sequence of vocabulary ids (int64)."""
    out, _ = embed_text_batch(ids[None, :], np.array([len(ids)]), params)
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


# metadata task -> its head in EncoderParams
_META_HEADS = {"type": "W_type", "difficulty": "W_diff", "concept": "W_concept"}


def metadata_task_loss(stem_embeddings: np.ndarray, targets: dict[str, np.ndarray],
                       params: EncoderParams):
    """Cross-entropy of the three metadata heads stacked on the stem embedding,
    against ``targets``' rows (see ``metadata_targets``).

    Returns (parts, d_embeddings, head_grads), each keyed by task name
    ("type", "difficulty", "concept", in that order). The gradients are
    unweighted: a caller weights each task's terms and adds them up itself.
    """
    e = np.asarray(stem_embeddings, dtype=np.float64)
    parts, d_e, head_grads = {}, {}, {}
    for name, head in _META_HEADS.items():
        w = getattr(params, head)
        parts[name], d_logits = softmax_cross_entropy(e @ w, targets[name])
        head_grads[name] = e.T @ d_logits
        d_e[name] = d_logits @ w.T
    return parts, d_e, head_grads


# ---------------------------------------------------------------------------
# Corpus-level preparation
#
# Text never becomes tokens here. Training reads a ``pairclf.PreparedCorpus``,
# the rows of one corpus (``view.corpus``), which normalized each exercise's
# texts once: the ids of its stem codes (stem and options) and of
# its ``texts``, every stem then every answer and analysis, row for row with
# the corpus. The metadata targets are one array per task over the same
# rows, and a batch reads its rows of each.

def metadata_targets(corpus: Corpus) -> dict[str, np.ndarray]:
    """Each exercise's target distribution per metadata task, one row each:
    one-hot type and difficulty, and 1/n at each of an exercise's n
    knowledge concepts, so every row sums to one."""
    types = {t: i for i, t in enumerate(corpus.exercise_types)}
    concepts = {c: i for i, c in enumerate(corpus.concepts)}
    concept = np.zeros((len(corpus), len(concepts)))
    for row, ex in enumerate(corpus):
        held = ex.metadata.knowledge_concepts
        concept[row, [concepts[c] for c in held]] = 1.0 / len(held)
    return {"type": np.eye(len(types))[[types[ex.metadata.exercise_type] for ex in corpus]],
            "difficulty": np.eye(corpus.levels)[corpus.difficulties - 1],
            "concept": concept}


# ---------------------------------------------------------------------------
# Pre-training

@dataclass
class PretrainConfig:
    d: int = 32
    epochs: int = 12
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


def pretrain(view: PreparedCorpus, config: PretrainConfig = PretrainConfig()):
    """Multi-task pre-training over the corpus ``view`` is the rows of
    (whose vocabulary the params are sized by); returns (params, history).

    history maps loss names to per-epoch means. Aborts with
    TrainingDivergedError if any loss, or any param after the last update,
    stops being finite.
    """
    corpus = view.corpus
    if len(corpus) < 2:
        raise ValueError("pre-training needs at least 2 exercises")
    codes, lengths = view.texts()
    n = len(corpus)
    for ex, length in zip(corpus, lengths[:n].tolist()):
        if length == 0:
            raise CorpusError(f"exercise {ex.id!r}: stem and options normalize to "
                              "no tokens, so it cannot be embedded")
    texts = view.token_ids(codes)
    # each exercise's analysis row; degenerate but total: an exercise without
    # answer/analysis text reads its stem
    analyses = np.where(lengths[n:] > 0, np.arange(n, 2 * n), np.arange(n))
    targets = metadata_targets(corpus)
    params = init_params(corpus, view.vocab, config.d, config.seed)
    rng = np.random.default_rng(np.random.SeedSequence([config.seed, 11]))
    history: dict[str, list[float]] = {k: [] for k in
                                       ("total", "contrastive", "type", "difficulty",
                                        "concept", "image")}
    for _ in range(config.epochs):
        order = rng.permutation(len(corpus))
        sums = {k: 0.0 for k in history}
        n_batches = 0
        for start in range(0, len(order), config.batch_size):
            rows = order[start:start + config.batch_size]
            if len(rows) < 2:
                continue
            losses = _pretrain_step(
                (texts[rows], lengths[rows]),
                (texts[analyses[rows]], lengths[analyses[rows]]),
                {name: t[rows] for name, t in targets.items()},
                [view.exercises[r].image_features for r in rows], params, config)
            if not all(np.isfinite(v) for v in losses.values()):
                raise TrainingDivergedError(f"non-finite loss: {losses}")
            for k, v in losses.items():
                sums[k] += v
            n_batches += 1
        for k in history:
            history[k].append(sums[k] / max(n_batches, 1))
    require_finite(params.arrays(), "pretrain")
    return params, history


def _pretrain_step(stems: tuple[np.ndarray, np.ndarray], analyses: tuple[np.ndarray, np.ndarray],
                   targets: dict[str, np.ndarray], images: Sequence[np.ndarray],
                   params: EncoderParams, config: PretrainConfig) -> dict[str, float]:
    """One update on a batch: each exercise's stem and analysis as rows of
    padded ids with their lengths, its rows of the metadata targets and its
    (images, d_img) image features."""
    grads = params.zero_grads()
    stem_out, stem_cache = embed_text_batch(*stems, params)
    ana_out, ana_cache = embed_text_batch(*analyses, params)
    d_stem = np.zeros_like(stem_out)
    d_ana = np.zeros_like(ana_out)

    c_loss, da, dp, _ = infonce_inbatch(stem_out, ana_out, config.tau)
    d_stem += config.w_contrastive * da
    d_ana += config.w_contrastive * dp

    weights = {"type": config.w_type, "difficulty": config.w_difficulty,
               "concept": config.w_concept}
    parts, d_meta, head_grads = metadata_task_loss(stem_out, targets, params)
    for name, head in _META_HEADS.items():
        grads[head] += weights[name] * head_grads[name]
        d_stem += weights[name] * d_meta[name]

    # image alignment: anchor is the owner's stem embedding, candidates are all
    # image projections in the batch, same-owner columns masked
    img_loss = 0.0
    counts = [len(f) for f in images]
    if np.count_nonzero(counts) >= 2:
        owners = np.repeat(np.arange(len(images)), counts)
        img_out, img_cache = project_image_batch(
            np.concatenate([f for f in images if len(f)]), params)
        img_loss, da_img, dp_img, _ = infonce_inbatch(
            stem_out[owners], img_out, config.tau,
            anchor_owner=owners, positive_owner=owners)
        np.add.at(d_stem, owners, config.w_image * da_img)
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


def fine_tune(params: EncoderParams, pairs: Sequence[LabeledPair], view: PreparedCorpus,
              config: FinetuneConfig = FinetuneConfig()):
    """Contrastive fine-tuning on similar pairs over the stem ids of
    ``view``, which holds the params' vocabulary; returns (params, history).

    Anchors, positives and negatives are rows of the view. history["batch"]
    records every batch loss (the first entry is evaluated before any
    update), history["epoch"] the per-epoch means.
    """
    if len(view.vocab) != len(params.emb):
        raise ValueError(f"fine_tune: the view's vocabulary has {len(view.vocab)} ids, "
                         f"the encoder's {len(params.emb)}")
    row_of = view.index.row_of
    similar = {row_of[a]: {row_of[b] for b in bs}
               for a, bs in annotated_similars(pairs).items()}
    if not similar:
        raise ValueError("fine_tune needs at least one pair labeled similar")
    n = len(view.exercises)
    for anchor, others in sorted(similar.items()):
        if n - 1 - len(others) < config.n_negatives:
            raise ValueError(
                f"fine_tune: anchor {view.index.ids[anchor]!r} has {n - 1 - len(others)} "
                "exercises eligible as negatives (not itself or its similars), fewer "
                f"than finetune.negatives = {config.n_negatives}")
    positives = np.array([(row_of[p.a_id], row_of[p.b_id]) for p in pairs if p.is_similar])
    # each pair in both directions: (anchor, positive) rows
    anchors_all = np.concatenate([positives, positives[:, ::-1]])
    stems = view.token_ids(view.codes)
    params = params.copy()
    rng = np.random.default_rng(np.random.SeedSequence([config.seed, 23]))
    history = {"batch": [], "epoch": []}
    for _ in range(config.epochs):
        order = rng.permutation(len(anchors_all))
        epoch_losses = []
        for start in range(0, len(order), config.batch_size):
            chosen = anchors_all[order[start:start + config.batch_size]]
            negatives = _draw_negatives(chosen[:, 0].tolist(), similar, n,
                                        config.n_negatives, rng)
            rows = np.concatenate([chosen, negatives], axis=1)
            loss = _finetune_step(rows, stems, view.lengths, params, config)
            if not np.isfinite(loss):
                raise TrainingDivergedError("non-finite fine-tuning loss")
            history["batch"].append(loss)
            epoch_losses.append(loss)
        history["epoch"].append(float(np.mean(epoch_losses)))
    require_finite(params.arrays(), "fine_tune")
    return params, history


def _draw_negatives(anchors: Sequence[int], similar: dict[int, set[int]], n_rows: int,
                    n: int, rng: np.random.Generator) -> np.ndarray:
    """(anchors, n) negative rows: for each anchor in turn, uniform draws
    from ``n_rows`` rows, each kept unless it is the anchor, one of its
    ``similar`` rows or one already kept for it, until it has ``n``. The
    draws come in blocks of exactly the count still missing, which a row
    refused makes short: one ``rng.integers`` call per block takes the
    values one scalar call per draw would, and none past the last one kept.
    With ``n`` below 1 no value is drawn."""
    out = np.empty((len(anchors), max(n, 0)), dtype=np.int64)
    if n < 1:
        return out
    done, kept = 0, []
    while done < len(anchors):
        missing = (len(anchors) - done) * n - len(kept)
        for cand in rng.integers(0, n_rows, size=missing).tolist():
            anchor = anchors[done]
            if cand != anchor and cand not in similar[anchor] and cand not in kept:
                kept.append(cand)
                if len(kept) == n:
                    out[done], done, kept = kept, done + 1, []
    return out


def _finetune_step(rows: np.ndarray, stems: np.ndarray, lengths: np.ndarray,
                   params: EncoderParams, config: FinetuneConfig) -> float:
    # each row of ``rows``: an anchor, its positive, then its negatives
    n, k = len(rows), config.n_negatives
    flat = rows.ravel()
    out, cache = embed_text_batch(stems[flat], lengths[flat], params)
    per = out.reshape(n, 2 + k, -1)
    loss, d_anchors, d_candidates = infonce_sampled(per[:, 0], per[:, 1:], config.tau)
    d_out = np.concatenate([d_anchors[:, None, :], d_candidates], axis=1)
    grads = params.zero_grads()
    embed_text_batch_backward([(d_out.reshape(n * (2 + k), -1), cache)], params, grads)
    params.apply_grads(grads, config.lr)
    return loss


# ---------------------------------------------------------------------------
# Corpus embedding

def embed_corpus(view: PreparedCorpus, params: EncoderParams) -> np.ndarray:
    """Embedding matrix of ``view``'s stems, one row each.

    Row i is ``embed_text`` of row i's ids alone, bit for bit: the one
    encoder embedding of an exercise that every stage reads (rows of a
    batched ``embed_text_batch`` call can differ from it in the last bit).
    """
    ids = view.token_ids(view.codes)
    rows = [embed_text(row[:n], params) for row, n in zip(ids, view.lengths.tolist())]
    return np.stack(rows) if rows else np.zeros((0, params.d))
