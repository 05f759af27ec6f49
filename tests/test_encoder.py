import dataclasses
import functools
import itertools
import math

import numpy as np
import pytest
from gradcheck import assert_grads_match, finite_difference
from hypothesis import example, given, settings, strategies as st

from exsim import encoder as enc
from exsim import ranking as rk
from exsim.corpus import (SIMILAR, Corpus, CorpusError, LabeledPair, SyntheticSpec,
                          generate_synthetic)
from exsim.pairclf import PreparedCorpus
from exsim.snapshots import SnapshotFormatError
from exsim.textnorm import normalize_text, split_tokens


def toy_params(vocab_size=12, d=4, d_img=3, n_types=3, levels=4, n_concepts=5, seed=0):
    return enc.EncoderParams.init(vocab_size, d, d_img, n_types, levels, n_concepts, seed)


def text_ids(text, vocab):
    """The vocabulary ids of one text, normalized from scratch."""
    return np.array([vocab.id_of(t) for t in split_tokens(normalize_text(text)[0])],
                    dtype=np.int64)


def rand_unit(rng, n, d):
    m = rng.normal(size=(n, d))
    return m / np.linalg.norm(m, axis=1, keepdims=True)


# ---------------------------------------------------------------------------
# embed / project basics

def test_embed_unit_norm_and_deterministic():
    params = toy_params()
    seq = np.array([3, 5, 5, 7])
    v1 = enc.embed_text(seq, params)
    v2 = enc.embed_text(seq, params)
    assert abs(np.linalg.norm(v1) - 1.0) < 1e-6
    assert np.array_equal(v1, v2)


def test_embed_empty_sequence_rejected():
    with pytest.raises(ValueError):
        enc.embed_text(np.zeros(0, dtype=np.int64), toy_params())


def test_embed_two_dim_toy_matches_hand_computation():
    # d=2, W=identity, zero bias: embedding is the normalized tanh of the row
    params = toy_params(vocab_size=3, d=2)
    params.W[...] = np.eye(2)
    params.b[...] = 0.0
    params.emb[2] = [0.3, -0.4]
    got = enc.embed_text(np.array([2]), params)
    expected = np.tanh([0.3, -0.4])
    expected = expected / np.linalg.norm(expected)
    np.testing.assert_allclose(got, expected, rtol=0, atol=1e-9)


def test_project_image_unit_norm_and_dim():
    params = toy_params()
    feats = np.array([[0.5, -1.0, 2.0]])
    out = enc.project_image_batch(feats, params)[0][0]
    assert out.shape == (params.d,)
    assert abs(np.linalg.norm(out) - 1.0) < 1e-6


def test_project_image_dimension_mismatch():
    with pytest.raises(ValueError):
        enc.project_image_batch(np.zeros((1, 7)), toy_params(d_img=3))


def test_project_image_zero_vector_documented_result():
    params = toy_params()
    params.b_img[...] = 0.0
    out = enc.project_image_batch(np.zeros((1, params.d_img)), params)[0][0]
    assert abs(np.linalg.norm(out) - 1.0) < 1e-6  # arbitrary but unit direction


def test_project_image_scale_invariant_with_zero_bias():
    params = toy_params()
    params.b_img[...] = 0.0
    feats = np.array([[0.5, -1.0, 2.0]])
    a = enc.project_image_batch(feats, params)[0][0]
    b = enc.project_image_batch(2.0 * feats, params)[0][0]
    np.testing.assert_allclose(a, b, atol=1e-9)


# ---------------------------------------------------------------------------
# contrastive loss values

def test_contrastive_hand_value_batch_of_two():
    # orthonormal pairs: diagonal similarity 1, off-diagonal 0, tau 1
    a = np.array([[1.0, 0.0], [0.0, 1.0]])
    loss, da, dp, _ = enc.infonce_inbatch(a, a.copy(), 1.0)
    expected = -math.log(math.e / (math.e + 1.0))
    assert loss == pytest.approx(expected, rel=1e-9)
    assert da.shape == a.shape and dp.shape == a.shape


def test_contrastive_uniform_similarities_give_log_batch():
    n = 5
    anchors = np.tile([1.0, 0.0], (n, 1))
    positives = np.tile([0.0, 1.0], (n, 1))
    loss, *_ = enc.infonce_inbatch(anchors, positives, 0.3)
    assert loss == pytest.approx(math.log(n), rel=1e-9)


def test_contrastive_input_validation():
    a = np.eye(2)
    with pytest.raises(ValueError):
        enc.infonce_inbatch(a[:1], a[:1], 1.0)
    with pytest.raises(ValueError):
        enc.infonce_inbatch(a, a, 0.0)
    with pytest.raises(ValueError):
        enc.infonce_inbatch(a, np.eye(3), 1.0)


def test_contrastive_permutation_equivariance():
    rng = np.random.default_rng(0)
    a, p = rand_unit(rng, 6, 4), rand_unit(rng, 6, 4)
    loss, _, _, per = enc.infonce_inbatch(a, p, 0.2)
    perm = rng.permutation(6)
    loss_p, _, _, per_p = enc.infonce_inbatch(a[perm], p[perm], 0.2)
    assert loss_p == pytest.approx(loss, rel=1e-12)
    np.testing.assert_allclose(per_p, per[perm], rtol=1e-12)


def test_metadata_loss_uniform_prediction_is_log_classes():
    params = toy_params(n_types=4)
    params.W_type[...] = 0.0
    params.W_diff[...] = 0.0
    params.W_concept[...] = 0.0
    e = rand_unit(np.random.default_rng(1), 3, params.d)
    from exsim.textnorm import MetadataEncoding
    targets = [MetadataEncoding(np.eye(4)[0], np.eye(4)[1], np.full(5, 0.2))]
    parts, _, _ = enc.metadata_task_loss(e[:1], targets, params)
    assert parts["type"] == pytest.approx(math.log(4), rel=1e-9)
    assert parts["difficulty"] == pytest.approx(math.log(4), rel=1e-9)
    # uniform concept target over the whole dictionary: loss equals entropy
    assert parts["concept"] == pytest.approx(math.log(5), rel=1e-9)


def test_metadata_loss_minimum_is_target_entropy():
    # drive the type softmax onto the one-hot target with a huge margin
    params = toy_params(n_types=3, d=2)
    params.W_type[...] = 0.0
    params.W_type[0, 0] = 60.0
    e = np.array([[1.0, 0.0]])
    from exsim.textnorm import MetadataEncoding
    targets = [MetadataEncoding(np.eye(3)[0], np.eye(4)[0], np.full(5, 0.2))]
    parts, _, _ = enc.metadata_task_loss(e, targets, params)
    assert parts["type"] == pytest.approx(0.0, abs=1e-9)


# ---------------------------------------------------------------------------
# gradient checks

def test_contrastive_gradients_match_finite_differences():
    rng = np.random.default_rng(7)
    a, p = rng.normal(size=(4, 5)), rng.normal(size=(4, 5))
    arrays = {"a": a, "p": p}
    loss, da, dp, _ = enc.infonce_inbatch(a, p, 0.25)
    numeric = finite_difference(lambda: enc.infonce_inbatch(a, p, 0.25)[0], arrays)
    assert_grads_match({"a": da, "p": dp}, numeric)


def test_sampled_contrastive_gradients():
    # unit-norm rows as in real use, so the softmax is far from saturation
    rng = np.random.default_rng(8)
    a = rand_unit(rng, 3, 4)
    c = rand_unit(rng, 15, 4).reshape(3, 5, 4)
    arrays = {"a": a, "c": c}
    _, da, dc = enc.infonce_sampled(a, c, 0.3)
    numeric = finite_difference(lambda: enc.infonce_sampled(a, c, 0.3)[0], arrays)
    assert_grads_match({"a": da, "c": dc}, numeric)


def test_full_pretrain_step_gradients():
    spec = SyntheticSpec(n_templates=3, per_template=4, noise_rate=0.0,
                         vocab_size=80, seed=5)
    corpus, _, _ = generate_synthetic(spec, d_img=4)
    view = PreparedCorpus.with_own_vocab(corpus)
    params = enc.init_params(corpus, view.vocab, d=5, seed=1)
    encoded = enc.encode_corpus(corpus, view.stem_ids(), view.analysis_ids())
    batch = encoded[:4]
    cfg = enc.PretrainConfig(d=5, tau=0.4)

    def loss_fn():
        stem, _ = enc.embed_text_batch([e.stem_ids for e in batch], params)
        ana, _ = enc.embed_text_batch([e.analysis_ids for e in batch], params)
        total = cfg.w_contrastive * enc.infonce_inbatch(stem, ana, cfg.tau)[0]
        parts, _, _ = enc.metadata_task_loss(stem, [e.meta for e in batch], params)
        total += (cfg.w_type * parts["type"] + cfg.w_difficulty * parts["difficulty"]
                  + cfg.w_concept * parts["concept"])
        owners, feats = [], []
        for row, e in enumerate(batch):
            for k in range(e.image_feats.shape[0]):
                owners.append(row)
                feats.append(e.image_feats[k])
        if feats and len(set(owners)) >= 2:
            ow = np.asarray(owners)
            img, _ = enc.project_image_batch(np.asarray(feats), params)
            total += cfg.w_image * enc.infonce_inbatch(
                stem[ow], img, cfg.tau, anchor_owner=ow, positive_owner=ow)[0]
        return total

    # analytic gradients via the training step itself (lr encodes g = (p0-p1)/lr)
    before = {k: v.copy() for k, v in params.arrays().items()}
    lr = 1.0
    enc._pretrain_step(batch, params, enc.PretrainConfig(d=5, tau=0.4, lr=lr))
    analytic = {k: (before[k] - params.arrays()[k]) / lr for k in before}
    for k, v in before.items():
        params.arrays()[k][...] = v
    numeric = finite_difference(loss_fn, params.arrays())
    assert_grads_match(analytic, numeric, rtol=1e-4)


# ---------------------------------------------------------------------------
# pooling and scatter kernels, bit for bit against the loops they replaced

FORWARD_CALLS = itertools.count()


def reference_embed_text_batch(seqs, params):
    """Pooling one sequence at a time, ``emb[ids].sum(axis=0)`` per row."""
    pooled = np.zeros((len(seqs), params.d))
    for i, ids in enumerate(seqs):
        pooled[i] = params.emb[np.asarray(ids, dtype=np.int64)].sum(axis=0)
    act = np.tanh(pooled @ params.W + params.b)
    out, norms = enc._normalize_rows(act)
    return out, (next(FORWARD_CALLS), seqs, pooled, act, norms, out)


def reference_embed_text_batch_backward(parts, params, grads):
    """Each call's gradients in the order the calls were made (pre-training:
    stems, then analyses), its token rows by one ``np.add.at``."""
    for d_out, (_, seqs, pooled, act, norms, out) in sorted(parts, key=lambda p: p[1][0]):
        d_pre = enc._normalize_rows_backward(d_out, act, out, norms) * (1.0 - act * act)
        grads["W"] += pooled.T @ d_pre
        grads["b"] += d_pre.sum(axis=0)
        d_pooled = d_pre @ params.W.T
        ids = np.concatenate([np.asarray(s, dtype=np.int64) for s in seqs])
        rows = np.repeat(np.arange(len(seqs)), [len(s) for s in seqs])
        np.add.at(grads["emb"], ids, d_pooled[rows])


def bits(a):
    return np.ascontiguousarray(a).tobytes()


def wide_floats(rng, shape):
    """Values over 12 decades, a tenth of them -0.0, so a change in the
    order of additions or in the sign of a zero shows in the bits."""
    x = rng.standard_normal(shape) * 10.0 ** rng.uniform(-6, 6, shape)
    x[rng.random(shape) < 0.1] = -0.0
    return x


@st.composite
def token_batches(draw, dims=(1, 2, 3, 5)):
    vocab = draw(st.integers(1, 10))
    d = draw(st.sampled_from(dims))
    seqs = draw(st.lists(st.lists(st.integers(0, vocab - 1), min_size=1, max_size=20),
                         min_size=1, max_size=6))
    return vocab, d, seqs, draw(st.integers(0, 2**32 - 1))


# a single sequence; length-1 sequences; unequal lengths with ids repeated
# within and across sequences and the last vocabulary row; a one-row
# vocabulary; d = 1 past the 8 tokens where numpy starts summing pairwise
KERNEL_EXAMPLES = [(9, 3, [[8, 0, 8, 3]], 1), (5, 2, [[4], [0], [4]], 2),
                   (6, 4, [[5, 1, 5], [2], [5, 5, 0, 1, 1, 5, 3, 2, 5, 0], [1, 5]], 3),
                   (1, 3, [[0, 0, 0], [0], [0] * 12], 4),
                   (7, 1, [[6] * 3 + [1, 2, 3] * 4, [6], [0, 6] * 9], 5),
                   (7, 1, [[6, 1, 2, 3, 4, 5, 0, 6, 6, 1]], 6)]


def with_examples(cases):
    def wrap(test):
        for case in cases:
            test = example(case)(test)
        return test
    return wrap


@settings(max_examples=200, deadline=None)
@given(token_batches())
@with_examples(KERNEL_EXAMPLES)
def test_pooling_adds_each_sequence_in_token_order(case):
    vocab, d, seqs, seed = case
    emb = wide_floats(np.random.default_rng(seed), (vocab, d))
    pooled, ids, lengths = enc._pool(emb, seqs)
    assert bits(ids) == bits(np.concatenate([np.asarray(s, dtype=np.int64) for s in seqs]))
    assert lengths == [len(s) for s in seqs]
    if d >= 2 or len(seqs) == 1:
        # the replaced loop; at d = 1 numpy sums an (L, 1) column pairwise
        assert bits(pooled) == bits(np.stack([emb[s].sum(axis=0) for s in seqs]))
    if len(seqs) * d >= 2:
        token_order = [functools.reduce(np.add, emb[s], np.zeros(d)) for s in seqs]
        assert bits(pooled) == bits(np.stack(token_order))
    if d >= 2:
        params = toy_params(vocab_size=vocab, d=d, seed=seed % 1000)
        params.emb[...] = emb
        assert bits(enc.embed_text_batch(seqs, params)[0]) == bits(
            reference_embed_text_batch(seqs, params)[0])


@settings(max_examples=200, deadline=None)
@given(token_batches())
@with_examples(KERNEL_EXAMPLES)
def test_scatter_equals_add_at_on_zeros(case):
    vocab, d, seqs, seed = case
    d_pooled = wide_floats(np.random.default_rng(seed), (len(seqs), d))
    ids = np.concatenate([np.asarray(s, dtype=np.int64) for s in seqs])
    rows = np.repeat(np.arange(len(seqs)), [len(s) for s in seqs])
    expected = np.zeros((vocab, d))
    np.add.at(expected, ids, d_pooled[rows])
    got = enc._scatter_pooled(vocab, ids, [len(s) for s in seqs], d_pooled)
    assert bits(got) == bits(expected)


@settings(max_examples=100, deadline=None)
@given(token_batches(dims=(2, 3, 5)),
       st.lists(st.lists(st.integers(0, 9), min_size=1, max_size=20), min_size=1, max_size=6))
@example(KERNEL_EXAMPLES[2], KERNEL_EXAMPLES[3][2])
def test_one_backward_over_two_calls_equals_two_add_at(first, second):
    # two embed_text_batch calls of one step (pre-training's stems, then
    # analyses): W and b in call order, token rows in one scatter
    vocab, d, seqs_a, seed = first
    seqs_b = [[i % vocab for i in s] for s in second]
    rng = np.random.default_rng(seed)
    params = toy_params(vocab_size=vocab, d=d, seed=seed % 1000)
    params.emb[...] = wide_floats(rng, (vocab, d))
    d_a = wide_floats(rng, (len(seqs_a), d))
    d_b = wide_floats(rng, (len(seqs_b), d))
    grads = params.zero_grads()
    enc.embed_text_batch_backward(
        [(d_a, enc.embed_text_batch(seqs_a, params)[1]),
         (d_b, enc.embed_text_batch(seqs_b, params)[1])], params, grads)
    expected = params.zero_grads()
    reference_embed_text_batch_backward(
        [(d_a, reference_embed_text_batch(seqs_a, params)[1]),
         (d_b, reference_embed_text_batch(seqs_b, params)[1])], params, expected)
    for name in ("emb", "W", "b"):
        assert bits(grads[name]) == bits(expected[name]), name


@pytest.fixture(scope="module")
def image_bank():
    spec = SyntheticSpec(n_templates=3, per_template=6, noise_rate=0.0,
                         vocab_size=90, seed=8)
    corpus, _, pairs = generate_synthetic(spec, d_img=4)
    assert any(ex.image_features for ex in corpus)
    return corpus, pairs, PreparedCorpus.with_own_vocab(corpus)


def use_reference_kernels(monkeypatch):
    for module in (enc, rk):
        monkeypatch.setattr(module, "embed_text_batch", reference_embed_text_batch)
        monkeypatch.setattr(module, "embed_text_batch_backward",
                            reference_embed_text_batch_backward)


def train_all_three(corpus, pairs, view):
    encoder, _ = enc.pretrain(corpus, view.vocab, view.stem_ids(), view.analysis_ids(),
                              enc.PretrainConfig(d=6, epochs=3, batch_size=8, seed=4))
    tuned, _ = enc.fine_tune(encoder, pairs, corpus, view.stem_ids(), enc.FinetuneConfig(
        epochs=2, batch_size=8, n_negatives=4, seed=4))
    ranker, _ = rk.train_ranker(pairs, view, rk.RankConfig(
        epochs=2, batch_pairs=6, seed=4), encoder=tuned)
    return encoder.arrays(), tuned.arrays(), ranker.arrays()


def test_training_trajectories_equal_the_replaced_kernels(image_bank, monkeypatch):
    got = train_all_three(*image_bank)
    use_reference_kernels(monkeypatch)
    expected = train_all_three(*image_bank)
    for stage, new, old in zip(("pretrain", "fine_tune", "train_ranker"), got, expected):
        assert new.keys() == old.keys()
        for name in new:
            assert bits(new[name]) == bits(old[name]), f"{stage}: {name}"


# ---------------------------------------------------------------------------
# training behavior

def test_pretrain_reduces_contrastive_loss(small_synth):
    corpus, _, _ = small_synth
    view = PreparedCorpus.with_own_vocab(corpus)
    _, history = enc.pretrain(corpus, view.vocab, view.stem_ids(), view.analysis_ids(),
                              enc.PretrainConfig(d=16, epochs=8, seed=3))
    assert history["contrastive"][-1] < history["contrastive"][0]
    assert all(np.isfinite(v) for v in history["total"])


def test_pretrain_deterministic(small_synth):
    corpus, _, _ = small_synth
    view = PreparedCorpus.with_own_vocab(corpus)
    cfg = enc.PretrainConfig(d=8, epochs=3, seed=4)
    p1, h1 = enc.pretrain(corpus, view.vocab, view.stem_ids(), view.analysis_ids(), cfg)
    p2, h2 = enc.pretrain(corpus, view.vocab, view.stem_ids(), view.analysis_ids(), cfg)
    assert h1 == h2
    for k in p1.arrays():
        assert np.array_equal(p1.arrays()[k], p2.arrays()[k])


def test_pretrain_zero_epochs_is_initialization(small_synth):
    corpus, _, _ = small_synth
    view = PreparedCorpus.with_own_vocab(corpus)
    cfg = enc.PretrainConfig(d=8, epochs=0, seed=4)
    params, history = enc.pretrain(corpus, view.vocab, view.stem_ids(), view.analysis_ids(),
                                   cfg)
    init = enc.init_params(corpus, view.vocab, d=8, seed=4)
    for k in params.arrays():
        assert np.array_equal(params.arrays()[k], init.arrays()[k])
    assert history["total"] == []


def test_an_exercise_without_tokens_is_refused_by_name(small_synth):
    corpus, _, _ = small_synth
    exercises = list(corpus)[:4]
    exercises[2] = dataclasses.replace(exercises[2], stem="<p></p>", options=())
    markup = Corpus(exercises, levels=corpus.levels, d_img=corpus.d_img)
    view = PreparedCorpus.with_own_vocab(markup)
    with pytest.raises(CorpusError, match=rf"'{exercises[2].id}'.*no tokens"):
        enc.encode_corpus(markup, view.stem_ids(), view.analysis_ids())
    with pytest.raises(CorpusError, match=rf"'{exercises[2].id}'"):
        enc.pretrain(markup, view.vocab, view.stem_ids(), view.analysis_ids(),
                     enc.PretrainConfig(d=4, epochs=1))


def test_finetune_requires_positive_pairs(small_synth):
    corpus, _, pairs = small_synth
    view = PreparedCorpus.with_own_vocab(corpus)
    params = enc.init_params(corpus, view.vocab, d=8, seed=0)
    negatives_only = [p for p in pairs if not p.is_similar]
    with pytest.raises(ValueError):
        enc.fine_tune(params, negatives_only, corpus, view.stem_ids())


def test_finetune_refuses_an_anchor_with_too_few_negatives(small_synth):
    """Anchor a has 1 exercise that is neither itself nor one of its 3
    similars, so 2 distinct negatives cannot be drawn for it."""
    corpus, _, _ = small_synth
    few = Corpus(list(corpus)[:5], levels=corpus.levels, d_img=corpus.d_img)
    a, b, c, d, _ = few.ids
    pairs = [LabeledPair(a, other, SIMILAR) for other in (b, c, d)]
    view = PreparedCorpus.with_own_vocab(few)
    params = enc.init_params(few, view.vocab, d=8, seed=0)
    cfg = enc.FinetuneConfig(epochs=1, n_negatives=2)
    with pytest.raises(ValueError, match=rf"anchor '{a}' has 1 .*finetune.negatives = 2"):
        enc.fine_tune(params, pairs, few, view.stem_ids(), cfg)
    _, history = enc.fine_tune(params, pairs, few, view.stem_ids(),
                               dataclasses.replace(cfg, n_negatives=1))
    assert len(history["batch"]) == 1


def test_finetune_zero_epochs_identity(small_synth):
    corpus, _, pairs = small_synth
    view = PreparedCorpus.with_own_vocab(corpus)
    params = enc.init_params(corpus, view.vocab, d=8, seed=0)
    tuned, history = enc.fine_tune(params, pairs, corpus, view.stem_ids(),
                                   enc.FinetuneConfig(epochs=0))
    for k in params.arrays():
        assert np.array_equal(params.arrays()[k], tuned.arrays()[k])
    assert history["batch"] == []


def test_finetune_first_batch_loss_matches_direct_evaluation(small_synth):
    corpus, _, pairs = small_synth
    view = PreparedCorpus.with_own_vocab(corpus)
    params = enc.init_params(corpus, view.vocab, d=8, seed=0)
    cfg = enc.FinetuneConfig(epochs=1, batch_size=4, n_negatives=3, seed=9)
    _, history = enc.fine_tune(params, pairs, corpus, view.stem_ids(), cfg)

    # rebuild the first batch exactly as the trainer does, ids from the text
    positives = [(p.a_id, p.b_id) for p in pairs if p.is_similar]
    anchors_all = positives + [(b, a) for a, b in positives]
    sims = enc.similar_sets(pairs)
    rng = np.random.default_rng(np.random.SeedSequence([cfg.seed, 23]))
    order = rng.permutation(len(anchors_all))
    chosen = [anchors_all[i] for i in order[:cfg.batch_size]]
    negatives = [enc._draw_negatives(a, sims, corpus.ids, cfg.n_negatives, rng)
                 for a, _ in chosen]
    seqs = {ex.id: text_ids(ex.text, view.vocab) for ex in corpus}
    flat = []
    for (a, b), negs in zip(chosen, negatives):
        flat.extend([a, b] + negs)
    out, _ = enc.embed_text_batch([seqs[i] for i in flat], params)
    per = out.reshape(len(chosen), 2 + cfg.n_negatives, -1)
    expected, _, _ = enc.infonce_sampled(per[:, 0], per[:, 1:], cfg.tau)
    assert history["batch"][0] == pytest.approx(expected, rel=1e-12)


def test_finetune_pulls_similars_together(small_trained):
    corpus, truth, pairs, vocab, params = small_trained
    matrix, ids = PreparedCorpus(corpus, vocab, params).embeddings, corpus.ids
    row = {ex_id: i for i, ex_id in enumerate(ids)}
    rng = np.random.default_rng(0)
    sim_cos, rand_cos = [], []
    for p in pairs:
        if p.is_similar:
            sim_cos.append(float(matrix[row[p.a_id]] @ matrix[row[p.b_id]]))
            a = ids[int(rng.integers(0, len(ids)))]
            b = ids[int(rng.integers(0, len(ids)))]
            if a != b and b not in truth.mates(a):
                rand_cos.append(float(matrix[row[a]] @ matrix[row[b]]))
    assert np.mean(sim_cos) > np.mean(rand_cos)


def test_image_alignment_follows_templates(small_trained):
    corpus, truth, _, vocab, params = small_trained
    matrix, ids = PreparedCorpus(corpus, vocab, params).embeddings, corpus.ids
    row = {ex_id: i for i, ex_id in enumerate(ids)}
    group_of = {ex_id: g for g, members in truth.groups.items() for ex_id in members}
    own, cross = [], []
    exercises = list(corpus)
    for ex in exercises:
        if not ex.image_features:
            continue
        h = enc.project_image_batch(np.asarray(ex.image_features[:1]), params)[0][0]
        own.append(float(matrix[row[ex.id]] @ h))
        other = exercises[(exercises.index(ex) + len(exercises) // 2) % len(exercises)]
        if group_of[other.id] != group_of[ex.id]:
            cross.append(float(matrix[row[other.id]] @ h))
    assert np.mean(own) > np.mean(cross)


# ---------------------------------------------------------------------------
# persistence

def test_params_snapshot_round_trip(tmp_path):
    params = toy_params(seed=5)
    path = tmp_path / "enc.params"
    enc.save_encoder(params, path)
    loaded = enc.load_encoder(path)
    assert loaded.seed == 5
    for k in params.arrays():
        assert np.array_equal(params.arrays()[k], loaded.arrays()[k])


def test_params_snapshot_wrong_kind(tmp_path):
    from exsim.snapshots import save_arrays
    path = tmp_path / "other.params"
    save_arrays(path, "ranker", {}, {"w": np.zeros(3)})
    with pytest.raises(SnapshotFormatError, match="kind"):
        enc.load_encoder(path)


def test_failed_snapshot_write_leaves_the_old_file(tmp_path):
    from exsim.snapshots import save_arrays
    path = tmp_path / "enc.params"
    enc.save_encoder(toy_params(seed=5), path)
    before = path.read_bytes()
    # the first array is written, then the second cannot be made float64
    with pytest.raises(ValueError):
        save_arrays(path, "encoder", {}, {"a": np.zeros(3), "b": np.array(["x"])})
    assert path.read_bytes() == before
    assert [p.name for p in tmp_path.iterdir()] == ["enc.params"]


def test_export_embeddings_format_and_exactness(tmp_path, small_trained):
    corpus, _, _, vocab, params = small_trained
    path = tmp_path / "emb.txt"
    matrix = enc.embed_corpus(PreparedCorpus(corpus, vocab).stem_ids(), params)
    enc.export_embeddings(corpus.ids, matrix, path)
    lines = path.read_text().splitlines()
    assert len(lines) == len(corpus)
    first = lines[0].split()
    assert len(first) == 1 + params.d
    ex = corpus[first[0]]
    vec = enc.embed_text(text_ids(ex.text, vocab), params)
    parsed = np.array([float(x) for x in first[1:]])
    assert np.array_equal(parsed, vec)  # bit-for-bit via repr round-trip
    exported = [[float(x) for x in line.split()[1:]] for line in lines]
    assert [line.split()[0] for line in lines] == corpus.ids
    assert matrix.tolist() == exported
    enc.export_embeddings(corpus.ids, matrix, tmp_path / "emb2.txt")
    assert (tmp_path / "emb2.txt").read_text() == path.read_text()
