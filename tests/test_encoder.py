import math

import numpy as np
import pytest
from gradcheck import assert_grads_match, finite_difference

from exsim import encoder as enc
from exsim.corpus import SyntheticSpec, generate_synthetic
from exsim.snapshots import SnapshotFormatError
from exsim.textnorm import TokenSequence, Vocab


def toy_params(vocab_size=12, d=4, d_img=3, n_types=3, levels=4, n_concepts=5, seed=0):
    return enc.EncoderParams.init(vocab_size, d, d_img, n_types, levels, n_concepts, seed)


def rand_unit(rng, n, d):
    m = rng.normal(size=(n, d))
    return m / np.linalg.norm(m, axis=1, keepdims=True)


# ---------------------------------------------------------------------------
# embed / project basics

def test_embed_unit_norm_and_deterministic():
    params = toy_params()
    seq = TokenSequence((3, 5, 5, 7))
    v1 = enc.embed_text(seq, params)
    v2 = enc.embed_text(seq, params)
    assert abs(np.linalg.norm(v1) - 1.0) < 1e-6
    assert np.array_equal(v1, v2)


def test_embed_empty_sequence_rejected():
    with pytest.raises(ValueError):
        enc.embed_text(TokenSequence(()), toy_params())


def test_embed_two_dim_toy_matches_hand_computation():
    # d=2, W=identity, zero bias: embedding is the normalized tanh of the row
    params = toy_params(vocab_size=3, d=2)
    params.W[...] = np.eye(2)
    params.b[...] = 0.0
    params.emb[2] = [0.3, -0.4]
    got = enc.embed_text(TokenSequence((2,)), params)
    expected = np.tanh([0.3, -0.4])
    expected = expected / np.linalg.norm(expected)
    np.testing.assert_allclose(got, expected, rtol=0, atol=1e-9)


def test_project_image_unit_norm_and_dim():
    params = toy_params()
    feat = np.array([0.5, -1.0, 2.0])
    out = enc.project_image(feat, params)
    assert out.shape == (params.d,)
    assert abs(np.linalg.norm(out) - 1.0) < 1e-6


def test_project_image_dimension_mismatch():
    with pytest.raises(ValueError):
        enc.project_image(np.zeros(7), toy_params(d_img=3))


def test_project_image_zero_vector_documented_result():
    params = toy_params()
    params.b_img[...] = 0.0
    out = enc.project_image(np.zeros(params.d_img), params)
    assert abs(np.linalg.norm(out) - 1.0) < 1e-6  # arbitrary but unit direction


def test_project_image_scale_invariant_with_zero_bias():
    params = toy_params()
    params.b_img[...] = 0.0
    feat = np.array([0.5, -1.0, 2.0])
    a = enc.project_image(feat, params)
    b = enc.project_image(2.0 * feat, params)
    np.testing.assert_allclose(a, b, atol=1e-9)


# ---------------------------------------------------------------------------
# contrastive loss values

def test_contrastive_hand_value_batch_of_two():
    # orthonormal pairs: diagonal similarity 1, off-diagonal 0, tau 1
    a = np.array([[1.0, 0.0], [0.0, 1.0]])
    loss, da, dp = enc.contrastive_loss(a, a.copy(), temperature=1.0)
    expected = -math.log(math.e / (math.e + 1.0))
    assert loss == pytest.approx(expected, rel=1e-9)
    assert da.shape == a.shape and dp.shape == a.shape


def test_contrastive_uniform_similarities_give_log_batch():
    n = 5
    anchors = np.tile([1.0, 0.0], (n, 1))
    positives = np.tile([0.0, 1.0], (n, 1))
    loss, _, _ = enc.contrastive_loss(anchors, positives, temperature=0.3)
    assert loss == pytest.approx(math.log(n), rel=1e-9)


def test_contrastive_input_validation():
    a = np.eye(2)
    with pytest.raises(ValueError):
        enc.contrastive_loss(a[:1], a[:1], temperature=1.0)
    with pytest.raises(ValueError):
        enc.contrastive_loss(a, a, temperature=0.0)
    with pytest.raises(ValueError):
        enc.contrastive_loss(a, np.eye(3), temperature=1.0)


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
    vocab = enc.build_vocab(corpus)
    params = enc.init_params(corpus, vocab, d=5, seed=1)
    encoded = enc.encode_corpus(corpus, vocab)
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
# training behavior

def test_pretrain_reduces_contrastive_loss(small_synth):
    corpus, _, _ = small_synth
    vocab = enc.build_vocab(corpus)
    _, history = enc.pretrain(corpus, vocab, enc.PretrainConfig(d=16, epochs=8, seed=3))
    assert history["contrastive"][-1] < history["contrastive"][0]
    assert all(np.isfinite(v) for v in history["total"])


def test_pretrain_deterministic(small_synth):
    corpus, _, _ = small_synth
    vocab = enc.build_vocab(corpus)
    cfg = enc.PretrainConfig(d=8, epochs=3, seed=4)
    p1, h1 = enc.pretrain(corpus, vocab, cfg)
    p2, h2 = enc.pretrain(corpus, vocab, cfg)
    assert h1 == h2
    for k in p1.arrays():
        assert np.array_equal(p1.arrays()[k], p2.arrays()[k])


def test_pretrain_zero_epochs_is_initialization(small_synth):
    corpus, _, _ = small_synth
    vocab = enc.build_vocab(corpus)
    cfg = enc.PretrainConfig(d=8, epochs=0, seed=4)
    params, history = enc.pretrain(corpus, vocab, cfg)
    init = enc.init_params(corpus, vocab, d=8, seed=4)
    for k in params.arrays():
        assert np.array_equal(params.arrays()[k], init.arrays()[k])
    assert history["total"] == []


def test_finetune_requires_positive_pairs(small_synth):
    corpus, _, pairs = small_synth
    vocab = enc.build_vocab(corpus)
    params = enc.init_params(corpus, vocab, d=8, seed=0)
    negatives_only = [p for p in pairs if not p.is_similar]
    with pytest.raises(ValueError):
        enc.fine_tune(params, negatives_only, corpus, vocab)


def test_finetune_zero_epochs_identity(small_synth):
    corpus, _, pairs = small_synth
    vocab = enc.build_vocab(corpus)
    params = enc.init_params(corpus, vocab, d=8, seed=0)
    tuned, history = enc.fine_tune(params, pairs, corpus, vocab,
                                   enc.FinetuneConfig(epochs=0))
    for k in params.arrays():
        assert np.array_equal(params.arrays()[k], tuned.arrays()[k])
    assert history["batch"] == []


def test_finetune_first_batch_loss_matches_direct_evaluation(small_synth):
    corpus, _, pairs = small_synth
    vocab = enc.build_vocab(corpus)
    params = enc.init_params(corpus, vocab, d=8, seed=0)
    cfg = enc.FinetuneConfig(epochs=1, batch_size=4, n_negatives=3, seed=9)
    _, history = enc.fine_tune(params, pairs, corpus, vocab, cfg)

    # rebuild the first batch exactly as the trainer does
    from exsim.textnorm import tokenize
    from exsim.textnorm import Vocab as _V  # noqa: F401 (import parity)
    from exsim.encoder import normalize_text
    positives = [(p.a_id, p.b_id) for p in pairs if p.is_similar]
    anchors_all = positives + [(b, a) for a, b in positives]
    sims = enc.similar_sets(pairs)
    rng = np.random.default_rng(np.random.SeedSequence([cfg.seed, 23]))
    order = rng.permutation(len(anchors_all))
    chosen = [anchors_all[i] for i in order[:cfg.batch_size]]
    negatives = [enc._draw_negatives(a, sims, corpus.ids, cfg.n_negatives, rng)
                 for a, _ in chosen]
    seqs = {ex.id: tokenize(normalize_text(ex.text)[0], vocab).array() for ex in corpus}
    flat = []
    for (a, b), negs in zip(chosen, negatives):
        flat.extend([a, b] + negs)
    out, _ = enc.embed_text_batch([seqs[i] for i in flat], params)
    per = out.reshape(len(chosen), 2 + cfg.n_negatives, -1)
    expected, _, _ = enc.infonce_sampled(per[:, 0], per[:, 1:], cfg.tau)
    assert history["batch"][0] == pytest.approx(expected, rel=1e-12)


def test_finetune_pulls_similars_together(small_trained):
    corpus, truth, pairs, vocab, params = small_trained
    matrix, ids = enc.embed_corpus(corpus, vocab, params)
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
    matrix, ids = enc.embed_corpus(corpus, vocab, params)
    row = {ex_id: i for i, ex_id in enumerate(ids)}
    own, cross = [], []
    exercises = list(corpus)
    for ex in exercises:
        if not ex.image_features:
            continue
        h = enc.project_image(np.asarray(ex.image_features[0]), params)
        own.append(float(matrix[row[ex.id]] @ h))
        other = exercises[(exercises.index(ex) + len(exercises) // 2) % len(exercises)]
        if truth.group_of(other.id) != truth.group_of(ex.id):
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
    enc.export_embeddings(corpus, vocab, params, path)
    lines = path.read_text().splitlines()
    assert len(lines) == len(corpus)
    first = lines[0].split()
    assert len(first) == 1 + params.d
    ex = corpus[first[0]]
    from exsim.textnorm import tokenize
    vec = enc.embed_text(tokenize(enc.normalize_text(ex.text)[0], vocab), params)
    parsed = np.array([float(x) for x in first[1:]])
    assert np.array_equal(parsed, vec)  # bit-for-bit via repr round-trip
    enc.export_embeddings(corpus, vocab, params, tmp_path / "emb2.txt")
    assert (tmp_path / "emb2.txt").read_text() == path.read_text()
