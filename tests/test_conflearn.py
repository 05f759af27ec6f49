import numpy as np
import pytest
from test_pairclf import reference_similarity
from test_ranking import head_probs

from exsim import conflearn as cl
from exsim import encoder as enc
from exsim.corpus import LabeledPair, SyntheticSpec, generate_synthetic
from exsim.pairclf import PreparedCorpus, PreparedQuery, pair_features


def test_confident_joint_worked_example():
    # hand evaluation of the rule on six examples:
    # thresholds are mean self-class probabilities: t1 = mean(.9,.8,.7) = .8,
    # t0 = mean(.8,.9,.4) = .7; the (label 1, p=.7) and (label 0, p=.6)
    # examples meet neither threshold and are skipped
    probs = [0.9, 0.8, 0.7, 0.2, 0.1, 0.6]
    labels = [1, 1, 1, 0, 0, 0]
    joint = cl.build_confident_joint(probs, labels)
    assert joint.thresholds[1] == pytest.approx(0.8)
    assert joint.thresholds[0] == pytest.approx(0.7)
    assert joint.counts.tolist() == [[2, 0], [0, 2]]
    assert joint.counts.sum() <= 6


def test_confident_joint_diagonal_on_calibrated_data():
    probs = [0.95, 0.9, 0.85, 0.1, 0.05, 0.15]
    labels = [1, 1, 1, 0, 0, 0]
    joint = cl.build_confident_joint(probs, labels)
    assert joint.counts[0, 1] == 0 and joint.counts[1, 0] == 0


def test_confident_joint_indicator_probs_is_diagonal_and_prune_empty():
    # probabilities exactly matching the noisy labels: nothing looks wrong
    labels = [1, 0, 1, 1, 0, 0, 1, 0]
    probs = [float(l) for l in labels]
    joint = cl.build_confident_joint(probs, labels)
    assert joint.counts.tolist() == [[4, 0], [0, 4]]
    pairs = [LabeledPair(f"a{i}", f"b{i}", "similar" if l else "dissimilar")
             for i, l in enumerate(labels)]
    cleaned, pruned = cl.prune(pairs, joint, probs)
    assert pruned == []
    assert cleaned == pairs


def test_confident_joint_detects_planted_flips():
    rng = np.random.default_rng(3)
    n = 120
    true = (rng.random(n) > 0.5).astype(int)
    labels = true.copy()
    flip_idx = rng.choice(n, size=18, replace=False)
    labels[flip_idx] = 1 - labels[flip_idx]
    # well-calibrated probabilities follow the TRUE label
    probs = np.clip(0.85 * true + 0.15 * (1 - true)
                    + rng.normal(0, 0.05, n), 0.01, 0.99)
    joint = cl.build_confident_joint(probs, labels.tolist())
    assert joint.counts[0, 1] + joint.counts[1, 0] > 0
    pairs = [LabeledPair(f"a{i}", f"b{i}", "similar" if l else "dissimilar")
             for i, l in enumerate(labels)]
    cleaned, pruned = cl.prune(pairs, joint, probs)
    assert len(cleaned) + len(pruned) == n
    assert set(pruned).isdisjoint({i for i, p in enumerate(pairs) if p in cleaned})
    # most pruned examples are actual flips
    hits = sum(1 for i in pruned if i in set(flip_idx.tolist()))
    assert hits / max(len(pruned), 1) >= 0.7


def test_confident_joint_validation():
    with pytest.raises(ValueError, match="align"):
        cl.build_confident_joint([0.5], [1, 0])
    with pytest.raises(ValueError, match="labeled"):
        cl.build_confident_joint([0.5, 0.6], [1, 1])


@pytest.fixture(scope="module")
def cl_setup():
    spec = SyntheticSpec(n_templates=4, per_template=8, noise_rate=0.15,
                         vocab_size=150, seed=29)
    corpus, truth, pairs = generate_synthetic(spec, d_img=8)
    view = PreparedCorpus.with_own_vocab(corpus)
    params, _ = enc.pretrain(corpus, view.vocab, view.stem_ids(), view.analysis_ids(),
                             enc.PretrainConfig(d=16, epochs=6, seed=2))
    params, _ = enc.fine_tune(params, pairs, corpus, view.stem_ids(),
                              enc.FinetuneConfig(epochs=2, n_negatives=6, seed=2))
    return corpus, truth, pairs, view, params


def test_out_of_fold_scores_every_pair_once(cl_setup):
    corpus, truth, pairs, view, params = cl_setup
    cfg = cl.CleanConfig(folds=4, seed=1)
    probs = cl.out_of_fold_probs(pairs, view, params, cfg)
    assert probs.shape == (len(pairs),)
    assert np.all(probs >= 0.0) and np.all(probs <= 1.0)
    # every slot was written (untouched slots would sit at exactly 0)
    labels = [1 if p.is_similar else 0 for p in pairs]
    rng = np.random.default_rng(np.random.SeedSequence([cfg.seed, 41]))
    assignment = cl.stratified_folds(labels, cfg.folds, rng)
    assert set(assignment.tolist()) == set(range(cfg.folds))


def test_out_of_fold_deterministic(cl_setup):
    corpus, truth, pairs, view, params = cl_setup
    cfg = cl.CleanConfig(folds=3, seed=5)
    p1 = cl.out_of_fold_probs(pairs, view, params, cfg)
    p2 = cl.out_of_fold_probs(pairs, view, params, cfg)
    assert np.array_equal(p1, p2)


def test_out_of_fold_separates_true_classes(cl_setup):
    corpus, truth, pairs, view, params = cl_setup
    probs = cl.out_of_fold_probs(pairs, view, params,
                                 cl.CleanConfig(folds=4, seed=1))
    group_of = {ex_id: g for g, ids in truth.groups.items() for ex_id in ids}
    true_pos = [probs[i] for i, p in enumerate(pairs)
                if group_of[p.a_id] == group_of[p.b_id]]
    true_neg = [probs[i] for i, p in enumerate(pairs)
                if group_of[p.a_id] != group_of[p.b_id]]
    assert np.mean(true_pos) > np.mean(true_neg)


def test_stratification_requires_enough_examples():
    labels = [1] * 10 + [0] * 2
    with pytest.raises(ValueError, match="stratify"):
        cl.stratified_folds(labels, 5, np.random.default_rng(0))


def test_clean_and_retrain_bookkeeping(cl_setup):
    corpus, truth, pairs, view, params = cl_setup
    cfg = cl.CleanConfig(folds=4, seed=1)
    cfg.retrain.epochs = 1
    ranker_params, cleaned, report = cl.clean_and_retrain(pairs, view, params, cfg)
    assert report.n_pruned == len(pairs) - len(cleaned)
    assert report.n_pairs == len(pairs)
    assert len(report.pruned) == report.n_pruned
    assert ranker_params.trained
    parsed = __import__("json").loads(report.to_json())
    assert parsed["joint"][0][0] >= 0


def reference_prob(params, vocab, a, b):
    """The stem-stem head on one pair prepared from its own texts, applied
    to a one-row feature matrix."""
    a, b = PreparedQuery(a, vocab), PreparedQuery(b, vocab)
    sim = reference_similarity(a.tokens, b.tokens)
    return float(head_probs(params, pair_features(a.embedding(params), b.embedding(params),
                                                  sim)[None, :])[0])


def test_out_of_fold_probs_equal_per_pair_reference(cl_setup, monkeypatch):
    """Each fold's holdouts, scored from the shared view's rows, carry the
    bits of scoring every pair alone from its own text; a fold's holdouts
    sent through the head as one matrix would round some in the last bit."""
    corpus, _, pairs, view, params = cl_setup
    cfg = cl.CleanConfig(folds=4, seed=1)
    trained = []
    train_ranker = cl.train_ranker

    def recording(*args, **kwargs):
        out = train_ranker(*args, **kwargs)
        trained.append(out[0])
        return out

    monkeypatch.setattr(cl, "train_ranker", recording)
    probs = cl.out_of_fold_probs(pairs, view, params, cfg)
    labels = [1 if p.is_similar else 0 for p in pairs]
    rng = np.random.default_rng(np.random.SeedSequence([cfg.seed, 41]))
    assignment = cl.stratified_folds(labels, cfg.folds, rng)
    assert len(trained) == cfg.folds
    expected = [reference_prob(trained[fold], view.vocab, corpus[p.a_id], corpus[p.b_id])
                for p, fold in zip(pairs, assignment.tolist())]
    assert probs.tolist() == expected
