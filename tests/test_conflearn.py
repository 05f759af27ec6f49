import numpy as np
import pytest

from exsim import conflearn as cl
from exsim import encoder as enc
from exsim import ranking
from exsim.corpus import LabeledPair, SyntheticSpec, generate_synthetic
from exsim.pairclf import PairClassifier, PairFeaturizer, PreparedCorpus, PreparedQuery


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
    return corpus, truth, pairs, PreparedCorpus(corpus, view.vocab, params)


def fold_assignment(pairs, cfg):
    labels = [1 if p.is_similar else 0 for p in pairs]
    rng = np.random.default_rng(np.random.SeedSequence([cfg.seed, 41]))
    return cl.stratified_folds(labels, cfg.folds, rng)


def auc(pos, neg):
    """Probability that a random positive outscores a random negative, ties
    counting half."""
    pos, neg = np.asarray(pos)[:, None], np.asarray(neg)[None, :]
    return float(((pos > neg) + 0.5 * (pos == neg)).mean())


def test_out_of_fold_scores_every_pair_once(cl_setup):
    corpus, truth, pairs, view = cl_setup
    cfg = cl.CleanConfig(folds=4, seed=1)
    probs = cl.out_of_fold_probs(pairs, view, cfg)
    assert probs.shape == (len(pairs),)
    assert np.all(probs >= 0.0) and np.all(probs <= 1.0)
    assert set(fold_assignment(pairs, cfg).tolist()) == set(range(cfg.folds))


def test_out_of_fold_deterministic(cl_setup):
    corpus, truth, pairs, view = cl_setup
    cfg = cl.CleanConfig(folds=3, seed=5)
    p1 = cl.out_of_fold_probs(pairs, view, cfg)
    p2 = cl.out_of_fold_probs(pairs, view, cfg)
    assert np.array_equal(p1, p2)


def test_out_of_fold_separates_true_classes(cl_setup):
    """The out-of-fold probabilities rank true-similar pairs above
    true-dissimilar ones, whatever their noisy labels say."""
    corpus, truth, pairs, view = cl_setup
    probs = cl.out_of_fold_probs(pairs, view, cl.CleanConfig(folds=4, seed=1))
    group_of = {ex_id: g for g, ids in truth.groups.items() for ex_id in ids}
    true_pos = [probs[i] for i, p in enumerate(pairs)
                if group_of[p.a_id] == group_of[p.b_id]]
    true_neg = [probs[i] for i, p in enumerate(pairs)
                if group_of[p.a_id] != group_of[p.b_id]]
    assert auc(true_pos, true_neg) >= 0.9


def test_stratification_requires_enough_examples():
    labels = [1] * 10 + [0] * 2
    with pytest.raises(ValueError, match="stratify"):
        cl.stratified_folds(labels, 5, np.random.default_rng(0))


def test_clean_and_retrain_bookkeeping(cl_setup):
    corpus, truth, pairs, view = cl_setup
    cfg = cl.CleanConfig(folds=4, seed=1)
    cfg.retrain.epochs = 1
    ranker_params, cleaned, report = cl.clean_and_retrain(pairs, view, cfg)
    assert report.n_pruned == len(pairs) - len(cleaned)
    assert report.n_pairs == len(pairs)
    assert len(report.pruned) == report.n_pruned
    assert ranker_params.trained
    parsed = __import__("json").loads(report.to_json())
    assert parsed["joint"][0][0] >= 0


def test_out_of_fold_probs_equal_per_pair_reference(cl_setup):
    """Each holdout pair scores the mean of its two orders under a head
    fitted on the other folds' pairs, each feature row built alone from the
    pair's own texts (``PairFeaturizer.features``) and scored alone
    (``PairClassifier.prob``)."""
    corpus, _, pairs, view = cl_setup
    cfg = cl.CleanConfig(folds=4, seed=1)
    probs = cl.out_of_fold_probs(pairs, view, cfg)
    own = PairFeaturizer(PreparedCorpus([], view.vocab, view.params))
    queries = {ex.id: PreparedQuery(ex, own.view) for ex in corpus}
    orders = [(own.features(queries[p.a_id], queries[p.b_id]),
               own.features(queries[p.b_id], queries[p.a_id])) for p in pairs]
    assignment = fold_assignment(pairs, cfg)
    heads = []
    for fold in range(cfg.folds):
        others = [k for k in range(len(pairs)) if assignment[k] != fold]
        heads.append(PairClassifier.train(
            np.array([row for k in others for row in orders[k]]),
            np.repeat([1 if pairs[k].is_similar else 0 for k in others], 2)))
    expected = [(heads[fold].prob(ab) + heads[fold].prob(ba)) / 2.0
                for (ab, ba), fold in zip(orders, assignment.tolist())]
    assert probs.tolist() == expected


def test_out_of_fold_probs_trains_no_ranker(cl_setup, monkeypatch):
    def refuse(*args, **kwargs):
        raise AssertionError("out_of_fold_probs trained a ranker")

    monkeypatch.setattr(cl, "train_ranker", refuse)
    monkeypatch.setattr(ranking, "train_ranker", refuse)
    _, _, pairs, view = cl_setup
    assert len(cl.out_of_fold_probs(pairs, view, cl.CleanConfig(folds=4, seed=1))) == len(pairs)


def test_out_of_fold_probs_need_the_view_params(cl_setup):
    corpus, _, pairs, view = cl_setup
    with pytest.raises(ValueError, match="no params"):
        cl.out_of_fold_probs(pairs, PreparedCorpus(corpus, view.vocab), cl.CleanConfig(folds=4))


def test_score_flips_counts_the_pruned_flips():
    report = cl.CleaningReport(joint=[[0, 0], [0, 0]], thresholds=[0.5, 0.5], n_pairs=10,
                               n_pruned=3, pruned=[{"a_id": "a", "b_id": "b"},
                                                   {"a_id": "c", "b_id": "d"},
                                                   {"a_id": "e", "b_id": "f"}])
    report.score_flips([{"a_id": "a", "b_id": "b"}, {"a_id": "e", "b_id": "f"},
                        {"a_id": "g", "b_id": "h"}, {"a_id": "i", "b_id": "j"}])
    assert report.flips == {"flipped": 4, "pruned_flipped": 2,
                            "precision": 2 / 3, "recall": 2 / 4}
    report.n_pruned, report.pruned = 0, []
    report.score_flips([])
    assert report.flips == {"flipped": 0, "pruned_flipped": 0,
                            "precision": None, "recall": None}
    assert '"flips"' in report.to_json()
