import dataclasses
import gc

import numpy as np
import pytest
from gradcheck import assert_grads_match, finite_difference
from test_pairclf import reference_similarity
from test_recall import candidates_of

from exsim import encoder as enc
from exsim import ranking as rk
from exsim.corpus import Corpus, SyntheticSpec, generate_synthetic
from exsim.pairclf import (PreparedCorpus, PreparedQuery, UntrainedModelError,
                           pair_features)
from exsim.recall import Candidate
from exsim.snapshots import SnapshotFormatError, save_arrays
from exsim.textnorm import UNK_ID, normalize_text, split_tokens


@pytest.fixture(scope="module")
def tiny_setup():
    spec = SyntheticSpec(n_templates=3, per_template=6, noise_rate=0.0,
                         vocab_size=100, seed=17)
    corpus, truth, pairs = generate_synthetic(spec, d_img=4)
    view = PreparedCorpus.with_own_vocab(corpus)
    encoder = enc.init_params(corpus, view.vocab, d=6, seed=3)
    return corpus, truth, pairs, view, encoder


def ids_of(text, vocab):
    """The vocabulary ids of one text, normalized from scratch."""
    return tuple(vocab.id_of(t) for t in split_tokens(normalize_text(text)[0]))


def head_probs(params, features):
    """The stem-stem head's positive-class probability of each feature row,
    written out: one matrix product, then a softmax over the two logits."""
    head = params.heads[rk.TASK_STEM_STEM]
    logits = features @ head["w"] + head["b"]
    expl = np.exp(logits - logits.max(axis=1, keepdims=True))
    return expl[:, 1] / expl.sum(axis=1)


def test_task_instances_dissimilar_pair(tiny_setup):
    corpus, truth, pairs, view, _ = tiny_setup
    pair = next(p for p in pairs if not p.is_similar)
    out = rk.TaskBuilder(view).build_all([pair], np.random.default_rng(1))[0]
    by_task = {}
    for inst in out:
        by_task.setdefault(inst.task, []).append(inst)
    assert len(by_task[rk.TASK_STEM_STEM]) == 1
    assert len(by_task[rk.TASK_ANALYSIS_ANALYSIS]) == 1
    t3 = by_task[rk.TASK_STEM_ANALYSIS]
    assert [i.label for i in t3] == [1, 1, 0]
    # the negative pairs stem A with analysis B directly
    assert t3[2].left == ids_of(corpus[pair.a_id].text, view.vocab)
    assert t3[2].right == ids_of(corpus[pair.b_id].answer_analysis, view.vocab)


def test_task_instances_similar_pair_draws_concept_neighbor(tiny_setup):
    corpus, truth, pairs, view, _ = tiny_setup
    pair = next(p for p in pairs if p.is_similar)
    out = rk.TaskBuilder(view).build_all([pair], np.random.default_rng(1))[0]
    t3_neg = [i for i in out if i.task == rk.TASK_STEM_ANALYSIS and i.label == 0]
    assert len(t3_neg) == 1
    neg_analysis = t3_neg[0].right
    donors = [ex.id for ex in corpus
              if ids_of(ex.answer_analysis, view.vocab) == neg_analysis
              and ex.id not in (pair.a_id, pair.b_id)]
    assert donors, "negative analysis must come from a third exercise"
    a_concepts = set(corpus[pair.a_id].metadata.knowledge_concepts)
    assert any(a_concepts & set(corpus[d].metadata.knowledge_concepts) for d in donors)


def test_task_instances_deterministic(tiny_setup):
    _, _, pairs, view, _ = tiny_setup
    pair = next(p for p in pairs if p.is_similar)
    one = rk.TaskBuilder(view).build_all([pair], np.random.default_rng(9))[0]
    two = rk.TaskBuilder(view).build_all([pair], np.random.default_rng(9))[0]
    assert one == two


def test_build_all_items_equal_an_eager_reference(tiny_setup):
    """Item i builds pair i's instances on each read, equal to instances
    written out here from the same draws, with reference edit similarities
    of the two texts' tokens."""
    _, _, pairs, view, _ = tiny_setup
    tasks = (rk.TASK_STEM_STEM, rk.TASK_STEM_ANALYSIS)
    items = rk.TaskBuilder(view).build_all(pairs, np.random.default_rng(4), tasks)
    texts = [tuple(ids.tolist()) for ids in view.stem_ids() + view.analysis_ids()]
    tokens = view.tokens + view.analysis.tokens
    drawer, rng = rk.TaskBuilder(view), np.random.default_rng(4)
    expected = [[rk.TaskInstance(rk.TASKS[t], texts[l], texts[r], label,
                                 reference_similarity(tokens[l], tokens[r]))
                 for t, l, r, label in drawer._specs(p, rng) if rk.TASKS[t] in tasks]
                for p in pairs]
    assert len(items) == len(pairs)
    assert list(items) == [items[i] for i in range(len(items))] == expected
    assert items[np.int64(3)] == items[-len(pairs) + 3] == expected[3]
    assert items[0] is not items[0]
    with pytest.raises(IndexError):
        items[len(pairs)]


def test_train_ranker_holds_one_batch_of_instances(tiny_setup, monkeypatch):
    """While a batch's loss is computed, the only TaskInstance objects alive
    beyond those alive before training are that batch's."""
    _, _, pairs, view, encoder = tiny_setup

    def alive():
        gc.collect()
        return sum(isinstance(o, rk.TaskInstance) for o in gc.get_objects())

    loss, seen = rk.multitask_loss, []

    def counted(instances, params, alpha=None):
        seen.append((alive() - before, len(instances)))
        return loss(instances, params, alpha)

    monkeypatch.setattr(rk, "multitask_loss", counted)
    before = alive()
    rk.train_ranker(pairs, view, rk.RankConfig(epochs=1, batch_pairs=8), encoder=encoder)
    assert len(seen) == -(-len(pairs) // 8) > 1
    assert all(n_alive == n_batch for n_alive, n_batch in seen)


def rebuilt_pool_draw(builder, ex, exclude, rng):
    """The negative draw with its concept pool rebuilt for every pair."""
    pool, seen = [], set(exclude)
    for c in ex.metadata.knowledge_concepts:
        for other in builder.by_concept.get(c, ()):
            if other not in seen:
                pool.append(other)
                seen.add(other)
    if not pool:
        pool = [i for i in builder.ids if i not in exclude]
    return pool[int(rng.integers(0, len(pool)))]


def test_concept_sharing_draw_equals_pool_rebuilt_per_pair(tiny_setup):
    corpus, _, _, view, _ = tiny_setup
    base = corpus[corpus.ids[0]]

    def with_concepts(suffix, concepts):
        return dataclasses.replace(base, id=base.id + suffix, metadata=dataclasses.replace(
            base.metadata, knowledge_concepts=concepts))

    # a concept of its own (empty pool) and a concept two exercises share
    # (empty once the partner is skipped): both take the uniform fallback
    extra = [with_concepts("-solo", ("solo",)), with_concepts("-duo1", ("duo",)),
             with_concepts("-duo2", ("duo",))]
    bank = Corpus(list(corpus) + extra, levels=corpus.levels, d_img=corpus.d_img)
    builder = rk.TaskBuilder(PreparedCorpus(bank, view.vocab))
    rng, reference_rng = np.random.default_rng(5), np.random.default_rng(5)
    for _ in range(2):  # the second pass reads the cached pools
        for a_id in bank.ids:
            for b_id in bank.ids:
                ex = bank[a_id]
                assert builder._concept_sharing_draw(ex, b_id, rng) == \
                    rebuilt_pool_draw(builder, ex, {a_id, b_id}, reference_rng)
    assert rng.random() == reference_rng.random()


def test_resolve_tasks_accepts_aliases():
    assert rk.resolve_tasks(["t1"]) == (rk.TASK_STEM_STEM,)
    assert rk.resolve_tasks(["T3", "t1"]) == (rk.TASK_STEM_STEM, rk.TASK_STEM_ANALYSIS)
    with pytest.raises(ValueError):
        rk.resolve_tasks(["t9"])


def test_moe_equal_logits_give_uniform(tiny_setup):
    *_, encoder = tiny_setup
    params = rk.RankerParams.init(encoder, seed=0)
    for t in rk.TASKS:
        for arr in params.experts[t].values():
            arr[...] = 0.0
    alpha = rk.multitask_loss(make_batch(tiny_setup), params).alpha
    for t in rk.TASKS:
        assert alpha[t] == pytest.approx(1 / 3, abs=1e-15)


def test_moe_coefficients_sum_to_one(tiny_setup):
    *_, encoder = tiny_setup
    chunk = make_batch(tiny_setup)
    for trial in range(10):
        params = rk.RankerParams.init(encoder, seed=trial)
        alpha = rk.multitask_loss(chunk, params).alpha
        assert set(alpha) == set(rk.TASKS)
        assert abs(sum(alpha.values()) - 1.0) < 1e-12
        assert all(a >= 0 for a in alpha.values())


def make_batch(tiny_setup, n_pairs=3, tasks=rk.TASKS):
    _, _, pairs, view, encoder = tiny_setup
    builder = rk.TaskBuilder(view)
    rng = np.random.default_rng(5)
    chunk = [inst for insts in builder.build_all(pairs[:n_pairs], rng, tasks)
             for inst in insts]
    return chunk


def test_multitask_frozen_one_hot_equals_single_task_loss(tiny_setup):
    *_, encoder = tiny_setup
    params = rk.RankerParams.init(encoder, seed=2)
    chunk = make_batch(tiny_setup)
    result = rk.multitask_loss(chunk, params, {rk.TASK_STEM_STEM: 1.0})
    assert result.total == result.task_losses[rk.TASK_STEM_STEM]
    assert result.alpha[rk.TASK_ANALYSIS_ANALYSIS] == 0.0


def test_multitask_total_is_weighted_sum(tiny_setup):
    *_, encoder = tiny_setup
    params = rk.RankerParams.init(encoder, seed=2)
    chunk = make_batch(tiny_setup)
    third = {t: 1 / 3 for t in rk.TASKS}
    result = rk.multitask_loss(chunk, params, third)
    expected = sum(result.alpha[t] * result.task_losses[t] for t in rk.TASKS)
    assert result.total == pytest.approx(expected, rel=1e-15)
    # the rule itself on the documented example values
    assert sum(1 / 3 * l for l in (0.3, 0.6, 0.9)) == pytest.approx(0.6, abs=1e-12)


def test_multitask_masks_absent_task(tiny_setup):
    *_, encoder = tiny_setup
    params = rk.RankerParams.init(encoder, seed=2)
    chunk = make_batch(tiny_setup, tasks=(rk.TASK_STEM_STEM, rk.TASK_ANALYSIS_ANALYSIS))
    result = rk.multitask_loss(chunk, params)
    assert rk.TASK_STEM_ANALYSIS not in result.alpha
    assert abs(sum(result.alpha.values()) - 1.0) < 1e-12
    assert rk.TASK_STEM_ANALYSIS not in result.task_losses


def test_multitask_gradients_with_gate(tiny_setup):
    *_, encoder = tiny_setup
    params = rk.RankerParams.init(encoder, seed=6)
    chunk = make_batch(tiny_setup, n_pairs=2)
    result = rk.multitask_loss(chunk, params)
    numeric = finite_difference(
        lambda: rk.multitask_loss(chunk, params).total,
        params.arrays())
    assert_grads_match(result.grads, numeric)


def test_multitask_gradients_fixed_alpha(tiny_setup):
    *_, encoder = tiny_setup
    params = rk.RankerParams.init(encoder, seed=6)
    chunk = make_batch(tiny_setup, n_pairs=2)
    third = {t: 1 / 3 for t in rk.TASKS}
    result = rk.multitask_loss(chunk, params, third)
    numeric = finite_difference(
        lambda: rk.multitask_loss(chunk, params, third).total,
        params.arrays())
    assert_grads_match(result.grads, numeric)


def test_train_ranker_smoke_and_determinism(tiny_setup):
    corpus, _, pairs, view, encoder = tiny_setup
    cfg = rk.RankConfig(lr=0.05, epochs=3, batch_pairs=8, seed=1)
    p1, h1 = rk.train_ranker(pairs, view, cfg, encoder=encoder)
    p2, h2 = rk.train_ranker(pairs, view, cfg, encoder=encoder)
    assert h1["total"] == h2["total"]
    for k in p1.arrays():
        assert np.array_equal(p1.arrays()[k], p2.arrays()[k])
    assert h1["total"][-1] < h1["total"][0]
    assert p1.trained


def test_train_ranker_zero_epochs_keeps_init(tiny_setup):
    corpus, _, pairs, view, encoder = tiny_setup
    cfg = rk.RankConfig(epochs=0, seed=1)
    params, history = rk.train_ranker(pairs, view, cfg, encoder=encoder)
    init = rk.RankerParams.init(encoder, seed=1)
    for k, v in init.arrays().items():
        assert np.array_equal(params.arrays()[k], v)
    assert history["total"] == []


def test_score_pair_untrained_rejected(tiny_setup):
    corpus, _, _, view, encoder = tiny_setup
    ranker = rk.Ranker(rk.RankerParams.init(encoder, seed=0), view)
    cands = candidates_of(corpus.index, [Candidate(corpus.ids[1], 0.0, "exact")])
    with pytest.raises(UntrainedModelError):
        ranker.rank(PreparedQuery(corpus[corpus.ids[0]], view), cands)


def test_rank_is_permutation_sorted_with_id_ties(tiny_setup):
    corpus, _, pairs, view, encoder = tiny_setup
    params, _ = rk.train_ranker(pairs, view, rk.RankConfig(epochs=1, seed=0),
                                encoder=encoder)
    ranker = rk.Ranker(params, view)
    query = PreparedQuery(corpus[corpus.ids[0]], view)
    cands = candidates_of(corpus.index, [Candidate(ex_id, 0.0, "exact")
                                         for ex_id in corpus.ids[1:10]])
    out = ranker.rank(query, cands)
    assert sorted(c.ex_id for c in out) == sorted(c.ex_id for c in cands)
    scores = [c.score for c in out]
    assert scores == sorted(scores, reverse=True)
    out = list(out)
    for earlier, later in zip(out, out[1:]):
        if earlier.score == later.score:
            assert earlier.ex_id < later.ex_id
    # candidates must be rows of the ranker's view
    other = candidates_of(PreparedCorpus(list(corpus), view.vocab).index,
                          [Candidate(corpus.ids[1], 0.0, "exact")])
    with pytest.raises(ValueError, match="rows of this ranker's view"):
        ranker.rank(query, other)


def test_ranker_keeps_its_own_rows(tiny_setup):
    """The ranker embeds every row of its view once under its own backbone,
    ``embed_corpus`` bit for bit; a bank query reads its row there, and an
    equal copy, embedded from its own text under the ranker's params, is
    scored with the same bits."""
    corpus, _, _, view, encoder = tiny_setup
    params = rk.RankerParams.init(encoder, seed=4)
    params.trained = True
    params.emb += 0.01  # a backbone of its own, not the encoder's
    ranker = rk.Ranker(params, view)
    assert ranker.embeddings.tobytes() == \
        enc.embed_corpus(view.stem_ids(), params).tobytes()
    assert ranker.embeddings.tobytes() != \
        enc.embed_corpus(view.stem_ids(), encoder).tobytes()
    cands = candidates_of(corpus.index, [Candidate(ex_id, 0.0, "exact")
                                         for ex_id in corpus.ids[1:9]])
    bank = ranker.rank(PreparedQuery(corpus[corpus.ids[0]], view), cands)
    copy = ranker.rank(PreparedQuery(dataclasses.replace(corpus[corpus.ids[0]]), view),
                       cands)
    assert [(c.ex_id, c.score) for c in bank] == [(c.ex_id, c.score) for c in copy]


def test_rank_refuses_a_query_over_another_view(tiny_setup):
    """A second view of the same exercises and vocabulary shares the
    corpus's row index, so only the query's own view tells them apart."""
    corpus, _, _, view, encoder = tiny_setup
    params = rk.RankerParams.init(encoder, seed=0)
    params.trained = True
    ranker = rk.Ranker(params, view)
    second = PreparedCorpus(corpus, view.vocab)
    assert second.index is view.index
    cands = candidates_of(corpus.index, [Candidate(corpus.ids[1], 0.0, "exact")])
    for ex in (corpus[corpus.ids[0]], dataclasses.replace(corpus[corpus.ids[0]], id="probe")):
        with pytest.raises(ValueError, match="prepared query is over another view"):
            ranker.rank(PreparedQuery(ex, second), cands)
        assert len(ranker.rank(PreparedQuery(ex, view), cands)) == 1


def test_ranker_snapshot_round_trip(tmp_path, tiny_setup):
    corpus, _, pairs, view, encoder = tiny_setup
    params, _ = rk.train_ranker(pairs, view,
                                rk.RankConfig(epochs=1, seed=0), encoder=encoder)
    rk.save_ranker(params, tmp_path / "r.params")
    loaded = rk.load_ranker(tmp_path / "r.params")
    assert loaded.trained
    for k, v in params.arrays().items():
        assert np.array_equal(loaded.arrays()[k], v)


def test_load_ranker_refuses_the_old_head_layout(tmp_path, tiny_setup):
    *_, encoder = tiny_setup
    params = rk.RankerParams.init(encoder, seed=0)
    arrays = params.arrays()
    for t in rk.TASKS:  # heads over a d-wide pooled vector, as written before
        arrays[f"head.{t}.w"] = np.zeros((params.d, 2))
    save_arrays(tmp_path / "r.params", "ranker", {"seed": 0, "trained": True}, arrays)
    with pytest.raises(SnapshotFormatError, match="step_train_rank"):
        rk.load_ranker(tmp_path / "r.params")


def test_score_pairs_equal_from_view_and_from_own_text(tiny_setup):
    """Ranking reads the candidates from the view; scoring the same pairs,
    each side prepared from its own text, gives the same bits."""
    corpus, _, pairs, view, encoder = tiny_setup
    vocab = view.vocab
    params, _ = rk.train_ranker(pairs, view, rk.RankConfig(epochs=1, seed=0),
                                encoder=encoder)
    # out-of-vocabulary tokens: the view gives "oova" and "oovb" codes of
    # their own, and the query's "oovb" must get the code its candidates have
    extra = ["oova", "oovb", "oova oovb", "", "oovb", ""]
    exs = [dataclasses.replace(corpus[ex_id], stem=f"{corpus[ex_id].stem} {tail}")
           for ex_id, tail in zip(corpus.ids, extra)]
    assert vocab.id_of("oova") == vocab.id_of("oovb") == UNK_ID
    query = dataclasses.replace(corpus[corpus.ids[7]], id="probe",
                                stem=corpus[corpus.ids[7]].stem + " oovb")
    ranker = rk.Ranker(params, PreparedCorpus(exs, vocab, encoder))
    rows = [4, 2, 0, 3]  # a reordered subset of the view
    index = ranker.view.index
    ranked = ranker.rank(PreparedQuery(query, ranker.view), candidates_of(
        index, [Candidate(index.ids[r], 0.0, "exact") for r in rows]))

    def tokens(ex):
        return split_tokens(normalize_text(ex.text)[0])
    expected = [reference_similarity(tokens(query), tokens(exs[r])) for r in rows]
    assert PreparedQuery(query, ranker.view).edit_similarities(
        np.array(rows)).tolist() == expected

    # the pair features from each side's own text, scored as one matrix in
    # candidate order, as ranking scores them
    def own_embedding(ex):
        return enc.embed_text(np.array(ids_of(ex.text, vocab), dtype=np.int64), params)
    f = np.array([pair_features(own_embedding(query), own_embedding(exs[r]), sim)
                  for r, sim in zip(rows, expected)])
    scores = head_probs(params, f).tolist()
    assert [(c.ex_id, c.score) for c in ranked] == sorted(
        ((exs[r].id, score) for r, score in zip(rows, scores)), key=lambda c: (-c[1], c[0]))
