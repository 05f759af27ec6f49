import dataclasses
import math

import numpy as np
import pytest
from gradcheck import assert_grads_match, finite_difference
from hypothesis import example, given, settings, strategies as st
from test_pairclf import reference_similarity
from test_recall import candidates_of

from exsim import encoder as enc
from exsim import ranking as rk
from exsim import snapshots
from exsim.corpus import Corpus, SyntheticSpec, generate_synthetic
from exsim.pairclf import PreparedCorpus, PreparedQuery, UntrainedModelError
from exsim.recall import Candidate, Candidates
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
    return tuple(vocab.id_of(t) for t in split_tokens(normalize_text(text)))


def texts_of(view):
    """The text rows' padded vocabulary ids and their lengths: stems, then
    analyses."""
    codes, lengths = view.texts()
    return view.token_ids(codes), lengths


def instances_by_task(view, specs):
    """Spec rows grouped by task name, each as (left ids, right ids, label)."""
    (ids, lengths), by_task = texts_of(view), {}
    texts = [tuple(row[:n].tolist()) for row, n in zip(ids, lengths.tolist())]
    for t, l, r, label in specs.tolist():
        by_task.setdefault(rk.TASKS[t], []).append((texts[l], texts[r], label))
    return by_task


def directional_features(u, v, sim):
    """The ranker's feature row of one pair, written out: [u, v, |u - v|,
    u * v, sim]."""
    return np.concatenate([u, v, np.abs(u - v), u * v, [sim]])


def head_probs(params, features):
    """The stem-stem head's positive-class probability of each feature row,
    written out: each row's two logits as 1-D dots with the head's columns,
    then a softmax over them."""
    head = params.heads[rk.TASK_STEM_STEM]
    columns = np.ascontiguousarray(head["w"].T)
    logits = np.array([[row @ w for w in columns] for row in features],
                      dtype=np.float64).reshape(len(features), 2) + head["b"]
    expl = np.exp(logits - logits.max(axis=1, keepdims=True))
    return expl[:, 1] / expl.sum(axis=1)


def test_task_instances_dissimilar_pair(tiny_setup):
    corpus, truth, pairs, view, _ = tiny_setup
    pair = next(p for p in pairs if not p.is_similar)
    specs, _ = rk.TaskBuilder(view).build_all([pair], np.random.default_rng(1))
    by_task = instances_by_task(view, specs[0])
    assert len(by_task[rk.TASK_STEM_STEM]) == 1
    assert len(by_task[rk.TASK_ANALYSIS_ANALYSIS]) == 1
    t3 = by_task[rk.TASK_STEM_ANALYSIS]
    assert [label for *_, label in t3] == [1, 1, 0]
    # the negative pairs stem A with analysis B directly
    assert t3[2][0] == ids_of(corpus[pair.a_id].text, view.vocab)
    assert t3[2][1] == ids_of(corpus[pair.b_id].answer_analysis, view.vocab)


def test_task_instances_similar_pair_draws_concept_neighbor(tiny_setup):
    corpus, truth, pairs, view, _ = tiny_setup
    pair = next(p for p in pairs if p.is_similar)
    specs, _ = rk.TaskBuilder(view).build_all([pair], np.random.default_rng(1))
    t3_neg = [i for i in instances_by_task(view, specs[0])[rk.TASK_STEM_ANALYSIS]
              if i[2] == 0]
    assert len(t3_neg) == 1
    neg_analysis = t3_neg[0][1]
    donors = [ex.id for ex in corpus
              if ids_of(ex.answer_analysis, view.vocab) == neg_analysis
              and ex.id not in (pair.a_id, pair.b_id)]
    assert donors, "negative analysis must come from a third exercise"
    a_concepts = set(corpus[pair.a_id].metadata.knowledge_concepts)
    assert any(a_concepts & set(corpus[d].metadata.knowledge_concepts) for d in donors)


def test_task_instances_deterministic(tiny_setup):
    _, _, pairs, view, _ = tiny_setup
    pair = next(p for p in pairs if p.is_similar)
    one = rk.TaskBuilder(view).build_all([pair], np.random.default_rng(9))
    two = rk.TaskBuilder(view).build_all([pair], np.random.default_rng(9))
    assert [a.tobytes() for a in one] == [a.tobytes() for a in two]


def reference_pool(view, ex, exclude):
    """The ids sharing a concept with ``ex``, in concept order then bank
    order, each once, other than those of ``exclude``."""
    pool, seen = [], set(exclude)
    for c in ex.metadata.knowledge_concepts:
        for other in view.exercises:
            if c in other.metadata.knowledge_concepts and other.id not in seen:
                pool.append(other.id)
                seen.add(other.id)
    return pool


def reference_concept_sharing_draw(view, ex, partner_id, rng):
    """One scalar draw from the exercises sharing a concept with ``ex``,
    other than it and ``partner_id``, with its pool rebuilt for this pair;
    from the whole bank minus those two when none shares one."""
    pool = reference_pool(view, ex, {ex.id, partner_id})
    if not pool:
        pool = [i for i in view.index.ids if i not in (ex.id, partner_id)]
    return pool[int(rng.integers(0, len(pool)))]


def reference_specs(view, pairs, rng):
    """Each pair's five instances, (task index, left row, right row,
    label), built one pair and one draw at a time."""
    n, row_of = len(view.exercises), view.index.row_of
    ss, aa, sa = range(len(rk.TASKS))
    out = []
    for pair in pairs:
        stem_a, stem_b = row_of[pair.a_id], row_of[pair.b_id]
        label = 1 if pair.is_similar else 0
        neg_id = (reference_concept_sharing_draw(view, view.exercises[stem_a], pair.b_id, rng)
                  if pair.is_similar else pair.b_id)
        out.append([(ss, stem_a, stem_b, label), (aa, n + stem_a, n + stem_b, label),
                    (sa, stem_a, n + stem_a, 1), (sa, stem_b, n + stem_b, 1),
                    (sa, stem_a, n + row_of[neg_id], 0)])
    return out


def test_build_all_items_equal_an_eager_reference(tiny_setup):
    """Row i of ``specs`` holds pair i's five instances, equal to instances
    written out here one pair and one scalar draw at a time, and ``sims``
    their reference edit similarities of the two texts' tokens."""
    _, _, pairs, view, _ = tiny_setup
    rng, reference_rng = np.random.default_rng(4), np.random.default_rng(4)
    specs, sims = rk.TaskBuilder(view).build_all(pairs, rng)
    tokens = [split_tokens(normalize_text(text, view.vocab.stop_words))
              for text in [ex.text for ex in view.exercises]
              + [ex.answer_analysis for ex in view.exercises]]
    expected = reference_specs(view, pairs, reference_rng)
    assert rng.bit_generator.state == reference_rng.bit_generator.state
    assert specs.shape == (len(pairs), 5, 4) and specs.dtype == np.int32
    assert sims.shape == (len(pairs), 5) and sims.dtype == np.float64
    assert [[tuple(row) for row in rows] for rows in specs.tolist()] == expected
    assert sims.tolist() == [[reference_similarity(tokens[l], tokens[r])
                              for _, l, r, _ in rows] for rows in expected]


def test_train_ranker_feeds_each_batch_its_wanted_rows(tiny_setup, monkeypatch):
    """With a ``rank.tasks`` subset each loss call receives exactly its
    batch's rows of those tasks, pair by pair in batch order, and the other
    task's head and expert keep their initial values."""
    _, _, pairs, view, encoder = tiny_setup
    cfg = rk.RankConfig(epochs=2, batch_pairs=8, seed=3,
                        tasks=(rk.TASK_STEM_STEM, rk.TASK_STEM_ANALYSIS))
    loss, seen = rk.multitask_loss, []

    def recorded(texts, specs, sims, params, alpha=None):
        seen.append((specs.tolist(), sims.tolist()))
        assert all(np.array_equal(a, b) for a, b in zip(texts, texts_of(view)))
        return loss(texts, specs, sims, params, alpha)

    monkeypatch.setattr(rk, "multitask_loss", recorded)
    params, _ = rk.train_ranker(pairs, view, cfg, encoder=encoder)

    specs, sims = rk.TaskBuilder(view).build_all(
        pairs, np.random.default_rng(np.random.SeedSequence([cfg.seed, 5])))
    rng = np.random.default_rng(np.random.SeedSequence([cfg.seed, 7]))
    expected = []
    for _ in range(cfg.epochs):
        order = rng.permutation(len(pairs)).tolist()
        for start in range(0, len(order), cfg.batch_pairs):
            rows = [(spec, sim) for i in order[start:start + cfg.batch_pairs]
                    for spec, sim in zip(specs[i].tolist(), sims[i].tolist())
                    if rk.TASKS[spec[0]] in cfg.tasks]
            expected.append(([spec for spec, _ in rows], [sim for _, sim in rows]))
    assert len(seen) == 2 * -(-len(pairs) // 8) > 2
    assert seen == expected

    init = rk.RankerParams.init(encoder, seed=cfg.seed)
    for t in rk.TASKS:
        same = [np.array_equal(getattr(params, part)[t][k], v)
                for part in ("heads", "experts") for k, v in getattr(init, part)[t].items()]
        assert all(same) == (t == rk.TASK_ANALYSIS_ANALYSIS)


@pytest.fixture(scope="module")
def pool_bank(tiny_setup):
    """The tiny bank plus an exercise with a concept of its own (an empty
    pool) and two sharing a concept (an empty pool once the partner is
    skipped): both take the uniform fallback."""
    corpus, _, _, view, _ = tiny_setup
    base = corpus[corpus.ids[0]]

    def with_concepts(suffix, concepts):
        return dataclasses.replace(base, id=base.id + suffix, metadata=dataclasses.replace(
            base.metadata, knowledge_concepts=concepts))

    extra = [with_concepts("-solo", ("solo",)), with_concepts("-duo1", ("duo",)),
             with_concepts("-duo2", ("duo",))]
    bank = Corpus(list(corpus) + extra, levels=corpus.levels, d_img=corpus.d_img)
    return PreparedCorpus(bank, view.vocab)


@settings(max_examples=60, deadline=None)
@given(data=st.data())
@example(data=None)
def test_concept_sharing_draws_equal_one_scalar_draw_per_pair(pool_bank, data):
    """One ``rng.integers`` call over every pair's pool size takes the
    values, and leaves the generator in the state, of one scalar draw per
    pair over its pool rebuilt for that pair; the explicit example is every
    ordered pair of the bank, twice."""
    n = len(pool_bank.exercises)
    if data is None:
        pairs = [(a, b) for a in range(n) for b in range(n) if a != b] * 2
        seed = 5
    else:
        rows = st.integers(0, n - 1)
        pairs = data.draw(st.lists(st.tuples(rows, rows).filter(lambda p: p[0] != p[1]),
                                   max_size=40))
        seed = data.draw(st.integers(0, 2 ** 32 - 1))
    builder = rk.TaskBuilder(pool_bank)
    rng, reference_rng = np.random.default_rng(seed), np.random.default_rng(seed)
    anchors, partners = (np.array([p[k] for p in pairs], dtype=np.intp) for k in (0, 1))
    drawn = builder._concept_sharing_draws(anchors, partners, rng)
    ids = pool_bank.index.ids
    assert [ids[r] for r in drawn.tolist()] == [
        reference_concept_sharing_draw(pool_bank, pool_bank.exercises[a], ids[b],
                                       reference_rng) for a, b in pairs]
    assert rng.bit_generator.state == reference_rng.bit_generator.state


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
    alpha = rk.multitask_loss(*make_batch(tiny_setup), params).alpha
    for t in rk.TASKS:
        assert alpha[t] == pytest.approx(1 / 3, abs=1e-15)


def test_moe_coefficients_sum_to_one(tiny_setup):
    *_, encoder = tiny_setup
    chunk = make_batch(tiny_setup)
    for trial in range(10):
        params = rk.RankerParams.init(encoder, seed=trial)
        alpha = rk.multitask_loss(*chunk, params).alpha
        assert set(alpha) == set(rk.TASKS)
        assert abs(sum(alpha.values()) - 1.0) < 1e-12
        assert all(a >= 0 for a in alpha.values())


def make_batch(tiny_setup, n_pairs=3, tasks=rk.TASKS):
    """(texts, specs, sims) of the first pairs' instances of ``tasks``."""
    _, _, pairs, view, encoder = tiny_setup
    specs, sims = rk.TaskBuilder(view).build_all(pairs[:n_pairs], np.random.default_rng(5))
    keep = np.isin(specs[:, :, 0], [rk.TASKS.index(t) for t in tasks])
    return texts_of(view), specs[keep], sims[keep]


def test_multitask_frozen_one_hot_equals_single_task_loss(tiny_setup):
    *_, encoder = tiny_setup
    params = rk.RankerParams.init(encoder, seed=2)
    chunk = make_batch(tiny_setup)
    result = rk.multitask_loss(*chunk, params, {rk.TASK_STEM_STEM: 1.0})
    assert result.total == result.task_losses[rk.TASK_STEM_STEM]
    assert result.alpha[rk.TASK_ANALYSIS_ANALYSIS] == 0.0


def test_multitask_total_is_weighted_sum(tiny_setup):
    *_, encoder = tiny_setup
    params = rk.RankerParams.init(encoder, seed=2)
    chunk = make_batch(tiny_setup)
    third = {t: 1 / 3 for t in rk.TASKS}
    result = rk.multitask_loss(*chunk, params, third)
    expected = sum(result.alpha[t] * result.task_losses[t] for t in rk.TASKS)
    assert result.total == pytest.approx(expected, rel=1e-15)
    # the rule itself on the documented example values
    assert sum(1 / 3 * l for l in (0.3, 0.6, 0.9)) == pytest.approx(0.6, abs=1e-12)


def test_multitask_masks_absent_task(tiny_setup):
    *_, encoder = tiny_setup
    params = rk.RankerParams.init(encoder, seed=2)
    chunk = make_batch(tiny_setup, tasks=(rk.TASK_STEM_STEM, rk.TASK_ANALYSIS_ANALYSIS))
    result = rk.multitask_loss(*chunk, params)
    assert rk.TASK_STEM_ANALYSIS not in result.alpha
    assert abs(sum(result.alpha.values()) - 1.0) < 1e-12
    assert rk.TASK_STEM_ANALYSIS not in result.task_losses


def test_multitask_gradients_with_gate(tiny_setup):
    *_, encoder = tiny_setup
    params = rk.RankerParams.init(encoder, seed=6)
    chunk = make_batch(tiny_setup, n_pairs=2)
    result = rk.multitask_loss(*chunk, params)
    numeric = finite_difference(
        lambda: rk.multitask_loss(*chunk, params).total,
        params.arrays())
    assert_grads_match(result.grads, numeric)


def test_multitask_gradients_fixed_alpha(tiny_setup):
    *_, encoder = tiny_setup
    params = rk.RankerParams.init(encoder, seed=6)
    chunk = make_batch(tiny_setup, n_pairs=2)
    third = {t: 1 / 3 for t in rk.TASKS}
    result = rk.multitask_loss(*chunk, params, third)
    numeric = finite_difference(
        lambda: rk.multitask_loss(*chunk, params, third).total,
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


@pytest.mark.parametrize("batch_pairs, message", [
    (1000, r"^train_ranker: non-finite parameters \['emb', 'W', .*\] after training$"),
    (4, "^non-finite ranking loss$")])
def test_train_ranker_refuses_parameters_that_are_not_finite(tiny_setup, batch_pairs,
                                                             message):
    """One batch: a NaN learning rate used to save a ranker of NaN arrays
    marked trained; more batches: the second batch's loss catches it, and no
    RuntimeWarning comes first."""
    corpus, _, pairs, view, encoder = tiny_setup
    cfg = rk.RankConfig(lr=math.nan, epochs=1, batch_pairs=batch_pairs)
    with pytest.raises(enc.TrainingDivergedError, match=message):
        rk.train_ranker(pairs, view, cfg, encoder=encoder)


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
    other = candidates_of(PreparedCorpus(Corpus(list(corpus)), view.vocab).index,
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
        enc.embed_corpus(view, params).tobytes()
    assert ranker.embeddings.tobytes() != enc.embed_corpus(view, encoder).tobytes()
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


def test_a_candidate_scores_the_same_alone_and_in_its_list():
    """Each candidate's score is its own pair's: ranked alone, in its whole
    list or in any part of it, it gets the same bits. A matrix product over
    the batch rounds some logits differently in the last bit."""
    spec = SyntheticSpec(n_templates=4, per_template=30, noise_rate=0.0,
                         vocab_size=200, seed=5)
    corpus, _, _ = generate_synthetic(spec, d_img=4)
    view = PreparedCorpus.with_own_vocab(corpus)
    params = rk.RankerParams.init(enc.init_params(corpus, view.vocab, d=24, seed=2), seed=3)
    params.trained = True
    ranker = rk.Ranker(params, view)
    rng = np.random.default_rng(8)

    def scores(query, rows):
        ranked = ranker.rank(query, Candidates(corpus.index, rows, np.zeros(len(rows)),
                                               np.zeros(len(rows), dtype=np.int8)))
        return dict(zip(ranked.ids, ranked.scores.tolist()))

    for q in range(0, len(corpus), 10):
        query = PreparedQuery(corpus[corpus.ids[q]], view)
        rows = np.delete(np.arange(len(corpus)), q)
        everyone = scores(query, rows)
        part = rng.choice(rows, size=len(rows) // 3, replace=False)
        for subset in [part] + [part[i:i + 1] for i in range(8)]:
            got = scores(query, subset)
            assert got == {ex_id: everyone[ex_id] for ex_id in got}


def test_ranker_snapshot_round_trip(tmp_path, tiny_setup):
    corpus, _, pairs, view, encoder = tiny_setup
    params, _ = rk.train_ranker(pairs, view,
                                rk.RankConfig(epochs=1, seed=0), encoder=encoder)
    rk.save_ranker(params, tmp_path / "r.params", {"encoder": "e", "pairs": "p"})
    loaded = rk.load_ranker(tmp_path / "r.params")
    assert loaded.trained and loaded.made_from == {"encoder": "e", "pairs": "p"}
    for k, v in params.arrays().items():
        assert np.array_equal(loaded.arrays()[k], v)


def test_load_ranker_refuses_the_old_head_layout(tmp_path, tiny_setup, monkeypatch):
    *_, encoder = tiny_setup
    params = rk.RankerParams.init(encoder, seed=0)
    arrays = params.arrays()
    for t in rk.TASKS:  # heads over a d-wide pooled vector, as format 1 wrote them
        arrays[f"head.{t}.w"] = np.zeros((params.d, 2))
    monkeypatch.setattr(snapshots, "_FORMAT", 1)
    save_arrays(tmp_path / "r.params", "ranker", {"seed": 0, "trained": True}, arrays)
    monkeypatch.undo()
    with pytest.raises(SnapshotFormatError, match="format version 1.*step_train_rank"):
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
    ranker = rk.Ranker(params, PreparedCorpus(Corpus(exs), vocab, encoder))
    rows = [4, 2, 0, 3]  # a reordered subset of the view
    index = ranker.view.index
    ranked = ranker.rank(PreparedQuery(query, ranker.view), candidates_of(
        index, [Candidate(index.ids[r], 0.0, "exact") for r in rows]))

    def tokens(ex):
        return split_tokens(normalize_text(ex.text))
    expected = [reference_similarity(tokens(query), tokens(exs[r])) for r in rows]
    assert PreparedQuery(query, ranker.view).edit_similarities(
        np.array(rows)).tolist() == expected

    # the pair features from each side's own text, scored row by row
    def own_embedding(ex):
        return enc.embed_text(np.array(ids_of(ex.text, vocab), dtype=np.int64), params)
    f = np.array([directional_features(own_embedding(query), own_embedding(exs[r]), sim)
                  for r, sim in zip(rows, expected)])
    scores = head_probs(params, f).tolist()
    assert [(c.ex_id, c.score) for c in ranked] == sorted(
        ((exs[r].id, score) for r, score in zip(rows, scores)), key=lambda c: (-c[1], c[0]))
