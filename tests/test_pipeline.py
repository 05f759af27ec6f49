"""The product path end to end on a tiny workspace: every build step, then
Pipeline.load and queries, plus bit-identity of the batched pair scoring
against a per-pair computation written out here."""

import dataclasses
import json
import shutil
from collections import Counter

import numpy as np
import pytest
from test_corpus import write_jsonl
from test_pairclf import reference_similarity
from test_ranking import head_probs
from test_recall import reference_merge

from exsim import conflearn, encoder, pairclf, ranking, recall, textnorm
from exsim import pipeline as pl
from exsim.corpus import CorpusError, LabeledPair, SyntheticSpec, load_corpus, save_pairs
from exsim.encoder import load_encoder
from exsim.pairclf import PreparedCorpus, PreparedQuery, pair_features
from exsim.recall import VectorIndex
from exsim.rerank import StudentProfile
from exsim.snapshots import SnapshotFormatError
from exsim.textnorm import normalize_text, split_tokens

TINY = SyntheticSpec(n_templates=3, per_template=8, seed=3)
CONFIG = {"encoder.epochs": "2", "finetune.epochs": "1",
          "rank.epochs": "1", "cl.folds": "2", "cache.size": "4"}


@pytest.fixture(scope="module")
def workspace(tmp_path_factory):
    """Every build step over the tiny bank, in product order."""
    workdir = tmp_path_factory.mktemp("workspace")
    config = pl.Config(CONFIG)
    corpus, truth, pairs = pl.step_synth(workdir, TINY)
    pl.step_pretrain(workdir, config)
    pl.step_finetune(workdir, config)
    pl.step_index(workdir, config)
    pl.step_train_rank(workdir, config)
    _, cleaned, report = pl.step_clean(workdir, config)
    assert report.n_pruned == len(pairs) - len(cleaned)
    eval_report = pl.step_eval(workdir, config)
    assert 0.0 <= eval_report.recall_at_k <= 1.0
    out = pl.step_export_embeddings(workdir, config)
    assert len(out.read_text().splitlines()) == len(corpus)
    return workdir, config, corpus, truth


def probe_of(ex):
    """A near-duplicate outside the corpus: the stem plus a year phrase."""
    return dataclasses.replace(ex, id=ex.id + "-probe", stem=ex.stem + " in 2021")


def test_build_steps_write_every_artifact(workspace):
    workdir, _, _, _ = workspace
    for name in ("corpus", "pairs", "pairs_clean", "truth", "vocab", "encoder",
                 "ranker", "dedup", "variant", "report", "cleaning", "embeddings"):
        assert (workdir / pl.FILES[name]).is_file(), name
    json.loads((workdir / pl.FILES["cleaning"]).read_text())
    json.loads((workdir / pl.FILES["report"]).read_text())


def test_ingest_reads_back_the_bank(workspace, tmp_path):
    _, _, corpus, _ = workspace
    write_jsonl(tmp_path / "bank.jsonl", [ex.to_record() for ex in corpus])
    ingested = pl.step_ingest(tmp_path / "ws", tmp_path / "bank.jsonl")
    assert ingested.ids == corpus.ids
    assert ingested.ids == load_corpus(tmp_path / "bank.jsonl").ids


def test_load_refuses_an_empty_workspace(tmp_path):
    with pytest.raises(pl.ConfigurationError):
        pl.Pipeline.load(tmp_path)


def test_config_refuses_an_unknown_bool_spelling():
    config = pl.Config({"rank.moe": "enabled", "rerank.enable_variant": "Off"})
    with pytest.raises(ValueError, match="rank.moe = 'enabled'"):
        config.get_bool("rank.moe")
    assert config.get_bool("rerank.enable_variant") is False
    assert pl.Config({"rank.moe": "YES"}).get_bool("rank.moe") is True


def test_load_refuses_a_bad_rerank_key(workspace):
    workdir, config, _, _ = workspace
    bad = pl.Config({**config.values, "rerank.enable_variant": "enabled"})
    with pytest.raises(ValueError, match="rerank.enable_variant = 'enabled'"):
        pl.Pipeline.load(workdir, bad)


@pytest.mark.parametrize("key, value", [("recall.n", "0"), ("recall.k_exact", "-1"),
                                        ("recall.k_embed", "-1"), ("cache.size", "-1"),
                                        ("recall.dedup_threshold", "0"),
                                        ("recall.dedup_threshold", "-1"),
                                        ("recall.dedup_threshold", "nan")])
def test_load_refuses_a_value_no_query_can_be_served_with(workspace, key, value):
    """Such a value used to load and then fail every query: recall.n = 0 in
    the merge, cache.size = -1 evicting from an empty cache; a dedup
    threshold of 0 or less, or NaN, served every query an empty list."""
    workdir, config, _, _ = workspace
    bad = pl.Config({**config.values, key: value})
    with pytest.raises(ValueError,
                       match=f"config {key} = {value}: expected (at least|above)"):
        pl.Pipeline.load(workdir, bad)


@pytest.mark.parametrize("step, key, value", [
    (pl.step_pretrain, "encoder.d", "0"),
    (pl.step_pretrain, "encoder.epochs", "-1"),
    (pl.step_pretrain, "encoder.batch", "0"),
    (pl.step_pretrain, "encoder.batch", "1"),
    (pl.step_finetune, "finetune.epochs", "-1"),
    (pl.step_finetune, "finetune.negatives", "0"),
    (pl.step_train_rank, "rank.epochs", "-1"),
    (pl.step_train_rank, "rank.batch_pairs", "0"),
    (pl.step_train_rank, "rank.tasks", ""),
    (pl.step_clean, "cl.folds", "1"),
    (pl.step_eval, "eval.k_recall", "-1"),
    (pl.step_eval, "eval.k_recall", "0"),
    (pl.step_eval, "eval.ks", "0"),
    (pl.step_eval, "eval.ks", "1,0,5"),
])
def test_build_steps_refuse_a_value_no_training_can_run_with(workspace, tmp_path,
                                                             step, key, value):
    """Such a value used to train nothing and save the untouched model as
    trained (an empty rank.tasks, encoder.batch = 1, no negatives), to fail
    deep inside training, or to report a figure of no cut-off (k_recall = -1
    cut each recall list at [:-1], eval.ks = 0 wrote a P@0); the step now
    refuses it and writes nothing."""
    workdir, config, _, _ = workspace
    copy = tmp_path / "ws"
    shutil.copytree(workdir, copy)
    before = {f.name: f.read_bytes() for f in copy.iterdir()}
    with pytest.raises(ValueError, match=f"config {key} = '?{value}'?: expected at least"):
        step(copy, pl.Config({**config.values, key: value}))
    assert {f.name: f.read_bytes() for f in copy.iterdir()} == before


def test_load_accepts_the_smallest_serving_values(workspace):
    workdir, config, corpus, _ = workspace
    pipe = pl.Pipeline.load(workdir, pl.Config({**config.values, "recall.n": "1",
                                                "recall.k_exact": "0", "cache.size": "0"}))
    result, hit = pipe.query_with_cache_info(corpus.ids[5])
    again, hit_again = pipe.query_with_cache_info(corpus.ids[5])
    assert len(result.all_ids()) <= 1 and not hit and not hit_again
    assert again is not result and again.all_ids() == result.all_ids()


@pytest.mark.parametrize("alpha", ["0.5,0.5", "0.2,0.2,0.3,0.3", ""])
def test_rank_alpha_needs_three_weights(alpha):
    with pytest.raises(ValueError, match=f"rank.alpha = '{alpha}'"):
        pl._rank_config(pl.Config({"rank.alpha": alpha}))
    weighted = pl._rank_config(pl.Config({"rank.alpha": "0.5,0.3,0.2"}))
    assert weighted.alpha == (0.5, 0.3, 0.2)


@pytest.mark.parametrize("alpha, tasks", [
    ("0,0,0", "t1,t2,t3"), ("1,0,0", "t2,t3"), ("-1,0,0", "t1"),
])
def test_train_rank_refuses_weights_that_train_nothing(workspace, tmp_path, alpha, tasks):
    """With the gate off, weights summing to 0 over the trained tasks saved
    an untouched ranker marked trained, and a negative one ran gradient
    ascent; the step now refuses them and writes nothing. The gate ignores
    the weights, so it accepts them."""
    workdir, config, _, _ = workspace
    copy = tmp_path / "ws"
    shutil.copytree(workdir, copy)
    before = {f.name: f.read_bytes() for f in copy.iterdir()}
    values = {**config.values, "rank.alpha": alpha, "rank.tasks": tasks}
    with pytest.raises(ValueError, match=f"config rank.alpha = '{alpha}': expected weights "
                                         "of at least 0 that sum above 0"):
        pl.step_train_rank(copy, pl.Config({**values, "rank.moe": "off"}))
    assert {f.name: f.read_bytes() for f in copy.iterdir()} == before
    assert pl._rank_config(pl.Config({**values, "rank.moe": "on"})).alpha == \
        tuple(float(w) for w in alpha.split(","))


def copy_workspace(workspace, tmp_path):
    workdir, config, corpus, _ = workspace
    copy = tmp_path / "ws"
    shutil.copytree(workdir, copy)
    return copy, config, corpus


def test_pairs_naming_an_unknown_id_are_refused(workspace, tmp_path):
    workdir, config, corpus = copy_workspace(workspace, tmp_path)
    save_pairs([LabeledPair(corpus.ids[0], "no-such-id", "similar")],
               workdir / pl.FILES["pairs"])
    with pytest.raises(CorpusError, match="no-such-id"):
        pl.step_finetune(workdir, config)


@pytest.mark.parametrize("head", ["dedup", "variant"])
def test_load_refuses_a_head_of_another_width(workspace, tmp_path, head):
    """A head fitted before the encoder changed width is refused at load,
    not at the first query."""
    workdir, config, _ = copy_workspace(workspace, tmp_path)
    width = 4 * load_encoder(workdir / pl.FILES["encoder"]).d + 1
    pairclf.PairClassifier(np.zeros(width - 4), 0.0).save(workdir / pl.FILES[head], head)
    with pytest.raises(SnapshotFormatError, match="step_index"):
        pl.Pipeline.load(workdir, config)


def test_load_indexes_the_current_encoder(workspace, tmp_path):
    workdir, config, corpus = copy_workspace(workspace, tmp_path)
    before = pl.Pipeline.load(workdir, config).recaller.vector.matrix
    retrain = pl.Config({**CONFIG, "finetune.epochs": "2"})
    pl.step_finetune(workdir, retrain)
    pipe = pl.Pipeline.load(workdir, retrain)
    current = VectorIndex.build(PreparedCorpus(corpus, pipe.vocab,
                                               load_encoder(workdir / pl.FILES["encoder"])))
    assert not np.array_equal(current.matrix, before)
    assert np.array_equal(pipe.recaller.vector.matrix, current.matrix)
    assert pipe.recaller.vector.matrix is pipe.recaller.view.embeddings
    assert pipe.query(corpus.ids[5]).all_ids()


def test_a_retrained_ranker_is_served_after_load(workspace, tmp_path):
    """The cache dies with its pipeline: after step_train_rank reruns with
    another seed, the pipeline loaded from the workspace names the new ranker
    and serves its scores, never a result cached under the old one."""
    workdir, config, corpus = copy_workspace(workspace, tmp_path)
    query_id = corpus.ids[5]
    before = pl.Pipeline.load(workdir, config)
    old = before.query(query_id)
    retrain = pl.Config({**CONFIG, "rank.seed": "1"})
    pl.step_train_rank(workdir, retrain)
    pipe = pl.Pipeline.load(workdir, retrain)
    assert pipe.versions["ranker"] != before.versions["ranker"]
    served, hit = pipe.query_with_cache_info(query_id)
    assert not hit
    fresh = pipe._compute(pipe.resolve(query_id), None)
    assert served.ids == fresh.ids
    assert served.scores.tolist() == fresh.scores.tolist()
    assert served.scores.tolist() != old.scores.tolist()
    assert pipe.query_with_cache_info(query_id) == (served, True)


def test_query_flow_and_cache(workspace):
    workdir, config, corpus, truth = workspace
    pipe = pl.Pipeline.load(workdir, config)
    query_id = corpus.ids[5]
    result, hit = pipe.query_with_cache_info(query_id)
    assert not hit
    ids = result.all_ids()
    assert ids and query_id not in ids and len(set(ids)) == len(ids)
    assert ids == [i.ex_id for i in result.variant + result.similar]
    again, hit = pipe.query_with_cache_info(query_id)
    assert hit and again is result

    probe = probe_of(corpus[query_id])
    served = pipe.query(probe).all_ids()
    assert query_id not in served  # dropped as a duplicate of the probe

    profile = StudentProfile("average", "synchronous", (9, 2))
    profiled = pipe.query(query_id, profile)
    assert set(profiled.all_ids()) <= set(ids)
    assert all(i.passed == ("stage", "difficulty", "variant")
               for i in profiled.variant + profiled.similar)

    record = profiled.to_dict()
    assert [d["id"] for d in record["variant"] + record["similar"]] == profiled.all_ids()
    json.dumps(record)

    dedup, threshold = pipe.recaller.dedup, pipe.recaller.config.dedup_threshold
    view = pipe.recaller.view
    query = PreparedQuery(corpus[query_id], view)
    assert dedup.prob(query, PreparedQuery(probe, view)) >= threshold
    assert dedup.prob(query, PreparedQuery(corpus[corpus.ids[0]], view)) < threshold
    with pytest.raises(pl.NotFoundError):
        pipe.query("no-such-id")
    markup_only = dataclasses.replace(probe, id="markup", stem="<p></p>", options=())
    assert pipe.query(markup_only).all_ids() == []


# ---------------------------------------------------------------------------
# bit identity of the batched path

def own_tokens(ex, vocab):
    """The tokens of one exercise, normalized from scratch."""
    return split_tokens(normalize_text(ex.text, vocab.stop_words)[0])


def own_embedding(ex, vocab, params):
    """One exercise embedded alone from its own text under ``params``."""
    return encoder.embed_text(np.array([vocab.id_of(t) for t in own_tokens(ex, vocab)],
                                       dtype=np.int64), params)


def dedup_reference(detector, a, b, u, v):
    vocab = detector.featurizer.view.vocab
    sim = reference_similarity(own_tokens(a, vocab), own_tokens(b, vocab))
    clf = detector.classifier
    return (clf.prob(pair_features(u, v, sim)) + clf.prob(pair_features(v, u, sim))) / 2.0


def variant_reference(variant_clf, query, candidate):
    view = variant_clf.featurizer.view
    sim = reference_similarity(own_tokens(query, view.vocab), own_tokens(candidate, view.vocab))
    return variant_clf.classifier.prob(pair_features(
        own_embedding(query, view.vocab, view.params),
        own_embedding(candidate, view.vocab, view.params), sim))


def ranker_reference(pipe, query, candidates):
    """The stem-stem head over the pair features of each (query, candidate),
    each side prepared from its own text under the ranker's backbone, scored
    as one matrix in candidate order, as ranking scores them."""
    if not candidates:
        return []
    params, vocab = pipe.ranker.params, pipe.vocab
    f = np.array([pair_features(
        own_embedding(query, vocab, params), own_embedding(ex, vocab, params),
        reference_similarity(own_tokens(query, vocab), own_tokens(ex, vocab)))
        for ex in candidates])
    return head_probs(params, f).tolist()


def profile_keeps(profile, query, ex):
    """The stage and difficulty rules for one candidate."""
    stage, current = ex.learning_stage, profile.current_stage
    if not (stage <= current if profile.stage_mode == "synchronous"
            else stage[1] <= current[1]):
        return False
    d, q = ex.metadata.difficulty, query.metadata.difficulty
    return {"excellent": d >= q, "weak": d <= q}.get(profile.ability, abs(d - q) <= 1)


def reference_query(pipe, query, profile=None):
    """The served (id, score, variant_prob) list, one pair at a time, over
    lists of ``Candidate``."""
    rec = pipe.recaller
    corpus = pipe.corpus
    tokens = own_tokens(query, pipe.vocab)
    exact = list(rec.lexical.search(tokens, frozenset(query.metadata.knowledge_concepts),
                                    rec.config.k_exact, exclude_id=query.id))
    embed = []
    if tokens:
        q_vec = own_embedding(query, pipe.vocab, rec.view.params)
        embed = list(rec.vector.search(q_vec, rec.config.k_embed, exclude_id=query.id))
    kept = [c for c in reference_merge(exact, embed, rec.config.n)
            if rec.dedup is None
            or dedup_reference(rec.dedup, query, corpus[c.ex_id], q_vec,
                               rec.vector.matrix[rec.vector.index.row_of[c.ex_id]])
            < rec.config.dedup_threshold]
    scores = ranker_reference(pipe, query, [corpus[c.ex_id] for c in kept])
    ranked = sorted(zip([c.ex_id for c in kept], scores), key=lambda c: (-c[1], c[0]))
    if profile is not None:
        ranked = [c for c in ranked if profile_keeps(profile, query, corpus[c[0]])]
    threshold = pipe.config.get_float("rerank.variant_threshold")
    scored = [(ex_id, score, variant_reference(pipe.variant_clf, query, corpus[ex_id]))
              for ex_id, score in ranked]
    return ([s for s in scored if s[2] >= threshold],
            [s for s in scored if not s[2] >= threshold])


@pytest.mark.parametrize("kind", ["corpus", "probe"])
def test_batched_scores_equal_per_pair(workspace, kind):
    workdir, config, corpus, _ = workspace
    pipe = pl.Pipeline.load(workdir, config)
    query = corpus[corpus.ids[7]]
    if kind == "probe":
        query = probe_of(query)
    others = [ex for ex in corpus if ex.id != query.id]
    rec = pipe.recaller
    rows = np.array([corpus.index.row_of[ex.id] for ex in others])
    u = own_embedding(query, pipe.vocab, rec.view.params)
    v = rec.vector.matrix[rows]
    prepared = PreparedQuery(query, rec.view)
    got = rec.dedup.prob_pairs(
        *rec.dedup.featurizer.row_pairs(prepared, rec.view.index, rows)).tolist()
    assert got == [dedup_reference(rec.dedup, query, ex, u, row)
                   for ex, row in zip(others, v)]
    got = pipe.variant_clf.prob_pairs(
        *pipe.variant_clf.featurizer.row_pairs(prepared, rec.view.index, rows)).tolist()
    assert got == [variant_reference(pipe.variant_clf, query, ex) for ex in others]
    assert got == [pipe.variant_clf.prob(prepared, PreparedQuery(ex, rec.view))
                   for ex in others]

    result = pipe.query(query if kind == "probe" else query.id)
    variant, similar = reference_query(pipe, query)
    assert [(i.ex_id, i.score, i.variant_prob) for i in result.variant] == variant
    assert [(i.ex_id, i.score, i.variant_prob) for i in result.similar] == similar


# ---------------------------------------------------------------------------
# one prepared query per miss

# keeps 13 of query e0007's 23 served candidates on the tiny bank
PROFILE = StudentProfile("average", "synchronous", (8, 2))


def oov_probe_of(ex):
    """A probe whose stem ends in two words the vocabulary lacks."""
    return dataclasses.replace(ex, id=ex.id + "-oov", stem=ex.stem + " quokka zebu")


def request_of(pipe, corpus, kind):
    query = corpus[corpus.ids[7]]
    if kind == "probe":
        return probe_of(query)
    if kind == "markup":  # no text token, so nothing is recalled
        return dataclasses.replace(probe_of(query), id="markup", stem="<p></p>",
                                   options=())
    if kind == "oov-probe":
        assert "quokka" not in pipe.vocab and "zebu" not in pipe.vocab
        return oov_probe_of(query)
    return query.id


def served_items(result):
    return ([(i.ex_id, i.score, i.variant_prob) for i in result.variant],
            [(i.ex_id, i.score, i.variant_prob) for i in result.similar])


def load_without_dedup(workspace, tmp_path):
    workdir, config, corpus = copy_workspace(workspace, tmp_path)
    (workdir / pl.FILES["dedup"]).unlink()
    pipe = pl.Pipeline.load(workdir, config)
    assert pipe.recaller.dedup is None and pipe.variant_clf is not None
    return pipe, corpus


def count_calls(monkeypatch) -> Counter:
    """Count calls of normalize_text, embed_text and the edit-distance
    kernel through every module binding of them."""
    counts = Counter()

    def counted(name, fn):
        def wrapper(*args, **kwargs):
            counts[name] += 1
            return fn(*args, **kwargs)
        return wrapper

    for module in (textnorm, encoder, pairclf, recall, ranking):
        for name in ("normalize_text", "embed_text"):
            if name in vars(module):
                monkeypatch.setattr(module, name, counted(name, vars(module)[name]))
    monkeypatch.setattr(pairclf, "levenshtein", counted("levenshtein", pairclf.levenshtein))
    return counts


@pytest.mark.parametrize("kind", ["corpus", "probe"])
@pytest.mark.parametrize("profile", [None, PROFILE])
def test_a_miss_prepares_its_query_once(workspace, monkeypatch, kind, profile):
    workdir, config, corpus, _ = workspace
    pipe = pl.Pipeline.load(workdir, config)
    counts = count_calls(monkeypatch)
    result, hit = pipe.query_with_cache_info(request_of(pipe, corpus, kind), profile)
    assert not hit and result.variant
    # one kernel call for dedup, ranking and the variant split; a probe adds
    # one normalization, the encoder embedding and the ranker's own, while a
    # bank exercise reads its prepared row and both its embedded rows
    if kind == "corpus":
        assert counts == {"levenshtein": 1}
    else:
        assert counts == {"normalize_text": 1, "levenshtein": 1, "embed_text": 2}


@pytest.mark.parametrize("profile", [None, PROFILE])
def test_a_bank_exercise_serves_what_its_equal_copy_does(workspace, profile):
    """A request by id reads the bank exercise's prepared row; an equal but
    distinct copy is prepared from its own text. Both serve the same bits."""
    workdir, config, corpus, _ = workspace
    pipe = pl.Pipeline.load(workdir, config)
    bank = pipe.corpus[corpus.ids[7]]
    copy = dataclasses.replace(bank)
    assert copy == bank and copy is not bank
    view = pipe.recaller.view
    row_query, text_query = PreparedQuery(bank, view), PreparedQuery(copy, view)
    assert row_query.tokens is view.tokens[7] and row_query.row == 7
    assert text_query.row is None
    assert row_query.tokens == text_query.tokens
    assert row_query.ids.dtype == text_query.ids.dtype
    assert np.array_equal(row_query.ids, text_query.ids)
    assert text_query.ids.tolist() == [pipe.vocab.id_of(t) for t in text_query.tokens]
    assert served_items(pipe.query(bank.id, profile)) == \
        served_items(pipe.query(copy, profile))


@pytest.mark.parametrize("profile", [None, PROFILE])
def test_a_bank_id_with_another_stem_is_prepared_from_its_text(workspace, profile):
    workdir, config, corpus, _ = workspace
    pipe = pl.Pipeline.load(workdir, config)
    other = dataclasses.replace(pipe.corpus[corpus.ids[7]], stem=corpus[corpus.ids[12]].stem)
    assert served_items(pipe.query(other, profile)) == reference_query(pipe, other, profile)


def test_without_dedup_ranking_makes_the_one_kernel_call(workspace, tmp_path,
                                                         monkeypatch):
    pipe, corpus = load_without_dedup(workspace, tmp_path)
    counts = count_calls(monkeypatch)
    result = pipe.query(request_of(pipe, corpus, "probe"), PROFILE)
    assert result.variant
    assert counts == {"normalize_text": 1, "levenshtein": 1, "embed_text": 2}


def test_build_steps_prepare_the_bank_once(workspace, tmp_path, monkeypatch):
    """Each build step normalizes an exercise's stem and its analysis at
    most once; step_clean adds one normalization per query each time its
    P@5 evaluator runs (before and after cleaning). Pipeline.load normalizes
    each exercise once and embeds it twice, under the encoder and under the
    ranker's backbone."""
    workdir, config, corpus = copy_workspace(workspace, tmp_path)
    n = len(corpus)
    queries = len(pl._eval_query_ids(corpus))
    counts = count_calls(monkeypatch)
    for step, most in ((pl.step_pretrain, 2 * n), (pl.step_train_rank, 2 * n),
                       (pl.step_clean, 2 * n + 2 * queries)):
        counts.clear()
        step(workdir, config)
        assert 0 < counts["normalize_text"] <= most, step.__name__
    counts.clear()
    pl.Pipeline.load(workdir, config)
    assert counts == {"normalize_text": n, "embed_text": 2 * n}


def test_step_clean_trains_the_ranker_twice(workspace, tmp_path, monkeypatch):
    """Once on every pair for the P@5 evaluator, once on the cleaned pairs;
    the folds fit pair heads and train no ranker."""
    workdir, config, _ = copy_workspace(workspace, tmp_path)
    trained = []
    train_ranker = ranking.train_ranker

    def counting(pairs, *args, **kwargs):
        trained.append(len(pairs))
        return train_ranker(pairs, *args, **kwargs)

    monkeypatch.setattr(conflearn, "train_ranker", counting)
    monkeypatch.setattr(ranking, "train_ranker", counting)
    _, cleaned, report = pl.step_clean(workdir, config)
    assert trained == [report.n_pairs, len(cleaned)]


def test_cleaning_report_scores_the_prune_against_the_flips(workspace):
    workdir, _, _, truth = workspace
    report = json.loads((workdir / pl.FILES["cleaning"]).read_text())
    flipped = {(f["a_id"], f["b_id"]) for f in truth.flipped}
    pruned = {(p["a_id"], p["b_id"]) for p in report["pruned"]}
    hits = len(pruned & flipped)
    assert len(pruned) == report["n_pruned"] > 0 and len(flipped) > 0
    assert report["flips"] == {"flipped": len(flipped), "pruned_flipped": hits,
                               "precision": hits / report["n_pruned"],
                               "recall": hits / len(flipped)}


@pytest.mark.parametrize("profile", [None, PROFILE])
@pytest.mark.parametrize("kind", ["corpus", "probe", "oov-probe", "markup"])
def test_served_list_equals_reference(workspace, kind, profile):
    """Served ids, scores and variant probabilities equal the per-pair
    reference over lists of ``Candidate``, also when recall is empty."""
    workdir, config, corpus, _ = workspace
    pipe = pl.Pipeline.load(workdir, config)
    request = request_of(pipe, corpus, kind)
    query = pipe.resolve(request)
    result = pipe.query(request, profile)
    assert served_items(result) == reference_query(pipe, query, profile)
    assert (len(pipe.recaller.recall(PreparedQuery(query, pipe.recaller.view))) == 0) == \
        (kind == "markup")
    assert bool(result.all_ids()) == (kind != "markup")


@pytest.mark.parametrize("kind", ["corpus", "probe", "oov-probe"])
def test_profiled_scores_equal_per_pair(workspace, kind):
    """The filters leave the variant split a strict subset of the ranked
    list, so it must read back each kept similarity by its row."""
    workdir, config, corpus, _ = workspace
    pipe = pl.Pipeline.load(workdir, config)
    request = request_of(pipe, corpus, kind)
    query = pipe.resolve(request)
    everyone = pipe.query(request)
    result = pipe.query(request, PROFILE)
    assert 0 < len(result.all_ids()) < len(everyone.all_ids())
    assert served_items(result) == reference_query(pipe, query, PROFILE)
    assert served_items(everyone) == reference_query(pipe, query)


@pytest.mark.parametrize("profile", [None, PROFILE])
@pytest.mark.parametrize("kind", ["corpus", "oov-probe"])
def test_scores_equal_per_pair_without_dedup(workspace, tmp_path, kind, profile):
    """Without a dedup head ranking is the first stage to ask for the edit
    similarities; the variant split reads them back."""
    pipe, corpus = load_without_dedup(workspace, tmp_path)
    request = request_of(pipe, corpus, kind)
    result = pipe.query(request, profile)
    assert result.all_ids()
    assert served_items(result) == reference_query(pipe, pipe.resolve(request), profile)


# ---------------------------------------------------------------------------
# stop words: the vocabulary owns them

@pytest.fixture(scope="module")
def stop_workspace(tmp_path_factory):
    """The serving build steps over the tiny bank with stop words set; both
    words occur in every stem."""
    workdir = tmp_path_factory.mktemp("stop-workspace")
    config = pl.Config({**CONFIG, "stopwords": "the,of"})
    corpus, _, _ = pl.step_synth(workdir, TINY)
    for step in (pl.step_pretrain, pl.step_finetune, pl.step_index, pl.step_train_rank):
        step(workdir, config)
    return workdir, config, corpus


@pytest.mark.parametrize("profile", [None, PROFILE])
@pytest.mark.parametrize("kind", ["corpus", "probe"])
def test_stop_words_reach_every_stage(stop_workspace, kind, profile):
    workdir, config, corpus = stop_workspace
    pipe = pl.Pipeline.load(workdir, config)
    assert pipe.vocab.stop_words == ("of", "the")
    assert "the" not in pipe.vocab and "of" not in pipe.vocab
    request = request_of(pipe, corpus, kind)
    query = pipe.resolve(request)
    assert {"the", "of"} <= set(split_tokens(query.text))
    assert not {"the", "of"} & set(pairclf.PreparedQuery(query, pipe.recaller.view).tokens)
    result = pipe.query(request, profile)
    assert result.variant and result.similar
    assert served_items(result) == reference_query(pipe, query, profile)


def test_a_stop_word_mismatch_is_refused(stop_workspace):
    workdir, _, _ = stop_workspace
    plain = pl.Config({**CONFIG, "stopwords": ""})
    with pytest.raises(pl.ConfigurationError, match="step_pretrain"):
        pl.Pipeline.load(workdir, plain)
    with pytest.raises(pl.ConfigurationError, match="step_pretrain"):
        pl.step_train_rank(workdir, plain)
    # the same words in another order are the same stop words
    reordered = pl.Config({**CONFIG, "stopwords": "of, the"})
    assert pl.Pipeline.load(workdir, reordered).vocab.stop_words == ("of", "the")
