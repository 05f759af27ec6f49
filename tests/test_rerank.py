import inspect

import numpy as np
import pytest
from test_recall import candidates_of

from exsim import encoder as enc
from exsim import rerank as rr
from exsim.pairclf import PairFeaturizer, PreparedCorpus, PreparedQuery
from exsim.corpus import (
    Corpus, Exercise, Metadata, RowIndex, SyntheticSpec, generate_synthetic,
)
from exsim.recall import SOURCES, Candidate, Candidates


def fixture_exercise(ex_id, difficulty=3, stage=(8, 1)):
    return Exercise(
        id=ex_id, stem=f"stem of {ex_id} $x+1=2$", options=(), answer="1",
        analysis=f"analysis of {ex_id}", image_features=(),
        metadata=Metadata("fill", difficulty, ("c01",)), learning_stage=stage)


@pytest.fixture()
def fixture_corpus():
    # 12 candidates spanning difficulties 1..5 and stages around (8, 1)
    spec = [
        ("q", 3, (8, 1)),
        ("d1", 1, (8, 1)), ("d2", 2, (8, 1)), ("d3", 3, (8, 1)),
        ("d4", 4, (8, 1)), ("d5", 5, (8, 1)),
        ("s71", 2, (7, 1)), ("s72", 3, (7, 2)), ("s81", 4, (8, 1)),
        ("s82", 3, (8, 2)), ("s91", 2, (9, 1)), ("s92", 3, (9, 2)),
    ]
    corpus = Corpus([fixture_exercise(i, d, s) for i, d, s in spec], levels=5)
    cands = ranked_candidates(corpus, [ex_id for ex_id, _, _ in spec[1:]])
    return corpus, PreparedQuery(corpus["q"], PreparedCorpus.with_own_vocab(corpus)), cands


def ranked_candidates(corpus, ex_ids):
    """The corpus rows of ``ex_ids`` as a candidate list, scores descending."""
    return candidates_of(corpus.index, [Candidate(ex_id, 1.0 - 0.01 * k, "both")
                                        for k, ex_id in enumerate(ex_ids)])


def ids(cands):
    return [c.ex_id for c in cands]


def profile(ability="average", mode="synchronous", stage=(8, 1)):
    return rr.StudentProfile(ability=ability, stage_mode=mode, current_stage=stage)


def test_profile_validation():
    with pytest.raises(ValueError):
        rr.StudentProfile("brilliant", "synchronous", (8, 1))
    with pytest.raises(ValueError):
        rr.StudentProfile("weak", "cramming", (8, 1))
    p = rr.StudentProfile("weak", "review", (8, 1))
    assert p.current_stage == (8, 1)


def test_profile_converts_a_stage_list_to_a_tuple():
    """A list stage used to fail hashing the query cache's key."""
    p = rr.StudentProfile("weak", "review", [8, np.int64(1)])
    assert p.current_stage == (8, 1) and type(p.current_stage) is tuple
    assert all(type(v) is int for v in p.current_stage)
    assert hash(p) == hash(rr.StudentProfile("weak", "review", (8, 1)))


@pytest.mark.parametrize("stage", [(8,), ("8", "1"), (8, 1, 2), "81", 8, (8.0, 1),
                                   (True, 1)])
def test_profile_refuses_a_stage_not_two_integers(stage):
    """(8,) used to fail unpacking in stage_filter, ("8", "1") comparing
    strings with the corpus's integer stages there."""
    with pytest.raises(ValueError, match="current_stage"):
        rr.StudentProfile("weak", "review", stage)


def test_personalize_excellent_keeps_similar_or_harder(fixture_corpus):
    corpus, query, _ = fixture_corpus
    cands = ranked_candidates(corpus, [f"d{k}" for k in (2, 3, 4)])
    out = rr.personalize_filter(cands, 3, profile("excellent"), corpus)
    assert ids(out) == ["d3", "d4"]


def test_personalize_weak_keeps_similar_or_easier(fixture_corpus):
    corpus, query, _ = fixture_corpus
    cands = ranked_candidates(corpus, [f"d{k}" for k in (2, 3, 4)])
    out = rr.personalize_filter(cands, 3, profile("weak"), corpus)
    assert ids(out) == ["d2", "d3"]


def test_personalize_average_within_one_level(fixture_corpus):
    corpus, query, _ = fixture_corpus
    cands = ranked_candidates(corpus, [f"d{k}" for k in (1, 2, 3, 4, 5)])
    out = rr.personalize_filter(cands, 3, profile("average"), corpus)
    assert ids(out) == ["d2", "d3", "d4"]


def test_personalize_no_profile_is_identity(fixture_corpus):
    corpus, query, cands = fixture_corpus
    assert list(rr.personalize_filter(cands, 3, None, corpus)) == list(cands)


def test_stage_filter_synchronous(fixture_corpus):
    corpus, query, _ = fixture_corpus
    cands = ranked_candidates(corpus, ["s71", "s72", "s81", "s82", "s91", "s92"])
    out = rr.stage_filter(cands, profile(mode="synchronous", stage=(8, 1)), corpus)
    # candidates beyond (8, 1) are removed, including (9, 1)
    assert ids(out) == ["s71", "s72", "s81"]
    # the metadata arrays follow the corpus's rows, so other rows are refused
    with pytest.raises(ValueError, match="not rows of this corpus"):
        rr.stage_filter(candidates_of(RowIndex(corpus.ids), cands),
                        profile(mode="synchronous"), corpus)


def test_stage_filter_review_compares_semester(fixture_corpus):
    corpus, query, _ = fixture_corpus
    cands = ranked_candidates(corpus, ["s71", "s72", "s81", "s82", "s91", "s92"])
    out = rr.stage_filter(cands, profile(mode="review", stage=(8, 1)), corpus)
    # same-grade later semester removed, same semester kept (any grade)
    assert "s82" not in ids(out)
    assert "s81" in ids(out)
    assert ids(out) == ["s71", "s81", "s91"]


def test_filters_idempotent(fixture_corpus):
    corpus, query, cands = fixture_corpus
    p = profile("excellent", "synchronous", (8, 2))
    once = rr.stage_filter(cands, p, corpus)
    assert list(rr.stage_filter(once, p, corpus)) == list(once)
    once_d = rr.personalize_filter(cands, 3, p, corpus)
    assert list(rr.personalize_filter(once_d, 3, p, corpus)) == list(once_d)


def test_permissive_profile_is_superset(fixture_corpus):
    corpus, query, cands = fixture_corpus
    permissive = profile("excellent", "review", (9, 2))
    loose_stage = rr.stage_filter(cands, permissive, corpus)
    assert ids(loose_stage) == ids(cands)  # nothing exceeds the max stage
    for ability in ("weak", "average", "excellent"):
        for mode in ("synchronous", "review"):
            strict = profile(ability, mode, (8, 1))
            stage_kept = rr.stage_filter(cands, strict, corpus)
            assert set(ids(stage_kept)) <= set(ids(loose_stage))


def test_rerank_pass_through_without_profile_or_classifier(fixture_corpus):
    corpus, query, cands = fixture_corpus
    out = rr.rerank(query, cands, None, None)
    assert out.variant == []
    assert [i.ex_id for i in out.similar] == ids(cands)
    assert all(i.passed == () for i in out.similar)


def test_rerank_keeps_every_candidate_and_names_the_filters(fixture_corpus):
    """Recall filters a profiled miss; re-rank drops nothing it is given."""
    corpus, query, cands = fixture_corpus
    strict = profile("weak", "synchronous", (1, 1))
    out = rr.rerank(query, cands, strict, None)
    assert out.all_ids() == ids(cands)
    assert all(i.passed == ("stage", "difficulty") for i in out.similar)


@pytest.mark.parametrize("n_variant, with_probs", [(4, True), (0, True), (0, False)])
def test_reranked_result_spells_ids_and_sources_when_read(fixture_corpus, monkeypatch,
                                                          n_variant, with_probs):
    """Construction reads no id or source name; what a result gives when
    read equals the values spelled from its candidates up front."""
    corpus, _, cands = fixture_corpus
    cands = candidates_of(corpus.index, [Candidate(c.ex_id, c.score, SOURCES[k % len(SOURCES)])
                                         for k, c in enumerate(cands)])
    probs = np.linspace(0.9, 0.1, len(cands)) if with_probs else None
    passed = ("stage", "difficulty", "variant")

    def refuse(self):
        raise AssertionError("a candidate list was spelled at construction")

    with monkeypatch.context() as patched:
        patched.setattr(Candidates, "ids", property(refuse))
        patched.setattr(Candidates, "source_names", property(refuse))
        result = rr.RerankedResult(cands, list(passed), variant_probs=probs,
                                   n_variant=n_variant)
    eager = list(cands)
    items = [rr.RerankedItem(c.ex_id, c.score, c.source, passed, p)
             for c, p in zip(eager, [None] * len(eager) if probs is None else probs.tolist())]
    assert result.ids == tuple(c.ex_id for c in eager)
    assert result.sources == tuple(c.source for c in eager) and len(set(result.sources)) == 3
    assert result.scores.tolist() == [c.score for c in eager]
    assert result.variant == items[:n_variant] and result.similar == items[n_variant:]
    assert result.all_ids() == [c.ex_id for c in eager]
    assert result.to_dict() == {
        part: [{"id": i.ex_id, "score": i.score, "source": i.source,
                "passed": list(passed), "variant_prob": i.variant_prob} for i in kept]
        for part, kept in (("variant", items[:n_variant]), ("similar", items[n_variant:]))}


def both_filters(cands, p, corpus, query_difficulty=3):
    return rr.personalize_filter(rr.stage_filter(cands, p, corpus), query_difficulty, p,
                                 corpus)


def test_rerank_empty_when_filters_remove_all(fixture_corpus):
    corpus, query, cands = fixture_corpus
    strict = profile("weak", "synchronous", (1, 1))
    kept = both_filters(cands, strict, corpus)
    assert len(kept) == 0
    out = rr.rerank(query, kept, strict, None)
    assert out.variant == [] and out.similar == []


def test_rerank_output_subset_and_order(fixture_corpus):
    corpus, query, cands = fixture_corpus
    p = profile("average", "synchronous", (8, 2))
    kept = both_filters(cands, p, corpus)
    out_ids = rr.rerank(query, kept, p, None).all_ids()
    assert out_ids == ids(kept)
    assert 0 < len(out_ids) < len(cands)
    assert out_ids == [i for i in ids(cands) if i in out_ids]


# ---------------------------------------------------------------------------
# variant classifier on synthetic data

@pytest.fixture(scope="module")
def variant_setup():
    spec = SyntheticSpec(n_templates=4, per_template=12, noise_rate=0.0,
                         vocab_size=150, seed=37)
    corpus, truth, pairs = generate_synthetic(spec, d_img=8)
    view = PreparedCorpus.with_own_vocab(corpus)
    params, _ = enc.pretrain(view, enc.PretrainConfig(d=16, epochs=8, seed=2))
    params, _ = enc.fine_tune(
        params, pairs, view, enc.FinetuneConfig(epochs=3, n_negatives=6, seed=2))
    served = PreparedCorpus(corpus, view.vocab, params)
    clf = rr.VariantClassifier(rr.train_variant(pairs, served), PairFeaturizer(served))
    return corpus, truth, pairs, view.vocab, params, clf


def test_variant_classifier_accuracy(variant_setup):
    corpus, truth, pairs, _, params, clf = variant_setup
    flagged = [p for p in pairs if p.variant is not None]
    correct = 0
    view = clf.featurizer.view
    for p in flagged:
        a, b = PreparedQuery(corpus[p.a_id], view), PreparedQuery(corpus[p.b_id], view)
        got = clf.prob(a, b) >= inspect.signature(rr.rerank).parameters[
            "variant_threshold"].default
        correct += got == (p.variant == "variant")
    assert correct / len(flagged) > 0.8


def test_variant_verbatim_candidate_is_plain_similar(variant_setup):
    corpus, _, _, _, _, clf = variant_setup
    ex = PreparedQuery(next(iter(corpus)), clf.featurizer.view)
    assert clf.prob(ex, ex) < 0.2


def test_variant_directional_contract(variant_setup):
    corpus, _, pairs, _, _, clf = variant_setup
    p = next(p for p in pairs if p.variant == "variant")
    view = clf.featurizer.view
    a, b = PreparedQuery(corpus[p.a_id], view), PreparedQuery(corpus[p.b_id], view)
    ab, ba = clf.prob(a, b), clf.prob(b, a)
    assert 0.0 <= ab <= 1.0 and 0.0 <= ba <= 1.0


def test_rerank_splits_variant_first(variant_setup):
    corpus, truth, pairs, vocab, params, clf = variant_setup
    p = next(p for p in pairs if p.variant == "variant")
    query = PreparedQuery(corpus[p.a_id], clf.featurizer.view)
    mates = sorted(truth.mates(p.a_id))
    cands = ranked_candidates(corpus, mates)
    # the split reads candidates from the rows of the query's view
    elsewhere = ranked_candidates(Corpus(list(corpus)), mates)
    with pytest.raises(ValueError, match="not rows of the query's view"):
        rr.rerank(query, elsewhere, None, clf.classifier)
    out = rr.rerank(query, cands, None, clf.classifier)
    assert p.b_id in [i.ex_id for i in out.variant]
    for lst in (out.variant, out.similar):
        scores = [i.score for i in lst]
        assert scores == sorted(scores, reverse=True)
    assert set(out.all_ids()) == set(mates)
