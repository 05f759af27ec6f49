import itertools
import math

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from exsim.corpus import RowIndex, SyntheticSpec, generate_dedup_pairs, generate_synthetic
from exsim.encoder import embed_text, init_params
from exsim.pairclf import PairClassifier, PairFeaturizer, PreparedCorpus, PreparedQuery
from exsim.recall import (
    BM25_B, BM25_K1, KEPT_COUNTS, SOURCES, Candidate, Candidates, DuplicateDetector,
    LexicalIndex, RecallConfig, Recaller, VectorIndex, merge_candidates, train_dedup,
)
from exsim.textnorm import normalize_text, split_tokens


def vocab_of(corpus, stop_words=()):
    return PreparedCorpus.with_own_vocab(corpus, stop_words).vocab


def embedded_from_text(corpus, vocab, params):
    """Every exercise embedded alone from its own text, row by row."""
    return np.stack([embed_text(np.array([vocab.id_of(t) for t in split_tokens(
        normalize_text(ex.text, vocab.stop_words)[0])], dtype=np.int64), params)
        for ex in corpus])


def brute_force_bm25(index: LexicalIndex, token_lists, query_tokens, query_concepts):
    """Independent per-document BM25 plus concept bonus, matching the
    documented scoring rule term for term (same float op order)."""
    counts = {}
    for t in query_tokens:
        counts[t] = counts.get(t, 0) + 1
    n_docs = len(index.ids)
    results = {}
    for row, doc_tokens in enumerate(token_lists):
        doc_counts = {}
        for t in doc_tokens:
            doc_counts[t] = doc_counts.get(t, 0) + 1
        score = 0.0
        matched = False
        for t in sorted(counts):
            tf = doc_counts.get(t, 0)
            if tf == 0:
                continue
            matched = True
            df = len(index.postings.get(t, ()))
            idf = math.log(1.0 + (n_docs - df + 0.5) / (df + 0.5))
            norm = len(doc_tokens) / index.avg_len
            score += counts[t] * idf * tf * (BM25_K1 + 1.0) / (
                tf + BM25_K1 * (1.0 - BM25_B + BM25_B * norm))
        if not matched:
            continue
        shared = len(query_concepts & index.concepts[row])
        if shared:
            score = score + index.concept_boost * shared
        results[row] = score
    return results


def corpus_token_lists(corpus):
    return [split_tokens(normalize_text(ex.text)[0]) for ex in corpus]


@pytest.fixture(scope="module")
def medium_synth():
    spec = SyntheticSpec(n_templates=6, per_template=20, noise_rate=0.0,
                         vocab_size=250, seed=21)
    return generate_synthetic(spec, d_img=8)


def test_lexical_scores_equal_brute_force(medium_synth):
    corpus, _, _ = medium_synth
    index = LexicalIndex.build(PreparedCorpus.with_own_vocab(corpus))
    token_lists = corpus_token_lists(corpus)
    for qi in (0, 17, 44, 101):
        query = corpus[corpus.ids[qi]]
        q_tokens = split_tokens(normalize_text(query.text)[0])
        q_concepts = frozenset(query.metadata.knowledge_concepts)
        expected = brute_force_bm25(index, token_lists, q_tokens, q_concepts)
        got = index.score_all(q_tokens, q_concepts)
        assert got == expected  # bitwise: same op order by construction
        ranked = index.search(q_tokens, q_concepts, k=25, exclude_id=query.id)
        oracle = sorted(((r, s) for r, s in expected.items()
                         if index.ids[r] != query.id),
                        key=lambda rs: (-rs[1], index.ids[rs[0]]))[:25]
        assert [(c.ex_id, c.score) for c in ranked] == \
            [(index.ids[r], s) for r, s in oracle]


def test_kept_bm25_terms_equal_brute_force(medium_synth):
    """One index answers every query twice, the second time from the terms
    the first kept. The queries hold tokens 1 to 20 times, over tokens kept
    dense and sparse, and one document has no tokens; scores equal the
    per-document loop bit for bit, ``len`` counts the documents sharing a
    query token, and no token keeps more than ``KEPT_COUNTS`` arrays."""
    corpus, _, _ = medium_synth
    token_lists = corpus_token_lists(corpus) + [[]]
    concepts = [frozenset(ex.metadata.knowledge_concepts) for ex in corpus] + [frozenset()]
    index = LexicalIndex(RowIndex(corpus.ids + ["no-tokens"]), token_lists, concepts)
    dense = sorted(t for t, plist in index.postings.items() if plist.dense)
    sparse = sorted(t for t, plist in index.postings.items() if not plist.dense)
    assert dense and sparse
    own = token_lists[17]
    queries = [[dense[0]] * count + [sparse[0]] * (5 - count) + own[:count]
               for count in range(1, 5)]
    queries += [own, own * 4, [dense[-1], sparse[-1], "zzzznotaword"] * 3]
    queries += [[dense[0], sparse[0]] * count for count in range(5, 21)]
    q_concepts = frozenset(corpus[corpus.ids[17]].metadata.knowledge_concepts)
    for _ in range(2):
        for query in queries:
            got = index.score_all(query, q_concepts)
            assert got == brute_force_bm25(index, token_lists, query, q_concepts)
            assert len(got) == sum(1 for doc in token_lists if set(doc) & set(query))
    for token in (dense[0], sparse[0]):
        assert sorted(index.postings[token]._kept) == list(range(1, KEPT_COUNTS + 1))
    assert max(len(plist._kept) for plist in index.postings.values()) == KEPT_COUNTS


def test_lexical_verbatim_copy_ranks_first(medium_synth):
    corpus, _, _ = medium_synth
    index = LexicalIndex.build(PreparedCorpus.with_own_vocab(corpus))
    target = corpus[corpus.ids[7]]
    q_tokens = split_tokens(normalize_text(target.text)[0])
    ranked = index.search(q_tokens, frozenset(target.metadata.knowledge_concepts), k=5)
    assert ranked.ids[0] == target.id


def test_lexical_zero_overlap_returns_empty(medium_synth):
    corpus, _, _ = medium_synth
    index = LexicalIndex.build(PreparedCorpus.with_own_vocab(corpus))
    assert len(index.search(["zzzznotaword"], frozenset(), k=10)) == 0
    assert len(index.search([], frozenset(), k=10)) == 0


def test_vector_search_exact_matches_reembedded_oracle(medium_synth):
    corpus, _, _ = medium_synth
    vocab = vocab_of(corpus)
    params = init_params(corpus, vocab, d=12, seed=0)
    index = VectorIndex.build(PreparedCorpus(corpus, vocab, params))
    # oracle: re-embed everything from scratch and rank independently
    matrix, ids = embedded_from_text(corpus, vocab, params), corpus.ids
    for qi in (0, 31, 99):
        q = matrix[qi]
        got = index.search(q, k=20, exclude_id=ids[qi])
        sims = matrix @ q
        oracle = sorted(((i, float(s)) for i, s in enumerate(sims) if i != qi),
                        key=lambda t: (-t[1], ids[t[0]]))[:20]
        assert [(c.ex_id, c.score) for c in got] == [(ids[i], s) for i, s in oracle]


def test_vector_query_equal_to_row(medium_synth):
    corpus, _, _ = medium_synth
    vocab = vocab_of(corpus)
    params = init_params(corpus, vocab, d=12, seed=0)
    index = VectorIndex.build(PreparedCorpus(corpus, vocab, params))
    row = 5
    got = index.search(index.matrix[row], k=3)
    assert got.ids[0] == index.ids[row]
    assert got.scores[0] == pytest.approx(1.0, abs=1e-9)


def test_vector_k_larger_than_corpus(medium_synth):
    corpus, _, _ = medium_synth
    vocab = vocab_of(corpus)
    params = init_params(corpus, vocab, d=8, seed=0)
    index = VectorIndex.build(PreparedCorpus(corpus, vocab, params))
    got = index.search(index.matrix[0], k=10 * len(corpus))
    assert len(got) == len(corpus)
    scores = [c.score for c in got]
    assert scores == sorted(scores, reverse=True)


def test_vector_dimension_mismatch(medium_synth):
    corpus, _, _ = medium_synth
    vocab = vocab_of(corpus)
    params = init_params(corpus, vocab, d=8, seed=0)
    index = VectorIndex.build(PreparedCorpus(corpus, vocab, params))
    with pytest.raises(ValueError, match="dimension"):
        index.search(np.zeros(9), k=5)


# ---------------------------------------------------------------------------
# top-k against the sorted oracle, ties and edge cases

def sorted_oracle(ids, scores, k, exclude_id):
    """``sorted`` over every (row, score) by (-score, id), cut at k."""
    ranked = sorted(((r, s) for r, s in scores.items() if ids[r] != exclude_id),
                    key=lambda rs: (-rs[1], ids[rs[0]]))
    return [(ids[r], s) for r, s in ranked[:k]]


# short ids in random order, so sorted-id order differs from row order
ids_st = st.lists(st.text(alphabet="pqrs", min_size=1, max_size=3),
                  max_size=12, unique=True)
# a tiny token alphabet and a few stock documents, so scores tie often
doc_st = st.one_of(
    st.sampled_from([["a"], ["a", "b"], ["b", "c", "c"], ["d", "a", "d", "b"]]),
    st.lists(st.sampled_from(["a", "b", "c", "d"]), max_size=5))
concepts_st = st.frozensets(st.sampled_from(["k1", "k2"]), max_size=1)


def exclude_of(ids, pick):
    """None, an id absent from the index, or one of its ids."""
    if pick == 0:
        return None
    if pick == 1 or not ids:
        return "absent"
    return ids[pick % len(ids)]


@settings(max_examples=300, deadline=None)
@given(ids=ids_st, data=st.data(),
       query=st.lists(st.sampled_from(["a", "b", "c", "d", "zz"]), max_size=6),
       q_concepts=concepts_st, boost=st.sampled_from([0.0, 0.5, 1.0]),
       k=st.integers(0, 14), pick=st.integers(0, 5))
@example(ids=[], data=None, query=["a"], q_concepts=frozenset(), boost=0.5, k=3, pick=1)
def test_lexical_search_equals_sorted_oracle(ids, data, query, q_concepts, boost,
                                             k, pick):
    n = len(ids)
    docs = data.draw(st.lists(doc_st, min_size=n, max_size=n)) if n else []
    concepts = data.draw(st.lists(concepts_st, min_size=n, max_size=n)) if n else []
    index = LexicalIndex(RowIndex(ids), docs, concepts, concept_boost=boost)
    expected = brute_force_bm25(index, docs, query, q_concepts)
    got = index.score_all(query, q_concepts)
    assert got == expected
    assert len(got) == len(expected)
    exclude = exclude_of(ids, pick)
    ranked = index.search(query, q_concepts, k, exclude_id=exclude)
    assert [(c.ex_id, c.score) for c in ranked] == \
        sorted_oracle(ids, expected, k, exclude)


# unit rows from a small set (with repeats) give exact ties, also at zero
UNIT_ROWS = [np.array(v, dtype=np.float64) / np.linalg.norm(v)
             for v in ([1, 0, 0], [0, 1, 0], [0.6, 0.8, 0], [1, 1, 1], [0, 0, -1])]


@settings(max_examples=300, deadline=None)
@given(ids=ids_st, data=st.data(),
       query=st.lists(st.integers(-3, 3), min_size=3, max_size=3),
       k=st.integers(0, 14), pick=st.integers(0, 5))
@example(ids=[], data=None, query=[1, 0, 0], k=2, pick=0)
def test_vector_search_equals_sorted_oracle(ids, data, query, k, pick):
    n = len(ids)
    which = data.draw(st.lists(st.integers(0, len(UNIT_ROWS) - 1),
                               min_size=n, max_size=n)) if n else []
    matrix = (np.stack([UNIT_ROWS[w] for w in which]) if n
              else np.zeros((0, 3)))
    index = VectorIndex(matrix, RowIndex(ids))
    q = np.array(query, dtype=np.float64)
    exclude = exclude_of(ids, pick)
    got = index.search(q, k, exclude_id=exclude)
    scores = dict(enumerate((matrix @ q).tolist()))
    assert [(c.ex_id, c.score) for c in got] == sorted_oracle(ids, scores, k, exclude)


# ---------------------------------------------------------------------------
# merge rule

def reference_merge(exact, embed, n):
    """The merge rule over lists of ``Candidate``, written item by item."""
    if n < 1:
        raise ValueError("n must be >= 1")
    exact_ids = {c.ex_id for c in exact}
    embed_ids = {c.ex_id for c in embed}
    inter = [Candidate(c.ex_id, c.score, "both")
             for c in embed if c.ex_id in exact_ids]
    if len(inter) >= n:
        return inter[:n]
    rem = n - len(inter)
    exact_only = [c for c in exact if c.ex_id not in embed_ids]
    embed_only = [c for c in embed if c.ex_id not in exact_ids]
    want_exact = (rem + 1) // 2
    want_embed = rem - want_exact
    take_exact = min(want_exact, len(exact_only))
    take_embed = min(want_embed, len(embed_only))
    leftover = rem - take_exact - take_embed
    if leftover > 0:
        extra = min(leftover, len(embed_only) - take_embed)
        take_embed += extra
        leftover -= extra
    if leftover > 0:
        take_exact += min(leftover, len(exact_only) - take_exact)
    merged = list(inter)
    e_list = exact_only[:take_exact]
    m_list = embed_only[:take_embed]
    for i in range(max(len(e_list), len(m_list))):
        if i < len(e_list):
            merged.append(e_list[i])
        if i < len(m_list):
            merged.append(m_list[i])
    return merged


def candidates_of(index, items):
    """The ``Candidate`` list ``items``, whose ids are ``index``'s, as columns."""
    items = list(items)
    return Candidates(index, np.array([index.row_of[c.ex_id] for c in items], dtype=np.intp),
                      np.array([c.score for c in items], dtype=np.float64),
                      np.array([SOURCES.index(c.source) for c in items], dtype=np.int8))


def make_lists(n_exact, n_embed, n_inter):
    inter_ids = [f"i{k}" for k in range(n_inter)]
    exact_ids = inter_ids + [f"e{k}" for k in range(n_exact - n_inter)]
    embed_ids = inter_ids + [f"m{k}" for k in range(n_embed - n_inter)]
    index = RowIndex(dict.fromkeys(embed_ids[::-1] + exact_ids))
    exact = candidates_of(index, [Candidate(x, 100.0 - j, "exact")
                                  for j, x in enumerate(exact_ids)])
    embed = candidates_of(index, [Candidate(x, 10.0 - 0.1 * j, "embed")
                                  for j, x in enumerate(embed_ids)])
    return exact, embed


def test_merge_worked_example_even_split():
    exact, embed = make_lists(n_exact=12, n_embed=12, n_inter=4)
    out = merge_candidates(exact, embed, n=10)
    assert len(out) == 10
    assert out.ids[:4] == ["i0", "i1", "i2", "i3"]
    assert sum(1 for c in out if c.source == "exact") == 3
    assert sum(1 for c in out if c.source == "embed") == 3


def test_merge_worked_example_odd_remainder_favors_exact():
    exact, embed = make_lists(n_exact=12, n_embed=12, n_inter=3)
    out = merge_candidates(exact, embed, n=10)
    assert len(out) == 10
    assert sum(1 for c in out if c.source == "both") == 3
    assert sum(1 for c in out if c.source == "exact") == 4
    assert sum(1 for c in out if c.source == "embed") == 3


def test_merge_identical_lists_returns_top_n():
    exact, embed = make_lists(n_exact=8, n_embed=8, n_inter=8)
    out = merge_candidates(exact, embed, n=5)
    assert out.ids == embed.ids[:5]
    assert all(c.source == "both" for c in out)


def test_merge_exhaustive_small_cases():
    for n_exact, n_embed, n in itertools.product(range(0, 9), range(0, 9), range(1, 9)):
        for n_inter in range(0, min(n_exact, n_embed) + 1):
            exact, embed = make_lists(n_exact, n_embed, n_inter)
            out = merge_candidates(exact, embed, n)
            ids = [c.ex_id for c in out]
            assert len(ids) == len(set(ids)), "no duplicates"
            input_ids = {c.ex_id for c in exact} | {c.ex_id for c in embed}
            assert set(ids) <= input_ids, "members come from the inputs"
            # independent cardinality oracle
            if n_inter >= n:
                assert ids == [f"i{k}" for k in range(n)]
                continue
            rem = n - n_inter
            ae, am = n_exact - n_inter, n_embed - n_inter
            want_exact = (rem + 1) // 2
            size = min(n, n_inter + ae + am)
            got_rem = size - n_inter
            te = max(min(want_exact, ae), got_rem - am)
            tm = got_rem - te
            assert len(out) == size
            assert sum(1 for c in out if c.source == "both") == n_inter
            assert sum(1 for c in out if c.source == "exact") == te
            assert sum(1 for c in out if c.source == "embed") == tm
            # intersection first, ordered by embedding score
            assert ids[:n_inter] == [f"i{k}" for k in range(n_inter)]


def test_merge_rejects_bad_n():
    with pytest.raises(ValueError):
        merge_candidates([], [], 0)
    exact, embed = make_lists(3, 3, 1)
    with pytest.raises(ValueError, match="different indexes"):
        merge_candidates(exact, candidates_of(RowIndex(embed.ids), embed), 2)


def channel_list(index, data, source):
    """Distinct rows of ``index`` in any order, scores from a small set so
    they tie often."""
    rows = data.draw(st.lists(st.integers(0, max(len(index) - 1, 0)), unique=True,
                              max_size=len(index)))
    scores = data.draw(st.lists(st.sampled_from([0.0, 0.5, 1.0, 2.5]),
                                min_size=len(rows), max_size=len(rows)))
    return Candidates(index, np.array(rows, dtype=np.intp), np.array(scores),
                      np.full(len(rows), SOURCES.index(source), dtype=np.int8))


@settings(max_examples=500, deadline=None)
@given(ids=ids_st, data=st.data(), n=st.integers(1, 30))
@example(ids=[], data=None, n=1)
def test_merge_equals_list_reference(ids, data, n):
    """Overlapping channels, score ties, one side short or empty, any n."""
    index = RowIndex(ids)
    if ids:
        exact = channel_list(index, data, "exact")
        embed = channel_list(index, data, "embed")
    else:
        exact = embed = Candidates.empty(index)
    got = merge_candidates(exact, embed, n)
    assert list(got) == reference_merge(list(exact), list(embed), n)
    assert got.rows.dtype == np.intp and got.scores.dtype == np.float64


# ---------------------------------------------------------------------------
# duplicate detection and full recall

@pytest.fixture(scope="module")
def dedup_setup(small_trained_module):
    corpus, truth, pairs, vocab, params = small_trained_module
    dedup_pairs = generate_dedup_pairs(corpus, truth, seed=13, n_anchors=40)
    detector = DuplicateDetector(train_dedup(dedup_pairs, vocab, params),
                                 PairFeaturizer(PreparedCorpus(corpus, vocab, params)))
    return corpus, truth, vocab, params, detector


@pytest.fixture(scope="module")
def small_trained_module():
    from exsim import encoder as enc
    spec = SyntheticSpec(n_templates=4, per_template=10, noise_rate=0.0,
                         vocab_size=150, seed=31)
    corpus, truth, pairs = generate_synthetic(spec, d_img=8)
    view = PreparedCorpus.with_own_vocab(corpus)
    params, _ = enc.pretrain(corpus, view.vocab, view.stem_ids(), view.analysis_ids(),
                             enc.PretrainConfig(d=16, epochs=8, seed=2))
    params, _ = enc.fine_tune(params, pairs, corpus, view.stem_ids(),
                              enc.FinetuneConfig(epochs=3, n_negatives=6, seed=2))
    return corpus, truth, pairs, view.vocab, params


def test_dedup_identical_exercise_is_duplicate(dedup_setup):
    corpus, _, vocab, _, detector = dedup_setup
    ex = PreparedQuery(next(iter(corpus)), vocab)
    assert detector.prob(ex, ex) > 0.99


def test_dedup_symmetric_exactly(dedup_setup):
    corpus, _, vocab, _, detector = dedup_setup
    ids = corpus.ids
    for a_id, b_id in [(ids[0], ids[1]), (ids[3], ids[25]), (ids[10], ids[39])]:
        a, b = PreparedQuery(corpus[a_id], vocab), PreparedQuery(corpus[b_id], vocab)
        assert detector.prob(a, b) == detector.prob(b, a)


def test_dedup_table_semantics(dedup_setup):
    # year-digit noise is a duplicate; a raised equation degree is not
    corpus, truth, vocab, _, detector = dedup_setup
    from exsim.corpus import _clone, _raise_power
    checked_dup = checked_distinct = 0
    for ex_id in corpus.ids[::7]:
        ex = corpus[ex_id]
        query = PreparedQuery(ex, vocab)
        year_copy = PreparedQuery(_clone(ex, f"{ex.stem} in 2021", "-y"), vocab)
        assert detector.prob(query, year_copy) >= 0.5
        checked_dup += 1
        mutated = _raise_power(ex.stem)
        if mutated is not None and mutated != ex.stem:
            power_copy = PreparedQuery(_clone(ex, mutated, "-p"), vocab)
            assert detector.prob(query, power_copy) < 0.5
            checked_distinct += 1
    assert checked_dup >= 3 and checked_distinct >= 3


def test_recall_excludes_duplicates_of_query(dedup_setup):
    corpus, truth, vocab, params, detector = dedup_setup
    from exsim.corpus import Corpus, _clone
    query = corpus[corpus.ids[5]]
    clone = _clone(query, query.stem, "-twin")
    bigger = Corpus(list(corpus) + [clone], levels=corpus.levels, d_img=corpus.d_img)
    view = PreparedCorpus(bigger, vocab, params)
    recaller = Recaller.build(view, DuplicateDetector(detector.classifier, PairFeaturizer(view)),
                              RecallConfig(k_exact=50, k_embed=50, n=30))
    out = recaller.recall(PreparedQuery(query, vocab))
    ids = [c.ex_id for c in out]
    assert query.id not in ids
    assert clone.id not in ids
    assert len(ids) == len(set(ids))


def test_recall_merges_channels_once(small_trained_module):
    corpus, _, _, vocab, params = small_trained_module
    recaller = Recaller.build(PreparedCorpus(corpus, vocab, params),
                              config=RecallConfig(k_exact=30, k_embed=30, n=20))
    query = corpus[corpus.ids[0]]
    out = recaller.recall(PreparedQuery(query, vocab))
    ids = [c.ex_id for c in out]
    assert len(ids) == len(set(ids))
    assert len(ids) <= 20
    assert query.id not in ids


def test_indexes_built_from_a_view_equal_those_built_from_text(medium_synth):
    """The view's rows and token lists equal every exercise embedded and
    normalized afresh from its own text."""
    corpus, _, _ = medium_synth
    stop = ("the", "of")
    vocab = vocab_of(corpus, stop)
    params = init_params(corpus, vocab, d=12, seed=0)
    view = PreparedCorpus(corpus, vocab, params)
    vector = VectorIndex.build(view)
    assert np.array_equal(vector.matrix, embedded_from_text(corpus, vocab, params))
    assert np.array_equal(vector.matrix, view.embeddings)
    assert vector.ids == corpus.ids
    lexical = LexicalIndex.build(view, 0.7)
    plain = LexicalIndex(corpus.index,
                         [split_tokens(normalize_text(ex.text, stop)[0]) for ex in corpus],
                         [frozenset(ex.metadata.knowledge_concepts) for ex in corpus], 0.7)
    assert lexical.avg_len == plain.avg_len and lexical.ids == plain.ids
    assert lexical.concepts == plain.concepts and lexical.concept_boost == 0.7
    assert set(lexical.postings) == set(plain.postings)
    for t, got in lexical.postings.items():
        want = plain.postings[t]
        assert got.idf == want.idf
        for field in ("rows", "tf", "denom"):
            assert np.array_equal(getattr(got, field), getattr(want, field)), (t, field)
    recaller = Recaller.build(view)
    assert recaller.view is view
    # both channels and the view read the corpus's one row index
    assert recaller.lexical.index is recaller.vector.index is corpus.index is view.index
    assert np.array_equal(recaller.vector.matrix, vector.matrix)


def test_recaller_refuses_a_dedup_head_over_another_view(medium_synth):
    """Dedup reads the rows of its featurizer's view, so that view must be
    the one the indexes are built from."""
    corpus, _, _ = medium_synth
    vocab = vocab_of(corpus)
    params = init_params(corpus, vocab, d=12, seed=0)
    view = PreparedCorpus(corpus, vocab, params)
    head = PairClassifier(np.zeros(4 * 12 + 1), 0.0)
    for other in (PreparedCorpus(corpus, vocab, params), view.embedded_with(params)):
        with pytest.raises(ValueError, match="not over this view"):
            Recaller.build(view, DuplicateDetector(head, PairFeaturizer(other)))
    recaller = Recaller.build(view, DuplicateDetector(head, PairFeaturizer(view)))
    assert recaller.dedup.featurizer.view is view
