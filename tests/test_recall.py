import dataclasses
import itertools
import math
import tracemalloc
from collections import Counter

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from exsim.corpus import Corpus, RowIndex, SyntheticSpec, _clone, generate_synthetic
from exsim.encoder import embed_text, init_params
from exsim.pairclf import CodeTable, PairFeaturizer, PreparedCorpus, PreparedQuery, pad_codes
from exsim.recall import (
    BM25_B, BM25_K1, KEPT_COUNTS, SOURCES, Candidate, Candidates, DuplicateDetector,
    LexicalIndex, RecallConfig, Recaller, VectorIndex, merge_candidates, train_dedup,
)
from exsim.textnorm import Vocab, normalize_text, split_tokens


def vocab_of(corpus, stop_words=()):
    return PreparedCorpus.with_own_vocab(corpus, stop_words).vocab


def embedded_from_text(corpus, vocab, params):
    """Every exercise embedded alone from its own text, row by row."""
    return np.stack([embed_text(np.array([vocab.id_of(t) for t in split_tokens(
        normalize_text(ex.text, vocab.stop_words))], dtype=np.int64), params)
        for ex in corpus])


def brute_force_bm25(docs, query_tokens, query_concepts, concepts, boost):
    """Independent per-document BM25 plus concept bonus over token strings,
    adding a document's terms in sorted-token order: the documented scoring
    rule term for term (same float op order)."""
    n_docs = len(docs)
    avg_len = sum(len(doc) for doc in docs) / n_docs if n_docs else 0.0
    df = Counter(t for doc in docs for t in set(doc))
    counts = Counter(query_tokens)
    results = {}
    for row, doc_tokens in enumerate(docs):
        doc_counts = Counter(doc_tokens)
        score = 0.0
        matched = False
        for t in sorted(counts):
            tf = doc_counts.get(t, 0)
            if tf == 0:
                continue
            matched = True
            idf = math.log(1.0 + (n_docs - df[t] + 0.5) / (df[t] + 0.5))
            norm = len(doc_tokens) / avg_len
            score += counts[t] * idf * tf * (BM25_K1 + 1.0) / (
                tf + BM25_K1 * (1.0 - BM25_B + BM25_B * norm))
        if not matched:
            continue
        shared = len(query_concepts & concepts[row])
        if shared:
            score = score + boost * shared
        results[row] = score
    return results


def as_dict(scored):
    """A ``RowScores`` as the ``{row: score}`` dict it stands for."""
    return dict(zip(scored.rows.tolist(), scored.scores.tolist()))


def coded_index(ids, docs, concepts, boost=0.5, vocab=None):
    """A ``LexicalIndex`` over the token lists ``docs`` coded under ``vocab``,
    by default ``Vocab.build``'s, whose ids go by count first, so code order
    is not token order; and the coding of a query's tokens under its table."""
    vocab = Vocab.build(docs) if vocab is None else vocab
    table = CodeTable(vocab)
    codes, lengths = pad_codes([table.encode(doc) for doc in docs])
    index = LexicalIndex(RowIndex(ids), codes, lengths, vocab, table.extra, concepts, boost)
    return index, lambda tokens: np.array(CodeTable(vocab, table.extra).encode(tokens),
                                          dtype=np.int64)


def view_codes(view, tokens):
    """``tokens`` coded under ``view``'s table, as a query's are."""
    return np.array(view.code_table().encode(tokens), dtype=np.int64)


def concepts_of(exercises):
    return [frozenset(ex.metadata.knowledge_concepts) for ex in exercises]


def corpus_token_lists(corpus, stop_words=()):
    return [split_tokens(normalize_text(ex.text, stop_words)) for ex in corpus]


@pytest.fixture(scope="module")
def medium_synth():
    spec = SyntheticSpec(n_templates=6, per_template=20, noise_rate=0.0,
                         vocab_size=250, seed=21)
    return generate_synthetic(spec, d_img=8)


def test_lexical_scores_equal_brute_force(medium_synth):
    """Over the view's codes, whose vocabulary ids go by count first."""
    corpus, _, _ = medium_synth
    view = PreparedCorpus.with_own_vocab(corpus)
    assert view.vocab.tokens != sorted(view.vocab.tokens)
    index = LexicalIndex.build(view)
    token_lists = corpus_token_lists(corpus)
    concepts = concepts_of(corpus)
    for qi in (0, 17, 44, 101):
        query = corpus[corpus.ids[qi]]
        q_tokens = split_tokens(normalize_text(query.text))
        q_codes = view_codes(view, q_tokens)
        q_concepts = frozenset(query.metadata.knowledge_concepts)
        expected = brute_force_bm25(token_lists, q_tokens, q_concepts, concepts, 0.5)
        got = index.score_all(q_codes, q_concepts)
        assert as_dict(got) == expected  # bitwise: same op order by construction
        ranked = index.search(q_codes, q_concepts, k=25, exclude_id=query.id)
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
    query token, and no code keeps more than ``KEPT_COUNTS`` arrays."""
    corpus, _, _ = medium_synth
    token_lists = corpus_token_lists(corpus) + [[]]
    concepts = concepts_of(corpus) + [frozenset()]
    index, code = coded_index(corpus.ids + ["no-tokens"], token_lists, concepts)
    tokens = sorted({t for doc in token_lists for t in doc})
    postings = {t: index.postings[int(code([t])[0])] for t in tokens}
    assert len(postings) == len(index.postings)
    dense = [t for t in tokens if postings[t].dense]
    sparse = [t for t in tokens if not postings[t].dense]
    assert dense and sparse
    own = token_lists[17]
    queries = [[dense[0]] * count + [sparse[0]] * (5 - count) + own[:count]
               for count in range(1, 5)]
    queries += [own, own * 4, [dense[-1], sparse[-1], "zzzznotaword"] * 3]
    queries += [[dense[0], sparse[0]] * count for count in range(5, 21)]
    q_concepts = frozenset(corpus[corpus.ids[17]].metadata.knowledge_concepts)
    for _ in range(2):
        for query in queries:
            got = index.score_all(code(query), q_concepts)
            assert as_dict(got) == brute_force_bm25(token_lists, query, q_concepts,
                                                    concepts, 0.5)
            assert len(got) == sum(1 for doc in token_lists if set(doc) & set(query))
    for token in (dense[0], sparse[0]):
        assert sorted(postings[token]._kept) == list(range(1, KEPT_COUNTS + 1))
    assert max(len(plist._kept) for plist in index.postings.values()) == KEPT_COUNTS


def test_lexical_verbatim_copy_ranks_first(medium_synth):
    corpus, _, _ = medium_synth
    view = PreparedCorpus.with_own_vocab(corpus)
    index = LexicalIndex.build(view)
    target = corpus[corpus.ids[7]]
    q_codes = view_codes(view, split_tokens(normalize_text(target.text)))
    ranked = index.search(q_codes, frozenset(target.metadata.knowledge_concepts), k=5)
    assert ranked.ids[0] == target.id


def test_lexical_zero_overlap_returns_empty(medium_synth):
    corpus, _, _ = medium_synth
    view = PreparedCorpus.with_own_vocab(corpus)
    index = LexicalIndex.build(view)
    assert len(index.search(view_codes(view, ["zzzznotaword"]), frozenset(), k=10)) == 0
    assert len(index.search(view_codes(view, []), frozenset(), k=10)) == 0


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


# (id, document, concepts) rows of the index, ids as in ids_st
rows_st = st.lists(st.tuples(st.text(alphabet="pqrs", min_size=1, max_size=3), doc_st,
                             concepts_st), max_size=12, unique_by=lambda row: row[0])


@settings(max_examples=300, deadline=None)
@given(rows=rows_st, query=st.lists(st.sampled_from(["a", "b", "c", "d", "zz"]), max_size=6),
       q_concepts=concepts_st, boost=st.sampled_from([-1.0, 0.0, 0.5, 1.0]),
       k=st.integers(0, 14), pick=st.integers(0, 5))
@example(rows=[], query=["a"], q_concepts=frozenset(), boost=0.5, k=3, pick=1)
# summed in code order (d, b, a), not token order, the score differs in its last bit
@example(rows=[("p", ["d", "a", "d", "b"], frozenset())], query=["b", "d", "b", "a"],
         q_concepts=frozenset(), boost=0.5, k=3, pick=0)
# the excluded "q" is the k-th best, tied with "r", the (k+1)-th
@example(rows=[("p", ["a", "b"], frozenset()), ("r", ["a"], frozenset()),
               ("q", ["a"], frozenset()), ("s", ["c"], frozenset())],
         query=["a", "b"], q_concepts=frozenset(), boost=0.5, k=2, pick=2)
# exactly k + 1 rows are touched, the excluded "q" the best of them
@example(rows=[("p", ["a"], frozenset()), ("r", ["b", "c"], frozenset()),
               ("q", ["a", "b"], frozenset()), ("s", ["d"], frozenset()),
               ("pq", ["c"], frozenset())],
         query=["a", "b"], q_concepts=frozenset(), boost=0.5, k=2, pick=2)
# k = N - 1, the excluded "q" touched and "p" not
@example(rows=[("s", ["a"], frozenset()), ("q", ["a", "b"], frozenset()),
               ("r", ["b"], frozenset()), ("p", ["c"], frozenset())],
         query=["a", "b"], q_concepts=frozenset(), boost=0.5, k=3, pick=5)
# the bonus takes the touched "p" below 0, and "q", untouched, gets none
@example(rows=[("p", ["a"], frozenset({"k1"})), ("q", ["b"], frozenset({"k1"})),
               ("r", ["a", "b"], frozenset()), ("s", ["a"], frozenset())],
         query=["a"], q_concepts=frozenset({"k1"}), boost=-1.0, k=3, pick=0)
def test_lexical_search_equals_sorted_oracle(rows, query, q_concepts, boost, k, pick):
    ids = [row[0] for row in rows]
    docs = [row[1] for row in rows]
    concepts = [row[2] for row in rows]
    # ids against token order, with "c" outside the vocabulary
    index, code = coded_index(ids, docs, concepts, boost, vocab=Vocab(["d", "b", "a"]))
    expected = brute_force_bm25(docs, query, q_concepts, concepts, boost)
    got = index.score_all(code(query), q_concepts)
    assert as_dict(got) == expected
    assert len(got) == len(expected)
    exclude = exclude_of(ids, pick)
    ranked = index.search(code(query), q_concepts, k, exclude_id=exclude)
    assert [(c.ex_id, c.score) for c in ranked] == \
        sorted_oracle(ids, expected, k, exclude)


# unit rows from a small set (with repeats) give exact ties, also at zero
UNIT_ROWS = [np.array(v, dtype=np.float64) / np.linalg.norm(v)
             for v in ([1, 0, 0], [0, 1, 0], [0.6, 0.8, 0], [1, 1, 1], [0, 0, -1])]


@settings(max_examples=300, deadline=None)
# (id, which of UNIT_ROWS) rows of the index, ids as in ids_st
@given(rows=st.lists(st.tuples(st.text(alphabet="pqrs", min_size=1, max_size=3),
                               st.integers(0, len(UNIT_ROWS) - 1)),
                     max_size=12, unique_by=lambda row: row[0]),
       query=st.lists(st.integers(-3, 3), min_size=3, max_size=3),
       k=st.integers(0, 14), pick=st.integers(0, 5))
@example(rows=[], query=[1, 0, 0], k=2, pick=0)
# the excluded "q" is the k-th best, tied with "r", the (k+1)-th
@example(rows=[("p", 0), ("r", 2), ("q", 2), ("s", 4)], query=[1, 0, 0], k=2, pick=2)
# the excluded "p" is the best, and the (k+1)-th best, "q", is served
@example(rows=[("p", 0), ("q", 2), ("r", 4)], query=[1, 0, 0], k=1, pick=3)
# k = N - 1, the excluded "q" the best and "p" tied with "s"
@example(rows=[("s", 1), ("q", 3), ("p", 1)], query=[1, 1, 1], k=2, pick=4)
def test_vector_search_equals_sorted_oracle(rows, query, k, pick):
    ids = [row[0] for row in rows]
    matrix = (np.stack([UNIT_ROWS[w] for _, w in rows]) if rows
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
    view = PreparedCorpus(corpus, vocab, params)
    detector = DuplicateDetector(train_dedup(truth, view), PairFeaturizer(view))
    return corpus, truth, vocab, params, detector


@pytest.fixture(scope="module")
def small_trained_module():
    from exsim import encoder as enc
    spec = SyntheticSpec(n_templates=4, per_template=10, noise_rate=0.0,
                         vocab_size=150, seed=31)
    corpus, truth, pairs = generate_synthetic(spec, d_img=8)
    view = PreparedCorpus.with_own_vocab(corpus)
    params, _ = enc.pretrain(view, enc.PretrainConfig(d=16, epochs=8, seed=2))
    params, _ = enc.fine_tune(
        params, pairs, view, enc.FinetuneConfig(epochs=3, n_negatives=6, seed=2))
    return corpus, truth, pairs, view.vocab, params


def test_dedup_identical_exercise_is_duplicate(dedup_setup):
    corpus, _, _, _, detector = dedup_setup
    ex = PreparedQuery(next(iter(corpus)), detector.featurizer.view)
    assert detector.prob(ex, ex) > 0.99


def test_dedup_symmetric_exactly(dedup_setup):
    corpus, _, _, _, detector = dedup_setup
    ids, view = corpus.ids, detector.featurizer.view
    for a_id, b_id in [(ids[0], ids[1]), (ids[3], ids[25]), (ids[10], ids[39])]:
        a, b = PreparedQuery(corpus[a_id], view), PreparedQuery(corpus[b_id], view)
        assert detector.prob(a, b) == detector.prob(b, a)


def test_dedup_table_semantics(dedup_setup):
    # year-digit noise is a duplicate; a raised equation degree is not
    corpus, truth, _, _, detector = dedup_setup
    from exsim.corpus import _raise_power
    checked_dup = checked_distinct = 0
    view = detector.featurizer.view
    for ex_id in corpus.ids[::7]:
        ex = corpus[ex_id]
        query = PreparedQuery(ex, view)
        year_copy = PreparedQuery(_clone(ex, f"{ex.stem} in 2021", "-y"), view)
        assert detector.prob(query, year_copy) >= 0.5
        checked_dup += 1
        mutated = _raise_power(ex.stem)
        if mutated is not None and mutated != ex.stem:
            power_copy = PreparedQuery(_clone(ex, mutated, "-p"), view)
            assert detector.prob(query, power_copy) < 0.5
            checked_distinct += 1
    assert checked_dup >= 3 and checked_distinct >= 3


def test_recall_excludes_duplicates_of_query(dedup_setup):
    corpus, truth, vocab, params, detector = dedup_setup
    query = corpus[corpus.ids[5]]
    clone = _clone(query, query.stem, "-twin")
    bigger = Corpus(list(corpus) + [clone], levels=corpus.levels, d_img=corpus.d_img)
    view = PreparedCorpus(bigger, vocab, params)
    recaller = Recaller.build(view, detector.classifier,
                              RecallConfig(k_exact=50, k_embed=50, n=30))
    out = recaller.recall(PreparedQuery(query, view))
    ids = [c.ex_id for c in out]
    assert query.id not in ids
    assert clone.id not in ids
    assert len(ids) == len(set(ids))


def test_recall_merges_channels_once(small_trained_module):
    corpus, _, _, vocab, params = small_trained_module
    recaller = Recaller.build(PreparedCorpus(corpus, vocab, params),
                              config=RecallConfig(k_exact=30, k_embed=30, n=20))
    query = corpus[corpus.ids[0]]
    out = recaller.recall(PreparedQuery(query, recaller.view))
    ids = [c.ex_id for c in out]
    assert len(ids) == len(set(ids))
    assert len(ids) <= 20
    assert query.id not in ids


def test_indexes_built_from_a_view_equal_those_built_from_text(medium_synth):
    """The view's rows equal every exercise embedded afresh from its own
    text, and BM25 over its codes scores every bank exercise and a probe as
    the per-document loop over each exercise's own tokens does: over the
    bank's view, and over a view of the bank and clones whose tokens add
    codes past the vocabulary."""
    corpus, _, _ = medium_synth
    stop = ("the", "of")
    vocab = vocab_of(corpus, stop)
    params = init_params(corpus, vocab, d=12, seed=0)
    view = PreparedCorpus(corpus, vocab, params)
    vector = VectorIndex.build(view)
    assert np.array_equal(vector.matrix, embedded_from_text(corpus, vocab, params))
    assert np.array_equal(vector.matrix, view.embeddings)
    assert vector.ids == corpus.ids
    clones = [_clone(corpus[ex_id], f"{corpus[ex_id].stem} in 2019", "-y")
              for ex_id in corpus.ids[::10]]
    with_clones = PreparedCorpus(Corpus([*corpus, *clones]), vocab, params)
    assert {"in", "2019"} <= set(with_clones.oov_codes)
    probe = [*split_tokens(normalize_text(corpus[corpus.ids[3]].text, stop)), "zzzznotaword"]
    for v in (view, with_clones):
        exercises = v.exercises
        docs = corpus_token_lists(exercises, stop)
        concepts = concepts_of(exercises)
        lexical = LexicalIndex.build(v, 0.7)
        assert lexical.avg_len == sum(map(len, docs)) / len(docs) and lexical.ids == v.index.ids
        assert lexical.concept_boost == 0.7
        # each concept maps to exactly the rows holding it, ascending
        assert {c: rows.tolist() for c, rows in lexical.concept_rows.items()} == \
            {c: [r for r, held in enumerate(concepts) if c in held]
             for c in set().union(*concepts)}
        df = Counter(t for doc in docs for t in set(doc))
        assert {int(view_codes(v, [t])[0]): n for t, n in df.items()} == \
            {code: len(plist) for code, plist in lexical.postings.items()}
        for q_tokens, q_concepts in [*zip(docs, concepts), (probe, concepts[3])]:
            assert as_dict(lexical.score_all(view_codes(v, q_tokens), q_concepts)) == \
                brute_force_bm25(docs, q_tokens, q_concepts, concepts, 0.7)
    recaller = Recaller.build(view)
    assert recaller.view is view
    # both channels and the view read the corpus's one row index
    assert recaller.lexical.index is recaller.vector.index is corpus.index is view.index
    assert np.array_equal(recaller.vector.matrix, vector.matrix)


def test_recall_refuses_a_query_over_another_view(medium_synth):
    """Without a dedup head too: a query's kept embedding is under its own
    view's params, which a second view of the same exercises and vocabulary
    need not share."""
    corpus, _, _ = medium_synth
    vocab = vocab_of(corpus)
    params = init_params(corpus, vocab, d=12, seed=0)
    recaller = Recaller.build(PreparedCorpus(corpus, vocab, params))
    second = PreparedCorpus(corpus, vocab, init_params(corpus, vocab, d=12, seed=1))
    ex = corpus[corpus.ids[0]]
    for query in (ex, dataclasses.replace(ex, id="probe")):
        with pytest.raises(ValueError, match="prepared query is over another view"):
            recaller.recall(PreparedQuery(query, second))
        assert len(recaller.recall(PreparedQuery(query, recaller.view)))


def test_channel_searches_allocate_under_a_bound_per_row():
    """A bank query's BM25 and vector searches select their k best from one
    score vector each: under tracemalloc, with the kept BM25 terms already
    made by a first query, the two searches peak below 24 bytes per row (a
    score vector, its partition copy and a mask are 17)."""
    corpus, _, _ = generate_synthetic(SyntheticSpec(n_templates=40, per_template=50,
                                                    vocab_size=800, seed=5), d_img=4)
    vocab = vocab_of(corpus)
    view = PreparedCorpus(corpus, vocab, init_params(corpus, vocab, d=16, seed=0))
    lexical, vector = LexicalIndex.build(view), VectorIndex.build(view)
    query = PreparedQuery(corpus[corpus.ids[11]], view)
    codes = query.codes[0, :int(query.length[0])]

    def searches():
        lexical.search(codes, query.concepts, 200, exclude_id=query.exercise.id)
        vector.search(query.view_embedding, 200, exclude_id=query.exercise.id)

    searches()
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        searches()
        peak = tracemalloc.get_traced_memory()[1] - before
    finally:
        tracemalloc.stop()
    assert len(corpus) >= 2000 and query.concepts
    assert peak / len(corpus) < 24
