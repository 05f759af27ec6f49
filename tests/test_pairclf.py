import dataclasses

import numpy as np
import pytest
from gradcheck import assert_grads_match, finite_difference
from hypothesis import given, settings, strategies as st

from exsim import pairclf
from exsim.corpus import Exercise, Metadata
from exsim.encoder import EncoderParams, embed_text
from exsim.pairclf import (
    PairClassifier, PairFeaturizer, PreparedCorpus, PreparedQuery, bce_loss_and_grads,
    both_orders, edit_similarities, edit_similarity, levenshtein, pair_feature_rows,
    pair_features,
)
from exsim.textnorm import UNK_ID, Vocab, normalize_text, split_tokens


def reference_levenshtein(a, b) -> int:
    """Textbook full-matrix DP, independent of the vectorized kernel."""
    d = [[i + j if i == 0 or j == 0 else 0 for j in range(len(b) + 1)]
         for i in range(len(a) + 1)]
    for i in range(1, len(a) + 1):
        for j in range(1, len(b) + 1):
            d[i][j] = min(d[i - 1][j] + 1, d[i][j - 1] + 1,
                          d[i - 1][j - 1] + (a[i - 1] != b[j - 1]))
    return d[len(a)][len(b)]


def reference_similarity(a, b) -> float:
    if not a and not b:
        return 1.0
    return 1.0 - reference_levenshtein(a, b) / max(len(a), len(b))


def test_edit_similarity_basics():
    assert edit_similarity(["a", "b"], ["a", "b"]) == 1.0
    assert edit_similarity([], []) == 1.0
    assert edit_similarity(["a"], []) == 0.0
    # one substitution in three tokens
    assert edit_similarity(["a", "b", "c"], ["a", "x", "c"]) == pytest.approx(2 / 3)
    # insertion
    assert edit_similarity(["a", "b"], ["a", "b", "c"]) == pytest.approx(2 / 3)


def test_pair_features_layout():
    u = np.array([1.0, 2.0])
    v = np.array([3.0, 5.0])
    f = pair_features(u, v, 0.75)
    np.testing.assert_allclose(f, [1, 2, 3, 5, 2, 3, 3, 10, 0.75])


def test_classifier_learns_separable_data():
    rng = np.random.default_rng(0)
    x = rng.normal(size=(200, 5))
    w_true = np.array([2.0, -1.0, 0.5, 0.0, 1.0])
    y = (x @ w_true > 0).astype(float)
    clf = PairClassifier.train(x, y)
    preds = (clf.prob_rows(x) > 0.5).astype(float)
    assert (preds == y).mean() > 0.95


def test_classifier_training_deterministic():
    rng = np.random.default_rng(1)
    x = rng.normal(size=(50, 4))
    y = (x[:, 0] > 0).astype(float)
    c1 = PairClassifier.train(x, y)
    c2 = PairClassifier.train(x.copy(), y.copy())
    assert np.array_equal(c1.weights, c2.weights) and c1.bias == c2.bias


def noisy_pair_features(n=400, d=8, flip=0.1, seed=3):
    """Rows laid out like the heads' [u, v, |u - v|, u * v, sim]: a label 1
    pair is a near copy with a high edit similarity. A share ``flip`` of the
    labels is flipped, so no weights separate the classes."""
    rng = np.random.default_rng(seed)
    y = (rng.random(n) < 0.5).astype(float)
    u = rng.normal(size=(n, d))
    u /= np.linalg.norm(u, axis=1, keepdims=True)
    v = np.where(y[:, None] == 1, u + 0.3 * rng.normal(size=(n, d)), rng.normal(size=(n, d)))
    v /= np.linalg.norm(v, axis=1, keepdims=True)
    sims = np.clip(0.3 + 0.5 * y + 0.15 * rng.normal(size=n), 0.0, 1.0)
    flipped = rng.random(n) < flip
    y[flipped] = 1.0 - y[flipped]
    return pair_feature_rows(u, v, sims), y


def gradient_descent(x, y, lr=5.0, epochs=6000, l2=1e-6):
    """The full-batch gradient descent the heads were fitted with before."""
    w = np.zeros(x.shape[1])
    b = 0.0
    for _ in range(epochs):
        err = (1.0 / (1.0 + np.exp(-np.clip(x @ w + b, -35.0, 35.0))) - y) / len(y)
        w -= lr * (x.T @ err + l2 * w)
        b -= lr * float(err.sum())
    return w, b


def test_newton_fit_reaches_the_gradient_tolerance():
    x, y = noisy_pair_features()
    clf = PairClassifier.train(x, y)
    _, gw, gb = bce_loss_and_grads(clf.weights, clf.bias, x, y, l2=1e-6)
    assert max(np.abs(gw).max(), abs(gb)) < 1e-8


def test_newton_fit_is_no_worse_than_gradient_descent():
    x, y = noisy_pair_features()
    clf = PairClassifier.train(x, y)
    newton = bce_loss_and_grads(clf.weights, clf.bias, x, y, l2=1e-6)[0]
    w, b = gradient_descent(x, y)
    assert newton <= bce_loss_and_grads(w, b, x, y, l2=1e-6)[0]


def test_newton_fit_of_separable_data_stays_finite(monkeypatch):
    """A few of the separable rows lie far out, so their logits reach the
    thousands, where an overflowing sigmoid would warn."""
    rng = np.random.default_rng(0)
    x = rng.normal(size=(200, 5))
    y = (x @ np.array([2.0, -1.0, 0.5, 0.0, 1.0]) > 0).astype(float)
    x[:5] *= 100.0
    steps = []
    newton_step = pairclf._newton_step
    monkeypatch.setattr(pairclf, "_newton_step",
                        lambda *args: steps.append(1) or newton_step(*args))
    clf = PairClassifier.train(x, y)
    assert np.isfinite(clf.weights).all() and np.isfinite(clf.bias)
    assert (clf.prob_rows(x) > 0.5).astype(float).tolist() == y.tolist()
    # it stopped at the tolerance, not at the cap
    assert len(steps) < pairclf._NEWTON_STEPS
    _, gw, gb = bce_loss_and_grads(clf.weights, clf.bias, x, y, l2=1e-6)
    assert max(np.abs(gw).max(), abs(gb)) < 1e-8


def test_bce_gradients_match_finite_differences():
    rng = np.random.default_rng(2)
    x = rng.normal(size=(12, 4))
    y = (rng.random(12) > 0.5).astype(float)
    w = rng.normal(size=4) * 0.3
    b = np.array([0.1])
    arrays = {"w": w, "b": b}
    _, gw, gb = bce_loss_and_grads(w, float(b[0]), x, y, l2=0.01)
    numeric = finite_difference(
        lambda: bce_loss_and_grads(w, float(b[0]), x, y, l2=0.01)[0], arrays)
    assert_grads_match({"w": gw, "b": np.array([gb])}, numeric)


def test_classifier_snapshot_round_trip(tmp_path):
    clf = PairClassifier(weights=np.array([0.5, -1.5]), bias=0.25)
    clf.save(tmp_path / "clf.params", "dedup")
    loaded = PairClassifier.load(tmp_path / "clf.params", "dedup", 2)
    assert np.array_equal(loaded.weights, clf.weights)
    assert loaded.bias == clf.bias


def test_featurizer_uses_canonical_text(small_trained):
    corpus, _, _, vocab, params = small_trained
    feat = PairFeaturizer(PreparedCorpus(corpus, vocab, params))
    ex = PreparedQuery(next(iter(corpus)), vocab)
    f = feat.features(ex, ex)
    assert f.shape == (feat.n_features,)
    assert f[-1] == 1.0  # identical text, edit similarity 1


# ---------------------------------------------------------------------------
# the edit-distance kernel against the reference DP

codes = st.lists(st.integers(0, 4), max_size=9)


def padded(rows, pad, extra):
    """Rows padded with ``pad`` (possibly a real code) to max length + extra."""
    width = max((len(r) for r in rows), default=0) + extra
    return (np.array([r + [pad] * (width - len(r)) for r in rows], dtype=np.int64),
            np.array([len(r) for r in rows], dtype=np.int64))


@given(st.lists(st.sampled_from(["a", "b", "c"]), max_size=9),
       st.lists(st.sampled_from(["a", "b", "c"]), max_size=9))
def test_edit_similarity_equals_reference(a, b):
    assert edit_similarity(a, b) == reference_similarity(a, b)


@given(codes, st.lists(codes, min_size=1, max_size=8), st.integers(0, 4),
       st.integers(0, 3))
def test_kernel_one_query_against_many(query, others, pad, extra):
    q, q_len = padded([query], pad, extra)
    b, b_len = padded(others, pad, extra)
    assert levenshtein(q, q_len, b, b_len).tolist() == \
        [reference_levenshtein(query, o) for o in others]
    assert edit_similarities(q, q_len, b, b_len).tolist() == \
        [reference_similarity(query, o) for o in others]


@given(st.lists(st.tuples(codes, codes), min_size=1, max_size=8), st.integers(0, 4),
       st.integers(0, 3))
def test_kernel_aligned_pairs(pairs, pad, extra):
    a, a_len = padded([p[0] for p in pairs], pad, extra)
    b, b_len = padded([p[1] for p in pairs], pad, extra + 1)
    assert edit_similarities(a, a_len, b, b_len).tolist() == \
        [reference_similarity(x, y) for x, y in pairs]


def test_kernel_blocks_match_one_pass():
    rng = np.random.default_rng(0)
    rows = [rng.integers(0, 3, size=rng.integers(0, 7)).tolist() for _ in range(1300)]
    a, a_len = padded(rows[:650], -1, 0)
    b, b_len = padded(rows[650:], -1, 0)
    assert levenshtein(a, a_len, b, b_len).tolist() == \
        [reference_levenshtein(x, y) for x, y in zip(rows[:650], rows[650:])]


def exercise(ex_id, text):
    return Exercise(id=ex_id, stem=text, options=(), answer="", analysis="",
                    image_features=(), metadata=Metadata("fill", 1, ("c01",)),
                    learning_stage=(7, 1))


VOCAB = Vocab(["ab", "cd", "ef"])
PARAMS = EncoderParams.init(vocab_size=len(VOCAB), d=4, d_img=2, n_types=1,
                            levels=1, n_concepts=1, seed=0)
# "xy", "zq" and "mn" are out of vocabulary: all three map to UNK there
words = st.lists(st.sampled_from(["ab", "cd", "ef", "xy", "zq", "mn"]),
                 min_size=1, max_size=8)


@settings(max_examples=50, deadline=None)
@given(words, st.lists(words, min_size=1, max_size=6))
def test_query_pairs_codes_tell_oov_tokens_apart(query_words, corpus_words):
    corpus = [exercise(f"e{i}", " ".join(w)) for i, w in enumerate(corpus_words)]
    query = exercise("q", " ".join(query_words))
    expected = [reference_similarity(query_words, w) for w in corpus_words]
    view = PreparedCorpus(corpus, VOCAB, PARAMS)
    _, _, sims = PairFeaturizer(view).row_pairs(PreparedQuery(query, VOCAB), view.index,
                                                np.arange(len(corpus)))
    assert sims.tolist() == expected


def test_unk_tokens_that_differ_as_strings_are_an_edit():
    assert VOCAB.id_of("xy") == VOCAB.id_of("zq") == UNK_ID
    view = PreparedCorpus([exercise("e", "ab zq")], VOCAB, PARAMS)
    feat = PairFeaturizer(view)
    sims = [feat.row_pairs(PreparedQuery(exercise("q", text), VOCAB), view.index,
                           np.array([0]))[2][0]
            for text in ("ab xy", "ab zq")]
    assert sims == [0.5, 1.0]
    assert view.stem_ids()[0].tolist() == [VOCAB.id_of("ab"), UNK_ID]


def test_analysis_side_shares_the_stem_codes(monkeypatch):
    """Equal tokens get equal codes on both sides, out-of-vocabulary ones
    too; the analysis side is prepared on first use and kept by copies made
    after it, and a view's embeddings are computed when read."""
    exs = [dataclasses.replace(exercise("a", "ab xy"), analysis="xy zq ab"),
           dataclasses.replace(exercise("b", "zq ef"), analysis="mn")]
    calls = []
    normalize = pairclf.normalize_text
    monkeypatch.setattr(pairclf, "normalize_text",
                        lambda *args: calls.append(args[0]) or normalize(*args))
    view = PreparedCorpus(exs, VOCAB)
    assert calls == [ex.text for ex in exs]
    analysis = view.analysis
    assert analysis.tokens == [["xy", "zq", "ab"], ["mn"]]
    assert view.embedded_with(PARAMS).analysis is analysis
    assert len(calls) == 4
    coded = {(t, c) for tokens, codes in ((view.tokens, view.codes),
                                          (analysis.tokens, analysis.codes))
             for row, c_row in zip(tokens, codes) for t, c in zip(row, c_row.tolist())}
    # one code per token and one token per code: "xy", "zq" and "mn" differ
    assert len(coded) == len({t for t, _ in coded}) == len({c for _, c in coded}) == 5
    assert analysis.lengths.tolist() == [3, 1]
    assert view.analysis_ids()[0].tolist() == [UNK_ID, UNK_ID, VOCAB.id_of("ab")]
    with pytest.raises(ValueError, match="no params"):
        view.embeddings
    assert np.array_equal(view.embedded_with(PARAMS).embeddings,
                          PreparedCorpus(exs, VOCAB, PARAMS).embeddings)


def test_own_vocab_normalizes_each_text_once(small_synth, monkeypatch):
    corpus, _, _ = small_synth
    calls = []
    normalize = pairclf.normalize_text
    monkeypatch.setattr(pairclf, "normalize_text",
                        lambda *args: calls.append(args[0]) or normalize(*args))
    view = PreparedCorpus.with_own_vocab(corpus, ("the",))
    view.analysis_ids()
    assert sorted(calls) == sorted(t for ex in corpus for t in (ex.text, ex.answer_analysis))
    monkeypatch.undo()
    plain = [split_tokens(normalize_text(t, ("the",))[0])
             for ex in corpus for t in (ex.text, ex.answer_analysis)]
    expected = Vocab.build(plain, stop_words=("the",))
    assert view.vocab.stop_words == expected.stop_words == ("the",)
    assert [view.vocab.id_of(t) for tokens in plain for t in tokens] == \
        [expected.id_of(t) for tokens in plain for t in tokens]
    assert len(view.vocab) == len(expected)
    assert view.tokens == plain[::2] and view.analysis.tokens == plain[1::2]


def test_view_embeddings_equal_single_text_embedding():
    exs = [exercise("a", "ab cd xy"), exercise("b", "ef")]
    view = PreparedCorpus(exs, VOCAB, PARAMS)
    feat = PairFeaturizer(view)
    for row, ex in enumerate(exs):
        assert np.array_equal(view.embeddings[row], feat.embedding(PreparedQuery(ex, VOCAB)))


def test_both_orders_equal_features_per_pair(small_trained):
    corpus, _, _, vocab, params = small_trained
    feat = PairFeaturizer(PreparedCorpus(corpus, vocab, params))
    exs = list(corpus)
    pairs = [(exs[0], exs[1]), (exs[2], exs[0]), (exs[3], exs[3])]
    rows = both_orders(pairs, vocab, params)
    expected = []
    for a, b in pairs:
        a, b = PreparedQuery(a, vocab), PreparedQuery(b, vocab)
        expected += [feat.features(a, b), feat.features(b, a)]
    assert np.array_equal(rows, np.array(expected))


@settings(max_examples=200, deadline=None)
@given(n=st.sampled_from([0, 1, 2, 7, 100]), width=st.integers(1, 140),
       decades=st.integers(0, 12), strided=st.booleans(), seed=st.integers(0, 2 ** 32 - 1))
def test_prob_rows_equal_prob_per_row(n, width, decades, strided, seed):
    """``prob_rows`` gives the bits of a per-row ``row @ w`` loop, also over
    rows of ``both_orders``'s ``rows[:, 0]`` layout and magnitudes spanning
    ``decades`` powers of ten."""
    rng = np.random.default_rng(seed)
    clf = PairClassifier(weights=rng.normal(size=width) * 10.0 ** rng.uniform(-3, 3),
                         bias=float(rng.normal()))
    x = rng.normal(size=(n, width)) * 10.0 ** rng.uniform(-decades / 2, decades / 2,
                                                         size=(n, width))
    if strided:
        pairs = np.empty((n, 2, width))
        pairs[:, 0] = x
        x = pairs[:, 0]
    z = np.array([row @ clf.weights for row in x], dtype=np.float64)
    expected = 1.0 / (1.0 + np.exp(-np.clip(z + clf.bias, -35.0, 35.0)))
    assert clf.prob_rows(x).tolist() == expected.tolist()
    assert clf.prob_rows(x).tolist() == [clf.prob(row) for row in x]


@settings(max_examples=50, deadline=None)
@given(words, st.lists(words, min_size=2, max_size=8), st.data())
def test_prepared_query_reads_kept_similarities_by_row(query_words, corpus_words, data):
    """Later, smaller and reordered row sets read back what the first call
    computed, equal to the reference DP, and views sharing codes share it."""
    corpus = [exercise(f"e{i}", " ".join(w)) for i, w in enumerate(corpus_words)]
    view = PreparedCorpus(corpus, VOCAB, PARAMS)
    query = PreparedQuery(exercise("q", " ".join(query_words)), VOCAB)
    expected = [reference_similarity(query_words, w) for w in corpus_words]
    everyone = np.arange(len(corpus))
    assert query.edit_similarities(view, everyone).tolist() == expected
    other_backbone = view.embedded_with(PARAMS)
    for _ in range(3):
        rows = np.array(data.draw(st.lists(st.sampled_from(everyone.tolist()),
                                           max_size=len(corpus))), dtype=np.int64)
        assert query.edit_similarities(other_backbone, rows).tolist() == \
            [expected[r] for r in rows]


def test_prepared_query_starts_afresh_for_another_view():
    exs = [exercise("a", "ab xy"), exercise("b", "zq ef")]
    first = PreparedCorpus(exs, VOCAB, PARAMS)
    second = PreparedCorpus(exs[::-1], VOCAB, PARAMS)
    query = PreparedQuery(exercise("q", "zq ef"), VOCAB)
    assert query.edit_similarities(first, np.array([0, 1])).tolist() == [0.0, 1.0]
    assert query.edit_similarities(second, np.array([0, 1])).tolist() == [1.0, 0.0]


def test_prepared_query_is_embedded_once_per_backbone(monkeypatch):
    import exsim.pairclf as pairclf
    calls = []
    real = pairclf.embed_text
    monkeypatch.setattr(pairclf, "embed_text",
                        lambda seq, params: calls.append(params) or real(seq, params))
    other = EncoderParams.init(vocab_size=len(VOCAB), d=4, d_img=2, n_types=1,
                               levels=1, n_concepts=1, seed=1)
    ex = exercise("q", "ab xy cd")
    ids = np.array([VOCAB.id_of(t) for t in ("ab", "xy", "cd")])
    expected = {id(p): embed_text(ids, p) for p in (PARAMS, other)}
    calls.clear()
    query = PreparedQuery(ex, VOCAB)
    for params in (PARAMS, other, PARAMS, other):
        assert np.array_equal(query.embedding(params), expected[id(params)])
    assert [id(p) for p in calls] == [id(PARAMS), id(other)]


def test_prepared_query_refuses_another_preparation():
    """A query prepared with another vocabulary, even one of the same
    tokens, may have other tokens (its stop words differ) and other ids."""
    view = PreparedCorpus([exercise("a", "ab")], VOCAB, PARAMS)
    for vocab in (Vocab(["ab", "cd", "ef"], ("the",)), Vocab(["ab", "cd", "ef"])):
        query = PreparedQuery(exercise("q", "ab"), vocab)
        with pytest.raises(ValueError, match="prepared query"):
            PairFeaturizer(view).row_pairs(query, view.index, np.array([0]))
    u, v, sims = PairFeaturizer(view).row_pairs(PreparedQuery(exercise("q", "ab"), VOCAB),
                                                view.index, np.array([0]))
    assert np.array_equal(u, v[0]) and sims.tolist() == [1.0]


def test_featurizer_refuses_rows_of_another_index():
    """Rows of another index, even one over the same ids, are not the view's
    rows; an ``embedded_with`` copy shares the view's index."""
    exs = [exercise("a", "ab"), exercise("b", "cd")]
    view = PreparedCorpus(exs, VOCAB, PARAMS)
    query = PreparedQuery(exercise("q", "ab"), VOCAB)
    with pytest.raises(ValueError, match="rows of this featurizer's view"):
        PairFeaturizer(view).row_pairs(query, PreparedCorpus(exs, VOCAB).index, np.array([0]))
    _, _, sims = PairFeaturizer(view.embedded_with(PARAMS)).row_pairs(
        query, view.index, np.array([1, 0]))
    assert sims.tolist() == [0.0, 1.0]
