import dataclasses
import tracemalloc

import numpy as np
import pytest
from gradcheck import assert_grads_match, finite_difference
from hypothesis import example, given, settings, strategies as st

from exsim import encoder as enc
from exsim import pairclf, rerank
from exsim.corpus import Corpus, Exercise, Metadata
from exsim.encoder import EncoderParams
from exsim.pairclf import (
    PairClassifier, PairFeaturizer, PreparedCorpus, PreparedQuery, bce_loss_and_grads,
    edit_similarities, edit_similarity, levenshtein, pair_feature_rows,
    pair_features,
)
from exsim.recall import Candidates
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


@pytest.mark.parametrize("u_rows, v_rows", [(0, 5), (5, 0), (5, 5), (0, 0)])
def test_pair_feature_rows_equal_pair_features_per_row(u_rows, v_rows):
    """A 1-D side (0 rows) broadcasts to every pair, in either argument
    position, with the bits of ``pair_features`` per row."""
    rng = np.random.default_rng(4)
    n = max(u_rows, v_rows, 1)
    u = rng.normal(size=(u_rows, 6) if u_rows else 6)
    v = rng.normal(size=(v_rows, 6) if v_rows else 6)
    sims = rng.random(n)
    expected = np.array([pair_features(a, b, s) for a, b, s in
                         zip(np.broadcast_to(u, (n, 6)), np.broadcast_to(v, (n, 6)), sims)])
    assert pair_feature_rows(u, v, sims).tobytes() == expected.tobytes()


def test_pair_features_layout():
    u = np.array([1.0, 2.0])
    v = np.array([3.0, 5.0])
    f = pair_features(u, v, 0.75)
    np.testing.assert_allclose(f, [4 / np.sqrt(2), 7 / np.sqrt(2), 2, 3, 3, 10, 0.75])


@settings(max_examples=100, deadline=None)
@given(st.integers(1, 40), st.integers(0, 2 ** 32 - 1))
def test_pair_features_are_symmetric(d, seed):
    """The (v, u) row has the bits of the (u, v) row, per pair and in rows,
    at magnitudes far apart."""
    rng = np.random.default_rng(seed)
    u = rng.normal(size=(3, d)) * 10.0 ** rng.uniform(-8, 8, size=(3, d))
    v = rng.normal(size=(3, d)) * 10.0 ** rng.uniform(-8, 8, size=(3, d))
    sims = rng.random(3)
    assert pair_feature_rows(u, v, sims).tobytes() == pair_feature_rows(v, u, sims).tobytes()
    for a, b, sim in zip(u, v, sims):
        assert pair_features(a, b, sim).tobytes() == pair_features(b, a, sim).tobytes()


def both_order_rows(u, v, sims):
    """The rows the pair heads were fitted on before their features were
    made symmetric: ``[u, v, |u - v|, u * v, sim]`` of every pair as (u, v),
    then the same pairs as (v, u)."""
    def rows(a, b):
        return np.concatenate([a, b, np.abs(a - b), a * b, sims[:, None]], axis=1)
    return np.concatenate([rows(u, v), rows(v, u)])


def both_order_fit(u, v, sims, labels):
    """A head fitted on ``both_order_rows`` with each label repeated."""
    return PairClassifier.train(both_order_rows(u, v, sims), np.concatenate([labels, labels]))


def both_order_probs(head, u, v, sims):
    """A both-order head's probability of each pair: the mean of its two
    orders."""
    p = head.prob_rows(both_order_rows(u, v, sims))
    return (p[:len(sims)] + p[len(sims):]) / 2.0


def test_a_one_order_fit_equals_the_both_order_fit():
    """Fitted on one symmetric row per pair, a head scores every pair, seen
    in training or not, as the both-order fit over [u, v, |u - v|, u * v,
    sim] does, within 1e-12."""
    rng = np.random.default_rng(8)
    n, d = 300, 8
    u = rng.normal(size=(2 * n, d))
    u /= np.linalg.norm(u, axis=1, keepdims=True)
    v = u + rng.normal(size=(2 * n, d)) * np.where(rng.random(2 * n) < 0.5, 0.2, 2.0)[:, None]
    v /= np.linalg.norm(v, axis=1, keepdims=True)
    sims = rng.random(2 * n)
    labels = (np.einsum("ij,ij->i", u, v) + 0.3 * rng.normal(size=2 * n) > 0.6).astype(float)
    train = slice(0, n)
    old = both_order_fit(u[train], v[train], sims[train], labels[train])
    new = PairClassifier.train(pair_feature_rows(u[train], v[train], sims[train]),
                               labels[train])
    assert new.weights.shape == (3 * d + 1,) and old.weights.shape == (4 * d + 1,)
    np.testing.assert_allclose(new.prob_rows(pair_feature_rows(u, v, sims)),
                               both_order_probs(old, u, v, sims), rtol=0, atol=1e-12)


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
    clf.save(tmp_path / "clf.params", "dedup", {"encoder": "e", "truth": "t"})
    loaded = PairClassifier.load(tmp_path / "clf.params", "dedup")
    assert np.array_equal(loaded.weights, clf.weights)
    assert loaded.bias == clf.bias
    assert loaded.made_from == {"encoder": "e", "truth": "t"}


def test_featurizer_uses_canonical_text(small_trained):
    corpus, _, _, vocab, params = small_trained
    feat = PairFeaturizer(PreparedCorpus(corpus, vocab, params))
    ex = PreparedQuery(next(iter(corpus)), feat.view)
    f = feat.features(ex, ex)
    assert f.shape == (3 * params.d + 1,)
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


@given(st.lists(codes, min_size=1, max_size=6), st.sampled_from([(0,), (5,), (3, 4)]),
       st.data())
def test_row_pair_similarities_equal_reference(rows, shape, data):
    """Aligned row pairs of a code matrix, in any one shape and with repeats,
    equal the reference DP pair by pair, also with blocks of 2 pairs."""
    matrix, lengths = padded(rows, pairclf.PAD_CODE, 0)
    row = st.integers(0, len(rows) - 1)
    size = int(np.prod(shape))
    pairs = data.draw(st.lists(st.tuples(row, row), min_size=size, max_size=size))
    left = np.array([a for a, _ in pairs], dtype=np.intp).reshape(shape)
    right = np.array([b for _, b in pairs], dtype=np.intp).reshape(shape)
    expected = [reference_similarity(rows[a], rows[b]) for a, b in pairs]
    for block in (pairclf._SIM_BLOCK, 2):
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(pairclf, "_SIM_BLOCK", block)
            sims = pairclf.row_pair_similarities(matrix, lengths, left, right)
            assert sims.shape == shape and sims.ravel().tolist() == expected


# lengths around 64 and 128 tokens
EDGE_LENGTHS = [0, 1, 2, 63, 64, 65, 127, 128, 129, 200]


def edited(rng, row, n_edits, alphabet):
    """``row`` after ``n_edits`` random substitutions, insertions and deletions."""
    row = list(row)
    for _ in range(n_edits):
        op, at = rng.integers(3), int(rng.integers(len(row) + 1))
        if op == 0 and at < len(row):
            row[at] = int(rng.integers(alphabet))
        elif op == 1:
            row.insert(at, int(rng.integers(alphabet)))
        elif row:
            del row[min(at, len(row) - 1)]
    return row


def check_kernel(a_rows, b_rows, pad, extra):
    """``levenshtein`` and ``edit_similarities`` of the rows padded with
    ``pad`` plus ``extra`` columns equal the reference DP: aligned, and with
    either side as one broadcast row when it has one row. Each check runs
    as the kernel is configured and again with blocks of 3 pairs and
    compares of 64 bools, so it crosses the kernel's block and chunk loops."""
    a, a_len = padded(a_rows, pad, extra)
    b, b_len = padded(b_rows, pad, extra + 1)
    if len(a_rows) == 1:
        pairs = [(a_rows[0], y) for y in b_rows]
    elif len(b_rows) == 1:
        pairs = [(x, b_rows[0]) for x in a_rows]
    else:
        pairs = list(zip(a_rows, b_rows))
    distances = [reference_levenshtein(x, y) for x, y in pairs]
    sims = [reference_similarity(x, y) for x, y in pairs]
    for block, bools in ((pairclf._BLOCK, pairclf._COMPARE_BOOLS), (3, 64)):
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(pairclf, "_BLOCK", block)
            patch.setattr(pairclf, "_COMPARE_BOOLS", bools)
            assert levenshtein(a, a_len, b, b_len).tolist() == distances
            assert edit_similarities(a, a_len, b, b_len).tolist() == sims


# around the bytes of the kernel's lanes: a lane is (longest b // 8 + 1) * 8
# bits, so a b of 8k tokens leaves a one-byte guard
LANE_LENGTHS = [0, 1, 7, 8, 9, 63, 64, 200]


def test_kernel_lanes_side_by_side():
    """Every pair of lane lengths as neighbouring lanes of one block. The
    longest ``b`` has 200 tokens, a multiple of 8, so the guard of its lane
    starts at the first bit of the next byte. Rows of one code against each
    other run matches down a whole lane, whose carry reaches the guard.
    ``a`` ends at every length, 0 included, so the block keeps the lanes of
    many columns; the padding is a real code, so it matches past
    ``b_len``. Then one ``b`` row broadcast against every ``a`` row."""
    rng = np.random.default_rng(15)
    a_rows, b_rows = [], []
    for n in LANE_LENGTHS:
        for m in LANE_LENGTHS:
            a_rows.append(rng.integers(2, size=n).tolist())
            b_rows.append(rng.integers(2, size=m).tolist())
        a_rows.append([0] * n)
        b_rows.append([0] * n)
    check_kernel(a_rows, b_rows, pad=0, extra=0)
    for b_row in ([0] * 200, rng.integers(2, size=200).tolist()):
        check_kernel(a_rows, [b_row], pad=0, extra=0)


def test_kernel_crosses_word_boundaries():
    """Every pair of lengths around 64 and 128 tokens, as random rows over
    2 or 5 codes and as near copies, which run long chains of matches and
    carries along a lane."""
    rng = np.random.default_rng(5)
    a_rows, b_rows = [], []
    for n in EDGE_LENGTHS:
        for m in EDGE_LENGTHS:
            alphabet = 2 if len(a_rows) % 2 else 5
            a_rows.append(rng.integers(alphabet, size=n).tolist())
            b_rows.append(rng.integers(alphabet, size=m).tolist())
    for n in EDGE_LENGTHS:
        row = rng.integers(3, size=n).tolist()
        for n_edits in (0, 1, 3, 20):
            a_rows.append(row)
            b_rows.append(edited(rng, row, n_edits, 3))
    # long runs of one code, which a carry runs through
    for n in (1, 2, 65, 200):
        for b_row in ([0] * 129, [0] * 200, [0] * 128 + [1, 0], [0] * 128 + [1] * 10 + [0] * 62):
            a_rows.append([0] * n)
            b_rows.append(b_row)
    check_kernel(a_rows, b_rows, pad=1, extra=3)


@settings(max_examples=30, deadline=None)
@given(st.lists(st.integers(0, 200), min_size=1, max_size=4), st.integers(0, 200),
       st.integers(0, 3), st.sampled_from(["aligned", "one a", "one b"]),
       st.integers(0, 2 ** 32 - 1))
def test_kernel_long_rows_equal_reference(lengths, other, pad, layout, seed):
    """Rows of 0-200 tokens over codes 0..3, padded with one of those codes,
    as aligned pairs, one ``a`` row against many ``b`` rows and the other
    way round; half the ``b`` rows are near copies of their ``a`` row."""
    rng = np.random.default_rng(seed)
    rows = [rng.integers(4, size=n).tolist() for n in lengths]
    others = [edited(rng, r, int(rng.integers(8)), 4) if rng.random() < 0.5
              else rng.integers(4, size=int(rng.integers(other + 1))).tolist()
              for r in rows]
    if layout == "one a":
        rows = rows[:1]
    elif layout == "one b":
        others = others[:1]
    check_kernel(rows, others, pad, extra=int(rng.integers(3)))


def test_kernel_blocks_of_long_rows():
    """More than ``_BLOCK`` pairs, whose blocks have lanes of different
    widths: one short ``a`` row against every ``b`` row, and aligned pairs."""
    rng = np.random.default_rng(11)
    count = pairclf._BLOCK + 100
    b_rows = [rng.integers(3, size=int(rng.integers(0, 150 if i < pairclf._BLOCK else 60)))
              .tolist() for i in range(count)]
    check_kernel([rng.integers(3, size=9).tolist()], b_rows, pad=0, extra=0)
    a_rows = [rng.integers(3, size=int(rng.integers(0, 12))).tolist() for _ in range(count)]
    check_kernel(a_rows, b_rows, pad=2, extra=1)


def test_kernel_of_no_pairs():
    for a_rows in (0, 1):
        dist = levenshtein(np.zeros((a_rows, 4), dtype=np.int32), np.zeros(a_rows),
                           np.zeros((0, 3), dtype=np.int32), np.zeros(0))
        assert dist.dtype == np.int64 and dist.shape == (0,)
        sims = edit_similarities(np.zeros((a_rows, 4), dtype=np.int32), np.zeros(a_rows),
                                 np.zeros((0, 3), dtype=np.int32), np.zeros(0))
        assert sims.shape == (0,)


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
    corpus = Corpus([exercise(f"e{i}", " ".join(w)) for i, w in enumerate(corpus_words)])
    query = exercise("q", " ".join(query_words))
    expected = [reference_similarity(query_words, w) for w in corpus_words]
    view = PreparedCorpus(corpus, VOCAB, PARAMS)
    rows = PreparedQuery(query, view).feature_rows(np.arange(len(corpus)))
    assert rows[:, -1].tolist() == expected


def test_unk_tokens_that_differ_as_strings_are_an_edit():
    assert VOCAB.id_of("xy") == VOCAB.id_of("zq") == UNK_ID
    view = PreparedCorpus(Corpus([exercise("e", "ab zq")]), VOCAB, PARAMS)
    sims = [PreparedQuery(exercise("q", text), view).feature_rows(np.array([0]))[0, -1]
            for text in ("ab xy", "ab zq")]
    assert sims == [0.5, 1.0]
    ids = view.token_ids(view.codes)
    assert ids[0, :2].tolist() == [VOCAB.id_of("ab"), UNK_ID]
    assert (ids[0, 2:] == len(VOCAB)).all() and ids.shape == view.codes.shape


def test_analysis_side_shares_the_stem_codes(monkeypatch):
    """Equal tokens get equal codes on both sides, out-of-vocabulary ones
    too; the analysis side is prepared on first use and kept, and a view's
    embeddings are computed when read."""
    exs = [dataclasses.replace(exercise("a", "ab xy"), analysis="xy zq ab"),
           dataclasses.replace(exercise("b", "zq ef"), analysis="mn")]
    calls = []
    normalize = pairclf.normalize_text
    monkeypatch.setattr(pairclf, "normalize_text",
                        lambda *args: calls.append(args[0]) or normalize(*args))
    view = PreparedCorpus(Corpus(exs), VOCAB)
    assert calls == [ex.text for ex in exs]
    analysis = view.analysis
    assert view.analysis is analysis
    assert len(calls) == 4
    assert analysis.lengths.tolist() == [3, 1]
    codes, lengths = view.texts()
    texts = [["ab", "xy"], ["zq", "ef"], ["xy", "zq", "ab"], ["mn"]]
    coded = {(t, c) for row, c_row in zip(texts, codes) for t, c in zip(row, c_row.tolist())}
    # one code per token and one token per code: "xy", "zq" and "mn" differ
    assert len(coded) == len({t for t, _ in coded}) == len({c for _, c in coded}) == 5
    assert lengths.tolist() == [2, 2, 3, 1]
    assert view.token_ids(codes)[:, :3].tolist() == [
        [VOCAB.id_of("ab"), UNK_ID, len(VOCAB)], [UNK_ID, VOCAB.id_of("ef"), len(VOCAB)],
        [UNK_ID, UNK_ID, VOCAB.id_of("ab")], [UNK_ID, len(VOCAB), len(VOCAB)]]
    assert codes[2:, :3].tolist() == [row[:3] for row in analysis.codes.tolist()]
    with pytest.raises(ValueError, match="no params"):
        view.embeddings


def fresh(corpus: Corpus) -> Corpus:
    """A corpus of the same exercises that keeps no stem column yet."""
    return Corpus(corpus, levels=corpus.levels, d_img=corpus.d_img)


def stem_tokens(exercises):
    """Each exercise's stem tokens, normalized from scratch."""
    return [split_tokens(normalize_text(ex.text)) for ex in exercises]


def test_own_vocab_normalizes_each_text_once(small_synth, monkeypatch):
    corpus = fresh(small_synth[0])
    calls = []
    normalize = pairclf.normalize_text
    monkeypatch.setattr(pairclf, "normalize_text",
                        lambda *args: calls.append(args[0]) or normalize(*args))
    view = PreparedCorpus.with_own_vocab(corpus, ("the",))
    view.analysis
    assert sorted(calls) == sorted(t for ex in corpus for t in (ex.text, ex.answer_analysis))
    monkeypatch.undo()
    plain = [split_tokens(normalize_text(t, ("the",)))
             for ex in corpus for t in (ex.text, ex.answer_analysis)]
    expected = Vocab.build(plain, stop_words=("the",))
    assert view.vocab.stop_words == expected.stop_words == ("the",)
    assert [view.vocab.id_of(t) for tokens in plain for t in tokens] == \
        [expected.id_of(t) for tokens in plain for t in tokens]
    assert len(view.vocab) == len(expected)
    codes, lengths = view.texts()
    assert [row[:n] for row, n in zip(codes.tolist(), lengths.tolist())] == \
        [[view.vocab.id_of(t) for t in tokens] for tokens in plain[::2] + plain[1::2]]


def test_views_of_a_corpus_share_its_stem_column(small_synth, tmp_path, monkeypatch):
    """A view under a vocabulary equal to the one the corpus's column was
    made under, one loaded back from an encoder snapshot included, reads that
    column and normalizes no stem; another vocabulary makes a column of its
    own. The analysis side stays the view's: its codes do not enter what
    the corpus keeps."""
    corpus = fresh(small_synth[0])
    own = PreparedCorpus.with_own_vocab(corpus)
    partial = Vocab.build(stem_tokens(corpus)[:4])
    path = tmp_path / "encoder.params"
    enc.save_encoder(enc.init_params(corpus, own.vocab, 4, 0), own.vocab, path, {})
    calls = []
    normalize = pairclf.normalize_text
    monkeypatch.setattr(pairclf, "normalize_text",
                        lambda *args: calls.append(args[0]) or normalize(*args))
    again = PreparedCorpus(corpus, enc.load_encoder(path)[1])
    assert calls == [] and again.vocab is own.vocab
    assert again.codes is own.codes and again.lengths is own.lengths
    assert not again.codes.flags.writeable and not again.lengths.flags.writeable
    first = PreparedCorpus(corpus, partial)
    assert calls == [ex.text for ex in corpus] and first.codes is not own.codes
    stem_oov = dict(first.oov_codes)
    # the analysis side codes tokens past the stems' table, and keeps them
    assert first.analysis.codes.max() >= len(partial) + len(stem_oov)
    assert first.oov_codes == stem_oov
    assert PreparedCorpus(corpus, partial).oov_codes == stem_oov
    assert len(calls) == 2 * len(corpus)


def test_view_embeddings_equal_single_text_embedding():
    """Each row equals the embedding of an equal copy of its exercise, which
    is prepared from its own text."""
    exs = [exercise("a", "ab cd xy"), exercise("b", "ef")]
    view = PreparedCorpus(Corpus(exs), VOCAB, PARAMS)
    feat = PairFeaturizer(view)
    for row, ex in enumerate(exs):
        query = PreparedQuery(dataclasses.replace(ex), view)
        assert query.row is None
        assert np.array_equal(view.embeddings[row], feat.embedding(query))


@settings(max_examples=200, deadline=None)
@given(n=st.sampled_from([0, 1, 2, 7, 100]), width=st.integers(1, 140),
       decades=st.integers(0, 12), strided=st.booleans(), seed=st.integers(0, 2 ** 32 - 1))
def test_prob_rows_equal_prob_per_row(n, width, decades, strided, seed):
    """``prob_rows`` gives the bits of a per-row ``row @ w`` loop, also over
    strided rows and magnitudes spanning ``decades`` powers of ten."""
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


def test_a_bank_query_allocates_nothing_per_view_row():
    """Preparing a bank row's query and reading its embedding allocates no
    array over the view's rows: those are made when a stage scores pairs."""
    exs = [exercise(f"e{i}", ("ab cd", "ef ab", "cd xy")[i % 3]) for i in range(1200)]
    view = PreparedCorpus(Corpus(exs), VOCAB, PARAMS)
    view.embeddings
    tracemalloc.start()
    try:
        query = PreparedQuery(exs[5], view)
        assert query.view_embedding is not None
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert query.row == 5 and peak < 8 * len(exs)
    assert query.edit_similarities(np.array([5]))[0] == 1.0


@settings(max_examples=50, deadline=None)
@given(words, st.lists(words, min_size=2, max_size=8), st.data())
def test_prepared_query_reads_kept_similarities_by_row(query_words, corpus_words, data):
    """Later, smaller and reordered row sets read back what the first call
    computed, equal to the reference DP, also through the feature rows."""
    corpus = Corpus([exercise(f"e{i}", " ".join(w)) for i, w in enumerate(corpus_words)])
    view = PreparedCorpus(corpus, VOCAB, PARAMS)
    query = PreparedQuery(exercise("q", " ".join(query_words)), view)
    expected = [reference_similarity(query_words, w) for w in corpus_words]
    everyone = np.arange(len(corpus))
    assert query.edit_similarities(everyone).tolist() == expected
    for _ in range(3):
        rows = np.array(data.draw(st.lists(st.sampled_from(everyone.tolist()),
                                           max_size=len(corpus))), dtype=np.int64)
        assert query.feature_rows(rows)[:, -1].tolist() == [expected[r] for r in rows]


def test_prepared_query_is_refused_by_another_view():
    """A second view of the same exercises and vocabulary is refused, also
    one whose codes are equal: another order gives the out-of-vocabulary
    tokens "xy" and "zq" other codes, which its kept similarities and
    embeddings would not follow."""
    exs = [exercise("a", "ab xy"), exercise("b", "zq ef")]
    first = PreparedCorpus(Corpus(exs), VOCAB, PARAMS)
    reordered = PreparedCorpus(Corpus(exs[::-1]), VOCAB, PARAMS)
    assert first.oov_codes != reordered.oov_codes
    rows = np.array([0, 1])
    for ex in (exercise("q", "zq ef"), exs[0]):
        query = PreparedQuery(ex, first)
        for second in (reordered, PreparedCorpus(Corpus(exs), VOCAB, PARAMS)):
            with pytest.raises(ValueError, match="prepared query"):
                query.require_view(second)
    query = PreparedQuery(exercise("q", "zq ef"), first)
    query.require_view(first)
    assert query.feature_rows(rows)[:, -1].tolist() == [0.0, 1.0]
    query = PreparedQuery(exercise("q", "zq ef"), reordered)
    assert query.feature_rows(rows)[:, -1].tolist() == [1.0, 0.0]


# rows of up to 90 tokens, in and out of the vocabulary
long_words = st.lists(st.sampled_from(["ab", "cd", "ef", "xy", "zq"]), max_size=90)


@settings(max_examples=40, deadline=None)
@given(long_words, st.lists(long_words, min_size=1, max_size=6))
@example([], [["ab"] * 64, [], ["xy", "cd"] * 4])
@example(["zq", "ab"] * 40, [["zq"] * 72, ["ab", "zq"] * 40, []])
@example(["ab", "xy"], [[], []])
def test_prepared_lanes_equal_reference(query_words, corpus_words):
    """The view's prepared lanes give the textbook DP's distances: an empty
    query, empty rows, out-of-vocabulary codes, rows of 64 tokens and more,
    a longest row that is a multiple of 8, subsets whose longest row is
    shorter, and blocks of 3 rows with compares of 64 bools."""
    def text(words):  # markup alone normalizes to no token
        return " ".join(words) or "<p></p>"
    view = PreparedCorpus(Corpus([exercise(f"e{i}", text(w))
                                  for i, w in enumerate(corpus_words)]), VOCAB, PARAMS)
    assert view.lengths.tolist() == [len(w) for w in corpus_words]
    assert view.codes.shape[1] % 8 == 0 and view.codes.shape[1] > max(view.lengths)
    query = PreparedQuery(exercise("q", text(query_words)), view)
    everyone = np.arange(len(corpus_words))
    for rows in (everyone, everyone[::-2], np.repeat(everyone[:2], 2)):
        expected = [reference_levenshtein(query_words, corpus_words[r]) for r in rows]
        for block, bools in ((pairclf._BLOCK, pairclf._COMPARE_BOOLS), (3, 64)):
            with pytest.MonkeyPatch.context() as patch:
                patch.setattr(pairclf, "_BLOCK", block)
                patch.setattr(pairclf, "_COMPARE_BOOLS", bools)
                assert view.distances(query.codes, len(query_words), rows).tolist() == expected
    assert query.edit_similarities(everyone).tolist() == \
        [reference_similarity(query_words, w) for w in corpus_words]


def test_prepared_query_keeps_one_feature_block(monkeypatch):
    """The feature rows of a later, smaller or reordered set of rows are read
    back from the block the first call built, the bits of building them
    again, and of building the (v, u) rows."""
    calls = []
    real = pairclf.pair_feature_rows
    monkeypatch.setattr(pairclf, "pair_feature_rows",
                        lambda *args: calls.append(len(args[2])) or real(*args))
    exs = [exercise(f"e{i}", text) for i, text in enumerate(
        ["ab cd", "cd ef xy", "ab", "zq zq ab", "ef"])]
    view = PreparedCorpus(Corpus(exs), VOCAB, PARAMS)
    query = PreparedQuery(exercise("q", "ab cd zq"), view)
    u, v = query.view_embedding, view.embeddings
    sims = query.edit_similarities(np.arange(len(exs)))
    for rows in ([3, 1, 4], [1, 4], [4, 3, 1, 1], [0, 3], [2, 0, 1, 3, 4], []):
        rows = np.array(rows, dtype=np.intp)
        block = query.feature_rows(rows)
        assert block.tobytes() == real(u, v[rows], sims[rows]).tobytes()
        assert block.tobytes() == real(v[rows], u, sims[rows]).tobytes()
    # rows 0 and 2 were new in the fourth and fifth calls
    assert calls == [3, 1, 1]


def test_prepared_query_over_rows_longer_than_a_word():
    """The serving path over rows of 60 to 150 tokens, most of them longer
    than 64 tokens, equals the per-pair ``edit_similarity``."""
    rng = np.random.default_rng(3)
    vocab_words = ["ab", "cd", "ef", "xy", "zq", "mn"]
    texts = [" ".join(rng.choice(vocab_words, size=int(rng.integers(60, 150))))
             for _ in range(12)]
    texts.append(" ".join(texts[0].split()[:-1] + ["mn"] * 3))
    view = PreparedCorpus(Corpus([exercise(f"e{i}", t) for i, t in enumerate(texts)]),
                          VOCAB, PARAMS)
    assert max(view.lengths) > 128
    query = PreparedQuery(exercise("q", texts[0] + " zq"), view)
    rows = np.arange(len(texts))
    q_tokens, tokens = (texts[0] + " zq").split(), [t.split() for t in texts]
    assert query.edit_similarities(rows).tolist() == \
        [edit_similarity(q_tokens, t) for t in tokens]
    assert query.edit_similarities(rows).tolist() == \
        [reference_similarity(q_tokens, t) for t in tokens]


def test_prepared_query_keeps_one_view_embedding(monkeypatch):
    """A probe is embedded under its view's params once, however many stages
    read it; a bank query reads its view row and embeds nothing. Under other
    params (the ranker's backbone) every call embeds the query's own ids and
    keeps nothing."""
    calls = []
    real = pairclf.embed_text
    monkeypatch.setattr(pairclf, "embed_text",
                        lambda seq, params: calls.append(params) or real(seq, params))
    other = EncoderParams.init(vocab_size=len(VOCAB), d=4, d_img=2, n_types=1,
                               levels=1, n_concepts=1, seed=1)
    ids = np.array([VOCAB.id_of(t) for t in ("ab", "xy", "cd")])
    expected = {id(p): real(ids, p) for p in (PARAMS, other)}
    exs = [exercise("a", "ab"), exercise("b", "cd ef")]
    view = PreparedCorpus(Corpus(exs), VOCAB, PARAMS)
    featurizer = PairFeaturizer(view)
    query = PreparedQuery(exercise("q", "ab xy cd"), view)
    for _ in range(2):
        assert np.array_equal(featurizer.embedding(query), expected[id(PARAMS)])
        assert np.array_equal(query.feature_rows(np.array([1, 0]))[:, 8:12],
                              query.view_embedding * view.embeddings[[1, 0]])
    assert [id(p) for p in calls] == [id(PARAMS)]
    calls.clear()
    bank = PreparedQuery(exs[1], view)
    assert np.array_equal(featurizer.embedding(bank), view.embeddings[1])
    assert calls == []
    for _ in range(2):
        assert np.array_equal(query.embedding(other), expected[id(other)])
    assert [id(p) for p in calls] == [id(other), id(other)]


def test_prepared_query_refuses_another_preparation():
    """A query prepared over a view with another vocabulary, even one of the
    same tokens, may have other tokens (its stop words differ) and other
    ids."""
    exs = [exercise("a", "ab")]
    view = PreparedCorpus(Corpus(exs), VOCAB, PARAMS)
    for vocab in (Vocab(["ab", "cd", "ef"], ("the",)), Vocab(["ab", "cd", "ef"])):
        query = PreparedQuery(exercise("q", "ab"), PreparedCorpus(Corpus(exs), vocab, PARAMS))
        with pytest.raises(ValueError, match="prepared query"):
            query.require_view(view)
    rows = PreparedQuery(exercise("q", "ab"), view).feature_rows(np.array([0]))
    # the same text on both sides: |u - v| is 0 and u * v is u * u
    assert not rows[0, 4:8].any() and rows[:, -1].tolist() == [1.0]
    assert np.array_equal(rows[0, 8:12], view.embeddings[0] * view.embeddings[0])


def test_rerank_refuses_rows_of_another_index():
    """Rows of another index, even one over the same ids, are not the rows of
    the query's view: re-rank refuses them, with a variant head or without."""
    exs = [exercise("a", "ab"), exercise("b", "cd")]
    view = PreparedCorpus(Corpus(exs), VOCAB, PARAMS)
    query = PreparedQuery(exercise("q", "ab"), view)
    head = PairClassifier(np.zeros(3 * PARAMS.d + 1), 0.0)

    def rows_of(index):
        return Candidates(index, np.array([1, 0]), np.ones(2), np.zeros(2, dtype=np.int8))
    for variant in (head, None):
        with pytest.raises(ValueError, match="not rows of the query's view"):
            rerank.rerank(query, rows_of(PreparedCorpus(Corpus(exs), VOCAB).index), None,
                          variant)
    assert rerank.rerank(query, rows_of(view.index), None, head).all_ids() == ["b", "a"]
    assert query.feature_rows(np.array([1, 0]))[:, -1].tolist() == [0.0, 1.0]
