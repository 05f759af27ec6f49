import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from exsim.corpus import Metadata
from exsim.textnorm import (
    MetadataError, SEP_ID, Vocab, clean_text,
    encode_metadata, normalize_text, split_tokens,
)


def test_clean_strips_tags():
    assert clean_text("<b>solve</b> x") == "solve x"


def test_clean_empty_identity():
    assert clean_text("") == ""


def test_clean_removes_stop_words():
    assert clean_text("find the value", stop_words={"the"}) == "find value"


def test_clean_strips_style_blocks():
    raw = "<style>.x { color: red; }</style>solve <i>y</i>"
    assert clean_text(raw) == "solve y"


def test_clean_keeps_formula_content():
    # "the" appears inside the formula span and must survive there
    raw = "the sum $t h e$ the end"
    assert clean_text(raw, stop_words={"the"}) == "sum $t h e$ end"


@settings(max_examples=300, deadline=None)
@given(st.text(max_size=80), st.sets(st.sampled_from(["the", "a", "of"])))
def test_clean_never_increases_length(raw, stops):
    assert len(clean_text(raw, stops)) <= len(raw)


def test_normalize_text_canonicalizes_formulas():
    text, fallbacks = normalize_text("solve $x -2m= 0$ now")
    assert text == "solve ( ( x - ( 2 * m ) ) = 0 ) now"
    assert fallbacks == 0


def test_normalize_text_counts_fallbacks():
    _, fallbacks = normalize_text(r"odd $\weird{x}$ thing")
    assert fallbacks == 1


def test_split_tokens_lowercases_and_splits_symbols():
    assert split_tokens("Solve X^2") == ["solve", "x", "^", "2"]


def test_vocab_build_stable_order():
    token_lists = [["b", "b", "a"], ["c", "a"]]
    v1 = Vocab.build(token_lists)
    v2 = Vocab.build(iter(token_lists[::-1]))
    assert len(v1) == len(v2) == 6
    assert [v1.id_of(t) for t in "abc"] == [v2.id_of(t) for t in "abc"]
    # count desc, then alphabetical: a(2) b(2) c(1) -> a before b by token
    assert v1.id_of("a") < v1.id_of("b") < v1.id_of("c")


def test_vocab_reserved_ids():
    vocab = Vocab(["w"])
    assert vocab.id_of("<pad>") == 0
    assert vocab.id_of("<unk>") == 1
    assert vocab.id_of("<sep>") == SEP_ID == 2
    assert vocab.id_of("w") == 3


def test_vocab_save_load(tmp_path):
    for stop_words in ((), ("the", "find the", "the")):
        vocab = Vocab.build([["alpha", "beta", "beta"], ["gamma"]], stop_words=stop_words)
        assert vocab.stop_words == tuple(sorted(set(stop_words)))
        path = tmp_path / "vocab.txt"
        vocab.save(path)
        loaded = Vocab.load(path)
        assert len(loaded) == len(vocab)
        assert loaded.stop_words == vocab.stop_words
        for tok in ("alpha", "beta", "gamma"):
            assert loaded.id_of(tok) == vocab.id_of(tok)
        # a header line that is no token, then line number = id offset by
        # the reserved count
        lines = path.read_text().splitlines()
        assert lines[0] not in vocab
        assert vocab.id_of(lines[1]) == 3
    # a file written before the header existed loads with no stop words
    path.write_text("beta\nalpha\n", encoding="utf-8")
    loaded = Vocab.load(path)
    assert loaded.stop_words == ()
    assert loaded.id_of("beta") == 3 and loaded.id_of("alpha") == 4


def test_vocab_refuses_a_token_with_whitespace():
    for token in ("", "find the", "x\n"):
        with pytest.raises(ValueError, match="whitespace"):
            Vocab([token])


def test_failed_vocab_write_leaves_the_old_file(tmp_path):
    path = tmp_path / "vocab.txt"
    Vocab(["alpha"], ("the",)).save(path)
    before = path.read_bytes()
    # the first token is written, then a lone surrogate cannot be encoded
    with pytest.raises(UnicodeEncodeError):
        Vocab(["beta", "\ud800"]).save(path)
    assert path.read_bytes() == before
    assert [p.name for p in tmp_path.iterdir()] == ["vocab.txt"]


CONCEPTS = tuple(f"c{i:02d}" for i in range(10))


def test_encode_metadata_two_concepts():
    meta = Metadata("choice", 2, ("c03", "c07"))
    enc = encode_metadata(meta, ("choice", "fill"), 5, CONCEPTS)
    assert enc.concept_vector[3] == pytest.approx(0.5)
    assert enc.concept_vector[7] == pytest.approx(0.5)
    assert np.count_nonzero(enc.concept_vector) == 2


def test_encode_metadata_single_concept_is_onehot():
    enc = encode_metadata(Metadata("fill", 1, ("c00",)), ("choice", "fill"), 5, CONCEPTS)
    assert enc.concept_vector[0] == 1.0
    assert enc.concept_vector.sum() == 1.0


def test_encode_metadata_difficulty_onehot():
    enc = encode_metadata(Metadata("choice", 2, ("c01",)), ("choice",), 5, CONCEPTS)
    assert list(enc.difficulty_onehot) == [0.0, 1.0, 0.0, 0.0, 0.0]
    assert list(enc.type_onehot) == [1.0]


@settings(max_examples=100, deadline=None)
@given(st.sets(st.sampled_from(CONCEPTS), min_size=1, max_size=8))
def test_concept_vector_sums_to_one(concepts):
    enc = encode_metadata(Metadata("choice", 1, tuple(concepts)), ("choice",), 5, CONCEPTS)
    assert abs(enc.concept_vector.sum() - 1.0) < 1e-12


def test_encode_metadata_unknown_concept_rejected():
    with pytest.raises(MetadataError, match="concept"):
        encode_metadata(Metadata("choice", 1, ("zzz",)), ("choice",), 5, CONCEPTS)
    with pytest.raises(MetadataError, match="type"):
        encode_metadata(Metadata("proof", 1, ("c01",)), ("choice",), 5, CONCEPTS)
    with pytest.raises(MetadataError, match="difficulty"):
        encode_metadata(Metadata("choice", 7, ("c01",)), ("choice",), 5, CONCEPTS)
