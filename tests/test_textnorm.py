import re

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from exsim.textnorm import (
    SEP_ID, Vocab, canonical_stop_words, clean_text, normalize_text, split_tokens,
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
    assert normalize_text("solve $x -2m= 0$ now") == "solve ( ( x - ( 2 * m ) ) = 0 ) now"


def test_normalize_text_spells_an_unparseable_formula_by_its_characters():
    assert normalize_text(r"odd $\weird{x}$ thing") == r"odd \ w e i r d { x } thing"


def test_a_stop_word_that_can_never_match_is_refused():
    for word in ("?", ",", "x?", "?x", " the"):
        with pytest.raises(ValueError, match=re.escape(repr(word))):
            canonical_stop_words(["the", word])
        with pytest.raises(ValueError, match=re.escape(repr(word))):
            clean_text("what ? now", {word})
    assert canonical_stop_words(["the", "find the", "c++x", "", "the"]) == \
        ("c++x", "find the", "the")
    assert clean_text("to find the c++x now", {"find the", "c++x"}) == "to now"


def test_stop_words_fold_case():
    """``clean_text`` removes a stop word in any case, so its spellings in
    any case are the same stop word."""
    assert canonical_stop_words(["The"]) == canonical_stop_words(["the"]) == ("the",)
    assert canonical_stop_words(["THE", "the", "Find The"]) == ("find the", "the")
    for stop in (["The"], ["the"]):
        assert clean_text("The sum the end", stop) == "sum end"
    assert Vocab(["a"], ["The"]) == Vocab(["a"], ["the"])
    # the one character whose lowercase is two characters
    assert canonical_stop_words(["B\u0130R"]) == canonical_stop_words(["bir"]) == ("bir",)
    assert clean_text("x B\u0130R bir y", ["B\u0130R"]) == "x y"


SPELLINGS = ["\u03a3\u0391\u03a3", "\u03c3\u03b1\u03c2", "\u03c3\u03b1\u03c3",
             "\u00df", "\u1e9e", "ss", "\u0130", "i"]


def test_stop_words_are_equal_exactly_when_clean_text_removes_them_alike():
    """Over the Greek sigma in all three forms, the sharp s and the dotted
    capital I: two stop words canonicalize alike exactly when each removes
    the same spellings. The final sigma is a sigma, and the sharp s stays
    one character (``str.casefold`` would spell it "ss", which
    ``clean_text`` does not remove)."""
    assert canonical_stop_words(SPELLINGS[:3]) == ("\u03c3\u03b1\u03c3",)
    assert canonical_stop_words(["\u00df", "\u1e9e"]) == ("\u00df",)
    assert canonical_stop_words(["\u0130"]) == ("i",)
    removes = {w: frozenset(t for t in SPELLINGS if clean_text(f"a {t} b", [w]) == "a b")
               for w in SPELLINGS}
    for a in SPELLINGS:
        for b in SPELLINGS:
            assert ((canonical_stop_words([a]) == canonical_stop_words([b]))
                    == (removes[a] == removes[b])), (a, b)


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


def test_vocab_refuses_a_token_with_whitespace():
    for token in ("", "find the", "x\n", "a\nb"):
        with pytest.raises(ValueError, match="whitespace"):
            Vocab([token])
        with pytest.raises(ValueError, match="whitespace"):
            Vocab.build([["alpha", token]])


def test_built_vocab_holds_strings_of_its_own():
    """Not the counted texts' strings, which it would keep alive."""
    texts = [["alpha", "beta"], ["beta"]]
    vocab = Vocab.build(texts)
    own = vocab.tokens
    assert own == ["beta", "alpha"]
    assert not any(t is s for t in own for text in texts for s in text)
    assert vocab == Vocab(["beta", "alpha"]) and vocab != Vocab(["alpha", "beta"])
    assert vocab != Vocab(["beta", "alpha"], stop_words=("the",))
