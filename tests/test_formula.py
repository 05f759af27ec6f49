import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from exsim.formula import FormulaParseError, normalize_formula, parse_formula


@pytest.mark.parametrize("src,expected", [
    (r"\frac{x}{2}", "( x / 2 )"),
    ("x-2m=0", "( ( x - ( 2 * m ) ) = 0 )"),
    ("2m", "( 2 * m )"),
    ("x^2", "( x ^ 2 )"),
    ("-x", "( - x )"),
    ("sqrt(x+1)", "sqrt ( ( x + 1 ) )"),
    (r"\sqrt{9}", "sqrt ( 9 )"),
    ("sin x", "sin ( x )"),
    (r"a \cdot b", "( a * b )"),
    ("{x+1}", "( x + 1 )"),
    ("3.50", "3.5"),
    ("2.0", "2"),
    ("x^2^3", "( x ^ ( 2 ^ 3 ) )"),
    ("a<b", "( a < b )"),
    (r"\frac{\frac{a}{b}}{c}", "( ( a / b ) / c )"),
])
def test_canonical_forms(src, expected):
    assert parse_formula(src) == expected
    assert normalize_formula(src) == expected


def test_whitespace_invariance():
    assert normalize_formula("x-2m=0") == normalize_formula("x - 2m  = 0")


def test_degree_change_stays_distinguishable():
    # a first-degree and a second-degree equation must not normalize together
    assert parse_formula("x-2m=0") != parse_formula("x^2-2m=0")


def test_fraction_and_division_share_canonical_form():
    assert normalize_formula(r"\frac{x}{2}") == normalize_formula("x/2")


def test_an_unparseable_formula_is_spelled_by_its_characters():
    assert normalize_formula(r"\unknowncmd{x}") == r"\ u n k n o w n c m d { x }"
    assert normalize_formula(" x +  @") == "x + @"
    assert normalize_formula("") == ""


@pytest.mark.parametrize("src,expected", [
    ("1" * 400, "1" * 400),
    ("12345678901234567", "12345678901234567"),
    ("0.00001", "0.00001"),
    ("007.50", "7.5"),
    ("00.50", "0.5"),
    ("000", "0"),
    ("\u0661\u0660.\u0665\u0660", "10.5"),
    ("\uff11\uff10.\uff15\uff10", "10.5"),
    ("\u0660\u0667.\uff150", "7.5"),
], ids=["400-digits", "17-digits", "1e-5", "007.50", "00.50", "000", "arabic-indic",
        "fullwidth", "mixed-scripts"])
def test_numbers_keep_their_digits(src, expected):
    assert normalize_formula(src) == expected
    assert normalize_formula(f"x+{src}") == f"( x + {expected} )"


@pytest.mark.parametrize("src", [
    "x+1", r"\frac{x}{2}", "x^2-2m=0", "sqrt 4", "((a))", "2.5x",
    "@#!$", r"\alpha x", "x+", "3..5", "sqrt", "", "   ", ") x (",
])
def test_idempotent_on_fixed_inputs(src):
    once = normalize_formula(src)
    twice = normalize_formula(once)
    assert once == twice


@settings(max_examples=300, deadline=None)
@given(st.text(alphabet="xy0123456789+-*/^=<>(){}\\ .abqrtsinco"
                       "\u0660\u0661\u0665\u0669\uff10\uff11\uff15\uff19", max_size=25))
def test_idempotent_on_random_inputs(src):
    once = normalize_formula(src)
    assert normalize_formula(once) == once


@settings(max_examples=300, deadline=None)
@given(st.text(max_size=40))
def test_total_and_idempotent_on_any_text(src):
    once = normalize_formula(src)
    assert isinstance(once, str)
    assert normalize_formula(once) == once


# canonical spellings written directly: numbers, symbols, ( l op r ), ( - x ), f ( x )
_leaves = (st.integers(min_value=0, max_value=10 ** 20).map(str)
           | st.sampled_from(["0.5", "3.25", "0.00001", "12.0625"])
           | st.sampled_from("abcxyzmnk"))
_canonical = st.recursive(
    _leaves,
    lambda children: st.one_of(
        st.tuples(children, st.sampled_from("+-*/^=<>"), children).map(
            lambda t: f"( {t[0]} {t[1]} {t[2]} )"),
        children.map(lambda c: f"( - {c} )"),
        st.tuples(st.sampled_from(["sqrt", "sin", "cos", "log"]), children).map(
            lambda t: f"{t[0]} ( {t[1]} )"),
    ),
    max_leaves=12,
)


@settings(max_examples=200, deadline=None)
@given(_canonical)
def test_a_canonical_spelling_reads_back_as_itself(text):
    assert parse_formula(text) == text
    assert normalize_formula(text) == text


def test_parse_errors_carry_position():
    with pytest.raises(FormulaParseError) as exc_info:
        parse_formula("x + @")
    assert "position 4" in str(exc_info.value)


def test_deep_nesting_is_rejected_not_crashing():
    src = "(" * 500 + "x" + ")" * 500
    with pytest.raises(FormulaParseError, match="too deeply nested"):
        parse_formula(src)
    assert normalize_formula(src) == " ".join(src)
