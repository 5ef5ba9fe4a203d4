"""f specification DSL: parsing, rendering, evaluation, and error handling;
the generalized factorials and the t-parameter configuration rules."""

import os
import sys
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fstirling import laurent
from fstirling.fharmonic import fharmonic_direct
from fstirling.fspec import (
    MEMO,
    FSpecError,
    bang_f,
    bang_ft,
    check_config,
    eval_f,
    eval_f_scalar,
    linear,
    parse_fspec,
    poly,
    qpow,
    table,
)
from fstirling.laurent import LaurentPoly
from fstirling.stirling import s1_triangle

DATA = os.path.join(os.path.dirname(__file__), "data")


@pytest.mark.parametrize(
    "text",
    [
        "linear:1,0",
        "linear:2,1",
        "linear:-3/2,7/5",
        "poly:1,0,2",
        "qpow:1",
        "qpow:2,0",
        "qpow:3/2,-1",
        "linear:1/2,-3/4",
        "poly:1/6,0,5/4,0",
    ],
)
def test_parse_render_round_trip(text):
    spec = parse_fspec(text)
    assert spec.render() == text
    assert parse_fspec(spec.render()) == spec


@pytest.mark.parametrize("text,params", [
    ("linear:1/2,-3/4", ((-3, 2), 4)),
    ("linear:2,1", ((1, 2), 1)),
    ("poly:1/6,0,5/4", ((2, 0, 15), 12)),
    ("poly:1/6,0,5/4,0", ((2, 0, 15, 0), 12)),
])
def test_linear_and_poly_hold_integers_over_one_denominator(text, params):
    """f(n) = sum_i ints[i] n^i / den, ints in ascending powers of n."""
    spec = parse_fspec(text)
    assert spec.params == params
    ints, den = spec.params
    assert all(type(x) is int for x in (*ints, den))


def test_equal_linear_specs_are_equal_with_equal_hashes():
    specs = [linear(2, 1), parse_fspec("linear:2.0,1"), parse_fspec("linear:4/2,1")]
    assert specs[0] == specs[1] == specs[2]
    assert len({hash(spec) for spec in specs}) == 1


def test_table_round_trip_through_file(tmp_path):
    path = os.path.join(DATA, "table12.json")
    spec = parse_fspec(f"table:{path}")
    assert len(spec.table) == 12
    again = parse_fspec(spec.render())
    assert again.table == spec.table
    assert eval_f_scalar(spec, 1) == Fraction(5, 4)
    with pytest.raises(FSpecError):
        eval_f_scalar(spec, 13)


@settings(max_examples=500)
@given(
    st.fractions(min_value=-40, max_value=40, max_denominator=9),
    st.fractions(min_value=-40, max_value=40, max_denominator=9),
    st.integers(min_value=1, max_value=40),
)
def test_linear_evaluation(a, b, n):
    spec = linear(a, b)
    if a * n + b == 0:
        with pytest.raises(FSpecError):
            eval_f_scalar(spec, n)
    else:
        assert eval_f_scalar(spec, n) == a * n + b
        assert eval_f(spec, n).constant_value() == a * n + b


def test_poly_evaluation():
    spec = poly(1, 0, 2)  # 1 + 2n^2
    assert eval_f_scalar(spec, 3) == 19
    assert parse_fspec("poly:1,0,2") == spec


def test_qpow_symbolic_and_numeric():
    sym = qpow(1)
    assert sym.symbolic
    v = eval_f(sym, 2)
    assert v.terms == {3: Fraction(1)}  # q^(2+1)
    with pytest.raises(FSpecError):
        eval_f_scalar(sym, 2)
    num = qpow(0, base=Fraction(3, 2))
    assert not num.symbolic
    assert eval_f_scalar(num, 2) == Fraction(9, 4)


def test_zero_values_rejected():
    with pytest.raises(FSpecError):
        eval_f_scalar(linear(1, -3), 3)
    with pytest.raises(FSpecError):
        table([1, 0, 2])
    with pytest.raises(FSpecError):
        eval_f(linear(1, 0), 0)


@pytest.mark.parametrize("values", [
    [2, -1, 3, 5],
    [Fraction(2), Fraction(-1), Fraction(6, 2), Fraction(5)],
    ["2.0", "-1", "3", "5.00"],
    ["4/2", "-3/3", "6/2", "10/2"],
    [2, "-2/2", Fraction(3), "0.5e1"],
])
def test_a_table_holds_reduced_integer_pairs(values):
    """Equal values give equal specs with equal hashes, however they are written."""
    spec = table(values)
    assert spec.table == ((2, 1), (-1, 1), (3, 1), (5, 1))
    assert spec == table([2, -1, 3, 5])
    assert hash(spec) == hash(table([2, -1, 3, 5]))


def test_table_pairs_are_in_lowest_terms_with_a_positive_denominator():
    spec = table(["-0.5", "6/4", Fraction(-9, 12), Fraction(3, -4), 7])
    assert spec.table == ((-1, 2), (3, 2), (-3, 4), (-3, 4), (7, 1))
    assert all(isinstance(x, int) for pair in spec.table for x in pair)
    assert [eval_f_scalar(spec, n) for n in range(1, 6)] == [
        Fraction(-1, 2), Fraction(3, 2), Fraction(-3, 4), Fraction(-3, 4), 7]


@pytest.mark.parametrize("zero", [0, "0/3", "0.0", Fraction(0), "-0"])
def test_a_zero_table_value_is_rejected_in_any_form(zero):
    with pytest.raises(FSpecError, match="table contains a zero value"):
        table([1, zero, 2])


def test_zero_qpow_base_to_a_negative_power_rejected():
    spec = parse_fspec("qpow:0,-2")  # f(n) = 0^(n-2)
    with pytest.raises(FSpecError, match=r"f\(1\) = 0\^-1 is undefined"):
        eval_f(spec, 1)
    assert eval_f_scalar(spec, 2) == 1  # 0^0
    with pytest.raises(FSpecError, match=r"f\(3\) = 0 for spec"):
        eval_f_scalar(spec, 3)


@pytest.mark.parametrize(
    "text",
    ["", "linear", "linear:1", "linear:a,b", "qpow:1,2,3", "mystery:1", "table:/no/such/file.json"],
)
def test_malformed_specs_rejected(text):
    with pytest.raises(FSpecError):
        parse_fspec(text)


@pytest.mark.skipif(not hasattr(sys, "get_int_max_str_digits"),
                    reason="this Python has no int-to-string digit limit")
def test_a_numeric_qpow_is_held_to_the_digit_limit():
    """f(1) = base^(1+offset) is judged from bit lengths, so a spec past the
    limit fails at once; |base| = 1, a symbolic offset and a lifted limit
    never fail, and their powers are not built here."""
    for text in ("qpow:2,300000", "qpow:1/2,-300000", "qpow:-3,300000"):
        with pytest.raises(FSpecError, match=r"f\(1\) of .* exceeds the limit"):
            parse_fspec(text)
    for text in ("qpow:2,100", "qpow:1,30000000", "qpow:-1,-30000000", "qpow:3000000"):
        assert parse_fspec(text).render() == text
    limit = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(0)
    try:
        assert parse_fspec("qpow:2,300000") == qpow(300000, 2)
    finally:
        sys.set_int_max_str_digits(limit)


_pair_values = st.fractions(min_value=-7, max_value=7, max_denominator=6)


@settings(max_examples=300)
@given(
    st.one_of(
        st.builds(linear, _pair_values, _pair_values),
        st.lists(_pair_values, min_size=1, max_size=4).map(lambda cs: poly(*cs)),
        st.builds(qpow, st.integers(-5, 3), _pair_values.filter(bool)),
        st.lists(_pair_values.filter(bool), min_size=1, max_size=12).map(table),
    ),
    st.integers(min_value=1, max_value=12),
    st.integers(min_value=0, max_value=12),
)
def test_integer_pairs_match_both_evaluators(spec, lo, count):
    """f_pairs streams f(lo), ..., f(lo + count - 1) as coprime (num, den) with
    den > 0; each equals eval_f_scalar and eval_f's constant, and every error
    is the one eval_f_scalar raises at the same n."""
    from math import gcd

    from fstirling.fspec import f_pairs

    got = []
    try:
        for pair in f_pairs(spec, lo, lo + count):
            got.append(pair)
    except FSpecError as exc:
        with pytest.raises(FSpecError) as want:
            eval_f_scalar(spec, lo + len(got))
        assert str(exc) == str(want.value)
    for n, (num, den) in enumerate(got, lo):
        assert den > 0 and gcd(num, den) == 1
        assert Fraction(num, den) == eval_f_scalar(spec, n) == eval_f(spec, n).constant_value()
        assert next(f_pairs(spec, n, n + 1)) == (num, den)


@settings(max_examples=200)
@given(st.lists(_pair_values, min_size=1, max_size=4), st.integers(min_value=1, max_value=30))
def test_poly_evaluation_matches_the_coefficient_sum(coeffs, n):
    value = sum(c * n ** i for i, c in enumerate(coeffs))
    if value == 0:
        with pytest.raises(FSpecError, match=r"f\(\d+\) = 0 for spec"):
            eval_f(poly(*coeffs), n)
    else:
        assert eval_f(poly(*coeffs), n).constant_value() == value


def test_integer_pairs_reject_what_eval_f_scalar_rejects():
    from fstirling.fspec import f_pairs

    for spec, n in ((linear(1, 0), 0), (qpow(1), 2), (linear(2, -6), 3), (table([1, 2]), 3)):
        with pytest.raises(FSpecError) as want:
            eval_f_scalar(spec, n)
        with pytest.raises(FSpecError) as got:
            list(f_pairs(spec, n, n + 1))
        assert str(got.value) == str(want.value)


def test_check_config_forms():
    spec = linear(1, 0)
    assert check_config(spec, 1).constant_value() == 1
    assert check_config(spec, Fraction(3, 2)).constant_value() == Fraction(3, 2)
    assert check_config(spec, "t").terms == {1: Fraction(1)}
    mono = LaurentPoly.monomial("u", 6)
    assert check_config(spec, mono) is mono
    assert check_config(spec, "3/2").constant_value() == Fraction(3, 2)
    assert check_config(spec, "sym").terms == check_config(spec, "symbolic").terms == {1: 1}
    assert check_config(spec, "sym").var == "t"
    for zero in ("0", 0, LaurentPoly.constant(0)):
        with pytest.raises(FSpecError, match="^t must be nonzero$"):
            check_config(spec, zero)
    with pytest.raises(FSpecError, match="^bad t value 'x'"):
        check_config(spec, "x")
    with pytest.raises(ValueError):
        check_config(spec, LaurentPoly("t", {0: 1, 1: 1}))
    with pytest.raises(ValueError):
        check_config(spec, LaurentPoly.variable("t") + 1)


def test_one_formal_variable_convention():
    assert check_config(qpow(1), Fraction(2)).constant_value() == 2
    with pytest.raises(FSpecError):
        check_config(qpow(1), "t")


def test_bang_f_and_bang_ft():
    spec = linear(2, 1)  # f: 3, 5, 7, ...
    assert bang_f(spec, 0).constant_value() == 1
    assert bang_f(spec, 3).constant_value() == 3 * 5 * 7
    scaled = bang_ft(spec, LaurentPoly.constant(2), 3)
    assert scaled.constant_value() == Fraction(105, 2 ** 6)
    sym = bang_ft(spec, LaurentPoly.variable("t"), 2)
    assert sym.terms == {-3: Fraction(15)}


def _bang_f_by_products(spec, n):
    """bang_f as a running product of ``eval_f`` values, the reference."""
    acc = LaurentPoly.constant(1)
    for j in range(1, n + 1):
        acc = acc * eval_f(spec, j)
    return acc


@pytest.mark.parametrize("spec", [
    linear(2, 1), linear(Fraction(-3, 4), Fraction(5, 6)), poly(1, 0, Fraction(1, 2)),
    qpow(-2, Fraction(3, 2)), qpow(1), table([Fraction(1, 2), -3, 4, Fraction(5, 9)]),
], ids=["linear", "linear-rational", "poly", "qpow-numeric", "qpow-symbolic", "table"])
def test_bang_f_matches_the_product_of_f_values(spec):
    MEMO.clear()
    top = len(spec.table) or 8
    # ascending extends the stored products one at a time; descending reads them back
    for n in [*range(top + 1), *range(top, -1, -1)]:
        got, want = bang_f(spec, n), _bang_f_by_products(spec, n)
        assert (got.var, got.lo, got.num, got.den) == (want.var, want.lo, want.num, want.den)
    assert len(MEMO["bang", spec]) == top + 1


@pytest.mark.parametrize("spec,message,kept", [
    (linear(1, -3), "f(3) = 0 for spec 'linear:1,-3'", 3),
    (table([1, 2, 3]), r"f(4) is outside the table (length 3)", 4),
    (qpow(-2, 0), "f(1) = 0^-1 is undefined", 1),
], ids=["zero-value", "past-the-table", "zero-base"])
def test_bang_f_raises_where_the_product_does(spec, message, kept):
    MEMO.clear()
    for compute in (bang_f, _bang_f_by_products, bang_f):
        with pytest.raises(FSpecError) as info:
            compute(spec, 6)
        assert message in str(info.value)
    # the store holds the products before the failing n, and no other
    assert MEMO["bang", spec] == [_bang_f_by_products(spec, n) for n in range(kept)]


def test_a_store_hit_builds_nothing(monkeypatch):
    spec = linear(2, 1)
    tp = check_config(spec, Fraction(3, 2))
    arg = tp ** 2
    MEMO.clear()
    s1_triangle(spec, tp, 8)
    fharmonic_direct(spec, 2, 8, arg)
    bang_f(spec, 8)
    made = []
    build = laurent._build  # every value, products and powers included, is built here
    monkeypatch.setattr(laurent, "_build", lambda *args: made.append(args) or build(*args))
    zeros = []
    for n in range(9):
        zeros.append(s1_triangle(spec, tp, n).entry(n, n + 1))
        fharmonic_direct(spec, 2, n, arg)
        bang_f(spec, n)
    assert made == []
    assert zeros == [0] * 9


def test_running_products_take_no_gcd_of_two_big_numbers(monkeypatch):
    # Each den is cancelled against the other factor's content before the multiply,
    # so n!_f at n = 400 for f(n) = (3/2)^n, a 127,000-bit numerator over 2^80200,
    # never takes a gcd whose arguments are all as large as the product.
    smallest = []
    gcd = laurent.gcd
    monkeypatch.setattr(laurent, "gcd", lambda *args: smallest.append(
        min(abs(a).bit_length() for a in args)) or gcd(*args))
    MEMO.clear()
    spec = parse_fspec("qpow:3/2,0")
    assert bang_f(spec, 400).constant_value() == Fraction(3, 2) ** 80200
    assert smallest and max(smallest) < 1000
