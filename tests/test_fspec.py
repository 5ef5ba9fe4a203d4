"""f specification DSL: parsing, rendering, evaluation, and error handling."""

import os
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fstirling.fspec import (
    FSpecError,
    eval_f,
    eval_f_scalar,
    linear,
    parse_fspec,
    poly,
    qpow,
    table,
)

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
    ],
)
def test_parse_render_round_trip(text):
    spec = parse_fspec(text)
    assert parse_fspec(spec.render()) == spec


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


def test_integer_pairs_reject_what_eval_f_scalar_rejects():
    from fstirling.fspec import f_pairs

    for spec, n in ((linear(1, 0), 0), (qpow(1), 2), (linear(2, -6), 3), (table([1, 2]), 3)):
        with pytest.raises(FSpecError) as want:
            eval_f_scalar(spec, n)
        with pytest.raises(FSpecError) as got:
            list(f_pairs(spec, n, n + 1))
        assert str(got.value) == str(want.value)
