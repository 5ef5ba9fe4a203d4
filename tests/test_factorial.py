"""Generalized factorials and the t-parameter configuration rules."""

from fractions import Fraction

import pytest

from fstirling.factorial import bang_f, bang_ft, check_config, normalize_t
from fstirling.fspec import FSpecError, eval_f, linear, poly, qpow, table
from fstirling.laurent import LaurentPoly


def test_normalize_t_forms():
    assert normalize_t(1).constant_value() == 1
    assert normalize_t(Fraction(3, 2)).constant_value() == Fraction(3, 2)
    assert normalize_t("t").terms == {1: Fraction(1)}
    mono = LaurentPoly.monomial("u", 6)
    assert normalize_t(mono) is mono
    with pytest.raises(ValueError):
        normalize_t(0)
    with pytest.raises(ValueError):
        normalize_t(LaurentPoly("t", {0: 1, 1: 1}))


def test_one_formal_variable_convention():
    assert check_config(qpow(1), Fraction(2)).constant_value() == 2
    with pytest.raises(FSpecError):
        check_config(qpow(1), "t")


def test_bang_f_and_bang_ft():
    spec = linear(2, 1)  # f: 3, 5, 7, ...
    assert bang_f(spec, 0).constant_value() == 1
    assert bang_f(spec, 3).constant_value() == 3 * 5 * 7
    scaled = bang_ft(spec, Fraction(2), 3)
    assert scaled.constant_value() == Fraction(105, 2 ** 6)
    sym = bang_ft(spec, "t", 2)
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
    for n in range((len(spec.table) or 8) + 1):
        got, want = bang_f(spec, n), _bang_f_by_products(spec, n)
        assert (got.var, got.lo, got.num, got.den) == (want.var, want.lo, want.num, want.den)


@pytest.mark.parametrize("spec,message", [
    (linear(1, -3), "f(3) = 0 for spec 'linear:1,-3'"),
    (table([1, 2, 3]), r"f(4) is outside the table (length 3)"),
    (qpow(-2, 0), "f(1) = 0^-1 is undefined"),
], ids=["zero-value", "past-the-table", "zero-base"])
def test_bang_f_raises_where_the_product_does(spec, message):
    for compute in (bang_f, _bang_f_by_products):
        with pytest.raises(FSpecError) as info:
            compute(spec, 6)
        assert message in str(info.value)
