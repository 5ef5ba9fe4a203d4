"""Generalized factorials and the t-parameter configuration rules."""

from fractions import Fraction

import pytest

from fstirling.factorial import bang_f, bang_ft, check_config, normalize_t
from fstirling.fspec import FSpecError, linear, qpow
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
