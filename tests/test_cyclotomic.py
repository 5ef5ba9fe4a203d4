"""Cyclotomic arithmetic: reduction, rationality of norms, root-of-unity sums."""

from fractions import Fraction

import pytest

from fstirling.cyclotomic import CyclotomicElem, is_prime
from fstirling.laurent import LaurentPoly


def test_is_prime():
    assert [p for p in range(20) if is_prime(p)] == [2, 3, 5, 7, 11, 13, 17, 19]


def test_zeta_powers_cycle():
    for p in (2, 3, 5, 7):
        z = CyclotomicElem.zeta_pow(p, 1)
        acc = CyclotomicElem.scalar(p, Fraction(1))
        for _ in range(p):
            acc = acc * z
        assert acc == CyclotomicElem.scalar(p, Fraction(1))
        assert CyclotomicElem.zeta_pow(p, p) == CyclotomicElem.scalar(p, Fraction(1))


def test_power_sum_vanishes():
    for p in (2, 3, 5):
        total = CyclotomicElem.scalar(p, Fraction(0))
        for e in range(p):
            total = total + CyclotomicElem.zeta_pow(p, e)
        assert total.is_rational()
        assert total.rational_part() == 0


def test_norm_is_rational():
    # prod_m (x - zeta^m a) over all m in 0..p-1 is rational for rational a, x
    for p in (2, 3, 5):
        x = Fraction(7, 3)
        a = Fraction(2, 5)
        prod = CyclotomicElem.scalar(p, Fraction(1))
        for m in range(p):
            factor = CyclotomicElem.scalar(p, x) - CyclotomicElem.zeta_pow(p, m).scale(a)
            prod = prod * factor
        assert prod.is_rational()
        # norm of (x - a zeta^m) product equals x^p - a^p
        assert prod.rational_part() == x ** p - a ** p


def test_laurent_coordinates():
    p = 3
    t = LaurentPoly.variable("t")
    elem = CyclotomicElem(p, [t, LaurentPoly.constant("t", 1)])
    sq = elem * elem
    # (t + z)^2 = t^2 + 2tz + z^2, z^2 = -1 - z
    assert sq.coords[0] == t * t - 1
    assert sq.coords[1] == 2 * t - 1


def test_order_checks():
    with pytest.raises(ValueError):
        CyclotomicElem(4, [1, 1, 1])
    with pytest.raises(ValueError):
        CyclotomicElem(3, [1])
    with pytest.raises(ValueError):
        CyclotomicElem.scalar(3, 1) * CyclotomicElem.scalar(5, 1)
    with pytest.raises(ValueError):
        CyclotomicElem.zeta_pow(3, 1).rational_part()


def test_truth_value_is_any_nonzero_coordinate():
    t = LaurentPoly.variable("t")
    for p in (2, 3, 5):
        zeros = [Fraction(0), LaurentPoly.constant("t", 0)]
        for z in zeros:
            assert not CyclotomicElem(p, [z] * (p - 1))
        for i in range(p - 1):
            for nonzero in (Fraction(-1, 3), t, t - t + 2):
                coords = [zeros[i % 2]] * (p - 1)
                coords[i] = nonzero
                assert CyclotomicElem(p, coords)
        assert not CyclotomicElem.zeta_pow(p, 1) - CyclotomicElem.zeta_pow(p, p + 1)
