"""Truncated power series arithmetic: anchors, truncation semantics, and an
independent long-division oracle for the Bernoulli expansion."""

from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fstirling.cyclotomic import power_coeffs
from fstirling.laurent import LaurentPoly
from fstirling.series import TruncSeries, geometric_minus_one_over

rationals = st.fractions(min_value=-20, max_value=20, max_denominator=10)


def long_division(num, den, order):
    """Independent oracle: schoolbook division of coefficient lists."""
    out = []
    num = list(num) + [Fraction(0)] * (order + 1)
    for k in range(order + 1):
        q = num[k] / den[0]
        out.append(q)
        for i, d in enumerate(den):
            if k + i <= order:
                num[k + i] -= q * d
    return out


def test_bernoulli_expansion_anchor():
    # z/(e^z - 1) = 1 - z/2 + z^2/12 + 0 z^3 - z^4/720 ...
    order = 6
    z = TruncSeries.variable("z", order)
    ez1 = TruncSeries.exp("z", 1, order) - 1
    got = z / ez1
    # oracle: divide coefficient lists [0,1,0,...] by [0,1,1/2,1/6,...]
    num = [Fraction(0), Fraction(1)]
    den = [Fraction(0)] + [Fraction(1, __import__("math").factorial(k)) for k in range(1, order + 2)]
    # shared leading zero is cancelled by hand for the oracle
    oracle = long_division(num[1:], den[1:], order - 1)
    assert got.coeffs[:order] == oracle
    assert got.coeff(0) == 1
    assert got.coeff(1) == Fraction(-1, 2)
    assert got.coeff(2) == Fraction(1, 12)
    assert got.coeff(4) == Fraction(-1, 720)


def test_geometric_minus_one_over_matches_division():
    order = 8
    z = TruncSeries.variable("z", order)
    rate = Fraction(3, 2)
    direct = (TruncSeries.exp("z", rate, order) - 1) / (z * rate)
    assert direct.coeffs[: order - 1] == geometric_minus_one_over("z", order, rate).coeffs[: order - 1]


def test_self_division_and_geometric_factorization():
    order = 5
    z = TruncSeries.variable("z", order)
    a = 1 + z + z * z * 3
    assert (a / a).coeffs == TruncSeries.constant("z", Fraction(1), order).coeffs
    one_minus_z2 = 1 - z * z
    one_minus_z = 1 - z
    q = one_minus_z2 / one_minus_z
    assert q.coeffs[:2] == [Fraction(1), Fraction(1)]
    assert all(c == 0 for c in q.coeffs[2:])


def test_truncation_is_explicit():
    s = TruncSeries("z", 2, [1, 2, 3])
    assert s.order == 2
    with pytest.raises(IndexError):
        s.coeff(3)
    assert s.coeff(-1) == 0
    # arithmetic carries the minimum order
    t = TruncSeries("z", 4, [1, 1, 1, 1, 1])
    assert (s + t).order == 2
    assert (s * t).order == 2
    with pytest.raises(ValueError):
        s.truncate(5)


def test_exp_multiplicativity():
    a = TruncSeries.exp("z", Fraction(2, 3), 7)
    b = TruncSeries.exp("z", Fraction(1, 3), 7)
    assert (a * b).coeffs == TruncSeries.exp("z", 1, 7).coeffs


@settings(max_examples=150)
@given(st.lists(rationals, min_size=1, max_size=6).filter(lambda c: c[0] != 0))
def test_inverse_is_two_sided(coeffs):
    s = TruncSeries("z", len(coeffs) - 1, coeffs)
    prod = s * s.inverse()
    assert prod.coeff(0) == 1
    assert all(c == 0 for c in prod.coeffs[1:])


def test_compose_horner_anchor():
    # exp(2z) composed with z^2: coefficients 2^k/k! at even degrees
    order = 6
    inner = TruncSeries("z", order, [Fraction(0), Fraction(0), Fraction(1)])
    outer = TruncSeries.exp("z", 2, order)
    got = outer.compose(inner)
    assert got.coeff(0) == 1
    assert got.coeff(2) == 2
    assert got.coeff(4) == 2
    assert got.coeff(6) == Fraction(4, 3)
    assert got.coeff(1) == 0 and got.coeff(3) == 0
    with pytest.raises(ValueError):
        outer.compose(outer)  # nonzero constant term


def test_variable_mismatch_rejected():
    with pytest.raises(ValueError):
        TruncSeries.variable("z", 3) + TruncSeries.variable("w", 3)


def repeated_product(coeffs, e, order):
    """Independent oracle: e-fold schoolbook product of a coefficient list,
    starting from the series 1, with no zero skipping."""
    out = [Fraction(1)] + [Fraction(0)] * order
    for _ in range(e):
        out = [
            sum((out[i] * coeffs[k - i] for i in range(k + 1)), Fraction(0))
            for k in range(order + 1)
        ]
    return out


def _power_cases():
    t = LaurentPoly.variable("t")
    lp0 = LaurentPoly.constant(0)
    return [
        [Fraction(3, 2), Fraction(-1), Fraction(0), Fraction(2, 3), Fraction(5), Fraction(0)],
        [Fraction(0), Fraction(0), Fraction(1), Fraction(-1, 2), Fraction(3), Fraction(1, 7),
         Fraction(0), Fraction(2)],
        [t + 1, t ** -2 * Fraction(2, 3), lp0, -t * t, t ** 3 - 1],
        # the ftilde shape: LaurentPoly zeros in the two lowest places
        [lp0, lp0, t + 1, t ** -1 * Fraction(2, 3), -t * t, lp0, t],
    ]


@pytest.mark.parametrize("coeffs", _power_cases())
def test_power_equals_repeated_multiplication(coeffs):
    order = len(coeffs) - 1
    powers = [repeated_product(coeffs, e, order) for e in range(10)]
    if isinstance(coeffs[0], LaurentPoly):
        # Laurent coefficients: the packed kernel of the ftilde route, which
        # reads [w^(p-r)] g^r for r = 1..p.
        for p in range(1, order + 2):
            assert power_coeffs(p, coeffs) == [powers[r][p - r] for r in range(1, p + 1)], p
        return
    s = TruncSeries("w", order, coeffs)
    for e in range(10):
        power = s ** e
        assert power.order == order
        assert power.coeffs == powers[e], e
