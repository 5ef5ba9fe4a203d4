"""Cyclotomic arithmetic: reduction, rationality of norms, root-of-unity sums,
and the packed root-of-unity product against a CyclotomicElem reference at
prime p and a reference modulo Phi_p at composite p."""

import os
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fstirling.cyclotomic import CyclotomicElem, is_prime, twisted_product_coeff
from fstirling.factorial import bang_f, check_config
from fstirling.fharmonic import harmonic_via_roots
from fstirling.fspec import linear, parse_fspec, poly, qpow
from fstirling.laurent import LaurentPoly
from fstirling.stirling import s1_triangle

DATA = os.path.join(os.path.dirname(__file__), "data")


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
    elem = CyclotomicElem(p, [t, LaurentPoly.constant(1)])
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
        zeros = [Fraction(0), LaurentPoly.constant(0)]
        for z in zeros:
            assert not CyclotomicElem(p, [z] * (p - 1))
        for i in range(p - 1):
            for nonzero in (Fraction(-1, 3), t, t - t + 2):
                coords = [zeros[i % 2]] * (p - 1)
                coords[i] = nonzero
                assert CyclotomicElem(p, coords)
        assert not CyclotomicElem.zeta_pow(p, 1) - CyclotomicElem.zeta_pow(p, p + 1)


# -- the packed root-of-unity product ---------------------------------------


def reference_product(p, entries):
    """[w^(2p)] prod_m sum_k entries[k] zeta^(m(k-1)) w^k for prime p, by a
    schoolbook product of CyclotomicElem coefficient lists cut at w^(2p): the
    route's product before it was packed."""
    order = 2 * p
    zero = CyclotomicElem.scalar(p, Fraction(0))
    prod = [CyclotomicElem.scalar(p, Fraction(1))] + [zero] * order
    for m in range(p):
        factor = [CyclotomicElem.zeta_pow(p, m * (k - 1)).scale(e)
                  for k, e in enumerate(entries[:order + 1])]
        grown = [zero] * (order + 1)
        for i, a in enumerate(prod):
            for k, b in enumerate(factor[:order + 1 - i]):
                if a and b:
                    grown[i + k] = grown[i + k] + a * b
        prod = grown
    return prod[order].rational_part()


def monic_divmod(num, den):
    """Quotient and remainder of the coefficient list ``num`` by the monic
    integer list ``den``, lowest degree first."""
    num, deg = list(num), len(den) - 1
    quot = [0] * max(len(num) - deg, 0)
    for i in range(len(quot) - 1, -1, -1):
        quot[i] = c = num[i + deg]
        if c:
            for j, d in enumerate(den):
                num[i + j] = num[i + j] - c * d
    return quot, num[:deg]


def cyclotomic_polynomial(p):
    """Phi_p: x^p - 1 divided by Phi_d for every proper divisor d of p."""
    num = [-1] + [0] * (p - 1) + [1]
    for d in range(1, p):
        if p % d == 0:
            num = monic_divmod(num, cyclotomic_polynomial(d))[0]
    return num


def phi_reference(p, entries):
    """[w^(2p)] prod_m sum_k entries[k] x^(m(k-1)) w^k in Q(t)[x]/Phi_p(x), any
    p: a schoolbook product of lists of x-coefficient lists, cut at w^(2p)."""
    phi, order = cyclotomic_polynomial(p), 2 * p
    prod = [[1]] + [[]] * order
    for m in range(p):
        grown = [[] for _ in range(order + 1)]
        for i, a in enumerate(prod):
            for k, e in enumerate(entries[:order + 1 - i]):
                if not (a and e):
                    continue
                term, out = [0] * (m * (k - 1) % p) + [c * e for c in a], grown[i + k]
                out += [0] * (len(term) - len(out))
                for j, c in enumerate(term):
                    out[j] = out[j] + c
        prod = [monic_divmod(g, phi)[1] for g in grown]
    top = prod[order] or [0]
    assert not any(top[1:]), top
    return top[0]


def reference_roots(spec, t, p, n):
    tp = check_config(spec, t)
    tri = s1_triangle(spec, tp, n + 1)
    entries = [tri.entry(n + 1, k) for k in range(min(n + 1, 2 * p) + 1)]
    scale = tp ** (p * n * (n + 1) // 2) / bang_f(spec, n) ** p
    return scale * reference_product(p, entries) * Fraction((-1) ** (p + 1))


def fields(value):
    return value.var, value.lo, value.num, value.den


NUMERIC_T = [1, Fraction(3, 2), Fraction(-2, 5)]
ROUTE_CASES = [(f, t) for f in (linear(2, 1), poly(1, 0, 1),
                                parse_fspec(f"table:{os.path.join(DATA, 'table12.json')}"),
                                qpow(1, base=Fraction(3, 2)))
               for t in NUMERIC_T + ["t", "u"]]
ROUTE_CASES += [(qpow(1), t) for t in NUMERIC_T]


@pytest.mark.parametrize("spec,t", ROUTE_CASES,
                         ids=[f"{f.render().replace(DATA + os.sep, '')}@{t}" for f, t in ROUTE_CASES])
def test_roots_route_matches_the_cyclotomic_reference(spec, t):
    for p in (2, 3, 5, 7):
        for n in range(11):
            assert fields(harmonic_via_roots(spec, t, p, n)) == \
                fields(reference_roots(spec, t, p, n)), (p, n)


def test_wide_mixed_sign_coefficients():
    # Coefficients far above 2^64 of both signs, with denominators and
    # exponents spread out: a slot sized from the largest entry coefficient,
    # not from the product bound, would carry into its neighbours.
    t = LaurentPoly.variable("t")
    big = 2 ** 70
    entries = [
        LaurentPoly.constant(0),
        (big + 3) * t - (big // 2 + 1) * t ** 2 + Fraction(5, 7),
        -(big ** 2 - 1) * t ** -3 + Fraction(big - 1, 3) * t,
        t ** 4 * (big + 1) - t * (big - 1) + big,
        -(t ** 2) * Fraction(big, 11) + 1,
        (t - big) * (t + big),
    ]
    for p in (2, 3, 5):
        got = twisted_product_coeff(p, entries)
        want = reference_product(p, entries)
        assert fields(got) == fields(want), p
        assert max(abs(c) for c in got.num).bit_length() > 64


def test_product_of_no_terms_is_zero():
    zero, one = LaurentPoly.constant(0), LaurentPoly.constant(1)
    assert twisted_product_coeff(3, [zero] * 4) == 0
    assert twisted_product_coeff(4, [zero] * 9) == 0
    # prod_m zeta^m w^2 = zeta^(p(p-1)/2) w^(2p), and zeta^(p/2) = -1 for even p
    assert twisted_product_coeff(4, [zero, one]) == 0
    for p in range(1, 10):
        assert twisted_product_coeff(p, [zero, zero, one]) == (-1) ** (p - 1), p


laurent = st.builds(
    lambda terms: LaurentPoly("t", terms),
    st.dictionaries(st.integers(min_value=-4, max_value=4),
                    st.fractions(min_value=-10 ** 6, max_value=10 ** 6, max_denominator=30),
                    max_size=3),
)


@settings(max_examples=60, deadline=None)
@given(st.sampled_from([2, 3, 5, 4, 6, 8, 9]), st.lists(laurent, min_size=1, max_size=11))
def test_twisted_product_is_rational(p, entries):
    # Replacing zeta by zeta^j permutes the factors, so the coefficient is
    # Galois invariant: rational for any entries, never a ValueError.  A
    # composite order is checked modulo Phi_p, without the Mobius readout.
    got = twisted_product_coeff(p, entries)
    assert got == (reference_product if is_prime(p) else phi_reference)(p, entries)
