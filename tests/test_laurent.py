"""Ring-axiom and oracle tests for the Laurent polynomial core."""

from fractions import Fraction
import math
import sys
from math import gcd

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from fstirling.laurent import LaurentPoly, pack_entries
from fstirling.report import digits_unlimited

rationals = st.fractions(
    min_value=-50, max_value=50, max_denominator=12
)


@st.composite
def laurent_polys(draw, var="t"):
    terms = draw(
        st.dictionaries(
            st.integers(min_value=-6, max_value=6), rationals, max_size=5
        )
    )
    return LaurentPoly(var, terms)


@settings(max_examples=350)
@given(laurent_polys(), laurent_polys(), laurent_polys())
def test_ring_axioms(a, b, c):
    assert a + b == b + a
    assert a * b == b * a
    assert (a + b) + c == a + (b + c)
    assert (a * b) * c == a * (b * c)
    assert a * (b + c) == a * b + a * c
    assert a + 0 == a
    assert a * 1 == a
    assert a - a == LaurentPoly("t", {})
    assert a * 0 == LaurentPoly("t", {})


def _evaluate(p: LaurentPoly, x: Fraction) -> Fraction:
    return sum((c * x ** e for e, c in p.terms.items()), Fraction(0))


@settings(max_examples=350)
@given(laurent_polys(), rationals.filter(lambda q: q != 0))
def test_scalar_evaluation_is_homomorphism(a, x):
    b = LaurentPoly("t", {1: Fraction(2), -1: Fraction(1, 3)})
    assert _evaluate(a * b, x) == _evaluate(a, x) * _evaluate(b, x)
    assert _evaluate(a + b, x) == _evaluate(a, x) + _evaluate(b, x)


@settings(max_examples=350)
@given(
    st.dictionaries(st.integers(min_value=-4, max_value=4), rationals, max_size=4),
)
def test_json_round_trip(terms):
    a = LaurentPoly("q", terms)
    data = a.to_json()
    assert LaurentPoly(data["var"], {int(e): Fraction(c) for e, c in data["terms"].items()}) == a


def test_monomial_inverse_and_negative_powers():
    m = LaurentPoly.monomial("t", 3, Fraction(2, 5))
    assert m * m.inverse() == 1
    assert m ** -2 == (m.inverse()) ** 2
    with pytest.raises(ZeroDivisionError):
        (m + 1).inverse()
    with pytest.raises(ZeroDivisionError):
        LaurentPoly("t", {}).inverse()


def test_constant_coercion_across_variables():
    cq = LaurentPoly.constant(Fraction(3, 2))
    pt = LaurentPoly.monomial("t", 2)
    assert cq.var is None and (cq * pt).var == "t"
    assert (cq + pt).coeff(0) == Fraction(3, 2)
    with pytest.raises(ValueError):
        LaurentPoly.variable("q") * LaurentPoly.variable("t")

    # A constant has no variable, whichever constructor built it, and takes the
    # other operand's, so callers never choose one.
    m = LaurentPoly.monomial("u", 3, Fraction(-2, 5))
    neg = {e: -x for e, x in m.terms.items()}
    inv = {-e: 1 / x for e, x in m.terms.items()}
    for value in (Fraction(3, 2), Fraction(-7), Fraction(0)):
        c = LaurentPoly.constant(value)
        built = [LaurentPoly(var, {0: value}) for var in ("q", "t", "u")]
        built += [LaurentPoly.monomial(var, 0, value) for var in ("q", "t", "u")]
        for b in built:
            assert (b.var, b.lo, b.num, b.den) == (None, c.lo, c.num, c.den)
        k = {0: value} if value else {}
        cases = [(c + m, ref_add(k, m.terms)), (m + c, ref_add(k, m.terms)),
                 (c - m, ref_add(k, neg)), (m - c, ref_add(m.terms, {0: -value})),
                 (c * m, ref_mul(k, m.terms)), (m * c, ref_mul(k, m.terms)),
                 (c / m, ref_mul(k, inv))]
        if value:
            cases.append((m / c, ref_mul(m.terms, {0: 1 / value})))
        for got, want in cases:
            want = {e: x for e, x in want.items() if x}
            assert got.terms == want, value
            assert got.var == ("u" if set(want) - {0} else None), value


HASH_MODULUS = sys.hash_info.modulus
ring_values = (laurent_polys("t") | laurent_polys("u") | rationals.map(LaurentPoly.constant)
               | st.just(LaurentPoly.constant(0)))


def check_variable_invariant(p: LaurentPoly, var):
    """A result has a variable exactly when it is not a constant, and then it
    is ``var``, the variable of its non-constant operand; a constant equals,
    and hashes like, its Fraction."""
    assert p.is_constant() == (p.var is None) == (set(p.terms) <= {0})
    if p.is_constant():
        c = p.constant_value()
        assert p == c and hash(p) == hash(c)
    else:
        assert p.var == var


@settings(max_examples=300, deadline=None)
@given(ring_values, ring_values, rationals)
@example(LaurentPoly.monomial("t", 2), LaurentPoly.constant(0), Fraction(0))
# Negative constants: -(M + 2)/2, whose rational hash is -1 and so hashes to -2,
# and a denominator that is a multiple of the hash modulus M, which hashes as infinity.
@example(LaurentPoly.constant(Fraction(-(HASH_MODULUS + 2), 2)), LaurentPoly.constant(-1),
         Fraction(-1, 3))
@example(LaurentPoly.constant(Fraction(-1, HASH_MODULUS)),
         LaurentPoly.constant(Fraction(3, 2 * HASH_MODULUS)), Fraction(-7))
def test_a_constant_has_no_variable(a, b, c):
    check_variable_invariant(a, a.var)
    ops = [lambda x, y: x + y, lambda x, y: x - y, lambda x, y: x * y]
    if b.is_monomial():
        ops.append(lambda x, y: x / y)
    if a.var and b.var and a.var != b.var:
        for op in ops:
            with pytest.raises(ValueError):
                op(a, b)
        return
    for op in ops:
        check_variable_invariant(op(a, b), a.var or b.var)
    for op in ops[:3]:
        check_variable_invariant(op(b, a), a.var or b.var)
        check_variable_invariant(op(a, c), a.var)
        check_variable_invariant(op(c, a), a.var)
    if c:
        check_variable_invariant(a / c, a.var)
    if a.is_monomial():
        check_variable_invariant(a.inverse(), a.var)
        check_variable_invariant(c / a, a.var)
    for e in range(-3 if a.is_monomial() else 0, 4):
        check_variable_invariant(a ** e, a.var)
    for order in range(-3, 4):
        check_variable_invariant(a.cut(order), a.var)


def test_a_non_constant_needs_a_variable():
    assert LaurentPoly(None, {0: Fraction(2, 3)}) == Fraction(2, 3)
    assert LaurentPoly.monomial(None, 0, 5) == 5 and LaurentPoly(None, {}) == 0
    for build in (lambda: LaurentPoly(None, {1: 1}), lambda: LaurentPoly(None, {0: 1, 2: 3}),
                  lambda: LaurentPoly.monomial(None, -2), lambda: LaurentPoly.variable(None)):
        with pytest.raises(ValueError):
            build()


def test_a_coefficient_is_a_number_not_text():
    """Outside text is read by fspec.rational, under the digit limit; the ring
    takes ints and Fractions only, so text raises TypeError as a float does."""
    for build in (lambda: LaurentPoly.constant("1/2"), lambda: LaurentPoly.monomial("t", 1, "2"),
                  lambda: LaurentPoly("t", {0: "1"}), lambda: LaurentPoly.constant(0.5)):
        with pytest.raises(TypeError):
            build()


def test_string_rendering():
    p = LaurentPoly("t", {-1: Fraction(1, 2), 0: -1, 2: 3})
    assert str(p) == "1/2*t^-1 - 1 + 3*t^2"
    assert str(LaurentPoly("t", {})) == "0"


# -- differential test against the dict-of-Fraction algorithm ---------------

def ref_add(a: dict, b: dict) -> dict:
    out = dict(a)
    for e, c in b.items():
        out[e] = out.get(e, Fraction(0)) + c
    return {e: c for e, c in out.items() if c}


def ref_mul(a: dict, b: dict) -> dict:
    out: dict = {}
    for e1, c1 in a.items():
        for e2, c2 in b.items():
            out[e1 + e2] = out.get(e1 + e2, Fraction(0)) + c1 * c2
    return {e: c for e, c in out.items() if c}


# Numerators of up to 300 bits of both signs over mixed denominators.
wide_rationals = st.builds(
    Fraction,
    st.integers(min_value=-(2 ** 300), max_value=2 ** 300),
    st.sampled_from([1, 1, 2, 3, 12, 35, 2 ** 61 - 1, 3 ** 40]),
)


@st.composite
def wide_terms(draw):
    """Up to 60 consecutive exponents, some left out, from a random start."""
    lo = draw(st.integers(min_value=-40, max_value=40))
    size = draw(st.integers(min_value=0, max_value=60))
    coeffs = draw(st.lists(wide_rationals | st.just(Fraction(0)), min_size=size, max_size=size))
    return {lo + i: c for i, c in enumerate(coeffs) if c}


@st.composite
def cancelling_pairs(draw):
    """(a, b) where b is -a except on a few kept exponents of a."""
    a = draw(wide_terms())
    keep = draw(st.sets(st.sampled_from(sorted(a)), max_size=3)) if a else set()
    b = {e: -c for e, c in a.items() if e not in keep}
    b.update({e: draw(wide_rationals) for e in keep})
    return a, b


def check_normalized(p: LaurentPoly):
    assert p.den > 0
    if p.num:
        assert p.num[0] and p.num[-1]
        assert gcd(p.den, *p.num) == 1
    else:
        assert (p.lo, p.den) == (0, 1)


def ref_str(terms: dict, var: str = "t") -> str:
    """The rendering of ``__str__``, term by term from ``Fraction`` values."""
    parts = []
    for e, c in sorted(terms.items()):
        base = var if e == 1 else f"{var}^{e}"
        if e == 0:
            parts.append(str(c))
        elif c == 1:
            parts.append(base)
        elif c == -1:
            parts.append(f"-{base}")
        else:
            parts.append(f"{c}*{base}")
    return " + ".join(parts).replace("+ -", "- ") if parts else "0"


@st.composite
def rendered_terms(draw):
    """Dense runs with gaps, or a few terms spread over 400 exponents, with the
    coefficients 1 and -1 mixed in, since they render without a factor."""
    special = st.sampled_from([Fraction(1), Fraction(-1), Fraction(-1, 2)])
    sparse = st.dictionaries(st.integers(min_value=-200, max_value=200),
                             wide_rationals | special, max_size=4)
    terms = draw(wide_terms() | sparse)
    extra = draw(st.dictionaries(st.integers(min_value=-2, max_value=2), special, max_size=3))
    return {e: c for e, c in {**terms, **extra}.items() if c}


def check_rendering(terms: dict, var: str):
    p = LaurentPoly(var, terms)
    assert str(p) == ref_str(terms, var)
    assert p.to_json() == {"var": var if set(terms) - {0} else None,
                           "terms": {str(e): str(c) for e, c in sorted(terms.items())}}


@settings(max_examples=200, deadline=None)
@given(rendered_terms(), st.sampled_from(["t", "u"]))
def test_rendering_matches_fraction_reference(terms, var):
    check_rendering(terms, var)


def test_rendering_past_the_digit_limit():
    terms = {0: Fraction(-(10 ** 4400) - 1, 3), 1: Fraction(1), 5: Fraction(2, 10 ** 4301)}
    with digits_unlimited():
        check_rendering(terms, "t")
    with pytest.raises(ValueError, match="4300"):
        str(LaurentPoly("t", terms))


@settings(max_examples=150, deadline=None)
@given(wide_terms(), wide_terms())
def test_dense_ring_matches_reference(a, b):
    pa, pb = LaurentPoly("t", a), LaurentPoly("t", b)
    neg_b = {e: -c for e, c in b.items()}
    for result, expected in ((pa + pb, ref_add(a, b)), (pa - pb, ref_add(a, neg_b)),
                             (pa * pb, ref_mul(a, b)), (-pb, ref_add({}, neg_b))):
        check_normalized(result)
        assert result.terms == expected
        assert result == LaurentPoly("t", expected)


@settings(max_examples=150, deadline=None)
@given(cancelling_pairs())
# one inner term survives and then loses a content gcd: its exponent must stay
@example(({-5: Fraction(1, 3), -2: Fraction(2), 4: Fraction(5, 6)},
          {-5: Fraction(-1, 3), -2: Fraction(4), 4: Fraction(-5, 6)}))
def test_dense_sum_cancellation_matches_reference(pair):
    a, b = pair
    total = LaurentPoly("t", a) + LaurentPoly("t", b)
    check_normalized(total)
    assert total.terms == ref_add(a, b)
    product = LaurentPoly("t", a) * LaurentPoly("t", b)
    assert product.terms == ref_mul(a, b)


@settings(max_examples=100, deadline=None)
@given(laurent_polys())
@example(LaurentPoly("t", {}))
@example(LaurentPoly("t", {-3: Fraction(-2, 5)}))
def test_power_matches_repeated_multiplication(a):
    terms = a.terms
    inverse = {-e: 1 / c for e, c in terms.items()} if a.is_monomial() else None
    for e in range(-4, 10):
        if e < 0 and inverse is None:
            with pytest.raises(ZeroDivisionError):
                a ** e
            continue
        expected = {0: Fraction(1)}
        for _ in range(abs(e)):
            expected = ref_mul(expected, terms if e > 0 else inverse)
        power = a ** e
        check_normalized(power)
        assert power.terms == expected, e
        assert power.var == ("t" if set(expected) - {0} else None)


@settings(max_examples=150, deadline=None)
@given(st.sampled_from(["t", "u"]), st.integers(min_value=-9, max_value=9),
       rationals.filter(lambda q: q != 0))
def test_monomial_power_matches_repeated_multiplication(var, exponent, coeff):
    m = LaurentPoly.monomial(var, exponent, coeff)
    for e in range(-7, 8):
        expected = LaurentPoly.constant(1)
        for _ in range(abs(e)):
            expected = expected * (m if e > 0 else m.inverse())
        power = m ** e
        check_normalized(power)
        assert (power.var, power.lo, power.num, power.den) == \
            (expected.var, expected.lo, expected.num, expected.den), e


def test_power_edge_cases_and_binary_powering(monkeypatch):
    zero = LaurentPoly("t", {})
    assert zero ** 0 == 1
    assert zero ** 3 == 0
    with pytest.raises(ZeroDivisionError):
        zero ** -1
    calls = []
    mul = LaurentPoly.__mul__
    monkeypatch.setattr(LaurentPoly, "__mul__", lambda a, b: calls.append(1) or mul(a, b))
    m = LaurentPoly.monomial("t", -2, Fraction(3, 5))
    assert m ** 13 == LaurentPoly.monomial("t", -26, Fraction(3, 5) ** 13)
    assert calls == []  # a monomial's power takes no multiply
    s = LaurentPoly("t", {0: 1, 1: 1})
    assert s ** 13 == LaurentPoly("t", {k: math.comb(13, k) for k in range(14)})
    # 13 = 0b1101: three squarings and three multiplies into the result
    assert len(calls) == 6


@settings(max_examples=100, deadline=None)
@given(laurent_polys(), st.integers(min_value=-8, max_value=8))
def test_cut_drops_the_exponents_above_the_order(a, order):
    cut = a.cut(order)
    check_normalized(cut)
    assert cut.terms == {e: c for e, c in a.terms.items() if e <= order}


pack_inputs = st.lists(laurent_polys() | st.just(LaurentPoly("t", {}))
                       | st.builds(lambda terms: LaurentPoly("t", terms), wide_terms()),
                       min_size=1, max_size=6)


@settings(max_examples=100, deadline=None)
@given(pack_inputs, st.integers(min_value=1, max_value=4), st.data())
def test_packed_products_read_back_as_laurent_products(entries, factors, data):
    packed, read = pack_entries(entries, factors)
    assert [k for k, _ in packed] == [k for k, e in enumerate(entries) if e]
    values = dict(packed)
    one = LaurentPoly.constant(1)
    for r in range(1, factors + 1):
        # A signed sum to the r-th power holds every r-fold product at once.
        signs = data.draw(st.lists(st.sampled_from([1, -1]), min_size=len(entries),
                                   max_size=len(entries)))
        total = sum(signs[k] * v for k, v in packed)
        power = read(total ** r, r)
        check_normalized(power)
        assert power == sum((s * e for s, e in zip(signs, entries)), LaurentPoly("t", {})) ** r
        if values:
            ks = data.draw(st.lists(st.sampled_from(sorted(values)), min_size=r, max_size=r))
            product = read(math.prod(values[k] for k in ks), r)
            check_normalized(product)
            assert product == math.prod((entries[k] for k in ks), start=one)
