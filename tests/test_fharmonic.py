"""p-order harmonic partial sums: route equivalence, weighted-sum table,
proposition checkers, and the numeric series operations."""

import itertools
import math
import os
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fstirling import fharmonic
from fstirling.eulersum import euler_sum_floor, euler_sum_numeric
from fstirling.factorial import check_config
from fstirling.fharmonic import (
    corollary_expansions_check,
    fharmonic_direct,
    harmonic_via_ftilde,
    harmonic_via_roots,
    harmonic_via_subst,
    prop1_recurrence_check,
    prop2_functional_eq_check,
    s1_from_wf_check,
    stirling_harmonic_identity_check,
    wf_table,
)
from fstirling.fspec import FSpecError, linear, parse_fspec, poly, qpow, table
from fstirling.laurent import LaurentPoly

DATA = os.path.join(os.path.dirname(__file__), "data")
TABLE = parse_fspec(f"table:{os.path.join(DATA, 'table12.json')}")

MATRIX = [
    (linear(1, 0), 1),
    (linear(1, 0), Fraction(3, 2)),
    (linear(1, 0), "t"),
    (linear(2, 1), 1),
    (linear(2, 1), Fraction(3, 2)),
    (linear(2, 1), "t"),
    (qpow(1), 1),
    (TABLE, 1),
    (TABLE, "t"),
]


def test_hand_anchor_p2_n3():
    spec = linear(1, 0)
    expect = Fraction(49, 36)  # 1 + 1/4 + 1/9
    assert fharmonic_direct(spec, 2, 3, Fraction(1)) == expect
    assert harmonic_via_ftilde(spec, 1, 2, 3) == expect
    assert harmonic_via_roots(spec, 1, 2, 3) == expect


@pytest.mark.parametrize("spec,t", MATRIX)
def test_route_equivalence(spec, t):
    tp = check_config(spec, t)
    for n in range(11):
        for p in range(1, 6):
            direct = fharmonic_direct(spec, p, n, tp ** p)
            assert harmonic_via_ftilde(spec, tp, p, n) == direct, (p, n)
            assert harmonic_via_roots(spec, tp, p, n) == direct, (p, n)


def test_subst_route_matches_direct():
    for spec in (linear(1, 0), linear(2, 1), TABLE):
        for n in range(9):
            for p in range(1, 5):
                got = harmonic_via_subst(spec, p, n)
                want = fharmonic_direct(spec, p, n, LaurentPoly.monomial("u", p))
                assert got == want, (p, n)


@pytest.mark.parametrize("spec,t", MATRIX)
def test_direct_sums_extend_on_demand(monkeypatch, spec, t):
    tp = check_config(spec, t)
    store = {}
    monkeypatch.setattr(fharmonic, "DIRECT_SUMS", store)
    for n in (4, 2, 9, 0, 9):
        got = fharmonic_direct(spec, 3, n, tp ** 3)
        monkeypatch.setattr(fharmonic, "DIRECT_SUMS", {})
        fresh = fharmonic_direct(spec, 3, n, tp ** 3)
        monkeypatch.setattr(fharmonic, "DIRECT_SUMS", store)
        assert (got.var, got.lo, got.num, got.den) == \
            (fresh.var, fresh.lo, fresh.num, fresh.den), n
    assert [len(sums) for sums in store.values()] == [10]


@pytest.mark.parametrize("spec,t", MATRIX)
def test_telescoping(spec, t):
    tp = check_config(spec, t)
    for p in (1, 2, 3):
        prev = fharmonic_direct(spec, p, 0, tp)
        for n in range(1, 12):
            cur = fharmonic_direct(spec, p, n, tp)
            fn = cur - prev
            from fstirling.fspec import eval_f

            want = tp ** n / eval_f(spec, n) ** p
            assert fn == want, (p, n)
            prev = cur


@pytest.mark.parametrize("spec,t", MATRIX)
def test_wf_expansion_lines(spec, t):
    rep = s1_from_wf_check(spec, t, 8)
    assert rep.passed, rep.failures[:3]


def test_wf_hand_anchor():
    # [4,3] = 3!(H_3^2 - H_3^(2))/2 = 6 for f(n)=n, t=1
    spec = linear(1, 0)
    h1 = Fraction(11, 6)
    h2 = Fraction(49, 36)
    assert 6 * (h1 ** 2 - h2) / 2 == 6
    # column formula: entry(4,3) = 3!_f w(4,3)/2!, so w(4,3) = H^2 - H^(2)
    values, harmonics = wf_table(spec, 1, 3, 3)
    assert values[3] == h1 ** 2 - h2
    assert harmonics == (h1, h2)


@pytest.mark.parametrize("spec,t", MATRIX)
def test_corollary_closed_forms(spec, t):
    rep = corollary_expansions_check(spec, t, 8)
    assert rep.passed, rep.failures[:3]


PROP1_SPECS = (linear(1, 0), linear(2, 1))


def test_prop1_as_printed_residuals_are_the_documented_ones():
    """The as-printed recurrence has a nonzero residual exactly when the
    leading single term is active (n >= p+1); the residual is accounted for
    by scaling that term by p+1.  See KNOWN_ISSUES.md."""
    for spec, p, n in itertools.product(PROP1_SPECS, range(1, 7), range(9)):
        rep = prop1_recurrence_check(spec, p, n)
        by_key = {c.indices[2]: c for c in rep.cells}
        assert by_key["with-leading-factor"].passed, (spec, p, n)
        assert by_key["as-printed"].passed == (n <= p), (spec, p, n)


def test_prop1_residual_formula():
    """Residual of the as-printed form equals
    p (-1)^p t^s t^(-ps/(p+1)) [n+1, p+2] / n!_f (in u with t = u^(p(p+1)))."""
    from fstirling.factorial import bang_f
    from fstirling.stirling import s1_triangle

    for spec, p in itertools.product(PROP1_SPECS, range(1, 7)):
        for n in range(p + 1, 9):
            rep = prop1_recurrence_check(spec, p, n)
            cell = [c for c in rep.cells if c.indices[2] == "as-printed"][0]
            residual = cell.lhs - cell.rhs
            s = n * (n + 1) // 2
            up = LaurentPoly.variable("u")
            tri = s1_triangle(spec, up ** p, n + 1)
            want = (
                tri.entry(n + 1, p + 2)
                * up ** (p * (p + 1) * s)
                / (up ** (p * p * s) * bang_f(spec, n))
                * Fraction(p * (-1) ** p)
            )
            assert residual == want, (spec, p, n)


@pytest.mark.parametrize("spec,t", MATRIX)
def test_prop2_functional_equations(spec, t):
    for p in range(2, 7):
        for n in range(9):
            rep = prop2_functional_eq_check(spec, t, p, n)
            assert rep.passed, (p, n, rep.failures[:2])


def test_prop2_hand_anchor():
    rep = prop2_functional_eq_check(linear(1, 0), 1, 2, 1)
    lhs_values = {c.indices[2]: c.lhs for c in rep.cells}
    assert lhs_values["first"] == Fraction(5, 4)
    assert lhs_values["second"] == Fraction(5, 4)


def test_classical_stirling_difference_identity():
    for p in range(3, 7):
        for n in range(1, 21):
            rep = stirling_harmonic_identity_check(p, n)
            assert rep.passed, (p, n)
    # hand anchor p=3, n=2: both sides 1/8
    rep = stirling_harmonic_identity_check(3, 2)
    assert rep.cells[0].lhs == Fraction(1, 8)


def test_euler_sum_anchors():
    spec = linear(1, 0)
    assert euler_sum_numeric(spec, 2, 2, "harmonic_over_f") == Fraction(21, 16)
    assert euler_sum_numeric(spec, 2, 1, "fzeta") == 1
    assert euler_sum_numeric(linear(2, 1), 3, 1, "fzeta") == Fraction(1, 27)
    assert euler_sum_numeric(spec, 2, 1, "fzeta2r") == 1
    with pytest.raises(ValueError):
        euler_sum_numeric(spec, 2, 3, "no-such-mode")


def test_euler_sum_matches_rolling_oracle():
    spec = linear(2, 1)
    N = 60
    acc = Fraction(0)
    harmonic = Fraction(0)
    for n in range(1, N + 1):
        fn = Fraction(2 * n + 1)
        harmonic += 1 / fn ** 2
        acc += harmonic / fn ** 2
    assert euler_sum_numeric(spec, 2, N, "harmonic_over_f") == acc


EULER_MODES = ["harmonic_over_f", "fzeta", "fzeta2r"]
_values = st.fractions(min_value=-6, max_value=6, max_denominator=7)
_specs = st.one_of(
    st.builds(linear, _values, _values),
    st.lists(_values, min_size=1, max_size=3).map(lambda cs: poly(*cs)),
    st.lists(_values.filter(bool), min_size=1, max_size=60).map(table),
)


def _floor_or_error(fn, *args):
    try:
        return fn(*args)
    except FSpecError as exc:
        return type(exc)


@settings(max_examples=300, deadline=None)
@given(
    spec=_specs,
    r=st.sampled_from([-1, 0, 1, 2, 3]),
    # Up to 200, past the Euler-Maclaurin head of every linear spec drawn here.
    N=st.integers(1, 200),
    mode=st.sampled_from(EULER_MODES),
    k=st.integers(0, 12),
)
def test_euler_sum_floor_matches_exact_sum(spec, r, N, mode, k):
    unit = 10 ** k
    want = _floor_or_error(lambda: math.floor(euler_sum_numeric(spec, r, N, mode) * unit))
    assert _floor_or_error(euler_sum_floor, spec, r, N, mode, unit) == want


def test_euler_sum_floor_on_a_digit_boundary():
    # 1/5 = 0.2 exactly: no enclosure of it floors to one tenth, so the
    # exact fallback decides.
    assert euler_sum_floor(linear(5, 0), 1, 1, "fzeta", 10) == 2
    assert euler_sum_floor(linear(5, 0), 1, 1, "fzeta", 10 ** 12) == 2 * 10 ** 11


def test_euler_sum_floor_square_of_interval_around_zero():
    # a = (1/3, -1/3): A = 0, so the interval for A contains 0 and A^2 is
    # bounded below by 0; T = (0 + 2/9)/2 = 1/9.
    spec = table([3, -3])
    assert euler_sum_numeric(spec, 1, 2, "harmonic_over_f") == Fraction(1, 9)
    for k in range(13):
        assert euler_sum_floor(spec, 1, 2, "harmonic_over_f", 10 ** k) == 10 ** k // 9


def test_euler_sum_floor_rejects_bad_input():
    with pytest.raises(ValueError):
        euler_sum_floor(linear(1, 0), 2, 0, "fzeta", 10)
    with pytest.raises(ValueError):
        euler_sum_floor(linear(1, 0), 2, 3, "no-such-mode", 10)


# linear:1/7,-13/2 has negative terms before n = 46 and its head runs to n = 77.
EM_SPECS = [linear(1, 0), linear(2, 1), linear(Fraction(3, 2), Fraction(-5, 3)),
            linear(Fraction(1, 7), Fraction(-13, 2))]


@pytest.mark.parametrize("spec", EM_SPECS, ids=str)
@pytest.mark.parametrize("r", [2, 3])
def test_euler_maclaurin_enclosure_brackets_the_exact_sum(spec, r):
    """Head plus Euler-Maclaurin tail encloses the exact partial sum, at a
    precision (2^-256) far below the remainder bound, so a tail without its
    remainder term or with a wrong correction would miss it."""
    from fstirling.eulersum import _enclose, _tail_start

    bits = 256
    for mode in EULER_MODES:
        power = 2 * r if mode == "fzeta2r" else r
        m = _tail_start(spec, power, 10 ** 6)
        assert m == _tail_start(spec, r, 10 ** 6)
        assert _tail_start(spec, power, m - 1) is None
        for N in (m, m + 1, 500, 3000):
            lo, hi, shift = _enclose(spec, power, N, bits, mode == "harmonic_over_f", m)
            exact = euler_sum_numeric(spec, r, N, mode)
            assert lo * exact.denominator <= exact.numerator << shift <= hi * exact.denominator
            # Tight enough to decide over 35 decimal digits.
            assert hi - lo < 1 << (shift - 120)


@pytest.mark.parametrize("spec,power", [
    (linear(1, 0), 1),                # the integral is a logarithm
    (linear(-1, 40), 2),              # a <= 0
    (poly(0, 1), 2),                  # not linear
    (linear(1, -10 ** 6), 2),         # N stops before the tail starts
])
def test_the_euler_maclaurin_tail_only_where_it_applies(spec, power):
    from fstirling.eulersum import _tail_start

    assert _tail_start(spec, power, 1000) is None


def test_euler_sum_floor_classic_sum_from_the_head_alone(monkeypatch):
    from fstirling import eulersum

    streamed = []
    terms = eulersum._terms
    monkeypatch.setattr(eulersum, "_terms", lambda spec, power, N: streamed.append(N)
                        or terms(spec, power, N))
    assert euler_sum_floor(linear(1, 0), 2, 100000, "harmonic_over_f", 10 ** 7) == 18940492
    assert streamed == [31]


# Each numeric spec comes with its own f(n), written here without the package's
# evaluator; None marks n past the end of a table.
_kernel_values = st.fractions(min_value=-7, max_value=7, max_denominator=6)
_kernel_specs = st.one_of(
    st.tuples(_kernel_values, _kernel_values).map(
        lambda ab: (linear(*ab), lambda n: ab[0] * n + ab[1])),
    st.lists(_kernel_values, min_size=1, max_size=3).map(
        lambda cs: (poly(*cs), lambda n: sum(c * n ** i for i, c in enumerate(cs)))),
    st.tuples(_kernel_values.filter(bool), st.integers(-5, 2)).map(
        lambda bo: (qpow(bo[1], base=bo[0]), lambda n: bo[0] ** (n + bo[1]))),
    st.lists(_kernel_values.filter(bool), min_size=1, max_size=60).map(
        lambda vs: (table(vs), lambda n: vs[n - 1] if n <= len(vs) else None)),
)


def _sequential_euler_sums(f, r, N):
    """Term-by-term Fraction sums: {mode: sum over n <= N}."""
    fzeta = fzeta2r = harmonic = Fraction(0)
    for n in range(1, N + 1):
        a = 1 / Fraction(f(n)) ** r
        fzeta += a
        fzeta2r += a * a
        harmonic += fzeta * a
    return {"harmonic_over_f": harmonic, "fzeta": fzeta, "fzeta2r": fzeta2r}


@settings(max_examples=300, deadline=None)
@given(spec_f=_kernel_specs, r=st.integers(-1, 3), N=st.integers(1, 60))
def test_euler_sum_numeric_matches_sequential_fraction_sums(spec_f, r, N):
    from fstirling.eulersum import (
        _prefix_weighted_sum,
        _range_sum,
        _terms,
        fzeta_and_harmonic_sums,
    )
    from fstirling.fspec import eval_f_scalar

    spec, f = spec_f
    bad = next((n for n in range(1, N + 1) if not f(n)), None)
    if bad is not None:
        with pytest.raises(FSpecError) as want:
            eval_f_scalar(spec, bad)
        for mode in EULER_MODES:
            with pytest.raises(FSpecError) as got:
                euler_sum_numeric(spec, r, N, mode)
            assert str(got.value) == str(want.value)
        return
    ref = _sequential_euler_sums(f, r, N)
    for mode in EULER_MODES:
        got = euler_sum_numeric(spec, r, N, mode)
        assert (got.numerator, got.denominator) == (ref[mode].numerator, ref[mode].denominator)
    assert fzeta_and_harmonic_sums(spec, r, N) == (ref["fzeta"], ref["harmonic_over_f"])
    # The prefix-weighted sum carries A = P/D and T = S/D^2 over the lcm D of
    # the term denominators, unreduced; the plain sums' pairs are already in
    # lowest terms with a positive denominator.
    P, S, D = _prefix_weighted_sum(_terms(spec, r, N), N)
    assert D == math.lcm(*(q for _, q in _terms(spec, r, N))) > 0
    assert (Fraction(P, D), Fraction(S, D * D)) == (ref["fzeta"], ref["harmonic_over_f"])
    pairs = [
        ("fzeta", _range_sum(_terms(spec, r, N), N)),
        ("fzeta2r", _range_sum(_terms(spec, 2 * r, N), N)),
    ]
    for mode, pair in pairs:
        assert pair == (ref[mode].numerator, ref[mode].denominator)


def _reduced_add(a, b):
    (na, da), (nb, db) = a, b
    g = math.gcd(da, db)
    t = na * (db // g) + nb * (da // g)
    g2 = math.gcd(t, g)
    return t // g2, (da // g) * (db // g2)


def _reduced_mul(a, b):
    (na, da), (nb, db) = a, b
    g1, g2 = math.gcd(na, db), math.gcd(nb, da)
    return (na // g1) * (nb // g2), (da // g2) * (db // g1)


def _reduced_prefix_weighted_sum(terms, count):
    """(A, T) as lowest-terms pairs, every node reduced: the reference fold."""
    if count == 1:
        a = next(terms)
        return a, (a[0] * a[0], a[1] * a[1])
    half = count // 2
    A1, T1 = _reduced_prefix_weighted_sum(terms, half)
    A2, T2 = _reduced_prefix_weighted_sum(terms, count - half)
    return _reduced_add(A1, A2), _reduced_add(_reduced_add(T1, T2), _reduced_mul(A1, A2))


@pytest.mark.parametrize("f,N", [
    ("linear:2,1", 2000),  # the euler-sum-numeric suite's call
    ("linear:1,0", 3000),  # the N = 3000 exact render
    ("poly:0,1,1", 2000),  # A telescopes to N/(N+1)
    ("qpow:3/2,1", 300),
])
def test_lcm_carry_matches_the_reduced_fold_deep(f, N):
    """Deep trees, beyond the property test's N <= 60: the lcm-carried sums
    equal a fold that reduces every node."""
    from fstirling.eulersum import _terms, fzeta_and_harmonic_sums

    spec = parse_fspec(f)
    A, T = _reduced_prefix_weighted_sum(_terms(spec, 2, N), N)
    assert fzeta_and_harmonic_sums(spec, 2, N) == (Fraction(*A), Fraction(*T))


@pytest.mark.parametrize(
    "spec,bad", [(linear(1, -3), 3), (poly(-4, 0, 1), 2), (table([2, -1, 5]), 4)]
)
def test_euler_sums_raise_the_evaluator_error(spec, bad):
    """A zero f(n), or n past the table, fails every sum with eval_f_scalar's message."""
    from fstirling.fspec import eval_f_scalar

    with pytest.raises(FSpecError) as want:
        eval_f_scalar(spec, bad)
    for mode in EULER_MODES:
        for call in (lambda: euler_sum_numeric(spec, 3, 5, mode),
                     lambda: euler_sum_floor(spec, 3, 5, mode, 10 ** 6)):
            with pytest.raises(FSpecError) as got:
                call()
            assert str(got.value) == str(want.value)
