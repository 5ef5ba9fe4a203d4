"""Triangle construction, oracles, and the second-kind transforms."""

import functools
import math
import os
from fractions import Fraction

import pytest

from fstirling import stirling
from fstirling.cli import run_suite
from fstirling.fspec import (MEMO, ZERO, FSpecError, bang_f, bang_ft, check_config, eval_f, linear,
                             parse_fspec, qpow)
from fstirling.laurent import LaurentPoly
from fstirling.report import Report, json_text
from fstirling.stirling import (
    s1_column_closed_forms,
    s1_entry_oracle,
    s1_triangle,
    s2_diff_coeff,
    s2_geom_transform_checks,
    s2_row,
    s2_row_inversion_check,
    s2star_egf_check,
    s2star_entry,
    s2star_ogf_check,
)

DATA = os.path.join(os.path.dirname(__file__), "data")
TABLE = parse_fspec(f"table:{os.path.join(DATA, 'table12.json')}")
ONE = LaurentPoly.constant(1)

MATRIX = [
    (linear(1, 0), 1),
    (linear(1, 0), Fraction(3, 2)),
    (linear(1, 0), "t"),
    (linear(2, 1), 1),
    (linear(2, 1), Fraction(3, 2)),
    (linear(2, 1), "t"),
    (qpow(1), 1),
    (TABLE, 1),
    (TABLE, Fraction(3, 2)),
    (TABLE, "t"),
]


def classical_first_kind(N):
    """Independent recurrence for unsigned classical Stirling numbers:
    c(n, k) = c(n-1, k-1) + (n-1) c(n-1, k)."""
    rows = [[1]]
    for n in range(1, N + 1):
        prev = rows[-1]
        row = []
        for k in range(n + 1):
            left = prev[k - 1] if 1 <= k <= n else 0
            up = prev[k] if k <= n - 1 else 0
            row.append(left + (n - 1) * up)
        rows.append(row)
    return rows


@pytest.mark.parametrize("spec,t", MATRIX)
def test_oracle_equivalence(spec, t):
    N = 12
    tp = check_config(spec, t)
    tri = s1_triangle(spec, tp, N)
    for n in range(N + 1):
        for k in range(n + 1):
            assert tri.entry(n, k) == s1_entry_oracle(spec, tp, n, k), (n, k)


def test_classical_anchor_row_4():
    tri = s1_triangle(linear(1, 0), ONE, 4)
    row = [tri.entry(4, k).constant_value() for k in range(1, 5)]
    assert row == [6, 11, 6, 1]


def test_matches_independent_classical_recurrence():
    N = 12
    tri = s1_triangle(linear(1, 0), ONE, N)
    classical = classical_first_kind(N)
    for n in range(N + 1):
        for k in range(n + 1):
            assert tri.entry(n, k).constant_value() == classical[n][k]


@functools.cache
def gaussian_binomial(m, r):
    """Integer coefficients of the Gaussian binomial [m choose r]_Q in powers
    of Q, by the Q-Pascal rule [m, r] = [m-1, r-1] + Q^r [m-1, r]."""
    if not 0 <= r <= m:
        return ()
    if r in (0, m):
        return (1,)
    left, up = gaussian_binomial(m - 1, r - 1), gaussian_binomial(m - 1, r)
    out = list(left) + [0] * (r + len(up) - len(left))
    for i, c in enumerate(up):
        out[r + i] += c
    return tuple(out)


@pytest.mark.parametrize("spec,t", [(qpow(1), 1), (qpow(-2), Fraction(3, 2)),
                                    (qpow(1, Fraction(3, 2)), Fraction(-2, 5))])
def test_qpow_rows_are_q_binomials(spec, t):
    """f(j) t^(-j) = q^offset Q^j with Q = q/t, so for r = n - k and
    m = n - 1, entry(n, k) = q^(offset r) Q^(r(r+1)/2) [m choose r]_Q, rows 1..24;
    a numeric base stands for q."""
    base, offset = spec.params
    tri = s1_triangle(spec, check_config(spec, t), 24)
    for n in range(1, 25):
        for k in range(n + 1):
            r = n - k
            # exponent of Q -> coefficient, before any q is set to the base
            powers = {r * (r + 1) // 2 + i: c
                      for i, c in enumerate(gaussian_binomial(n - 1, r))}
            if base is None:
                want = {offset * r + e: c / Fraction(t) ** e for e, c in powers.items()}
                assert tri.entry(n, k).terms == want, (n, k)
            else:
                want = sum((c * (base / t) ** e for e, c in powers.items()), Fraction(0))
                assert tri.entry(n, k) == base ** (offset * r) * want, (n, k)


@pytest.mark.parametrize("a,b", [(1, 0), (2, 1), (Fraction(-3, 2), Fraction(1, 3))])
def test_linear_rows_at_t_1_are_alpha_factorial_sums(a, b):
    """f(j) = a j + b at t = 1: x prod_{1<=j<n} (x + b + a j) expands through
    the rising factorial, entry(n, k) =
    sum_m c(n, m+1) a^(n-1-m) C(m, k-1) b^(m-k+1), rows 1..24."""
    tri = s1_triangle(linear(a, b), ONE, 24)
    c = classical_first_kind(24)
    for n in range(1, 25):
        assert tri.entry(n, 0) == 0
        for k in range(1, n + 1):
            want = sum(Fraction(c[n][m + 1]) * Fraction(a) ** (n - 1 - m) * math.comb(m, k - 1)
                       * Fraction(b) ** (m - k + 1) for m in range(k - 1, n))
            assert tri.entry(n, k) == want, (n, k)


def test_q_triangle_has_nonnegative_integer_coefficients():
    tri = s1_triangle(qpow(1), ONE, 10)
    for n in range(11):
        for k in range(n + 1):
            for c in tri.entry(n, k).terms.values():
                assert c.denominator == 1 and c >= 0


def test_triangle_boundaries():
    tri = s1_triangle(linear(2, 1), ONE, 6)
    for n in range(7):
        assert tri.entry(n, n) == 1
        assert tri.entry(n, -1) == 0
        assert tri.entry(n, n + 1) == 0
    for n in range(1, 7):
        assert tri.entry(n, 0) == 0
    with pytest.raises(IndexError):
        tri.entry(7, 1)


def test_symbolic_t_entry_anchor():
    # row 3: e_1 of {f(1)/t, f(2)/t^2} for entry (3,2)
    tri = s1_triangle(linear(1, 0), LaurentPoly.variable("t"), 3)
    assert tri.entry(3, 2).terms == {-1: Fraction(1), -2: Fraction(2)}


def test_column_closed_forms():
    for spec, t in MATRIX:
        rep = s1_column_closed_forms(spec, check_config(spec, t), 6)
        assert rep.passed, rep.failures[:3]


@pytest.mark.parametrize("f,t,N", [("linear:2,1", "t", 12), ("linear:2,1", Fraction(3, 2), 12),
                                   ("qpow:3/2,0", "t", 12), ("poly:1,2", Fraction(-2, 5), 12),
                                   ("table12", Fraction(3, 2), 10)])
def test_column_closed_forms_are_the_direct_triple_sums(f, t, N):
    """The running column sums give the report that rebuilding each (n, k) cell's
    sum over j from scratch gives, byte for byte."""
    spec = TABLE if f == "table12" else parse_fspec(f)
    tp = check_config(spec, t)
    tri = s1_triangle(spec, tp, N + 1)
    want = Report("s1-column-closed-forms", {"f": spec.render(), "t": tp, "N": N})
    for n in range(N + 1):
        nft = bang_ft(spec, tp, n)
        want.check((n, 1), tri.entry(n + 1, 1), nft)
        for k in range(2, n + 2):
            acc = sum((tri.entry(j, k - 1) * tp ** (j * (j + 1) // 2) / bang_f(spec, j)
                       for j in range(1, n + 1)), ZERO)
            want.check((n, k), tri.entry(n + 1, k), nft * acc)
    got = s1_column_closed_forms(spec, tp, N)
    assert got.passed and len(got.cells) == (N + 1) * (N + 2) // 2
    assert json_text(got.to_json()) == json_text(want.to_json())


def test_s2_entry_anchors():
    spec = linear(1, 0)
    assert s2_row(spec, ONE, 1, 2)[1] == 1
    assert s2_row(spec, ONE, 2, 3)[2] == 0  # -2*1/1! + 4/2!
    for n in range(1, 5):
        assert s2_row(spec, ONE, n, 1)[0] == 0
    # n=0: full alternating sum -1 + 3 - 3/2 + 1/6
    assert s2_row(spec, ONE, 0, 4)[3] == Fraction(2, 3)


@pytest.mark.parametrize("spec,t", MATRIX + [(qpow(-1), 2)])
def test_s2_row_matches_its_defining_sum(spec, t):
    """Each entry equals its alternating binomial sum added term by term,
    and prints the same."""
    tp = check_config(spec, t)
    for n in range(7):
        row = stirling.s2_row(spec, tp, n, 8)
        for k in range(8):
            acc = LaurentPoly.constant((-1) ** k if n == 0 else 0)
            for j in range(1, k + 1):
                term = eval_f(spec, j) ** n * tp ** (-(j * n))
                acc = acc + term * Fraction(math.comb(k, j) * (-1) ** (k - j), math.factorial(j))
            assert (row[k], str(row[k])) == (acc, str(acc)), (n, k)


@pytest.mark.parametrize("spec,t", [(linear(2, 1), "t"), (linear(1, 0), Fraction(3, 2)),
                                    (qpow(1), 1)])
def test_s2_rows_invert_to_the_powers(spec, t):
    """Binomial inversion of the defining sum, rows 0..30:
    sum_{j<=k} C(k, j) entry(n, j) = f(k)^n t^(-kn) / k!, and 0^n at k = 0."""
    tp = check_config(spec, t)
    zero = LaurentPoly.constant(0)
    for n in range(31):
        row = s2_row(spec, tp, n, n + 1)
        assert row[0] == 0 ** n, n
        for k in range(1, n + 1):
            lhs = sum((math.comb(k, j) * row[j] for j in range(k + 1)), zero)
            assert lhs == eval_f(spec, k) ** n * tp ** (-(k * n)) / math.factorial(k), (n, k)


@pytest.mark.parametrize("t,rows", [(Fraction(3, 2), 32), ("t", 24)])
def test_s1_rows_are_the_pochhammer_coefficients(t, rows):
    """sum_k entry(n, k) x^k = x prod_{1<=j<n} (x + f(j) t^(-j)) at x = 0..n,
    on rows built afresh by the recurrence."""
    MEMO.clear()
    spec = linear(2, 1)
    tp = check_config(spec, t)
    tri = s1_triangle(spec, tp, rows)
    assert tri.entries[0] == (1,)
    zero, one = LaurentPoly.constant(0), LaurentPoly.constant(1)
    for n in range(1, rows + 1):
        for x in range(n + 1):
            lhs = sum((e * x ** k for k, e in enumerate(tri.entries[n])), zero)
            rhs = x * math.prod((x + eval_f(spec, j) * tp ** (-j) for j in range(1, n)), start=one)
            assert lhs == rhs, (n, x)


def test_s2_diff_coeff_reduces_to_classical():
    # classical second kind {n,k}: rows n=0..4
    classical = {(2, 1): 1, (2, 2): 1, (3, 2): 3, (3, 3): 1, (4, 2): 7, (4, 3): 6}
    spec = linear(1, 0)
    for (n, k), v in classical.items():
        assert s2_diff_coeff(spec, ONE, n, k) == v


@pytest.mark.parametrize("text,t", [("qpow:2,1", 1), ("qpow:-3/2,0", Fraction(3, 2)),
                                    ("qpow:1/3,2", Fraction(-2, 5)), ("qpow:1", Fraction(-2, 5))])
def test_qpow_diff_coeffs_are_a_geometric_closed_form(text, t):
    """For f(m) = base^(m+offset), g(m) = f(m)^k t^(-mk) = A c^m for m >= 1,
    with A = base^(k offset) and c = (base/t)^k, while g(0) is read as 0:
    Delta^j[g](0)/j! = A ((c - 1)^j - (-1)^j)/j!, k = 1..4, j <= 10.  For the
    symbolic base q the right side is the binomial expansion in q."""
    spec = parse_fspec(text)
    base, offset = spec.params
    tp = check_config(spec, t)
    for k in range(1, 5):
        for j in range(11):
            got = s2_diff_coeff(spec, tp, k, j)
            if base is None:
                # A ((c - 1)^j - (-1)^j)
                #     = sum_{1<=i<=j} C(j, i) (-1)^(j-i) t^(-ki) q^(k offset + ki)
                want = {k * offset + k * i: Fraction(math.comb(j, i) * (-1) ** (j - i),
                                                    math.factorial(j)) / Fraction(t) ** (k * i)
                        for i in range(1, j + 1)}
                assert got.terms == want, (k, j)
            else:
                A, c = base ** (k * offset), (base / Fraction(t)) ** k
                assert got == A * ((c - 1) ** j - (-1) ** j) / math.factorial(j), (k, j)


def _diff_coeff_by_binomial_sum(spec, tp, k, j):
    """Delta^j[g](0)/j! written out as sum_m C(j, m) (-1)^(j-m) g(m) / j!."""
    acc = LaurentPoly.constant(0)
    for m in range(j + 1):
        gm = (LaurentPoly.constant(1 if k == 0 else 0) if m == 0
              else eval_f(spec, m) ** k * tp ** (-(m * k)))
        acc = acc + gm * Fraction(math.comb(j, m) * (-1) ** (j - m))
    return acc * Fraction(1, math.factorial(j))


def _s2star_by_binomial_sum(spec, k, j):
    acc = Fraction(0)
    for m in range(1, j + 1):
        fm = eval_f(spec, m).constant_value()
        acc += Fraction(math.comb(j, m) * (-1) ** (j - m), math.factorial(j)) / fm ** k
    return acc


@pytest.mark.parametrize("spec,t", [
    (linear(2, 1), Fraction(3, 2)),
    (linear(2, 1), "t"),
    (parse_fspec("poly:1,0,1"), "t"),
    (TABLE, Fraction(3, 2)),
    (parse_fspec("qpow:3/2,1"), "t"),
])
def test_forward_differences_match_the_binomial_sums(spec, t):
    tp = check_config(spec, t)
    for k in range(6):
        for j in range(9):
            want = _diff_coeff_by_binomial_sum(spec, tp, k, j)
            got = s2_diff_coeff(spec, tp, k, j)
            assert (got, str(got)) == (want, str(want)), (k, j)
            if j:
                assert s2star_entry(spec, k, j) == _s2star_by_binomial_sum(spec, k, j), (k, j)


def test_s2star_rejects_symbolic_f():
    for call in (lambda: s2star_entry(qpow(1), 1, 2), lambda: s2star_ogf_check(qpow(1), 1, 4),
                 lambda: s2star_egf_check(qpow(1), 1, 4)):
        with pytest.raises(FSpecError):
            call()


@pytest.mark.parametrize("spec,t", MATRIX)
def test_geom_transform(spec, t):
    tp = check_config(spec, t)
    for n in range(6):
        for k in range(4):
            [rep] = s2_geom_transform_checks(spec, tp, [n], [k])
            assert rep.passed, rep.failures[:3]


def _geom_report_by_depth(spec, tp, n, k):
    """The geometric-transform report at depth n, its right side built from
    the difference coefficients of the first n + 1 powers alone."""
    report = Report("s2-geom-transform", {"f": spec.render(), "t": tp, "n": n, "k": k})
    lhs = stirling._powers(spec, tp, k, n + 1)
    rhs = [LaurentPoly.constant(0)] * (n + 1)
    for j, coeff in enumerate(stirling._newton(lhs)):
        if not coeff.is_zero():
            for i in range(j, n + 1):
                rhs[i] = rhs[i] + coeff * math.perm(i, j)
    for d in range(n + 1):
        report.check((n, k, d), lhs[d], rhs[d])
    return report


@pytest.mark.parametrize("spec,t", [(linear(2, 1), Fraction(3, 2)), (linear(2, 1), "t"),
                                    (TABLE, 1)])
def test_geom_suite_shares_one_table_per_k(spec, t):
    tp = check_config(spec, t)
    *suite, rows = [json_text(r.to_json()) for r in run_suite("s2-geom", spec, tp, 8)]
    assert len(suite) == 9 * 6
    assert suite == [json_text(s2_geom_transform_checks(spec, tp, [m], [k])[0].to_json())
                     for m in range(9) for k in range(6)]
    assert suite == [json_text(_geom_report_by_depth(spec, tp, m, k).to_json())
                     for m in range(9) for k in range(6)]
    assert rows == json_text(s2_row_inversion_check(spec, tp, 8).to_json())


def test_s2star_anchor():
    spec = linear(1, 0)
    # k=1, j=2: C(2,1)(-1)/2!/1 + C(2,2)/2!/2 = -1 + 1/4
    assert s2star_entry(spec, 1, 2) == Fraction(-3, 4)
    rep = s2star_ogf_check(spec, 1, 4)
    assert rep.passed
    # the OGF identity reproduces 1/f(2) = 1/2 at n=2
    cell = [c for c in rep.cells if c.indices == (2,)][0]
    assert cell.lhs == Fraction(1, 2)


def test_s2star_transforms_numeric_specs():
    for spec in (linear(1, 0), linear(2, 1), TABLE):
        for k in range(4):
            assert s2star_ogf_check(spec, k, 10).passed
        for r in range(4):
            assert s2star_egf_check(spec, r, 8).passed


@pytest.mark.parametrize("sizes", [(10, 3, 12), (12, 3, 10)])
def test_triangle_store_extends_and_truncates(sizes):
    MEMO.clear()
    for spec, tp in ((linear(2, 1), LaurentPoly.constant(Fraction(3, 2))),
                     (TABLE, LaurentPoly.variable("t"))):
        oracle = {(n, k): s1_entry_oracle(spec, tp, n, k)
                  for n in range(13) for k in range(n + 1)}
        for N in sizes:
            tri = s1_triangle(spec, tp, N)
            assert tri.rows == N and len(tri.entries) == N + 1
            with pytest.raises(IndexError):
                tri.entry(N + 1, 1)
            for n in range(N + 1):
                for k in range(n + 1):
                    assert tri.entry(n, k) == oracle[n, k], (N, n, k)


def test_triangle_store_keeps_no_failed_row():
    MEMO.clear()
    # row 14 needs f(13), one past the 12-entry table
    for _ in range(2):
        with pytest.raises(FSpecError):
            s1_triangle(TABLE, ONE, 14)
    assert len(MEMO["s1", TABLE, ONE]) == 14
    tri = s1_triangle(TABLE, ONE, 13)
    assert tri.rows == 13 and len(tri.entries) == 14
    MEMO.clear()
    assert s1_triangle(TABLE, ONE, 13).entries == tri.entries
