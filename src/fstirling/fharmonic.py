"""p-order f-harmonic numbers and the identities built on them.

Three independent routes generate the partial sums sum_{k<=n} arg^k / f(k)^p
(direct, row-generating-function and root-of-unity product); fractional-power
substitution reruns the second at a substitution variable.  Checkers cover the
weighted-sum recursion, the two propositions and the classical-Stirling
difference identity.  The Euler-like series sums live in ``eulersum``.
"""

from __future__ import annotations

import math
from fractions import Fraction
from typing import Dict, List, Tuple

from .cyclotomic import power_coeffs, twisted_product_coeff
# Re-exported: the benchmark tracer times the kernel under this module's name.
from .eulersum import euler_sum_numeric
from .factorial import TParam, bang_f, bang_ft, check_config
from .fspec import FSpec, eval_f
from .laurent import LaurentPoly
from .report import Report
from .stirling import s1_triangle


# Partial sums computed so far per (spec, p, arg), extended on demand like
# stirling.S1_ROWS; cli.main empties the store at the start of each command.
DIRECT_SUMS: Dict[tuple, List[LaurentPoly]] = {}


def fharmonic_direct(spec: FSpec, p: int, n: int, arg) -> LaurentPoly:
    """Exact partial sum  sum_{k=1}^{n} arg^k / f(k)^p.

    ``arg`` is the substituted power of t (a rational, the formal variable,
    or a monomial in a substitution variable).  Sums already computed for
    this (f, p, arg) are reused; a term whose f value fails is not kept.
    """
    if p < 1:
        raise ValueError("order p must be >= 1")
    sums = DIRECT_SUMS.setdefault((spec, p, arg), [LaurentPoly.constant(0)])
    if n >= len(sums):
        power = LaurentPoly.constant(1) * arg ** (len(sums) - 1)
        for k in range(len(sums), n + 1):
            power = power * arg
            sums.append(sums[-1] + power / eval_f(spec, k) ** p)
    return sums[n]


def _row_and_scale(spec: FSpec, t: TParam, p: int, n: int) -> Tuple[list, LaurentPoly]:
    """The generating-function routes' inputs: entry(n+1, k) for k <= 2p, and
    their common factor t^(p n(n+1)/2) / (n!_f)^p."""
    if p < 1:
        raise ValueError("order p must be >= 1")
    tp = check_config(spec, t)
    tri = s1_triangle(spec, tp, n + 1)
    return ([tri.entry(n + 1, k) for k in range(min(n + 1, 2 * p) + 1)],
            tp ** (p * n * (n + 1) // 2) / bang_f(spec, n) ** p)


def harmonic_via_ftilde(spec: FSpec, t: TParam, p: int, n: int) -> LaurentPoly:
    """Generate sum_{k<=n} t^(pk)/f(k)^p from powers of the row polynomial
    ftilde = sum_{k>=2} entry(n+1, k) w^k = w^2 g:

        t^(p n(n+1)/2) / (n!_f)^p *
            [w^(2p)] sum_{j<p} (-1)^j w^j (p/(p-j)) entry(n+1,1)^j ftilde^(p-j)

    where [w^(2p-j)] ftilde^(p-j) = [w^j] g^(p-j) comes from ``power_coeffs``.
    """
    row, scale = _row_and_scale(spec, t, p, n)
    inner = power_coeffs(p, row[2:])
    acc = LaurentPoly.constant(0)
    for j in range(p):
        acc = acc + inner[p - j - 1] * row[1] ** j * Fraction((-1) ** j * p, p - j)
    return scale * acc


def harmonic_via_roots(spec: FSpec, t: TParam, p: int, n: int) -> LaurentPoly:
    """Generate sum_{k<=n} t^(pk)/f(k)^p from the p-fold product of
    root-of-unity-twisted row polynomials, zeta a primitive p-th root:

        t^(p n(n+1)/2)/(n!_f)^p *
            [w^(2p)] (-1)^(p+1) prod_m sum_k entry(n+1,k) zeta^(m(k-1)) w^k
    """
    row, scale = _row_and_scale(spec, t, p, n)
    return scale * twisted_product_coeff(p, row) * Fraction((-1) ** (p + 1))


def harmonic_via_subst(spec: FSpec, p: int, n: int) -> LaurentPoly:
    """Generate sum_{k<=n} t^k/f(k)^p with t = u^p via a triangle built at the
    substitution parameter u (so fractional powers of t never appear), by the
    ftilde route, whose cost grows more slowly in p than the roots grid's.

    The result is a Laurent polynomial in u.  It serves the ``subst`` cells
    of the harmonic-routes suite, which compare it with the direct sum at
    t = u^p; the CLI has no method for it.
    """
    return harmonic_via_ftilde(spec, check_config(spec, "u"), p, n)


# -- weighted sums ---------------------------------------------------------


def wf_table(spec: FSpec, t: TParam, n: int, m_max: int
             ) -> Tuple[Dict[int, LaurentPoly], Tuple[LaurentPoly, ...]]:
    """Build w(n+1, m) recursively; returns ``{m: w(n+1, m)}`` for m <= m_max
    and the tuple of F_n^(j)(t^j), j < m_max, it uses.

    Base case w(n+1, 1) = t^(-n(n+1)/2); for m >= 2,

        w(n+1, m) = sum_{k=0}^{m-2} (-1)^k F_n^(k+1)(t^(k+1))
                    * (m-2)(m-3)...(m-1-k) * w(n+1, m-1-k).

    The k-factor falling product (empty for k = 0) is what makes the table
    consistent with the column formula entry(n+1, m) = n!_f w(n+1, m)/(m-1)!
    for every m; see the package notes on the base-case scaling.
    """
    if m_max < 1:
        raise ValueError("m_max must be >= 1")
    tp = check_config(spec, t)
    s = n * (n + 1) // 2
    harmonics = tuple(fharmonic_direct(spec, k + 1, n, tp ** (k + 1)) for k in range(m_max - 1))
    values: Dict[int, LaurentPoly] = {1: tp ** (-s)}
    for m in range(2, m_max + 1):
        acc = LaurentPoly.constant(0)
        for k in range(m - 1):
            fall = math.perm(m - 2, k)
            acc = acc + harmonics[k] * values[m - 1 - k] * Fraction((-1) ** k * fall)
        values[m] = acc
    return values, harmonics


def s1_from_wf_check(spec: FSpec, t: TParam, N: int) -> Report:
    """Check both triangle-from-weighted-sum formulas for n <= N, k <= n+1:

      line 1: entry(n+1, k) = n!_f / (k-1)! * w(n+1, k)
      line 2: entry(n+1, k) = sum_{j=0}^{k-2} entry(n+1, k-1-j)
                              (-1)^j F_n^(j+1)(t^(j+1)) / (k-1)
                              + n!_{f(t)} [k = 1]
    """
    tp = check_config(spec, t)
    tri = s1_triangle(spec, tp, N + 1)
    report = Report("s1-from-wf", {"f": spec.render(), "t": tp, "N": N})
    for n in range(N + 1):
        w, F = wf_table(spec, tp, n, n + 1)
        nf = bang_f(spec, n)
        for k in range(1, n + 2):
            lhs = tri.entry(n + 1, k)
            line1 = nf * w[k] / Fraction(math.factorial(k - 1))
            report.check((n, k, "w-column"), lhs, line1)
            acc = LaurentPoly.constant(0)
            for j in range(k - 1):
                acc = acc + tri.entry(n + 1, k - 1 - j) * F[j] * Fraction((-1) ** j, k - 1)
            if k == 1:
                acc = acc + bang_ft(spec, tp, n)
            report.check((n, k, "recurrence"), lhs, acc)
    return report


def corollary_expansions_check(spec: FSpec, t: TParam, N: int) -> Report:
    """Closed forms for columns k = 2..5 in terms of F_n^(j)(t^j), n <= N."""
    tp = check_config(spec, t)
    tri = s1_triangle(spec, tp, N + 1)
    report = Report("corollary-expansions", {"f": spec.render(), "t": tp, "N": N})
    for n in range(N + 1):
        s = n * (n + 1) // 2
        pref = bang_f(spec, n) * tp ** (-s)
        F = [None] + [fharmonic_direct(spec, j, n, tp ** j) for j in range(1, 5)]
        closed = {
            2: pref * F[1],
            3: pref * (F[1] ** 2 - F[2]) / 2,
            4: pref * (F[1] ** 3 - F[1] * F[2] * 3 + F[3] * 2) / 6,
            5: pref
            * (
                F[1] ** 4
                - F[1] ** 2 * F[2] * 6
                + F[2] ** 2 * 3
                + F[1] * F[3] * 8
                - F[4] * 6
            )
            / 24,
        }
        for k in range(2, 6):
            report.check((n, k), tri.entry(n + 1, k), closed[k])
    return report


# -- propositions ----------------------------------------------------------


def prop1_recurrence_check(spec: FSpec, p: int, n: int) -> Report:
    """Evaluate every term of the p -> p+1 coefficient-product recurrence
    exactly and report the residual LHS - RHS.

    Works in a substitution parameter u with t = u^(p(p+1)), so both t^(1/p)
    and t^(1/(p+1)) are integral powers of u.
    """
    if p < 1:
        raise ValueError("p must be >= 1")
    up = check_config(spec, "u")
    L = p * (p + 1)
    t_full = up ** L          # t
    t_over_p = up ** (p + 1)  # t^(1/p)
    t_over_p1 = up ** p       # t^(1/(p+1))
    s = n * (n + 1) // 2
    tri_p = s1_triangle(spec, t_over_p, n + 1)
    tri_p1 = s1_triangle(spec, t_over_p1, n + 1)
    nf = bang_f(spec, n)

    lhs = fharmonic_direct(spec, p + 1, n, t_full)
    rhs = fharmonic_direct(spec, p, n, t_full)

    # single leading coefficient term, as printed (no order-dependent factor)
    leading = tri_p1.entry(n + 1, p + 2) * t_full ** s / (
        t_over_p1 ** (p * s) * nf
    ) * Fraction((-1) ** p)
    rhs = rhs + leading

    # A sum over the compositions i_1 + ... + i_r = d of the products of
    # entry(n+1, i_m + 2) is [w^d] g^r with g = sum_i entry(n+1, i+2) w^i,
    # which power_coeffs reads off.
    g_p = [tri_p.entry(n + 1, i + 2) for i in range(p)]
    g_p1 = [tri_p1.entry(n + 1, i + 2) for i in range(p)]

    # first double sum: [w^j] g^(p-j) over the t^(1/p) triangle
    inner = power_coeffs(p, g_p)
    for j in range(p):
        rhs = rhs + inner[p - j - 1] * t_full ** s / (
            t_over_p ** (j * s) * nf ** (p - j)
        ) * Fraction(p * (-1) ** (j + 1), p - j)

    # second double sum: mixed terms entry(n+1, i+2) [w^(j-i)] g^(p-j) over
    # the t^(1/(p+1)) triangle
    mixed = [power_coeffs(p - i, g_p1) for i in range(p)]
    for j in range(p):
        for i in range(j + 1):
            term = g_p1[i] * mixed[i][p - j - 1]
            rhs = rhs + term * t_full ** s / (
                t_over_p1 ** (j * s) * nf ** (p + 1 - j)
            ) * Fraction((p + 1) * (-1) ** j, p + 1 - j)

    report = Report(
        "prop1-recurrence", {"f": spec.render(), "p": p, "n": n, "u": up}
    )
    cell = report.check((p, n, "as-printed"), lhs, rhs)
    if not cell.passed:
        cell.note = (
            "residual equals p*(-1)^p t^s t^(-ps/(p+1)) [n+1, p+2] / n!_f; "
            "the single leading term appears to be short a factor of p+1"
        )
    # diagnostic: same identity with the leading term scaled by p+1, the
    # factor carried by the compact coefficient-extraction form it comes from
    report.check(
        (p, n, "with-leading-factor"), lhs, rhs + leading * p, note="leading term scaled by p+1"
    )
    return report


def prop2_functional_eq_check(spec: FSpec, t: TParam, p: int, n: int) -> Report:
    """Check both functional equations linking F_(n+1)^(p)(t^p) to triangle
    entries; returns per-identity residual cells."""
    if p < 2:
        raise ValueError("p must be >= 2")
    tp = check_config(spec, t)
    tri = s1_triangle(spec, tp, n + 2)
    arg = tp ** p
    lhs = fharmonic_direct(spec, p, n + 1, arg)
    base = fharmonic_direct(spec, p, n, arg)
    fn1 = eval_f(spec, n + 1)
    nft1 = bang_ft(spec, tp, n + 1)  # (n+1)!_{f(t)}

    rhs1 = base
    for j in range(1, p):
        rhs1 = rhs1 + tri.entry(n + 2, p + 1 - j) * tp ** (j * (n + 1)) / (
            fn1 ** j * nft1
        ) * Fraction((-1) ** (p + 1 - j))
    rhs1 = rhs1 + tri.entry(n + 1, p) / nft1 * Fraction((-1) ** (p + 1))

    rhs2 = base + tp ** ((p - 1) * (n + 1)) / fn1 ** (p - 1)
    rhs2 = rhs2 + (tri.entry(n + 1, p) + tri.entry(n + 1, p - 1)) / nft1 * Fraction(
        (-1) ** (p - 1)
    )
    rhs2 = rhs2 + tri.entry(n + 2, p) * tp ** (n + 1) / (fn1 * nft1) * Fraction(
        (-1) ** p
    )
    for j in range(p - 2):
        factor = fn1 * tp ** (-(n + 1)) - 1
        rhs2 = rhs2 + tri.entry(n + 2, j + 2) * factor * tp ** (
            (p - 1 - j) * (n + 1)
        ) / (fn1 ** (p - 1 - j) * nft1) * Fraction((-1) ** (j + 1))

    report = Report(
        "prop2-functional-eq", {"f": spec.render(), "t": tp, "p": p, "n": n}
    )
    report.check((p, n, "first"), lhs, rhs1)
    report.check((p, n, "second"), lhs, rhs2)
    return report


def stirling_harmonic_identity_check(p: int, n: int) -> Report:
    """Successive-difference identity for the ordinary p-order harmonic
    numbers via classical unsigned first-kind Stirling numbers (f = n, t = 1)."""
    if p < 3:
        raise ValueError("p must be >= 3")
    if n < 1:
        raise ValueError("n must be >= 1")
    from .fspec import linear

    tri = s1_triangle(linear(1, 0), 1, n + 1)
    def c(a, b):
        return tri.entry(a, b).constant_value()

    nfact = Fraction(math.factorial(n))
    lhs = Fraction(1, n ** p)
    rhs = Fraction(1, n ** (p - 1))
    rhs += Fraction((-1) ** (p - 1)) * (c(n, p) + c(n, p - 1)) / nfact
    rhs += c(n + 1, p) * Fraction((-1) ** p) / (n * nfact)
    for j in range(p - 2):
        rhs += c(n + 1, j + 2) * Fraction((-1) ** (j + 1) * (n - 1)) / (
            Fraction(n) ** (p - 1 - j) * nfact
        )
    report = Report("stirling-harmonic-identity", {"p": p, "n": n})
    report.check((p, n), lhs, rhs)
    return report
