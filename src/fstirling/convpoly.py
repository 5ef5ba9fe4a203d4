"""Convolution-polynomial analogs of the triangle diagonals.

Covers the two factorial-rescaled diagonal families and their recurrences,
the classical special-case generating functions, the second-order Eulerian
expansion of the diagonal entries, the fixed-point shift identity for general
convolution families, and the experimental triangular fit of a generating
function to diagonal values at a fixed integer argument.
"""

from __future__ import annotations

import math
from fractions import Fraction
from typing import List, Sequence, Tuple

from .fspec import FSpec, bang_f, eval_f, linear
from .laurent import LaurentPoly
from .report import Report
from .series import TruncSeries, geometric_minus_one_over
from .stirling import s1_triangle


def sigma_eval(spec: FSpec, tp: LaurentPoly, variant: str, n: int, x: int) -> LaurentPoly:
    """Diagonal entry entry(x, x-n) rescaled by factorials.

    variant "sigma":  entry(x, x-n) (x-n-1)! / x!_f
    variant "sigma~": entry(x, x-n) (x-n-1)! / x!
    Defined for integer x >= n+1 >= 1 (n = 0 gives (x-1)!/x!_f resp. 1/x...).
    The entry is read off ``s1_triangle``, whose rows ``fspec.MEMO`` shares.
    """
    if variant not in ("sigma", "sigma~"):
        raise ValueError(f"unknown variant {variant!r}")
    if n < 0 or x < n + 1:
        raise ValueError(f"sigma is defined for x >= n+1 >= 1, got n={n}, x={x}")
    entry = s1_triangle(spec, tp, x).entry(x, x - n)
    num = Fraction(math.factorial(x - n - 1))
    if variant == "sigma":
        return entry * num / bang_f(spec, x)
    return entry * num / Fraction(math.factorial(x))


def sigma_recurrence_check(spec: FSpec, tp: LaurentPoly, N_n: int, N_x: int) -> Report:
    """Check both diagonal recurrences exactly over 0 <= n <= N_n, n < x <= N_x:

        f(x+1) sigma_n(x+1)  = (x-n) sigma_n(x)  + f(x) t^-x sigma_(n-1)(x)
        (x+1)  sigma~_n(x+1) = (x-n) sigma~_n(x) + f(x) t^-x sigma~_(n-1)(x)

    The n = 0 boundary uses sigma_(-1) = 0; the printed base-case correction
    only fires at x = 0, outside the checked domain.
    """
    report = Report(
        "sigma-recurrences", {"f": spec.render(), "t": tp, "N_n": N_n, "N_x": N_x}
    )
    zero = LaurentPoly.constant(0)
    for n in range(N_n + 1):
        for x in range(n + 1, N_x + 1):
            fx = eval_f(spec, x)
            fx1 = eval_f(spec, x + 1)
            for variant in ("sigma", "sigma~"):
                cur = sigma_eval(spec, tp, variant, n, x)
                nxt = sigma_eval(spec, tp, variant, n, x + 1)
                prev = sigma_eval(spec, tp, variant, n - 1, x) if n >= 1 else zero
                lead = fx1 if variant == "sigma" else LaurentPoly.constant(x + 1)
                lhs = lead * nxt
                rhs = (x - n) * cur + fx * tp ** (-x) * prev
                report.check((variant, n, x), lhs, rhs)
    return report


def stirlingpoly_gf_check(family: str, n_max: int, x_max: int,
                          alpha=1, beta=0) -> Report:
    """Check the closed-form series for the classical diagonal families at
    t = 1: x sigma~_n(x) against [z^n] of the stated generating function.

        classic   f(n) = n:             (z e^z/(e^z - 1))^x
        alpha     f(n) = a n + 1 - a:   e^((1-a) z) (a z e^(a z)/(e^(a z)-1))^x
        alphabeta f(n) = a n + b:       e^(b z) (a z e^(a z)/(e^(a z)-1))^x
    """
    alpha = Fraction(alpha)
    beta = Fraction(beta)
    if family == "classic":
        alpha, beta = Fraction(1), Fraction(0)
        spec = linear(1, 0)
    elif family == "alpha":
        beta = 1 - alpha
        spec = linear(alpha, 1 - alpha)
    elif family == "alphabeta":
        spec = linear(alpha, beta)
    else:
        raise ValueError(f"unknown family {family!r}")
    report = Report(
        "stirlingpoly-gf",
        {"family": family, "alpha": alpha, "beta": beta, "n_max": n_max, "x_max": x_max},
    )
    order = n_max
    # a z e^(a z) / (e^(a z) - 1) = e^(a z) / ((e^(a z) - 1)/(a z))
    core = TruncSeries.exp("z", alpha, order) / geometric_minus_one_over("z", order, alpha)
    prefactor = TruncSeries.exp("z", beta, order)
    one = LaurentPoly.constant(1)
    core_x = core
    for x in range(1, x_max + 1):
        if x > 1:
            core_x = core_x * core
        series = prefactor * core_x
        for n in range(min(n_max, x - 1) + 1):
            lhs = x * sigma_eval(spec, one, "sigma~", n, x)
            report.check((family, n, x), lhs, series.coeff(n))
    return report


def eulerian2_triangle(N: int) -> Tuple[Tuple[int, ...], ...]:
    """Rows 0..N of the second-order Eulerian numbers: row n holds entries
    k = 0..n-1 (row 0 = (1,)), built by the recurrence
    e(n, k) = (k+1) e(n-1, k) + (2n-1-k) e(n-1, k-1)."""
    if N < 0:
        raise ValueError("N must be >= 0")
    rows: List[tuple] = [(1,)]
    for n in range(1, N + 1):
        prev = rows[n - 1]
        row = []
        for k in range(n):
            up = prev[k] if k < len(prev) else 0
            left = prev[k - 1] if 0 <= k - 1 < len(prev) else 0
            row.append((k + 1) * up + (2 * n - 1 - k) * left)
        rows.append(tuple(row))
    return tuple(rows)


def eulerian2_identity_check(n_max: int, x_max: int) -> Report:
    """Exact check of the classical diagonal expansion
    entry(x, x-n) = sum_k e2(n, k) C(x+k, 2n) for 1 <= n, n+1 <= x <= x_max."""
    report = Report("eulerian2-identity", {"n_max": n_max, "x_max": x_max})
    tri = s1_triangle(linear(1, 0), LaurentPoly.constant(1), x_max)
    e2 = eulerian2_triangle(n_max)
    for n in range(1, n_max + 1):
        for x in range(n + 1, x_max + 1):
            lhs = tri.entry(x, x - n).constant_value()
            rhs = sum(
                e2[n][k] * math.comb(x + k, 2 * n) for k in range(n)
            )
            report.check((n, x), lhs, Fraction(rhs))
    return report


def solve_shifted_family(coeffs: Sequence[Fraction], t_shift: int, order: int) -> TruncSeries:
    """Solve G = S(z G^t_shift) for G by fixed-point iteration to the given
    truncation order.  Coefficient k stabilizes once the iteration count
    exceeds k, so order+1 passes suffice."""
    S = TruncSeries("z", order, [Fraction(c) for c in coeffs][: order + 1])
    if S.coeffs[0] != 1:
        raise ValueError("family series must have constant term 1")
    z = TruncSeries.variable("z", order)
    G = S
    for _ in range(order + 1):
        G = S.compose(z * G ** t_shift)
    return G


def conv_family_shift_check(
    coeffs: Sequence, t_shift: int, n_max: int, x_max: int
) -> Report:
    """Verify x s_n(x + t n) / (x + t n) = [z^n] G^x for the shifted family
    G = S(z G^t), where s_n(x) := [z^n] S(z)^x, integer x >= 1."""
    if t_shift < 0:
        raise ValueError("t_shift must be >= 0")
    order = n_max
    coeffs = [Fraction(c) for c in coeffs]
    report = Report(
        "conv-family-shift",
        {"coeffs": ",".join(str(c) for c in coeffs), "t_shift": t_shift,
         "n_max": n_max, "x_max": x_max},
    )
    S = TruncSeries("z", order, coeffs[: order + 1])
    S_pows = [S]  # S_pows[k - 1] = S^k
    G = solve_shifted_family(coeffs, t_shift, order)
    Gx = G
    for x in range(1, x_max + 1):
        if x > 1:
            Gx = Gx * G
        for n in range(n_max + 1):
            shifted_arg = x + t_shift * n
            while len(S_pows) < shifted_arg:
                S_pows.append(S_pows[-1] * S)
            s_n = S_pows[shifted_arg - 1].coeff(n)
            lhs = Fraction(x, shifted_arg) * s_n
            report.check((t_shift, n, x), lhs, Gx.coeff(n))
    return report


def fit_experimental_gf(
    spec: FSpec, tp: LaurentPoly, x: int, N: int
) -> Tuple[TruncSeries, Report]:
    """Fit F(z) = 1 + g_1 z + ... + g_N z^N so that [z^n] F^x equals the
    normalized diagonal value sigma_n(x)/sigma_0(x) for n <= N (equal to
    x sigma_n(x) when x!_f = x!), then verify the binomial re-expansion
    identity for the induced s_n(k) = f_(n-k)(n).

    The fit is triangular: each g_n enters [z^n] F^x linearly with
    coefficient x, so x = 0 is rejected as singular.
    """
    if x == 0:
        raise ValueError("x = 0 makes the triangular system singular")
    if x < 0:
        raise ValueError("fit requires a positive integer argument x")
    if N < 1:
        raise ValueError("N must be >= 1")
    if not tp.is_constant():
        raise ValueError("experimental fit requires numeric t")
    if N > x - 1:
        raise ValueError(
            f"diagonal values sigma_n({x}) exist only for n <= {x - 1}; N={N} too large"
        )
    raw = [sigma_eval(spec, tp, "sigma", n, x).constant_value() for n in range(N + 1)]
    targets = [v / raw[0] for v in raw]
    fitted = _triangular_fit(targets, x, N)
    report = Report(
        "experimental-gf-fit",
        {"f": spec.render(), "t": tp, "x": x, "N": N},
    )
    # the fit must reproduce its inputs exactly
    Fx = fitted ** x
    for n in range(N + 1):
        report.check(("fit", n), targets[n], Fx.coeff(n))
    return fitted, report


def _triangular_fit(targets: Sequence[Fraction], x: int, N: int) -> TruncSeries:
    """F = sum g_n z^n, g_0 = 1, with [z^n] F^x = targets[n] = h_n for n <= N:
    Miller's power recurrence n h_n = sum_{k=1..n} ((x+1)k - n) g_k h_(n-k)
    solved for g_n, whose k = n term is x n g_n."""
    if targets[0] != 1:
        raise ValueError(f"normalized target at n=0 must be 1, got {targets[0]}")
    coeffs = [Fraction(1)]
    for n in range(1, N + 1):
        known = sum(((x + 1) * k - n) * coeffs[k] * targets[n - k] for k in range(1, n))
        coeffs.append((n * targets[n] - known) / (x * n))
    return TruncSeries("z", N, coeffs)


def experimental_binomial_check(spec: FSpec, tp: LaurentPoly, n_max: int) -> Report:
    """For each n <= n_max, fit F at x = n and verify

        s_n(k) = sum_{j=1}^{n-k} C(n, j) [z^(n-k)] (F - 1)^j + [n = k]

    where s_n(k) := [z^(n-k)] F^n, for 1 <= k <= n."""
    report = Report(
        "experimental-binomial", {"f": spec.render(), "t": tp, "n_max": n_max}
    )
    for n in range(2, n_max + 1):
        fitted, fit_report = fit_experimental_gf(spec, tp, n, n - 1)
        for cell in fit_report.cells:
            report.cells.append(cell)
        Fn = fitted ** n
        Fm1_pows = [fitted - 1]  # Fm1_pows[j - 1] = (F - 1)^j
        for _ in range(n - 2):
            Fm1_pows.append(Fm1_pows[-1] * Fm1_pows[0])
        for k in range(1, n + 1):
            lhs = Fn.coeff(n - k)
            rhs = Fraction(1) if n == k else Fraction(0)
            for j in range(1, n - k + 1):
                rhs += math.comb(n, j) * Fm1_pows[j - 1].coeff(n - k)
            report.check((n, k), lhs, rhs)
    return report
