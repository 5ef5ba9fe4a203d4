"""Exact partial sums of the Euler-type series built on 1/f(n)^r.

Every sum runs on integer pairs from ``fspec.f_pairs``.  The exact sums
combine them divide and conquer: the plain sums in lowest terms at each node,
the prefix-weighted sum over each node's lcm denominator, reduced at the root.
``euler_sum_floor`` encloses the sum once in fixed point, for ``linear:a,b``
with a > 0 through an Euler-Maclaurin tail, and sums exactly where that
enclosure straddles a digit.  This module imports only ``fspec``; the ``eulersum``
command also loads ``cli``, ``report`` and ``laurent``, and no triangle or route module.
"""

from __future__ import annotations

import math
from fractions import Fraction
from functools import cache
from typing import Iterator, Optional, Tuple

from .fspec import FSpec, _int_coeffs, f_pairs


def euler_sum_numeric(spec: FSpec, r: int, N: int, mode: str) -> Fraction:
    """Exact rational partial sum of the selected Euler-like series.

    mode "harmonic_over_f":  sum_{n<=N} F_n^(r)(1) / f(n)^r
    mode "fzeta":            sum_{n<=N} 1 / f(n)^r
    mode "fzeta2r":          sum_{n<=N} 1 / f(n)^(2r)

    Summation is exact (no floating point) and runs on integer pairs; a
    divide-and-conquer combine keeps the big-rational arithmetic near the top
    of the recursion tree.
    """
    if N < 1:
        raise ValueError("N must be >= 1")
    if mode == "harmonic_over_f":
        _, S, D = _prefix_weighted_sum(_terms(spec, r, N), N)
        return Fraction(S, D * D)
    if mode not in ("fzeta", "fzeta2r"):
        raise ValueError(f"unknown mode {mode!r}")
    return Fraction(*_range_sum(_terms(spec, 2 * r if mode == "fzeta2r" else r, N), N))


def fzeta_and_harmonic_sums(spec: FSpec, r: int, N: int) -> Tuple[Fraction, Fraction]:
    """The "fzeta" and "harmonic_over_f" sums of euler_sum_numeric, from one pass."""
    if N < 1:
        raise ValueError("N must be >= 1")
    P, S, D = _prefix_weighted_sum(_terms(spec, r, N), N)
    return Fraction(P, D), Fraction(S, D * D)


# The Euler-Maclaurin tail starts at the first n with f(n)/a = n + b/a >= _EM_START
# and keeps _EM_TERMS Bernoulli corrections: for linear:1,0 and power 2 up to
# N = 100000, the remainder bound is 1.6e-47.
_EM_START = 32
_EM_TERMS = 20


def euler_sum_floor(spec: FSpec, r: int, N: int, mode: str, unit: int) -> int:
    """floor(euler_sum_numeric(spec, r, N, mode) * unit), exactly, without
    building the exact rational.

    Each term a_n = 1/f(n)^r is enclosed in fixed point at scale 2^bits by
    its floor and ceiling; the sums of those bounds enclose the series
    (mode "harmonic_over_f" uses T = (A^2 + sum a_n^2)/2 with A = sum a_n).
    For ``linear:a,b`` with a > 0 and term powers of at least 2, only the
    terms before _tail_start are summed and the rest is enclosed by
    Euler-Maclaurin summation (_tail).  When both ends of the one enclosure
    floor to the same multiple of 1/unit, that is the answer; otherwise the
    exact sum decides, not a finer enclosure: a sum that is exactly a
    multiple of 1/unit straddles it at every precision.
    """
    if N < 1:
        raise ValueError("N must be >= 1")
    if mode not in ("harmonic_over_f", "fzeta", "fzeta2r"):
        raise ValueError(f"unknown mode {mode!r}")
    power = 2 * r if mode == "fzeta2r" else r
    bits = unit.bit_length() + 2 * N.bit_length() + 16
    m = _tail_start(spec, power, N) or N + 1
    lo, hi, shift = _enclose(spec, power, N, bits, mode == "harmonic_over_f", m)
    floor_lo = lo * unit >> shift
    if floor_lo == hi * unit >> shift:
        return floor_lo
    exact = euler_sum_numeric(spec, r, N, mode)
    return exact.numerator * unit // exact.denominator


def _enclose(spec: FSpec, power: int, N: int, bits: int, weighted: bool,
             m: int) -> Tuple[int, int, int]:
    """(lo, hi, shift) with lo <= S * 2^shift <= hi, where S is sum a_n over
    n <= N with a_n = 1/f(n)^power, or the prefix-weighted sum
    (A^2 + sum a_n^2)/2 when ``weighted``.  Terms n < m are streamed; the
    terms from m to N, if any, are enclosed by _tail."""
    a_lo = a_hi = sq_lo = sq_hi = 0
    for p, q in _terms(spec, power, min(m - 1, N)):
        fl, rem = divmod(p << bits, q)
        a_lo += fl
        a_hi += fl + (rem != 0)
        if weighted:
            fl, rem = divmod(p * p << 2 * bits, q * q)
            sq_lo += fl
            sq_hi += fl + (rem != 0)
    if m <= N:
        lo, hi = _tail(spec, power, m, N, bits)
        a_lo, a_hi = a_lo + lo, a_hi + hi
        if weighted:
            lo, hi = _tail(spec, 2 * power, m, N, 2 * bits)
            sq_lo, sq_hi = sq_lo + lo, sq_hi + hi
    if not weighted:
        return a_lo, a_hi, bits
    if a_lo >= 0:
        a2_lo, a2_hi = a_lo * a_lo, a_hi * a_hi
    elif a_hi <= 0:
        a2_lo, a2_hi = a_hi * a_hi, a_lo * a_lo
    else:
        a2_lo, a2_hi = 0, max(a_lo * a_lo, a_hi * a_hi)
    return a2_lo + sq_lo, a2_hi + sq_hi, 2 * bits + 1


# Euler-Maclaurin summation of g(x) = f(x)^-s over m <= n <= N, for
# f(x) = (c0 + c1 x)/d with c1 > 0 (Johansson, "Rigorous high-precision
# computation of the Hurwitz zeta function and its derivatives", Numer.
# Algorithms 2015, arXiv:1309.2877):
#
#   sum = int_m^N g + (g(m) + g(N))/2
#         + sum_{k=1}^{K} B_2k/(2k)! (g^(2k-1)(N) - g^(2k-1)(m)) + R_K.
#
# Every even derivative of g is positive where c0 + c1 x > 0, so R_K lies
# between 0 and the k = K + 1 correction (Knuth, TAOCP vol. 1, 1.2.11.2).
# With P = c0 + c1 x, v = s - 1 and g^(j) = (-1)^j (s)_j c1^j d^s P^(-s-j),
# and since (s)_(2k-1)/(2k)! = C(s+2k-2, 2k)/v, the integral, the end terms
# and the corrections are d^s (F(P_m, 1) - F(P_N, -1)) with
#
#   F(P, sign) = 1/(c1 v P^v) + sign/(2 P^s)
#                + sum_k B_2k C(s+2k-2, 2k)/v c1^(2k-1) P^(1-s-2k).


def _tail_start(spec: FSpec, power: int, N: int) -> Optional[int]:
    """The first n of the Euler-Maclaurin tail of sum_{n<=N} f(n)^-power,
    or None where every term is summed: f must be ``linear:a,b`` with
    a > 0, the power at least 2 (so that the integral is rational), and N
    must reach the tail."""
    if spec.kind != "linear" or power < 2:
        return None
    (c0, c1), _ = _int_coeffs(spec)
    if c1 <= 0:
        return None
    m = max(1, _EM_START - c0 // c1)  # so that c0 + c1 m >= _EM_START c1 > 0
    return m if m <= N else None


@cache
def _scaled_bernoulli() -> Tuple[Tuple[int, ...], int]:
    """((L B_2, L B_4, ..., L B_(2K+2)), L) for K = _EM_TERMS, where L is the
    lcm of the denominators.  B_2k = (-1)^(k-1) 2k T_k / (4^k (4^k - 1)), with
    the tangent numbers T_k from Brent and Harvey's integer recurrence
    ("Fast computation of Bernoulli, tangent and secant numbers", 2011)."""
    n = _EM_TERMS + 1
    tangent = [0, 1] + [0] * (n - 1)
    for k in range(2, n + 1):
        tangent[k] = (k - 1) * tangent[k - 1]
    for k in range(2, n + 1):
        for j in range(k, n + 1):
            tangent[j] = (j - k) * tangent[j - 1] + (j - k + 2) * tangent[j]
    bern = [Fraction((-1) ** (k - 1) * 2 * k * tangent[k], 4 ** k * (4 ** k - 1))
            for k in range(1, n + 1)]
    L = math.lcm(*(b.denominator for b in bern))
    return tuple(b.numerator * (L // b.denominator) for b in bern), L


def _tail(spec: FSpec, s: int, m: int, N: int, bits: int) -> Tuple[int, int]:
    """(lo, hi) with lo <= 2^bits sum_{m<=n<=N} f(n)^-s <= hi, for
    spec = linear:a,b with a > 0, s >= 2 and f(m) > 0.  The sum lies between
    S, the Euler-Maclaurin sum with _EM_TERMS corrections, and S + R, where R
    is the next correction."""
    (c0, c1), d = _int_coeffs(spec)
    K, v = _EM_TERMS, s - 1
    scaled, L = _scaled_bernoulli()
    # 2 c1 v L P^(s+2K-1) F(P, sign) is the integer polynomial
    # sum_k even[k] P^(2K-2k) + sign c1 v L P^(2K-1).
    even = [2 * L] + [2 * scaled[k - 1] * math.comb(s + 2 * k - 2, 2 * k) * c1 ** (2 * k)
                      for k in range(1, K + 1)]

    def scaled_f(P: int, sign: int) -> int:
        acc = 0
        for h in even:
            acc = acc * P * P + h
        return acc + sign * c1 * v * L * P ** (2 * K - 1)

    Pm, PN = c0 + c1 * m, c0 + c1 * N
    Pm_e, PN_e = Pm ** (s + 2 * K - 1), PN ** (s + 2 * K - 1)
    ds = d ** s
    s_num = ds * (scaled_f(Pm, 1) * PN_e - scaled_f(PN, -1) * Pm_e)
    s_den = 2 * c1 * v * L * Pm_e * PN_e
    Pm_e, PN_e = Pm_e * Pm * Pm, PN_e * PN * PN
    r_num = ds * scaled[K] * math.comb(s + 2 * K, 2 * K + 2) * c1 ** (2 * K + 1) * (PN_e - Pm_e)
    r_den = v * L * Pm_e * PN_e
    lo = (s_num << bits) // s_den + min((r_num << bits) // r_den, 0)
    hi = -((-s_num << bits) // s_den) + max(-((-r_num << bits) // r_den), 0)
    return lo, hi


# The plain sums add lowest-terms pairs (p, q), q > 0, as Fraction does (Knuth,
# TAOCP vol. 2, 4.5.1): a sum can be far below its terms' lcm (poly:0,1,1 at
# r = 1 telescopes to N/(N+1)).  The prefix-weighted sum carries each node's
# sums over the lcm of its term denominators (Haible and Papanikolaou, 1998).


def _terms(spec: FSpec, power: int, N: int) -> Iterator[tuple]:
    """a_n = 1/f(n)^power for n <= N, streamed as pairs."""
    e = abs(power)
    for num, den in f_pairs(spec, 1, N + 1):
        p, q = (den ** e, num ** e) if power >= 0 else (num ** e, den ** e)
        yield (p, q) if q > 0 else (-p, -q)


def _add(a: tuple, b: tuple) -> tuple:
    (na, da), (nb, db) = a, b
    g = math.gcd(da, db)
    t = na * (db // g) + nb * (da // g)
    g2 = math.gcd(t, g)
    return t // g2, (da // g) * (db // g2)


def _range_sum(terms: Iterator[tuple], count: int) -> tuple:
    """Sum of the next ``count`` pairs of ``terms``."""
    if count == 1:
        return next(terms)
    return _add(_range_sum(terms, count // 2), _range_sum(terms, count - count // 2))


def _prefix_weighted_sum(terms: Iterator[tuple], count: int) -> Tuple[int, int, int]:
    """(P, S, D) over the next ``count`` pairs: D is the lcm of their
    denominators, A = sum a_n = P/D and T = sum_{k<=n} a_k a_n = S/D^2."""
    if count == 1:
        p, q = next(terms)
        return p, p * p, q
    half = count // 2
    P1, S1, D1 = _prefix_weighted_sum(terms, half)
    P2, S2, D2 = _prefix_weighted_sum(terms, count - half)
    g = math.gcd(D1, D2)
    m1, m2 = D2 // g, D1 // g
    P1, P2 = P1 * m1, P2 * m2
    return P1 + P2, S1 * m1 * m1 + S2 * m2 * m2 + P1 * P2, D1 * m1
