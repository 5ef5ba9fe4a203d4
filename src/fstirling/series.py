"""Truncated formal power series with exact coefficients.

Coefficients may be rationals or LaurentPoly values; anything supporting
ring arithmetic with int works.  The truncation order is
explicit: reading a coefficient beyond it is an error, never a silent zero,
and arithmetic propagates the minimum order of the operands.
"""

from __future__ import annotations

import math
from fractions import Fraction
from typing import Sequence


class TruncSeries:
    """Series sum_{k=0}^{order} coeffs[k] * var^k + O(var^(order+1))."""

    __slots__ = ("var", "order", "coeffs")

    def __init__(self, var: str, order: int, coeffs: Sequence):
        if order < 0:
            raise ValueError("truncation order must be >= 0")
        coeffs = list(coeffs)
        if len(coeffs) > order + 1:
            raise ValueError("more coefficients than the truncation order allows")
        coeffs += [Fraction(0)] * (order + 1 - len(coeffs))
        self.var = var
        self.order = order
        self.coeffs = coeffs

    @classmethod
    def constant(cls, var: str, value, order: int) -> "TruncSeries":
        return cls(var, order, [value])

    @classmethod
    def variable(cls, var: str, order: int) -> "TruncSeries":
        return cls(var, order, [Fraction(0), Fraction(1)])

    @classmethod
    def exp(cls, var: str, rate, order: int) -> "TruncSeries":
        """exp(rate * var) truncated: coefficients rate^n / n!."""
        rate = Fraction(rate) if not isinstance(rate, Fraction) else rate
        coeffs = []
        c = Fraction(1)
        for n in range(order + 1):
            coeffs.append(c)
            c = c * rate / (n + 1)
        return cls(var, order, coeffs)

    # -- access ------------------------------------------------------------

    def coeff(self, k: int):
        if k < 0:
            return Fraction(0)
        if k > self.order:
            raise IndexError(
                f"coefficient {k} is beyond the truncation order {self.order}"
            )
        return self.coeffs[k]

    def truncate(self, order: int) -> "TruncSeries":
        if order > self.order:
            raise ValueError("cannot extend a truncated series")
        return TruncSeries(self.var, order, self.coeffs[: order + 1])

    def _check(self, other: "TruncSeries"):
        if self.var != other.var:
            raise ValueError(f"series variable mismatch: {self.var!r} vs {other.var!r}")

    def _coerce(self, other) -> "TruncSeries":
        if isinstance(other, TruncSeries):
            self._check(other)
            return other
        return TruncSeries.constant(self.var, other, self.order)

    # -- arithmetic --------------------------------------------------------

    def __add__(self, other) -> "TruncSeries":
        other = self._coerce(other)
        n = min(self.order, other.order)
        return TruncSeries(
            self.var, n, [self.coeffs[k] + other.coeffs[k] for k in range(n + 1)]
        )

    __radd__ = __add__

    def __neg__(self) -> "TruncSeries":
        return TruncSeries(self.var, self.order, [-c for c in self.coeffs])

    def __sub__(self, other) -> "TruncSeries":
        return self + (-self._coerce(other))

    def __rsub__(self, other) -> "TruncSeries":
        return self._coerce(other) - self

    def __mul__(self, other) -> "TruncSeries":
        if not isinstance(other, TruncSeries):
            return TruncSeries(self.var, self.order, [c * other for c in self.coeffs])
        self._check(other)
        n = min(self.order, other.order)
        out = [Fraction(0)] * (n + 1)
        for i, a in enumerate(self.coeffs[: n + 1]):
            if not a:
                continue
            for j, b in enumerate(other.coeffs[: n + 1 - i]):
                if b:
                    out[i + j] = out[i + j] + a * b
        return TruncSeries(self.var, n, out)

    __rmul__ = __mul__

    def __pow__(self, exponent: int) -> "TruncSeries":
        if exponent < 0:
            return self.inverse() ** (-exponent)
        if exponent == 0:
            return TruncSeries.constant(self.var, Fraction(1), self.order)
        result, base, e = None, self, exponent
        while True:
            if e & 1:
                result = base if result is None else result * base
            e >>= 1
            if not e:
                return result
            base = base * base

    def inverse(self) -> "TruncSeries":
        """Multiplicative inverse; the constant term must be a nonzero rational."""
        c0 = self.coeffs[0]
        if c0 == 0:
            raise ZeroDivisionError("series has zero constant term")
        inv0 = Fraction(1) / Fraction(c0)
        out = [inv0]
        for k in range(1, self.order + 1):
            acc = Fraction(0)
            for i in range(1, k + 1):
                acc = acc + self.coeffs[i] * out[k - i]
            out.append(-inv0 * acc)
        return TruncSeries(self.var, self.order, out)

    def __truediv__(self, other) -> "TruncSeries":
        """Exact division; shared leading zeros are cancelled first."""
        other = self._coerce(other)
        n = min(self.order, other.order)
        a = self.truncate(n)
        b = other.truncate(n)
        shift = 0
        while (
            shift <= n
            and not a.coeffs[shift]
            and not b.coeffs[shift]
        ):
            shift += 1
        if shift:
            a = TruncSeries(self.var, n - shift, a.coeffs[shift:])
            b = TruncSeries(self.var, n - shift, b.coeffs[shift:])
        return a * b.inverse()

    def compose(self, inner: "TruncSeries") -> "TruncSeries":
        """self(inner); the inner series must have zero constant term."""
        self._check(inner)
        if inner.coeffs[0]:
            raise ValueError("composition requires zero inner constant term")
        n = min(self.order, inner.order)
        result = TruncSeries.constant(self.var, Fraction(0), n)
        # Horner evaluation, highest coefficient first.
        for k in range(n, -1, -1):
            result = result * inner.truncate(n) + self.coeffs[k]
        return result

    def __eq__(self, other) -> bool:
        if not isinstance(other, TruncSeries):
            return NotImplemented
        return (
            self.var == other.var
            and self.order == other.order
            and all(a == b for a, b in zip(self.coeffs, other.coeffs))
        )

    def __repr__(self):
        return f"TruncSeries({self.var!r}, order={self.order}, {self.coeffs})"


def geometric_minus_one_over(var: str, order: int, rate=1) -> TruncSeries:
    """(exp(rate*z) - 1) / (rate*z) truncated to ``order``."""
    rate = Fraction(rate)
    coeffs = [Fraction(1, math.factorial(n + 1)) * rate ** n for n in range(order + 1)]
    return TruncSeries(var, order, coeffs)
