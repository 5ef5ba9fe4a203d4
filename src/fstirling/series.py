"""Truncated formal power series with exact rational coefficients.

A series is a LaurentPoly in its variable cut to the truncation order.  The
order is explicit: reading a coefficient beyond it is an error, never a
silent zero, and arithmetic propagates the minimum order of the operands.  A
product is one LaurentPoly product (packed, see ``laurent``) cut to the
order.
"""

from __future__ import annotations

import math
from fractions import Fraction
from typing import Sequence

from .laurent import LaurentPoly


def _cut(var: str, order: int, poly: LaurentPoly) -> "TruncSeries":
    """The series poly + O(var^(order+1)); ``poly`` has no negative exponent."""
    s = object.__new__(TruncSeries)
    s.var, s.order, s.poly = var, order, poly.cut(order)
    return s


class TruncSeries:
    """Series sum_{k=0}^{order} coeffs[k] * var^k + O(var^(order+1))."""

    __slots__ = ("var", "order", "poly")

    def __init__(self, var: str, order: int, coeffs: Sequence):
        if order < 0:
            raise ValueError("truncation order must be >= 0")
        if len(coeffs) > order + 1:
            raise ValueError("more coefficients than the truncation order allows")
        self.var = var
        self.order = order
        self.poly = LaurentPoly(var, dict(enumerate(coeffs)))

    @classmethod
    def constant(cls, var: str, value, order: int) -> "TruncSeries":
        return cls(var, order, [value])

    @classmethod
    def variable(cls, var: str, order: int) -> "TruncSeries":
        return cls(var, order, [Fraction(0), Fraction(1)])

    @classmethod
    def exp(cls, var: str, rate, order: int) -> "TruncSeries":
        """exp(rate * var) truncated: coefficients rate^n / n!."""
        rate = Fraction(rate)
        return cls(var, order, [rate ** n / math.factorial(n) for n in range(order + 1)])

    # -- access ------------------------------------------------------------

    @property
    def coeffs(self) -> list:
        """The coefficients of var^0 .. var^order, as Fractions."""
        return [self.poly.coeff(k) for k in range(self.order + 1)]

    def coeff(self, k: int):
        if k < 0:
            return Fraction(0)
        if k > self.order:
            raise IndexError(
                f"coefficient {k} is beyond the truncation order {self.order}"
            )
        return self.poly.coeff(k)

    def truncate(self, order: int) -> "TruncSeries":
        if order > self.order:
            raise ValueError("cannot extend a truncated series")
        return _cut(self.var, order, self.poly)

    def _coerce(self, other) -> "TruncSeries":
        if not isinstance(other, TruncSeries):
            return TruncSeries.constant(self.var, other, self.order)
        if self.var != other.var:
            raise ValueError(f"series variable mismatch: {self.var!r} vs {other.var!r}")
        return other

    # -- arithmetic --------------------------------------------------------

    def __add__(self, other) -> "TruncSeries":
        other = self._coerce(other)
        return _cut(self.var, min(self.order, other.order), self.poly + other.poly)

    __radd__ = __add__

    def __neg__(self) -> "TruncSeries":
        return _cut(self.var, self.order, -self.poly)

    def __sub__(self, other) -> "TruncSeries":
        return self + (-self._coerce(other))

    def __rsub__(self, other) -> "TruncSeries":
        return self._coerce(other) - self

    def __mul__(self, other) -> "TruncSeries":
        other = self._coerce(other)
        return _cut(self.var, min(self.order, other.order), self.poly * other.poly)

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
        """Multiplicative inverse, by Newton's iteration u -> u (2 - self u),
        which doubles the number of correct coefficients; the constant term
        must be nonzero."""
        inv = TruncSeries.constant(self.var, 1 / self.coeff(0), self.order)
        for _ in range(self.order.bit_length()):
            inv = inv * (2 - self * inv)
        return inv

    def __truediv__(self, other) -> "TruncSeries":
        """Exact division; shared leading zeros are cancelled first."""
        other = self._coerce(other)
        n = min(self.order, other.order)
        a, b = self.coeffs[:n + 1], other.coeffs[:n + 1]
        shift = next((i for i in range(n + 1) if a[i] or b[i]), n + 1)
        return (TruncSeries(self.var, n - shift, a[shift:])
                * TruncSeries(self.var, n - shift, b[shift:]).inverse())

    def compose(self, inner: "TruncSeries") -> "TruncSeries":
        """self(inner); the inner series must have zero constant term."""
        inner = self._coerce(inner)
        if inner.coeff(0):
            raise ValueError("composition requires zero inner constant term")
        n = min(self.order, inner.order)
        inner = inner.truncate(n)
        result = TruncSeries.constant(self.var, 0, n)
        # Horner evaluation, highest coefficient first.
        for k in range(n, -1, -1):
            result = result * inner + self.coeff(k)
        return result

    def __eq__(self, other) -> bool:
        if not isinstance(other, TruncSeries):
            return NotImplemented
        return self.var == other.var and self.order == other.order and self.poly == other.poly

    def __repr__(self):
        return f"TruncSeries({self.var!r}, order={self.order}, {self.coeffs})"


def geometric_minus_one_over(var: str, order: int, rate=1) -> TruncSeries:
    """(exp(rate*z) - 1) / (rate*z) truncated to ``order``."""
    rate = Fraction(rate)
    coeffs = [Fraction(1, math.factorial(n + 1)) * rate ** n for n in range(order + 1)]
    return TruncSeries(var, order, coeffs)
