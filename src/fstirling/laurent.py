"""Laurent polynomials in one variable with exact rational coefficients.

A value is ``(var, lo, num, den)``, FLINT's ``fmpq_poly`` layout: the
coefficient of ``var^(lo + i)`` is ``num[i] / den``, ``num`` is a tuple of ints
with no zero at either end (empty, with ``lo == 0``, for zero) and ``den > 0``
shares no factor with all of ``num``; a constant, zero included, has ``var``
None and takes the other operand's.  One normalizer builds every result but a
negation, which keeps these conditions, so equal values have equal fields.  A
product of two polynomials of two or more terms packs each integer list into
one int (Kronecker substitution), makes one big-int multiply and unpacks the
digits; a one-term operand scales the other list, and ``pack_entries`` packs
values for r-fold products.  Values are immutable by convention and hash by
value.  No other module reads the layout.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd, lcm
from typing import Mapping, Union

Scalar = Union[int, Fraction]


def _as_fraction(c) -> Fraction:
    if isinstance(c, Fraction):
        return c
    if isinstance(c, (int, str)):
        return Fraction(c)
    raise TypeError(f"cannot coerce {type(c).__name__} to a rational")


def _make(var: str | None, lo: int, num, den: int) -> "LaurentPoly":
    """The one normalizer: trim end zeros, divide out the content gcd, drop a constant's var."""
    start, stop = 0, len(num)
    while stop and not num[stop - 1]:
        stop -= 1
    while start < stop and not num[start]:
        start += 1
    num = tuple(num[start:stop])
    lo = lo + start if num else 0
    if var is None and (lo or len(num) > 1):
        raise ValueError("a non-constant Laurent polynomial needs a variable")
    g = gcd(den, *num)
    p = object.__new__(LaurentPoly)
    p.var, p.lo, p.den = var if lo or len(num) > 1 else None, lo, den // g
    p.num = num if g == 1 else tuple(c // g for c in num)
    return p


def _pack(coeffs, width: int) -> int:
    """``sum_i coeffs[i] * 2^(8 width i)``: the list packed into one int
    (Kronecker substitution) at ``width`` bytes a slot.

    Every coefficient must be below half a slot in absolute value.  Adding half
    a slot to every coefficient makes each slot a non-negative digit, so
    packing and unpacking are byte conversions.
    """
    half = 1 << (8 * width - 1)
    raw = b"".join((c + half).to_bytes(width, "little") for c in coeffs)
    return int.from_bytes(raw, "little") - _halves(width, len(coeffs))


def _unpack(packed: int, width: int, count: int) -> list:
    """The ``count`` coefficients of ``_pack``: the inverse, for any packed
    polynomial whose coefficients are all below half a slot."""
    half = 1 << (8 * width - 1)
    raw = (packed + _halves(width, count)).to_bytes(width * count, "little")
    return [int.from_bytes(raw[i:i + width], "little") - half
            for i in range(0, width * count, width)]


def _halves(width: int, count: int) -> int:
    """Half a slot in each of ``count`` slots, packed."""
    return int.from_bytes((bytes(width - 1) + b"\x80") * count, "little")


def _packed_product(a: tuple, b: tuple) -> list:
    """Product of two integer coefficient lists, by Kronecker substitution.

    A product coefficient is below ``min(len) * max|a| * max|b|``, so a slot two
    bits wider holds it with its sign.
    """
    bits = (max(abs(c) for c in a).bit_length() + max(abs(c) for c in b).bit_length()
            + min(len(a), len(b)).bit_length() + 2)
    width = (bits + 7) // 8
    return _unpack(_pack(a, width) * _pack(b, width), width, len(a) + len(b) - 1)


def pack_entries(entries, factors: int):
    """``[(k, packed entries[k])]`` over the nonzero LaurentPoly entries (one
    variable, or constants), and ``read(value, r)``: the LaurentPoly of a packed product
    of r <= ``factors`` of them.

    The entries are written t^L a_k(t) / D over a common denominator D and
    lowest exponent L, and each integer polynomial a_k is packed into one int.
    With S = sum_k ||a_k||_1, a product of r entries, each times a root of
    unity, has t-coefficients of at most S^r <= S^factors: a slot holding
    S^factors and a sign never overflows.
    """
    terms = [(k, e) for k, e in enumerate(entries) if e.num]
    var = next((e.var for _, e in terms if e.var), None)
    den = lcm(*(e.den for _, e in terms))
    lo = min((e.lo for _, e in terms), default=0)
    polys = [(k, [0] * (e.lo - lo) + [c * (den // e.den) for c in e.num]) for k, e in terms]
    length = max((len(a) for _, a in polys), default=1)
    width = (sum(abs(c) for _, a in polys for c in a) ** factors).bit_length() // 8 + 1

    def read(value: int, r: int) -> LaurentPoly:
        return _make(var, r * lo, _unpack(value, width, r * (length - 1) + 1), den ** r)

    return [(k, _pack(a, width)) for k, a in polys], read


class LaurentPoly:
    """Dense Laurent polynomial ``sum_i num[i] / den * var^(lo + i)``."""

    __slots__ = ("var", "lo", "num", "den")

    def __init__(self, var: str | None, terms: Mapping[int, Scalar] | None = None):
        terms = {int(e): _as_fraction(c) for e, c in (terms or {}).items()}
        lo, den = min(terms, default=0), lcm(*(c.denominator for c in terms.values()))
        num = [0] * (max(terms, default=-1) - lo + 1)
        for e, c in terms.items():
            num[e - lo] = c.numerator * (den // c.denominator)
        p = _make(var, lo, num, den)
        self.var, self.lo, self.num, self.den = p.var, p.lo, p.num, p.den

    # -- constructors ------------------------------------------------------

    @classmethod
    def constant(cls, c) -> "LaurentPoly":
        """The constant ``c``: a value with no variable."""
        c = _as_fraction(c)
        return _make(None, 0, (c.numerator,), c.denominator)

    @classmethod
    def monomial(cls, var: str, exponent: int, coeff=1) -> "LaurentPoly":
        return cls(var, {exponent: _as_fraction(coeff)})

    @classmethod
    def variable(cls, var: str) -> "LaurentPoly":
        return cls.monomial(var, 1)

    # -- queries -----------------------------------------------------------

    @property
    def terms(self) -> dict:
        """The nonzero coefficients as a fresh ``{exponent: Fraction}`` dict."""
        lo, den = self.lo, self.den
        return {lo + i: Fraction(c, den) for i, c in enumerate(self.num) if c}

    def is_zero(self) -> bool:
        return not self.num

    def is_constant(self) -> bool:
        """Zero or a nonzero multiple of ``var^0``: exactly the values with no variable."""
        return self.var is None

    def constant_value(self) -> Fraction:
        """The value of a constant polynomial, as a Fraction."""
        if self.var is not None:
            raise ValueError(f"{self} is not constant")
        return Fraction(self.num[0], self.den) if self.num else Fraction(0)

    def is_monomial(self) -> bool:
        return len(self.num) == 1

    def coeff(self, exponent: int) -> Fraction:
        i = exponent - self.lo
        return Fraction(self.num[i] if 0 <= i < len(self.num) else 0, self.den)

    def cut(self, order: int) -> "LaurentPoly":
        """This polynomial without its terms of exponent above ``order``."""
        n = max(order + 1 - self.lo, 0)
        return self if len(self.num) <= n else _make(self.var, self.lo, self.num[:n], self.den)

    # -- coercion ----------------------------------------------------------

    def _coerce(self, other) -> "LaurentPoly":
        if isinstance(other, LaurentPoly):
            if self.var and other.var and other.var != self.var:
                raise ValueError(f"variable mismatch: {self.var!r} vs {other.var!r}")
            return other
        return LaurentPoly.constant(other)

    # -- arithmetic --------------------------------------------------------

    def __add__(self, other) -> "LaurentPoly":
        other = self._coerce(other)
        if not (self.num and other.num):
            return self if self.num else other
        g = gcd(self.den, other.den)
        m1, m2 = other.den // g, self.den // g
        lo = min(self.lo, other.lo)
        out = [0] * (max(self.lo + len(self.num), other.lo + len(other.num)) - lo)
        for i, c in enumerate(self.num, self.lo - lo):
            out[i] = c * m1
        for i, c in enumerate(other.num, other.lo - lo):
            out[i] += c * m2
        return _make(self.var or other.var, lo, out, self.den * m1)

    __radd__ = __add__

    def __neg__(self) -> "LaurentPoly":
        p = object.__new__(LaurentPoly)
        p.var, p.lo, p.num, p.den = self.var, self.lo, tuple(-c for c in self.num), self.den
        return p

    def __sub__(self, other) -> "LaurentPoly":
        return self + (-self._coerce(other))

    def __rsub__(self, other) -> "LaurentPoly":
        return self._coerce(other) - self

    def __mul__(self, other) -> "LaurentPoly":
        other = self._coerce(other)
        a, b = self.num, other.num
        if len(a) == 1:
            a, b = b, a
        if len(b) == 1:
            num = [c * b[0] for c in a]
        else:
            num = _packed_product(a, b) if a and b else []
        return _make(self.var or other.var, self.lo + other.lo, num, self.den * other.den)

    __rmul__ = __mul__

    def inverse(self) -> "LaurentPoly":
        """Multiplicative inverse; defined only for nonzero monomials."""
        if len(self.num) != 1:
            raise ZeroDivisionError("only nonzero Laurent monomials are invertible")
        c = self.num[0]
        return _make(self.var, -self.lo, (self.den if c > 0 else -self.den,), abs(c))

    def __truediv__(self, other) -> "LaurentPoly":
        return self * self._coerce(other).inverse()

    def __rtruediv__(self, other) -> "LaurentPoly":
        return self._coerce(other) * self.inverse()

    def __pow__(self, exponent: int) -> "LaurentPoly":
        if exponent < 0:
            return self.inverse() ** (-exponent)
        if len(self.num) == 1:
            # A monomial's power is one more monomial: no multiplies.
            return _make(self.var, self.lo * exponent, (self.num[0] ** exponent,),
                         self.den ** exponent)
        result = LaurentPoly.constant(1)
        base = self
        e = exponent
        while e:
            if e & 1:
                result = result * base
            e >>= 1
            if e:
                base = base * base
        return result

    # -- equality / rendering ---------------------------------------------

    def __eq__(self, other) -> bool:
        if isinstance(other, (int, Fraction)):
            return self.var is None and self.constant_value() == other
        if not isinstance(other, LaurentPoly):
            return NotImplemented
        return (self.var == other.var and self.lo == other.lo and self.num == other.num
                and self.den == other.den)

    def __hash__(self):
        if self.var is None:
            return hash(self.constant_value())
        return hash((self.var, self.lo, self.num, self.den))

    def __bool__(self):
        return bool(self.num)

    def __repr__(self):
        return f"LaurentPoly({self!s})"

    def _coeff_texts(self):
        """``(exponent, text)`` of each nonzero coefficient, in exponent order; the
        text is the coefficient in lowest terms, written as ``str(Fraction)`` does."""
        den = self.den
        for e, c in enumerate(self.num, self.lo):
            if c:
                if den == 1:
                    yield e, str(c)
                else:
                    g = gcd(c, den)
                    yield e, str(c // g) if g == den else f"{c // g}/{den // g}"

    def __str__(self):
        if not self.num:
            return "0"
        parts = []
        for e, c in self._coeff_texts():
            if e == 0:
                parts.append(c)
            else:
                base = self.var if e == 1 else f"{self.var}^{e}"
                if c == "1":
                    parts.append(base)
                elif c == "-1":
                    parts.append(f"-{base}")
                else:
                    parts.append(f"{c}*{base}")
        return " + ".join(parts).replace("+ -", "- ")

    def to_json(self) -> dict:
        """Canonical JSON form: {"var": <None for a constant>, "terms": {"<exp>": "<p/q>"}}."""
        return {"var": self.var, "terms": {str(e): c for e, c in self._coeff_texts()}}
