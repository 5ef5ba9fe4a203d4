"""Declarative specification of the coefficient function f.

An FSpec describes f: {1, 2, ...} -> rationals (or q-power monomials) in one
of four shapes, with a tiny text DSL for the CLI:

    linear:<a>,<b>        f(n) = a*n + b
    poly:<c0>,<c1>,...    f(n) = c0 + c1*n + c2*n^2 + ...
    qpow:<offset>         f(n) = q^(n+offset), q the formal variable
    qpow:<base>,<offset>  f(n) = base^(n+offset), numeric base
    table:<path>          f(n) = values[n-1] from a JSON array of rationals

f(n) = 0 is rejected at the point of first use: every downstream sum divides
by f(k) powers, so a zero value would silently poison results.
"""

from __future__ import annotations

from fractions import Fraction
from functools import lru_cache
from itertools import accumulate, islice, repeat
from math import gcd, lcm
from typing import Iterator, NamedTuple, Optional, Sequence, Tuple

from .laurent import LaurentPoly

Q_VAR = "q"


class FSpecError(ValueError):
    """Malformed spec text or an invalid f value."""


class FSpec(NamedTuple):
    kind: str  # "linear" | "poly" | "qpow" | "table"
    params: tuple = ()
    table: tuple = ()
    table_path: Optional[str] = None

    @property
    def symbolic(self) -> bool:
        """True when f values are monomials in the formal variable q."""
        return self.kind == "qpow" and self.params[0] is None

    def render(self) -> str:
        if self.kind == "linear":
            a, b = self.params
            return f"linear:{a},{b}"
        if self.kind == "poly":
            return "poly:" + ",".join(str(c) for c in self.params)
        if self.kind == "qpow":
            base, offset = self.params
            if base is None:
                return f"qpow:{offset}"
            return f"qpow:{base},{offset}"
        if self.kind == "table":
            return f"table:{self.table_path}"
        raise FSpecError(f"unknown kind {self.kind!r}")

    def __str__(self):
        return self.render()


def linear(alpha, beta) -> FSpec:
    return FSpec("linear", (Fraction(alpha), Fraction(beta)))

def poly(*coeffs) -> FSpec:
    return FSpec("poly", tuple(Fraction(c) for c in coeffs))

def qpow(offset: int, base=None) -> FSpec:
    return FSpec("qpow", (None if base is None else Fraction(base), int(offset)))

def table(values: Sequence, path: str = "<inline>") -> FSpec:
    vals = tuple(Fraction(v) for v in values)
    if not vals:
        raise FSpecError("table must be non-empty")
    if any(v == 0 for v in vals):
        raise FSpecError("table contains a zero value")
    return FSpec("table", (), vals, path)


def parse_fspec(text: str) -> FSpec:
    """Parse the DSL form; raises FSpecError on malformed input."""
    if ":" not in text:
        raise FSpecError(f"malformed fspec {text!r} (expected kind:args)")
    kind, _, rest = text.partition(":")
    try:
        if kind == "linear":
            a, b = rest.split(",")
            return linear(Fraction(a), Fraction(b))
        if kind == "poly":
            coeffs = [Fraction(c) for c in rest.split(",")]
            return poly(*coeffs)
        if kind == "qpow":
            parts = rest.split(",")
            if len(parts) == 1:
                return qpow(int(parts[0]))
            if len(parts) == 2:
                return qpow(int(parts[1]), Fraction(parts[0]))
            raise FSpecError(f"qpow takes 1 or 2 arguments, got {len(parts)}")
        if kind == "table":
            import json

            with open(rest) as fh:
                values = json.load(fh)
            if not isinstance(values, list):
                raise FSpecError(f"table file {rest!r} is not a JSON array")
            return table(values, rest)
    except FSpecError:
        raise
    except (ValueError, ZeroDivisionError, OSError) as exc:
        raise FSpecError(f"malformed fspec {text!r}: {exc}") from exc
    raise FSpecError(f"unknown fspec kind {kind!r}")


@lru_cache(maxsize=64)
def _int_coeffs(spec: FSpec) -> Tuple[Tuple[int, ...], int]:
    """(c, d) with f(n) = sum_i c[i] n^i / d, for the linear and poly kinds."""
    coeffs = spec.params[::-1] if spec.kind == "linear" else spec.params
    den = lcm(*(c.denominator for c in coeffs))
    return tuple(c.numerator * (den // c.denominator) for c in coeffs), den


def _raw_pairs(spec: FSpec, lo: int, hi: int) -> Iterator[Tuple[int, int]]:
    """f(n) for lo <= n < hi as integer pairs (num, den), den > 0, unreduced."""
    if spec.kind in ("linear", "poly"):
        ints, den = _int_coeffs(spec)
        if spec.kind == "linear":  # one integer add per term
            offset, step = ints
            nums = islice(accumulate(repeat(step), initial=offset + step * lo), hi - lo)
        else:
            nums = (sum(c * n ** i for i, c in enumerate(ints)) for n in range(lo, hi))
        yield from zip(nums, repeat(den))
    elif spec.kind == "qpow":
        base, offset = spec.params
        if base is None:
            raise FSpecError("symbolic q-power spec has no scalar value")
        for n in range(lo, hi):
            if not base and n + offset < 0:
                raise FSpecError(
                    f"f({n}) = 0^{n + offset} is undefined for spec {spec.render()!r}")
            yield (base ** (n + offset)).as_integer_ratio()
    elif spec.kind == "table":
        for n in range(lo, hi):
            if n > len(spec.table):
                raise FSpecError(f"f({n}) is outside the table (length {len(spec.table)})")
            yield spec.table[n - 1].as_integer_ratio()
    else:
        raise FSpecError(f"unknown fspec kind {spec.kind!r}")


def f_pairs(spec: FSpec, lo: int, hi: int) -> Iterator[Tuple[int, int]]:
    """The one numeric evaluator: f(n) for lo <= n < hi, in order, as integer
    pairs (num, den) in lowest terms with den > 0.  Raises FSpecError for
    n < 1, a symbolic q-power spec, n past the end of a table, f(n) = 0, and
    a zero q-power base raised to a negative power."""
    if lo < 1:
        raise FSpecError(f"f is defined for n >= 1, got n={lo}")
    for n, (num, den) in enumerate(_raw_pairs(spec, lo, hi), lo):
        if not num:
            raise FSpecError(f"f({n}) = 0 for spec {spec.render()!r}")
        g = gcd(num, den)
        yield num // g, den // g


def eval_f_scalar(spec: FSpec, n: int) -> Fraction:
    """f(n) as a plain Fraction, for numeric specs."""
    return Fraction(*next(f_pairs(spec, n, n + 1)))


def eval_f(spec: FSpec, n: int) -> LaurentPoly:
    """Exact value of f(n) as a LaurentPoly (constant unless symbolic qpow)."""
    if spec.symbolic and n >= 1:
        return LaurentPoly.monomial(Q_VAR, n + spec.params[1])
    num, den = next(f_pairs(spec, n, n + 1))
    return LaurentPoly.constant(Fraction(num, den))
