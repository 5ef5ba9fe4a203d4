"""The coefficient function f: its DSL, its values, its finite products
n!_f and n!_{f(t)}, and the check of an (f, t) configuration.

An FSpec describes f: {1, 2, ...} -> rationals (or q-power monomials) in one
of four shapes, with a tiny text DSL for the CLI:

    linear:<a>,<b>        f(n) = a*n + b
    poly:<c0>,<c1>,...    f(n) = c0 + c1*n + c2*n^2 + ...; both held as integers
                          over one denominator, linear:1/2,-3/4 as ((-3, 2), 4)
    qpow:<offset>         f(n) = q^(n+offset), q the formal variable
    qpow:<base>,<offset>  f(n) = base^(n+offset), numeric base
    table:<path>          f(n) = values[n-1] from a JSON array of numbers
                          and "p/q" strings, held as reduced (num, den) pairs

Numbers in this text, in table files and in the text of t are read from
their text (``rational``), under the int-to-string digit limit, exponents
included; a numeric qpow's f(1) is held to the same limit.

f(n) = 0 is rejected at the point of first use: every downstream sum divides
by f(k) powers, so a zero value would silently poison results.

The parameter t may be an exact rational, the formal variable itself, or a
monomial power of a substitution variable (used to realize fractional powers
of t exactly).  One formal variable at a time: a symbolic q-power f requires a
numeric t, and vice versa.  ``check_config`` reads t in each form, the text of
``--t`` included, into one nonzero constant or monomial ``LaurentPoly``; every
library function that takes t takes that value, as ``tp``, and uses it as given.

``MEMO`` is the one store of what the recurrences over f have built so far:
products n!_f under ``("bang", spec)``, first-kind rows under
``("s1", spec, tp)`` and the direct partial sums under
``("direct", spec, p, arg)``.  Only ``stored`` reads it: each entry is a list
extended on demand, a read the list already covers builds nothing, and an
entry whose step raises, as when its f value fails, is not kept.  ``cli.main``
empties it at the start of each command.
"""

from __future__ import annotations

import re
import sys
from fractions import Fraction
from math import gcd, lcm, log2
from typing import Callable, Iterator, NamedTuple, Optional, Sequence, Tuple, Union

from .laurent import LaurentPoly

Q_VAR = "q"
MEMO: dict = {}
ZERO, ONE = LaurentPoly.constant(0), LaurentPoly.constant(1)


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
            (b, a), den = self.params
            return f"linear:{Fraction(a, den)},{Fraction(b, den)}"
        if self.kind == "poly":
            ints, den = self.params
            return "poly:" + ",".join(str(Fraction(c, den)) for c in ints)
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


def rational(text: str) -> Fraction:
    """``Fraction(text)``, with an exponent past the int-to-string digit limit
    rejected from the text, before the number is built, as digits past it are."""
    exp = re.search(r"[eE]([-+]?\d+(?:_\d+)*)\s*\Z", text)
    limit = getattr(sys, "get_int_max_str_digits", int)()  # 0: no limit
    if exp and limit and abs(int(exp[1])) > limit:
        raise ValueError(f"exponent {exp[1]} exceeds the limit ({limit} digits)")
    return Fraction(text)


def linear(alpha, beta) -> FSpec:
    return poly(beta, alpha)._replace(kind="linear")

def poly(*coeffs) -> FSpec:
    """f(n) = c0 + c1 n + ..., held as (ints, den) with f(n) = sum_i ints[i] n^i / den,
    den the lcm of the coefficients' denominators."""
    coeffs = [Fraction(c) for c in coeffs]
    den = lcm(*(c.denominator for c in coeffs))
    return FSpec("poly", (tuple(c.numerator * (den // c.denominator) for c in coeffs), den))

def qpow(offset: int, base=None) -> FSpec:
    return FSpec("qpow", (None if base is None else Fraction(base), int(offset)))

def table(values: Sequence, path: str = "<inline>") -> FSpec:
    if any(isinstance(v, bool) for v in values):
        raise FSpecError("table contains a boolean value")
    pairs = tuple((rational(v) if isinstance(v, str) else Fraction(v)).as_integer_ratio()
                  for v in values)
    if not pairs:
        raise FSpecError("table must be non-empty")
    if any(num == 0 for num, _ in pairs):
        raise FSpecError("table contains a zero value")
    return FSpec("table", (), pairs, path)


def _reject_constant(name: str):
    raise ValueError(f"{name} is not a rational number")


def parse_fspec(text: str) -> FSpec:
    """Parse the DSL form; raises FSpecError on malformed input."""
    if ":" not in text:
        raise FSpecError(f"malformed fspec {text!r} (expected kind:args)")
    kind, _, rest = text.partition(":")
    try:
        if kind == "linear":
            a, b = rest.split(",")
            return linear(rational(a), rational(b))
        if kind == "poly":
            coeffs = [rational(c) for c in rest.split(",")]
            return poly(*coeffs)
        if kind == "qpow":
            parts = rest.split(",")
            if len(parts) == 1:
                return qpow(int(parts[0]))
            if len(parts) == 2:
                base, offset = rational(parts[0]), int(parts[1])
                # f(1) = base^(1+offset), judged before any power is built: the larger
                # of its numerator and denominator is at least 2^bits (1 when |base| = 1).
                larger = max(abs(base.numerator), base.denominator)
                bits = (larger.bit_length() - 1) * abs(1 + offset)
                limit = getattr(sys, "get_int_max_str_digits", int)()  # 0: no limit
                if limit and bits > limit * log2(10):
                    raise FSpecError(f"f(1) of {text} exceeds the limit ({limit} digits)")
                return qpow(offset, base)
            raise FSpecError(f"qpow takes 1 or 2 arguments, got {len(parts)}")
        if kind == "table":
            import json

            # Numbers are read from their text, as the DSL's are: 0.1 is 1/10.
            with open(rest) as fh:
                values = json.load(fh, parse_float=rational, parse_constant=_reject_constant)
            if not isinstance(values, list):
                raise FSpecError(f"table file {rest!r} is not a JSON array")
            return table(values, rest)
    except FSpecError:
        raise
    except (ValueError, TypeError, ZeroDivisionError, OSError, RecursionError) as exc:
        # TypeError: a table entry that is not a number or a string, such as null;
        # RecursionError: a table file nested too deep for the JSON reader
        raise FSpecError(f"malformed fspec {text!r}: {exc}") from exc
    raise FSpecError(f"unknown fspec kind {kind!r}")


def _raw_f(spec: FSpec, n: int) -> Tuple[int, int]:
    """f(n) as an integer pair (num, den), den > 0, unreduced."""
    if spec.kind in ("linear", "poly"):
        ints, den = spec.params
        num = 0
        for c in reversed(ints):
            num = num * n + c
        return num, den
    if spec.kind == "qpow":
        base, offset = spec.params
        if base is None:
            raise FSpecError("symbolic q-power spec has no scalar value")
        if not base and n + offset < 0:
            raise FSpecError(f"f({n}) = 0^{n + offset} is undefined for spec {spec.render()!r}")
        return (base ** (n + offset)).as_integer_ratio()
    if spec.kind == "table":
        if n > len(spec.table):
            raise FSpecError(f"f({n}) is outside the table (length {len(spec.table)})")
        return spec.table[n - 1]
    raise FSpecError(f"unknown fspec kind {spec.kind!r}")


def f_pairs(spec: FSpec, lo: int, hi: int) -> Iterator[Tuple[int, int]]:
    """The one numeric evaluator: f(n) for lo <= n < hi, in order, as integer
    pairs (num, den) in lowest terms with den > 0.  Raises FSpecError for
    n < 1, a symbolic q-power spec, n past the end of a table, f(n) = 0, and
    a zero q-power base raised to a negative power."""
    if lo < 1:
        raise FSpecError(f"f is defined for n >= 1, got n={lo}")
    for n in range(lo, hi):
        num, den = _raw_f(spec, n)
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


TParam = Union[int, Fraction, LaurentPoly, str]


def check_config(spec: FSpec, t: TParam) -> LaurentPoly:
    """t as the library takes it: a rational, the text of ``--t`` or a
    ``LaurentPoly``, checked to be a nonzero constant or monomial that obeys
    the one-formal-variable convention.  Text is "sym", "symbolic" or "t" for
    the formal variable t, and otherwise a rational; it never names a variable."""
    if isinstance(t, str):
        try:
            t = LaurentPoly.variable("t") if t in ("sym", "symbolic", "t") else rational(t)
        except (ValueError, ZeroDivisionError) as exc:
            raise FSpecError(f"bad t value {t!r}: {exc}") from exc
    tp = t if isinstance(t, LaurentPoly) else LaurentPoly.constant(t)
    if not tp:
        raise FSpecError("t must be nonzero")
    if not tp.is_monomial():  # a nonzero constant is a monomial at exponent 0
        raise ValueError("t must be a nonzero constant or a monomial")
    if spec.symbolic and not tp.is_constant():
        raise FSpecError(
            "symbolic q-power f requires numeric t (bivariate coefficients rejected)"
        )
    return tp


def stored(key: tuple, first, n: int, step: Callable[[list, int], object]) -> list:
    """The list ``MEMO`` keeps under ``key``, begun with ``first`` (a shared
    constant) and extended through index n by appending ``step(seq, j)``."""
    seq = MEMO.get(key) or MEMO.setdefault(key, [first])
    for j in range(len(seq), n + 1):
        seq.append(step(seq, j))
    return seq


def bang_f(spec: FSpec, n: int) -> LaurentPoly:
    """prod_{j=1}^{n} f(j), 1 for n = 0, from the running products in ``MEMO``."""
    if n < 0:
        raise ValueError("n must be >= 0")
    return stored(("bang", spec), ONE, n, lambda prods, j: prods[-1] * eval_f(spec, j))[n]


def bang_ft(spec: FSpec, tp: LaurentPoly, n: int) -> LaurentPoly:
    """bang_f(n) scaled by t^(-n(n+1)/2)."""
    return bang_f(spec, n) * tp ** (-(n * (n + 1) // 2))
