"""Generalized factorials: the two factorial normalizations built from f, and
the validation of the t parameter they share with every other module.

The parameter t may be an exact rational, the formal variable itself, or a
monomial power of a substitution variable (used to realize fractional powers
of t exactly).  One formal variable at a time: a symbolic q-power f requires a
numeric t, and vice versa.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Union

from .fspec import FSpec, FSpecError, eval_f, f_pairs
from .laurent import LaurentPoly

TParam = Union[int, Fraction, LaurentPoly, str]


def normalize_t(t: TParam) -> LaurentPoly:
    """Coerce the t parameter to a LaurentPoly (constant or monomial)."""
    if isinstance(t, LaurentPoly):
        if not t.is_monomial() and not t.is_constant():
            raise ValueError("t must be a nonzero constant or a monomial")
        return t
    if isinstance(t, str):
        return LaurentPoly.variable(t)
    value = Fraction(t)
    if value == 0:
        raise ValueError("t must be nonzero")
    return LaurentPoly.constant(value)


def check_config(spec: FSpec, t: TParam) -> LaurentPoly:
    """Validate the one-formal-variable convention and return t normalized."""
    tp = normalize_t(t)
    if spec.symbolic and not tp.is_constant():
        raise FSpecError(
            "symbolic q-power f requires numeric t (bivariate coefficients rejected)"
        )
    return tp


def bang_f(spec: FSpec, n: int) -> LaurentPoly:
    """prod_{j=1}^{n} f(j); the empty product for n = 0."""
    if n < 0:
        raise ValueError("n must be >= 0")
    if spec.symbolic:
        acc = LaurentPoly.constant(1)
        for j in range(1, n + 1):
            acc = acc * eval_f(spec, j)
        return acc
    num = den = 1
    for a, b in f_pairs(spec, 1, n + 1):
        num, den = num * a, den * b
    return LaurentPoly.constant(Fraction(num, den))


def bang_ft(spec: FSpec, t: TParam, n: int) -> LaurentPoly:
    """bang_f(n) scaled by t^(-n(n+1)/2)."""
    tp = check_config(spec, t)
    return bang_f(spec, n) * tp ** (-(n * (n + 1) // 2))
