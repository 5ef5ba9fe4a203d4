"""Exact-arithmetic toolkit for generalized factorials, Stirling-type
triangles, p-order f-harmonic numbers, and convolution-polynomial analogs."""

from .cyclotomic import CyclotomicElem, is_prime
from .factorial import bang_f, bang_ft, check_config, normalize_t
from .fharmonic import (
    euler_sum_numeric,
    fharmonic_direct,
    harmonic_via_ftilde,
    harmonic_via_roots,
    harmonic_via_subst,
    wf_table,
)
from .fspec import FSpec, FSpecError, eval_f, linear, parse_fspec, poly, qpow, table
from .laurent import LaurentPoly
from .report import CheckCell, Report
from .series import TruncSeries, geometric_minus_one_over
from .stirling import (
    Triangle,
    s1_entry_oracle,
    s1_triangle,
    s2_entry,
    s2star_entry,
)

__all__ = [
    "CheckCell",
    "CyclotomicElem",
    "FSpec",
    "FSpecError",
    "LaurentPoly",
    "Report",
    "Triangle",
    "TruncSeries",
    "bang_f",
    "bang_ft",
    "check_config",
    "euler_sum_numeric",
    "eval_f",
    "fharmonic_direct",
    "geometric_minus_one_over",
    "harmonic_via_ftilde",
    "harmonic_via_roots",
    "harmonic_via_subst",
    "is_prime",
    "linear",
    "normalize_t",
    "parse_fspec",
    "poly",
    "qpow",
    "s1_entry_oracle",
    "s1_triangle",
    "s2_entry",
    "s2star_entry",
    "table",
    "wf_table",
]
