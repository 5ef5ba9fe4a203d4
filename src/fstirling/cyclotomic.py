"""Arithmetic in Z[zeta_p] for prime p, with rational or Laurent-polynomial
coordinates.

Elements are represented on the power basis 1, zeta, ..., zeta^(p-2) and
reduced modulo 1 + zeta + ... + zeta^(p-1) = 0.  Restricting to prime p keeps
the reduction step trivial.

``twisted_product_coeff`` is the root-of-unity harmonic route's product: it
works on plain ints, with each Laurent coefficient packed into one int.
"""

from __future__ import annotations

from fractions import Fraction
from math import lcm

from .laurent import LaurentPoly, _make, _pack, _unpack


def is_prime(p: int) -> bool:
    if p < 2:
        return False
    d = 2
    while d * d <= p:
        if p % d == 0:
            return False
        d += 1
    return True


class CyclotomicElem:
    """Element of Q(zeta_p) (coords may also be LaurentPoly in a parameter)."""

    __slots__ = ("p", "coords")

    def __init__(self, p: int, coords):
        if not is_prime(p):
            raise ValueError(f"cyclotomic order must be prime, got {p}")
        coords = list(coords)
        if len(coords) != p - 1:
            raise ValueError(f"need {p - 1} coordinates for order {p}, got {len(coords)}")
        self.p = p
        self.coords = coords

    @classmethod
    def scalar(cls, p: int, value) -> "CyclotomicElem":
        coords = [value] + [Fraction(0)] * (p - 2)
        return cls(p, coords)

    @classmethod
    def zeta_pow(cls, p: int, exponent: int) -> "CyclotomicElem":
        """zeta_p^exponent reduced to the power basis."""
        e = exponent % p
        coords = [Fraction(0)] * (p - 1)
        if e < p - 1:
            coords[e] = Fraction(1)
        else:
            # zeta^(p-1) = -(1 + zeta + ... + zeta^(p-2))
            coords = [Fraction(-1)] * (p - 1)
        return cls(p, coords)

    def _check(self, other: "CyclotomicElem"):
        if self.p != other.p:
            raise ValueError(f"order mismatch: {self.p} vs {other.p}")

    def __add__(self, other) -> "CyclotomicElem":
        if not isinstance(other, CyclotomicElem):
            other = CyclotomicElem.scalar(self.p, other)
        self._check(other)
        return CyclotomicElem(self.p, [a + b for a, b in zip(self.coords, other.coords)])

    __radd__ = __add__

    def __neg__(self) -> "CyclotomicElem":
        return CyclotomicElem(self.p, [-a for a in self.coords])

    def __sub__(self, other) -> "CyclotomicElem":
        if not isinstance(other, CyclotomicElem):
            other = CyclotomicElem.scalar(self.p, other)
        return self + (-other)

    def scale(self, c) -> "CyclotomicElem":
        return CyclotomicElem(self.p, [a * c for a in self.coords])

    def __mul__(self, other) -> "CyclotomicElem":
        if not isinstance(other, CyclotomicElem):
            return self.scale(other)
        self._check(other)
        p = self.p
        # Convolve on exponents 0..2p-4, fold modulo p, then eliminate the
        # zeta^(p-1) coordinate with the cyclotomic relation.
        folded = [Fraction(0)] * p
        for i, a in enumerate(self.coords):
            if not a:
                continue
            for j, b in enumerate(other.coords):
                if not b:
                    continue
                folded[(i + j) % p] = folded[(i + j) % p] + a * b
        top = folded[p - 1]
        coords = [folded[i] - top for i in range(p - 1)]
        return CyclotomicElem(p, coords)

    __rmul__ = __mul__

    def is_rational(self) -> bool:
        """True when all coordinates beyond degree 0 vanish."""
        return all(not c for c in self.coords[1:])

    def rational_part(self):
        """Degree-0 coordinate; raises if the element is not rational."""
        if not self.is_rational():
            raise ValueError(f"element has nonzero zeta-coordinates: {self.coords}")
        return self.coords[0]

    def __bool__(self):
        return any(self.coords)

    def __eq__(self, other) -> bool:
        if not isinstance(other, CyclotomicElem):
            return self.is_rational() and self.coords[0] == other
        return self.p == other.p and all(
            a == b for a, b in zip(self.coords, other.coords)
        )

    def __repr__(self):
        return f"CyclotomicElem(p={self.p}, {self.coords})"


def twisted_product_coeff(p: int, entries) -> LaurentPoly:
    """[w^(2p)] prod_{m<p} sum_k entries[k] zeta_p^(m(k-1)) w^k for prime p.

    Replacing zeta by zeta^j permutes the factors, so the coefficient is
    rational and is returned as a LaurentPoly; a nonzero zeta-coordinate
    raises ValueError.  The entries are LaurentPoly values in one variable t.

    They are written t^L a_k(t) / D over a common denominator D and lowest
    exponent L, and each integer polynomial a_k is packed into one int.  Each
    factor has L1 norm S = sum_k ||a_k||_1 over (t, zeta, w), so every partial
    product, and the difference of two of its coordinates, has coefficients of
    at most S^p: a slot holding S^p and a sign never overflows.  The product is
    taken in Z[t][zeta]/(zeta^p - 1) on a grid indexed by (w-degree,
    zeta-exponent), keeping only the w-degrees that can still reach 2p, and
    reduced modulo 1 + zeta + ... + zeta^(p-1) at the end.
    """
    if not is_prime(p):
        raise ValueError(f"cyclotomic order must be prime, got {p}")
    order = 2 * p
    terms = [(k, e) for k, e in enumerate(entries[:order + 1]) if e.num]
    if not terms:
        return LaurentPoly.constant("t", 0)
    var = next((e.var for _, e in terms if not e.is_constant()), "t")
    den = lcm(*(e.den for _, e in terms))
    lo = min(e.lo for _, e in terms)
    polys = [(k, [0] * (e.lo - lo) + [c * (den // e.den) for c in e.num]) for k, e in terms]
    slots = p * max(len(a) for _, a in polys) - p + 1
    bound = sum(abs(c) for _, a in polys for c in a) ** p
    width = (bound.bit_length() + 8) // 8
    packed = [(k, _pack(a, width)) for k, a in polys]
    kmin, kmax = packed[0][0], packed[-1][0]

    cells = {0: [1] + [0] * (p - 1)}  # w-degree -> packed coefficient per zeta^r
    for m in range(p):
        rest = p - 1 - m
        top, bottom = order - rest * kmin, order - rest * kmax
        grown = {}
        for d, row in cells.items():
            for k, a in packed:
                if not bottom <= d + k <= top:
                    continue
                out = grown.setdefault(d + k, [0] * p)
                shift = m * (k - 1)
                for r, x in enumerate(row):
                    if x:
                        out[(r + shift) % p] += x * a
        cells = grown

    coords = cells.get(order, [0] * p)
    # zeta^(p-1) = -(1 + zeta + ... + zeta^(p-2)): coordinate r becomes
    # coords[r] - coords[p-1], which must vanish for every r >= 1.
    if any(c != coords[-1] for c in coords[1:]):
        raise ValueError(f"product has nonzero zeta-coordinates at order {p}")
    return _make(var, p * lo, _unpack(coords[0] - coords[-1], width, slots), den ** p)
