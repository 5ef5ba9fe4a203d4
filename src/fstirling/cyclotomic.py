"""The packed products of the two generating-function harmonic routes, at
every order p, and arithmetic in Z[zeta_p] for prime p.

``twisted_product_coeff`` (root-of-unity route) and ``power_coeffs`` (row
polynomial route) run on the opaque ints of ``laurent.pack_entries``.
``CyclotomicElem``, the reference ring, works on the power basis 1, zeta, ...,
zeta^(p-2) modulo 1 + zeta + ... + zeta^(p-1) = 0, so its p must be prime.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd

from .laurent import LaurentPoly, pack_entries


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


def _grow(cells: dict, packed, ring: int, twist: int, bottom: int, top: int) -> dict:
    """The grid ``cells`` ({w-degree: [packed coefficient of x^r, r < ring]}
    in Z[t][x]/(x^ring - 1)) times sum_k a_k x^(twist (k-1)) w^k, keeping the
    w-degrees in [bottom, top]."""
    grown = {}
    for d, row in cells.items():
        for k, a in packed:
            if bottom <= d + k <= top:
                out = grown.setdefault(d + k, [0] * ring)
                shift = twist * (k - 1)
                for r, x in enumerate(row):
                    if x:
                        out[(r + shift) % ring] += x * a
    return grown


def _mobius(n: int) -> int:
    """mu(n), from sum_{d|n} mu(d) = [n = 1]."""
    return 1 if n == 1 else -sum(_mobius(d) for d in range(1, n) if n % d == 0)


def twisted_product_coeff(p: int, entries) -> LaurentPoly:
    """[w^(2p)] prod_{m<p} sum_k entries[k] zeta^(m(k-1)) w^k, zeta a primitive
    p-th root of unity, any p >= 1, as a LaurentPoly in the entries' variable.

    The product is taken on a grid indexed by (w-degree, x-exponent) in
    Z[t][x]/(x^p - 1), keeping only the w-degrees that can still reach 2p.
    For every unit j mod p, x -> x^j permutes the factors, so the coordinate
    of x^r depends only on gcd(r, p) (else ValueError).  The primitive p-th
    roots of unity sum to mu(p), so the value at x = zeta is
    sum_{d|p} mu(p/d) coords[d mod p]: coords[0] - coords[p-1] for prime p.
    """
    order = 2 * p
    packed, read = pack_entries(entries[:order + 1], p)
    ks = [k for k, _ in packed] or [0]
    cells = {0: [1] + [0] * (p - 1)}
    for m in range(p):
        rest = p - 1 - m
        cells = _grow(cells, packed, p, m, order - rest * ks[-1], order - rest * ks[0])
    coords = cells.get(order, [0] * p)
    if any(coords[r] != coords[gcd(r, p) % p] for r in range(p)):
        raise ValueError(f"product coordinates are not Galois invariant at order {p}")
    return read(sum(_mobius(p // d) * coords[d % p] for d in range(1, p + 1) if p % d == 0), p)


def power_coeffs(p: int, entries) -> list:
    """[w^(p-r)] g^r for r = 1..p, g = sum_k entries[k] w^k: the untwisted grid
    (ring Z[t]) over the same packing, cut at w-degree p - r."""
    packed, read = pack_entries(entries[:p], p)
    cells, out = {0: [1]}, []
    for r in range(1, p + 1):
        cells = _grow(cells, packed, 1, 0, 0, p - r)
        out.append(read(cells.get(p - r, [0])[0], r))
    return out
