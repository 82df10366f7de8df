"""Laurent polynomials in one variable with exact coefficients.

A polynomial is a sparse map ``exponent -> coefficient`` with no zero values
stored; the zero polynomial is the empty map.  Exponents may be negative.
The four base rings K, K[x], K[x^-1] and K[x,x^-1] are tags restricting
which exponents a value may use; arithmetic itself always happens in the
full Laurent ring.  This module holds ring arithmetic only: division and
elimination run on the coefficient lists of ``polylists``.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum

from .errors import BaseRingViolationError, NotAUnitError, ShapeError
from .scalars import CoefficientRing, check_same_ring


class BaseRing(Enum):
    """Exponent constraint tags for the polynomial base rings over K."""

    K = "K"
    POLY = "K[x]"
    POLY_INV = "K[x^-1]"
    LAURENT = "K[x,x^-1]"

    def allows(self, exponent: int) -> bool:
        if self is BaseRing.K:
            return exponent == 0
        if self is BaseRing.POLY:
            return exponent >= 0
        if self is BaseRing.POLY_INV:
            return exponent <= 0
        return True

    @property
    def tag(self) -> str:
        return self.value


def base_from_tag(tag: str) -> BaseRing:
    for base in BaseRing:
        if base.value == tag:
            return base
    raise ShapeError(f"unknown base ring tag {tag!r}")


class LaurentPoly:
    """Immutable sparse Laurent polynomial over a coefficient ring."""

    __slots__ = ("ring", "_c", "_hash")

    def __init__(self, ring: CoefficientRing, coeffs=None):
        self.ring = ring
        clean = {}
        if coeffs:
            for e, c in coeffs.items():
                c = ring.normalise(c)
                if c != 0:
                    clean[int(e)] = c
        self._c = clean
        self._hash = None

    # -- constructors ------------------------------------------------------

    @classmethod
    def zero(cls, ring):
        return _canonical(ring, {})

    @classmethod
    def one(cls, ring):
        return _canonical(ring, {0: ring.one()})

    @classmethod
    def constant(cls, ring, value):
        return cls(ring, {0: value})

    @classmethod
    def monomial(cls, ring, exponent: int, coeff=1):
        return cls(ring, {exponent: ring.from_int(coeff) if isinstance(coeff, int) else coeff})

    @classmethod
    def from_pairs(cls, ring, pairs):
        """Build from ``[(exponent, coefficient), ...]``, summing repeats."""
        acc = {}
        for e, c in pairs:
            acc[e] = acc[e] + c if e in acc else c
        return cls(ring, acc)

    # -- canonical data ----------------------------------------------------

    @property
    def is_zero(self) -> bool:
        return not self._c

    @property
    def is_one(self) -> bool:
        return self._c == {0: 1}

    def items(self):
        """Sorted (exponent, coefficient) pairs, exponents ascending."""
        return sorted(self._c.items())

    def coeff(self, exponent: int):
        return self._c.get(exponent, self.ring.zero())

    @property
    def mindeg(self) -> int:
        if not self._c:
            raise ShapeError("mindeg undefined on the zero polynomial")
        return min(self._c)

    @property
    def maxdeg(self) -> int:
        if not self._c:
            raise ShapeError("maxdeg undefined on the zero polynomial")
        return max(self._c)

    @property
    def core_degree(self) -> int:
        """maxdeg - mindeg: the degree of the monic core, the Euclidean
        norm of K[x,x^-1]."""
        return self.maxdeg - self.mindeg

    def respects(self, base: BaseRing) -> bool:
        return all(base.allows(e) for e in self._c)

    def check_base(self, base: BaseRing):
        if not self.respects(base):
            raise BaseRingViolationError(
                f"{self} has exponents outside {base.tag}"
            )

    # -- arithmetic --------------------------------------------------------

    def __add__(self, other):
        check_same_ring(self.ring, other.ring)
        acc = dict(self._c)
        for e, c in other._c.items():
            a = acc.get(e)
            acc[e] = c if a is None else a + c
        return _canonical(self.ring, _reduced(self.ring, acc))

    def __sub__(self, other):
        return self + (-other)

    def __neg__(self):
        neg = self.ring.neg
        return _canonical(self.ring, {e: neg(c) for e, c in self._c.items()})

    def __mul__(self, other):
        check_same_ring(self.ring, other.ring)
        acc = {}
        for e1, c1 in self._c.items():
            for e2, c2 in other._c.items():
                e = e1 + e2
                a = acc.get(e)
                acc[e] = c1 * c2 if a is None else a + c1 * c2
        return _canonical(self.ring, _reduced(self.ring, acc))

    def scale(self, coeff):
        coeff = self.ring.normalise(coeff)
        mul = self.ring.mul
        return _canonical(self.ring,
                          {e: mul(c, coeff) for e, c in self._c.items()})

    def times_monomial(self, exponent: int, coeff=None):
        if coeff is None:
            return _canonical(self.ring, {e + exponent: c
                                          for e, c in self._c.items()})
        coeff = self.ring.normalise(coeff)
        mul = self.ring.mul
        return _canonical(self.ring, {e + exponent: mul(c, coeff)
                                      for e, c in self._c.items()})

    def evaluate(self, point):
        """Evaluate at a scalar point (the point must be a unit when
        negative exponents occur)."""
        ring = self.ring
        total = ring.zero()
        inv = None
        for e, c in self._c.items():
            if e >= 0:
                term = ring.mul(c, _power(ring, point, e))
            else:
                if inv is None:
                    inv = ring.invert(point)
                term = ring.mul(c, _power(ring, inv, -e))
            total = ring.add(total, term)
        return total

    # -- units and normal form ----------------------------------------------

    @property
    def is_unit(self) -> bool:
        """Unit of K[x,x^-1]: a single term with unit coefficient."""
        if len(self._c) != 1:
            return False
        (_, c), = self._c.items()
        return self.ring.is_unit(c)

    def unit_normalise(self):
        """Write self = c * x^v * core with core monic and core(0) != 0.

        Returns ``(v, c, core)``.  Requires a field (or a unit leading
        coefficient over Z) and a nonzero polynomial.
        """
        if self.is_zero:
            raise ShapeError("cannot normalise the zero polynomial")
        v = self.mindeg
        lead = self._c[self.maxdeg]
        inv = self.ring.invert(lead)
        mul = self.ring.mul
        core = _canonical(self.ring,
                          {e - v: mul(c, inv) for e, c in self._c.items()})
        return v, lead, core

    def inverse_unit(self):
        if not self.is_unit:
            raise NotAUnitError(f"{self} is not a unit of K[x,x^-1]")
        (e, c), = self._c.items()
        return _canonical(self.ring, {-e: self.ring.invert(c)})

    # -- comparisons ---------------------------------------------------------

    def __eq__(self, other):
        if not isinstance(other, LaurentPoly):
            return NotImplemented
        return self.ring == other.ring and self._c == other._c

    def __hash__(self):
        if self._hash is None:
            self._hash = hash((self.ring, tuple(sorted(self._c.items()))))
        return self._hash

    def __bool__(self):
        return bool(self._c)

    def __repr__(self):
        if not self._c:
            return "0"
        parts = []
        for e, c in self.items():
            cs = self.ring.render(c)
            if e == 0:
                parts.append(cs)
            elif e == 1:
                parts.append(f"{cs}*x" if cs != "1" else "x")
            else:
                parts.append(f"{cs}*x^{e}" if cs != "1" else f"x^{e}")
        return " + ".join(parts)


def _canonical(ring, coeffs) -> LaurentPoly:
    """Wrap coefficients that are already canonical elements of ``ring``.

    Results of arithmetic on canonical operands need no normalisation,
    only the zeros dropped; outside input goes through the constructor.
    """
    p = object.__new__(LaurentPoly)
    p.ring = ring
    p._c = {e: c for e, c in coeffs.items() if c}
    p._hash = None
    return p


def _reduced(ring, acc):
    """Raw sums and products of canonical values, brought back mod p."""
    if ring.p:
        p = ring.p
        return {e: c % p for e, c in acc.items()}
    return acc


def _power(ring, base, n):
    out = ring.one()
    for _ in range(n):
        out = ring.mul(out, base)
    return out
