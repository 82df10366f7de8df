"""Laurent polynomials in one variable with exact coefficients.

A polynomial stores exactly its ``polylists`` entry, ``entry``: None for
zero, or (v, c) for x^v * (c[0] + c[1] x + ... + c[n] x^n), c a tuple of
canonical coefficients with c[0] and c[-1] nonzero (a zero inside may be
the int 0).  Storage is dense over the exponent span, the working form of
every kernel; the kernels read ``entry`` as is and share its tuple, which
nothing changes in place, and file input bounds the span by
``fileformat.MAX_EXPONENT``.  Degrees and base-ring checks are O(1), and
arithmetic runs through ``polylists.lincomb``, ``scaled`` and ``trim``.
The four base rings K, K[x], K[x^-1] and K[x,x^-1] are tags restricting
which exponents a value may use; arithmetic always happens in the full
Laurent ring.
"""

from __future__ import annotations

from enum import Enum

from .errors import ShapeError
from .polylists import MINUS_ONE, ONE, from_terms, lincomb, scaled
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
    try:
        return BaseRing(tag)
    except ValueError:
        raise ShapeError(f"unknown base ring tag {tag!r}") from None


def _exponent(e) -> int:
    if type(e) is not int:
        raise ShapeError(f"exponent {e!r} is not an int")
    return e


class LaurentPoly:
    """Immutable Laurent polynomial over a coefficient ring, stored as its
    coefficient entry (see the module docstring)."""

    __slots__ = ("ring", "entry", "_hash")

    def __init__(self, ring: CoefficientRing, coeffs=None):
        """The sum of c x^e over the items e: c of ``coeffs``."""
        self.ring = ring
        self.entry = _checked(ring, (coeffs or {}).items())
        self._hash = None

    # -- constructors ------------------------------------------------------

    @classmethod
    def from_entry(cls, ring, entry):
        """The polynomial of a ``polylists`` entry whose coefficients are
        already canonical elements of ``ring`` (a kernel's result)."""
        if entry is not None and type(entry[1]) is not tuple:
            entry = entry[0], tuple(entry[1])
        p = object.__new__(cls)
        p.ring = ring
        p.entry = entry
        p._hash = None
        return p

    @classmethod
    def zero(cls, ring):
        return cls.from_entry(ring, None)

    @classmethod
    def one(cls, ring):
        return cls.from_entry(ring, (0, (ring.one(),)))

    @classmethod
    def from_pairs(cls, ring, pairs):
        """Build from ``[(exponent, coefficient), ...]``, summing repeats."""
        return cls.from_entry(ring, _checked(ring, pairs))

    # -- canonical data ----------------------------------------------------

    @property
    def is_zero(self) -> bool:
        return self.entry is None

    def items(self):
        """Sorted (exponent, coefficient) pairs, exponents ascending."""
        v, c = self.entry or (0, ())
        return [(v + k, x) for k, x in enumerate(c) if x]

    def coeff(self, exponent: int):
        v, c = self.entry or (0, ())
        k = exponent - v
        return c[k] if 0 <= k < len(c) and c[k] else self.ring.zero()

    def respects(self, base: BaseRing) -> bool:
        if base is BaseRing.LAURENT or self.entry is None:
            return True
        v, c = self.entry  # each base ring allows an interval of exponents
        return base.allows(v) and base.allows(v + len(c) - 1)

    # -- arithmetic --------------------------------------------------------

    def __add__(self, other):
        check_same_ring(self.ring, other.ring)
        return LaurentPoly.from_entry(self.ring, lincomb(
            ONE, self.entry, ONE, other.entry, self.ring.p))

    def __sub__(self, other):
        check_same_ring(self.ring, other.ring)
        return LaurentPoly.from_entry(self.ring, lincomb(
            ONE, self.entry, MINUS_ONE, other.entry, self.ring.p))

    def __neg__(self):
        return LaurentPoly.from_entry(
            self.ring, scaled(self.entry, -1, self.ring.p))

    def __mul__(self, other):
        check_same_ring(self.ring, other.ring)
        return LaurentPoly.from_entry(self.ring, lincomb(
            self.entry, other.entry, None, None, self.ring.p))

    def scale(self, coeff):
        """coeff * self for an int coefficient, over Q also a Fraction."""
        coeff = self.ring.normalise(coeff)
        return LaurentPoly.from_entry(
            self.ring, scaled(self.entry, coeff, self.ring.p) if coeff
            else None)

    def times_monomial(self, exponent: int, coeff=None):
        """coeff * x^exponent * self (coeff as for ``scale``)."""
        _exponent(exponent)
        out = self if coeff is None else self.scale(coeff)
        if out.entry is None:
            return out
        v, c = out.entry
        return LaurentPoly.from_entry(self.ring, (v + exponent, c))

    # -- units and normal form ----------------------------------------------

    @property
    def is_unit(self) -> bool:
        """Unit of K[x,x^-1]: a single term with unit coefficient."""
        return (self.entry is not None and len(self.entry[1]) == 1
                and self.ring.is_unit(self.entry[1][0]))

    # -- comparisons ---------------------------------------------------------

    def __eq__(self, other):
        if not isinstance(other, LaurentPoly):
            return NotImplemented
        return self.ring == other.ring and self.entry == other.entry

    def __hash__(self):
        if self._hash is None:
            self._hash = hash((self.ring, self.entry))
        return self._hash

    def __bool__(self):
        return self.entry is not None

    def __repr__(self):
        if self.entry is None:
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


def _checked(ring, pairs):
    """The entry of the sum of c x^e over the pairs (e, c): exponents must
    be ints (else ShapeError) and coefficients ints, over Q also Fractions
    (else UnsupportedRingError, from ``CoefficientRing.normalise``)."""
    terms = [(e if type(e) is int else _exponent(e), ring.normalise(c))
             for e, c in pairs]
    return from_terms(terms, ring.p)
