"""Laurent polynomials in one variable with exact coefficients.

A polynomial stores exactly its ``polylists`` entry, ``entry``: None for
zero, or (v, c) for x^v * (c[0] + c[1] x + ... + c[n] x^n), c a tuple of
canonical coefficients with c[0] and c[-1] nonzero (a zero inside may be
the int 0).  Storage is dense over the exponent span, the working form of
every kernel; file input bounds the span by ``fileformat.MAX_EXPONENT``.
A matrix stores bare entries, so a polynomial is the boundary form: a
cell read as ``d[i, j]``, the Z two-term determinant, an invariant factor,
a message.
It has no arithmetic: every kernel works on the entries with
``polylists``, and the sums and products of polynomials that the tests
form are functions of ``tests/helpers.py`` (``polyadd``, ``polymul``).
The four base rings K, K[x], K[x^-1] and K[x,x^-1] are tags restricting
which exponents a value may use (``BaseRing.admits`` reads an entry's
ends); the kernels always compute in the full Laurent ring.
"""

from __future__ import annotations

from enum import Enum

from .errors import ShapeError
from .polylists import from_terms
from .scalars import CoefficientRing


class BaseRing(Enum):
    """Exponent constraint tags for the polynomial base rings over K."""

    K = "K"
    POLY = "K[x]"
    POLY_INV = "K[x^-1]"
    LAURENT = "K[x,x^-1]"

    def admits(self, entry) -> bool:
        """Whether the ``polylists`` entry uses only exponents this ring
        allows; each base ring allows an interval, so its ends decide."""
        if entry is None or self is BaseRing.LAURENT:
            return True
        lo, hi = entry[0], entry[0] + len(entry[1]) - 1
        if self is BaseRing.K:
            return lo == hi == 0
        return lo >= 0 if self is BaseRing.POLY else hi <= 0

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
    def one(cls, ring):
        return cls.from_entry(ring, (0, (ring.one(),)))

    # -- canonical data ----------------------------------------------------

    @property
    def is_zero(self) -> bool:
        return self.entry is None

    def items(self):
        """Sorted (exponent, coefficient) pairs, exponents ascending."""
        v, c = self.entry or (0, ())
        return [(v + k, x) for k, x in enumerate(c) if x]

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
