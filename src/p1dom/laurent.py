"""Laurent polynomials in one variable with exact coefficients.

A polynomial is its ``polylists`` entry: None for zero, or (v, c) for
x^v * (c[0] + c[1] x + ... + c[n] x^n), c a tuple of canonical
coefficients with c[0] and c[-1] nonzero (a zero inside may be the int
0).  Storage is dense over the exponent span, the working form of every
kernel; file input bounds the span by ``fileformat.MAX_EXPONENT``.  A
matrix cell, an invariant factor and the Z two-term determinant are all
bare entries, and ``render`` prints one for a report or a message.
Every kernel works on the entries with ``polylists``; the sums and
products of polynomials that the tests form are functions of
``tests/helpers.py`` (``polyadd``, ``polymul``).
The four base rings K, K[x], K[x^-1] and K[x,x^-1] are tags restricting
which exponents a value may use (``BaseRing.admits`` reads an entry's
ends); the kernels always compute in the full Laurent ring.
"""

from __future__ import annotations

from enum import Enum

from .errors import ShapeError, shown
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
        raise ShapeError(f"unknown base ring tag {shown(tag)}") from None


def render(ring: CoefficientRing, entry) -> str:
    """The string of a ``polylists`` entry, as reports and messages print
    it: "0" for zero, else its nonzero terms c*x^e by ascending exponent,
    joined by " + ", each written c for e = 0, c*x for e = 1 and c*x^e
    otherwise, with "1*" left out."""
    if entry is None:
        return "0"
    v, c = entry
    parts = []
    for k, x in enumerate(c):
        if not x:
            continue
        cs, e = ring.render(x), v + k
        if e == 0:
            parts.append(cs)
        elif e == 1:
            parts.append(f"{cs}*x" if cs != "1" else "x")
        else:
            parts.append(f"{cs}*x^{e}" if cs != "1" else f"x^{e}")
    return " + ".join(parts)
