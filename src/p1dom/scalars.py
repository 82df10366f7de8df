"""Exact scalar arithmetic over the supported coefficient rings.

Three rings are available: the rationals (elements are ``fractions.Fraction``,
always reduced with positive denominator), the prime fields GF(p) (elements
are ints in ``[0, p)``) and the integers (plain ints).  No floating point
appears anywhere in this package.

A GF modulus above MAX_MODULUS is refused before any primality work, and
trial division, exact for every n, tests one up to it.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from math import isqrt

from .errors import UnsupportedRingError, shown

# the largest GF modulus: at most 32768 trial divisions test it, once
MAX_MODULUS = 2**32 - 1
# coefficient strings and ring moduli; unlike int(), [0-9] is ASCII only
_DECIMAL = re.compile(r"-?[0-9]+")
_FRACTION = re.compile(r"-?[0-9]+/[0-9]+")
_MODULUS = re.compile(r"GF\(([0-9]+)\)")


def _is_prime(n: int) -> bool:
    """Trial division by 2 and by the odd d <= isqrt(n): exact for every
    n, and meant for n <= MAX_MODULUS."""
    if n < 2:
        return False
    if n % 2 == 0:
        return n == 2
    return all(n % d for d in range(3, isqrt(n) + 1, 2))


@dataclass(frozen=True)
class CoefficientRing:
    """Tag object bundling the arithmetic of one coefficient ring.

    ``kind`` is one of ``"Q"``, ``"GF"``, ``"Z"``; ``p`` is the modulus for
    GF(p) and 0 otherwise.  Elements are plain Python values (Fraction or
    int); the ring object makes, parses and renders them.
    """

    kind: str
    p: int = 0

    def __post_init__(self):
        if self.kind not in ("Q", "GF", "Z"):
            raise UnsupportedRingError(f"unknown ring kind {self.kind!r}")
        if self.kind == "GF":
            if self.p > MAX_MODULUS:  # the modulus is not echoed
                raise UnsupportedRingError(
                    f"GF modulus exceeds MAX_MODULUS = {MAX_MODULUS}")
            if not _is_prime(self.p):
                raise UnsupportedRingError(f"GF modulus {self.p} is not prime")
        elif self.p != 0:
            raise UnsupportedRingError("modulus only allowed for GF rings")

    # -- structure -------------------------------------------------------

    @property
    def is_field(self) -> bool:
        return self.kind != "Z"

    @property
    def tag(self) -> str:
        if self.kind == "GF":
            return f"GF({self.p})"
        return self.kind

    def __repr__(self):
        return self.tag

    # -- element constructors -------------------------------------------

    def one(self):
        return Fraction(1) if self.kind == "Q" else 1

    def from_int(self, n: int):
        if self.kind == "Q":
            return Fraction(n)
        if self.kind == "GF":
            return n % self.p
        return int(n)

    # -- arithmetic ------------------------------------------------------

    def is_unit(self, a) -> bool:
        if self.kind == "Z":
            return a in (1, -1)
        return a != 0

    # -- text form (shared by every file format) -------------------------

    def render(self, a) -> str:
        if self.kind == "Q":
            if a.denominator == 1:
                return str(a.numerator)
            return f"{a.numerator}/{a.denominator}"
        return str(a)

    def parse(self, text: str):
        """The element written ``text``: ASCII decimal ``-?[0-9]+``, over Q
        also ``-?[0-9]+/[0-9]+``; nothing else, not even whitespace."""
        try:
            if _DECIMAL.fullmatch(text):
                return self.from_int(int(text))
            if self.kind == "Q" and _FRACTION.fullmatch(text):
                return Fraction(text)
        except (ValueError, ZeroDivisionError):
            pass  # past Python's digit limit, or a zero denominator
        raise UnsupportedRingError(
            f"cannot parse {shown(text)} as an element of {self.tag}")


QQ = CoefficientRing("Q")
ZZ = CoefficientRing("Z")


@lru_cache(maxsize=64)  # a modulus seen before is not tested again
def GF(p: int) -> CoefficientRing:
    return CoefficientRing("GF", p)


def ring_from_tag(tag: str) -> CoefficientRing:
    """Parse the ring tags used in file headers: ``Q``, ``Z`` and
    ``GF(p)``, p in ASCII ``[0-9]+`` as in coefficient strings, and
    nothing around them.  A modulus above MAX_MODULUS is refused, one past
    Python's int digit limit too; ``GF`` tests a modulus once, so a tag
    seen before returns the ring built then, and a bad tag raises each
    time.
    """
    if tag == "Q":
        return QQ
    if tag == "Z":
        return ZZ
    modulus = _MODULUS.fullmatch(tag)
    if modulus:
        try:
            p = int(modulus[1])
        except ValueError:  # past Python's digit limit, far past the bound
            p = MAX_MODULUS + 1
        return GF(p)
    raise UnsupportedRingError(f"unknown ring tag {shown(tag)}")
