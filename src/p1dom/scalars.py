"""Exact scalar arithmetic over the supported coefficient rings.

Three rings are available: the rationals (elements are ``fractions.Fraction``,
always reduced with positive denominator), the prime fields GF(p) (elements
are ints in ``[0, p)``) and the integers (plain ints).  No floating point
appears anywhere in this package.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache

from .errors import NotAUnitError, RingMismatchError, UnsupportedRingError

# coefficient strings of every file format; unlike int(), [0-9] is ASCII only
_DECIMAL = re.compile(r"-?[0-9]+")
_FRACTION = re.compile(r"-?[0-9]+/[0-9]+")


def _is_prime(n: int) -> bool:
    """Deterministic Miller-Rabin, valid far beyond any practical modulus."""
    if n < 2:
        return False
    for p in (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37):
        if n % p == 0:
            return n == p
    d = n - 1
    r = 0
    while d % 2 == 0:
        d //= 2
        r += 1
    for a in (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37):
        x = pow(a, d, n)
        if x in (1, n - 1):
            continue
        for _ in range(r - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


@dataclass(frozen=True)
class CoefficientRing:
    """Tag object bundling the arithmetic of one coefficient ring.

    ``kind`` is one of ``"Q"``, ``"GF"``, ``"Z"``; ``p`` is the modulus for
    GF(p) and 0 otherwise.  Elements are plain Python values (Fraction or
    int); the ring object normalises, combines and renders them.
    """

    kind: str
    p: int = 0

    def __post_init__(self):
        if self.kind not in ("Q", "GF", "Z"):
            raise UnsupportedRingError(f"unknown ring kind {self.kind!r}")
        if self.kind == "GF":
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

    def zero(self):
        return Fraction(0) if self.kind == "Q" else 0

    def one(self):
        return Fraction(1) if self.kind == "Q" else 1

    def from_int(self, n: int):
        if self.kind == "Q":
            return Fraction(n)
        if self.kind == "GF":
            return n % self.p
        return int(n)

    def normalise(self, value):
        """The canonical representative of an int or, over Q, a Fraction;
        anything else, a float or bool included, is UnsupportedRingError."""
        if type(value) is int:
            return self.from_int(value)
        if self.kind == "Q" and isinstance(value, Fraction):
            return value
        raise UnsupportedRingError(
            f"coefficient {value!r} is not an exact element of {self.tag}")

    # -- arithmetic ------------------------------------------------------

    def add(self, a, b):
        return (a + b) % self.p if self.kind == "GF" else a + b

    def mul(self, a, b):
        return (a * b) % self.p if self.kind == "GF" else a * b

    def is_unit(self, a) -> bool:
        if self.kind == "Z":
            return a in (1, -1)
        return a != 0

    def invert(self, a):
        if not self.is_unit(a):
            raise NotAUnitError(f"{a!r} is not a unit of {self.tag}")
        if self.kind == "Q":
            return Fraction(1) / a
        if self.kind == "GF":
            return pow(a, self.p - 2, self.p)
        return a  # 1 or -1

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
            f"cannot parse {text!r} as an element of {self.tag}")


QQ = CoefficientRing("Q")
ZZ = CoefficientRing("Z")


@lru_cache(maxsize=64)  # a modulus seen before is not tested again
def GF(p: int) -> CoefficientRing:
    return CoefficientRing("GF", p)


@lru_cache(maxsize=64)
def ring_from_tag(tag: str) -> CoefficientRing:
    """Parse the ring tags used in file headers and on the command line.

    Accepts ``Q``, ``Z``, ``GF(p)`` and the CLI spelling ``GF:p``.  A
    ``CoefficientRing`` is frozen, so a tag seen before returns the ring
    built then, with no second primality test; a bad tag raises each time.
    """
    tag = tag.strip()
    if tag == "Q":
        return QQ
    if tag == "Z":
        return ZZ
    if tag.startswith("GF(") and tag.endswith(")"):
        return GF(int(tag[3:-1]))
    if tag.startswith("GF:"):
        return GF(int(tag[3:]))
    raise UnsupportedRingError(f"unknown ring tag {tag!r}")


def check_same_ring(a: CoefficientRing, b: CoefficientRing):
    if a is not b and a != b:
        raise RingMismatchError(f"mixed coefficient rings {a.tag} and {b.tag}")
