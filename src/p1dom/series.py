"""Truncated formal (Laurent) power series.

A series lives in one of K[[x]], K((x)), K[[x^-1]], K((x^-1)).  Internally
everything is written in the direction variable t (t = x or t = x^-1), as a
window of known coefficients [start, start + width) together with the claim
that all lower-order coefficients are exactly zero.  Operations track the
window honestly: no coefficient outside it is ever asserted.
"""

from __future__ import annotations

from dataclasses import dataclass

from .errors import NotAUnitError, ShapeError, UnsupportedRingError
from .laurent import LaurentPoly
from .scalars import CoefficientRing, check_same_ring


@dataclass(frozen=True)
class SeriesRing:
    """Tag for a truncated-series ring.

    ``direction`` is +1 for series in x and -1 for series in x^-1;
    ``laurent`` allows finitely many negative powers of the direction
    variable (the formal Laurent series rings).
    """

    ring: CoefficientRing
    direction: int
    laurent: bool

    def __post_init__(self):
        if self.direction not in (1, -1):
            raise ShapeError("direction must be +1 or -1")

    @property
    def tag(self) -> str:
        var = "x" if self.direction == 1 else "x^-1"
        return f"K(({var}))" if self.laurent else f"K[[{var}]]"

    def __repr__(self):
        return self.tag.replace("K", self.ring.tag)


def power_series(ring, direction=1) -> SeriesRing:
    return SeriesRing(ring, direction, laurent=False)


def laurent_series(ring, direction=1) -> SeriesRing:
    return SeriesRing(ring, direction, laurent=True)


class TruncatedSeries:
    """A series known exactly on a finite window of t-exponents."""

    __slots__ = ("sring", "start", "coeffs", "lower_exact")

    def __init__(self, sring: SeriesRing, start: int, coeffs,
                 lower_exact: bool = True):
        ring = sring.ring
        coeffs = [ring.normalise(c) for c in coeffs]
        # Trim exact leading zeros so start always points at the first
        # potentially-nonzero coefficient.
        if lower_exact:
            while coeffs and coeffs[0] == 0:
                coeffs.pop(0)
                start += 1
        if not sring.laurent and start < 0:
            if lower_exact and any(c != 0 for c in coeffs[: -start]):
                raise ShapeError(
                    f"negative exponents are not allowed in {sring.tag}")
        self.sring = sring
        self.start = start
        self.coeffs = tuple(coeffs)
        self.lower_exact = lower_exact

    # -- constructors -----------------------------------------------------

    @classmethod
    def from_laurent(cls, poly: LaurentPoly, sring: SeriesRing, order: int):
        """Truncate an exact Laurent polynomial to ``order`` known terms."""
        check_same_ring(poly.ring, sring.ring)
        if order < 1:
            raise ShapeError("truncation order must be >= 1")
        if poly.is_zero:
            return cls(sring, 0, [sring.ring.zero()] * order)
        texp = {(e if sring.direction == 1 else -e): c
                for e, c in poly.items()}
        start = min(texp)
        if start < 0 and not sring.laurent:
            raise ShapeError(
                f"{poly} has negative {sring.tag} exponents")
        window = [texp.get(start + i, sring.ring.zero())
                  for i in range(order)]
        return cls(sring, start, window)

    @classmethod
    def one(cls, sring: SeriesRing, order: int):
        ring = sring.ring
        return cls(sring, 0, [ring.one()] + [ring.zero()] * (order - 1))

    @classmethod
    def zero_window(cls, sring: SeriesRing, order: int):
        return cls(sring, 0, [sring.ring.zero()] * order)

    # -- inspection -------------------------------------------------------

    @property
    def width(self) -> int:
        return len(self.coeffs)

    @property
    def end(self) -> int:
        """First t-exponent beyond the known window."""
        return self.start + len(self.coeffs)

    @property
    def is_zero_on_window(self) -> bool:
        return all(c == 0 for c in self.coeffs)

    @property
    def valuation(self):
        """Exact t-adic valuation, or None if not certified nonzero."""
        if not self.lower_exact or self.is_zero_on_window:
            return None
        return self.start  # leading zeros are trimmed on construction

    def coeff(self, texp: int):
        if texp < self.start:
            if self.lower_exact:
                return self.sring.ring.zero()
            raise ShapeError("coefficient below the known window")
        if texp >= self.end:
            raise ShapeError("coefficient beyond the known window")
        return self.coeffs[texp - self.start]

    def x_terms(self):
        """Known terms as (x-exponent, coefficient) pairs, nonzero only."""
        d = self.sring.direction
        return [(d * (self.start + i), c)
                for i, c in enumerate(self.coeffs) if c != 0]

    # -- arithmetic -------------------------------------------------------

    def _common(self, other):
        if self.sring != other.sring:
            raise UnsupportedRingError(
                f"mixed series rings {self.sring.tag} and {other.sring.tag}")

    def __add__(self, other):
        self._common(other)
        ring = self.sring.ring
        start = min(self.start, other.start)
        end = min(self.end, other.end)
        if end <= start:
            raise ShapeError("series windows do not overlap")
        coeffs = []
        for t in range(start, end):
            a = self.coeffs[t - self.start] if t >= self.start else ring.zero()
            b = other.coeffs[t - other.start] if t >= other.start else ring.zero()
            coeffs.append(ring.add(a, b))
        return TruncatedSeries(self.sring, start, coeffs,
                               self.lower_exact and other.lower_exact)

    def __neg__(self):
        ring = self.sring.ring
        return TruncatedSeries(self.sring, self.start,
                               [ring.neg(c) for c in self.coeffs],
                               self.lower_exact)

    def __sub__(self, other):
        return self + (-other)

    def __mul__(self, other):
        self._common(other)
        ring = self.sring.ring
        width = min(self.width, other.width)
        if width < 1:
            raise ShapeError("empty series window")
        start = self.start + other.start
        out = [ring.zero()] * width
        for i, a in enumerate(self.coeffs):
            if a == 0:
                continue
            for j, b in enumerate(other.coeffs):
                if i + j >= width:
                    break
                if b != 0:
                    out[i + j] = ring.add(out[i + j], ring.mul(a, b))
        return TruncatedSeries(self.sring, start, out,
                               self.lower_exact and other.lower_exact)

    def invert(self):
        """Multiplicative inverse, valid on a window of the same width.

        The lowest exact coefficient must be a unit of the coefficient
        ring; in Z[[x]] / Z((x)) that means +-1.  This NotAUnit signal is
        what the Z-mode Novikov check consumes.
        """
        ring = self.sring.ring
        v = self.valuation
        if v is None:
            raise NotAUnitError(
                "series has no certified nonzero lowest coefficient")
        head = self.coeffs[0]
        if not ring.is_unit(head):
            raise NotAUnitError(
                f"lowest coefficient {ring.render(head)} is not a unit "
                f"of {ring.tag}")
        if v != 0 and not self.sring.laurent:
            raise NotAUnitError(
                f"positive valuation {v}: not invertible in {self.sring.tag}")
        inv0 = ring.invert(head)
        n = self.width
        out = [ring.zero()] * n
        out[0] = inv0
        for k in range(1, n):
            acc = ring.zero()
            for i in range(1, k + 1):
                a = self.coeffs[i]
                if a != 0 and out[k - i] != 0:
                    acc = ring.add(acc, ring.mul(a, out[k - i]))
            out[k] = ring.neg(ring.mul(inv0, acc))
        return TruncatedSeries(self.sring, -v, out, lower_exact=True)

    # -- comparisons -------------------------------------------------------

    def __eq__(self, other):
        if not isinstance(other, TruncatedSeries):
            return NotImplemented
        return (self.sring == other.sring and self.start == other.start
                and self.coeffs == other.coeffs
                and self.lower_exact == other.lower_exact)

    def __hash__(self):
        return hash((self.sring, self.start, self.coeffs, self.lower_exact))

    def __repr__(self):
        var = "x" if self.sring.direction == 1 else "x^-1"
        terms = []
        for i, c in enumerate(self.coeffs):
            if c == 0:
                continue
            e = self.start + i
            cs = self.sring.ring.render(c)
            if e == 0:
                terms.append(cs)
            else:
                terms.append(f"{cs}*{var}^{e}" if cs != "1" else f"{var}^{e}")
        body = " + ".join(terms) if terms else "0"
        return f"{body} + O({var}^{self.end})"

