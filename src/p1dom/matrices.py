"""Dense matrices of Laurent polynomials and sparse matrices of scalars.

A Laurent matrix is a grid of entries over K[x,x^-1]; which subring
(K[x], K[x^-1]) a matrix lives over belongs to the complex or chart that
holds it, and is checked there (``ChainComplex.validate``, the
``SheafComplex`` constructor, the file loader).
Storage is dense row-major, suitable for the desk-scale sizes this package
targets; products and the determinant are computed on the entries
(``LaurentPoly.entry``) with the coefficient-list arithmetic of
``polylists``.  Scalar matrices over K store sparse rows and
carry the one exact rank kernel, ``scalar_rank``.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd, lcm, prod

from . import polylists
from .errors import ShapeError
from .laurent import LaurentPoly
from .scalars import CoefficientRing, check_same_ring


class LaurentMatrix:
    """Immutable rows x cols matrix over K[x,x^-1]; its entries are not
    scanned."""

    __slots__ = ("ring", "rows", "cols", "entries")

    def __init__(self, ring: CoefficientRing, rows: int, cols: int, entries):
        if rows < 0 or cols < 0:
            raise ShapeError("negative matrix dimensions")
        self.ring = ring
        self.rows = rows
        self.cols = cols
        if len(entries) != rows or any(len(r) != cols for r in entries):
            raise ShapeError(
                f"entry grid does not match shape {rows}x{cols}"
            )
        self.entries = tuple(tuple(row) for row in entries)

    # -- constructors ---------------------------------------------------

    @classmethod
    def zero(cls, ring, rows, cols):
        z = LaurentPoly.zero(ring)
        return cls(ring, rows, cols, [[z] * cols for _ in range(rows)])

    # -- access -----------------------------------------------------------

    def __getitem__(self, pos):
        i, j = pos
        return self.entries[i][j]

    @property
    def is_zero(self) -> bool:
        return all(p.is_zero for row in self.entries for p in row)

    @property
    def is_square(self) -> bool:
        return self.rows == self.cols

    def nonzero_entries(self):
        for i, row in enumerate(self.entries):
            for j, p in enumerate(row):
                if not p.is_zero:
                    yield i, j, p

    # -- arithmetic ---------------------------------------------------------

    def _same_shape(self, other):
        if self.rows != other.rows or self.cols != other.cols:
            raise ShapeError(
                f"shape mismatch {self.rows}x{self.cols} vs "
                f"{other.rows}x{other.cols}"
            )

    def __add__(self, other):
        self._same_shape(other)
        return LaurentMatrix(
            self.ring, self.rows, self.cols,
            [[self.entries[i][j] + other.entries[i][j]
              for j in range(self.cols)] for i in range(self.rows)])

    def __sub__(self, other):
        return self + (-other)

    def __neg__(self):
        return LaurentMatrix(self.ring, self.rows, self.cols,
                             [[-p for p in row] for row in self.entries])

    def __matmul__(self, other):
        if self.cols != other.rows:
            raise ShapeError(
                f"cannot multiply {self.rows}x{self.cols} by "
                f"{other.rows}x{other.cols}"
            )
        check_same_ring(self.ring, other.ring)
        ring = self.ring
        # with no rows, other still has other.cols (empty) columns
        cols = [[p.entry for p in col] for col in zip(*other.entries)] \
            or [[]] * other.cols
        out = [[LaurentPoly.from_entry(ring, polylists.dot(row, col, ring.p))
                for col in cols]
               for row in ([p.entry for p in row] for row in self.entries)]
        return LaurentMatrix(self.ring, self.rows, other.cols, out)

    # -- determinant (fraction-free Bareiss) --------------------------------

    def determinant(self) -> LaurentPoly:
        """Exact determinant by Bareiss elimination on the entries
        (``polylists.determinant``), over any supported coefficient ring.

        Over Q each row is first cleared of its denominators, and the
        integer determinant is divided by their product.
        """
        if not self.is_square:
            raise ShapeError("determinant of a non-square matrix")
        ring = self.ring
        rows = [[p.entry for p in row] for row in self.entries]
        if ring.kind != "Q":
            return LaurentPoly.from_entry(
                ring, polylists.determinant(rows, ring.p))
        rows = [polylists.cleared(row) for row in rows]
        det = LaurentPoly.from_entry(ring, polylists.determinant(
            [row for _, row in rows], 0))
        # scaling by 1/den also makes the int coefficients Fractions
        return det.scale(Fraction(1, prod(den for den, _ in rows)))

    # -- comparisons -----------------------------------------------------------

    def __eq__(self, other):
        if not isinstance(other, LaurentMatrix):
            return NotImplemented
        return (self.ring == other.ring and self.rows == other.rows
                and self.cols == other.cols and self.entries == other.entries)

    def __hash__(self):
        return hash((self.ring, self.rows, self.cols, self.entries))

    def __repr__(self):
        if self.rows == 0 or self.cols == 0:
            return f"<{self.rows}x{self.cols} empty>"
        body = "; ".join(
            ", ".join(str(p) for p in row) for row in self.entries)
        return f"[{body}]"


class ScalarMatrix:
    """Sparse rows x cols matrix over the coefficient ring K.

    ``data[i]`` is row i as a dict ``{col: value}``; absent columns are
    zero.  Values are exact ring elements (ints for GF(p) and Z, Fractions
    or ints over Q).  Every differential of a ``ScalarComplex`` is one.
    """

    __slots__ = ("ring", "rows", "cols", "data")

    def __init__(self, ring: CoefficientRing, rows: int, cols: int, data):
        if rows < 0 or cols < 0:
            raise ShapeError("negative matrix dimensions")
        if len(data) != rows:
            raise ShapeError(f"{len(data)} row dicts for {rows} rows")
        self.ring = ring
        self.rows = rows
        self.cols = cols
        self.data = data


def scalar_rank(m: ScalarMatrix) -> int:
    """Rank of ``m`` over the fraction field of its coefficient ring.

    The kernel reduces the shorter side: a tall matrix (rows > cols) is
    first transposed into column dicts in one pass over its nonzeros, which
    is exact since rank A = rank A^T and spares reducing every surplus row
    to zero.  Rows are reduced one at a time against the pivot rows found
    so far, each pivot keyed by its leading (smallest) column, so a banded
    matrix keeps its fill-in inside the band.  Over GF(p) pivots are scaled
    to a leading 1.  Over Q (and Z) each row is first multiplied by the lcm
    of its denominators; elimination is then fraction-free, as in Bareiss
    (1968): cross-multiply by the pivot and divide by the row's content.
    """
    data = m.data
    if m.rows > m.cols:
        data = [{} for _ in range(m.cols)]
        for i, row in enumerate(m.data):
            for j, v in row.items():
                data[j][i] = v
    if m.ring.kind == "GF":
        return _rank_mod_p(data, m.ring.p)
    return _rank_integer(data)


def _rank_mod_p(data, p: int) -> int:
    pivots = {}
    for row in data:
        r = {j: v % p for j, v in row.items() if v % p}
        while r:
            lead = min(r)
            prow = pivots.get(lead)
            if prow is None:
                inv = pow(r[lead], -1, p)
                pivots[lead] = {j: v * inv % p for j, v in r.items()}
                break
            f = r[lead]
            # prow leads with 1, so the lead cancels and the next is larger
            for j, v in prow.items():
                nv = (r.get(j, 0) - f * v) % p
                if nv:
                    r[j] = nv
                else:
                    r.pop(j, None)
    return len(pivots)


def _rank_integer(data) -> int:
    pivots = {}
    for row in data:
        den = lcm(*(v.denominator for v in row.values()))
        r = {j: v.numerator * (den // v.denominator)
             for j, v in row.items() if v}
        while r:
            g = gcd(*r.values())
            if g != 1:
                r = {j: v // g for j, v in r.items()}
            lead = min(r)
            prow = pivots.get(lead)
            if prow is None:
                pivots[lead] = r
                break
            a = prow[lead]
            b = r[lead]
            g = gcd(a, b)
            a //= g
            b //= g
            if a != 1:
                r = {j: a * v for j, v in r.items()}
            # a * r - b * prow cancels the lead, so the next one is larger
            for j, v in prow.items():
                nv = r.get(j, 0) - b * v
                if nv:
                    r[j] = nv
                else:
                    r.pop(j, None)
    return len(pivots)
