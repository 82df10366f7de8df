"""Dense matrices of Laurent polynomials and sparse matrices of scalars.

Laurent matrices carry a base-ring tag; every entry must respect the tag's
exponent constraint.  Their storage is dense row-major, suitable for the
desk-scale sizes this package targets.  Scalar matrices over K store sparse
rows and carry the one exact rank kernel, ``scalar_rank``.
"""

from __future__ import annotations

from math import gcd, lcm

from .errors import BaseRingViolationError, ShapeError
from .laurent import BaseRing, LaurentPoly, exact_div
from .scalars import CoefficientRing, check_same_ring


class LaurentMatrix:
    """Immutable rows x cols matrix over K[x,x^-1] (or a sub base ring)."""

    __slots__ = ("ring", "base", "rows", "cols", "entries")

    def __init__(self, ring: CoefficientRing, rows: int, cols: int,
                 entries, base: BaseRing = BaseRing.LAURENT, check=True):
        if rows < 0 or cols < 0:
            raise ShapeError("negative matrix dimensions")
        self.ring = ring
        self.base = base
        self.rows = rows
        self.cols = cols
        if len(entries) != rows or any(len(r) != cols for r in entries):
            raise ShapeError(
                f"entry grid does not match shape {rows}x{cols}"
            )
        self.entries = tuple(tuple(row) for row in entries)
        if check:
            self.check_base(base)

    # -- constructors ---------------------------------------------------

    @classmethod
    def zero(cls, ring, rows, cols, base=BaseRing.LAURENT):
        z = LaurentPoly.zero(ring)
        return cls(ring, rows, cols, [[z] * cols for _ in range(rows)],
                   base, check=False)

    @classmethod
    def identity(cls, ring, n, base=BaseRing.LAURENT):
        one = LaurentPoly.one(ring)
        z = LaurentPoly.zero(ring)
        return cls(ring, n, n,
                   [[one if i == j else z for j in range(n)] for i in range(n)],
                   base, check=False)

    @classmethod
    def scalar_diag(cls, ring, polys, base=BaseRing.LAURENT):
        n = len(polys)
        z = LaurentPoly.zero(ring)
        return cls(ring, n, n,
                   [[polys[i] if i == j else z for j in range(n)]
                    for i in range(n)], base)

    @classmethod
    def block(cls, ring, grid, base=BaseRing.LAURENT):
        """Assemble from a 2d grid of LaurentMatrix blocks."""
        row_heights = [grid[i][0].rows for i in range(len(grid))]
        col_widths = [grid[0][j].cols for j in range(len(grid[0]))]
        for i, brow in enumerate(grid):
            for j, b in enumerate(brow):
                if b.rows != row_heights[i] or b.cols != col_widths[j]:
                    raise ShapeError("ragged block grid")
        entries = []
        for i, brow in enumerate(grid):
            for r in range(row_heights[i]):
                entries.append(
                    [b.entries[r][c] for b in brow for c in range(b.cols)]
                )
        return cls(ring, sum(row_heights), sum(col_widths), entries, base)

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

    @property
    def is_identity(self) -> bool:
        """Square with ones on the diagonal and zeros elsewhere (a scan of
        the entries; no comparison matrix is built)."""
        return self.is_square and all(
            p.is_one if i == j else p.is_zero
            for i, row in enumerate(self.entries)
            for j, p in enumerate(row))

    def nonzero_entries(self):
        for i, row in enumerate(self.entries):
            for j, p in enumerate(row):
                if not p.is_zero:
                    yield i, j, p

    def global_maxdeg(self):
        """Largest exponent among all entries; None for the zero matrix."""
        degs = [p.maxdeg for _, _, p in self.nonzero_entries()]
        return max(degs) if degs else None

    def global_mindeg(self):
        degs = [p.mindeg for _, _, p in self.nonzero_entries()]
        return min(degs) if degs else None

    # -- arithmetic ---------------------------------------------------------

    def _same_shape(self, other):
        if self.rows != other.rows or self.cols != other.cols:
            raise ShapeError(
                f"shape mismatch {self.rows}x{self.cols} vs "
                f"{other.rows}x{other.cols}"
            )

    def __add__(self, other):
        self._same_shape(other)
        base = self.base if self.base == other.base else BaseRing.LAURENT
        return LaurentMatrix(
            self.ring, self.rows, self.cols,
            [[self.entries[i][j] + other.entries[i][j]
              for j in range(self.cols)] for i in range(self.rows)],
            base, check=False)

    def __sub__(self, other):
        return self + (-other)

    def __neg__(self):
        return self.map_entries(lambda p: -p)

    def __matmul__(self, other):
        if self.cols != other.rows:
            raise ShapeError(
                f"cannot multiply {self.rows}x{self.cols} by "
                f"{other.rows}x{other.cols}"
            )
        check_same_ring(self.ring, other.ring)
        z = LaurentPoly.zero(self.ring)
        out = []
        for i in range(self.rows):
            row = []
            for j in range(other.cols):
                acc = z
                for k in range(self.cols):
                    a = self.entries[i][k]
                    b = other.entries[k][j]
                    if not (a.is_zero or b.is_zero):
                        acc = acc + a * b
                row.append(acc)
            out.append(row)
        base = self.base if self.base == other.base else BaseRing.LAURENT
        return LaurentMatrix(self.ring, self.rows, other.cols, out,
                             base, check=False)

    def map_entries(self, fn, base=None):
        return LaurentMatrix(
            self.ring, self.rows, self.cols,
            [[fn(p) for p in row] for row in self.entries],
            base if base is not None else self.base, check=False)

    def times_monomial(self, exponent: int):
        return self.map_entries(
            lambda p: p.times_monomial(exponent), base=BaseRing.LAURENT)

    def monomial_row_scale(self, exponents):
        """Multiply row i by x^exponents[i]."""
        if len(exponents) != self.rows:
            raise ShapeError("row exponent list has wrong length")
        return LaurentMatrix(
            self.ring, self.rows, self.cols,
            [[p.times_monomial(exponents[i]) for p in row]
             for i, row in enumerate(self.entries)],
            BaseRing.LAURENT, check=False)

    def monomial_col_scale(self, exponents):
        """Multiply column j by x^exponents[j]."""
        if len(exponents) != self.cols:
            raise ShapeError("column exponent list has wrong length")
        return LaurentMatrix(
            self.ring, self.rows, self.cols,
            [[p.times_monomial(exponents[j]) for j, p in enumerate(row)]
             for row in self.entries],
            BaseRing.LAURENT, check=False)

    def check_base(self, base: BaseRing):
        """Raise unless every entry is over this ring and respects ``base``."""
        for i, row in enumerate(self.entries):
            for j, p in enumerate(row):
                check_same_ring(self.ring, p.ring)
                if not p.respects(base):
                    raise BaseRingViolationError(
                        f"entry ({i},{j}) = {p} violates {base.tag}"
                    )

    def with_base(self, base: BaseRing):
        """Re-tag, re-validating the exponent constraint."""
        self.check_base(base)
        return LaurentMatrix(self.ring, self.rows, self.cols,
                             self.entries, base, check=False)

    def hstack(self, other):
        if self.rows != other.rows:
            raise ShapeError("row counts differ")
        return LaurentMatrix(
            self.ring, self.rows, self.cols + other.cols,
            [list(self.entries[i]) + list(other.entries[i])
             for i in range(self.rows)],
            BaseRing.LAURENT, check=False)

    def submatrix(self, row_idx, col_idx):
        return LaurentMatrix(
            self.ring, len(row_idx), len(col_idx),
            [[self.entries[i][j] for j in col_idx] for i in row_idx],
            self.base, check=False)

    # -- determinant (fraction-free Bareiss) --------------------------------

    def determinant(self) -> LaurentPoly:
        """Exact determinant via Bareiss elimination.

        Works over any of the supported coefficient rings; all divisions
        are exact by the Bareiss identity.
        """
        if not self.is_square:
            raise ShapeError("determinant of a non-square matrix")
        n = self.rows
        ring = self.ring
        if n == 0:
            return LaurentPoly.one(ring)
        m = [list(row) for row in self.entries]
        sign = 1
        prev = LaurentPoly.one(ring)
        for k in range(n - 1):
            if m[k][k].is_zero:
                for i in range(k + 1, n):
                    if not m[i][k].is_zero:
                        m[k], m[i] = m[i], m[k]
                        sign = -sign
                        break
                else:
                    return LaurentPoly.zero(ring)
            for i in range(k + 1, n):
                for j in range(k + 1, n):
                    num = m[i][j] * m[k][k] - m[i][k] * m[k][j]
                    m[i][j] = exact_div(num, prev)
            prev = m[k][k]
        det = m[n - 1][n - 1]
        return det if sign > 0 else -det

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

    @classmethod
    def from_laurent(cls, m: LaurentMatrix) -> "ScalarMatrix":
        """The constants of ``m``; any other exponent is a ShapeError."""
        data = []
        for row in m.entries:
            out = {}
            for j, p in enumerate(row):
                if p.is_zero:
                    continue
                if p.maxdeg != 0 or p.mindeg != 0:
                    raise ShapeError("scalar matrix of a non-constant matrix")
                out[j] = p.coeff(0)
            data.append(out)
        return cls(m.ring, m.rows, m.cols, data)


def scalar_rank(m: ScalarMatrix) -> int:
    """Rank of ``m`` over the fraction field of its coefficient ring.

    Rows are reduced one at a time against the pivot rows found so far,
    each pivot keyed by its leading (smallest) column, so a banded matrix
    keeps its fill-in inside the band.  Over GF(p) pivots are scaled to a
    leading 1.  Over Q (and Z) each row is first multiplied by the lcm of
    its denominators; elimination is then fraction-free, as in Bareiss
    (1968): cross-multiply by the pivot and divide by the row's content.
    """
    if m.ring.kind == "GF":
        return _rank_mod_p(m.data, m.ring.p)
    return _rank_integer(m.data)


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
