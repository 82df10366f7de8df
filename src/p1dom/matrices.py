"""Sparse matrices over K[x,x^-1] and over K.

Both store ``data[i]``, row i as a dict ``{col: value}`` of its nonzero
values.  A Laurent matrix holds ``polylists`` entries (v, c), c a tuple,
columns ascending, which every producer builds and every kernel reads as
is; ``laurent.render`` prints one for a message.  Which subring (K[x],
K[x^-1]) it lives over is checked by the complex or chart that holds it
(``ChainComplex.validate``, the ``SheafComplex`` constructor, the file
loader).  The library forms no sum or product of
Laurent matrices or of their cells, and takes its one determinant off the
chart elimination (``domination._determinant``), so neither has
arithmetic: the sums, negations, products and Bareiss determinants that
the tests' oracles form are functions of ``tests/helpers.py``.  A scalar
matrix holds ring elements and carries the one exact rank kernel,
``scalar_rank``.
"""

from __future__ import annotations

from math import gcd, lcm

from .errors import ShapeError
from .laurent import render
from .scalars import CoefficientRing


class _Rows:
    """rows x cols matrix of sparse rows, of which only the keys are read."""

    __slots__ = ("ring", "rows", "cols", "data")

    def __init__(self, ring: CoefficientRing, rows: int, cols: int, data):
        if rows < 0 or cols < 0:
            raise ShapeError("negative matrix dimensions")
        if len(data) != rows:
            raise ShapeError(f"{len(data)} row dicts for {rows} rows")
        for i, row in enumerate(data):
            for j in row:
                if type(j) is not int or not 0 <= j < cols:
                    raise ShapeError(
                        f"row {i} has column {j!r} outside 0..{cols - 1}")
        self.ring = ring
        self.rows = rows
        self.cols = cols
        self.data = data

    @classmethod
    def _stored(cls, ring, rows: int, cols: int, data):
        """The matrix of ``data``, which the caller has built in shape:
        ``rows`` dicts keyed by ints in 0..cols - 1, in ascending order,
        of canonical nonzero values.  Only stores them, with none of the
        constructor's scans; each caller proves the shape where it
        builds the rows (``generators._conjugated``, the file loader's
        ``matrix_from_rows``, ``sheaves.cech_complex``)."""
        m = object.__new__(cls)
        m.ring = ring
        m.rows = rows
        m.cols = cols
        m.data = data
        return m


class LaurentMatrix(_Rows):
    """Matrix over K[x,x^-1] (see the module docstring); nothing changes
    its rows once built, but they are dicts, so it is not hashable."""

    __slots__ = ()

    @classmethod
    def zero(cls, ring, rows, cols):
        return cls(ring, rows, cols, [{} for _ in range(rows)])

    @property
    def is_zero(self) -> bool:
        return not any(self.data)

    # -- comparisons -----------------------------------------------------------

    def __eq__(self, other):
        if not isinstance(other, LaurentMatrix):
            return NotImplemented
        return (self.ring == other.ring and self.rows == other.rows
                and self.cols == other.cols
                and all(a == b for a, b in zip(self.data, other.data)))

    def __repr__(self):
        if self.rows == 0 or self.cols == 0:
            return f"<{self.rows}x{self.cols} empty>"
        return "[" + "; ".join(
            ", ".join(render(self.ring, row.get(j)) for j in range(self.cols))
            for row in self.data) + "]"


class ScalarMatrix(_Rows):
    """Matrix over K of exact ring elements (ints for GF(p) and Z,
    Fractions or ints over Q): every differential of a ``ScalarComplex``.
    """

    __slots__ = ()


def scalar_rank(m: ScalarMatrix) -> int:
    """Rank of ``m`` over the fraction field of its coefficient ring.

    The kernel reads only the nonempty rows, so a matrix with no nonzero
    entry has rank 0 at once, and reduces the shorter side: a matrix with
    more nonempty rows than columns is first transposed into its nonempty
    column dicts in one pass over its nonzeros, which is exact since
    rank A = rank A^T and spares reducing every surplus row to zero.  Rows
    are reduced one at a time against the pivot rows found so far, each
    pivot keyed by its leading (smallest) column, so a banded matrix keeps
    its fill-in inside the band.  Over GF(p) pivots are scaled
    to a leading 1.  Over Q (and Z) each row is first multiplied by the lcm
    of its denominators; elimination is then fraction-free, as in Bareiss
    (1968): cross-multiply by the pivot and divide by the row's content.
    """
    data = [row for row in m.data if row]
    if not data:
        return 0
    if len(data) > m.cols:
        cols = [{} for _ in range(m.cols)]
        for i, row in enumerate(data):
            for j, v in row.items():
                cols[j][i] = v
        data = [col for col in cols if col]
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
