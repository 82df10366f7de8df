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
``scalar_rank``: one elimination for GF(p), Q and Z, with the modulus p
of ``polylists`` (0 over Q and Z).
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
    rank A = rank A^T and spares reducing every surplus row to zero.

    One elimination serves every ring, in the idiom of ``polylists``: p is
    the modulus over GF(p) and 0 over Q and Z.  A row is taken in as
    residues mod p, or over Q and Z cleared of its denominators.  Rows are
    reduced one at a time against the pivot rows found so far, each pivot
    keyed by its leading (smallest) column, so a banded matrix keeps its
    fill-in inside the band: r -> a*r - b*prow cancels the lead of r.
    Over GF(p) a = 1, and a pivot is scaled to a leading 1 when a row
    first reduces against it, so a pivot that no later row meets costs no
    inverse.  Over Q and Z a and b are the pivot's and the row's leads
    over their gcd, and the row is kept primitive by its content gcd: the
    fraction-free elimination of Bareiss (1968).
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
    p = m.ring.p
    pivots = {}
    for row in data:
        if p:
            r = {j: v % p for j, v in row.items() if v % p}
        else:
            den = lcm(*(v.denominator for v in row.values()))
            r = {j: v.numerator * (den // v.denominator)
                 for j, v in row.items() if v}
        while r:
            if not p:
                g = gcd(*r.values())
                if g != 1:
                    r = {j: v // g for j, v in r.items()}
            lead = min(r)
            prow = pivots.get(lead)
            if prow is None:
                pivots[lead] = r
                break
            a, b = prow[lead], r[lead]
            if not p:
                g = gcd(a, b)
                a, b = a // g, b // g
            elif a != 1:
                inv = pow(a, -1, p)
                prow = pivots[lead] = {j: v * inv % p
                                       for j, v in prow.items()}
                a = 1
            if a != 1:
                r = {j: a * v for j, v in r.items()}
            # a * r - b * prow cancels the lead, so the next one is larger
            for j, v in prow.items():
                nv = (r.get(j, 0) - b * v) % p if p else r.get(j, 0) - b * v
                if nv:
                    r[j] = nv
                else:
                    r.pop(j, None)
    return len(pivots)
