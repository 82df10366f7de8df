"""Invariant factors over K[x,x^-1] for a field K.

The Laurent ring is a Euclidean PID with norm maxdeg - mindeg (the degree
of the monic core); units are exactly the monomials c*x^n.  Invariant
factors are reported monic with zero x-adic valuation, so torsion
detection reads off the monic cores while unit factors normalise to the
constant 1.

The factors come from one elimination, the column echelon form of
``_echelon``, on the entries of the input's rows, read as is into dense
columns, with the coefficient-list arithmetic of ``polylists``, which the
chart valuations of ``domination`` share: residues mod p over GF(p), and
integers over Q, as the one elimination of ``scalar_rank`` does for
scalars after Bareiss (1968).  Each Q column is cleared of denominators
once and kept primitive by its content gcd, and every division is a
pseudo-division, ``polylists.pseudo_divmod``.  Nonzero constants are
units of Q[x,x^-1], so none of these scalings changes a factor or a
module.  The factors are returned as entries, their int coefficients made
Fractions over Q.

The echelon form A*V = [H | 0] is reached by Euclidean column steps
alone, col_j -> m*col_j - q*col_pivot, and column swaps (Kannan-Bachem
1979; Storjohann 2000).  Each step has the nonzero constant determinant
m, so V is invertible over K[x,x^-1] and no Bezout cofactor is needed;
the tests read a saturated kernel basis and solve K*X = B off the same
echelon form of [A; I].  ``invariant_factors`` keeps no V: it alternates
the echelon form of the matrix and of its transpose, each brought to
Hermite form, until the matrix is diagonal, and then makes the diagonal
a divisibility chain; their number is the rank r.
"""

from __future__ import annotations

from fractions import Fraction

from .errors import UnsupportedRingError
from .matrices import LaurentMatrix
from .polylists import (exact_quotient, integer_row, lincomb, make_primitive,
                        pseudo_divmod, scaled)
from .scalars import CoefficientRing


def _require_field(a: LaurentMatrix) -> CoefficientRing:
    if not a.ring.is_field:
        raise UnsupportedRingError(
            "K[x,x^-1] is a PID only for field coefficients")
    return a.ring


def _combine(f, x, g, y, p, known=()):
    """The column f*x + g*y, made primitive over Q, whose first entries
    are already ``known``: only the rows below them are computed."""
    column = list(known)
    column += [lincomb(f, x[k], g, y[k], p)
               for k in range(len(column), len(x))]
    if not p:
        make_primitive(column, range(len(column)))
    return column


def _echelon(columns, rows, p):
    """Bring the first ``rows`` entries of ``columns`` to column echelon
    form in place, and return the pivot rows.

    Column t < r = len(pivots) then has its first nonzero entry in row
    pivots[t], the pivot rows increase, and the columns from r on are zero
    in their first ``rows`` entries.  Row i is cleared by Euclidean steps
    alone: the column of least core degree in that row (the first on a
    tie) becomes the pivot column, and every other nonzero column j
    becomes m*col_j - q*col_r, m*e = q*pivot + rem the pseudo-division of
    its entry e by the pivot, so that its row-i entry is the remainder.
    The least degree among the columns falls with every step, so the row
    is done when one nonzero entry is left.  A step has the nonzero
    constant determinant m and a swap -1, so the product V of the steps is
    invertible over K[x,x^-1].  The columns from r on are zero above row
    i, so a step computes only the rows below it.
    """
    n = len(columns)
    pivots = []
    for i in range(rows):
        r = len(pivots)
        while True:
            nonzero = [j for j in range(r, n) if columns[j][i] is not None]
            if not nonzero:
                break
            best = min(nonzero, key=lambda j: len(columns[j][i][1]))
            columns[r], columns[best] = columns[best], columns[r]
            if len(nonzero) == 1:
                pivots.append(i)
                break
            pivot = columns[r][i]
            for j in range(r + 1, n):
                e = columns[j][i]
                if e is not None:
                    m, q, rem = pseudo_divmod(e, pivot, p)
                    columns[j] = _combine((0, [m]), columns[j],
                                          scaled(q, -1, p), columns[r], p,
                                          [None] * i + [rem])
    return pivots


def _columns(a: LaurentMatrix, p):
    """The dense columns of ``a``'s entries, None for zero, over Q cleared
    of denominators and primitive."""
    columns = [[row.get(j) for row in a.data] for j in range(a.cols)]
    return columns if p else [integer_row(column) for column in columns]


# -- invariant factors by alternating echelon forms -----------------------


def _factor(ring, core):
    """The monic entry of a core's coefficients."""
    if len(core) == 1:
        return 0, (ring.one(),)
    lead = core[-1]
    if ring.p:
        inv = pow(lead, -1, ring.p)
        return 0, tuple(x * inv % ring.p for x in core)
    if lead == 1:  # integer coefficients: no gcd to take
        return 0, tuple(map(Fraction, core))
    return 0, tuple(Fraction(x, lead) for x in core)


def _reduce(columns, pivots, p):
    """Reduce, from the top pivot row down, each entry left of a pivot
    modulo the pivot, by subtracting a multiple of the pivot column, which
    is zero above its pivot row (the Hermite form of Kannan-Bachem 1979).
    This bounds every entry of a pivot row by its pivot's core degree.
    Above the pivot row the column is only scaled by the pseudo-division's
    multiplier m (1 over GF(p)), and the pivot row takes the remainder."""
    for t, i in enumerate(pivots):
        pivot = columns[t][i]
        for s in range(t):
            e = columns[s][i]
            if e is not None:
                m, q, rem = pseudo_divmod(e, pivot, p)
                if q is not None:
                    above = columns[s][:i]
                    if m != 1:
                        above = [scaled(a, m, p) for a in above]
                    columns[s] = _combine((0, [m]), columns[s],
                                          scaled(q, -1, p), columns[t], p,
                                          above + [rem])


def invariant_factors(a: LaurentMatrix) -> tuple:
    """The invariant factors d_1 | d_2 | ... | d_r of ``a`` over
    K[x,x^-1], r its rank, as ``polylists`` entries.

    ``_echelon`` runs on the matrix and on its transpose in turn
    (Kannan-Bachem 1979) until every column has one nonzero entry.  Each
    pass drops the zero columns and ends in Hermite form (``_reduce``),
    which keeps the next pass from swelling; over Q each transposed
    column is made primitive.  The diagonal then becomes a divisibility
    chain by the pairwise rule (d_s, d_t) -> (gcd, lcm), each gcd the
    pivot of ``_echelon`` on the two entries.  Each factor is monic with
    zero valuation, so a unit factor is the constant 1.  Z coefficients
    are rejected; Z[x,x^-1] is not a PID.
    """
    p = _require_field(a).p
    rows, columns = a.rows, _columns(a, p)
    while True:
        pivots = _echelon(columns, rows, p)
        del columns[len(pivots):]
        _reduce(columns, pivots, p)
        # every column holds its pivot: diagonal when nothing else
        if sum([column.count(None) for column in columns]) == (
                rows - 1) * len(pivots):
            break
        rows = len(columns)
        # the transpose, without its zero columns
        columns = [row for row in map(list, zip(*columns))
                   if row.count(None) < rows]
        if not p:
            for column in columns:
                make_primitive(column, range(rows))
    # over Q each column is primitive, so each pivot is; so are the gcd,
    # the pivot of the echelon form of two entries, and the lcm (Gauss's
    # lemma), and every quotient by a gcd stays over Z
    diagonal = [columns[t][i] for t, i in enumerate(pivots)]
    for s in range(len(diagonal)):
        for t in range(s + 1, len(diagonal)):
            if len(diagonal[s][1]) > 1:
                pair = [[diagonal[s]], [diagonal[t]]]
                _echelon(pair, 1, p)
                g = pair[0][0]
                diagonal[s], diagonal[t] = g, lincomb(
                    exact_quotient(diagonal[s], g, p), diagonal[t], None,
                    None, p)
    return tuple([_factor(a.ring, e[1]) for e in diagonal])
