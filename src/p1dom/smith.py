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
integers over Q, as ``scalar_rank`` does for scalars after Bareiss
(1968).  Each Q column is cleared of denominators once and kept
primitive by its content gcd, divisions are the pseudo-divisions of
``polylists.pseudo_divmod``, and the Bezout cofactors and the gcds of the
invariant factors come from one integer Euclidean algorithm, ``_xgcd``.
Nonzero constants are units of Q[x,x^-1], so none of these scalings
changes a factor or a module.  The factors are returned as entries, their
int coefficients made Fractions over Q.

The echelon form A*V = [H | 0] is reached by column operations and
Bezout 2x2 column transforms only (Kannan-Bachem 1979; Storjohann 2000).
Every transform has a nonzero constant determinant, so V is invertible
over K[x,x^-1]; the tests read a saturated kernel basis and solve
K*X = B off the same echelon form of [A; I].  ``invariant_factors``
keeps no V: it alternates the echelon form of the matrix and of its
transpose, each brought to Hermite form, until the matrix is diagonal,
and then makes the diagonal a divisibility chain; their number is the
rank r.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd

from .errors import UnsupportedRingError
from .matrices import LaurentMatrix
from .polylists import (ONE, divided, exact_quotient, integer_row, lincomb,
                        make_primitive, pseudo_divmod, scaled)
from .scalars import CoefficientRing


def _require_field(a: LaurentMatrix) -> CoefficientRing:
    if not a.ring.is_field:
        raise UnsupportedRingError(
            "K[x,x^-1] is a PID only for field coefficients")
    return a.ring


def _normalised(r, u, v, p):
    """The xgcd triple (r, u, v), r = u*a + v*b, times a unit: x^-val(r),
    and then over GF(p) the inverse of r's lead, so that r is monic; over
    Q the triple is divided by its content instead (a constant that does
    not also divide u and v stays in r)."""
    shift = r[0]
    triple = [(0, r[1])] + [None if e is None else (e[0] - shift, e[1])
                            for e in (u, v)]
    if p:
        inv = pow(r[1][-1], p - 2, p)
        return [scaled(e, inv, p) for e in triple]
    make_primitive(triple, range(3))
    return triple


def _xgcd(a, b, p):
    """(g, u, v) with u*a + v*b = c*g for a nonzero constant c, where g,
    the gcd of the nonzero entries a and b, has valuation 0 and is monic
    over GF(p), primitive with a positive lead over Q.

    The Euclidean algorithm on (r, u, v) triples with r = u*a + v*b,
    every remainder normalised (``_normalised``): shifted to valuation 0,
    and made monic over GF(p) or primitive over Q.  Over Q the division
    is pseudo-division, so every coefficient stays an integer.
    """
    r0, u0, v0 = a, ONE, None
    r1, u1, v1 = _normalised(b, None, ONE, p)
    while True:
        m, q, r2 = pseudo_divmod(r0, r1, p)
        if r2 is None:
            break
        # r2 = m*r0 - q*r1
        f, nq = (0, [m]), scaled(q, -1, p)
        u2, v2 = lincomb(f, u0, nq, u1, p), lincomb(f, v0, nq, v1, p)
        r0, u0, v0 = r1, u1, v1
        r1, u1, v1 = _normalised(r2, u2, v2, p)
    if not p:
        content = gcd(*r1[1])
        r1 = divided(r1, content if r1[1][-1] > 0 else -content)
    return r1, u1, v1


def _bezout(pivot, e, p):
    """Rows of a 2x2 transform taking (pivot, e) to (c*g, 0), with g their
    gcd (``_xgcd``) and c and the determinant nonzero constants: (u, v)
    and (-e/g, pivot/g), each up to a constant factor."""
    g, u, v = _xgcd(pivot, e, p)
    # over Q g is primitive and divides pivot and e over Z (Gauss's
    # lemma), so both divisions below have m = 1
    m_e, e_g, _ = pseudo_divmod(e, g, p)
    m_p, pivot_g, _ = pseudo_divmod(pivot, g, p)
    # m_e*e = e_g*g and m_p*pivot = pivot_g*g
    return u, v, scaled(e_g, -m_p, p), scaled(pivot_g, m_e, p)


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
    in their first ``rows`` entries.  Each row takes one pass: the column
    of least core degree in that row (the first on a tie) becomes the
    pivot column, and every later column is cleared by a
    (pseudo-)division or, when the pivot does not divide, by a Bezout 2x2
    column transform.  Every transform acts on whole columns and has a
    nonzero constant determinant.  The columns from r on are zero above
    row i and a cleared column is zero in row i, so a transform computes
    only the rows after those.
    """
    n = len(columns)
    pivots = []
    for i in range(rows):
        r = len(pivots)
        best = None
        for j in range(r, n):
            e = columns[j][i]
            if e is not None and (best is None or len(e[1]) < size):
                best, size = j, len(e[1])
        if best is None:
            continue
        columns[r], columns[best] = columns[best], columns[r]
        for j in range(r + 1, n):
            e, pivot = columns[j][i], columns[r][i]
            if e is None:
                continue
            m, q, rem = pseudo_divmod(e, pivot, p)
            if rem is None:
                columns[j] = _combine((0, [m]), columns[j], scaled(q, -1, p),
                                      columns[r], p, [None] * (i + 1))
                continue
            u, v, ne, pg = _bezout(pivot, e, p)
            x, y = columns[r], columns[j]
            columns[r] = _combine(u, x, v, y, p, [None] * i)
            columns[j] = _combine(ne, x, pg, y, p, [None] * (i + 1))
        pivots.append(i)
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
    chain by the pairwise rule (d_s, d_t) -> (gcd, lcm), with gcds from
    ``_xgcd``, the one Euclidean loop, which also gives the echelon's
    Bezout transforms.  Each factor is monic with zero valuation, so a
    unit factor is the constant 1.  Z coefficients are rejected;
    Z[x,x^-1] is not a PID.
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
    cores = [columns[t][i][1] for t, i in enumerate(pivots)]
    for s in range(len(cores)):
        for t in range(s + 1, len(cores)):
            if len(cores[s]) > 1:
                g = _xgcd((0, cores[s]), (0, cores[t]), p)[0]
                lcm = lincomb(exact_quotient((0, cores[s]), g, p),
                              (0, cores[t]), None, None, p)
                cores[s], cores[t] = g[1], lcm[1]
    return tuple([_factor(a.ring, core) for core in cores])
