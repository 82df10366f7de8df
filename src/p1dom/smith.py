"""Invariant factors and kernels over K[x,x^-1] for a field K.

The Laurent ring is a Euclidean PID with norm maxdeg - mindeg (the degree
of the monic core); units are exactly the monomials c*x^n.  Invariant
factors are reported monic with zero x-adic valuation, so torsion
detection reads off the monic cores while unit factors normalise to the
constant 1.

Both kernels eliminate on plain coefficient lists (``polylists``, whose
arithmetic the chart valuations of ``domination`` share): residues mod p
over GF(p), and integers over Q, as ``scalar_rank`` does for scalars after
Bareiss (1968).  Each Q row or column is cleared of denominators once and
kept primitive by its content gcd, divisions are the pseudo-divisions of
``polylists.pseudo_divmod`` and the Bezout cofactors come from an integer
Euclidean algorithm.  Nonzero
constants are units of Q[x,x^-1], so none of these scalings changes a
factor or a module; ``LaurentPoly`` values are built only for the output.

``invariant_factors`` is a Smith elimination without transforms: a pivot
of least core degree, an entry it divides cleared by one division, a
Bezout 2x2 transform otherwise, and a repair step for the divisibility
chain.  ``kernel_basis`` and ``kernel_coordinates`` need no Smith form.
They run a column echelon (Hermite) reduction A*V = [H | 0] by column
operations and Bezout 2x2 column transforms only (Kannan-Bachem 1979;
Storjohann 2000).  Every transform has a nonzero constant determinant,
so V is invertible over K[x,x^-1]: the last n - r columns of V are a
basis of ker A, and a saturated one, and K*X = B is solved by forward
substitution on the echelon form of K, each step one division of
coefficient lists.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd

from .errors import ShapeError, UnsupportedRingError
from .laurent import LaurentPoly
from .matrices import LaurentMatrix, ScalarMatrix, scalar_rank
from .polylists import (ONE, cleared, divided, from_laurent, integer_row,
                        lincomb, make_primitive, pseudo_divmod, scaled,
                        to_laurent)
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


def _bezout(pivot, e, p):
    """Rows of a 2x2 transform taking (pivot, e) to (c*g, 0), with g their
    gcd and c and the determinant nonzero constants: (u, v) and (-e/g,
    pivot/g), each up to a constant factor.

    (u, v) comes from the Euclidean algorithm on (r, u, v) triples with
    r = u*pivot + v*e, every remainder normalised (``_normalised``): shifted
    to valuation 0, and made monic over GF(p) or primitive over Q.  Over Q
    the division is pseudo-division, so every coefficient stays an
    integer.
    """
    r0, u0, v0 = pivot, ONE, None
    r1, u1, v1 = _normalised(e, None, ONE, p)
    while True:
        m, q, r2 = pseudo_divmod(r0, r1, p)
        if r2 is None:
            break
        # r2 = m*r0 - q*r1
        f, nq = (0, [m]), scaled(q, -1, p)
        u2, v2 = lincomb(f, u0, nq, u1, p), lincomb(f, v0, nq, v1, p)
        r0, u0, v0 = r1, u1, v1
        r1, u1, v1 = _normalised(r2, u2, v2, p)
    g = r1
    if not p:
        # primitive with a positive lead, g divides pivot and e over Z
        # (Gauss's lemma), so both divisions below have m = 1
        content = gcd(*g[1])
        g = divided(g, content if g[1][-1] > 0 else -content)
    m_e, e_g, _ = pseudo_divmod(e, g, p)
    m_p, pivot_g, _ = pseudo_divmod(pivot, g, p)
    # m_e*e = e_g*g and m_p*pivot = pivot_g*g
    return u1, v1, scaled(e_g, -m_p, p), scaled(pivot_g, m_e, p)


def _factor(ring, core):
    """The monic LaurentPoly of a core's coefficients."""
    if len(core) == 1:
        return LaurentPoly.one(ring)
    lead = core[-1]
    if ring.p:
        inv = pow(lead, ring.p - 2, ring.p)
        return LaurentPoly(ring, {k: x * inv for k, x in enumerate(core)})
    return LaurentPoly(ring, {k: Fraction(x, lead)
                              for k, x in enumerate(core)})


def invariant_factors(a: LaurentMatrix) -> tuple:
    """The invariant factors d_1 | d_2 | ... | d_r of ``a`` over
    K[x,x^-1], r its rank.

    A Smith elimination without transforms on coefficient lists (see the
    module docstring).  Only the factors are built as ``LaurentPoly``,
    each monic with zero valuation, so a unit factor is the constant 1.
    Z coefficients are rejected; Z[x,x^-1] is not a PID.
    """
    ring = _require_field(a)
    p = ring.p
    rows, cols = a.rows, a.cols
    s = [[from_laurent(poly) for poly in row] for row in a.entries]
    if not p:
        s = [integer_row(row) for row in s]

    def tidy_row(i, t):
        if not p:
            make_primitive(s[i], range(t, cols))

    def tidy_col(j, t):
        if not p:
            column = [row[j] for row in s]
            make_primitive(column, range(t, rows))
            for i in range(t, rows):
                s[i][j] = column[i]

    def find_pivot(t):
        best = None
        for i in range(t, rows):
            row = s[i]
            for j in range(t, cols):
                e = row[j]
                if e is not None and (best is None or len(e[1]) < best[0]):
                    best = len(e[1]), i, j
        return best

    def clear_row_entry(i, t):
        e = s[i][t]
        if e is None:
            return
        ri, rt = s[i], s[t]
        m, q, r = pseudo_divmod(e, rt[t], p)
        if r is None:
            f, nq = (0, [m]), scaled(q, -1, p)
            for j in range(t + 1, cols):
                ri[j] = lincomb(f, ri[j], nq, rt[j], p)
            ri[t] = None
            tidy_row(i, t)
            return
        u, v, ne, pg = _bezout(rt[t], e, p)
        for j in range(t, cols):
            x, y = rt[j], ri[j]
            rt[j] = lincomb(u, x, v, y, p)
            ri[j] = lincomb(ne, x, pg, y, p)
        tidy_row(t, t)
        tidy_row(i, t)

    def clear_col_entry(j, t):
        """Zero s[t][j]; True when a Bezout transform replaced the pivot
        (strictly smaller core degree)."""
        e = s[t][j]
        if e is None:
            return False
        m, q, r = pseudo_divmod(e, s[t][t], p)
        if r is None:
            f, nq = (0, [m]), scaled(q, -1, p)
            for i in range(t + 1, rows):
                row = s[i]
                row[j] = lincomb(f, row[j], nq, row[t], p)
            s[t][j] = None
            tidy_col(j, t)
            return False
        u, v, ne, pg = _bezout(s[t][t], e, p)
        for i in range(t, rows):
            row = s[i]
            x, y = row[t], row[j]
            row[t] = lincomb(u, x, v, y, p)
            row[j] = lincomb(ne, x, pg, y, p)
        tidy_col(t, t)
        tidy_col(j, t)
        return True

    def chain_breaker(t):
        """A row below t with an entry the pivot does not divide."""
        pivot = s[t][t]
        for i in range(t + 1, rows):
            for e in s[i][t + 1:]:
                if (e is not None
                        and pseudo_divmod(e, pivot, p)[2] is not None):
                    return i
        return None

    factors = []
    t = 0
    while t < min(rows, cols):
        best = find_pivot(t)
        if best is None:
            break
        while True:
            _, pi, pj = best
            if pi != t:
                s[t], s[pi] = s[pi], s[t]
            if pj != t:
                for row in s:
                    row[t], row[pj] = row[pj], row[t]
            for i in range(t + 1, rows):
                clear_row_entry(i, t)
            disturbed = False
            for j in range(t + 1, cols):
                disturbed = clear_col_entry(j, t) or disturbed
            if not disturbed and len(s[t][t][1]) > 1:
                bad = chain_breaker(t)
                if bad is not None:
                    rt, rb = s[t], s[bad]
                    for j in range(t + 1, cols):
                        rt[j] = lincomb(ONE, rt[j], ONE, rb[j], p)
                    tidy_row(t, t)
                    disturbed = True
            if not disturbed:
                break
            # the pivot's core degree strictly dropped, or a row the pivot
            # does not divide was added to the pivot row
            best = find_pivot(t)
        factors.append(_factor(ring, s[t][t][1]))
        t += 1
    return tuple(factors)


# -- kernels by column echelon form -----------------------------------------


def _combine(f, x, g, y, p):
    """The column f*x + g*y, made primitive over Q."""
    column = [lincomb(f, s, g, t, p) for s, t in zip(x, y)]
    if not p:
        make_primitive(column, range(len(column)))
    return column


def _column_echelon(a: LaurentMatrix):
    """Columns of a*V stacked on V, and the pivot rows of a*V.

    a*V is in column echelon form: column t < r = len(pivots) has its
    first nonzero entry in row pivots[t], the pivot rows increase, and the
    columns from r on are zero.  V is invertible over K[x,x^-1].  Each row
    of a takes one pass: the column of least core degree in that row
    becomes the pivot column, and every later column is cleared by a
    (pseudo-)division or, when the pivot does not divide, by a Bezout 2x2
    column transform.
    """
    p = _require_field(a).p
    rows, n = a.rows, a.cols
    columns = []
    for j in range(n):
        column = [from_laurent(row[j]) for row in a.entries] + [None] * n
        column[rows + j] = ONE
        columns.append(column if p else integer_row(column))
    pivots = []
    for i in range(rows):
        r = len(pivots)
        live = [j for j in range(r, n) if columns[j][i] is not None]
        if not live:
            continue
        best = min(live, key=lambda j: len(columns[j][i][1]))
        columns[r], columns[best] = columns[best], columns[r]
        for j in range(r + 1, n):
            e, pivot = columns[j][i], columns[r][i]
            if e is None:
                continue
            m, q, rem = pseudo_divmod(e, pivot, p)
            if rem is None:
                columns[j] = _combine((0, [m]), columns[j],
                                      scaled(q, -1, p), columns[r], p)
                continue
            u, v, ne, pg = _bezout(pivot, e, p)
            x, y = columns[r], columns[j]
            columns[r] = _combine(u, x, v, y, p)
            columns[j] = _combine(ne, x, pg, y, p)
        pivots.append(i)
    return columns, pivots


def kernel_basis(a: LaurentMatrix) -> LaurentMatrix:
    """Columns forming a basis of ker(a) over K[x,x^-1]: the last n - r
    columns of V in a*V = [H | 0].  They span a direct summand."""
    columns, pivots = _column_echelon(a)
    kernel = columns[len(pivots):]
    return LaurentMatrix(a.ring, a.cols, len(kernel), [
        [to_laurent(a.ring, column[a.rows + i]) for column in kernel]
        for i in range(a.cols)], check=False)


def kernel_coordinates(k: LaurentMatrix, b: LaurentMatrix) -> LaurentMatrix:
    """X with k @ X == b.

    With k*V = [H | 0] in column echelon form, H*Y = b is solved row by
    row: a pivot row fixes the next entry of Y by one exact division of
    coefficient lists (over Q, of the remainder cleared of denominators by
    the integer pivot, scaled back afterwards), any other row must already
    hold.  Then X = V*Y.  Raises ShapeError naming the first column of b
    that is not in the span of k's columns.
    """
    if b.rows != k.rows:
        raise ShapeError(f"cannot solve a {k.rows}-row system for "
                         f"{b.rows} rows")
    ring = k.ring
    columns, pivots = _column_echelon(k)
    r = len(pivots)
    h = [[to_laurent(ring, column[i]) for column in columns[:r]]
         for i in range(k.rows)]
    solution = []
    for j in range(b.cols):
        y = []
        for i, h_row in enumerate(h):
            rest = b.entries[i][j]
            for coefficient, value in zip(h_row, y):
                if not coefficient.is_zero:
                    rest = rest - coefficient * value
            t = len(y)
            if t < r and pivots[t] == i:
                if rest.is_zero:
                    y.append(rest)
                    continue
                den, (e,) = cleared([from_laurent(rest)])
                m, q, remainder = pseudo_divmod(e, columns[t][i], ring.p)
                if remainder is None:
                    # m*den*rest = q*pivot
                    q = to_laurent(ring, q)
                    y.append(q if m * den == 1 else q.scale(
                        Fraction(1, m * den)))
                    continue
            elif rest.is_zero:
                continue
            raise ShapeError(
                f"column {j} is not in the span of the matrix columns")
        solution.append(y)
    v = LaurentMatrix(ring, k.cols, r, [
        [to_laurent(ring, column[k.rows + i]) for column in columns[:r]]
        for i in range(k.cols)], check=False)
    return v @ LaurentMatrix(ring, r, b.cols,
                             [[solution[j][t] for j in range(b.cols)]
                              for t in range(r)], check=False)


def matrix_rank(a: LaurentMatrix) -> int:
    """Rank over the fraction field of K[x,x^-1]."""
    if a.rows == 0 or a.cols == 0:
        return 0
    degs = {p.maxdeg for _, _, p in a.nonzero_entries()}
    degs |= {p.mindeg for _, _, p in a.nonzero_entries()}
    if degs <= {0} and a.ring.is_field:
        return scalar_rank(ScalarMatrix.from_laurent(a))
    return len(invariant_factors(a))
