"""Smith normal form over K[x,x^-1] for a field K.

The Laurent ring is Euclidean with norm maxdeg - mindeg (the degree of the
monic core); units are exactly the monomials c*x^n.  Invariant factors are
reported monic with zero x-adic valuation, so torsion detection reads off
the monic cores while unit factors normalise to the constant 1.

Two entry points share the elimination order: a pivot of least core
degree, an entry it divides cleared by one division, a Bezout 2x2
transform otherwise, and a repair step for the divisibility chain.
``smith_normal_form`` works on ``LaurentPoly`` entries and returns the
transforms U, V and Vinv with the factors.  ``invariant_factors`` returns
the factors only and eliminates on plain coefficient lists: residues mod
p over GF(p), and integers over Q, as ``scalar_rank`` does for scalars
after Bareiss (1968).  Each Q row is cleared of denominators once, every
row and column is kept primitive by its content gcd, divisions are
pseudo-divisions and the Bezout cofactors come from an integer Euclidean
algorithm.  Nonzero constants are units of Q[x,x^-1], so none of these
scalings moves a factor; the factors alone are built as ``LaurentPoly``.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import gcd, lcm

from .errors import ShapeError, UnsupportedRingError
from .laurent import (LaurentPoly, divides, divmod_laurent, exact_div,
                      xgcd_laurent)
from .matrices import LaurentMatrix, ScalarMatrix, scalar_rank
from .scalars import CoefficientRing


@dataclass(frozen=True)
class SmithForm:
    """Result of smith_normal_form: U @ A @ V is diagonal.

    ``factors`` are the invariant factors d_1 | d_2 | ... | d_r, each
    normalised to a monic polynomial with nonzero constant term (so a unit
    entry becomes the constant 1).  ``free_coker_rank`` is the rank of the
    free part of the cokernel, rows - r.
    """

    ring: CoefficientRing
    matrix_rows: int
    matrix_cols: int
    factors: tuple
    U: LaurentMatrix
    V: LaurentMatrix
    Vinv: LaurentMatrix

    @property
    def rank(self) -> int:
        return len(self.factors)

    @property
    def free_coker_rank(self) -> int:
        return self.matrix_rows - self.rank

    def diagonal(self) -> LaurentMatrix:
        d = LaurentMatrix.zero(self.ring, self.matrix_rows, self.matrix_cols)
        entries = [list(row) for row in d.entries]
        for i, f in enumerate(self.factors):
            entries[i][i] = f
        return LaurentMatrix(self.ring, self.matrix_rows, self.matrix_cols,
                             entries, check=False)

    def kernel_basis(self) -> LaurentMatrix:
        """Columns forming a basis of ker(A) over K[x,x^-1]."""
        cols = list(range(self.rank, self.matrix_cols))
        return self.V.submatrix(range(self.matrix_cols), cols)

    def kernel_coordinates(self, B: LaurentMatrix) -> LaurentMatrix:
        """Express the columns of B (all lying in ker A) in the kernel basis.

        Raises ShapeError if some column is not in the kernel.
        """
        y = self.Vinv @ B
        for i in range(self.rank):
            for j in range(B.cols):
                if not y.entries[i][j].is_zero:
                    raise ShapeError(
                        f"column {j} is not in the kernel of the matrix")
        return y.submatrix(range(self.rank, self.matrix_cols),
                           range(B.cols))


def _require_field(a: LaurentMatrix) -> CoefficientRing:
    if not a.ring.is_field:
        raise UnsupportedRingError(
            "Smith normal form requires field coefficients")
    return a.ring


def _identity_rows(ring, n):
    one = LaurentPoly.one(ring)
    zero = LaurentPoly.zero(ring)
    return [[one if i == j else zero for j in range(n)] for i in range(n)]


def smith_normal_form(a: LaurentMatrix) -> SmithForm:
    """Diagonalise over K[x,x^-1] by unit-determinant row/column operations.

    Pivoting rule: nonzero entry of minimal core degree, ties broken by
    lowest (row, col).  Z coefficients are rejected; Z[x,x^-1] is not a PID.
    A caller that reads only the factors calls ``invariant_factors``.
    """
    ring = _require_field(a)
    rows, cols = a.rows, a.cols
    s = [list(r) for r in a.entries]
    u = _identity_rows(ring, rows)
    v = _identity_rows(ring, cols)
    vinv = _identity_rows(ring, cols)
    # grids that row operations act on (with their widths), and grids
    # whose columns column operations act on; vinv takes inverse row ops
    row_grids = [(s, cols), (u, rows)]
    col_grids = [s, v]

    def swap_rows(i, k):
        for grid, _ in row_grids:
            grid[i], grid[k] = grid[k], grid[i]

    def swap_cols(j, k):
        for grid in col_grids:
            for row in grid:
                row[j], row[k] = row[k], row[j]
        vinv[j], vinv[k] = vinv[k], vinv[j]

    def row_sub(i, t, q):
        # row_i -= q * row_t
        for grid, width in row_grids:
            ri, rt = grid[i], grid[t]
            for j in range(width):
                if not rt[j].is_zero:
                    ri[j] = ri[j] - q * rt[j]

    def col_sub(j, t, q):
        # col_j -= q * col_t ; inverse op on vinv: row_t += q * row_j
        for grid in col_grids:
            for row in grid:
                if not row[t].is_zero:
                    row[j] = row[j] - q * row[t]
        rj, rt = vinv[j], vinv[t]
        for jj in range(cols):
            if not rj[jj].is_zero:
                rt[jj] = rt[jj] + q * rj[jj]

    def row_add(t, i):
        # row_t += row_i
        for grid, width in row_grids:
            rt, ri = grid[t], grid[i]
            for j in range(width):
                if not ri[j].is_zero:
                    rt[j] = rt[j] + ri[j]

    def scale_row(t, unit: LaurentPoly):
        inv = unit.inverse_unit()
        for grid, width in row_grids:
            rt = grid[t]
            for j in range(width):
                if not rt[j].is_zero:
                    rt[j] = rt[j] * inv

    def rational_content(polys):
        """gcd(numerators)/lcm(denominators) of all coefficients; keeps
        intermediate fractions small over Q (constants are units)."""
        nums = []
        den = 1
        for p in polys:
            for _, c in p.items():
                nums.append(c.numerator)
                den = lcm(den, c.denominator)
        if not nums:
            return None
        g = 0
        for v in nums:
            g = gcd(g, abs(v))
        factor = Fraction(g, den)
        return None if factor == 1 else factor

    def tidy_row(i):
        if ring.kind != "Q":
            return
        factor = rational_content(s[i])
        if factor is not None:
            scale_row(i, LaurentPoly.constant(ring, factor))

    def tidy_col(j):
        if ring.kind != "Q":
            return
        factor = rational_content([row[j] for row in s])
        if factor is None:
            return
        inv = Fraction(1) / factor
        for grid in col_grids:
            for row in grid:
                if not row[j].is_zero:
                    row[j] = row[j].scale(inv)
        rj = vinv[j]
        for jj in range(cols):
            if not rj[jj].is_zero:
                rj[jj] = rj[jj].scale(factor)

    def find_pivot(t):
        best = None
        for i in range(t, rows):
            for j in range(t, cols):
                p = s[i][j]
                if p.is_zero:
                    continue
                key = (p.core_degree, i, j)
                if best is None or key < best:
                    best = key
        return best

    def two_row_transform(t, i, c_tt, c_ti, c_it, c_ii):
        # rows (t, i) <- [[c_tt, c_ti], [c_it, c_ii]] @ rows (t, i);
        # the caller guarantees determinant 1
        for grid, width in row_grids:
            rt, ri = grid[t], grid[i]
            for jj in range(width):
                a, b = rt[jj], ri[jj]
                rt[jj] = c_tt * a + c_ti * b
                ri[jj] = c_it * a + c_ii * b

    def two_col_transform(t, j, c_tt, c_jt, c_tj, c_jj):
        # col_t <- c_tt*col_t + c_jt*col_j ; col_j <- c_tj*col_t + c_jj*col_j
        for grid in col_grids:
            for row in grid:
                a, b = row[t], row[j]
                row[t] = a * c_tt + b * c_jt
                row[j] = a * c_tj + b * c_jj
        # determinant 1: the inverse acts on vinv rows as
        # [[c_jj, -c_tj], [-c_jt, c_tt]]
        rt, rj = vinv[t], vinv[j]
        for jj in range(cols):
            a, b = rt[jj], rj[jj]
            rt[jj] = c_jj * a - c_tj * b
            rj[jj] = -c_jt * a + c_tt * b

    def clear_row_entry(i, t):
        """Zero s[i][t]; returns True when a gcd transform replaced the
        pivot (strictly smaller core degree)."""
        e = s[i][t]
        if e.is_zero:
            return False
        p = s[t][t]
        q, r = divmod_laurent(e, p)
        if r.is_zero:
            row_sub(i, t, q)
            tidy_row(i)
            return False
        g, uu, vv = xgcd_laurent(p, e)
        two_row_transform(t, i, uu, vv,
                          -exact_div(e, g), exact_div(p, g))
        tidy_row(t)
        tidy_row(i)
        return True

    def clear_col_entry(j, t):
        e = s[t][j]
        if e.is_zero:
            return False
        p = s[t][t]
        q, r = divmod_laurent(e, p)
        if r.is_zero:
            col_sub(j, t, q)
            tidy_col(j)
            return False
        g, uu, vv = xgcd_laurent(p, e)
        two_col_transform(t, j, uu, vv,
                          -exact_div(e, g), exact_div(p, g))
        tidy_col(t)
        tidy_col(j)
        return True

    t = 0
    limit = min(rows, cols)
    while t < limit:
        best = find_pivot(t)
        if best is None:
            break
        while True:
            _, pi, pj = find_pivot(t)
            if pi != t:
                swap_rows(t, pi)
            if pj != t:
                swap_cols(t, pj)
            for i in range(t + 1, rows):
                clear_row_entry(i, t)
            disturbed = False
            for j in range(t + 1, cols):
                if clear_col_entry(j, t):
                    disturbed = True
            if disturbed:
                # a column gcd transform mixed entries back into column t;
                # the pivot core degree strictly dropped, so this loops at
                # most core-degree many times
                continue
            # Row and column are clear; enforce the divisibility chain.
            if s[t][t].core_degree > 0:
                bad = None
                for i in range(t + 1, rows):
                    for j in range(t + 1, cols):
                        if not s[i][j].is_zero and \
                                not divides(s[t][t], s[i][j]):
                            bad = i
                            break
                    if bad is not None:
                        break
                if bad is not None:
                    row_add(t, bad)
                    tidy_row(t)
                    continue
            break
        # Normalise the pivot to a monic core with zero valuation.
        val, lead, core = s[t][t].unit_normalise()
        unit = LaurentPoly.monomial(ring, val, 1).scale(lead)
        if not (unit.is_unit and unit * core == s[t][t]):
            raise ShapeError("internal: unit normalisation failed")
        scale_row(t, unit)
        s[t][t] = core
        t += 1

    factors = tuple(s[i][i] for i in range(t))
    return SmithForm(
        ring=ring,
        matrix_rows=rows,
        matrix_cols=cols,
        factors=factors,
        U=LaurentMatrix(ring, rows, rows, u, check=False),
        V=LaurentMatrix(ring, cols, cols, v, check=False),
        Vinv=LaurentMatrix(ring, cols, cols, vinv, check=False),
    )


# -- factors only, on coefficient lists --------------------------------------
#
# An entry is None (zero) or a pair (v, c): the Laurent polynomial
# x^v * (c[0] + c[1] x + ... + c[n] x^n) with c[0] and c[-1] nonzero, so its
# core degree is len(c) - 1.  Coefficients are ints: residues mod p over
# GF(p), integers over Q (p = 0).  Entry lists are never changed in place.

_ONE = (0, [1])


def _entry(poly):
    """The coefficient entry of a LaurentPoly."""
    if poly.is_zero:
        return None
    items = poly.items()
    lo, hi = items[0][0], items[-1][0]
    if lo == hi:
        return lo, [items[0][1]]
    c = [0] * (hi - lo + 1)
    for e, x in items:
        c[e - lo] = x
    return lo, c


def _integer_row(row):
    """Entries of a Q row times the lcm of their denominators, divided by
    their content."""
    den = lcm(*(x.denominator for e in row if e is not None for x in e[1]))
    row = [None if e is None else
           (e[0], [x.numerator * (den // x.denominator) for x in e[1]])
           for e in row]
    _make_primitive(row, range(len(row)))
    return row


def _trim(v, c):
    hi = len(c)
    while hi and not c[hi - 1]:
        hi -= 1
    if not hi:
        return None
    lo = 0
    while not c[lo]:
        lo += 1
    return v + lo, c[lo:hi] if lo or hi < len(c) else c


def _lincomb(f, a, g, b, p):
    """f*a + g*b; reduced mod p when p is nonzero."""
    if f is None or a is None:
        if g is None or b is None:
            return None
        terms = ((g, b),)
    elif g is None or b is None:
        terms = ((f, a),)
    else:
        terms = ((f, a), (g, b))
    lo = min(x[0] + y[0] for x, y in terms)
    hi = max(x[0] + y[0] + len(x[1]) + len(y[1]) for x, y in terms) - 1
    acc = [0] * (hi - lo)
    for (vx, cx), (vy, cy) in terms:
        off = vx + vy - lo
        for i, u in enumerate(cx, off):
            for k, w in enumerate(cy, i):
                acc[k] += u * w
    if p:
        acc = [u % p for u in acc]
    return _trim(lo, acc)


def _scaled(a, k, p):
    """k*a for a nonzero int k."""
    if a is None:
        return None
    v, c = a
    return v, [x * k % p for x in c] if p else [x * k for x in c]


def _divided(a, k):
    """a/k for an int k that divides every coefficient of a."""
    return a[0], [x // k for x in a[1]]


def _divmod(a, b, p):
    """(m, q, r) with m*a = q*b + r, m a nonzero int and r zero (None) or
    of smaller core degree than b.

    Over GF(p) m is 1.  Over Q this is pseudo-division: a step whose
    leading coefficient lead(b) does not divide first multiplies the
    remainder and the quotient by lead(b)/gcd, and m collects those
    multipliers.
    """
    va, ca = a
    vb, cb = b
    n = len(cb) - 1
    top = len(ca) - 1 - n
    if top < 0:
        return 1, None, a
    rem = list(ca)
    quo = [0] * (top + 1)
    lead = cb[-1]
    m = 1
    if p:
        inv = pow(lead, p - 2, p)
        for k in range(top, -1, -1):
            f = rem[k + n] * inv % p
            if f:
                quo[k] = f
                for i, y in enumerate(cb, k):
                    rem[i] = (rem[i] - f * y) % p
    else:
        for k in range(top, -1, -1):
            x = rem[k + n]
            if not x:
                continue
            g = gcd(x, lead)
            s = lead // g
            if s != 1:
                rem = [s * y for y in rem]
                quo = [s * y for y in quo]
                m *= s
            f = x // g
            quo[k] = f
            for i, y in enumerate(cb, k):
                rem[i] -= f * y
    return m, _trim(va - vb, quo), _trim(va, rem[:n])


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
        return [_scaled(e, inv, p) for e in triple]
    _make_primitive(triple, range(3))
    return triple


def _bezout(pivot, e, p):
    """Rows of a 2x2 transform taking (pivot, e) to (c*g, 0), with g their
    gcd and c and the determinant nonzero constants: (u, v) and (-e/g,
    pivot/g), each up to a constant factor.

    (u, v) comes from the Euclidean algorithm on (r, u, v) triples with
    r = u*pivot + v*e, every remainder normalised (``_normalised``) as
    ``xgcd_laurent`` normalises its remainders monic.  Over Q the division
    is pseudo-division, so every coefficient stays an integer.
    """
    r0, u0, v0 = pivot, _ONE, None
    r1, u1, v1 = _normalised(e, None, _ONE, p)
    while True:
        m, q, r2 = _divmod(r0, r1, p)
        if r2 is None:
            break
        # r2 = m*r0 - q*r1
        f, nq = (0, [m]), _scaled(q, -1, p)
        u2, v2 = _lincomb(f, u0, nq, u1, p), _lincomb(f, v0, nq, v1, p)
        r0, u0, v0 = r1, u1, v1
        r1, u1, v1 = _normalised(r2, u2, v2, p)
    g = r1
    if not p:
        # primitive with a positive lead, g divides pivot and e over Z
        # (Gauss's lemma), so both divisions below have m = 1
        content = gcd(*g[1])
        g = _divided(g, content if g[1][-1] > 0 else -content)
    m_e, e_g, _ = _divmod(e, g, p)
    m_p, pivot_g, _ = _divmod(pivot, g, p)
    # m_e*e = e_g*g and m_p*pivot = pivot_g*g
    return u1, v1, _scaled(e_g, -m_p, p), _scaled(pivot_g, m_e, p)


def _make_primitive(entries, indices):
    """Divide entries[i], i in indices, by the gcd of their coefficients."""
    g = gcd(*(x for i in indices if entries[i] is not None
              for x in entries[i][1]))
    if g > 1:
        for i in indices:
            if entries[i] is not None:
                entries[i] = _divided(entries[i], g)


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
    """The invariant factors of ``a`` over K[x,x^-1], as SmithForm.factors.

    The elimination of ``smith_normal_form`` without transforms, on
    coefficient lists (see the module docstring): the same pivot rule, a
    divisible entry cleared by one (pseudo-)division, a Bezout transform
    otherwise, and the same divisibility-chain repair.  Only the factors
    are built as ``LaurentPoly``, monic with zero valuation.
    """
    ring = _require_field(a)
    p = ring.p
    rows, cols = a.rows, a.cols
    s = [[_entry(poly) for poly in row] for row in a.entries]
    if not p:
        s = [_integer_row(row) for row in s]

    def tidy_row(i, t):
        if not p:
            _make_primitive(s[i], range(t, cols))

    def tidy_col(j, t):
        if not p:
            column = [row[j] for row in s]
            _make_primitive(column, range(t, rows))
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
        m, q, r = _divmod(e, rt[t], p)
        if r is None:
            f, nq = (0, [m]), _scaled(q, -1, p)
            for j in range(t + 1, cols):
                ri[j] = _lincomb(f, ri[j], nq, rt[j], p)
            ri[t] = None
            tidy_row(i, t)
            return
        u, v, ne, pg = _bezout(rt[t], e, p)
        for j in range(t, cols):
            x, y = rt[j], ri[j]
            rt[j] = _lincomb(u, x, v, y, p)
            ri[j] = _lincomb(ne, x, pg, y, p)
        tidy_row(t, t)
        tidy_row(i, t)

    def clear_col_entry(j, t):
        """Zero s[t][j]; True when a Bezout transform replaced the pivot
        (strictly smaller core degree)."""
        e = s[t][j]
        if e is None:
            return False
        m, q, r = _divmod(e, s[t][t], p)
        if r is None:
            f, nq = (0, [m]), _scaled(q, -1, p)
            for i in range(t + 1, rows):
                row = s[i]
                row[j] = _lincomb(f, row[j], nq, row[t], p)
            s[t][j] = None
            tidy_col(j, t)
            return False
        u, v, ne, pg = _bezout(s[t][t], e, p)
        for i in range(t, rows):
            row = s[i]
            x, y = row[t], row[j]
            row[t] = _lincomb(u, x, v, y, p)
            row[j] = _lincomb(ne, x, pg, y, p)
        tidy_col(t, t)
        tidy_col(j, t)
        return True

    def chain_breaker(t):
        """A row below t with an entry the pivot does not divide."""
        pivot = s[t][t]
        for i in range(t + 1, rows):
            for e in s[i][t + 1:]:
                if e is not None and _divmod(e, pivot, p)[2] is not None:
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
                        rt[j] = _lincomb(_ONE, rt[j], _ONE, rb[j], p)
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


def matrix_rank(a: LaurentMatrix) -> int:
    """Rank over the fraction field of K[x,x^-1]."""
    if a.rows == 0 or a.cols == 0:
        return 0
    degs = {p.maxdeg for _, _, p in a.nonzero_entries()}
    degs |= {p.mindeg for _, _, p in a.nonzero_entries()}
    if degs <= {0} and a.ring.is_field:
        return scalar_rank(ScalarMatrix.from_laurent(a))
    return len(invariant_factors(a))
