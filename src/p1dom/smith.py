"""Smith normal form over K[x,x^-1] for a field K.

The Laurent ring is Euclidean with norm maxdeg - mindeg (the degree of the
monic core); units are exactly the monomials c*x^n.  Invariant factors are
reported monic with zero x-adic valuation, so torsion detection reads off
the monic cores while unit factors normalise to the constant 1.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction

from .errors import ShapeError, UnsupportedRingError
from .laurent import (LaurentPoly, divides, divmod_laurent, exact_div,
                      xgcd_laurent)
from .matrices import LaurentMatrix, ScalarMatrix, scalar_rank
from .scalars import CoefficientRing


TRANSFORMS = ("U", "V", "Vinv")


@dataclass(frozen=True)
class SmithForm:
    """Result of smith_normal_form: U @ A @ V is diagonal.

    ``factors`` are the invariant factors d_1 | d_2 | ... | d_r, each
    normalised to a monic polynomial with nonzero constant term (so a unit
    entry becomes the constant 1).  ``free_coker_rank`` is the rank of the
    free part of the cokernel, rows - r.  A transform the caller did not
    ask to track is None.
    """

    ring: CoefficientRing
    matrix_rows: int
    matrix_cols: int
    factors: tuple
    U: LaurentMatrix | None
    V: LaurentMatrix | None
    Vinv: LaurentMatrix | None

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

    def _tracked(self, name):
        m = getattr(self, name)
        if m is None:
            raise ShapeError(f"Smith form computed without tracking {name}")
        return m

    def kernel_basis(self) -> LaurentMatrix:
        """Columns forming a basis of ker(A) over K[x,x^-1]."""
        cols = list(range(self.rank, self.matrix_cols))
        return self._tracked("V").submatrix(range(self.matrix_cols), cols)

    def kernel_coordinates(self, B: LaurentMatrix) -> LaurentMatrix:
        """Express the columns of B (all lying in ker A) in the kernel basis.

        Raises ShapeError if some column is not in the kernel.
        """
        y = self._tracked("Vinv") @ B
        for i in range(self.rank):
            for j in range(B.cols):
                if not y.entries[i][j].is_zero:
                    raise ShapeError(
                        f"column {j} is not in the kernel of the matrix")
        return y.submatrix(range(self.rank, self.matrix_cols),
                           range(B.cols))


def _identity_rows(ring, n):
    one = LaurentPoly.one(ring)
    zero = LaurentPoly.zero(ring)
    return [[one if i == j else zero for j in range(n)] for i in range(n)]


def smith_normal_form(a: LaurentMatrix, track=TRANSFORMS) -> SmithForm:
    """Diagonalise over K[x,x^-1] by unit-determinant row/column operations.

    Pivoting rule: nonzero entry of minimal core degree, ties broken by
    lowest (row, col).  Z coefficients are rejected; Z[x,x^-1] is not a PID.
    ``track`` names the transforms to compute among U, V and Vinv; the
    elimination never updates the others, and they come back as None.
    """
    ring = a.ring
    if not ring.is_field:
        raise UnsupportedRingError(
            "Smith normal form requires field coefficients")
    unknown = set(track) - set(TRANSFORMS)
    if unknown:
        raise ShapeError(f"unknown Smith transforms {sorted(unknown)}")
    rows, cols = a.rows, a.cols
    s = [list(r) for r in a.entries]
    u = _identity_rows(ring, rows) if "U" in track else None
    v = _identity_rows(ring, cols) if "V" in track else None
    vinv = _identity_rows(ring, cols) if "Vinv" in track else None
    # grids that row operations act on (with their widths), and grids
    # whose columns column operations act on; vinv takes inverse row ops
    row_grids = [(s, cols)] + ([(u, rows)] if u is not None else [])
    col_grids = [s] + ([v] if v is not None else [])

    def swap_rows(i, k):
        for grid, _ in row_grids:
            grid[i], grid[k] = grid[k], grid[i]

    def swap_cols(j, k):
        for grid in col_grids:
            for row in grid:
                row[j], row[k] = row[k], row[j]
        if vinv is not None:
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
        if vinv is not None:
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
                den = den * c.denominator // math.gcd(den, c.denominator)
        if not nums:
            return None
        g = 0
        for v in nums:
            g = math.gcd(g, abs(v))
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
        if vinv is not None:
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
        if vinv is None:
            return
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
        U=None if u is None else LaurentMatrix(ring, rows, rows, u,
                                               check=False),
        V=None if v is None else LaurentMatrix(ring, cols, cols, v,
                                               check=False),
        Vinv=None if vinv is None else LaurentMatrix(ring, cols, cols, vinv,
                                                     check=False),
    )


def matrix_rank(a: LaurentMatrix) -> int:
    """Rank over the fraction field of K[x,x^-1]."""
    if a.rows == 0 or a.cols == 0:
        return 0
    degs = {p.maxdeg for _, _, p in a.nonzero_entries()}
    degs |= {p.mindeg for _, _, p in a.nonzero_entries()}
    if degs <= {0} and a.ring.is_field:
        return scalar_rank(ScalarMatrix.from_laurent(a))
    return smith_normal_form(a, track=()).rank
