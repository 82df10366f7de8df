"""Shared builders for the test suite."""

import importlib
import pkgutil
import random
from fractions import Fraction
from functools import reduce
from math import prod

import p1dom
from p1dom import fileformat as ff
from p1dom.complexes import ChainComplex, HomologyEntry, ScalarComplex
from p1dom.domination import (_chart_direction, _pivots, _torsion_dims,
                              chart_homology)
from p1dom.errors import (BaseRingViolationError, RingMismatchError,
                          ShapeError, UnsupportedRingError)
from p1dom.generators import (_below, _conjugated, _elementary_ops,
                              _poly_entry, random_complex,
                              random_novikov_acyclic)
from p1dom.laurent import BaseRing, render
from p1dom.matrices import LaurentMatrix, ScalarMatrix, scalar_rank
from p1dom.polylists import (ONE, cleared, exact_quotient, from_terms,
                             integer_row, lincomb, pseudo_divmod, scaled)
from p1dom.scalars import GF, QQ
from p1dom.sheaves import SheafComplex, cech_cohomology
from p1dom.smith import _echelon, _require_field

MINUS_ONE = (0, (-1,))


def normalise(ring, value):
    """The canonical representative of an int or, over Q, a Fraction, in
    a coefficient ring; anything else, a float or bool included, is
    UnsupportedRingError."""
    if type(value) is int:
        return ring.from_int(value)
    if ring.kind == "Q" and isinstance(value, Fraction):
        return value
    raise UnsupportedRingError(
        f"coefficient {value!r} is not an exact element of {ring.tag}")


def _exponent(e) -> int:
    if type(e) is not int:
        raise ShapeError(f"exponent {e!r} is not an int")
    return e


def _checked(ring, pairs):
    """The entry of the sum of c x^e over the pairs (e, c): exponents must
    be ints (else ShapeError) and coefficients ints, over Q also Fractions
    (else UnsupportedRingError, from ``normalise``)."""
    terms = [(e if type(e) is int else _exponent(e), normalise(ring, c))
             for e, c in pairs]
    return from_terms(terms, ring.p)


class LaurentPoly:
    """An immutable Laurent polynomial of the tests' oracles: a coefficient
    ring and the ``polylists`` entry that the library works on, compared
    by both and printed by ``laurent.render``.  Comparing one with
    anything else, a bare entry included, is a TypeError, so that no test
    compares a polynomial with an entry by mistake."""

    __slots__ = ("ring", "entry")

    def __init__(self, ring, coeffs=None):
        """The sum of c x^e over the items e: c of ``coeffs``."""
        self.ring = ring
        self.entry = _checked(ring, (coeffs or {}).items())

    @classmethod
    def from_entry(cls, ring, entry):
        """The polynomial of a ``polylists`` entry whose coefficients are
        already canonical elements of ``ring`` (a kernel's result)."""
        if entry is not None and type(entry[1]) is not tuple:
            entry = entry[0], tuple(entry[1])
        p = object.__new__(cls)
        p.ring = ring
        p.entry = entry
        return p

    @classmethod
    def one(cls, ring):
        return cls.from_entry(ring, (0, (ring.one(),)))

    @property
    def is_zero(self) -> bool:
        return self.entry is None

    def items(self):
        """Sorted (exponent, coefficient) pairs, exponents ascending."""
        v, c = self.entry or (0, ())
        return [(v + k, x) for k, x in enumerate(c) if x]

    def __eq__(self, other):
        if not isinstance(other, LaurentPoly):
            raise TypeError(f"a LaurentPoly compared with {other!r}")
        return self.ring == other.ring and self.entry == other.entry

    def __bool__(self):
        return self.entry is not None

    def __repr__(self):
        return render(self.ring, self.entry)


def cell(a, i, j):
    """The LaurentPoly of cell (i, j) of a LaurentMatrix."""
    return LaurentPoly.from_entry(a.ring, a.data[i].get(j))


def recorded_renders(monkeypatch):
    """The list to which each later ``laurent.render`` call of the library
    appends its entry: the name is patched in every module of ``p1dom``
    that binds it."""
    calls = []

    def recording(ring, entry):
        calls.append(entry)
        return render(ring, entry)
    for info in pkgutil.iter_modules(p1dom.__path__):
        module = importlib.import_module(f"p1dom.{info.name}")
        if getattr(module, "render", None) is render:
            monkeypatch.setattr(module, "render", recording)
    return calls


def from_pairs(ring, pairs):
    """The LaurentPoly of ``[(exponent, coefficient), ...]``, summing
    repeats; the pairs are checked as the ``LaurentPoly`` constructor
    checks its items (``laurent._checked``)."""
    return LaurentPoly.from_entry(ring, _checked(ring, pairs))


def P(ring, *pairs):
    """Polynomial from (exponent, int-coefficient) pairs."""
    return from_pairs(ring, [(e, ring.from_int(c)) for e, c in pairs])


def monomial(ring, exponent, coeff=1):
    """coeff * x^exponent, both checked by the ``LaurentPoly``
    constructor."""
    return LaurentPoly(ring, {exponent: coeff})


def inverse_unit(p):
    """The inverse c^-1 x^-v of a unit c x^v of K[x,x^-1]."""
    v, (c,) = p.entry
    return LaurentPoly.from_entry(p.ring, (-v, (invert(p.ring, c),)))


# -- members the library does not call -----------------------------------------


def check_same_ring(a, b):
    """RingMismatchError unless the coefficient rings a and b are one."""
    if a is not b and a != b:
        raise RingMismatchError(f"mixed coefficient rings {a.tag} and {b.tag}")


def zero(ring):
    """The zero of a coefficient ring."""
    return Fraction(0) if ring.kind == "Q" else 0


def add(ring, a, b):
    """a + b in a coefficient ring."""
    return (a + b) % ring.p if ring.p else a + b


def mul(ring, a, b):
    """a * b in a coefficient ring."""
    return (a * b) % ring.p if ring.p else a * b


def invert(ring, a):
    """The inverse of a unit a of a coefficient ring; ArithmeticError
    for any other a."""
    if not ring.is_unit(a):
        raise ArithmeticError(f"{a!r} is not a unit of {ring.tag}")
    if ring.kind == "Q":
        return Fraction(1) / a
    if ring.kind == "GF":
        return pow(a, ring.p - 2, ring.p)
    return a  # 1 or -1


def is_unit(p):
    """Whether the LaurentPoly p is a unit of K[x,x^-1]: a single term
    with a unit coefficient."""
    return (p.entry is not None and len(p.entry[1]) == 1
            and p.ring.is_unit(p.entry[1][0]))


def respects(p, base):
    """Whether every exponent of the LaurentPoly p lies in ``base``."""
    return base.admits(p.entry)


def times_monomial(p, exponent, coeff=None):
    """coeff * x^exponent * p for a LaurentPoly p (coeff as for
    ``polyscale``); the exponent must be an int."""
    _exponent(exponent)
    out = p if coeff is None else polyscale(p, coeff)
    if out.entry is None:
        return out
    v, c = out.entry
    return LaurentPoly.from_entry(p.ring, (v + exponent, c))


def vanishes(x):
    """Whether a HomologyEntry is zero, or a ChainComplex or ScalarComplex
    has rank zero in every degree."""
    if isinstance(x, HomologyEntry):
        return x.free_rank == 0 and not x.torsion
    return not any(x.ranks.values())


def zero_complex(ring, base=BaseRing.LAURENT):
    """The zero complex, supported in degree 0."""
    return ChainComplex(ring, base, 0, 0)


def load_complex(path):
    """The complex of a complex file."""
    with open(path, encoding="utf-8") as fh:
        return ff.complex_from_dict(ff.loads(fh.read()))


# -- matrices as grids ----------------------------------------------------------


def grid_matrix(ring, rows, cols, grid):
    """The LaurentMatrix of a rows x cols grid of LaurentPoly, each nonzero
    cell stored as its entry."""
    if len(grid) != rows or any(len(row) != cols for row in grid):
        raise ShapeError(f"entry grid does not match shape {rows}x{cols}")
    for row in grid:
        for q in row:
            check_same_ring(ring, q.ring)
    return LaurentMatrix(ring, rows, cols, [
        {j: q.entry for j, q in enumerate(row) if q.entry is not None}
        for row in grid])


def dense(m):
    """The cells of a LaurentMatrix as a grid of LaurentPoly."""
    return [[cell(m, i, j) for j in range(m.cols)] for i in range(m.rows)]


def nonzero_entries(m):
    """(i, j, LaurentPoly) for each nonzero cell of a LaurentMatrix, row
    by row."""
    for i, row in enumerate(m.data):
        for j, e in row.items():
            yield i, j, LaurentPoly.from_entry(m.ring, e)


def M(ring, rows, base=BaseRing.LAURENT):
    """Matrix from a grid of (exponent, coeff) pair-lists or ints, each
    entry checked to lie in ``base``.

    Entry syntax: int c means the constant c; a list of pairs means a
    polynomial.
    """
    grid = []
    for row in rows:
        out = []
        for cell in row:
            if isinstance(cell, int):
                out.append(P(ring, (0, cell)) if cell else
                           P(ring))
            else:
                out.append(P(ring, *cell))
        grid.append(out)
    m = grid_matrix(ring, len(grid), len(grid[0]) if grid else 0, grid)
    check_base(m, base)
    return m


def check_base(m, base):
    """Raise unless every entry of the LaurentMatrix m respects
    ``base``."""
    for i, j, p in nonzero_entries(m):
        if not respects(p, base):
            raise BaseRingViolationError(
                f"entry ({i},{j}) = {p} violates {base.tag}")


def single(ring, base, degree, rank):
    """The complex base^rank, supported in one degree."""
    return ChainComplex(ring, base, degree, degree, {degree: rank})


def two_term(ring, pairs, top=1, base=BaseRing.LAURENT):
    """The rank-1 complex (base --p--> base) in degrees top, top - 1, for
    p = P(ring, *pairs)."""
    entry = P(ring, *pairs).entry
    d = LaurentMatrix(ring, 1, 1, [{} if entry is None else {0: entry}])
    return ChainComplex(ring, base, top - 1, top, {top: 1, top - 1: 1},
                        {top: d})


def window_complex(c: ChainComplex, order: int) -> ScalarComplex:
    """Quotient model of c tensored with the chart power-series ring.

    Each generator becomes ``order`` monomial slots in the chart variable
    (x for a K[x]-complex, x^-1 for a K[x^-1]-complex); multiplication drops
    everything at or beyond the cutoff, which is exactly the quotient by the
    Nth power of the variable.  Slot tau of generator j has index
    tau * rank + j, so every differential is a banded Toeplitz matrix whose
    sparse rows are filled straight from the coefficients of c.
    """
    direction = _chart_direction(c)
    ranks = {m: c.rank(m) * order for m in c.degrees()}
    diffs = {}
    for m in range(c.lo + 1, c.hi + 1):
        src = c.rank(m)
        tgt = c.rank(m - 1)
        rows = [{} for _ in range(ranks[m - 1])]
        for i, j, p in nonzero_entries(c.diff(m)):
            for e, coeff in p.items():
                shift = e * direction
                for tau in range(order - shift):
                    rows[(tau + shift) * tgt + i][tau * src + j] = coeff
        diffs[m] = ScalarMatrix(c.ring, ranks[m - 1], ranks[m], rows)
    return ScalarComplex(c.ring, c.lo, c.hi, ranks, diffs)


def pivot_valuations(d, direction, *exps):
    """The valuations of the pivots ``domination._pivots`` yields for the
    Laurent matrix ``d``, in pivot order; ``exps`` are its row and column
    exponents."""
    return [v for v, _, _, _ in _pivots(d.ring, d.data, direction, *exps)]


def transpose(a):
    """The transpose of a LaurentMatrix."""
    data = [{} for _ in range(a.cols)]
    for i, row in enumerate(a.data):
        for j, e in row.items():
            data[j][i] = e
    return LaurentMatrix(a.ring, a.cols, a.rows, data)


def S(ring, grid):
    """ScalarMatrix from a dense grid of ring elements."""
    return ScalarMatrix(ring, len(grid), len(grid[0]) if grid else 0,
                        [{j: v for j, v in enumerate(row) if v}
                         for row in grid])


def random_ring(rng):
    """One of Q, GF(5), GF(7) and GF(10007), drawn as the generators
    draw (``generators._below``)."""
    rings = [QQ, GF(5), GF(7), GF(10007)]
    return rings[_below(rng, len(rings))]


def random_matrix(rng, ring, rows, cols, span=3):
    """Laurent matrix with up to three random terms per entry."""
    return grid_matrix(ring, rows, cols, [
        [LaurentPoly(ring, {rng.randint(-span, span):
                            ring.from_int(rng.randint(-4, 4))
                            for _ in range(rng.randint(0, 3))})
         for _ in range(cols)] for _ in range(rows)])


def three_term_complex(rng, ring):
    """C_2 -> C_1 -> C_0 with d_1 a random matrix and d_2 = K R for a
    kernel basis K of d_1: not a sum of two-term pieces."""
    r0, r1, r2 = rng.randint(1, 3), rng.randint(1, 4), rng.randint(1, 3)
    d1 = random_matrix(rng, ring, r0, r1, 2)
    kernel = kernel_basis(d1)
    d2 = matmul(kernel, random_matrix(rng, ring, kernel.cols, r2, 1))
    return ChainComplex(ring, BaseRing.LAURENT, 0, 2, {0: r0, 1: r1, 2: r2},
                        {1: d1, 2: d2})


HOMOLOGY_KINDS = ["random", "novikov", "two-term", "three-term"]


def homology_case(seed, ring, kind):
    """A complex over K[x,x^-1] of one of HOMOLOGY_KINDS."""
    rng = random.Random(seed)
    if kind == "random":
        return random_complex(rng, ring, max_length=4, max_rank=3, span=2)
    if kind == "novikov":
        return random_novikov_acyclic(rng, ring, span=2)
    if kind == "two-term":
        rows, cols = rng.randint(1, 4), rng.randint(1, 4)
        d = random_matrix(rng, ring, rows, cols, 2)
        return ChainComplex(ring, BaseRing.LAURENT, 0, 1,
                            {0: rows, 1: cols}, {1: d})
    return three_term_complex(rng, ring)


def constants(m):
    """The ScalarMatrix of a LaurentMatrix whose entries are constants."""
    for row in m.data:
        for e in row.values():
            assert e[0] == 0 and len(e[1]) == 1, e
    return ScalarMatrix(m.ring, m.rows, m.cols, [
        {j: e[1][0] for j, e in row.items()} for row in m.data])


def betti_numbers(d):
    """Ranks of the homology of a complex with constant differentials,
    over the fraction field of its coefficient ring."""
    ranks = {m: scalar_rank(constants(d.diff(m)))
             for m in range(d.lo, d.hi + 2)}
    return {q: d.rank(q) - ranks[q] - ranks[q + 1] for q in d.degrees()}


# -- Laurent polynomials and matrices -------------------------------------------


def _combination(a, g, b):
    """a + g*b for LaurentPoly a and b over one ring, g = ONE or
    MINUS_ONE."""
    check_same_ring(a.ring, b.ring)
    return LaurentPoly.from_entry(a.ring, lincomb(ONE, a.entry, g, b.entry,
                                                  a.ring.p))


def polyadd(a, b):
    """a + b for LaurentPoly a and b, by ``polylists.lincomb``."""
    return _combination(a, ONE, b)


def polysub(a, b):
    """a - b for LaurentPoly a and b, by ``polylists.lincomb``."""
    return _combination(a, MINUS_ONE, b)


def polymul(a, b):
    """a * b for LaurentPoly a and b, by ``polylists.lincomb``."""
    check_same_ring(a.ring, b.ring)
    return LaurentPoly.from_entry(a.ring, lincomb(a.entry, b.entry, None,
                                                  None, a.ring.p))


def polyneg(a):
    """-a for a LaurentPoly a, by ``polylists.scaled``."""
    return LaurentPoly.from_entry(a.ring, scaled(a.entry, -1, a.ring.p))


def polyscale(a, coeff):
    """coeff * a for a LaurentPoly a and an int coefficient, over Q also
    a Fraction (anything else is UnsupportedRingError)."""
    coeff = normalise(a.ring, coeff)
    return LaurentPoly.from_entry(
        a.ring, scaled(a.entry, coeff, a.ring.p) if coeff else None)


def _row(acc):
    """The nonzero entries of ``acc`` in ascending columns, each c a
    tuple."""
    return {j: (e[0], tuple(e[1])) for j, e in sorted(acc.items())
            if e is not None}


def _combined(a, g, b):
    """a + g*b for LaurentMatrix a and b of one shape and ring, g = ONE or
    MINUS_ONE."""
    if a.rows != b.rows or a.cols != b.cols:
        raise ShapeError(f"shape mismatch {a.rows}x{a.cols} vs "
                         f"{b.rows}x{b.cols}")
    check_same_ring(a.ring, b.ring)
    p = a.ring.p
    return LaurentMatrix(a.ring, a.rows, a.cols, [
        _row({j: lincomb(ONE, x.get(j), g, y.get(j), p)
              for j in x.keys() | y.keys()})
        for x, y in zip(a.data, b.data)])


def matadd(a, b):
    """a + b for LaurentMatrix a and b, on their rows."""
    return _combined(a, ONE, b)


def matsub(a, b):
    """a - b for LaurentMatrix a and b, on their rows."""
    return _combined(a, MINUS_ONE, b)


def matneg(a):
    """-a for a LaurentMatrix a."""
    return matsub(LaurentMatrix.zero(a.ring, a.rows, a.cols), a)


def matmul(a, *factors):
    """The product of the LaurentMatrix a and ``factors``, left to right,
    each row of a product summed from the rows of the next factor."""
    for b in factors:
        if a.cols != b.rows:
            raise ShapeError(f"cannot multiply {a.rows}x{a.cols} by "
                             f"{b.rows}x{b.cols}")
        check_same_ring(a.ring, b.ring)
        p = a.ring.p
        out = []
        for row in a.data:
            acc = {}
            for k, x in row.items():
                for j, y in b.data[k].items():
                    acc[j] = lincomb(x, y, ONE, acc.get(j), p)
            out.append(_row(acc))
        a = LaurentMatrix(a.ring, a.rows, b.cols, out)
    return a


def determinant(m):
    """The determinant of a square LaurentMatrix over any supported ring,
    the reference for ``domination._determinant``.

    Bareiss's (1968) fraction-free elimination: each 2x2 cross product is
    divided exactly by the previous pivot, so every entry stays a minor.
    A zero pivot is swapped with the first nonzero entry below it.  Over Q
    each row is first cleared of its denominators, and the integer
    determinant is divided by their product.
    """
    if m.rows != m.cols:
        raise ShapeError("determinant of a non-square matrix")
    ring, n, p = m.ring, m.rows, m.ring.p
    rows = [[row.get(j) for j in range(n)] for row in m.data]
    scale = 1
    if ring.kind == "Q":
        rows = [cleared(row) for row in rows]
        scale = Fraction(1, prod(den for den, _ in rows))
        rows = [row for _, row in rows]
    prev = ONE
    for k in range(n - 1):
        if rows[k][k] is None:
            swap = next((i for i in range(k + 1, n)
                         if rows[i][k] is not None), None)
            if swap is None:
                return LaurentPoly(ring)
            rows[k], rows[swap] = rows[swap], rows[k]
            scale = -scale
        top, pivot = rows[k], rows[k][k]
        for row in rows[k + 1:]:
            factor = scaled(row[k], -1, p)
            for j in range(k + 1, n):
                row[j] = exact_quotient(
                    lincomb(row[j], pivot, factor, top[j], p), prev, p)
        prev = pivot
    return LaurentPoly.from_entry(
        ring, scaled(rows[-1][-1] if n else ONE, scale, p))


def mindeg(p):
    """The least exponent of a nonzero LaurentPoly."""
    return p.entry[0]


def maxdeg(p):
    """The largest exponent of a nonzero LaurentPoly."""
    v, c = p.entry
    return v + len(c) - 1


def evaluate(p, point):
    """p at a scalar point (the point must be a unit when negative
    exponents occur)."""
    ring = p.ring
    v, c = p.entry or (0, ())
    total = zero(ring)
    for x in reversed(c):  # Horner's rule, then times point^v
        total = add(ring, mul(ring, total, point), x)
    unit = point if v >= 0 else invert(ring, point)
    for _ in range(abs(v)):
        total = mul(ring, total, unit)
    return total


def unit_normalise(p):
    """(v, c, core) with p = c * x^v * core, core monic and core(0) != 0.
    Needs a field (or a unit leading coefficient over Z) and p != 0."""
    if p.entry is None:
        raise ShapeError("cannot normalise the zero polynomial")
    v, c = p.entry
    lead = c[-1]
    core = scaled((0, c), invert(p.ring, lead), p.ring.p)
    return v, lead, LaurentPoly.from_entry(p.ring, core)


def scalar_diag(ring, polys):
    """The diagonal LaurentMatrix of ``polys``."""
    n = len(polys)
    return LaurentMatrix(ring, n, n, [{i: p.entry} if p.entry else {}
                                      for i, p in enumerate(polys)])


def submatrix(a, row_idx, col_idx):
    """The rows ``row_idx`` and columns ``col_idx`` of a LaurentMatrix."""
    return grid_matrix(a.ring, len(row_idx), len(col_idx),
                       [[cell(a, i, j) for j in col_idx] for i in row_idx])


def identity(ring, n):
    """The n x n identity LaurentMatrix."""
    return scalar_diag(ring, [LaurentPoly.one(ring)] * n)


def block(ring, grid):
    """Assemble from a 2d grid of LaurentMatrix blocks, None being a zero
    block sized by the other blocks of its block row and column.

    ShapeError for a ragged grid (block rows of different lengths, or
    blocks whose shapes disagree along a block row or column) and for a
    block row or column with no sized block.
    """
    if any(len(brow) != len(grid[0]) for brow in grid):
        raise ShapeError("ragged block grid")
    heights = [_block_size("row", i, {b.rows for b in brow
                                      if b is not None})
               for i, brow in enumerate(grid)]
    widths = [_block_size("column", j, {b.cols for b in bcol
                                         if b is not None})
              for j, bcol in enumerate(zip(*grid))]
    data = []
    for brow, height in zip(grid, heights):
        for r in range(height):
            row, offset = {}, 0
            for b, width in zip(brow, widths):
                if b is not None:
                    row.update((offset + j, e) for j, e in b.data[r].items())
                offset += width
            data.append(row)
    return LaurentMatrix(ring, sum(heights), sum(widths), data)


def _block_size(kind, index, sizes):
    """The one size of block ``kind`` ``index`` of ``block``."""
    if len(sizes) != 1:
        raise ShapeError(f"block {kind} {index} has no sized block"
                         if not sizes else "ragged block grid")
    return sizes.pop()


def monomial_scale(a, row_exps, col_exps):
    """Entry (i, j) of the LaurentMatrix a times x^(row_exps[i] +
    col_exps[j])."""
    return LaurentMatrix(a.ring, a.rows, a.cols, [
        {j: (v + e + col_exps[j], c) for j, (v, c) in row.items()}
        for row, e in zip(a.data, row_exps)])


def coeff(p, exponent):
    """The coefficient of x^exponent in the LaurentPoly p."""
    v, c = p.entry or (0, ())
    k = exponent - v
    return c[k] if 0 <= k < len(c) and c[k] else zero(p.ring)


def random_poly(rng, ring, min_exp=-3, max_exp=3, terms=3, nonzero=False):
    """The LaurentPoly of one ``generators._poly_entry`` draw."""
    return LaurentPoly.from_entry(ring, _ring_entry(
        ring, _poly_entry(rng, ring.p, min_exp, max_exp, terms, nonzero)))


def _ring_entry(ring, e):
    """An entry of int coefficients as a matrix stores it over ``ring``:
    c a tuple, the ints made Fractions over Q."""
    return e and (e[0], tuple(normalise(ring, x) for x in e[1]))


# -- kernels by column echelon form ---------------------------------------------


def _entry(ring, e):
    """A kernel entry as a matrix stores it: c a tuple, int coefficients
    made Fractions over Q."""
    return e and (e[0], tuple(e[1]) if ring.p else tuple(map(Fraction,
                                                             e[1])))


def _dot(xs, ys, p):
    """The sum of xs[k]*ys[k] over two lists of entries, None for zero."""
    acc = None
    for x, y in zip(xs, ys):
        acc = lincomb(x, y, ONE, acc, p)
    return acc


def _column_echelon(a):
    """Columns of a*V stacked on V, and the pivot rows of a*V.

    a*V is the column echelon form of ``smith._echelon``, and V, the
    product of its transforms, is invertible over K[x,x^-1].
    """
    p = _require_field(a).p
    rows, n = a.rows, a.cols
    columns = []
    for j in range(n):
        column = [row.get(j) for row in a.data] + [None] * n
        column[rows + j] = ONE
        columns.append(column if p else integer_row(column))
    return columns, _echelon(columns, rows, p)


def kernel_basis(a):
    """Columns forming a basis of ker(a) over K[x,x^-1]: the last n - r
    columns of V in a*V = [H | 0].  They span a direct summand."""
    columns, pivots = _column_echelon(a)
    kernel = columns[len(pivots):]
    return LaurentMatrix(a.ring, a.cols, len(kernel), [
        {t: _entry(a.ring, column[a.rows + i])
         for t, column in enumerate(kernel) if column[a.rows + i]}
        for i in range(a.cols)])


def kernel_coordinates(k, b):
    """X with k X == b.

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
    ring, p = k.ring, k.ring.p
    columns, pivots = _column_echelon(k)
    r = len(pivots)
    solution = []
    for j in range(b.cols):
        y = []
        for i in range(k.rows):
            # what row i of H*Y = b leaves for the entries of Y not yet fixed
            rest = lincomb(ONE, b.data[i].get(j), MINUS_ONE,
                           _dot([column[i] for column in columns[:len(y)]],
                                y, p), p)
            t = len(y)
            if t < r and pivots[t] == i:
                if rest is None:
                    y.append(None)
                    continue
                den, (e,) = cleared([rest]) if not p else (1, (rest,))
                m, q, remainder = pseudo_divmod(e, columns[t][i], p)
                if remainder is None:
                    # m*den*rest = q*pivot; over Q the scaling also makes
                    # the coefficients Fractions
                    y.append(scaled(q, Fraction(1, m * den), p) if not p
                             else q)
                    continue
            elif rest is None:
                continue
            raise ShapeError(
                f"column {j} is not in the span of the matrix columns")
        solution.append(y)
    # X = V*Y
    x = [[_dot([column[k.rows + i] for column in columns[:r]], y, p)
          for y in solution] for i in range(k.cols)]
    return LaurentMatrix(ring, k.cols, b.cols, [
        {j: _entry(ring, e) for j, e in enumerate(row) if e} for row in x])


# -- complexes and sheaves ------------------------------------------------------


def shift(c, n):
    """Re-index the degrees of a ChainComplex by +n; the differential
    picks up (-1)^n."""
    sign = 1 if n % 2 == 0 else -1
    return ChainComplex(c.ring, c.base, c.lo + n, c.hi + n,
                        {m + n: r for m, r in c.ranks.items()},
                        {m + n: d if sign == 1 else matneg(d)
                         for m, d in c.diffs.items()})


def direct_sum(a, b):
    """The degreewise direct sum of two ChainComplexes over one ring."""
    if a.ring != b.ring or a.base != b.base:
        raise RingMismatchError("direct sum over different rings")
    lo, hi = min(a.lo, b.lo), max(a.hi, b.hi)
    return ChainComplex(
        a.ring, a.base, lo, hi,
        {m: a.rank(m) + b.rank(m) for m in range(lo, hi + 1)},
        {m: block(a.ring, [[a.diff(m), None], [None, b.diff(m)]])
         for m in range(lo + 1, hi + 1)})


def chart_over_q(c):
    """The Z complex ``c`` with its coefficients read in Q.  The library
    reads no Z chart over Q; ``test_fpqc_total_equals_hypercohomology``
    compares the valuations over Q[[t]] of a Z chart with its windows."""
    return ChainComplex(QQ, c.base, c.lo, c.hi, c.ranks, {
        m: LaurentMatrix(QQ, d.rows, d.cols, [
            {j: (v, tuple(map(Fraction, coeffs)))
             for j, (v, coeffs) in row.items()} for row in d.data])
        for m, d in c.diffs.items()})


def shifted_summand(t, dk, dl):
    """The twist split t = (k, l) raised by (dk, dl)."""
    return t[0] + dk, t[1] + dl


def chart_homology_dims(c):
    """Torsion K-dimensions of the homology of a K[x] or K[x^-1] chart
    complex after base change to K[[t]], refused on a free part as the
    ledger refuses it (``domination._torsion_dims``)."""
    side = "plus" if _chart_direction(c) == 1 else "minus"
    return _torsion_dims(chart_homology(c), side)


def load_sheaf(path):
    """The SheafComplex of a sheaf file."""
    with open(path, encoding="utf-8") as fh:
        return ff.sheaf_from_dict(ff.loads(fh.read()))


def twist(s, n, k=None):
    """Twist every level of the SheafComplex s by n with the split
    (k, n - k), k defaulting to n; the chart differentials are unchanged
    by a uniform twist."""
    dk = n if k is None else k
    return SheafComplex(s.mid, {m: tuple(shifted_summand(t, dk, n - dk)
                                      for t in ts)
                                for m, ts in s.twists.items()})


def raised_profile(rng, c, most):
    """A legal SheafComplex over the K[x,x^-1]-complex c, built by the
    public constructor, whose levels are drawn from the top down: each
    summand of level m takes the least (k, l) that the entries of its row
    of d_{m+1} allow given level m + 1 (k_i >= maxdeg d[i][j] + k_j and
    l_i >= l_j - mindeg d[i][j]; (0, 0) on the top level and for a zero
    row), then k and l are each raised by a draw from 0..``most``.  Every
    summand has k + l >= 0, so W computes the hypercohomology."""
    twists = {}
    above = ()
    for m in range(c.hi, c.lo - 1, -1):
        level = []
        for i in range(c.rank(m)):
            row = c.diff(m + 1).data[i] if above else {}
            k = max((v + len(e) - 1 + above[j][0]
                     for j, (v, e) in row.items()), default=0)
            l = max((above[j][1] - v for j, (v, _) in row.items()),
                    default=0)
            level.append((k + rng.randint(0, most),
                          l + rng.randint(0, most)))
        twists[m] = above = tuple(level)
    return SheafComplex(c, twists)


def sheaf_hyper_homology_dims(s):
    """Hypercohomology dimensions for a sheaf complex with zero
    differentials.

    With no differentials the totalisation splits levelwise, so its
    homology in degree n is H0 of level n plus H1 of level n+1.  When
    every twist is at least -1, first cohomology vanishes and
    ``homology_dims(cech_complex(s))`` gives the hypercohomology of any
    sheaf complex.
    """
    for m in s.degrees():
        if not s.mid.diff(m).is_zero:
            raise UnsupportedRingError(
                "exact sheaf hypercohomology dims need zero differentials; "
                "with every twist at least -1 use "
                "homology_dims(cech_complex(s))")
    coh = {m: cech_cohomology(s.twists[m]) for m in s.degrees()}
    return {n: (coh[n].h0_dim if n in coh else 0)
            + (coh[n + 1].h1_dim if n + 1 in coh else 0)
            for n in range(s.mid.lo - 1, s.mid.hi + 1)}


def sections_complex(s):
    """The complex of global sections W of the SheafComplex s, built from
    its definition as the oracle of ``sheaves.cech_complex``, with no band
    offsets: level m has the basis x^e of summand j for e in [-l_j, k_j],
    summand-major with exponents ascending, and d_m sends x^e of summand
    j to x^e d_m[i][j] (``polymul``) in summand i of level m - 1.  Each
    exponent of the product must lie in [-l_i, k_i], the window of that
    summand, or AssertionError names the entry."""
    ring = s.ring
    index = {m: {(j, e): n for n, (j, e) in enumerate(
        (j, e) for j, (k, l) in enumerate(ts) for e in range(-l, k + 1))}
        for m, ts in s.twists.items()}
    diffs = {}
    for m, d in s.mid.diffs.items():
        rows = [{} for _ in index[m - 1]]
        for i, row in enumerate(d.data):
            k, l = s.twists[m - 1][i]
            for j, entry in row.items():
                sk, sl = s.twists[m][j]
                for e in range(-sl, sk + 1):
                    product = polymul(monomial(ring, e),
                                      LaurentPoly.from_entry(ring, entry))
                    for x, c in product.items():
                        assert -l <= x <= k, (
                            f"degree {m}: x^{e} d[{i}][{j}] has x^{x} "
                            f"outside [{-l}, {k}]")
                        rows[index[m - 1][i, x]][index[m][j, e]] = c
        diffs[m] = ScalarMatrix(ring, len(rows), len(index[m]), rows)
    return ScalarComplex(ring, s.mid.lo, s.mid.hi,
                         {m: len(ix) for m, ix in index.items()}, diffs)


def chart(s, side, base=None):
    """The ``side`` chart complex of the SheafComplex s, over K[x^-1] for
    "minus" and K[x] for "plus" unless ``base`` is given, in one pass over
    the middle entries: d_m[i][j] x^(a_j(m) - a_i(m-1)), where x^a is the
    torus map of a summand (a = k on the minus side, -l on the plus side,
    as ``SheafComplex.chart_exponents`` gives them).  The library stores
    and builds no chart; this is the oracle of the chart, extension and
    diagram tests."""
    if base is None:
        base = BaseRing.POLY_INV if side == "minus" else BaseRing.POLY
    mid = s.mid
    a = s.chart_exponents(side)
    return ChainComplex(mid.ring, base, mid.lo, mid.hi, dict(mid.ranks), {
        m: monomial_scale(mid.diff(m), [-e for e in a[m - 1]], a[m])
        for m in range(mid.lo + 1, mid.hi + 1)})


def random_invertible_pair(rng, ring, n, span=1):
    """(T, T^-1) for the operations E_1, ..., E_k that
    ``generators._elementary_ops`` draws, T = E_k...E_1.  Both are built
    in ring arithmetic, independent of the integer kernels of
    ``generators._conjugated``, on grids of entries (None for zero) from
    the identity, in the order drawn: T by each operation as a row
    operation, T^-1 alongside it by each inverse as a column operation
    (row i += q*row j becomes col j -= q*col i, a row swap the same
    column swap, and row i *= u becomes col i *= u^-1)."""
    p = ring.p
    one = 0, (ring.one(),)
    t = [[one if i == j else None for j in range(n)] for i in range(n)]
    t_inv = [list(row) for row in t]
    for kind, i, j, x in _elementary_ops(rng, ring, n, span):
        if kind == 0:
            x = _ring_entry(ring, x)
            y = scaled(x, ring.from_int(-1), p)
            row = t[i]
            for col, b in enumerate(t[j]):
                if b is not None:
                    row[col] = lincomb(ONE, row[col], x, b, p)
            for row in t_inv:
                if row[i] is not None:
                    row[j] = lincomb(ONE, row[j], y, row[i], p)
        elif kind == 1:
            t[i], t[j] = t[j], t[i]
            for row in t_inv:
                row[i], row[j] = row[j], row[i]
        else:
            e, c = x[0], normalise(ring, x[1])
            x, y = (e, c), (-e, invert(ring, c))
            t[i] = [_times_unit(a, x, p) for a in t[i]]
            for row in t_inv:
                row[i] = _times_unit(row[i], y, p)
    return tuple(LaurentMatrix(ring, n, n, [
        {j: (e[0], tuple(e[1])) for j, e in enumerate(row) if e is not None}
        for row in grid]) for grid in (t, t_inv))


def _times_unit(a, unit, p):
    """The entry c x^e a for the unit (e, c) (None for a zero a)."""
    e, c = unit
    return a and (a[0] + e, scaled(a, c, p)[1])


def basis_change(rng, c, span=1):
    """Conjugate by random invertible matrices in every degree: the
    complex T_{m-1}^-1 d_m T_m of ``generators._conjugated``, which
    applies the elementary operations of each T to copies of the rows of
    c, so c itself is left as it is.  A Q row is handed over as its
    numerators over one denominator (``polylists.cleared``)."""
    over_q = c.ring.kind == "Q"
    rows, dens = {}, {} if over_q else None
    for m, d in c.diffs.items():
        if over_q:
            parts = [cleared(row.values()) for row in d.data]
            dens[m] = [den for den, _ in parts]
            rows[m] = [dict(zip(row, entries))
                       for row, (_, entries) in zip(d.data, parts)]
        else:
            rows[m] = [dict(row) for row in d.data]
    return _conjugated(rng, c.ring, c.base, dict(c.ranks), rows, span, dens)


def grid_product(a, b):
    """a b for LaurentMatrix a and b, each cell summed with ``polyadd``
    and ``polymul`` over the dense grids: the oracle of the
    products on rows."""
    ga, gb = dense(a), dense(b)
    return grid_matrix(a.ring, a.rows, b.cols, [
        [reduce(polyadd, (polymul(ga[i][k], gb[k][j])
                          for k in range(a.cols)), P(a.ring))
         for j in range(b.cols)] for i in range(a.rows)])


def basis_change_reference(rng, c, span=1):
    """``basis_change`` as the products T^-1 d T of ``grid_product``,
    for the pairs (T, T^-1) that ``random_invertible_pair`` builds from
    the same draws: the oracle of the row and column operations of
    ``generators._conjugated``, which form no T and no product."""
    pairs = {m: random_invertible_pair(rng, c.ring, c.rank(m), span=span)
             for m in c.degrees()}
    diffs = {m: grid_product(grid_product(pairs[m - 1][1], c.diff(m)),
                             pairs[m][0])
             for m in range(c.lo + 1, c.hi + 1)}
    return ChainComplex(c.ring, c.base, c.lo, c.hi, c.ranks, diffs)
