"""Shared builders for the test suite."""

import random

from p1dom.complexes import ChainComplex, ChainMap, ScalarComplex, cone
from p1dom.diagrams import ComplexDiagram
from p1dom.domination import _chart_direction
from p1dom.generators import (null_homotopic_map, random_complex,
                              random_novikov_acyclic)
from p1dom.laurent import BaseRing, LaurentPoly
from p1dom.matrices import LaurentMatrix, ScalarMatrix, scalar_rank
from p1dom.smith import kernel_basis


def P(ring, *pairs):
    """Polynomial from (exponent, int-coefficient) pairs."""
    return LaurentPoly.from_pairs(ring, [(e, ring.from_int(c))
                                         for e, c in pairs])


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
                           LaurentPoly.zero(ring))
            else:
                out.append(P(ring, *cell))
        grid.append(out)
    nrows = len(grid)
    ncols = len(grid[0]) if grid else 0
    m = LaurentMatrix(ring, nrows, ncols, grid)
    m.check_base(base)
    return m


def two_term(ring, pairs, top=1, base=BaseRing.LAURENT):
    return ChainComplex.two_term(ring, P(ring, *pairs), top, base)


def diagram_with_a_non_chain_map(ring):
    """(C --f--> C <-- 0) for C = (x - 1: O -> O) in degrees 1, 0 and f
    the identity in degree 1 and zero in degree 0, which is no chain map:
    f d = 0 but d f = x - 1."""
    c = two_term(ring, [(1, 1), (0, -1)])
    zero = ChainComplex.zero(ring)
    return ComplexDiagram(c, c, zero, ChainMap(c, c, {1: M(ring, [[1]])}),
                          ChainMap.zero(zero, c))


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
        for i, j, p in c.diff(m).nonzero_entries():
            for e, coeff in p.items():
                shift = e * direction
                for tau in range(order - shift):
                    rows[(tau + shift) * tgt + i][tau * src + j] = coeff
        diffs[m] = ScalarMatrix(c.ring, ranks[m - 1], ranks[m], rows)
    return ScalarComplex(c.ring, c.lo, c.hi, ranks, diffs)


def transpose(a):
    """The transpose of a LaurentMatrix."""
    return LaurentMatrix(a.ring, a.cols, a.rows, [
        [a.entries[i][j] for i in range(a.rows)] for j in range(a.cols)])


def S(ring, grid):
    """ScalarMatrix from a dense grid of ring elements."""
    return ScalarMatrix(ring, len(grid), len(grid[0]) if grid else 0,
                        [{j: v for j, v in enumerate(row) if v}
                         for row in grid])


def random_matrix(rng, ring, rows, cols, span=3):
    """Laurent matrix with up to three random terms per entry."""
    return LaurentMatrix(ring, rows, cols, [
        [LaurentPoly(ring, {rng.randint(-span, span):
                            ring.from_int(rng.randint(-4, 4))
                            for _ in range(rng.randint(0, 3))})
         for _ in range(cols)] for _ in range(rows)])


def three_term_complex(rng, ring):
    """C_2 -> C_1 -> C_0 with d_1 a random matrix and d_2 = K @ R for a
    kernel basis K of d_1: not a sum of two-term pieces."""
    r0, r1, r2 = rng.randint(1, 3), rng.randint(1, 4), rng.randint(1, 3)
    d1 = random_matrix(rng, ring, r0, r1, 2)
    kernel = kernel_basis(d1)
    d2 = kernel @ random_matrix(rng, ring, kernel.cols, r2, 1)
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


def random_mapping_torus(rng, ring, a):
    """(D, T): a random complex D with constant differentials and the
    mapping torus T = cone(x - f) of f = a id + (a null-homotopic map).

    The Mather trick (Ranicki, "Finite domination and Novikov rings",
    Topology 34, 1995): x - f = x (1 - x^-1 f) is invertible over
    R[[x^-1]], so T is Novikov acyclic on the x^-1 side; x lies in the
    Jacobson radical of R[[x]], so T is acyclic on the x side exactly
    when f is a quasi-isomorphism over R.  f is homotopic to a id.  Over
    a field with a a unit, H_q(T) is K[x,x^-1]^b / (x - a), b the Betti
    number of D in degree q, so dim_K H_q(T) = b.
    """
    d = random_complex(rng, ring, span=0)
    null = null_homotopic_map(rng, d, d, span=0)
    x_minus_a = LaurentPoly(ring, {1: ring.one(), 0: ring.from_int(-a)})
    return d, cone(ChainMap(d, d, {
        m: LaurentMatrix.scalar_diag(ring, [x_minus_a] * d.rank(m))
        - null.component(m) for m in d.degrees()}))[0]


def constants(m):
    """The ScalarMatrix of a LaurentMatrix whose entries are constants."""
    data = []
    for row in m.entries:
        data.append({})
        for j, p in enumerate(row):
            if p.entry is not None:
                assert p.entry[0] == 0 and len(p.entry[1]) == 1, p
                data[-1][j] = p.entry[1][0]
    return ScalarMatrix(m.ring, m.rows, m.cols, data)


def betti_numbers(d):
    """Ranks of the homology of a complex with constant differentials,
    over the fraction field of its coefficient ring."""
    ranks = {m: scalar_rank(constants(d.diff(m)))
             for m in range(d.lo, d.hi + 2)}
    return {q: d.rank(q) - ranks[q] - ranks[q + 1] for q in d.degrees()}
