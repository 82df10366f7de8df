"""Shared builders for the test suite."""

from p1dom.complexes import ChainComplex
from p1dom.laurent import BaseRing, LaurentPoly
from p1dom.matrices import LaurentMatrix, ScalarMatrix


def P(ring, *pairs):
    """Polynomial from (exponent, int-coefficient) pairs."""
    return LaurentPoly.from_pairs(ring, [(e, ring.from_int(c))
                                         for e, c in pairs])


def M(ring, rows, base=BaseRing.LAURENT):
    """Matrix from a grid of (exponent, coeff) pair-lists or ints.

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
    return LaurentMatrix(ring, nrows, ncols, grid, base)


def two_term(ring, pairs, top=1, base=BaseRing.LAURENT):
    return ChainComplex.two_term(ring, P(ring, *pairs), top, base)


def S(ring, grid):
    """ScalarMatrix from a dense grid of ring elements."""
    return ScalarMatrix(ring, len(grid), len(grid[0]) if grid else 0,
                        [{j: v for j, v in enumerate(row) if v}
                         for row in grid])
