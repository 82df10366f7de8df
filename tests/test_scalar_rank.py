"""Oracle checks for the sparse scalar rank kernel and the window builder
of ``helpers.window_complex``.

sympy is the reference over Q; over GF(p) the reference is the textbook
dense elimination below, kept here so that it stays independent of the
kernel under test.
"""

import random
from fractions import Fraction

import pytest
import sympy
from hypothesis import given, settings
from hypothesis import strategies as st
from sympy.polys.matrices import DomainMatrix

from p1dom.complexes import homology_dims
from p1dom.extension import extend_complex
from p1dom.generators import random_complex, random_novikov_acyclic
from p1dom.laurent import BaseRing
from p1dom.matrices import ScalarMatrix, scalar_rank
from p1dom.scalars import GF, QQ, ZZ
from p1dom.sheaves import cech_complex

from helpers import S, cell, chart, window_complex


def dense_rank_mod_p(grid, p):
    """Gauss-Jordan elimination mod p on a dense list-of-lists copy."""
    rows = [[v % p for v in row] for row in grid]
    ncols = len(rows[0]) if rows else 0
    rank = 0
    for col in range(ncols):
        pivot = next((i for i in range(rank, len(rows)) if rows[i][col]),
                     None)
        if pivot is None:
            continue
        rows[rank], rows[pivot] = rows[pivot], rows[rank]
        inv = pow(rows[rank][col], p - 2, p)
        for i in range(len(rows)):
            if i != rank and rows[i][col]:
                f = rows[i][col] * inv % p
                rows[i] = [(a - f * b) % p
                           for a, b in zip(rows[i], rows[rank])]
        rank += 1
    return rank


def _rational(v):
    return sympy.Rational(v.numerator, v.denominator)


def sympy_matrix_rank(grid, ncols):
    flat = [_rational(v) for row in grid for v in row]
    return sympy.Matrix(len(grid), ncols, flat).rank()


def sympy_domain_rank(grid, ncols):
    """sympy's rank over QQ for the larger window matrices."""
    if not grid or not ncols:
        return 0
    rows = [[_rational(v) for v in row] for row in grid]
    return DomainMatrix(rows, (len(grid), ncols), sympy.QQ).rank()


@st.composite
def grids(draw, values, max_side=8):
    """Dense grids, optionally banded, with some rows and columns zeroed."""
    rows = draw(st.integers(0, max_side))
    cols = draw(st.integers(0, max_side))
    band = draw(st.none() | st.integers(0, 2))
    grid = [[draw(values) if band is None or abs(i - j) <= band else 0
             for j in range(cols)] for i in range(rows)]
    if rows and cols:
        for i in draw(st.sets(st.integers(0, rows - 1), max_size=2)):
            grid[i] = [0] * cols
        for j in draw(st.sets(st.integers(0, cols - 1), max_size=2)):
            for row in grid:
                row[j] = 0
    return rows, cols, grid


sparse_fractions = st.one_of(
    st.just(0), st.just(0),
    st.builds(Fraction, st.integers(-6, 6), st.integers(1, 7)))
sparse_ints = st.one_of(st.just(0), st.integers(-30, 30))


@settings(deadline=None, max_examples=150)
@given(grids(sparse_fractions))
def test_rank_over_q_matches_sympy(shape_grid):
    rows, cols, grid = shape_grid
    assert scalar_rank(S(QQ, grid)) == sympy_matrix_rank(grid, cols)


@settings(deadline=None, max_examples=40)
@given(grids(sparse_fractions, max_side=16))
def test_rank_over_q_matches_sympy_larger(shape_grid):
    rows, cols, grid = shape_grid
    assert scalar_rank(S(QQ, grid)) == sympy_domain_rank(grid, cols)


@pytest.mark.parametrize("p", [7, 10007])
@settings(deadline=None, max_examples=100)
@given(shape_grid=grids(sparse_ints, max_side=10))
def test_rank_over_gf_matches_dense_reference(p, shape_grid):
    rows, cols, grid = shape_grid
    reduced = [[v % p for v in row] for row in grid]
    assert scalar_rank(S(GF(p), reduced)) == dense_rank_mod_p(grid, p)


@pytest.mark.parametrize("p", [7, 10007])
@settings(deadline=None, max_examples=100)
@given(shape_grid=grids(sparse_ints))
def test_integer_rank_mod_p_at_most_rank_over_q(p, shape_grid):
    rows, cols, grid = shape_grid
    over_q = scalar_rank(S(QQ, grid))
    assert scalar_rank(S(ZZ, grid)) == over_q
    reduced = [[v % p for v in row] for row in grid]
    assert scalar_rank(S(GF(p), reduced)) <= over_q


# -- shapes of W: the kernel reduces the shorter side ----------------------


def transposed(grid):
    return [list(col) for col in zip(*grid)]


def banded_grid(rng, rows, cols, values, band):
    """A rows x cols grid nonzero only within ``band`` of the scaled
    diagonal, like the Čech matrices of W; a few rows are then made sums of
    two others and a few rows and columns zeroed, so the rank drops."""
    grid = [[values(rng) if abs(i * cols - j * rows) <= band * max(rows, cols)
             else 0 for j in range(cols)] for i in range(rows)]
    for _ in range(rng.randint(0, 3)):
        i, a, b = (rng.randrange(rows) for _ in range(3))
        grid[i] = [x + y for x, y in zip(grid[a], grid[b])]
    for i in rng.sample(range(rows), rng.randint(0, min(2, rows))):
        grid[i] = [0] * cols
    for j in rng.sample(range(cols), rng.randint(0, min(2, cols))):
        for row in grid:
            row[j] = 0
    return grid


def rational(rng):
    if rng.random() < 0.3:
        return 0
    return Fraction(rng.randint(-9, 9), rng.randint(1, 6))


SHAPES = [(48, 24), (24, 48), (38, 21), (21, 38), (30, 12), (12, 30),
          (24, 24), (48, 1), (1, 48)]


@pytest.mark.parametrize("rows,cols", SHAPES)
def test_rank_at_w_sizes_over_q_matches_sympy(rows, cols):
    rng = random.Random(rows * 100 + cols)
    for band in (1, 2, 4):
        grid = banded_grid(rng, rows, cols, rational, band)
        rank = scalar_rank(S(QQ, grid))
        assert rank == scalar_rank(S(QQ, transposed(grid)))
        assert rank == sympy_domain_rank(grid, cols)


@pytest.mark.parametrize("p", [7, 10007])
@pytest.mark.parametrize("rows,cols", SHAPES)
def test_rank_at_w_sizes_over_gf_matches_dense_reference(p, rows, cols):
    rng = random.Random(rows * 100 + cols + p)
    for band in (1, 2, 4):
        grid = banded_grid(rng, rows, cols, lambda r: r.randint(0, p - 1),
                           band)
        grid = [[v % p for v in row] for row in grid]
        rank = scalar_rank(S(GF(p), grid))
        assert rank == scalar_rank(S(GF(p), transposed(grid)))
        assert rank == dense_rank_mod_p(grid, p)


@pytest.mark.parametrize("rows,cols", SHAPES)
def test_rank_at_w_sizes_over_z_matches_q(rows, cols):
    rng = random.Random(rows * 100 + cols + 1)
    for band in (1, 2, 4):
        grid = banded_grid(rng, rows, cols, lambda r: r.randint(-40, 40),
                           band)
        rank = scalar_rank(S(ZZ, grid))
        assert rank == scalar_rank(S(ZZ, transposed(grid)))
        assert rank == scalar_rank(
            S(QQ, [[Fraction(v) for v in row] for row in grid]))


def w_differentials(ring, count):
    """The Čech differentials of W for complexes drawn as torus-sections
    draws them."""
    rng = random.Random(1403)
    for _ in range(count):
        c = random_complex(rng, ring, max_length=4, max_rank=3, span=3)
        yield from cech_complex(extend_complex(c).sheaf).diffs.values()


def dense(d):
    return [[row.get(j, 0) for j in range(d.cols)] for row in d.data]


def test_w_ranks_over_q_match_sympy():
    tall = 0
    for d in w_differentials(QQ, 30):
        tall += d.rows > d.cols
        assert scalar_rank(d) == sympy_domain_rank(dense(d), d.cols)
    assert tall >= 10


def test_w_ranks_over_gf_match_dense_reference():
    tall = 0
    for d in w_differentials(GF(10007), 30):
        tall += d.rows > d.cols
        assert scalar_rank(d) == dense_rank_mod_p(dense(d), 10007)
    assert tall >= 10


def test_rank_of_empty_shapes():
    for rows, cols in ((0, 0), (0, 3), (3, 0), (4, 2)):
        for ring in (QQ, GF(7)):
            m = ScalarMatrix(ring, rows, cols, [{} for _ in range(rows)])
            assert scalar_rank(m) == 0


# -- window builder -------------------------------------------------------------


def dense_window(c, order):
    """Window differentials as dense grids in generator-major order."""
    direction = 1 if c.base == BaseRing.POLY else -1
    grids_by_degree = {}
    for m in range(c.lo + 1, c.hi + 1):
        d = c.diff(m)
        grid = [[0] * (d.cols * order) for _ in range(d.rows * order)]
        for i in range(d.rows):
            for j in range(d.cols):
                for e, coeff in cell(d, i, j).items():
                    shift = e * direction
                    for tau in range(order - shift):
                        grid[i * order + tau + shift][j * order + tau] = coeff
        grids_by_degree[m] = grid
    return grids_by_degree


def reference_window_dims(c, order, rank_of):
    ranks = {m: rank_of(g, c.rank(m) * order)
             for m, g in dense_window(c, order).items()}
    return {q: c.rank(q) * order - ranks.get(q, 0) - ranks.get(q + 1, 0)
            for q in c.degrees()}


def chart_complexes(ring, count):
    rng = random.Random(1403)
    for k in range(count):
        if k % 2:
            c = random_novikov_acyclic(rng, ring, max_rank=3, span=2)
        else:
            c = random_complex(rng, ring, max_length=3, max_rank=3, span=2)
        sheaf = extend_complex(c).sheaf
        yield chart(sheaf, "plus")
        yield chart(sheaf, "minus")


@pytest.mark.parametrize("order", [1, 8, 16])
def test_window_dims_match_sympy_over_q(order):
    for chart in chart_complexes(QQ, 6):
        assert homology_dims(window_complex(chart, order)) == \
            reference_window_dims(chart, order, sympy_domain_rank)


@pytest.mark.parametrize("order", [1, 8, 16])
def test_window_dims_match_dense_reference_over_gf(order):
    def rank_of(grid, ncols):
        return dense_rank_mod_p(grid, 7)

    for chart in chart_complexes(GF(7), 6):
        assert homology_dims(window_complex(chart, order)) == \
            reference_window_dims(chart, order, rank_of)
