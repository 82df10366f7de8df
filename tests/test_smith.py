import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from p1dom.errors import ShapeError, UnsupportedRingError
from p1dom.laurent import LaurentPoly
from p1dom.matrices import LaurentMatrix, scalar_rank
from p1dom.scalars import GF, QQ, ZZ
from p1dom.smith import (invariant_factors, kernel_basis, kernel_coordinates,
                         matrix_rank)

from helpers import M, S
from test_sympy_oracle import sympy_divides, sympy_factors


def test_single_entry():
    factors = invariant_factors(M(QQ, [[[(1, 1), (0, -1)]]]))
    assert [str(f) for f in factors] == ["-1 + x"]


def test_unit_monomial_normalisation():
    # diag(x, x^2 - x): x is a unit times 1, so the chain is [1, x-1]
    factors = invariant_factors(M(QQ, [[[(1, 1)], 0], [0, [(2, 1), (1, -1)]]]))
    assert [str(f) for f in factors] == ["1", "-1 + x"]


def test_zero_matrix():
    # no factor, so the cokernel is free of rank 2
    assert invariant_factors(LaurentMatrix.zero(QQ, 2, 3)) == ()


def test_integer_coefficients_rejected():
    for kernel in (invariant_factors, kernel_basis):
        with pytest.raises(UnsupportedRingError):
            kernel(M(ZZ, [[1]]))


def _random_matrix(rng, ring, rows, cols):
    grid = []
    for _ in range(rows):
        row = []
        for _ in range(cols):
            p = LaurentPoly(ring, {rng.randint(-3, 3): ring.from_int(
                rng.randint(-4, 4)) for _ in range(rng.randint(0, 3))})
            row.append(p)
        grid.append(row)
    return LaurentMatrix(ring, rows, cols, grid)


@pytest.mark.parametrize("ring", [QQ, GF(7)])
def test_snf_soundness_randomised(ring):
    # the factors form a divisibility chain of monic, zero-valuation
    # polynomials
    rng = random.Random(hash(ring.tag) & 0xFFF)
    for _ in range(40):
        rows, cols = rng.randint(1, 5), rng.randint(1, 5)
        factors = invariant_factors(_random_matrix(rng, ring, rows, cols))
        for f, g in zip(factors, factors[1:]):
            assert sympy_divides(f, g)
        for f in factors:
            assert not f.is_zero
            assert f.mindeg == 0  # zero valuation
            assert f.coeff(f.maxdeg) == ring.one()  # monic


def test_snf_rank_matches_evaluation():
    # rank over the Laurent ring equals rank of A(t) at a generic point;
    # with p = 10007 > 100 * size a uniform point is a non-root with
    # overwhelming probability
    ring = GF(10007)
    rng = random.Random(99)
    for _ in range(25):
        rows, cols = rng.randint(1, 5), rng.randint(1, 5)
        a = _random_matrix(rng, ring, rows, cols)
        point = rng.randint(1, 10006)
        evaluated = [[a.entries[i][j].evaluate(point) for j in range(cols)]
                     for i in range(rows)]
        assert len(invariant_factors(a)) == scalar_rank(S(ring, evaluated))


def test_matrix_rank_scalar_fast_path():
    a = M(QQ, [[1, 2], [2, 4]])
    assert matrix_rank(a) == 1


# -- the kernels on coefficient lists against independent oracles ----------


def _kernel_case(rng, ring, rows, cols, shape):
    """A rows x cols Laurent matrix; over Q the coefficients have numerators
    up to 10^6 and mixed denominators.  ``shape`` adds a zero row, a zero
    column, or a row that is the sum of two others."""
    def coefficient():
        if ring is QQ:
            return Fraction(rng.randint(-10 ** 6, 10 ** 6),
                            rng.choice([1, 1, 2, 3, 12, rng.randint(1, 999)]))
        return ring.from_int(rng.randint(-10 ** 6, 10 ** 6))

    grid = [[LaurentPoly(ring, {rng.randint(-2, 2): coefficient()
                                for _ in range(rng.randint(0, 3))})
             for _ in range(cols)] for _ in range(rows)]
    if shape == "zero-row" and rows:
        grid[rng.randrange(rows)] = [LaurentPoly.zero(ring)] * cols
    if shape == "zero-col" and cols:
        j = rng.randrange(cols)
        for row in grid:
            row[j] = LaurentPoly.zero(ring)
    if shape == "row-sum" and rows >= 3:
        i, j, k = rng.sample(range(rows), 3)
        grid[i] = [a + b for a, b in zip(grid[j], grid[k])]
    return LaurentMatrix(ring, rows, cols, grid)


CASES = dict(seed=st.integers(0, 2 ** 32 - 1),
             ring=st.sampled_from([QQ, GF(7), GF(10007)]),
             rows=st.integers(0, 6), cols=st.integers(0, 6),
             shape=st.sampled_from(["plain", "zero-row", "zero-col",
                                    "row-sum"]))


@settings(deadline=None, max_examples=200)
@given(**CASES)
def test_invariant_factors_match_the_smith_form(seed, ring, rows, cols,
                                                shape):
    # sympy's Smith form over Q[x] or GF(p)[x] is the reference
    a = _kernel_case(random.Random(seed), ring, rows, cols, shape)
    factors = invariant_factors(a)
    assert list(factors) == sympy_factors(a)
    if shape == "row-sum" and rows >= 3:
        assert len(factors) < rows


@settings(deadline=None, max_examples=200)
@given(**CASES)
def test_kernel_basis_spans_kernel(seed, ring, rows, cols, shape):
    rng = random.Random(seed)
    a = _kernel_case(rng, ring, rows, cols, shape)
    k = kernel_basis(a)
    assert k.rows == cols and (a @ k).is_zero
    # saturated: n - r columns, and every invariant factor is 1, so the
    # columns span a direct summand, hence all of ker a
    assert k.cols == cols - len(invariant_factors(a))
    assert invariant_factors(k) == (LaurentPoly.one(ring),) * k.cols
    r = _kernel_case(rng, ring, k.cols, rng.randint(0, 3), "plain")
    assert kernel_coordinates(k, k @ r) == r
    # e_j lies outside ker a when column j of a is nonzero, so outside the
    # span of k
    for j in range(cols):
        if any(not row[j].is_zero for row in a.entries):
            e_j = LaurentMatrix.identity(ring, cols).submatrix(
                range(cols), [j])
            with pytest.raises(ShapeError, match=f"column {k.cols} "):
                kernel_coordinates(k, k.hstack(e_j))
            break


def test_invariant_factors_of_empty_and_zero_matrices():
    for rows, cols in ((0, 0), (0, 4), (4, 0), (3, 5)):
        assert invariant_factors(LaurentMatrix.zero(QQ, rows, cols)) == ()
    with pytest.raises(UnsupportedRingError):
        invariant_factors(M(ZZ, [[1]]))


def test_kernel_coordinates_needs_matching_rows():
    k = kernel_basis(M(QQ, [[1, [(1, 1)]]]))
    with pytest.raises(ShapeError, match="2-row system for 1 rows"):
        kernel_coordinates(k, M(QQ, [[1]]))
