import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from p1dom.errors import UnsupportedRingError
from p1dom.laurent import LaurentPoly, divides
from p1dom.matrices import LaurentMatrix, scalar_rank
from p1dom.scalars import GF, QQ, ZZ
from p1dom.smith import invariant_factors, matrix_rank, smith_normal_form

from helpers import M, P, S


def test_single_entry():
    s = smith_normal_form(M(QQ, [[[(1, 1), (0, -1)]]]))
    assert [str(f) for f in s.factors] == ["-1 + x"]
    assert s.rank == 1 and s.free_coker_rank == 0


def test_unit_monomial_normalisation():
    # diag(x, x^2 - x): x is a unit times 1, so the chain is [1, x-1]
    s = smith_normal_form(M(QQ, [[[(1, 1)], 0], [0, [(2, 1), (1, -1)]]]))
    assert [str(f) for f in s.factors] == ["1", "-1 + x"]


def test_zero_matrix():
    s = smith_normal_form(LaurentMatrix.zero(QQ, 2, 3))
    assert s.factors == () and s.free_coker_rank == 2


def test_integer_coefficients_rejected():
    with pytest.raises(UnsupportedRingError):
        smith_normal_form(M(ZZ, [[1]]))


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
    rng = random.Random(hash(ring.tag) & 0xFFF)
    for _ in range(40):
        rows, cols = rng.randint(1, 5), rng.randint(1, 5)
        a = _random_matrix(rng, ring, rows, cols)
        s = smith_normal_form(a)
        assert s.U @ a @ s.V == s.diagonal()
        assert s.U.determinant().is_unit
        assert s.V.determinant().is_unit
        assert s.V @ s.Vinv == LaurentMatrix.identity(ring, cols)
        for f, g in zip(s.factors, s.factors[1:]):
            assert divides(f, g)
        for f in s.factors:
            assert not f.is_zero
            if not f.is_unit:
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
        assert smith_normal_form(a).rank == scalar_rank(S(ring, evaluated))


def test_matrix_rank_scalar_fast_path():
    a = M(QQ, [[1, 2], [2, 4]])
    assert matrix_rank(a) == 1


def test_kernel_basis_spans_kernel():
    rng = random.Random(5)
    for _ in range(20):
        a = _random_matrix(rng, QQ, rng.randint(1, 4), rng.randint(1, 4))
        s = smith_normal_form(a)
        kb = s.kernel_basis()
        assert (a @ kb).is_zero
        assert matrix_rank(kb) == kb.cols
        assert kb.cols == a.cols - s.rank


# -- the factors-only kernel against the Smith form with transforms ---------


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


@settings(deadline=None, max_examples=200)
@given(seed=st.integers(0, 2 ** 32 - 1),
       ring=st.sampled_from([QQ, GF(7), GF(10007)]),
       rows=st.integers(0, 6), cols=st.integers(0, 6),
       shape=st.sampled_from(["plain", "zero-row", "zero-col", "row-sum"]))
def test_invariant_factors_match_the_smith_form(seed, ring, rows, cols,
                                                shape):
    a = _kernel_case(random.Random(seed), ring, rows, cols, shape)
    factors = invariant_factors(a)
    assert factors == smith_normal_form(a).factors
    if shape == "row-sum" and rows >= 3:
        assert len(factors) < rows


def test_invariant_factors_of_empty_and_zero_matrices():
    for rows, cols in ((0, 0), (0, 4), (4, 0), (3, 5)):
        assert invariant_factors(LaurentMatrix.zero(QQ, rows, cols)) == ()
    with pytest.raises(UnsupportedRingError):
        invariant_factors(M(ZZ, [[1]]))
