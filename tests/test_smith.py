import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from p1dom import smith
from p1dom.errors import ShapeError, UnsupportedRingError
from p1dom.generators import random_novikov_acyclic
from p1dom.laurent import render
from p1dom.matrices import LaurentMatrix, scalar_rank
from p1dom.scalars import GF, QQ, ZZ
from p1dom.smith import invariant_factors

from helpers import (LaurentPoly, M, P, S, block, cell, dense, evaluate,
                     grid_matrix, identity, kernel_basis, kernel_coordinates,
                     matmul, polyadd, polymul, submatrix, transpose)
from test_sympy_oracle import (determinantal_factors, sympy_divides,
                               sympy_factors)


def test_single_entry():
    factors = invariant_factors(M(QQ, [[[(1, 1), (0, -1)]]]))
    assert [render(QQ, f) for f in factors] == ["-1 + x"]


def test_unit_monomial_normalisation():
    # diag(x, x^2 - x): x is a unit times 1, so the chain is [1, x-1]
    factors = invariant_factors(M(QQ, [[[(1, 1)], 0], [0, [(2, 1), (1, -1)]]]))
    assert [render(QQ, f) for f in factors] == ["1", "-1 + x"]


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
    return grid_matrix(ring, rows, cols, grid)


@pytest.mark.parametrize("ring", [QQ, GF(7)])
def test_snf_soundness_randomised(ring):
    # the factors form a divisibility chain of monic, zero-valuation
    # polynomials
    rng = random.Random(f"snf-soundness/{ring.tag}")
    for _ in range(40):
        rows, cols = rng.randint(1, 5), rng.randint(1, 5)
        factors = invariant_factors(_random_matrix(rng, ring, rows, cols))
        for f, g in zip(factors, factors[1:]):
            assert sympy_divides(ring, f, g)
        for v, c in factors:
            assert v == 0 and c[0]  # zero valuation
            assert c[-1] == ring.one()  # monic


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
        evaluated = [[evaluate(cell(a, i, j), point) for j in range(cols)]
                     for i in range(rows)]
        rank = scalar_rank(S(ring, evaluated))
        assert len(invariant_factors(a)) == rank


def test_matrix_rank_of_a_constant_matrix():
    a = M(QQ, [[1, 2], [2, 4]])
    assert len(invariant_factors(a)) == 1


@pytest.mark.parametrize("ring", [QQ, GF(7)])
@pytest.mark.parametrize("diagonal, expected", [
    # coprime entries: the chain is (1, their product)
    ([[(1, 1), (0, -1)], [(1, 1), (0, -2)]], ["1", "2 + -3*x + x^2"]),
    # a chain only once reordered
    ([[(2, 1), (1, -2), (0, 1)], [(1, 1), (0, -1)]],
     ["-1 + x", "1 + -2*x + x^2"]),
])
def test_diagonal_inputs_become_a_divisibility_chain(ring, diagonal,
                                                     expected):
    a = M(ring, [[diagonal[0], 0], [0, diagonal[1]]])
    factors = invariant_factors(a)
    if ring is QQ:
        assert [render(QQ, f) for f in factors] == expected
    assert list(factors) == sympy_factors(a)
    assert invariant_factors(transpose(a)) == factors


# -- the kernels on coefficient lists against independent oracles ----------


def _kernel_case(rng, ring, rows, cols, shape):
    """A rows x cols Laurent matrix; over Q the coefficients have numerators
    up to 10^6 and mixed denominators.  ``shape`` adds a zero row, a zero
    column, or a row that is the sum of two others, or multiplies every
    row by one x + c, c from 1 to 5, so that each invariant factor is a
    nonunit and a rank of 2 or more reaches the (gcd, lcm) chain repair
    of ``invariant_factors``."""
    def coefficient():
        if ring is QQ:
            return Fraction(rng.randint(-10 ** 6, 10 ** 6),
                            rng.choice([1, 1, 2, 3, 12, rng.randint(1, 999)]))
        return ring.from_int(rng.randint(-10 ** 6, 10 ** 6))

    grid = [[LaurentPoly(ring, {rng.randint(-2, 2): coefficient()
                                for _ in range(rng.randint(0, 3))})
             for _ in range(cols)] for _ in range(rows)]
    if shape == "zero-row" and rows:
        grid[rng.randrange(rows)] = [P(ring)] * cols
    if shape == "zero-col" and cols:
        j = rng.randrange(cols)
        for row in grid:
            row[j] = P(ring)
    if shape == "row-sum" and rows >= 3:
        i, j, k = rng.sample(range(rows), 3)
        grid[i] = [polyadd(a, b) for a, b in zip(grid[j], grid[k])]
    if shape == "common-factor":
        f = LaurentPoly(ring, {0: ring.from_int(rng.randint(1, 5)),
                               1: ring.one()})
        grid = [[polymul(f, e) for e in row] for row in grid]
    return grid_matrix(ring, rows, cols, grid)


CASES = dict(seed=st.integers(0, 2 ** 32 - 1),
             ring=st.sampled_from([QQ, GF(7), GF(10007)]),
             rows=st.integers(0, 6), cols=st.integers(0, 6),
             shape=st.sampled_from(["plain", "zero-row", "zero-col",
                                    "row-sum", "common-factor"]))


@settings(deadline=None, max_examples=200)
@given(**CASES)
def test_invariant_factors_match_the_smith_form(seed, ring, rows, cols,
                                                shape):
    # the determinantal divisors over Q[x] or GF(p)[x], each a gcd of
    # sympy determinants, are the reference
    a = _kernel_case(random.Random(seed), ring, rows, cols, shape)
    factors = invariant_factors(a)
    assert list(factors) == determinantal_factors(a)
    assert invariant_factors(transpose(a)) == factors
    if shape == "row-sum" and rows >= 3:
        assert len(factors) < rows
    if shape == "common-factor":
        assert all(len(f[1]) > 1 for f in factors)


@settings(deadline=None, max_examples=200)
@given(**CASES)
def test_kernel_basis_spans_kernel(seed, ring, rows, cols, shape):
    rng = random.Random(seed)
    a = _kernel_case(rng, ring, rows, cols, shape)
    k = kernel_basis(a)
    assert k.rows == cols and matmul(a, k).is_zero
    # saturated: n - r columns, and every invariant factor is 1, so the
    # columns span a direct summand, hence all of ker a
    assert k.cols == cols - len(invariant_factors(a))
    assert invariant_factors(k) == ((0, (ring.one(),)),) * k.cols
    r = _kernel_case(rng, ring, k.cols, rng.randint(0, 3), "plain")
    assert kernel_coordinates(k, matmul(k, r)) == r
    # e_j lies outside ker a when column j of a is nonzero, so outside the
    # span of k
    for j in range(cols):
        if any(j in row for row in a.data):
            e_j = submatrix(identity(ring, cols),
                            range(cols), [j])
            with pytest.raises(ShapeError, match=f"column {k.cols} "):
                kernel_coordinates(k, block(ring, [[k, e_j]]))
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


# -- Q differentials on which a Smith elimination once swelled ---------------


def _swelling_differentials():
    """The 19x47 d_0 of a Random(5) complex, which took minutes, and the
    69x36 d_2 of the sixth Random(11) draw, which took seconds."""
    d_0 = random_novikov_acyclic(random.Random(5), QQ, max_rank=80,
                                 span=6).diff(0)
    rng = random.Random(11)
    for _ in range(6):
        c = random_novikov_acyclic(rng, QQ, max_rank=80, span=4)
    return [d_0, c.diff(2)]


def _mod_p(a, ring):
    """a with its Q coefficients mapped to GF(p)."""
    return grid_matrix(ring, a.rows, a.cols, [
        [LaurentPoly(ring, {e: x.numerator * pow(x.denominator, -1, ring.p)
                            for e, x in poly.items()}) for poly in row]
        for row in dense(a)])


@pytest.mark.parametrize("index", [0, 1])
def test_q_factors_do_not_swell(monkeypatch, index):
    a = _swelling_differentials()[index]
    assert (a.rows, a.cols) == [(19, 47), (69, 36)][index]
    lincomb = smith.lincomb

    def guarded(*args):
        e = lincomb(*args)
        if e is not None and max(abs(x) for x in e[1]).bit_length() > 1024:
            raise AssertionError("a coefficient exceeds 1024 bits")
        return e
    monkeypatch.setattr(smith, "lincomb", guarded)
    factors = invariant_factors(a)
    assert invariant_factors(transpose(a)) == factors
    # the degrees agree over GF(p) for all but finitely many p
    modular = invariant_factors(_mod_p(a, GF(10007)))
    assert [len(f[1]) for f in modular] == [len(f[1]) for f in factors]
