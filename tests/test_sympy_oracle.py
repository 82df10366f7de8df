"""sympy as an independent oracle for the Smith form over K[x,x^-1], the
chart valuations over K[[x]] and K[[x^-1]] and the determinant (the
tests' Bareiss reference ``helpers.determinant`` over Q, GF(7) and Z, and
``domination._determinant``, read off the chart kernel, over GF(7) and Z).

A Laurent matrix A becomes the polynomial matrix x^s A (s clears the
negative exponents).  Multiplying by a unit does not move invariant
factors, and over K[x] a factor of the form x^k g is, over K[x,x^-1], the
factor g: so sympy's invariant factors over Q[x] or GF(7)[x], with powers
of x stripped and made monic, must be the factors that
``smith.invariant_factors`` reports.  So must the quotients of the
determinantal divisors, the gcds of the k x k minors, which sympy's
determinants give at a fraction of the Smith form's cost:
``determinantal_factors`` is the reference of ``test_smith.py``'s
randomised check, and is itself checked against the Smith form here.

The Smith form of a K[t]-matrix is also one over K[[t]] after scaling by
units of K[[t]], so the t-adic orders of sympy's nonzero invariant factors
over K[t] are the chart valuations.

A determinant is checked on x^s A with s clearing the negative
exponents: det(x^s A) = x^(ns) det(A) for n x n matrices.  sympy computes
it, and the invariant factors, on a ``DomainMatrix`` over Q[x], Z[x] or
GF(p)[x] built from the entries' terms, with its own polynomial
arithmetic.
"""

import random
from fractions import Fraction
from itertools import combinations

import sympy
from hypothesis import given, settings
from hypothesis import strategies as st
from sympy.matrices.normalforms import invariant_factors
from sympy.polys.matrices import DomainMatrix
from sympy.polys.matrices.normalforms import (
    invariant_factors as domain_invariant_factors)

from p1dom import smith
from p1dom.complexes import homology
from p1dom.domination import _determinant
from p1dom.laurent import BaseRing
from p1dom.matrices import LaurentMatrix
from p1dom.scalars import GF, QQ, ZZ
from p1dom.smith import invariant_factors as kernel_factors

from helpers import (HOMOLOGY_KINDS, LaurentPoly, M, P, cell, check_base,
                     dense, determinant, grid_matrix, homology_case, matmul,
                     nonzero_entries, pivot_valuations, polyscale,
                     random_matrix, unit_normalise)

X = sympy.symbols("x")
GF7 = GF(7)


def _sympy_domain(ring):
    if ring is QQ:
        return sympy.QQ[X]
    return sympy.GF(ring.p)[X] if ring.p else sympy.ZZ[X]


def _to_sympy(p: LaurentPoly, shift: int):
    expr = sympy.Integer(0)
    for e, c in p.items():
        coeff = (sympy.Rational(c.numerator, c.denominator)
                 if isinstance(c, Fraction) else sympy.Integer(c))
        expr += coeff * X ** (e + shift)
    return expr


def _domain_matrix(a):
    """(x^s a as a sympy ``DomainMatrix`` over Q[x], GF(p)[x] or Z[x], s):
    s clears the negative exponents, and each entry is built from its
    terms."""
    exps = [e for _, _, p in nonzero_entries(a) for e, _ in p.items()]
    shift = -min(exps, default=0)
    domain = _sympy_domain(a.ring)
    grid = [[domain.ring.from_dict({(e + shift,): domain.dom.convert(c)
                                    for e, c in cell(a, i, j).items()})
             for j in range(a.cols)] for i in range(a.rows)]
    return DomainMatrix(grid, (a.rows, a.cols), domain), shift


def _from_domain(ring, f, shift=0) -> LaurentPoly:
    """x^-shift f as a LaurentPoly, for a polynomial f of a sympy
    polynomial ring over Q, GF(p) or Z."""
    return LaurentPoly(ring, {
        e - shift: Fraction(int(c.numerator), int(c.denominator))
        if ring is QQ else int(c) for (e,), c in f.terms()})


def sympy_divides(ring, f, g):
    """Whether f divides g over K[x], by sympy's remainder; f and g are
    the entries of factors as p1dom reports them (monic, zero
    valuation)."""
    options = ({"domain": sympy.QQ} if ring is QQ else {"modulus": ring.p})
    f, g = (_to_sympy(LaurentPoly.from_entry(ring, e), 0) for e in (f, g))
    return sympy.rem(g, f, X, **options) == 0


def _reported(ring, factors):
    """The entries of the nonzero polynomials ``factors`` of a sympy
    polynomial ring, normalised as p1dom reports invariant factors
    (monic, with no power of x)."""
    return [unit_normalise(f)[2].entry
            for f in (_from_domain(ring, f) for f in factors)
            if not f.is_zero]


def sympy_factors(a):
    """Nonzero invariant factors of a by sympy's Smith form, as entries
    normalised as p1dom reports them."""
    if a.rows == 0 or a.cols == 0:
        return []
    return _reported(a.ring,
                     domain_invariant_factors(_domain_matrix(a)[0]))


def _x_free(domain, f):
    """A nonzero f of ``domain`` divided by the largest power of x that
    divides it."""
    v = min(e for (e,), _ in f.terms())
    return domain.ring.from_dict({(e - v,): c for (e,), c in f.terms()})


def determinantal_factors(a):
    """Nonzero invariant factors of a by determinantal divisors, as
    ``sympy_factors`` reports them: D_k is the gcd of the k x k minors of
    x^s a over K[x], each a sympy determinant, and d_k = D_k / D_{k-1}
    for each k up to the rank, the largest k with D_k != 0.  x is a unit
    of K[x,x^-1], so each minor is taken over its power of x, and a gcd
    that reaches 1 is D_k."""
    if a.rows == 0 or a.cols == 0:
        return []
    m, _ = _domain_matrix(a)
    domain = m.domain
    divisors = [domain.one]
    for k in range(1, min(a.rows, a.cols) + 1):
        minors = (m.extract(rows, cols).det()
                  for rows in combinations(range(a.rows), k)
                  for cols in combinations(range(a.cols), k))
        g = domain.zero
        for minor in minors:
            if minor:
                g = domain.gcd(g, _x_free(domain, minor))
                if g == domain.one:
                    break
        if not g:
            break
        divisors.append(g)
    return _reported(a.ring, [domain.exquo(d, c)
                              for c, d in zip(divisors, divisors[1:])])


@settings(deadline=None, max_examples=150)
@given(seed=st.integers(0, 2 ** 32 - 1), ring=st.sampled_from([QQ, GF7]))
def test_laurent_smith_form_against_sympy(seed, ring):
    rng = random.Random(seed)
    a = random_matrix(rng, ring, rng.randint(1, 4), rng.randint(1, 4), 2)
    factors = kernel_factors(a)
    for f, g in zip(factors, factors[1:]):
        assert sympy_divides(ring, f, g)
    assert list(factors) == sympy_factors(a)


@settings(deadline=None, max_examples=30)
@given(seed=st.integers(0, 2 ** 32 - 1), ring=st.sampled_from([QQ, GF7]))
def test_determinantal_divisors_match_the_smith_form(seed, ring):
    # the reference of test_smith's randomised check against sympy's own
    # Smith form, on small matrices with a repeated row, so a rank drop
    rng = random.Random(seed)
    a = random_matrix(rng, ring, rng.randint(1, 3), rng.randint(1, 4), 2)
    a = LaurentMatrix(ring, a.rows + 1, a.cols, a.data + [a.data[0]])
    assert determinantal_factors(a) == sympy_factors(a)


def test_sympy_reads_a_known_chain():
    # diag(x^-1 (x - 1), 2 x^2 (x - 1)(x + 1)): chain [x - 1, x^2 - 1]
    a = M(QQ, [[[(0, 1), (-1, -1)], 0], [0, [(4, 2), (2, -2)]]])
    expected = [LaurentPoly(QQ, {0: -1, 1: 1}).entry,
                LaurentPoly(QQ, {0: -1, 2: 1}).entry]
    assert sympy_factors(a) == determinantal_factors(a) == expected
    assert list(kernel_factors(a)) == expected


def test_q_hermite_step_with_a_multiplier_against_sympy(monkeypatch):
    # lower triangular over Q with the non-monic pivots 3 - 3x + 3x^2 and
    # 2 - 2x: the Hermite step reduces the entries left of them by
    # pseudo-division with a multiplier m != 1, which must scale the rows
    # above the pivot row as well as the rows below it
    a = M(QQ, [[[(0, 1), (1, 1), (2, -2)], 0, 0],
               [[(1, 2), (2, 1)], [(0, 3), (1, -3), (2, 3)], 0],
               [[(0, -1), (2, 2)], [(0, 3), (1, -1), (2, -1), (3, -2)],
                [(0, 2), (1, -2)]]])
    multipliers = []
    combine = smith._combine

    def recording(f, x, g, y, p, known=()):
        # only the Hermite step knows a nonzero entry of the new column
        if any(e is not None for e in known):
            multipliers.append(f[1][0])
        return combine(f, x, g, y, p, known)

    monkeypatch.setattr(smith, "_combine", recording)
    factors = kernel_factors(a)
    assert any(m != 1 for m in multipliers)
    assert list(factors) == sympy_factors(a)
    assert [len(f[1]) - 1 for f in factors] == [0, 0, 5]


@settings(deadline=None, max_examples=150)
@given(seed=st.integers(0, 2 ** 32 - 1),
       ring=st.sampled_from([QQ, GF7]),
       kind=st.sampled_from(HOMOLOGY_KINDS))
def test_homology_torsion_against_sympy(seed, ring, kind):
    c = homology_case(seed, ring, kind)
    report = homology(c)
    for q in c.degrees():
        nonunit = [f for f in sympy_factors(c.diff(q + 1))
                   if len(f[1]) > 1]
        assert list(report.entry(q).torsion) == nonunit


def _chart_case(rng, ring, t):
    """A K[t]-matrix as a grid of {exponent: coefficient} maps and as a
    sympy matrix in t: 1 to 5 rows and columns, entries with up to three
    terms of t-degree below 4 (over Q with denominators up to 3), made
    rank-deficient as B C with a short inner dimension half the time."""
    rows, cols = rng.randint(1, 5), rng.randint(1, 5)

    def coefficient():
        x = rng.randint(-4, 4)
        return Fraction(x, rng.randint(1, 3)) if ring is QQ else x

    def grid(r, c):
        return [[{rng.randint(0, 3): coefficient()
                  for _ in range(rng.randint(0, 3))}
                 for _ in range(c)] for _ in range(r)]

    if rng.random() < 0.5:
        a = grid(rows, cols)
    else:
        inner = rng.randint(0, min(rows, cols) - 1)
        b, c = grid(rows, inner), grid(inner, cols)
        a = [[{} for _ in range(cols)] for _ in range(rows)]
        for i in range(rows):
            for j in range(cols):
                for k in range(inner):
                    for e, x in b[i][k].items():
                        for f, y in c[k][j].items():
                            a[i][j][e + f] = a[i][j].get(e + f, 0) + x * y
    expr = sympy.Matrix(rows, cols, lambda i, j: sum(
        (sympy.Rational(x.numerator, x.denominator) * t ** e
         for e, x in a[i][j].items()), sympy.Integer(0)))
    return a, expr


def _orders(ring, expr, t):
    """t-adic orders of the nonzero invariant factors of a sympy matrix
    over K[t]."""
    domain = sympy.QQ[t] if ring is QQ else sympy.GF(ring.p)[t]
    orders = []
    for f in invariant_factors(expr, domain=domain):
        poly = (sympy.Poly(f, t, domain=sympy.QQ) if ring is QQ
                else sympy.Poly(f, t, modulus=ring.p))
        if not poly.is_zero:
            orders.append(min(m[0] for m in poly.monoms()))
    return sorted(orders)


@settings(deadline=None, max_examples=120)
@given(seed=st.integers(0, 2 ** 32 - 1), ring=st.sampled_from([QQ, GF7]),
       direction=st.sampled_from([1, -1]))
def test_chart_valuations_against_sympy(seed, ring, direction):
    # the chart matrix x^(c_j - r_i) d[i][j] is read off a Laurent matrix d
    # with random row and column exponents r, c; over K[x^-1] (direction
    # -1) entry t^e is x^-e
    rng = random.Random(seed)
    a, expr = _chart_case(rng, ring, X)
    r = [rng.randint(-3, 3) for _ in a]
    c = [rng.randint(-3, 3) for _ in a[0]]
    d = grid_matrix(ring, len(r), len(c), [
        [LaurentPoly(ring, {direction * e + r_i - c_j: x
                            for e, x in cell.items()})
         for cell, c_j in zip(row, c)] for row, r_i in zip(a, r)])
    want = _orders(ring, expr, X)
    assert sorted(pivot_valuations(d, direction, r, c)) == want
    # the same chart given as an explicit K[t] matrix, with no shifts
    base = BaseRing.POLY if direction == 1 else BaseRing.POLY_INV
    chart = grid_matrix(ring, len(r), len(c), [
        [LaurentPoly(ring, {direction * e: x for e, x in cell.items()})
         for cell in row]
        for row in a])
    check_base(chart, base)
    assert sorted(pivot_valuations(chart, direction)) == want


def _sympy_det(a):
    """sympy's determinant of a Laurent matrix, as a LaurentPoly."""
    m, shift = _domain_matrix(a)
    return _from_domain(a.ring, m.det(), a.rows * shift)


def _det_case(rng, ring, n, kind):
    """An n x n matrix: random, a product B C through n - 1 (singular),
    with a zero top-left entry above a nonzero one (Bareiss swaps rows),
    or over Q with a different denominator in every row."""
    if kind == "singular":
        return matmul(random_matrix(rng, ring, n, n - 1, 2),
                      random_matrix(rng, ring, n - 1, n, 2))
    a = random_matrix(rng, ring, n, n, 2)
    if kind == "swap" and n > 1:
        grid = dense(a)
        grid[0][0] = P(ring)
        grid[-1][0] = LaurentPoly(ring, {rng.randint(-2, 2): 1})
        a = grid_matrix(ring, n, n, grid)
    if kind == "denominators" and ring is QQ:
        a = grid_matrix(ring, n, n, [
            [polyscale(p, Fraction(1, den)) for p in row]
            for row, den in zip(dense(a), (2, 3, 5, 7, 9, 4))])
    return a


@settings(deadline=None, max_examples=120)
@given(seed=st.integers(0, 2 ** 32 - 1), ring=st.sampled_from([QQ, GF7, ZZ]),
       n=st.integers(0, 5),
       kind=st.sampled_from(["random", "singular", "swap", "denominators"]))
def test_determinant_against_sympy(seed, ring, n, kind):
    if kind == "singular" and n == 0:
        n = 1
    a = _det_case(random.Random(seed), ring, n, kind)
    det = determinant(a)
    assert det == _sympy_det(a)
    if kind == "singular":
        assert det.is_zero
    if ring is not QQ:
        assert _determinant(a) == det.entry


def test_determinant_swaps_a_zero_pivot_and_clears_denominators():
    # [[0, x], [2, 1]] needs a row swap; the sign comes back (the chart
    # kernel pivots on row 1, column 0 first)
    for ring in (QQ, GF7, ZZ):
        a = M(ring, [[0, [(1, 1)]], [2, 1]])
        assert determinant(a) == LaurentPoly(ring, {1: -2})
        assert determinant(a) == _sympy_det(a)
        if ring is not QQ:
            assert _determinant(a) == determinant(a).entry
    # rows with denominators 2 and 3: det = 1/2 - x/3
    a = grid_matrix(QQ, 2, 2, [
        [LaurentPoly(QQ, {0: Fraction(1, 2)}), LaurentPoly(QQ, {1: 1})],
        [LaurentPoly(QQ, {0: Fraction(1, 3)}), LaurentPoly(QQ, {0: 1})]])
    assert determinant(a) == LaurentPoly(QQ, {0: Fraction(1, 2),
                                              1: Fraction(-1, 3)})
