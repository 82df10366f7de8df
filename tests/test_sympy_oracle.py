"""sympy as an independent oracle for the Smith form over K[x,x^-1], the
chart valuations over K[[x]] and K[[x^-1]] and the determinant.

A Laurent matrix A becomes the polynomial matrix x^s A (s clears the
negative exponents).  Multiplying by a unit does not move invariant
factors, and over K[x] a factor of the form x^k g is, over K[x,x^-1], the
factor g: so sympy's invariant factors over Q[x] or GF(7)[x], with powers
of x stripped and made monic, must be the factors that
``smith.invariant_factors`` reports.  ``test_smith.py`` uses
``sympy_factors`` as its reference too.

The Smith form of a K[t]-matrix is also one over K[[t]] after scaling by
units of K[[t]], so the t-adic orders of sympy's nonzero invariant factors
over K[t] are the chart valuations.

A determinant is checked on x^s A with s clearing the negative
exponents: det(x^s A) = x^(ns) det(A) for n x n matrices.  Over GF(7)
sympy takes the residues as integers and reduces its determinant mod 7.
"""

import random
from fractions import Fraction

import sympy
from hypothesis import given, settings
from hypothesis import strategies as st
from sympy.matrices.normalforms import invariant_factors

from p1dom.complexes import homology
from p1dom.domination import _elementary_valuations
from p1dom.laurent import BaseRing, LaurentPoly
from p1dom.matrices import LaurentMatrix
from p1dom.scalars import GF, QQ, ZZ
from p1dom.smith import invariant_factors as kernel_factors

from helpers import HOMOLOGY_KINDS, M, homology_case, random_matrix

X = sympy.symbols("x")
GF7 = GF(7)


def _sympy_domain(ring):
    return sympy.QQ[X] if ring is QQ else sympy.GF(ring.p)[X]


def _to_sympy(p: LaurentPoly, shift: int):
    expr = sympy.Integer(0)
    for e, c in p.items():
        coeff = (sympy.Rational(c.numerator, c.denominator)
                 if isinstance(c, Fraction) else sympy.Integer(c))
        expr += coeff * X ** (e + shift)
    return expr


def _from_sympy(ring, expr) -> LaurentPoly:
    """x-power-free monic Laurent polynomial of a sympy factor; zero stays
    zero."""
    if ring is QQ:
        coeffs = sympy.Poly(expr, X, domain=sympy.QQ).all_coeffs()
        values = [Fraction(int(c.p), int(c.q)) for c in coeffs]
    else:
        coeffs = sympy.Poly(expr, X, modulus=ring.p).all_coeffs()
        values = [int(c) % ring.p for c in coeffs]
    top = len(values) - 1
    p = LaurentPoly(ring, {top - i: v for i, v in enumerate(values)})
    if p.is_zero:
        return p
    return p.unit_normalise()[2]


def sympy_divides(f, g):
    """Whether f divides g over K[x], by sympy's remainder; f and g are
    factors as p1dom reports them (monic, zero valuation)."""
    options = ({"domain": sympy.QQ} if f.ring is QQ
               else {"modulus": f.ring.p})
    return sympy.rem(_to_sympy(g, 0), _to_sympy(f, 0), X, **options) == 0


def sympy_factors(a):
    """Nonzero invariant factors of a, normalised as p1dom reports them."""
    if a.rows == 0 or a.cols == 0:
        return []
    exps = [e for _, _, p in a.nonzero_entries() for e, _ in p.items()]
    shift = -min(exps, default=0)
    m = sympy.Matrix(a.rows, a.cols,
                     lambda i, j: _to_sympy(a.entries[i][j], shift))
    factors = [_from_sympy(a.ring, f) for f in
               invariant_factors(m, domain=_sympy_domain(a.ring))]
    return [f for f in factors if not f.is_zero]


@settings(deadline=None, max_examples=150)
@given(seed=st.integers(0, 2 ** 32 - 1), ring=st.sampled_from([QQ, GF7]))
def test_laurent_smith_form_against_sympy(seed, ring):
    rng = random.Random(seed)
    a = random_matrix(rng, ring, rng.randint(1, 4), rng.randint(1, 4), 2)
    factors = kernel_factors(a)
    for f, g in zip(factors, factors[1:]):
        assert sympy_divides(f, g)
    assert list(factors) == sympy_factors(a)


def test_sympy_reads_a_known_chain():
    # diag(x^-1 (x - 1), 2 x^2 (x - 1)(x + 1)): chain [x - 1, x^2 - 1]
    a = M(QQ, [[[(0, 1), (-1, -1)], 0], [0, [(4, 2), (2, -2)]]])
    expected = [LaurentPoly(QQ, {0: -1, 1: 1}),
                LaurentPoly(QQ, {0: -1, 2: 1})]
    assert sympy_factors(a) == expected
    assert list(kernel_factors(a)) == expected


@settings(deadline=None, max_examples=150)
@given(seed=st.integers(0, 2 ** 32 - 1),
       ring=st.sampled_from([QQ, GF7]),
       kind=st.sampled_from(HOMOLOGY_KINDS))
def test_homology_torsion_against_sympy(seed, ring, kind):
    c = homology_case(seed, ring, kind)
    report = homology(c)
    for q in c.degrees():
        nonunit = [f for f in sympy_factors(c.diff(q + 1))
                   if f.core_degree > 0]
        assert list(report.entry(q).torsion) == nonunit


def _chart_case(rng, ring, t):
    """A K[t]-matrix as a grid of {exponent: coefficient} maps and as a
    sympy matrix in t: 1 to 5 rows and columns, entries with up to three
    terms of t-degree below 4 (over Q with denominators up to 3), made
    rank-deficient as B @ C with a short inner dimension half the time."""
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
    d = LaurentMatrix(ring, len(r), len(c), [
        [LaurentPoly(ring, {direction * e + r_i - c_j: x
                            for e, x in cell.items()})
         for cell, c_j in zip(row, c)] for row, r_i in zip(a, r)])
    want = _orders(ring, expr, X)
    assert sorted(_elementary_valuations(d, direction, r, c)) == want
    # the same chart given as an explicit K[t] matrix, with no shifts
    base = BaseRing.POLY if direction == 1 else BaseRing.POLY_INV
    chart = LaurentMatrix(ring, len(r), len(c), [
        [LaurentPoly(ring, {direction * e: x for e, x in cell.items()})
         for cell in row]
        for row in a], base)
    assert sorted(_elementary_valuations(chart, direction)) == want


def _sympy_det(a):
    """sympy's determinant of a Laurent matrix, as a LaurentPoly."""
    n = a.rows
    exps = [e for _, _, p in a.nonzero_entries() for e, _ in p.items()]
    shift = -min(exps, default=0)
    det = sympy.Matrix(n, n, lambda i, j: _to_sympy(a.entries[i][j], shift)
                       ).det(method="berkowitz")
    poly = (sympy.Poly(det, X, modulus=a.ring.p) if a.ring.p
            else sympy.Poly(det, X, domain=sympy.QQ))
    return LaurentPoly(a.ring, {
        e - n * shift: Fraction(int(c.p), int(c.q)) if a.ring is QQ
        else int(c)
        for (e,), c in zip(poly.monoms(), poly.coeffs())})


def _det_case(rng, ring, n, kind):
    """An n x n matrix: random, a product B @ C through n - 1 (singular),
    with a zero top-left entry above a nonzero one (Bareiss swaps rows),
    or over Q with a different denominator in every row."""
    if kind == "singular":
        return (random_matrix(rng, ring, n, n - 1, 2)
                @ random_matrix(rng, ring, n - 1, n, 2))
    a = random_matrix(rng, ring, n, n, 2)
    if kind == "swap" and n > 1:
        grid = [list(row) for row in a.entries]
        grid[0][0] = LaurentPoly.zero(ring)
        grid[-1][0] = LaurentPoly(ring, {rng.randint(-2, 2): 1})
        a = LaurentMatrix(ring, n, n, grid)
    if kind == "denominators" and ring is QQ:
        a = LaurentMatrix(ring, n, n, [
            [p.scale(Fraction(1, den)) for p in row]
            for row, den in zip(a.entries, (2, 3, 5, 7, 9, 4))])
    return a


@settings(deadline=None, max_examples=120)
@given(seed=st.integers(0, 2 ** 32 - 1), ring=st.sampled_from([QQ, GF7, ZZ]),
       n=st.integers(0, 5),
       kind=st.sampled_from(["random", "singular", "swap", "denominators"]))
def test_determinant_against_sympy(seed, ring, n, kind):
    if kind == "singular" and n == 0:
        n = 1
    a = _det_case(random.Random(seed), ring, n, kind)
    det = a.determinant()
    assert det == _sympy_det(a)
    if kind == "singular":
        assert det.is_zero


def test_determinant_swaps_a_zero_pivot_and_clears_denominators():
    # [[0, x], [2, 1]] needs a row swap; the sign comes back
    for ring in (QQ, GF7, ZZ):
        a = M(ring, [[0, [(1, 1)]], [2, 1]])
        assert a.determinant() == LaurentPoly(ring, {1: -2})
        assert a.determinant() == _sympy_det(a)
    # rows with denominators 2 and 3: det = 1/2 - x/3
    a = LaurentMatrix(QQ, 2, 2, [
        [LaurentPoly(QQ, {0: Fraction(1, 2)}), LaurentPoly(QQ, {1: 1})],
        [LaurentPoly(QQ, {0: Fraction(1, 3)}), LaurentPoly(QQ, {0: 1})]])
    assert a.determinant() == LaurentPoly(QQ, {0: Fraction(1, 2),
                                               1: Fraction(-1, 3)})
