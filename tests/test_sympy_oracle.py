"""sympy as an independent oracle for the Smith form over K[x,x^-1].

A Laurent matrix A becomes the polynomial matrix x^s A (s clears the
negative exponents).  Multiplying by a unit does not move invariant
factors, and over K[x] a factor of the form x^k g is, over K[x,x^-1], the
factor g: so sympy's invariant factors over Q[x] or GF(7)[x], with powers
of x stripped and made monic, must be the factors that
``smith.invariant_factors`` reports.  ``test_smith.py`` uses
``sympy_factors`` as its reference too.
"""

import random
from fractions import Fraction

import sympy
from hypothesis import given, settings
from hypothesis import strategies as st
from sympy.matrices.normalforms import invariant_factors

from p1dom.complexes import homology
from p1dom.laurent import LaurentPoly, divmod_laurent
from p1dom.scalars import GF, QQ
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
        assert divmod_laurent(g, f)[1].is_zero
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
