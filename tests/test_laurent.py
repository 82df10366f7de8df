import random
import re
from fractions import Fraction

import pytest

from p1dom.errors import RingMismatchError, ShapeError, UnsupportedRingError
from p1dom.laurent import BaseRing, base_from_tag
from p1dom.matrices import LaurentMatrix
from p1dom.scalars import GF, QQ, ZZ

from helpers import (LaurentPoly, M, P, add, evaluate, from_pairs, invert,
                     is_unit, monomial, mul, polyadd, polymul, polyscale,
                     respects, times_monomial, unit_normalise)


def test_product_identity_case():
    # (x-1)(x+1) = x^2 - 1
    assert polymul(P(QQ, (1, 1), (0, -1)), P(QQ, (1, 1), (0, 1))) == \
        P(QQ, (2, 1), (0, -1))


def test_cancellation_to_zero():
    # (2-x) + (x-2) = 0, stored as the entry None
    s = polyadd(P(QQ, (0, 2), (1, -1)), P(QQ, (1, 1), (0, -2)))
    assert s.is_zero and s.entry is None


def test_gf3_product():
    # hand multiplication mod 3: (x+2)(x+1) = x^2 + 3x + 2 = x^2 + 2
    r = GF(3)
    assert polymul(P(r, (1, 1), (0, 2)), P(r, (1, 1), (0, 1))) == \
        P(r, (2, 1), (0, 2))


def test_mixed_rings_rejected():
    with pytest.raises(RingMismatchError):
        polyadd(P(QQ, (0, 1)), P(GF(5), (0, 1)))
    with pytest.raises(RingMismatchError):
        polymul(P(QQ, (0, 1)), P(GF(5), (0, 1)))


def test_base_ring_constraints():
    p = P(QQ, (-2, 1), (1, 1))
    assert respects(p, BaseRing.LAURENT)
    assert not respects(p, BaseRing.POLY)
    assert not respects(p, BaseRing.POLY_INV)
    assert respects(P(QQ, (0, 5)), BaseRing.K)


def test_base_tags_round_trip():
    for base in BaseRing:
        assert base_from_tag(base.tag) is base
    for tag in ("K[x^-1,x]", "k[x]", ""):
        with pytest.raises(ShapeError) as info:
            base_from_tag(tag)
        assert str(info.value) == f"unknown base ring tag {tag!r}"


def test_unit_normalisation():
    # 3x^-2 - 3x = -3x^-2 (x^3 - 1) ... leading coefficient is at maxdeg
    p = P(QQ, (-2, 3), (1, -3))
    v, lead, core = unit_normalise(p)
    assert v == -2 and QQ.render(lead) == "-3"
    assert core == P(QQ, (3, 1), (0, -1))
    assert polymul(monomial(QQ, v, lead), core) == p


def test_units_of_laurent_ring():
    assert is_unit(P(QQ, (5, 7)))
    assert not is_unit(P(QQ, (1, 1), (0, 1)))
    assert not is_unit(P(ZZ, (0, 2)))
    assert is_unit(P(ZZ, (-3, -1)))


def _random_poly(rng, ring):
    return LaurentPoly(ring, {rng.randint(-4, 4): ring.from_int(
        rng.randint(-5, 5)) for _ in range(rng.randint(0, 4))})


@pytest.mark.parametrize("ring", [QQ, GF(5), ZZ])
def test_ring_axioms_randomised(ring):
    rng = random.Random(f"ring-axioms/{ring.tag}")
    for _ in range(200):
        a, b, c = (_random_poly(rng, ring) for _ in range(3))
        assert polymul(polymul(a, b), c) == polymul(a, polymul(b, c))
        assert polymul(a, polyadd(b, c)) == polyadd(polymul(a, b),
                                                    polymul(a, c))
        assert polymul(polyadd(a, b), c) == polyadd(polymul(a, c),
                                                    polymul(b, c))
        assert polyadd(a, b) == polyadd(b, a)


def test_evaluation():
    r = GF(101)
    p = P(r, (-1, 3), (2, 4))
    x = 7
    want = add(r, mul(r, 3, invert(r, x)), mul(r, 4, pow(x, 2, 101)))
    assert evaluate(p, x) == want


@pytest.mark.parametrize("ring, coeffs, error, named", [
    (QQ, {1.5: 1}, ShapeError, "1.5"),
    (QQ, {1.5: 0}, ShapeError, "1.5"),
    (GF(7), {True: 1}, ShapeError, "True"),
    (ZZ, {0: 2.7}, UnsupportedRingError, "2.7"),
    (GF(7), {0: 0.5}, UnsupportedRingError, "0.5"),
    (QQ, {0: 0.1}, UnsupportedRingError, "0.1"),
    (QQ, {0: True}, UnsupportedRingError, "True"),
    (GF(7), {0: Fraction(1, 2)}, UnsupportedRingError, "Fraction(1, 2)"),
    (ZZ, {0: Fraction(2)}, UnsupportedRingError, "Fraction(2, 1)"),
    (ZZ, {0: "3"}, UnsupportedRingError, "'3'"),
])
def test_constructor_rejects_inexact_input(ring, coeffs, error, named):
    # once coerced: {1.5: 1} was x, 2.7 over Z was 2, 0.5 over GF(7) was 0
    # and 0.1 over Q was Fraction(0.1)
    with pytest.raises(error, match=re.escape(named)):
        LaurentPoly(ring, coeffs)
    with pytest.raises(error, match=re.escape(named)):
        from_pairs(ring, list(coeffs.items()))


def test_named_constructors_reject_inexact_input():
    with pytest.raises(ShapeError, match="1.5"):
        monomial(QQ, 1.5)
    with pytest.raises(UnsupportedRingError, match="2.7"):
        monomial(ZZ, 0, 2.7)
    with pytest.raises(UnsupportedRingError, match="0.5"):
        LaurentPoly(GF(7), {0: 0.5})


@pytest.mark.parametrize("ring, coeff", [
    (QQ, 0.5), (ZZ, 2.7), (GF(7), 0.5), (GF(7), Fraction(1, 2)),
    (ZZ, Fraction(3)), (QQ, True)])
def test_scale_and_times_monomial_reject_inexact_coefficients(ring, coeff):
    for p in (P(ring, (0, 1), (2, 3)), P(ring)):
        with pytest.raises(UnsupportedRingError, match=re.escape(repr(coeff))):
            polyscale(p, coeff)
        with pytest.raises(UnsupportedRingError, match=re.escape(repr(coeff))):
            times_monomial(p, 1, coeff)


def test_times_monomial_rejects_a_non_int_exponent():
    for p in (P(QQ, (0, 1)), P(QQ)):
        with pytest.raises(ShapeError, match="1.5"):
            times_monomial(p, 1.5)


def test_exact_input_is_accepted_and_normalised():
    q = LaurentPoly(QQ, {0: 1, 2: Fraction(1, 2)})
    assert q.entry == (0, (Fraction(1), 0, Fraction(1, 2)))
    assert all(type(x) is Fraction for _, x in q.items())
    assert LaurentPoly(GF(7), {-1: 9, 1: 7}).entry == (-1, (2,))
    assert LaurentPoly(ZZ, {3: -4}).entry == (3, (-4,))
    assert polyscale(P(QQ, (0, 1)), Fraction(2, 3)) == LaurentPoly(
        QQ, {0: Fraction(2, 3)})
    assert times_monomial(P(GF(7), (0, 3)), -2, 5) == P(GF(7), (-2, 1))


def test_laurent_matrix_repr_prints_each_cell_as_a_report_does():
    # rows joined by "; ", each cell in ascending exponents
    q = M(QQ, [[[(1, 1), (0, -1)], 0],
               [[(-2, Fraction(1, 2))], [(0, 3), (2, 1)]]])
    assert repr(q) == "[-1 + x, 0; 1/2*x^-2, 3 + x^2]"
    gf = M(GF(7), [[[(1, 6), (0, 1)], [(-1, 1)]], [0, 5]])
    assert repr(gf) == "[1 + 6*x, x^-1; 0, 5]"
    assert repr(LaurentMatrix.zero(QQ, 0, 3)) == "<0x3 empty>"
