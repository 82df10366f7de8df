import random

import pytest

from p1dom.errors import RingMismatchError, ShapeError
from p1dom.laurent import BaseRing, LaurentPoly
from p1dom.scalars import GF, QQ, ZZ

from helpers import P


def test_product_identity_case():
    # (x-1)(x+1) = x^2 - 1
    assert P(QQ, (1, 1), (0, -1)) * P(QQ, (1, 1), (0, 1)) == \
        P(QQ, (2, 1), (0, -1))


def test_cancellation_to_zero():
    # (2-x) + (x-2) = 0, stored as the empty map
    s = P(QQ, (0, 2), (1, -1)) + P(QQ, (1, 1), (0, -2))
    assert s.is_zero
    with pytest.raises(ShapeError):
        s.mindeg


def test_gf3_product():
    # hand multiplication mod 3: (x+2)(x+1) = x^2 + 3x + 2 = x^2 + 2
    r = GF(3)
    assert P(r, (1, 1), (0, 2)) * P(r, (1, 1), (0, 1)) == P(r, (2, 1), (0, 2))


def test_mixed_rings_rejected():
    with pytest.raises(RingMismatchError):
        P(QQ, (0, 1)) + P(GF(5), (0, 1))


def test_base_ring_constraints():
    p = P(QQ, (-2, 1), (1, 1))
    assert p.respects(BaseRing.LAURENT)
    assert not p.respects(BaseRing.POLY)
    assert not p.respects(BaseRing.POLY_INV)
    assert P(QQ, (0, 5)).respects(BaseRing.K)


def test_unit_normalisation():
    # 3x^-2 - 3x = -3x^-2 (x^3 - 1) ... leading coefficient is at maxdeg
    p = P(QQ, (-2, 3), (1, -3))
    v, lead, core = p.unit_normalise()
    assert v == -2 and QQ.render(lead) == "-3"
    assert core == P(QQ, (3, 1), (0, -1))
    assert LaurentPoly.monomial(QQ, v).scale(lead) * core == p


def test_units_of_laurent_ring():
    assert P(QQ, (5, 7)).is_unit
    assert not P(QQ, (1, 1), (0, 1)).is_unit
    assert not P(ZZ, (0, 2)).is_unit
    assert P(ZZ, (-3, -1)).is_unit


def _random_poly(rng, ring):
    return LaurentPoly(ring, {rng.randint(-4, 4): ring.from_int(
        rng.randint(-5, 5)) for _ in range(rng.randint(0, 4))})


@pytest.mark.parametrize("ring", [QQ, GF(5), ZZ])
def test_ring_axioms_randomised(ring):
    rng = random.Random(hash(ring.tag) & 0xFFFF)
    for _ in range(200):
        a, b, c = (_random_poly(rng, ring) for _ in range(3))
        assert (a * b) * c == a * (b * c)
        assert a * (b + c) == a * b + a * c
        assert (a + b) * c == a * c + b * c
        assert a + b == b + a


def test_evaluation():
    r = GF(101)
    p = P(r, (-1, 3), (2, 4))
    x = 7
    want = r.add(r.mul(3, r.invert(x)), r.mul(4, pow(x, 2, 101)))
    assert p.evaluate(x) == want
