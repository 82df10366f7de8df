"""Coefficient-list arithmetic shared by the elimination kernels."""

import random
from fractions import Fraction

import pytest

from p1dom.errors import ShapeError
from p1dom.polylists import (exact_quotient, from_laurent, integer_row,
                             lincomb, to_laurent)
from p1dom.scalars import GF, QQ

from helpers import P


def test_laurent_round_trip():
    for ring in (QQ, GF(7)):
        for poly in (P(ring), P(ring, (-2, 3)), P(ring, (-1, 1), (2, -5))):
            assert to_laurent(ring, from_laurent(poly)) == poly
    assert from_laurent(P(QQ, (-1, 2), (1, 3))) == (-1, [2, 0, 3])


def test_integer_row_clears_denominators_and_content():
    row = [(0, [Fraction(2, 3), Fraction(4, 9)]), None, (2, [Fraction(-2)])]
    assert integer_row(row) == [(0, [3, 2]), None, (2, [-9])]


def _entry(rng, terms, p):
    """A random coefficient entry with 1 to ``terms`` coefficients."""
    c = [rng.choice([-1, 1]) * rng.randint(1, 6)]
    n = rng.randint(0, terms - 1)
    if n:
        c += [rng.randint(-6, 6) for _ in range(n - 1)]
        c.append(rng.choice([-1, 1]) * rng.randint(1, 6))
    return rng.randint(-3, 3), [x % p for x in c] if p else c


@pytest.mark.parametrize("p", [0, 7, 10007])
def test_exact_quotient_inverts_the_product(p):
    rng = random.Random(p)
    for _ in range(200):
        a, b = _entry(rng, 5, p), _entry(rng, 3, p)
        ab = lincomb(a, b, None, None, p)
        assert exact_quotient(ab, b, p) == a
    assert exact_quotient(None, (0, [2]), p) is None


@pytest.mark.parametrize("a,b,p", [
    ((0, [1, 1]), (0, [1, 0, 1]), 7),        # divisor of higher degree
    ((0, [1, 0, 2]), (0, [1, 1]), 7),        # remainder 3 (x = -1)
    ((0, [1, 0, 2]), (0, [1, 1]), 0),
    ((0, [3, 3]), (0, [2]), 0),              # 3/2 is not an integer
    ((0, [2, 3]), (0, [1, 2]), 0),           # quotient 3/2 at the top
])
def test_exact_quotient_refuses_a_remainder(a, b, p):
    with pytest.raises(ShapeError, match="nonzero remainder"):
        exact_quotient(a, b, p)
