"""Coefficient-list arithmetic shared by the elimination kernels."""

import random
from fractions import Fraction

import pytest

from p1dom.errors import ShapeError
from p1dom.polylists import (exact_quotient, integer_row, lincomb,
                             pseudo_divmod, scaled)
from p1dom.scalars import GF, QQ

from helpers import LaurentPoly, P


def test_laurent_round_trip():
    for ring in (QQ, GF(7)):
        for poly in (P(ring), P(ring, (-2, 3)), P(ring, (-1, 1), (2, -5))):
            assert LaurentPoly.from_entry(ring, poly.entry) == poly
    assert P(QQ, (-1, 2), (1, 3)).entry == (-1, (2, 0, 3))


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


@pytest.mark.parametrize("p", [0, 7, 10007])
def test_pseudo_divmod_is_a_euclidean_step(p):
    # m*a = q*b + r with r zero or of smaller core degree than b; leading
    # coefficients of both signs (over Z a negative lead(b) gives m < 0)
    rng = random.Random(p + 1)
    multipliers = set()
    for _ in range(300):
        a, b = _entry(rng, 6, p), _entry(rng, 4, p)
        m, q, r = pseudo_divmod(a, b, p)
        multipliers.add(m)
        assert lincomb(q, b, r, (0, [1]), p) == scaled(a, m, p)
        assert r is None or len(r[1]) < len(b[1])
    if p:
        assert multipliers == {1}
    else:
        assert min(multipliers) < 0 < max(multipliers)


def test_pseudo_divmod_over_z_collects_the_multipliers():
    # 2x^2 + 1 by -3x + 1 (lead -3): 9*(2x^2 + 1) = (-6x - 2)(-3x + 1) + 11
    m, q, r = pseudo_divmod((0, [1, 0, 2]), (0, [1, -3]), 0)
    assert (m, q, r) == (9, (0, [-2, -6]), (0, [11]))
    # a divisor of higher core degree leaves a as the remainder
    assert pseudo_divmod((0, [1, 1]), (0, [1, 0, 1]), 7) == (
        1, None, (0, [1, 1]))


def test_exact_quotient_with_a_negative_lead():
    # (x + 2)(-x + 3) / (-x + 3): over Z each step's multiplier is -1
    b = (0, [3, -1])
    ab = lincomb((0, [2, 1]), b, None, None, 0)
    assert pseudo_divmod(ab, b, 0)[0] == 1
    assert exact_quotient(ab, b, 0) == (0, [2, 1])
    # one step: -6x / -x = 6x with m = -1
    assert pseudo_divmod((1, [-6]), (0, [-1]), 0) == (-1, (1, [-6]), None)
    assert exact_quotient((1, [-6]), (0, [-1]), 0) == (1, [6])
    assert exact_quotient((-1, [4, 0, -2]), (0, [-2]), 0) == (-1, [-2, 0, 1])
