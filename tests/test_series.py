"""Z windows: truncated Laurent series over Z in t = x or t = x^-1.

A window (entry, end) holds the terms of a series known below the
t-exponent ``end`` (``p1dom.polylists.window`` and its arithmetic).
"""

import random

import pytest

from p1dom.errors import NotAUnitError
from p1dom.polylists import (window, window_difference, window_inverse,
                             window_product)
from p1dom.scalars import ZZ

from helpers import LaurentPoly, P, times_monomial


def test_geometric_series():
    # oracle: 1/(1-x) = 1 + x + x^2 + x^3 + O(x^4)
    f = window(P(ZZ, (0, 1), (1, -1)).entry, 1, 4)
    assert f == ((0, (1, -1)), 4)
    assert window_inverse(f) == ((0, [1, 1, 1, 1]), 4)


def test_integer_non_unit_head():
    f = window(P(ZZ, (0, 2), (1, -1)).entry, 1, 4)
    with pytest.raises(NotAUnitError,
                       match="^lowest coefficient 2 is not a unit of Z$"):
        window_inverse(f)


def test_inverse_direction_expansion():
    # 2 - x = -x(1 - 2x^-1) in Z((x^-1)), t = x^-1: -t^-1 + 2, whose
    # inverse is -t (1 + 2t + 4t^2) = -x^-1 - 2x^-2 - 4x^-3 + O(x^-4)
    f = window(P(ZZ, (0, 2), (1, -1)).entry, -1, 3)
    assert f == ((-1, (-1, 2)), 2)
    assert window_inverse(f) == ((1, [-1, -2, -4]), 4)


def test_multiplication_window_tracking():
    # (1 + x + O(x^5)) * (x^2 + O(x^5)): width min(5, 3) from x^2
    f = window(P(ZZ, (0, 1), (1, 1)).entry, 1, 5)
    g = window(P(ZZ, (2, 1)).entry, 1, 3)
    assert window_product(f, g) == ((2, [1, 1]), 5)
    # the product is cut at the narrower width, not at the longer entry
    h = window(P(ZZ, (0, 1), (1, 1), (2, 1), (3, 1)).entry, 1, 4)
    assert window_product(h, window(P(ZZ, (0, 1), (1, 1)).entry, 1, 2)) == (
        (0, [1, 2]), 2)


def test_addition_window_is_intersection():
    # a difference is known below the lower of the two ends
    f = window(P(ZZ, (0, 1)).entry, 1, 6)
    g = window(P(ZZ, (1, -1), (4, 7)).entry, 1, 3)
    assert window_difference(f, g) == ((0, [1, 1]), 4)
    # a term of f past the end of g is not known in the difference
    late = window(P(ZZ, (5, 3)).entry, 1, 2)
    assert window_difference(late, g) == ((1, [1]), 4)


def test_zero_window_has_no_valuation():
    # there is no zero window: a difference that vanishes on its window
    # is None, although the operands differ beyond it
    f = window(P(ZZ, (0, 1), (2, 3)).entry, 1, 2)
    g = window(P(ZZ, (0, 1), (3, 5)).entry, 1, 3)
    assert window_difference(f, g) is None


def test_inverse_identity_on_window():
    rng = random.Random(0)
    for _ in range(50):
        coeffs = {0: rng.choice([1, -1])}
        for _ in range(rng.randint(0, 4)):
            coeffs[rng.randint(1, 5)] = rng.randint(-4, 4)
        poly = times_monomial(LaurentPoly(ZZ, coeffs), rng.randint(-2, 2))
        for direction in (1, -1):
            if direction == -1 and poly.items()[-1][1] not in (1, -1):
                continue
            w = window(poly.entry, direction, 6)
            prod = window_product(w, window_inverse(w))
            assert prod == ((0, [1]), 6)
