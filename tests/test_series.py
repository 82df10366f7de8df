import random

import pytest

from p1dom.errors import NotAUnitError
from p1dom.laurent import LaurentPoly
from p1dom.scalars import GF, QQ, ZZ
from p1dom.series import TruncatedSeries, laurent_series, power_series

from helpers import P


def test_geometric_series():
    # oracle: 1/(1-x) = 1 + x + x^2 + x^3 + ...
    f = TruncatedSeries.from_laurent(P(QQ, (0, 1), (1, -1)),
                                     power_series(QQ), 4)
    g = f.invert()
    assert g.x_terms() == [(0, QQ.one()), (1, QQ.one()),
                           (2, QQ.one()), (3, QQ.one())]


def test_integer_non_unit_head():
    f = TruncatedSeries.from_laurent(P(ZZ, (0, 2), (1, -1)),
                                     power_series(ZZ), 4)
    with pytest.raises(NotAUnitError):
        f.invert()


def test_inverse_direction_expansion():
    # -x(1 - 2x^-1) = -x + 2 in Z((x^-1)); inverse is
    # -x^-1 (1 + 2 x^-1 + 4 x^-2) by hand expansion
    f = TruncatedSeries.from_laurent(P(ZZ, (1, -1), (0, 2)),
                                     laurent_series(ZZ, direction=-1), 3)
    g = f.invert()
    assert g.x_terms() == [(-1, -1), (-2, -2), (-3, -4)]


def test_positive_valuation_not_invertible_in_power_series():
    f = TruncatedSeries.from_laurent(P(QQ, (1, 1)), power_series(QQ), 4)
    with pytest.raises(NotAUnitError):
        f.invert()
    # but fine in the Laurent series ring
    g = TruncatedSeries.from_laurent(P(QQ, (1, 1)),
                                     laurent_series(QQ), 4).invert()
    assert g.x_terms() == [(-1, QQ.one())]


@pytest.mark.parametrize("ring", [QQ, GF(7), ZZ])
def test_inverse_identity_on_window(ring):
    rng = random.Random(hash(ring.tag) & 0xFF)
    one = TruncatedSeries.one(laurent_series(ring), 6)
    for _ in range(50):
        coeffs = {0: ring.from_int(rng.choice([1, -1]))}
        for _ in range(rng.randint(0, 4)):
            coeffs[rng.randint(1, 5)] = ring.from_int(rng.randint(-4, 4))
        f = TruncatedSeries.from_laurent(
            LaurentPoly(ring, coeffs).times_monomial(rng.randint(-2, 2)),
            laurent_series(ring), 6)
        err = f * f.invert() - TruncatedSeries.one(
            laurent_series(ring), 6)
        assert err.is_zero_on_window


def test_multiplication_window_tracking():
    f = TruncatedSeries.from_laurent(P(QQ, (0, 1), (1, 1)),
                                     power_series(QQ), 5)
    g = TruncatedSeries.from_laurent(P(QQ, (2, 1)), power_series(QQ), 3)
    h = f * g
    assert h.start == 2
    assert h.width == 3          # min of the operand widths
    assert h.end == 5


def test_addition_window_is_intersection():
    f = TruncatedSeries.from_laurent(P(QQ, (0, 1)), power_series(QQ), 6)
    g = TruncatedSeries.from_laurent(P(QQ, (1, 1)), power_series(QQ), 3)
    s = f + g
    assert s.end == min(f.end, g.end)
    assert s.coeff(0) == QQ.one() and s.coeff(1) == QQ.one()


def test_zero_window_has_no_valuation():
    z = TruncatedSeries.zero_window(power_series(QQ), 4)
    assert z.valuation is None
    with pytest.raises(NotAUnitError):
        z.invert()
