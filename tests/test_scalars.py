import pytest
from fractions import Fraction

from p1dom.errors import NotAUnitError, UnsupportedRingError
from p1dom.scalars import GF, QQ, ZZ, ring_from_tag


def test_rational_representation():
    assert QQ.parse("3/6") == Fraction(1, 2)
    assert QQ.render(Fraction(-4, 8)) == "-1/2"
    assert QQ.render(Fraction(5)) == "5"
    assert QQ.parse("-7") == Fraction(-7)


def test_gf_canonical_representatives():
    r = GF(7)
    assert r.normalise(-1) == 6
    assert r.add(5, 4) == 2
    assert r.mul(3, 5) == 1
    assert r.invert(3) == 5
    assert r.parse("12") == 5


def test_gf_requires_prime():
    with pytest.raises(UnsupportedRingError):
        GF(6)


def test_integer_units():
    assert ZZ.is_unit(1) and ZZ.is_unit(-1)
    assert not ZZ.is_unit(2)
    with pytest.raises(NotAUnitError):
        ZZ.invert(2)


def test_field_inverse_exhaustive_gf11():
    r = GF(11)
    for a in range(1, 11):
        assert r.mul(a, r.invert(a)) == 1


def test_ring_tags_round_trip():
    for tag in ("Q", "Z", "GF(13)"):
        assert ring_from_tag(tag).tag == tag
    assert ring_from_tag("GF:13") == GF(13)
    with pytest.raises(UnsupportedRingError):
        ring_from_tag("R")


def test_ring_tags_are_parsed_once():
    # a frozen ring is shared: the second load of a tag runs no primality
    # test, and a bad tag raises every time, since exceptions are not cached
    assert ring_from_tag("GF(7)") is ring_from_tag("GF(7)")
    assert ring_from_tag("GF(7)") == ring_from_tag("GF:7") == GF(7)
    for _ in range(2):
        with pytest.raises(UnsupportedRingError, match="not prime"):
            ring_from_tag("GF(8)")
        with pytest.raises(ValueError):
            ring_from_tag("GF(x)")
