import pytest
from fractions import Fraction

from p1dom.errors import UnsupportedRingError
from p1dom.scalars import GF, QQ, ZZ, CoefficientRing, ring_from_tag

from helpers import add, invert, mul, normalise


def test_rational_representation():
    assert QQ.parse("3/6") == Fraction(1, 2)
    assert QQ.render(Fraction(-4, 8)) == "-1/2"
    assert QQ.render(Fraction(5)) == "5"
    assert QQ.parse("-7") == Fraction(-7)


def test_gf_canonical_representatives():
    r = GF(7)
    assert normalise(r, -1) == 6
    assert add(r, 5, 4) == 2
    assert mul(r, 3, 5) == 1
    assert invert(r, 3) == 5
    assert r.parse("12") == 5


def test_gf_requires_prime():
    with pytest.raises(UnsupportedRingError):
        GF(6)


def test_integer_units():
    assert ZZ.is_unit(1) and ZZ.is_unit(-1)
    assert not ZZ.is_unit(2)
    with pytest.raises(ArithmeticError, match="^2 is not a unit of Z$"):
        invert(ZZ, 2)


def test_field_inverse_exhaustive_gf11():
    r = GF(11)
    for a in range(1, 11):
        assert mul(r, a, invert(r, a)) == 1


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


@pytest.mark.parametrize("tag", [
    "GF(1_0007)", "GF(+7)", "GF( 7)", "GF(7 )", "GF(\uff17)", " Q", "Z\n",
    "GF:0_7", "GF: 7", "GF:\u0667", "GF()", "GF:"])
def test_ring_tags_take_an_ascii_modulus(tag):
    # as in coefficient strings, the modulus is ASCII [0-9]+ and nothing
    # around the tag is stripped
    with pytest.raises(UnsupportedRingError, match="unknown ring tag"):
        ring_from_tag(tag)
    assert ring_from_tag("GF(007)") is ring_from_tag("GF:7") is GF(7)


@pytest.mark.parametrize("kind, p, message", [
    ("R", 0, "unknown ring kind 'R'"),
    ("Q", 7, "modulus only allowed for GF rings"),
    ("Z", 7, "modulus only allowed for GF rings"),
])
def test_ring_kind_and_modulus_are_checked(kind, p, message):
    with pytest.raises(UnsupportedRingError, match=f"^{message}$"):
        CoefficientRing(kind, p)
