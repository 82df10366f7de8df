import random

import pytest
from fractions import Fraction
from sympy import isprime, nextprime

from p1dom.errors import UnsupportedRingError
from p1dom.scalars import (GF, MAX_MODULUS, QQ, ZZ, CoefficientRing,
                           _is_prime, ring_from_tag)

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


def test_trial_division_agrees_with_sympy():
    # every n below 10^5, then seeded draws below the bound: any n, odd
    # products of two primes above 2^15 (the longest composite runs) and
    # 3215031751, a strong pseudoprime to the bases 2, 3, 5 and 7, 65521^2
    # (the divisor isqrt(n) itself), the largest prime below the bound and
    # the bound
    assert [n for n in range(10**5) if _is_prime(n) != isprime(n)] == []
    rng = random.Random("scalars/is-prime")
    draws = [rng.randrange(MAX_MODULUS + 1) for _ in range(200)]
    draws += [nextprime(rng.randrange(2**15, 65500))
              * nextprime(rng.randrange(2**15, 65500)) for _ in range(20)]
    draws += [3215031751, 65521**2, 4294967291, MAX_MODULUS]
    assert [n for n in draws if _is_prime(n) != isprime(n)] == []


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
    with pytest.raises(UnsupportedRingError):
        ring_from_tag("R")


def test_ring_repr_is_its_tag():
    # hypothesis prints a drawn ring through it, as in "ring=Z"
    assert [repr(r) for r in (QQ, ZZ, GF(7))] == ["Q", "Z", "GF(7)"]


def test_ring_tags_are_parsed_once():
    # a frozen ring is shared: GF's cache runs no second primality test
    # for a tag seen before, and a bad tag raises every time, since
    # exceptions are not cached
    assert ring_from_tag("GF(7)") is ring_from_tag("GF(7)") is GF(7)
    for _ in range(2):
        with pytest.raises(UnsupportedRingError, match="not prime"):
            ring_from_tag("GF(8)")
        with pytest.raises(ValueError):
            ring_from_tag("GF(x)")


@pytest.mark.parametrize("tag", [
    "GF(1_0007)", "GF(+7)", "GF( 7)", "GF(7 )", "GF(\uff17)", " Q", "Z\n",
    "GF:0_7", "GF: 7", "GF:\u0667", "GF()", "GF:", "GF:7", "GF:13"])
def test_ring_tags_take_an_ascii_modulus(tag):
    # as in coefficient strings, the modulus is ASCII [0-9]+ and nothing
    # around the tag is stripped
    with pytest.raises(UnsupportedRingError, match="unknown ring tag"):
        ring_from_tag(tag)
    assert ring_from_tag("GF(007)") is ring_from_tag("GF(7)") is GF(7)


@pytest.mark.parametrize("kind, p, message", [
    ("R", 0, "unknown ring kind 'R'"),
    ("Q", 7, "modulus only allowed for GF rings"),
    ("Z", 7, "modulus only allowed for GF rings"),
    # above the bound no primality work runs and the modulus is not
    # echoed: psi_12 = 399165290221 * 798330580441 is a strong pseudoprime
    # to the twelve prime bases up to 37, 2^11213 - 1 a Mersenne prime
    ("GF", 2**32, "GF modulus exceeds MAX_MODULUS = 4294967295"),
    ("GF", 318665857834031151167461,
     "GF modulus exceeds MAX_MODULUS = 4294967295"),
    pytest.param("GF", 2**11213 - 1,
                 "GF modulus exceeds MAX_MODULUS = 4294967295",
                 id="GF-2^11213-1"),
])
def test_ring_kind_and_modulus_are_checked(kind, p, message):
    with pytest.raises(UnsupportedRingError, match=f"^{message}$"):
        CoefficientRing(kind, p)
    # a ring is a NamedTuple: _replace (by _make) checks as well
    with pytest.raises(UnsupportedRingError, match=f"^{message}$"):
        QQ._replace(kind=kind, p=p)
