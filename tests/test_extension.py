import random

import pytest

from p1dom.complexes import ChainComplex
from p1dom.errors import ShapeError
from p1dom.extension import extend_complex, restrict_to_torus
from p1dom.generators import random_complex
from p1dom.laurent import BaseRing
from p1dom.matrices import LaurentMatrix
from p1dom.scalars import GF, QQ, ZZ
from p1dom.sheaves import cech_cohomology, twisting_sheaf

from helpers import (M, P, chart, direct_sum, grid_matrix, maxdeg, mindeg,
                     nonzero_entries, random_ring, shift, single, two_term,
                     vanishes, zero_complex)
from paper_lemmas import (ChainMap, cone, extend_cone, extend_morphism,
                          is_acyclic)


def test_extend_morphism_monomial():
    # f = x^3 between trivial bundles factors after twisting by 3
    ext = extend_morphism(twisting_sheaf(0), twisting_sheaf(0),
                          M(QQ, [[[(3, 1)]]]))
    assert (ext.k, ext.l) == (3, 0)
    assert ext.f_plus == M(QQ, [[[(3, 1)]]], BaseRing.POLY)
    assert ext.f_minus == M(QQ, [[1]], BaseRing.POLY_INV)


def test_extend_morphism_identity():
    ext = extend_morphism(twisting_sheaf(2, 1), twisting_sheaf(2, 1),
                          M(QQ, [[1]]))
    assert (ext.k, ext.l) == (0, 0)
    assert ext.f_plus == M(QQ, [[1]], BaseRing.POLY)
    assert ext.f_minus == M(QQ, [[1]], BaseRing.POLY_INV)


def test_extend_morphism_mixed_exponents():
    # f = x^-2 + x needs l = 2 and k = 1; the plus chart sees 1 + x^3
    ext = extend_morphism(twisting_sheaf(0), twisting_sheaf(0),
                          M(QQ, [[[(-2, 1), (1, 1)]]]))
    assert (ext.k, ext.l) == (1, 2)
    assert ext.f_plus == M(QQ, [[[(0, 1), (3, 1)]]], BaseRing.POLY)
    assert ext.f_minus == M(QQ, [[[(-3, 1), (0, 1)]]], BaseRing.POLY_INV)


def test_extend_morphism_zero_map():
    ext = extend_morphism(twisting_sheaf(0), twisting_sheaf(3),
                          LaurentMatrix.zero(QQ, 1, 1))
    assert (ext.k, ext.l) == (0, 0)


def _legal_with(z, y, f, k, l):
    """Brute-force legality: do both chart matrices stay in their rings?"""
    for i, j, p in nonzero_entries(f):
        if l + y[i][1] - z[j][1] + mindeg(p) < 0:
            return False
        if -k - y[i][0] + z[j][0] + maxdeg(p) > 0:
            return False
    return True


def test_extend_morphism_minimality_scan():
    rng = random.Random(21)
    for _ in range(40):
        ring = random_ring(rng)
        z = twisting_sheaf(rng.randint(-2, 3), rng.randint(-1, 2),
                           rng.randint(1, 2))
        y = twisting_sheaf(rng.randint(-2, 3), rng.randint(-1, 2),
                           len(z))
        grid = [[P(ring, *[(rng.randint(-3, 3), rng.randint(-2, 2))
                           for _ in range(2)])
                 for _ in range(len(z))] for _ in range(len(y))]
        f = grid_matrix(ring, len(y), len(z), grid)
        if f.is_zero:
            continue
        ext = extend_morphism(z, y, f)
        # scan all smaller candidates up to 16: none may be legal
        assert _legal_with(z, y, f, ext.k, ext.l)
        if ext.l > 0:
            assert not _legal_with(z, y, f, ext.k, ext.l - 1)
        if ext.k > 0:
            assert not _legal_with(z, y, f, ext.k - 1, ext.l)
        for l2 in range(0, min(ext.l, 16)):
            assert not _legal_with(z, y, f, 16, l2)
        for k2 in range(0, min(ext.k, 16)):
            assert not _legal_with(z, y, f, k2, 16)


def test_extend_complex_x_minus_one():
    ext = extend_complex(two_term(QQ, [(1, 1), (0, -1)]))
    assert ext.profile == {1: (0, 0), 0: (1, 0)}
    assert chart(ext.sheaf, "plus").diff(1) == M(
        QQ, [[[(1, 1), (0, -1)]]], BaseRing.POLY)
    assert chart(ext.sheaf, "minus").diff(1) == M(
        QQ, [[[(0, 1), (-1, -1)]]], BaseRing.POLY_INV)


def test_extend_complex_zero_differential():
    c = single(QQ, BaseRing.LAURENT, 0, 3)
    ext = extend_complex(c)
    assert ext.profile == {0: (0, 0)}
    assert set(ext.sheaf.twists[0]) == {(0, 0)}


def test_extend_complex_zero_matrix_propagates():
    # x^2 then zero: profile (0,0), (2,0), (2,0)
    x2 = M(QQ, [[[(2, 1)]]])
    c = ChainComplex(QQ, BaseRing.LAURENT, 0, 2, {0: 1, 1: 1, 2: 1},
                     {2: x2, 1: LaurentMatrix.zero(QQ, 1, 1)})
    ext = extend_complex(c)
    assert ext.profile == {2: (0, 0), 1: (2, 0), 0: (2, 0)}


def test_extend_complex_carries_a_twist_through_an_empty_level():
    # ranks 0/1/1 and d_2 = x - 1, samples/empty-level.cplx
    c = ChainComplex(QQ, BaseRing.LAURENT, 0, 2, {0: 0, 1: 1, 2: 1},
                     {2: M(QQ, [[[(0, -1), (1, 1)]]])})
    ext = extend_complex(c)
    assert ext.profile == ext.sheaf.twist_profile() == {
        2: (0, 0), 1: (1, 0), 0: (1, 0)}


@pytest.mark.parametrize("ring", [QQ, GF(7), ZZ], ids=lambda r: r.tag)
def test_extension_profile_is_the_sheaf_twist_profile(ring):
    rng = random.Random(f"profile/{ring.tag}")
    for _ in range(80):
        ext = extend_complex(random_complex(rng, ring, max_length=4,
                                            max_rank=3, span=3))
        assert ext.profile == ext.sheaf.twist_profile()


def test_extend_complex_requires_valid_input():
    bad = ChainComplex(QQ, BaseRing.LAURENT, 0, 2, {0: 1, 1: 1, 2: 1},
                       {1: M(QQ, [[[(1, 1)]]]), 2: M(QQ, [[[(1, 1)]]])})
    with pytest.raises(ShapeError, match="invalid complex"):
        extend_complex(bad)


def test_extend_complex_validates_each_complex_once(monkeypatch):
    # the input alone: the charts are derived from it and its twists, and
    # the middle of the sheaf is the input
    calls = []
    original = ChainComplex.validate

    def counting(self):
        calls.append(self.base)
        return original(self)

    c = random_complex(random.Random(9), QQ)
    monkeypatch.setattr(ChainComplex, "validate", counting)
    ext = extend_complex(c)
    assert calls == [BaseRing.LAURENT]
    calls.clear()
    assert ext.sheaf.mid.validate() == []
    assert calls == [BaseRing.LAURENT]


def test_restriction_round_trip_examples():
    for pairs in ([(1, 1), (0, -1)], [(1, 1)], [(0, 2), (-3, 5)]):
        c = two_term(QQ, pairs)
        assert restrict_to_torus(extend_complex(c).sheaf) == c
    z = zero_complex(QQ)
    assert vanishes(restrict_to_torus(extend_complex(z).sheaf))
    ext = extend_complex(single(QQ, BaseRing.LAURENT, 0, 2))
    r = restrict_to_torus(ext.sheaf)
    assert r.rank(0) == 2 and r.validate() == []


def test_round_trip_randomised_with_invariants():
    rng = random.Random(77)
    for _ in range(60):
        ring = random_ring(rng)
        c = random_complex(rng, ring)
        ext = extend_complex(c)
        assert restrict_to_torus(ext.sheaf) == c
        assert all(k >= 0 and l >= 0 for k, l in ext.profile.values())
        for m in ext.sheaf.degrees():
            coh = cech_cohomology(ext.sheaf.twists[m])
            assert coh.h1_dim == 0
            # section counts: n + 1 per summand
            n = ext.profile[m][0] + ext.profile[m][1]
            assert coh.h0_dim == (n + 1) * c.rank(m)
        assert not ext.sheaf.mid.validate()


def test_extend_cone_identity():
    c = single(QQ, BaseRing.LAURENT, 0, 1)
    v = extend_complex(c)
    result = extend_cone(v.sheaf, v.sheaf, ChainMap.identity(c))
    assert is_acyclic(restrict_to_torus(result))


def test_extend_cone_x_minus_one():
    c = single(QQ, BaseRing.LAURENT, 0, 1)
    v1 = extend_complex(c)
    v2 = extend_complex(c)
    omega = ChainMap(c, c, {0: M(QQ, [[[(1, 1), (0, -1)]]])})
    result = extend_cone(v1.sheaf, v2.sheaf, omega)
    restricted = restrict_to_torus(result)
    reference = two_term(QQ, [(1, 1), (0, -1)])
    assert restricted == cone(omega)[0]
    # quasi-isomorphic to the two-term complex: equal here, and the
    # comparison map has acyclic cone
    comparison = ChainMap.identity(reference)
    assert restricted == reference
    assert is_acyclic(cone(comparison)[0])


def test_extend_cone_zero_map_is_shifted_sum():
    c = single(QQ, BaseRing.LAURENT, 0, 1)
    v = extend_complex(c)
    result = extend_cone(v.sheaf, v.sheaf, ChainMap(c, c))
    restricted = restrict_to_torus(result)
    expected = direct_sum(c, shift(c, 1))
    assert {m: restricted.rank(m) for m in restricted.degrees()} == \
        {m: expected.rank(m) for m in expected.degrees()}
    assert restricted.diff(1).is_zero


def test_extend_cone_random_quasi_iso_to_cone():
    rng = random.Random(31)
    for _ in range(10):
        ring = random_ring(rng)
        a = random_complex(rng, ring, 2, 2)
        v1 = extend_complex(a)
        v2 = extend_complex(a)
        omega = ChainMap.identity(a)
        result = extend_cone(v1.sheaf, v2.sheaf, omega)
        restricted = restrict_to_torus(result)
        target, _, _ = cone(omega)
        assert restricted == target
        assert not result.mid.validate()
