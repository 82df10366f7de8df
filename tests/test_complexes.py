import random

import pytest

from p1dom.complexes import (ChainComplex, ChainMap, Homotopy, cone,
                             homology, is_acyclic, is_quasi_iso,
                             verify_homotopy_retract)
from p1dom.errors import RingMismatchError, UnsupportedRingError
from p1dom.generators import (basis_change, random_complex,
                              random_invertible, random_invertible_pair,
                              random_retract_witness, random_ring)
from p1dom.laurent import BaseRing, LaurentPoly
from p1dom.matrices import LaurentMatrix
from p1dom.scalars import GF, QQ, ZZ

from helpers import M, P, two_term


def test_validate_zero_complex():
    assert ChainComplex.zero(QQ).validate() == []


def test_validate_two_term():
    assert two_term(QQ, [(1, 1), (0, -1)]).validate() == []


def test_validate_reports_dd_violation():
    c = ChainComplex(QQ, BaseRing.LAURENT, 0, 2, {0: 1, 1: 1, 2: 1},
                     {1: M(QQ, [[[(1, 1)]]]), 2: M(QQ, [[[(1, 1)]]])})
    problems = c.validate()
    assert problems == ["degree 2: d.d != 0"]


def test_validate_reports_base_violation():
    c = ChainComplex(QQ, BaseRing.POLY, 0, 1, {0: 1, 1: 1},
                     {1: M(QQ, [[[(-1, 1)]]], BaseRing.LAURENT)})
    assert any("violates K[x]" in p for p in c.validate())


def test_homology_torsion_example():
    rep = homology(two_term(QQ, [(1, 1), (0, -1)]))
    assert rep.entry(0).free_rank == 0
    assert [str(f) for f in rep.entry(0).torsion] == ["-1 + x"]
    assert rep.entry(1).is_zero
    assert rep.total_kdim() == 1


def test_homology_free_example():
    rep = homology(ChainComplex.single(QQ, BaseRing.LAURENT, 0, 1))
    assert rep.entry(0).free_rank == 1
    assert rep.entry(0).kdim is None


def test_homology_unit_differential_acyclic():
    assert is_acyclic(two_term(QQ, [(1, 1)]))


def test_homology_integer_base_unsupported():
    with pytest.raises(UnsupportedRingError):
        homology(two_term(ZZ, [(1, 1)]))


def test_cone_identity_is_acyclic():
    c = ChainComplex.single(QQ, BaseRing.LAURENT, 0, 1)
    cc, incl, proj = cone(ChainMap.identity(c))
    assert {m: cc.rank(m) for m in cc.degrees()} == {0: 1, 1: 1}
    assert cc.diff(1) == M(QQ, [[1]])
    assert is_acyclic(cc)
    assert incl.is_valid and proj.is_valid


def test_cone_of_zero_between_zero_complexes():
    z = ChainComplex.zero(QQ)
    cc, _, _ = cone(ChainMap.zero(z, z))
    assert cc.is_zero


def test_cone_of_multiplication_matches_two_term():
    c = ChainComplex.single(QQ, BaseRing.LAURENT, 0, 1)
    f = ChainMap(c, c, {0: M(QQ, [[[(1, 1), (0, -1)]]])})
    cc, _, _ = cone(f)
    ref = two_term(QQ, [(1, 1), (0, -1)])
    assert homology(cc).total_kdim() == homology(ref).total_kdim() == 1


def test_shift_of_zero():
    assert ChainComplex.zero(QQ).shift(5).is_zero


def test_shift_sign_convention():
    c = two_term(QQ, [(1, 1), (0, -1)])
    assert c.shift(1).diff(2) == -c.diff(1)
    assert c.shift(2).diff(3) == c.diff(1)
    assert c.shift(1).shift(-1) == c


def test_direct_sum_ranks_add():
    a = random_complex(random.Random(1), QQ)
    b = random_complex(random.Random(2), QQ)
    s = a.direct_sum(b)
    for m in s.degrees():
        assert s.rank(m) == a.rank(m) + b.rank(m)
    assert s.validate() == []


def test_direct_sum_ring_mismatch():
    with pytest.raises(RingMismatchError):
        ChainComplex.zero(QQ).direct_sum(ChainComplex.zero(GF(5)))


def test_euler_characteristic_matches_free_ranks():
    rng = random.Random(17)
    for _ in range(30):
        ring = random_ring(rng)
        c = random_complex(rng, ring)
        euler = sum((-1) ** m * c.rank(m) for m in c.degrees())
        rep = homology(c)
        hom_euler = sum((-1) ** q * e.free_rank
                        for q, e in rep.entries.items())
        assert euler == hom_euler


def _canonical_torsion_chain(ring, factors):
    """Invariant-factor chain of a direct sum of cyclic torsion modules.

    Concatenated factor lists are recombined by diagonalising the diagonal
    presentation, which is the canonical form the structure theorem gives.
    """
    from p1dom.smith import invariant_factors

    if not factors:
        return []
    diag = LaurentMatrix.scalar_diag(ring, list(factors))
    return [str(f) for f in invariant_factors(diag)
            if f.core_degree > 0]


def test_homology_additive_on_sums():
    rng = random.Random(23)
    for _ in range(15):
        ring = random_ring(rng)
        a = random_complex(rng, ring, 3, 2)
        b = random_complex(rng, ring, 3, 2)
        ra, rb = homology(a), homology(b)
        rs = homology(a.direct_sum(b))
        for q in rs.entries:
            assert rs.entry(q).free_rank == \
                ra.entry(q).free_rank + rb.entry(q).free_rank
            combined = _canonical_torsion_chain(
                ring, ra.entry(q).torsion + rb.entry(q).torsion)
            assert [str(f) for f in rs.entry(q).torsion] == combined


def test_cone_of_identity_acyclic_randomised():
    rng = random.Random(31)
    for _ in range(20):
        c = random_complex(rng, random_ring(rng), 3, 3)
        cc, _, _ = cone(ChainMap.identity(c))
        assert is_acyclic(cc)


def test_retract_identity_witness():
    c = random_complex(random.Random(4), QQ, 3, 2)
    r = ChainMap.identity(c)
    assert verify_homotopy_retract(c, r, r, Homotopy.zero(c))


def test_retract_contraction_of_unit_complex():
    # C = (x) two-term acyclic, D = 0, h0 = [x^-1]: x * x^-1 = 1 = id - 0
    c = two_term(QQ, [(1, 1)])
    d = ChainComplex.zero(QQ)
    r = ChainMap.zero(d, c)
    s = ChainMap.zero(c, d)
    h = Homotopy(c, c, {0: M(QQ, [[[(-1, 1)]]])})
    assert verify_homotopy_retract(d, r, s, h)


def test_retract_rejects_wrong_homotopy():
    c = two_term(QQ, [(1, 1)])
    d = ChainComplex.zero(QQ)
    r = ChainMap.zero(d, c)
    s = ChainMap.zero(c, d)
    assert not verify_homotopy_retract(d, r, s, Homotopy.zero(c))


def test_retract_generated_witnesses():
    rng = random.Random(8)
    for _ in range(20):
        d, r, s, h = random_retract_witness(rng, random_ring(rng))
        assert verify_homotopy_retract(d, r, s, h)


@pytest.mark.parametrize("ring", [QQ, GF(7), ZZ])
def test_random_invertible_pair_is_inverse(ring):
    # T^-1 is built alongside T by inverse column operations, with the
    # same draws as random_invertible
    rng = random.Random(21)
    for n in range(6):
        state = rng.getstate()
        t, t_inv = random_invertible_pair(rng, ring, n, span=2)
        rng.setstate(state)
        assert random_invertible(rng, ring, n, span=2) == t
        assert (t @ t_inv).is_identity
        assert (t_inv @ t).is_identity
        if n:
            assert t.determinant().is_unit


def test_retract_invariant_under_basis_change():
    # replace C by a basis-changed copy; transported (r, s, h) still verify
    rng = random.Random(12)
    for _ in range(10):
        ring = random_ring(rng)
        d, r, s, h = random_retract_witness(rng, ring)
        c = r.target
        pairs = {m: random_invertible_pair(rng, ring, c.rank(m))
                 for m in c.degrees()}
        t = {m: pair[0] for m, pair in pairs.items()}
        tinv = {m: pair[1] for m, pair in pairs.items()}

        def T(m):
            return t.get(m, LaurentMatrix.identity(ring, c.rank(m)))

        def Tinv(m):
            return tinv.get(m, LaurentMatrix.identity(ring, c.rank(m)))

        c2 = ChainComplex(ring, c.base, c.lo, c.hi, c.ranks, {
            m: Tinv(m - 1) @ c.diff(m) @ T(m)
            for m in range(c.lo + 1, c.hi + 1)})
        r2 = ChainMap(d, c2, {m: Tinv(m) @ r.component(m)
                              for m in c.degrees()})
        s2 = ChainMap(c2, d, {m: s.component(m) @ T(m)
                              for m in c.degrees()})
        h2 = Homotopy(c2, c2, {m: Tinv(m + 1) @ h.component(m) @ T(m)
                               for m in range(c.lo - 1, c.hi + 1)})
        assert verify_homotopy_retract(d, r2, s2, h2)


def test_quasi_iso_detects_non_iso():
    a = ChainComplex.single(QQ, BaseRing.LAURENT, 0, 1)
    z = ChainComplex.zero(QQ)
    assert not is_quasi_iso(ChainMap.zero(a, z))
    assert is_quasi_iso(ChainMap.identity(a))
