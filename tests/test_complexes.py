import random
from fractions import Fraction

import pytest

from p1dom.complexes import ChainComplex, homology
from p1dom.errors import RingMismatchError, ShapeError, UnsupportedRingError
from p1dom.generators import random_complex
from p1dom.laurent import BaseRing, render
from p1dom.matrices import LaurentMatrix
from p1dom.scalars import GF, QQ, ZZ

from helpers import (LaurentPoly, M, basis_change, block, dense, determinant,
                     direct_sum, grid_matrix, identity, is_unit, matmul,
                     matneg, monomial, nonzero_entries, polyadd,
                     random_invertible_pair, random_ring, scalar_diag, shift,
                     single, submatrix, two_term, vanishes, zero_complex)
from paper_lemmas import (ChainMap, Homotopy, cone, inclusion, is_acyclic,
                          is_quasi_iso, null_homotopic_map,
                          random_retract_witness, verify_homotopy_retract)


def test_validate_zero_complex():
    assert zero_complex(QQ).validate() == []


def test_validate_two_term():
    assert two_term(QQ, [(1, 1), (0, -1)]).validate() == []


def test_repr_names_ring_base_and_ranks():
    assert repr(two_term(GF(7), [(1, 1), (0, -1)])) == (
        "ChainComplex(GF(7), K[x,x^-1], ranks {0:1, 1:1})")
    assert repr(ChainComplex(QQ, BaseRing.POLY, 0, 1, {1: 2})) == (
        "ChainComplex(Q, K[x], ranks {0:0, 1:2})")


def test_validate_reports_dd_violation():
    c = ChainComplex(QQ, BaseRing.LAURENT, 0, 2, {0: 1, 1: 1, 2: 1},
                     {1: M(QQ, [[[(1, 1)]]]), 2: M(QQ, [[[(1, 1)]]])})
    problems = c.validate()
    assert problems == ["degree 2: d.d != 0"]


@pytest.mark.parametrize("lo, hi, ranks, diffs, error, message", [
    (1, 0, {}, {}, ShapeError, r"support interval \[1, 0\] is empty"),
    (0, 0, {0: -1}, {}, ShapeError, "negative rank"),
    (0, 1, {0: 1, 1: 1}, {1: M(QQ, [[1, 1]])}, ShapeError,
     "differential at degree 1 has shape 1x2, expected 1x1"),
    (0, 1, {0: 1, 1: 1}, {1: M(GF(7), [[1]])}, RingMismatchError,
     "differential over a different ring"),
    (0, 1, {0: 1, 1: 1}, {2: M(QQ, [[1]])}, ShapeError,
     "differential at degree 2 out of support"),
], ids=["empty-support", "negative-rank", "shape", "ring", "out-of-support"])
def test_constructor_refuses_a_malformed_complex(lo, hi, ranks, diffs, error,
                                                 message):
    with pytest.raises(error, match=f"^{message}$"):
        ChainComplex(QQ, BaseRing.LAURENT, lo, hi, ranks, diffs)


def test_validate_reports_base_violation():
    # only K[x,x^-1], which every entry respects, skips the exponent scan
    for base, exponent in ((BaseRing.POLY, -1), (BaseRing.POLY_INV, 2)):
        c = ChainComplex(QQ, base, 0, 1, {0: 1, 1: 1},
                         {1: M(QQ, [[[(exponent, 1)]]], BaseRing.LAURENT)})
        assert c.validate() == [
            f"degree 1: entry (0,0) = x^{exponent} violates {base.tag}"]
    c = ChainComplex(QQ, BaseRing.LAURENT, 0, 2, {0: 1, 1: 1, 2: 1},
                     {1: M(QQ, [[[(-1, 1)]]]), 2: M(QQ, [[[(1, 1)]]])})
    assert c.validate() == ["degree 2: d.d != 0"]


# -- the d.d = 0 check over Q on entries with denominators ------------------


def matmul_problems(c):
    """The d.d = 0 report by LaurentMatrix products, in Fraction
    arithmetic: the oracle of the integer check of ``validate``."""
    return [f"degree {m}: d.d != 0" for m in range(c.lo + 2, c.hi + 1)
            if not matmul(c.diff(m - 1), c.diff(m)).is_zero]


def q_complexes_with_denominators(rng, count):
    """Q complexes conjugated by invertible matrices whose unit monomials
    have coefficients 2 and 3, so their inverses bring denominators."""
    for _ in range(count):
        yield basis_change(rng, random_complex(rng, QQ, max_length=5,
                                               max_rank=6, span=2))


def with_term(c, m, i, j, term):
    """c with ``term`` added to entry (i, j) of d_m."""
    d = c.diff(m)
    entries = dense(d)
    entries[i][j] = polyadd(entries[i][j], term)
    diffs = dict(c.diffs)
    diffs[m] = grid_matrix(c.ring, d.rows, d.cols, entries)
    return ChainComplex(c.ring, c.base, c.lo, c.hi, c.ranks, diffs)


def nonzero_column(d, i):
    return any(i in row for row in d.data)


def nonzero_row(d, j):
    return bool(d.data[j])


def test_q_validate_with_denominators_matches_matmul():
    dens = set()
    for c in q_complexes_with_denominators(random.Random(23), 40):
        dens.update(x.denominator for m in range(c.lo + 1, c.hi + 1)
                    for _, _, p in nonzero_entries(c.diff(m))
                    for _, x in p.items())
        assert c.validate() == [] == matmul_problems(c)
    assert any(k % 2 == 0 for k in dens) and any(k % 3 == 0 for k in dens)


def test_q_validate_reports_a_fractional_defect():
    # a term 1/7 x^k added to entry (i, j) of d_m, with column i of d_{m-1}
    # nonzero, breaks d.d = 0 in degree m; degree m + 1 breaks too exactly
    # when row j of d_{m+1} is nonzero, and the degrees are listed in order
    rng = random.Random(7)
    seen, several = 0, 0
    for c in q_complexes_with_denominators(rng, 60):
        for m in range(c.lo + 2, c.hi + 1):
            below = c.diff(m - 1)
            cols = [i for i in range(below.cols) if nonzero_column(below, i)]
            if not cols or not c.diff(m).cols:
                continue
            for j in range(c.diff(m).cols):
                term = monomial(QQ, rng.randint(-3, 3), Fraction(1, 7))
                bad = with_term(c, m, rng.choice(cols), j, term)
                problems = bad.validate()
                assert problems == matmul_problems(bad)
                expected = [m]
                if m < c.hi and nonzero_row(c.diff(m + 1), j):
                    expected.append(m + 1)
                    several += 1
                assert problems == [f"degree {q}: d.d != 0" for q in expected]
                seen += 1
    assert seen >= 40 and several >= 10, (seen, several)


def test_q_validate_lists_every_failing_degree_in_order():
    def q(*pairs):
        return LaurentPoly(QQ, dict(pairs))

    d = {1: q((1, Fraction(1, 2))), 2: q((0, Fraction(1, 3))),
         3: q((-1, 1), (0, Fraction(-1, 6))), 4: q((0, 0))}
    c = ChainComplex(QQ, BaseRing.LAURENT, 0, 4, dict.fromkeys(range(5), 1),
                     {m: grid_matrix(QQ, 1, 1, [[p]]) for m, p in d.items()})
    assert c.validate() == matmul_problems(c) == [
        "degree 2: d.d != 0", "degree 3: d.d != 0"]


def test_homology_torsion_example():
    rep = homology(two_term(QQ, [(1, 1), (0, -1)]))
    assert rep.entry(0).free_rank == 0
    assert [render(QQ, f) for f in rep.entry(0).torsion] == ["-1 + x"]
    assert vanishes(rep.entry(1))
    assert sum(e.kdim for e in rep.entries.values()) == 1


def test_homology_free_example():
    rep = homology(single(QQ, BaseRing.LAURENT, 0, 1))
    assert rep.entry(0).free_rank == 1
    assert rep.entry(0).kdim is None


def test_homology_unit_differential_acyclic():
    assert is_acyclic(two_term(QQ, [(1, 1)]))


def test_homology_integer_base_unsupported():
    with pytest.raises(UnsupportedRingError):
        homology(two_term(ZZ, [(1, 1)]))


def test_cone_identity_is_acyclic():
    c = single(QQ, BaseRing.LAURENT, 0, 1)
    cc, incl, proj = cone(ChainMap.identity(c))
    assert {m: cc.rank(m) for m in cc.degrees()} == {0: 1, 1: 1}
    assert cc.diff(1) == M(QQ, [[1]])
    assert is_acyclic(cc)
    assert not incl.validate() and not proj.validate()


def test_cone_of_zero_between_zero_complexes():
    z = zero_complex(QQ)
    cc, _, _ = cone(ChainMap(z, z))
    assert vanishes(cc)


@pytest.mark.parametrize("ring", [QQ, GF(7), ZZ])
@pytest.mark.parametrize("base", [BaseRing.LAURENT, BaseRing.POLY,
                                  BaseRing.POLY_INV])
def test_cone_of_an_identity_is_the_two_term_complex_of_one(ring, base):
    for d in range(-3, 4):
        c = single(ring, base, d, 1)
        assert cone(ChainMap.identity(c))[0] == two_term(
            ring, [(0, 1)], d + 1, base)


def test_cone_of_multiplication_matches_two_term():
    c = single(QQ, BaseRing.LAURENT, 0, 1)
    f = ChainMap(c, c, {0: M(QQ, [[[(1, 1), (0, -1)]]])})
    cc, _, _ = cone(f)
    ref = two_term(QQ, [(1, 1), (0, -1)])
    assert [sum(e.kdim for e in homology(x).entries.values())
            for x in (cc, ref)] == [1, 1]


def test_shift_of_zero():
    assert vanishes(shift(zero_complex(QQ), 5))


def test_shift_sign_convention():
    c = two_term(QQ, [(1, 1), (0, -1)])
    assert shift(c, 1).diff(2) == matneg(c.diff(1))
    assert shift(c, 2).diff(3) == c.diff(1)
    assert shift(shift(c, 1), -1) == c


def test_direct_sum_ranks_add():
    a = random_complex(random.Random(1), QQ)
    b = random_complex(random.Random(2), QQ)
    s = direct_sum(a, b)
    for m in s.degrees():
        assert s.rank(m) == a.rank(m) + b.rank(m)
    assert s.validate() == []


def test_block_sizes_none_from_its_block_row_and_column():
    a = M(QQ, [[1, 2]])
    b = M(QQ, [[3], [[(1, 4)]]])
    c = M(QQ, [[5, 6, 7]])
    z = LaurentMatrix.zero
    got = block(QQ, [[a, None, None], [None, b, None],
                                   [None, None, c]])
    assert (got.rows, got.cols) == (4, 6)
    assert got == block(QQ, [
        [a, z(QQ, 1, 1), z(QQ, 1, 3)],
        [z(QQ, 2, 2), b, z(QQ, 2, 3)],
        [z(QQ, 1, 2), z(QQ, 1, 1), c]])
    # a block row of height 0 sizes its None blocks as 0 rows
    got = block(QQ, [[z(QQ, 0, 2), None], [None, b]])
    assert got == block(QQ, [[z(QQ, 2, 2), b]])


def test_block_rejects_a_ragged_or_unsized_grid():
    a = M(QQ, [[1, 2]])
    b = M(QQ, [[3], [4]])
    with pytest.raises(ShapeError, match="ragged block grid"):
        block(QQ, [[a, None], [b]])
    with pytest.raises(ShapeError, match="ragged block grid"):
        block(QQ, [[a], [b]])
    with pytest.raises(ShapeError, match="block row 1 has no sized block"):
        block(QQ, [[a, submatrix(b, [0], [0])], [None, None]])
    with pytest.raises(ShapeError,
                       match="block column 1 has no sized block"):
        block(QQ, [[a, None], [M(QQ, [[1, 1]]), None]])


def test_cone_returns_the_inclusion_of_its_target():
    rng = random.Random(29)
    for ring in (QQ, GF(7)):
        for _ in range(10):
            a = random_complex(rng, ring, 3, 3)
            b = random_complex(rng, ring, 3, 3)
            cc, incl, _ = cone(null_homotopic_map(rng, a, b))
            ref = inclusion(b, cc)
            # ChainMap has no __eq__: compare ends and components
            assert (incl.source, incl.target) == (ref.source, ref.target)
            assert incl.components == ref.components
            assert not incl.validate()


def test_homotopy_fills_a_missing_component_with_a_shifted_zero():
    c = two_term(QQ, [(1, 1)])
    d = ChainComplex(QQ, BaseRing.LAURENT, 0, 2, {0: 2, 1: 3, 2: 1})
    h = Homotopy(c, d)
    for m in range(-3, 5):
        assert h.component(m) == LaurentMatrix.zero(QQ, d.rank(m + 1),
                                                    c.rank(m))
    assert (h.component(0).rows, h.component(0).cols) == (3, 1)
    with pytest.raises(ShapeError, match="homotopy at degree 0 has shape "
                                         "1x1, expected 3x1"):
        Homotopy(c, d, {0: M(QQ, [[1]])})
    with pytest.raises(RingMismatchError,
                       match="homotopy between different rings"):
        Homotopy(c, two_term(GF(7), [(1, 1)]))


def test_direct_sum_ring_mismatch():
    with pytest.raises(RingMismatchError):
        direct_sum(zero_complex(QQ), zero_complex(GF(5)))


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
    diag = scalar_diag(ring, [LaurentPoly.from_entry(ring, f)
                              for f in factors])
    return [render(ring, f) for f in invariant_factors(diag)
            if len(f[1]) > 1]


def test_homology_additive_on_sums():
    rng = random.Random(23)
    for _ in range(15):
        ring = random_ring(rng)
        a = random_complex(rng, ring, 3, 2)
        b = random_complex(rng, ring, 3, 2)
        ra, rb = homology(a), homology(b)
        rs = homology(direct_sum(a, b))
        for q in rs.entries:
            assert rs.entry(q).free_rank == \
                ra.entry(q).free_rank + rb.entry(q).free_rank
            combined = _canonical_torsion_chain(
                ring, ra.entry(q).torsion + rb.entry(q).torsion)
            assert [render(ring, f) for f in rs.entry(q).torsion] == combined


def test_cone_of_identity_acyclic_randomised():
    rng = random.Random(31)
    for _ in range(20):
        c = random_complex(rng, random_ring(rng), 3, 3)
        cc, _, _ = cone(ChainMap.identity(c))
        assert is_acyclic(cc)


def test_retract_identity_witness():
    c = random_complex(random.Random(4), QQ, 3, 2)
    r = ChainMap.identity(c)
    assert verify_homotopy_retract(c, r, r, Homotopy(c, c))


def test_retract_contraction_of_unit_complex():
    # C = (x) two-term acyclic, D = 0, h0 = [x^-1]: x * x^-1 = 1 = id - 0
    c = two_term(QQ, [(1, 1)])
    d = zero_complex(QQ)
    r = ChainMap(d, c)
    s = ChainMap(c, d)
    h = Homotopy(c, c, {0: M(QQ, [[[(-1, 1)]]])})
    assert verify_homotopy_retract(d, r, s, h)


def test_retract_rejects_wrong_homotopy():
    c = two_term(QQ, [(1, 1)])
    d = zero_complex(QQ)
    r = ChainMap(d, c)
    s = ChainMap(c, d)
    assert not verify_homotopy_retract(d, r, s, Homotopy(c, c))


def test_retract_generated_witnesses():
    rng = random.Random(8)
    for _ in range(20):
        d, r, s, h = random_retract_witness(rng, random_ring(rng))
        assert verify_homotopy_retract(d, r, s, h)


@pytest.mark.parametrize("ring", [QQ, GF(7), ZZ])
def test_random_invertible_pair_is_inverse(ring):
    # T^-1 is built alongside T by inverse column operations; the same
    # draws give the same T
    rng = random.Random(21)
    for n in range(6):
        state = rng.getstate()
        t, t_inv = random_invertible_pair(rng, ring, n, span=2)
        rng.setstate(state)
        assert random_invertible_pair(rng, ring, n, span=2)[0] == t
        assert matmul(t, t_inv) == identity(ring, n)
        assert matmul(t_inv, t) == identity(ring, n)
        if n:
            assert is_unit(determinant(t))


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
            return t.get(m, identity(ring, c.rank(m)))

        def Tinv(m):
            return tinv.get(m, identity(ring, c.rank(m)))

        c2 = ChainComplex(ring, c.base, c.lo, c.hi, c.ranks, {
            m: matmul(Tinv(m - 1), c.diff(m), T(m))
            for m in range(c.lo + 1, c.hi + 1)})
        r2 = ChainMap(d, c2, {m: matmul(Tinv(m), r.component(m))
                              for m in c.degrees()})
        s2 = ChainMap(c2, d, {m: matmul(s.component(m), T(m))
                              for m in c.degrees()})
        h2 = Homotopy(c2, c2, {m: matmul(Tinv(m + 1), h.component(m), T(m))
                               for m in range(c.lo - 1, c.hi + 1)})
        assert verify_homotopy_retract(d, r2, s2, h2)


def test_quasi_iso_detects_non_iso():
    a = single(QQ, BaseRing.LAURENT, 0, 1)
    z = zero_complex(QQ)
    assert not is_quasi_iso(ChainMap(a, z))
    assert is_quasi_iso(ChainMap.identity(a))
