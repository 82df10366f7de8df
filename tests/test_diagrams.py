import random

import pytest

from p1dom.complexes import ChainComplex, homology
from p1dom.generators import random_complex
from p1dom.laurent import BaseRing
from p1dom.scalars import GF, QQ

from helpers import (cell, dense, direct_sum, grid_matrix, identity, polyneg,
                     single, vanishes, zero_complex)
from paper_lemmas import (ChainMap, ComplexDiagram,
                          diagram_with_a_non_chain_map, hypercohomology, iota,
                          is_quasi_iso, levelwise_h1_trivial, phi_star,
                          quasi_iso_inflation, random_diagram,
                          random_surjective_diagram, sections_complex,
                          ses_check)


def constant_diagram(c):
    ident = ChainMap.identity(c)
    return ComplexDiagram(c, c, c, ident, ident)


def test_hyper_of_constant_diagram():
    c = single(QQ, BaseRing.LAURENT, 0, 1)
    h = hypercohomology(constant_diagram(c))
    assert {m: h.rank(m) for m in h.degrees()} == {0: 2, -1: 1}
    rep = homology(h)
    assert rep.entry(0).free_rank == 1      # one copy of the ring
    assert vanishes(rep.entry(-1))


def test_hyper_with_zero_middle_is_direct_sum():
    a = random_complex(random.Random(1), QQ, 2, 2)
    b = random_complex(random.Random(2), QQ, 2, 2)
    z = zero_complex(QQ)
    d = ComplexDiagram(a, z, b, ChainMap(a, z), ChainMap(b, z))
    h = hypercohomology(d)
    s = direct_sum(a, b)
    for m in s.degrees():
        assert h.rank(m) == s.rank(m)
    ra, rs = homology(h), homology(s)
    for q in rs.entries:
        assert ra.entry(q).free_rank == rs.entry(q).free_rank


def test_iota_is_diagonal_for_constant_diagram():
    c = single(QQ, BaseRing.LAURENT, 0, 1)
    d = constant_diagram(c)
    h0, incl = sections_complex(d)
    assert h0.rank(0) == 1
    col = incl.component(0)
    # x maps to (x, x, 0); the kernel basis is scaled by a unit
    assert col.rows == 2 and not cell(col, 0, 0).is_zero
    assert cell(col, 0, 0) == cell(col, 1, 0)
    assert is_quasi_iso(iota(d))


def test_iota_on_zero_diagram():
    z = zero_complex(QQ)
    d = ComplexDiagram(z, z, z, ChainMap(z, z), ChainMap(z, z))
    assert iota(d).component(0).is_zero


def test_ses_check_valid_and_zero():
    rng = random.Random(3)
    assert ses_check(random_diagram(rng, QQ))
    z = zero_complex(QQ)
    assert ses_check(ComplexDiagram(z, z, z, ChainMap(z, z),
                                    ChainMap(z, z)))


def test_ses_check_rejects_corrupted_differential():
    rng = random.Random(0)      # this seed yields nonzero mixing entries
    d = random_diagram(rng, QQ, 2, 2)
    h = hypercohomology(d)
    # negate the mixing block of some differential
    corrupted_diffs = {}
    changed = False
    for m in range(h.lo + 1, h.hi + 1):
        mat = h.diff(m)
        rm = d.minus.rank(m)
        rp = d.plus.rank(m)
        rmid_rows = d.mid.rank(m)
        rows = dense(mat)
        base = mat.rows - rmid_rows
        for i in range(base, mat.rows):
            for j in range(rm + rp):
                if not rows[i][j].is_zero:
                    changed = True
                rows[i][j] = polyneg(rows[i][j])
        corrupted_diffs[m] = grid_matrix(h.ring, mat.rows, mat.cols, rows)
    if not changed:
        pytest.skip("degenerate instance without mixing entries")
    bad = ChainComplex(h.ring, h.base, h.lo, h.hi, h.ranks, corrupted_diffs)
    assert bad != hypercohomology(d)
    assert ses_check(d) and h == hypercohomology(d)


def test_ses_check_rejects_an_invalid_diagram():
    # the total of a diagram whose structure map is no chain map has
    # d.d != 0
    for ring in (QQ, GF(7)):
        d = diagram_with_a_non_chain_map(ring)
        assert d.validate() == ["from_minus: degree 1: f.d != d.f"]
        h = hypercohomology(d)
        assert h.validate() == ["degree 1: d.d != 0"]
        assert not ses_check(d)
        assert h == hypercohomology(d)


def test_phi_star_of_quasi_iso_components():
    rng = random.Random(9)
    for ring in (QQ, GF(5)):
        d = random_surjective_diagram(rng, ring, 2, 2)
        big, phi = quasi_iso_inflation(rng, d)
        assert not phi.validate()
        induced = phi_star(phi)
        assert not induced.validate()
        assert is_quasi_iso(induced)


def test_phi_star_detects_non_quasi_iso():
    # a map with a non-quasi-iso component should fail the cone test
    c = single(QQ, BaseRing.LAURENT, 0, 1)
    z = zero_complex(QQ)
    d1 = constant_diagram(c)
    d0 = ComplexDiagram(z, z, z, ChainMap(z, z), ChainMap(z, z))
    from paper_lemmas import DiagramMap
    phi = DiagramMap(d1, d0, ChainMap(c, z), ChainMap(c, z),
                     ChainMap(c, z))
    assert not is_quasi_iso(phi_star(phi))


def test_levelwise_h1_detection():
    rng = random.Random(13)
    d = random_surjective_diagram(rng, QQ, 2, 2)
    assert levelwise_h1_trivial(d)
    # a diagram with zero structure maps and nonzero middle cannot be onto
    c = single(QQ, BaseRing.LAURENT, 0, 1)
    z = zero_complex(QQ)
    bad = ComplexDiagram(z, c, z, ChainMap(z, c), ChainMap(z, c))
    assert not levelwise_h1_trivial(bad)
    # identities in degree 0, and a summand in degree 3 that only the
    # middle occupies: level 3 has H^1 = K[x,x^-1]
    mid = direct_sum(c, single(QQ, BaseRing.LAURENT, 3, 1))
    ident = {0: identity(QQ, 1)}
    gap = ComplexDiagram(c, mid, c, ChainMap(c, mid, ident),
                         ChainMap(c, mid, ident))
    assert not levelwise_h1_trivial(gap)
    assert not is_quasi_iso(iota(gap))


def test_iota_not_quasi_iso_without_h1_vanishing():
    # middle with no sections at all: H0 complex is zero, H of mid is not
    c = single(QQ, BaseRing.LAURENT, 0, 1)
    z = zero_complex(QQ)
    bad = ComplexDiagram(z, c, z, ChainMap(z, c), ChainMap(z, c))
    assert not is_quasi_iso(iota(bad))
