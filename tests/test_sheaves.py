import random

import pytest

from p1dom.complexes import ChainComplex, homology_dims
from p1dom.errors import NonVanishingH1Error, BandViolationError
from p1dom.extension import extend_complex
from p1dom.laurent import BaseRing
from p1dom.matrices import LaurentMatrix
from p1dom.scalars import GF, QQ
from p1dom.sheaves import (SheafComplex, SheafDiagram, TwistSummand,
                           cech_cohomology, cech_complex,
                           sheaf_hyper_homology_dims, sheaf_iota_exact,
                           twisting_sheaf)

from helpers import M, two_term


def test_twisting_sheaf_structure_zero():
    d = twisting_sheaf(QQ, 0, 0, 1)
    assert d.mu_minus_torus() == M(QQ, [[1]])
    assert d.mu_plus_torus() == M(QQ, [[1]])
    assert d.is_valid


def test_twisting_sheaf_structure_two():
    # O(2) with split k = 1: torus maps are x and x^-1, while the stored
    # chart matrices stay identities with the split in the metadata
    d = twisting_sheaf(QQ, 2, 1, 1)
    assert d.mu_minus_torus() == M(QQ, [[[(1, 1)]]])
    assert d.mu_plus_torus() == M(QQ, [[[(-1, 1)]]])
    assert d.p_plus == LaurentMatrix.identity(QQ, 1, BaseRing.POLY)
    assert d.is_valid


def test_twisting_sheaf_negative_constructor_only():
    d = twisting_sheaf(QQ, -2, -1, 1)
    assert d.is_valid
    assert d.twists == (TwistSummand(-1, -1),)


def test_cohomology_table_example_dimensions():
    table = {0: (1, 0), 2: (3, 0), -1: (0, 0), -2: (0, 1), -3: (0, 2)}
    for n, (h0, h1) in table.items():
        coh = cech_cohomology(twisting_sheaf(QQ, n, n // 2, 1))
        assert (coh.h0_dim, coh.h1_dim) == (h0, h1)


def test_cohomology_monomial_bases():
    coh = cech_cohomology(twisting_sheaf(QQ, 2, 1, 1))   # k=1, l=1
    assert [e for _, e in coh.h0_basis] == [-1, 0, 1]
    coh = cech_cohomology(twisting_sheaf(QQ, -3, 1, 1))  # k=1, l=-4
    assert [e for _, e in coh.h1_basis] == [2, 3]


def test_twist_composition():
    rng = random.Random(1)
    for m in range(-4, 5):
        for n in range(-4, 5):
            k1 = rng.randint(-2, 2)
            base = twisting_sheaf(QQ, m, k1, 1)
            twisted = base.twist(n, rng.randint(-2, 2))
            got = cech_cohomology(twisted)
            want = cech_cohomology(twisting_sheaf(QQ, m + n, 0, 1))
            assert (got.h0_dim, got.h1_dim) == (want.h0_dim, want.h1_dim)
            if got.h0_basis and want.h0_basis:
                # bases agree up to the split convention: same length and
                # consecutive exponent runs of the same width
                assert len(got.h0_basis) == len(want.h0_basis)


def test_euler_characteristic_of_twists():
    for n in range(-8, 9):
        coh = cech_cohomology(twisting_sheaf(QQ, n, 0, 1))
        assert coh.h0_dim - coh.h1_dim == n + 1


def test_general_diagram_cohomology_matches_twist():
    # conjugating the structure matrices by units leaves dims unchanged
    ring = GF(7)
    d = SheafDiagram(
        ring, [TwistSummand(1, 1)],
        M(ring, [[[(0, 3)]]], BaseRing.POLY_INV),
        M(ring, [[[(0, 2)]]], BaseRing.POLY))
    assert d.is_valid
    coh = cech_cohomology(d)
    assert (coh.h0_dim, coh.h1_dim) == (3, 0)


def test_general_diagram_counts_untouched_cokernel_monomials():
    # mu- = -3x^2, mu+ = 27x^4 is O(-2): the image misses x^3 only
    d = SheafDiagram(QQ, [TwistSummand(2, 0)],
                     M(QQ, [[-3]], BaseRing.POLY_INV),
                     M(QQ, [[[(4, 27)]]], BaseRing.POLY))
    assert d.mu_minus_torus() == M(QQ, [[[(2, -3)]]])
    assert d.mu_plus_torus() == M(QQ, [[[(4, 27)]]])
    coh = cech_cohomology(d)
    assert (coh.h0_dim, coh.h1_dim) == (0, 1)


def _elementary_product(rng, ring, r, sign, base):
    m = LaurentMatrix.identity(ring, r, base)
    for _ in range(rng.randint(0, 3) if r > 1 else 0):
        i, j = rng.sample(range(r), 2)
        grid = [[1 if a == b else 0 for b in range(r)] for a in range(r)]
        grid[i][j] = [(sign * rng.randint(0, 2), rng.randint(1, 5))]
        m = m @ M(ring, grid, base)
    return m


def _monomial_diagonal(rng, ring, r, sign, base):
    return M(ring, [[[(sign * rng.randint(0, 2), rng.randint(1, 6))]
                     if a == b else 0 for b in range(r)] for a in range(r)],
             base)


def random_general_diagram(rng, ring):
    """A valid diagram that is not a twist sum: structure matrices are
    invertible matrices over the chart ring times monomial diagonals."""
    while True:
        r = rng.randint(1, 3)
        p_minus = (_elementary_product(rng, ring, r, -1, BaseRing.POLY_INV)
                   @ _monomial_diagonal(rng, ring, r, -1, BaseRing.POLY_INV))
        p_plus = (_elementary_product(rng, ring, r, 1, BaseRing.POLY)
                  @ _monomial_diagonal(rng, ring, r, 1, BaseRing.POLY))
        twists = [TwistSummand(rng.randint(-2, 2), rng.randint(-2, 2))
                  for _ in range(r)]
        d = SheafDiagram(ring, twists, p_minus, p_plus)
        if not d.is_twist_sum and d.is_valid:
            return d


@pytest.mark.parametrize("ring", [QQ, GF(10007)], ids=lambda r: r.tag)
def test_general_diagram_riemann_roch(ring):
    # h0 - h1 = r + v(det mu-) - v(det mu+), the determinants being units
    rng = random.Random(4)
    for _ in range(99):
        d = random_general_diagram(rng, ring)
        coh = cech_cohomology(d)
        euler = (d.mid_rank + d.mu_minus_torus().determinant().mindeg
                 - d.mu_plus_torus().determinant().mindeg)
        assert coh.h0_dim - coh.h1_dim == euler


def test_cech_complex_single_twist():
    ext = extend_complex(ChainComplex.single(QQ, BaseRing.LAURENT, 0, 1))
    s = ext.sheaf.level(0).twist(2, 2)
    single = SheafComplex(
        ChainComplex.single(QQ, BaseRing.POLY_INV, 0, 1),
        ChainComplex.single(QQ, BaseRing.LAURENT, 0, 1),
        ChainComplex.single(QQ, BaseRing.POLY, 0, 1),
        {0: s})
    w = cech_complex(single)
    assert {m: w.rank(m) for m in w.degrees()} == {0: 3}
    assert w.base == BaseRing.K


def test_cech_complex_of_x_minus_one_extension():
    ext = extend_complex(two_term(QQ, [(1, 1), (0, -1)]))
    w = cech_complex(ext.sheaf)
    assert {m: w.rank(m) for m in w.degrees()} == {0: 2, 1: 1}
    # basis of degree 0 is {x^0, x^1}; the image of the generator is
    # -1*x^0 + 1*x^1, stored as sparse scalar rows
    assert w.diffs[1].data == [{0: -1}, {0: 1}]
    dims = homology_dims(w)
    assert dims[0] == 1 and dims[1] == 0


def test_cech_complex_zero():
    z = SheafComplex(
        ChainComplex.zero(QQ, BaseRing.POLY_INV),
        ChainComplex.zero(QQ, BaseRing.LAURENT),
        ChainComplex.zero(QQ, BaseRing.POLY),
        {0: SheafDiagram.twist_sum(QQ, [])})
    assert cech_complex(z).is_zero


def test_cech_complex_rejects_negative_twists():
    single = SheafComplex(
        ChainComplex.single(QQ, BaseRing.POLY_INV, 0, 1),
        ChainComplex.single(QQ, BaseRing.LAURENT, 0, 1),
        ChainComplex.single(QQ, BaseRing.POLY, 0, 1),
        {0: SheafDiagram.twist_sum(QQ, [TwistSummand(-1, -1)])})
    with pytest.raises(NonVanishingH1Error):
        cech_complex(single)


def test_cech_complex_band_violation():
    # differential x^2 but target band only {x^0}: the image escapes
    mid = two_term(QQ, [(2, 1)])
    minus = ChainComplex(QQ, BaseRing.POLY_INV, 0, 1, {0: 1, 1: 1},
                         {1: M(QQ, [[[(0, 1)]]], BaseRing.POLY_INV)})
    plus = ChainComplex(QQ, BaseRing.POLY, 0, 1, {0: 1, 1: 1},
                        {1: M(QQ, [[[(2, 1)]]], BaseRing.POLY)})
    levels = {0: SheafDiagram.twist_sum(QQ, [TwistSummand(0, 0)]),
              1: SheafDiagram.twist_sum(QQ, [TwistSummand(0, 0)])}
    bad = SheafComplex(minus, mid, plus, levels)
    with pytest.raises(BandViolationError):
        cech_complex(bad)


def test_sheaf_hyper_dims_of_negative_twist():
    # a single O(-2) level: hypercohomology is one K in degree -1
    single = SheafComplex(
        ChainComplex.single(QQ, BaseRing.POLY_INV, 0, 1),
        ChainComplex.single(QQ, BaseRing.LAURENT, 0, 1),
        ChainComplex.single(QQ, BaseRing.POLY, 0, 1),
        {0: SheafDiagram.twist_sum(QQ, [TwistSummand(-1, -1)])})
    dims = sheaf_hyper_homology_dims(single)
    assert dims == {-1: 1, 0: 0}


def test_sheaf_iota_exactness_for_extensions():
    rng = random.Random(2)
    from p1dom.generators import random_complex, random_ring
    for _ in range(10):
        ring = random_ring(rng)
        ext = extend_complex(random_complex(rng, ring, 3, 3))
        assert sheaf_iota_exact(ext.sheaf)


def test_torus_diagram_of_extension():
    from p1dom.complexes import is_quasi_iso
    from p1dom.diagrams import iota, levelwise_h1_trivial
    from p1dom.sheaves import torus_diagram

    rng = random.Random(14)
    from p1dom.generators import random_complex, random_ring
    for _ in range(5):
        ring = random_ring(rng)
        ext = extend_complex(random_complex(rng, ring, 3, 2))
        d = torus_diagram(ext.sheaf)
        assert d.is_valid, d.validate()
        assert levelwise_h1_trivial(d)
        assert is_quasi_iso(iota(d))


def test_sheaf_iota_exactness_fails_on_negative_twist():
    single = SheafComplex(
        ChainComplex.single(QQ, BaseRing.POLY_INV, 0, 1),
        ChainComplex.single(QQ, BaseRing.LAURENT, 0, 1),
        ChainComplex.single(QQ, BaseRing.POLY, 0, 1),
        {0: SheafDiagram.twist_sum(QQ, [TwistSummand(-1, -1)])})
    assert not sheaf_iota_exact(single)
