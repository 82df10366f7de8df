import random

import pytest

from p1dom import sheaves
from p1dom.complexes import ChainComplex, homology_dims
from p1dom.errors import (BaseRingViolationError, NonVanishingH1Error,
                          ShapeError, UnsupportedRingError)
from p1dom.extension import extend_complex
from p1dom.laurent import BaseRing
from p1dom.matrices import LaurentMatrix, scalar_rank
from p1dom.scalars import GF, QQ
from p1dom.sheaves import (SheafComplex, SheafDiagram, TwistSummand,
                           cech_cohomology, cech_complex,
                           sheaf_hyper_homology_dims, twisting_sheaf)

from helpers import M, S, two_term


def test_twisting_sheaf_structure_zero():
    d = twisting_sheaf(QQ, 0, 0, 1)
    assert d.mu_minus_torus() == M(QQ, [[1]])
    assert d.mu_plus_torus() == M(QQ, [[1]])
    assert not d.validate()


def test_twisting_sheaf_structure_two():
    # O(2) with split k = 1: torus maps are x and x^-1, while the stored
    # chart matrices stay identities with the split in the metadata
    d = twisting_sheaf(QQ, 2, 1, 1)
    assert d.mu_minus_torus() == M(QQ, [[[(1, 1)]]])
    assert d.mu_plus_torus() == M(QQ, [[[(-1, 1)]]])
    assert d.p_plus == LaurentMatrix.identity(QQ, 1)
    assert not d.validate()


def test_twisting_sheaf_negative_constructor_only():
    d = twisting_sheaf(QQ, -2, -1, 1)
    assert not d.validate()
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
    assert not d.validate()
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
    m = LaurentMatrix.identity(ring, r)
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
        if not d.is_twist_sum and not d.validate():
            return d


@pytest.mark.parametrize("ring", [QQ, GF(10007)], ids=lambda r: r.tag)
def test_general_diagram_riemann_roch(ring):
    # h0 - h1 = r + v(det mu-) - v(det mu+), the determinants being units
    rng = random.Random(4)
    for _ in range(99):
        d = random_general_diagram(rng, ring)
        coh = cech_cohomology(d)
        euler = (len(d.twists) + d.mu_minus_torus().determinant().mindeg
                 - d.mu_plus_torus().determinant().mindeg)
        assert coh.h0_dim - coh.h1_dim == euler


def _general_corpus(ring, count=40, seed=11):
    rng = random.Random(seed)
    return [random_general_diagram(rng, ring) for _ in range(count)]


def _section_band(d):
    """The a- and a+ exponent bounds (L, H) of the cech_cohomology
    docstring, restated here from the structure maps."""
    r = len(d.twists)
    mu_m, mu_p = d.mu_minus_torus(), d.mu_plus_torus()
    e_m = mu_m.determinant().mindeg
    e_p = mu_p.determinant().mindeg
    return ((r - 1) * mu_m.global_mindeg() - e_m + mu_p.global_mindeg(),
            (r - 1) * mu_p.global_maxdeg() - e_p + mu_m.global_maxdeg())


def _brute_h0(d, pad=5):
    """Dimension of the pairs (a-, a+) with mu_minus a- = mu_plus a+, on a
    band pad wider than the section bound on each side.  Every column is
    the product of a structure map with a monomial vector, and every
    coefficient of every product is a row, so nothing is truncated."""
    ring = d.ring
    lo, hi = _section_band(d)
    cols = []
    for mu, band in ((-d.mu_minus_torus(), range(min(0, lo) - pad, 1)),
                     (d.mu_plus_torus(), range(0, max(0, hi) + pad + 1))):
        for j in range(mu.cols):
            for e in band:
                unit = M(ring, [[[(e, 1)]] if i == j else [0]
                                for i in range(mu.cols)])
                cols.append([row[0] for row in (mu @ unit).entries])
    keys = sorted({(i, e) for col in cols for i, p in enumerate(col)
                   for e, _ in p.items()})
    grid = [[col[i].coeff(e) for col in cols] for i, e in keys]
    return len(cols) - (scalar_rank(S(ring, grid)) if grid else 0)


def _serre_dual_twisted(d):
    """E^dual(-2) for the level E: its structure maps are the inverse
    transposes of mu_minus and mu_plus, here cof(mu) x^-e, which differ
    from them by the unit constants of the determinants."""
    ring = d.ring
    r = len(d.twists)
    cofactors = []
    for mu in (d.mu_minus_torus(), d.mu_plus_torus()):
        e = mu.determinant().mindeg
        if r == 1:
            cof = M(ring, [[1]])
        else:
            minors = [[mu.submatrix([a for a in range(r) if a != i],
                                    [b for b in range(r) if b != j])
                       .determinant() for j in range(r)] for i in range(r)]
            cof = LaurentMatrix(ring, r, r, [
                [-p if (i + j) % 2 else p for j, p in enumerate(row)]
                for i, row in enumerate(minors)])
        cofactors.append(cof.times_monomial(-e))
    cof_m, cof_p = cofactors
    k = cof_m.global_maxdeg()
    l = -cof_p.global_mindeg()
    dual = SheafDiagram(ring, [TwistSummand(k, l)] * r,
                        cof_m.monomial_scale([-k] * r),
                        cof_p.monomial_scale([l] * r))
    assert not dual.validate()
    return dual.twist(-2)


@pytest.mark.parametrize("ring", [QQ, GF(10007)], ids=lambda r: r.tag)
def test_general_h0_matches_brute_force_on_wider_band(ring):
    for d in _general_corpus(ring):
        assert cech_cohomology(d).h0_dim == _brute_h0(d)


@pytest.mark.parametrize("ring", [QQ, GF(10007)], ids=lambda r: r.tag)
def test_general_h1_by_serre_duality(ring):
    # h1(E) = h0(E^dual(-2)); the right side is a brute-force h0, so this
    # checks h1 without Riemann-Roch
    for d in _general_corpus(ring, seed=12):
        assert cech_cohomology(d).h1_dim == _brute_h0(_serre_dual_twisted(d))


def test_serre_dual_of_twist_sums():
    for n in range(-4, 4):
        d = twisting_sheaf(QQ, n, 1, 2)
        assert cech_cohomology(d).h1_dim == _brute_h0(_serre_dual_twisted(d))


@pytest.mark.parametrize("ring", [QQ, GF(10007)], ids=lambda r: r.tag)
def test_general_cohomology_invariant_under_chart_basis_change(ring):
    # p- times an elementary matrix over K[x^-1] and p+ times one over K[x]
    # change the bases of the chart modules, not the sheaf
    rng = random.Random(13)
    for d in _general_corpus(ring, seed=13):
        r = len(d.twists)
        p_minus = d.p_minus @ _elementary_product(rng, ring, r, -1,
                                                  BaseRing.POLY_INV)
        p_plus = d.p_plus @ _elementary_product(rng, ring, r, 1,
                                                BaseRing.POLY)
        other = SheafDiagram(ring, d.twists, p_minus, p_plus)
        if other.is_twist_sum:
            continue
        want = cech_cohomology(d)
        got = cech_cohomology(other)
        assert (got.h0_dim, got.h1_dim) == (want.h0_dim, want.h1_dim)


def test_general_level_makes_one_rank_call(monkeypatch):
    calls = []

    def counting(m):
        calls.append(m)
        return scalar_rank(m)

    monkeypatch.setattr(sheaves, "scalar_rank", counting)
    for d in _general_corpus(GF(10007), count=10):
        calls.clear()
        cech_cohomology(d)
        assert len(calls) == 1


def test_general_level_computes_each_determinant_once(monkeypatch):
    corpus = _general_corpus(QQ, count=10)
    calls = []
    determinant = LaurentMatrix.determinant

    def counting(self):
        calls.append(self)
        return determinant(self)

    monkeypatch.setattr(LaurentMatrix, "determinant", counting)
    for d in corpus:
        calls.clear()
        cech_cohomology(d)
        # one for mu_minus and one for mu_plus, shared with validate
        assert calls == [d.mu_minus_torus(), d.mu_plus_torus()]


def _one_entry_level(ring, twists, side, entry):
    """The sum of the twists with entry (0, 0) of the structure matrix on
    one side replaced: a level that is not a twist sum."""
    r = len(twists)
    grid = [[entry if (i, j) == (0, 0) else int(i == j) for j in range(r)]
            for i in range(r)]
    ident = [[int(i == j) for j in range(r)] for i in range(r)]
    p_minus = grid if side == "minus" else ident
    p_plus = grid if side == "plus" else ident
    return SheafDiagram(ring, twists, M(ring, p_minus, BaseRing.POLY_INV),
                        M(ring, p_plus, BaseRing.POLY))


@pytest.mark.parametrize("side, entry, problems", [
    # the unit x^-1 on the minus side, the identity on the plus side
    ("minus", [(-1, 1)], []),
    # 1 + x^-1 is no unit of K[x,x^-1]
    ("minus", [(0, 1), (-1, 1)],
     ["minus adjoint map is not an isomorphism over the torus"]),
    # the identity on the minus side, the unit 1 + (x - 1) on the plus side
    ("plus", [(1, 1)], []),
], ids=["unit-level", "singular-level", "plus-level"])
@pytest.mark.parametrize("ring", [QQ, GF(7), GF(10007)], ids=lambda r: r.tag)
def test_one_entry_levels(ring, side, entry, problems):
    # a level whose structure matrices are not both identities is solved
    # as a general level: h0 by brute force, h0 - h1 by Riemann-Roch with
    # one unit of valuation -1 or +1 in mu_minus or mu_plus
    rng = random.Random(15)
    for _ in range(12):
        r = rng.randint(1, 3)
        twists = [TwistSummand(rng.randint(-2, 2), rng.randint(-2, 2))
                  for _ in range(r)]
        d = _one_entry_level(ring, twists, side, entry)
        assert not d.is_twist_sum
        assert d.validate() == problems
        if problems:
            with pytest.raises(ShapeError, match=problems[0]):
                cech_cohomology(d)
            continue
        coh = cech_cohomology(d)
        assert coh.h0_dim == _brute_h0(d)
        assert coh.h0_dim - coh.h1_dim == r + sum(t.n for t in twists) - 1


@pytest.mark.parametrize("p_minus, p_plus, problem", [
    # two chart generators over one middle summand
    ([[1, [(-1, 1)]]], [[1]], "minus adjoint map is not square"),
    # 1 + x^-1 is no unit of K[x,x^-1]
    ([[[(0, 1), (-1, 1)]]], [[1]], "minus adjoint map is not an isomorphism"),
], ids=["non-square", "non-unit-determinant"])
def test_invalid_level_cohomology_raises(p_minus, p_plus, problem):
    d = SheafDiagram(QQ, [TwistSummand(0, 0)],
                     M(QQ, p_minus, BaseRing.POLY_INV),
                     M(QQ, p_plus, BaseRing.POLY))
    with pytest.raises(ShapeError, match=problem):
        cech_cohomology(d)


def test_cech_complex_single_twist():
    ext = extend_complex(ChainComplex.single(QQ, BaseRing.LAURENT, 0, 1))
    single = ext.sheaf.twist(2, 2)
    assert single.twists == {0: (TwistSummand(2, 0),)}
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
    z = SheafComplex(ChainComplex.zero(QQ, BaseRing.LAURENT), {0: ()})
    assert cech_complex(z).is_zero


def test_cech_complex_rejects_negative_twists():
    single = SheafComplex(
        ChainComplex.single(QQ, BaseRing.LAURENT, 0, 1),
        {0: (TwistSummand(-1, -1),)})
    with pytest.raises(NonVanishingH1Error):
        cech_complex(single)


def test_cech_complex_band_violation():
    # differential x^2 but target band only {x^0}: the image would escape,
    # and the minus chart entry x^2 is not in K[x^-1], so the complex is
    # refused before any band is built
    mid = two_term(QQ, [(2, 1)])
    twists = {0: (TwistSummand(0, 0),), 1: (TwistSummand(0, 0),)}
    with pytest.raises(BaseRingViolationError,
                       match=r"^degree 1: minus chart entry \(0,0\) = x\^2 "
                             r"violates K\[x\^-1\]$"):
        SheafComplex(mid, twists)
    # with the split (2, 0) in degree 0 the band {1, x, x^2} holds it
    w = cech_complex(SheafComplex(mid, {0: (TwistSummand(2, 0),),
                                        1: (TwistSummand(0, 0),)}))
    assert w.diffs[1].data == [{}, {}, {0: 1}]


def test_stray_twist_is_refused():
    mid = ChainComplex.single(QQ, BaseRing.LAURENT, 0, 1)
    with pytest.raises(ShapeError, match="^level 7 has twists but lies "
                                         r"outside the support \[0, 0\]$"):
        SheafComplex(mid, {0: (TwistSummand(0, 0),),
                           7: (TwistSummand(-5, 0),)})
    # an empty level outside the support has nothing to drop
    s = SheafComplex(mid, {0: (TwistSummand(0, 0),), 7: ()})
    assert s.twists == {0: (TwistSummand(0, 0),)}
    with pytest.raises(ShapeError, match="^level 0 has 2 twists for rank 1$"):
        SheafComplex(mid, {0: (TwistSummand(0, 0),) * 2})


def test_sheaf_hyper_dims_of_negative_twist():
    # a single O(-2) level: hypercohomology is one K in degree -1
    single = SheafComplex(
        ChainComplex.single(QQ, BaseRing.LAURENT, 0, 1),
        {0: (TwistSummand(-1, -1),)})
    dims = sheaf_hyper_homology_dims(single)
    assert dims == {-1: 1, 0: 0}


def test_sheaf_hyper_dims_names_the_section_complex():
    # a nonzero differential is refused with the entry point that takes
    # it: with every twist at least -1, H(W) is the hypercohomology, and
    # on the extension of x - 1 it is the w_dim column of the ledger
    from pathlib import Path

    from p1dom import fileformat as ff
    from p1dom.domination import dominate

    samples = Path(__file__).resolve().parents[1] / "samples"
    s = ff.load_sheaf(samples / "x-minus-1.sheaf")
    with pytest.raises(UnsupportedRingError,
                       match=r"homology_dims\(cech_complex\(s\)\)"):
        sheaf_hyper_homology_dims(s)
    ledger = dominate(ff.load_complex(samples / "x-minus-1.cplx")).ledger
    assert homology_dims(cech_complex(s)) == {
        row.degree: row.w_dim for row in ledger}


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
        assert not d.validate(), d.validate()
        assert levelwise_h1_trivial(d)
        assert is_quasi_iso(iota(d))

