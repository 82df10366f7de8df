import random

import pytest

from p1dom.complexes import ChainComplex, homology_dims
from p1dom.errors import (BaseRingViolationError, NonVanishingH1Error,
                          ShapeError, UnsupportedRingError)
from p1dom.extension import extend_complex
from p1dom.laurent import BaseRing
from p1dom.matrices import LaurentMatrix, scalar_rank
from p1dom.polylists import ONE
from p1dom.scalars import QQ
from p1dom.sheaves import (SheafComplex, cech_cohomology, cech_complex,
                           twisting_sheaf)

from helpers import (S, load_complex, load_sheaf, random_ring,
                     sheaf_hyper_homology_dims, shifted_summand, single, twist,
                     two_term, vanishes, zero_complex)
from paper_lemmas import levelwise_h1_trivial, torus_diagram


def test_twisting_sheaf_structure_zero():
    assert twisting_sheaf(0, 0, 1) == ((0, 0),)
    assert twisting_sheaf(0) == twisting_sheaf(0, 0, 1)
    assert twisting_sheaf(0, 0, 0) == ()


def test_twisting_sheaf_structure_two():
    # O(2) with split k = 1: the torus maps are x and x^-1
    assert twisting_sheaf(2, 1, 1) == ((1, 1),)
    assert twisting_sheaf(2, 1, 3) == ((1, 1),) * 3


def test_twisting_sheaf_negative_constructor_only():
    assert twisting_sheaf(-2, -1, 1) == ((-1, -1),)


def test_cohomology_table_example_dimensions():
    table = {0: (1, 0), 2: (3, 0), -1: (0, 0), -2: (0, 1), -3: (0, 2)}
    for n, (h0, h1) in table.items():
        coh = cech_cohomology(twisting_sheaf(n, n // 2, 1))
        assert (coh.h0_dim, coh.h1_dim) == (h0, h1)


def test_cohomology_monomial_bases():
    coh = cech_cohomology(twisting_sheaf(2, 1, 1))   # k=1, l=1
    assert [e for _, e in coh.h0_basis] == [-1, 0, 1]
    assert coh.h1_basis == ()
    coh = cech_cohomology(twisting_sheaf(-3, 1, 1))  # k=1, l=-4
    assert [e for _, e in coh.h1_basis] == [2, 3]
    assert coh.h0_basis == ()
    coh = cech_cohomology(((1, 0), (-3, 0)))
    assert coh.h0_basis == ((0, 0), (0, 1))
    assert coh.h1_basis == ((1, -2), (1, -1))


def test_twist_composition():
    rng = random.Random(1)
    for m in range(-4, 5):
        for n in range(-4, 5):
            k1 = rng.randint(-2, 2)
            dk = rng.randint(-2, 2)
            twisted = tuple(shifted_summand(t, dk, n - dk)
                            for t in twisting_sheaf(m, k1, 1))
            got = cech_cohomology(twisted)
            want = cech_cohomology(twisting_sheaf(m + n, 0, 1))
            assert (got.h0_dim, got.h1_dim) == (want.h0_dim, want.h1_dim)
            # bases agree up to the split convention: the same exponent
            # runs, shifted by the change of k
            shift = k1 + dk
            assert [e - shift for _, e in got.h0_basis] == \
                [e for _, e in want.h0_basis]
            assert [e - shift for _, e in got.h1_basis] == \
                [e for _, e in want.h1_basis]


def test_euler_characteristic_of_twists():
    for n in range(-8, 9):
        coh = cech_cohomology(twisting_sheaf(n, 0, 1))
        assert coh.h0_dim - coh.h1_dim == n + 1


def _brute_h0(twists, pad=5):
    """Dimension of the pairs (a-, a+) of a- in K[x^-1] and a+ in K[x]
    with x^k a- = x^-l a+ on each summand (k, l) of a twist sum, on a
    band pad wider than the section bound on each side: the nullity of
    the map (a-, a+) -> -x^k a- + x^-l a+ on monomials."""
    cols = []
    for i, (k, l) in enumerate(twists):
        for sign, shift, band in ((-1, k, range(-k - l - pad, 1)),
                                  (1, -l, range(0, k + l + pad + 1))):
            for e in band:
                cols.append({(i, e + shift): sign})
    keys = sorted({key for col in cols for key in col})
    grid = [[col.get(key, 0) for col in cols] for key in keys]
    return len(cols) - (scalar_rank(S(QQ, grid)) if grid else 0)


def test_serre_dual_of_twist_sums():
    # h1(E) = h0(E^dual(-2)): the dual of the split (k, l) is (-k, -l),
    # twisted by -2 with the split (-2, 0); the right side is a
    # brute-force h0
    for n in range(-4, 4):
        twists = twisting_sheaf(n, 1, 2)
        dual = tuple((-k - 2, -l) for k, l in twists)
        assert cech_cohomology(twists).h1_dim == _brute_h0(dual)
        assert cech_cohomology(twists).h0_dim == _brute_h0(twists)


def test_cech_complex_single_twist():
    ext = extend_complex(single(QQ, BaseRing.LAURENT, 0, 1))
    twisted = twist(ext.sheaf, 2, 2)
    assert twisted.twists == {0: ((2, 0),)}
    w = cech_complex(twisted)
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
    z = SheafComplex(zero_complex(QQ, BaseRing.LAURENT), {0: ()})
    assert vanishes(cech_complex(z))


def test_cech_complex_rejects_negative_twists():
    sheaf = SheafComplex(
        single(QQ, BaseRing.LAURENT, 0, 1),
        {0: ((-1, -1),)})
    with pytest.raises(NonVanishingH1Error):
        cech_complex(sheaf)


def test_cech_complex_band_violation():
    # differential x^2 but target band only {x^0}: the image would escape,
    # and the minus chart entry x^2 is not in K[x^-1], so the complex is
    # refused before any band is built
    mid = two_term(QQ, [(2, 1)])
    twists = {0: ((0, 0),), 1: ((0, 0),)}
    with pytest.raises(BaseRingViolationError,
                       match=r"^degree 1: minus chart entry \(0,0\) = x\^2 "
                             r"violates K\[x\^-1\]$"):
        SheafComplex(mid, twists)
    # with the split (2, 0) in degree 0 the band {1, x, x^2} holds it
    w = cech_complex(SheafComplex(mid, {0: ((2, 0),),
                                        1: ((0, 0),)}))
    assert w.diffs[1].data == [{}, {}, {0: 1}]


def test_cech_complex_skips_the_band_of_a_zero_column():
    # d_1 = [0, 1]: column 0 of degree 1 has no entry, and its band
    # {x^-1, 1, x, x^2} still takes W's columns 0..3, so the image of
    # column 1 lies in W's column 4
    mid = ChainComplex(QQ, BaseRing.LAURENT, 0, 1, {0: 1, 1: 2},
                       {1: LaurentMatrix(QQ, 1, 2, [{1: ONE}])})
    w = cech_complex(SheafComplex(mid, {
        0: ((0, 0),),
        1: ((2, 1), (0, 0))}))
    assert w.diffs[1].data == [{4: 1}]
    assert (w.rank(0), w.rank(1)) == (1, 5)


def test_stray_twist_is_refused():
    mid = single(QQ, BaseRing.LAURENT, 0, 1)
    with pytest.raises(ShapeError, match="^level 7 has twists but lies "
                                         r"outside the support \[0, 0\]$"):
        SheafComplex(mid, {0: ((0, 0),),
                           7: ((-5, 0),)})
    # an empty level outside the support has nothing to drop
    s = SheafComplex(mid, {0: ((0, 0),), 7: ()})
    assert s.twists == {0: ((0, 0),)}
    with pytest.raises(ShapeError, match="^level 0 has 2 twists for rank 1$"):
        SheafComplex(mid, {0: ((0, 0),) * 2})


def test_sheaf_complex_needs_a_laurent_middle_complex():
    mid = single(QQ, BaseRing.POLY, 0, 1)
    with pytest.raises(UnsupportedRingError,
                       match=r"^sheaf complex needs a K\[x,x\^-1\] middle "
                             "complex$"):
        SheafComplex(mid, {0: ((0, 0),)})


def test_twist_profile_refuses_a_level_of_two_splits():
    mid = single(QQ, BaseRing.LAURENT, 0, 2)
    s = SheafComplex(mid, {0: ((0, 0), (1, 0))})
    with pytest.raises(ShapeError, match="^level 0 mixes twist splits$"):
        s.twist_profile()


def test_sheaf_hyper_dims_of_negative_twist():
    # a single O(-2) level: hypercohomology is one K in degree -1
    sheaf = SheafComplex(
        single(QQ, BaseRing.LAURENT, 0, 1),
        {0: ((-1, -1),)})
    dims = sheaf_hyper_homology_dims(sheaf)
    assert dims == {-1: 1, 0: 0}


def test_sheaf_hyper_dims_names_the_section_complex():
    # a nonzero differential is refused with the entry point that takes
    # it: with every twist at least -1, H(W) is the hypercohomology, and
    # on the extension of x - 1 it is the w_dim column of the ledger
    from pathlib import Path

    from p1dom.domination import dominate

    samples = Path(__file__).resolve().parents[1] / "samples"
    s = load_sheaf(samples / "x-minus-1.sheaf")
    with pytest.raises(UnsupportedRingError,
                       match=r"homology_dims\(cech_complex\(s\)\)"):
        sheaf_hyper_homology_dims(s)
    ledger = dominate(load_complex(samples / "x-minus-1.cplx")).ledger
    assert homology_dims(cech_complex(s)) == {
        row.degree: row.w_dim for row in ledger}


def test_torus_diagram_of_extension():
    from paper_lemmas import iota, is_quasi_iso

    rng = random.Random(14)
    from p1dom.generators import random_complex
    for _ in range(5):
        ring = random_ring(rng)
        ext = extend_complex(random_complex(rng, ring, 3, 2))
        d = torus_diagram(ext.sheaf)
        assert not d.validate(), d.validate()
        assert levelwise_h1_trivial(d)
        assert is_quasi_iso(iota(d))

