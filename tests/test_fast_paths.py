"""Oracle checks for the fast paths of the torus chain.

A sheaf complex stores its torus complex and its twists: its levels are
valid by construction, its constructor checks chart legality by exponent
comparisons that build no matrix (the extension of a complex, legal by
the choice of its twists, skips that scan and is checked against it
here), and no chart complex is stored or built, so no gluing square is
ever compared; a sheaf file stores no chart either.
Morphism and cone extension take their twists from ``twist_shift`` and
compare no chart square either.  Homology reads the invariant factors of
each differential from the factors-only kernel, and the ``polylists``
kernels (``lincomb``, ``scaled``, behind the arithmetic of
``tests/helpers.py``) build their results without renormalising.  Each fast path is compared
here with the dense or normalising computation it replaces (charts as
products of monomial diagonal matrices, gluing squares and the chart
squares of a morphism extension as products of level torus maps), kept
in this file so that it stays independent of the code under test.
"""

import random
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from p1dom import fileformat as ff
from p1dom.complexes import ChainComplex, HomologyEntry, homology
from p1dom.domination import verify_theorem
from p1dom.errors import BaseRingViolationError, ShapeError
from p1dom.extension import extend_complex, extend_valid_complex
from p1dom.generators import random_complex, random_novikov_acyclic
from p1dom.laurent import BaseRing, LaurentPoly
from p1dom.matrices import LaurentMatrix
from p1dom.scalars import GF, QQ, ZZ
from p1dom.sheaves import (SheafComplex, TwistSummand, cech_complex,
                           chart_shifts, twist_shift)
from p1dom.smith import invariant_factors

from helpers import (HOMOLOGY_KINDS, M, P, add, chart as derived, coeff,
                     core_degree, dense, homology_case, inverse_unit, is_unit,
                     kernel_basis, kernel_coordinates, load_complex, matmul,
                     monomial, monomial_scale, mul, nonzero_entries, polyadd,
                     polymul, polyneg, polyscale, polysub, random_matrix,
                     respects, scalar_diag, shifted_summand, single,
                     times_monomial, unit_normalise, zero)
from paper_lemmas import (ChainMap, MorphismExtension, extend_cone,
                          extend_morphism, null_homotopic_map)

SAMPLES = Path(__file__).resolve().parents[1] / "samples"


# -- sheaf charts and validation against the dense reference ----------------


def _monomial_diag(ring, exponents):
    return scalar_diag(ring, [monomial(ring, e) for e in exponents])


def dense_charts(mid, twists):
    """The chart differentials by matrix products: diag(x^-k) d diag(x^k)
    for the K[x^-1] chart and diag(x^l) d diag(x^-l) for the K[x]
    chart, as {degree: matrix} over K[x,x^-1]."""
    ring = mid.ring
    minus, plus = {}, {}
    for m in range(mid.lo + 1, mid.hi + 1):
        prev, lvl, d = twists[m - 1], twists[m], mid.diff(m)
        minus[m] = matmul(_monomial_diag(ring, [-t.k for t in prev]), d,
                          _monomial_diag(ring, [t.k for t in lvl]))
        plus[m] = matmul(_monomial_diag(ring, [t.l for t in prev]), d,
                         _monomial_diag(ring, [-t.l for t in lvl]))
    return minus, plus


def dense_violations(mid, twists):
    """Every dense chart entry outside its ring, worded as the
    SheafComplex constructor words it and in the order it scans them."""
    minus, plus = dense_charts(mid, twists)
    found = []
    for m in minus:
        for i in range(minus[m].rows):
            for j in range(minus[m].cols):
                for side, chart, base in (("minus", minus, BaseRing.POLY_INV),
                                          ("plus", plus, BaseRing.POLY)):
                    p = chart[m][i, j]
                    if not respects(p, base):
                        found.append(f"degree {m}: {side} chart entry "
                                     f"({i},{j}) = {p} violates {base.tag}")
    return found


def dense_gluing(minus, mid, plus, twists):
    """The gluing squares, every one a product of level torus maps."""
    problems = []
    for m in range(mid.lo + 1, mid.hi + 1):
        prev, lvl = twists[m - 1], twists[m]
        if (matmul(torus_map(mid.ring, prev, "minus"), minus.diff(m))
                != matmul(mid.diff(m), torus_map(mid.ring, lvl, "minus"))):
            problems.append(f"level {m}: minus structure map not a chain map")
        if (matmul(torus_map(mid.ring, prev, "plus"), plus.diff(m))
                != matmul(mid.diff(m), torus_map(mid.ring, lvl, "plus"))):
            problems.append(f"level {m}: plus structure map not a chain map")
    return problems


def torus_map(ring, twists, side):
    """The torus map of a level from its ``side`` chart: diag(x^k) from
    K[x^-1] and diag(x^-l) from K[x]."""
    return _monomial_diag(ring, [t.k if side == "minus" else -t.l
                                 for t in twists])


def dense_validate(mid, twists):
    """What ``s.mid.validate()`` finds, each problem prefixed "mid: ",
    found with the charts built by dense_charts: ring violations, d.d = 0
    of all three complexes and the gluing squares."""
    minus, plus = (ChainComplex(mid.ring, BaseRing.LAURENT, mid.lo, mid.hi,
                                dict(mid.ranks), diffs)
                   for diffs in dense_charts(mid, twists))
    problems = dense_violations(mid, twists)
    for name, c in (("minus", minus), ("mid", mid), ("plus", plus)):
        problems += [f"{name}: {p}" for p in c.validate()]
    return problems + dense_gluing(minus, mid, plus, twists)


def assert_charts_match_dense(s):
    minus, plus = dense_charts(s.mid, s.twists)
    for chart, dense, base in ((derived(s, "minus"), minus, BaseRing.POLY_INV),
                               (derived(s, "plus"), plus, BaseRing.POLY)):
        assert chart.base == base
        assert (chart.lo, chart.hi, chart.ranks) == (s.mid.lo, s.mid.hi,
                                                     s.mid.ranks)
        assert chart.diffs == dense


def perturbed_problems(rng, s, variant):
    """(what the library reports, what the dense reference finds) for a
    variant of the extension ``s``; some variants break it.

    ``twist`` moves one level's split, which the constructor refuses
    exactly when a chart entry leaves its ring (it names the first one).
    """
    twists = dict(s.twists)
    ranked = [m for m in s.degrees() if s.mid.rank(m)]
    if variant == "twist" and ranked:
        m = rng.choice(ranked)
        dk, dl = rng.choice([(1, 0), (0, 1), (-1, 0), (0, -1)])
        twists[m] = tuple(shifted_summand(t, dk, dl) for t in twists[m])
    dense = dense_validate(s.mid, twists)
    try:
        t = SheafComplex(s.mid, twists)
    except BaseRingViolationError as exc:
        return [str(exc)], dense[:1]
    assert_charts_match_dense(t)
    return [f"mid: {p}" for p in t.mid.validate()], dense


VARIANTS = ["plain", "twist"]


@settings(deadline=None, max_examples=150)
@given(seed=st.integers(0, 2 ** 32 - 1),
       ring=st.sampled_from([QQ, GF(7), ZZ]),
       variant=st.sampled_from(VARIANTS))
def test_sheaf_validate_matches_dense_reference(seed, ring, variant):
    rng = random.Random(seed)
    if rng.random() < 0.5:
        c = random_novikov_acyclic(rng, ring, span=2)
    else:
        c = random_complex(rng, ring, max_length=4, max_rank=3, span=2)
    found, dense = perturbed_problems(rng, extend_complex(c).sheaf, variant)
    assert found == dense


def test_perturbed_extensions_are_caught():
    rng = random.Random(11)
    caught = {v: 0 for v in VARIANTS}
    for _ in range(60):
        c = random_novikov_acyclic(rng, QQ, span=2)
        for variant in VARIANTS:
            found, dense = perturbed_problems(rng, extend_complex(c).sheaf,
                                              variant)
            assert found == dense
            caught[variant] += bool(found)
    # a moved split is legal when the entries it touches leave room
    assert caught["plain"] == 0
    assert 0 < caught["twist"] < 60


def test_twist_sum_validation_multiplies_no_torus_maps():
    rng = random.Random(3)
    sheaves = [extend_complex(random_novikov_acyclic(rng, ring, span=2)).sheaf
               for ring in (QQ, GF(7), ZZ) for _ in range(5)]
    # the d.d = 0 checks of the middle complex run on entries: a Laurent
    # matrix has no product or determinant for them to call
    assert not hasattr(LaurentMatrix, "__matmul__")
    assert not hasattr(LaurentMatrix, "determinant")
    for s in sheaves:
        assert s.mid.validate() == []


def test_twist_sum_gluing_builds_no_matrix(monkeypatch):
    # the constructor's legality check, which replaces the gluing
    # comparison, reads exponents and builds no matrix
    rng = random.Random(5)
    cases = []
    for ring in (QQ, GF(7), GF(10007), ZZ):
        for _ in range(12):
            s = extend_complex(random_novikov_acyclic(rng, ring, span=2)).sheaf
            twists = {m: tuple(shifted_summand(t, rng.randint(-1, 1),
                                               rng.randint(-1, 1))
                               for t in ts)
                      for m, ts in s.twists.items()}
            cases.append((s.mid, twists))
    expected = [dense_violations(mid, twists) for mid, twists in cases]
    assert any(expected) and not all(expected)
    built = []
    original = LaurentMatrix.__init__

    def counting(self, *args, **kwargs):
        built.append(1)
        original(self, *args, **kwargs)

    monkeypatch.setattr(LaurentMatrix, "__init__", counting)
    found = []
    for mid, twists in cases:
        try:
            SheafComplex(mid, twists)
            found.append([])
        except BaseRingViolationError as exc:
            found.append([str(exc)])
    assert built == []
    monkeypatch.undo()
    assert found == [dense[:1] for dense in expected]


def test_derived_charts_match_dense_reference():
    rng = random.Random(12)
    sheaves = []
    for ring in (QQ, GF(7), GF(10007), ZZ):
        for _ in range(6):
            c = random_novikov_acyclic(rng, ring, span=2)
            sheaves.append(extend_complex(c).sheaf)
            c = random_complex(rng, ring, max_length=4, max_rank=3, span=2)
            sheaves.append(extend_complex(c).sheaf)
        for _ in range(3):
            a = random_complex(rng, ring, max_length=3, max_rank=2, span=2)
            v1, v2 = extend_complex(a).sheaf, extend_complex(a).sheaf
            for omega in (ChainMap.identity(a), ChainMap(a, a)):
                sheaves.append(extend_cone(v1, v2, omega))
            b = single(ring, BaseRing.LAURENT, 0, 2)
            omega = ChainMap(b, b, {0: random_matrix(rng, ring, 2, 2, 2)})
            sheaves.append(extend_cone(extend_complex(b).sheaf,
                                       extend_complex(b).sheaf, omega))
    assert any(s.mid.hi > s.mid.lo + 1 for s in sheaves)
    for s in sheaves:
        assert_charts_match_dense(s)
        assert s.mid.validate() == dense_validate(s.mid, s.twists) == []


@settings(deadline=None, max_examples=200)
@given(seed=st.integers(0, 2 ** 32 - 1),
       ring=st.sampled_from([QQ, GF(7), ZZ]))
def test_constructor_accepts_exactly_the_legal_twists(seed, ring):
    # any split per generator, legal or not
    rng = random.Random(seed)
    c = random_complex(rng, ring, max_length=4, max_rank=3, span=2)
    twists = {m: tuple(TwistSummand(rng.randint(-3, 3), rng.randint(-3, 3))
                       for _ in range(c.rank(m))) for m in c.degrees()}
    violations = dense_violations(c, twists)
    try:
        s = SheafComplex(c, twists)
    except BaseRingViolationError as exc:
        assert violations and str(exc) == violations[0]
        return
    assert not violations
    assert_charts_match_dense(s)


def extension_inputs():
    """The complexes the benchmark and the CLI extend: every K[x,x^-1]
    complex of samples/*.cplx, the first 100 verify-desk draws (seed 777)
    and the first 300 torus-sections draws (seed 1403), drawn as those
    workloads draw them."""
    for path in sorted(SAMPLES.glob("*.cplx")):
        c = load_complex(path)
        if c.base == BaseRing.LAURENT and not c.validate():
            yield c
    rng = random.Random(777)
    for i in range(100):
        yield random_novikov_acyclic(rng, QQ if i % 5 == 0 else GF(7))
    rng = random.Random(1403)
    for i in range(300):
        ring = (QQ, GF(10007), ZZ)[i % 3]
        yield (random_novikov_acyclic(rng, ZZ) if ring is ZZ else
               random_complex(rng, ring, max_length=4, max_rank=3, span=3))


def test_extended_sheaves_pass_the_constructor_scan():
    # the extension stores its sheaf without the constructor's scan;
    # the dense reference and the public constructor both accept it
    seen = set()
    for c in extension_inputs():
        s = extend_complex(c).sheaf
        assert list(s.twists) == list(c.degrees())
        assert all(len(s.twists[m]) == c.rank(m) for m in c.degrees())
        assert dense_violations(s.mid, s.twists) == []
        assert SheafComplex(s.mid, s.twists).twists == s.twists
        seen.add(c.ring.tag)
    assert seen == {"Q", "GF(7)", "GF(10007)", "Z"}


def test_extension_scans_each_differential_once(monkeypatch):
    calls = []

    def counting(d, target, source):
        calls.append(d)
        return chart_shifts(d, target, source)

    monkeypatch.setattr("p1dom.sheaves.chart_shifts", counting)
    for c in extension_inputs():
        calls.clear()
        extend_valid_complex(c)
        assert ([id(d) for d in calls]
                == [id(c.diffs[m]) for m in range(c.hi, c.lo, -1)])


def chart_complexes_built(monkeypatch):
    """The list of bases of each K[x] or K[x^-1] complex built from now
    on: a chart complex would be one of them."""
    built = []
    original = ChainComplex.__init__

    def recording(self, ring, base, *args, **kwargs):
        if base in (BaseRing.POLY, BaseRing.POLY_INV):
            built.append(base)
        original(self, ring, base, *args, **kwargs)

    monkeypatch.setattr(ChainComplex, "__init__", recording)
    return built


def test_charts_are_built_only_when_read(monkeypatch):
    # the library builds no chart complex: only the tests' oracle does
    rng = random.Random(13)
    inputs = [random_novikov_acyclic(rng, ring, span=2)
              for ring in (QQ, GF(7), GF(10007), ZZ) for _ in range(4)]
    calls = chart_complexes_built(monkeypatch)
    for c in inputs:
        s = extend_complex(c).sheaf
        cech_complex(s)
        assert s.mid.validate() == []
        ff.sheaf_from_dict(ff.sheaf_to_dict(s))
    assert calls == []
    # the chart valuations are read off the middle complex and the twists
    for c in inputs:
        if c.ring.is_field:
            assert verify_theorem(c).passed
    assert calls == []
    derived(s, "plus")
    assert calls == [BaseRing.POLY]


def test_torus_path_builds_no_level_matrices():
    # a level is its tuple of summands: no level matrix is built
    rng = random.Random(6)
    inputs = [random_novikov_acyclic(rng, ring, span=2)
              for ring in (QQ, GF(7), GF(10007), ZZ) for _ in range(4)]
    for c in inputs:
        s = extend_complex(c).sheaf
        cech_complex(s)
        assert s.mid.validate() == []
        assert ff.sheaf_from_dict(ff.sheaf_to_dict(s)).twists == s.twists
        assert all(isinstance(s.twists[m], tuple) for m in s.degrees())


# -- morphism and cone extension against the dense reference -----------------


def dense_extension_problems(z, y, f, ext):
    """The chart maps of ``extend_morphism`` checked densely: every entry
    in its chart ring, and both chart squares
    mu(Y(k, l)) f_chart = f mu(Z) as products of level torus maps."""
    problems = []
    ring = f.ring
    y_tw = tuple(shifted_summand(t, ext.k, ext.l) for t in y)
    for side, chart, base in (("minus", ext.f_minus, BaseRing.POLY_INV),
                              ("plus", ext.f_plus, BaseRing.POLY)):
        lhs = torus_map(ring, y_tw, side)
        rhs = torus_map(ring, z, side)
        problems += [f"{side} entry ({i},{j}) violates {base.tag}"
                     for i, j, p in nonzero_entries(chart)
                     if not respects(p, base)]
        if matmul(lhs, chart) != matmul(f, rhs):
            problems.append(f"{side} chart square does not commute")
    return problems


def dense_legal(z, y, f, k, l):
    """Are both charts of f legal once y is twisted by (k, l)?  The charts
    are the products diag(x^-(k_i + k)) f diag(x^k_j) and
    diag(x^(l_i + l)) f diag(x^-l_j)."""
    ring = f.ring
    minus = matmul(_monomial_diag(ring, [-t.k - k for t in y]), f,
                   _monomial_diag(ring, [t.k for t in z]))
    plus = matmul(_monomial_diag(ring, [t.l + l for t in y]), f,
                  _monomial_diag(ring, [-t.l for t in z]))
    return (all(respects(p, BaseRing.POLY_INV) for row in dense(minus)
                for p in row)
            and all(respects(p, BaseRing.POLY) for row in dense(plus)
                    for p in row))


def random_twist_sum(rng, ring, rank):
    """A sum of twisting sheaves with an independent split per summand."""
    return tuple(TwistSummand(rng.randint(-3, 3), rng.randint(-3, 3))
                 for _ in range(rank))


@settings(deadline=None, max_examples=200)
@given(seed=st.integers(0, 2 ** 32 - 1),
       ring=st.sampled_from([QQ, GF(7), ZZ]))
def test_morphism_extension_matches_dense_reference(seed, ring):
    rng = random.Random(seed)
    z = random_twist_sum(rng, ring, rng.randint(0, 3))
    y = random_twist_sum(rng, ring, rng.randint(0, 3))
    f = random_matrix(rng, ring, len(y), len(z), 3)
    ext = extend_morphism(z, y, f)
    assert dense_extension_problems(z, y, f, ext) == []
    shift = twist_shift(f, y, z)
    assert (shift is None) == f.is_zero
    assert (ext.k, ext.l) == (shift or (0, 0))
    # twist_shift is the least legal (k, l) >= 0
    assert dense_legal(z, y, f, ext.k, ext.l)
    if ext.k:
        assert not dense_legal(z, y, f, ext.k - 1, ext.l)
    if ext.l:
        assert not dense_legal(z, y, f, ext.k, ext.l - 1)


def test_morphism_extension_reference_sees_a_broken_chart():
    z = (TwistSummand(1, 0),)
    y = (TwistSummand(0, 2),)
    f = M(QQ, [[[(-1, 1), (2, 3)]]])
    ext = extend_morphism(z, y, f)
    assert (ext.k, ext.l) == (3, 0)
    assert dense_extension_problems(z, y, f, ext) == []
    wrong = MorphismExtension(ext.k, ext.l, ext.f_minus,
                              monomial_scale(ext.f_plus, [1], [0]))
    assert dense_extension_problems(z, y, f, wrong) == [
        "plus chart square does not commute"]
    low = MorphismExtension(ext.k - 1, ext.l,
                            monomial_scale(ext.f_minus, [1], [0]),
                            ext.f_plus)
    assert dense_extension_problems(z, y, f, low) == [
        "minus entry (0,0) violates K[x^-1]"]


def _cone_cases(rng, ring):
    """(v1, v2, omega) for extensions of random complexes and chain maps
    between their middles: identities, zero maps and null-homotopic maps
    between different complexes."""
    a = random_complex(rng, ring, max_length=3, max_rank=3, span=2)
    b = random_complex(rng, ring, max_length=3, max_rank=3, span=2,
                       lo=rng.randint(-1, 1))
    va, vb = extend_complex(a).sheaf, extend_complex(b).sheaf
    return [(va, va, ChainMap.identity(a)), (va, vb, ChainMap(a, b)),
            (va, vb, null_homotopic_map(rng, a, b, span=2)),
            (vb, va, null_homotopic_map(rng, b, a, span=2))]


def test_cone_twist_is_the_largest_morphism_twist():
    rng = random.Random(23)
    shifted = 0
    for ring in (QQ, GF(7), GF(10007), ZZ):
        for _ in range(8):
            for v1, v2, omega in _cone_cases(rng, ring):
                exts = [extend_morphism(v1.twists.get(m, ()),
                                        v2.twists.get(m, ()), f)
                        for m, f in omega.components.items()]
                k = max(ext.k for ext in exts)
                l = max(ext.l for ext in exts)
                s = extend_cone(v1, v2, omega)
                for m in s.degrees():
                    assert s.twists[m] == tuple(
                        shifted_summand(t, k, l)
                        for t in v2.twists.get(m, ())
                    ) + v1.twists.get(m - 1, ())
                assert_charts_match_dense(s)
                assert (s.mid.validate()
                        == dense_validate(s.mid, s.twists) == [])
                shifted += k + l > 0
    assert shifted


def test_cone_lifting_builds_no_level_or_chart(monkeypatch):
    rng = random.Random(29)
    cases = [case for ring in (QQ, GF(7), ZZ) for _ in range(4)
             for case in _cone_cases(rng, ring)]
    # a level is its tuple of summands, so only a chart could be built
    calls = chart_complexes_built(monkeypatch)
    for v1, v2, omega in cases:
        extend_cone(v1, v2, omega)
    assert calls == []


# -- homology from the factors-only kernel ----------------------------------


def test_homology_calls_the_kernel_once_per_differential(monkeypatch):
    import p1dom.complexes as complexes

    calls = []
    original = complexes.invariant_factors

    def recording(a):
        calls.append(a)
        return original(a)

    monkeypatch.setattr(complexes, "invariant_factors", recording)
    rng = random.Random(8)
    forms = 0
    for ring in (QQ, GF(7)):
        for _ in range(10):
            c = random_complex(rng, ring, max_length=4, max_rank=3, span=2)
            calls.clear()
            homology(c)
            # one kernel call per nonempty differential, nothing else
            nonempty = [d for d in c.diffs.values() if d.rows and d.cols]
            assert calls == nonempty
            forms += len(nonempty)
    assert forms


def two_form_homology(c):
    """Homology entries by the earlier two-step algorithm: per degree, a
    kernel basis of d_q, the coordinates of im d_{q+1} in that basis, and
    the invariant factors of those coordinates."""
    entries = {}
    for q in c.degrees():
        if c.rank(q) == 0:
            entries[q] = HomologyEntry(0, (), 0)
            continue
        incoming = c.diff(q + 1)
        kernel = kernel_basis(c.diff(q))
        kernel_rank = kernel.cols
        if incoming.cols == 0 or kernel_rank == 0:
            free, torsion = kernel_rank, ()
        else:
            factors = invariant_factors(kernel_coordinates(kernel, incoming))
            free = kernel_rank - len(factors)
            torsion = tuple(f for f in factors if core_degree(f) > 0)
        kdim = None if free else sum(core_degree(f) for f in torsion)
        entries[q] = HomologyEntry(free, torsion, kdim)
    return entries


@settings(deadline=None, max_examples=200)
@given(seed=st.integers(0, 2 ** 32 - 1),
       ring=st.sampled_from([QQ, GF(7), GF(10007)]),
       kind=st.sampled_from(HOMOLOGY_KINDS))
def test_homology_matches_two_form_reference(seed, ring, kind):
    c = homology_case(seed, ring, kind)
    assert homology(c).entries == two_form_homology(c)


def test_homology_reference_cases_have_torsion():
    torsion = free = 0
    for seed in range(40):
        for ring in (QQ, GF(7), GF(10007)):
            for kind in HOMOLOGY_KINDS:
                entries = homology(homology_case(seed, ring, kind)).entries
                torsion += any(e.torsion for e in entries.values())
                free += any(e.free_rank for e in entries.values())
    assert torsion > 150 and free > 150


def test_homology_reports_a_rank_excess_as_d_d():
    # d_1 d_2 = 1: the ranks of d_1 and d_2 add up past rank C_1
    one = M(QQ, [[1]])
    c = ChainComplex(QQ, BaseRing.LAURENT, 0, 2, {0: 1, 1: 1, 2: 1},
                     {1: one, 2: one})
    with pytest.raises(ShapeError,
                       match="invalid complex: degree 2: d.d != 0"):
        homology(c)


# -- Laurent arithmetic on entries, without renormalising --------------------


RINGS = [QQ, GF(7), ZZ]


def _coefficients(ring):
    if ring is QQ:
        return st.fractions(min_value=-5, max_value=5, max_denominator=6)
    return st.integers(-9, 9)


@st.composite
def polys(draw, ring):
    coeffs = draw(st.dictionaries(st.integers(-4, 4), _coefficients(ring),
                                  max_size=4))
    return LaurentPoly(ring, coeffs)


def assert_canonical(p):
    """Stored exactly as the normalising constructor would store it."""
    ring = p.ring
    again = LaurentPoly(ring, dict(p.items()))
    assert p.items() == again.items()
    for _, c in p.items():
        assert c != 0
        assert type(c) is type(ring.normalise(c))
        assert c == ring.normalise(c)


def reference_product(a, b):
    ring = a.ring
    acc = {}
    for e1, c1 in a.items():
        for e2, c2 in b.items():
            acc[e1 + e2] = add(ring, acc.get(e1 + e2, zero(ring)),
                               mul(ring, c1, c2))
    return LaurentPoly(ring, acc)


def reference_sum(a, b, sign=1):
    ring = a.ring
    exps = {e for e, _ in a.items()} | {e for e, _ in b.items()}
    return LaurentPoly(ring, {
        e: add(ring, coeff(a, e), mul(ring, ring.from_int(sign), coeff(b, e)))
        for e in exps})


@settings(deadline=None, max_examples=200)
@given(data=st.data(), ring=st.sampled_from(RINGS))
def test_arithmetic_results_equal_the_normalising_constructor(data, ring):
    a = data.draw(polys(ring))
    b = data.draw(polys(ring))
    shift = data.draw(st.integers(-3, 3))
    k = ring.normalise(data.draw(_coefficients(ring)))
    results = {
        "add": (polyadd(a, b), reference_sum(a, b)),
        "sub": (polysub(a, b), reference_sum(a, b, -1)),
        "neg": (polyneg(a), LaurentPoly(ring, {e: -c for e, c in a.items()})),
        "mul": (polymul(a, b), reference_product(a, b)),
        "scale": (polyscale(a, k), LaurentPoly(ring, {e: c * k
                                                      for e, c in a.items()})),
        "times_monomial": (times_monomial(a, shift, k),
                           LaurentPoly(ring, {e + shift: c * k
                                              for e, c in a.items()})),
    }
    for name, (got, want) in results.items():
        assert_canonical(got)
        assert got == want, name


@settings(deadline=None, max_examples=150)
@given(data=st.data(), ring=st.sampled_from([QQ, GF(7)]))
def test_field_operations_are_canonical(data, ring):
    a = data.draw(polys(ring))
    if not a.is_zero:
        v, lead, core = unit_normalise(a)
        assert_canonical(core)
        assert polymul(monomial(ring, v, lead), core) == a
    if is_unit(a):
        inv = inverse_unit(a)
        assert_canonical(inv)
        assert polymul(a, inv) == LaurentPoly.one(ring)


def test_scale_normalises_outside_coefficients():
    p = P(QQ, (0, 1), (2, 3))
    assert polyscale(p, 2).items() == [(0, Fraction(2)), (2, Fraction(6))]
    assert_canonical(polyscale(p, 2))
    q = P(GF(7), (1, 3))
    assert polyscale(q, 12).items() == [(1, 1)]
    assert times_monomial(q, 1, -1).items() == [(2, 4)]
    assert polyadd(P(GF(7), (0, 3)), P(GF(7), (0, 4))).is_zero
    assert polymul(P(ZZ, (0, 2), (1, 1)), P(ZZ, (0, -1))).items() == [
        (0, -2), (1, -1)]
