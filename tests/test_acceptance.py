"""Acceptance criteria, one test per criterion.

Every check is exact (integer and exact-arithmetic equality); each test
prints a single PASS line on success and carries its runtime budget as a
hard assertion.  Randomised suites use fixed seeds so the run is
reproducible bit for bit.
"""

import random
import time

from p1dom import fileformat as ff
from p1dom.cli import main as cli_main
from p1dom.complexes import homology_dims
from p1dom.domination import novikov_check, verify_theorem
from p1dom.extension import extend_complex, restrict_to_torus
from p1dom.generators import random_complex, random_novikov_acyclic
from p1dom.laurent import BaseRing
from p1dom.scalars import GF, QQ, ZZ
from p1dom.sheaves import cech_cohomology, cech_complex, twisting_sheaf

from helpers import M, maxdeg, mindeg, nonzero_entries, single, two_term
from paper_lemmas import (ChainMap, cone, diagram_with_a_non_chain_map,
                          extend_cone, iota, is_acyclic, is_quasi_iso,
                          phi_star, quasi_iso_inflation,
                          random_surjective_diagram, ses_check, torus_diagram)


def _report(name, detail=""):
    print(f"\nACCEPTANCE {name}: PASS" + (f" ({detail})" if detail else ""))


def _mixed_ring(i):
    return QQ if i % 5 == 0 else GF(7)


def _exponents_bounded(c, bound=3):
    return all(-bound <= mindeg(p) and maxdeg(p) <= bound
               for m in range(c.lo + 1, c.hi + 1)
               for _, _, p in nonzero_entries(c.diff(m)))


def test_criterion_twist_cohomology_table():
    t0 = time.time()
    for n in range(-8, 9):
        for k in (0, 1, -2, n, n // 2):
            l = n - k
            coh = cech_cohomology(twisting_sheaf(n, k))
            want_h0 = n + 1 if n >= 0 else 0
            want_h1 = -n - 1 if n <= -2 else 0
            assert (coh.h0_dim, coh.h1_dim) == (want_h0, want_h1)
            if n >= 0:
                assert [e for _, e in coh.h0_basis] == \
                    list(range(-l, k + 1))
                assert coh.h1_basis == ()
            elif n <= -2:
                assert [e for _, e in coh.h1_basis] == \
                    list(range(k + 1, -l))
                assert coh.h0_basis == ()
            else:
                assert coh.h0_basis == () and coh.h1_basis == ()
    elapsed = time.time() - t0
    assert elapsed < 1.0
    _report("twisting-sheaf cohomology table", f"{elapsed:.2f}s")


def test_criterion_ses_property():
    t0 = time.time()
    rng = random.Random(2024)
    done = 0
    while done < 100:
        ring = _mixed_ring(done)
        d = random_surjective_diagram(rng, ring, max_length=4, max_rank=4)
        if not all(_exponents_bounded(c) for c in (d.minus, d.mid, d.plus)):
            continue
        assert ses_check(d)
        done += 1
    # negative control: a structure map that is no chain map
    for ring in (QQ, GF(7)):
        assert not ses_check(diagram_with_a_non_chain_map(ring))
    elapsed = time.time() - t0
    assert elapsed < 10.0
    _report("SES property", f"100 diagrams and a negative control, "
                            f"{elapsed:.1f}s")


def test_criterion_lemma_quasi_iso_claims():
    t0 = time.time()
    rng = random.Random(515)
    # claim 1: quasi-iso components induce a quasi-iso on totalisations
    for i in range(100):
        ring = _mixed_ring(i)
        d = random_surjective_diagram(rng, ring, 2, 2)
        _, phi = quasi_iso_inflation(rng, d)
        assert not phi.validate()
        assert is_quasi_iso(phi_star(phi))
    # claim 2: levelwise surjectivity makes the sections inclusion a
    # quasi-iso (cone acyclicity computed exactly); twist-built sheaf
    # complexes are exercised through their torus diagrams plus the exact
    # levelwise section-sequence checks
    for i in range(80):
        ring = _mixed_ring(i)
        d = random_surjective_diagram(rng, ring, 2, 2)
        assert is_quasi_iso(iota(d))
    for i in range(20):
        ring = _mixed_ring(i)
        ext = extend_complex(random_complex(rng, ring, 3, 2))
        assert all(k + l >= 0 for m in ext.sheaf.degrees()
                   for k, l in ext.sheaf.twists[m])
        assert is_quasi_iso(iota(torus_diagram(ext.sheaf)))
    elapsed = time.time() - t0
    assert elapsed < 60.0
    _report("quasi-isomorphism principle, both claims",
            f"100 + 100 instances, {elapsed:.1f}s")


def test_criterion_extension_round_trip():
    t0 = time.time()
    rng = random.Random(90210)
    done = 0
    while done < 200:
        ring = _mixed_ring(done)
        c = random_complex(rng, ring, max_length=4, max_rank=4)
        if not _exponents_bounded(c):
            continue
        ext = extend_complex(c)
        assert restrict_to_torus(ext.sheaf) == c
        assert all(k >= 0 and l >= 0 for k, l in ext.profile.values())
        for m in ext.sheaf.degrees():
            assert cech_cohomology(ext.sheaf.twists[m]).h1_dim == 0
        done += 1
    elapsed = time.time() - t0
    assert elapsed < 60.0
    _report("extension round trip", f"200 complexes, {elapsed:.1f}s")


def test_criterion_theorem_desk_scale():
    t0 = time.time()
    # the torsion two-term example, end to end
    report = verify_theorem(two_term(QQ, [(0, -1), (1, 1)]))
    assert report.passed
    w = report.witness.w
    assert {m: w.rank(m) for m in w.degrees()} == {0: 2, 1: 1}
    dims = homology_dims(w)
    assert dims[0] == 1 and dims[1] == 0
    rows = {r.degree: r for r in report.witness.ledger}
    assert rows[0].plus_dim == 0 and rows[0].minus_dim == 0
    assert report.witness.ledger_holds
    # 100 generated Novikov-acyclic instances
    rng = random.Random(777)
    for i in range(100):
        ring = _mixed_ring(i)
        c = random_novikov_acyclic(rng, ring)
        rep = verify_theorem(c)
        assert rep.passed
        assert max(rep.witness.largest_valuations()) <= 64
    elapsed = time.time() - t0
    assert elapsed < 300.0
    _report("theorem pipeline, desk scale",
            f"named example + 100 instances, {elapsed:.1f}s")


def test_criterion_negative_control(tmp_path):
    c = single(QQ, BaseRing.LAURENT, 0, 1)
    report = verify_theorem(c)
    assert not report.passed
    assert report.checks[0].name == "novikov-acyclic"
    assert "free rank 1 in degree 0" in report.checks[0].detail
    path = tmp_path / "rank1.cplx"
    ff.save_path(path, ff.complex_to_dict(c))
    assert cli_main(["verify", str(path)]) == 1
    _report("negative control", "exit code 1, free rank reported")


def test_criterion_integer_mode_asymmetry():
    v = novikov_check(two_term(ZZ, [(0, 2), (1, -1)]))
    assert v.x_side.acyclic == "no"
    assert v.x_inv_side.acyclic == "yes"
    # 2 - x is a unit of Z((x^-1)) and not of Z((x)): its end coefficients
    assert v.x_side.certificate["end_coefficient"] == "2"
    assert v.x_inv_side.certificate["end_coefficient"] == "-1"
    _report("integer-mode asymmetry", "end coefficients 2 and -1")


def test_criterion_cone_lifting():
    c = single(QQ, BaseRing.LAURENT, 0, 1)
    v1 = extend_complex(c)
    v2 = extend_complex(c)
    omega = ChainMap(c, c, {0: M(QQ, [[[(0, -1), (1, 1)]]])})
    lifted = extend_cone(v1.sheaf, v2.sheaf, omega)
    assert not lifted.mid.validate()
    restricted = restrict_to_torus(lifted)
    reference = two_term(QQ, [(0, -1), (1, 1)])
    comparison = ChainMap.identity(reference)
    assert restricted == reference
    assert is_acyclic(cone(comparison)[0])
    # the lifted complex has workable global sections
    w = cech_complex(lifted)
    assert homology_dims(w)[0] >= 1
    _report("cone lifting", "omega = x - 1")
