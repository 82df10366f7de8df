"""Embedded example corpus and reduced property suites for `p1dom selftest`.

Each group returns (name, ok, detail); run_selftest executes all of them
and reports one line per group.  Every group exercises what the commands
compute.  The paper's lemmas (the exact sequence of a diagram's
totalisation, quasi-isomorphism invariance, the lift of a mapping cone)
are no part of that pipeline and run as acceptance tests only.  The
counts here are deliberately small; the full suites live in the test
directory.
"""

from __future__ import annotations

import random

from .complexes import ChainComplex
from .domination import chart_homology, novikov_check, verify_theorem
from .errors import NotAUnitError
from .extension import extend_complex, restrict_to_torus
from .generators import random_complex, random_novikov_acyclic, random_ring
from .laurent import BaseRing, LaurentPoly
from .matrices import LaurentMatrix
from .polylists import window, window_inverse
from .scalars import QQ, ZZ
from .sheaves import cech_cohomology, twisting_sheaf
from .smith import invariant_factors


def _poly(ring, pairs):
    return LaurentPoly.from_pairs(ring, pairs)


def group_twist_table():
    for n in range(-8, 9):
        for k in (0, n, n // 2):
            coh = cech_cohomology(twisting_sheaf(n, k))
            want_h0 = n + 1 if n >= 0 else 0
            want_h1 = -n - 1 if n <= -2 else 0
            if (coh.h0_dim, coh.h1_dim) != (want_h0, want_h1):
                return False, f"O({n}) dims wrong"
            l = n - k
            if n >= 0 and [e for _, e in coh.h0_basis] != list(
                    range(-l, k + 1)):
                return False, f"O({n}) section basis wrong"
            if n <= -2 and [e for _, e in coh.h1_basis] != list(
                    range(k + 1, -l)):
                return False, f"O({n}) obstruction basis wrong"
    return True, "n in [-8, 8]"


def group_series():
    geom = window_inverse(window(_poly(ZZ, [(0, 1), (1, -1)]).entry, 1, 4))
    if geom != ((0, [1, 1, 1, 1]), 4):
        return False, "geometric series"
    try:
        window_inverse(window(_poly(ZZ, [(0, 2), (1, -1)]).entry, 1, 4))
        return False, "2-x must not invert in Z[[x]]"
    except NotAUnitError:
        pass
    return True, "inversion and unit detection"


def group_exact_algebra():
    ring = QQ
    a = LaurentMatrix(ring, 1, 1, [{0: _poly(ring, [(1, 1), (0, -1)]).entry}])
    if [str(f) for f in invariant_factors(a)] != ["-1 + x"]:
        return False, "single-entry normal form"
    diag = LaurentMatrix(ring, 2, 2, [
        {0: _poly(ring, [(1, 1)]).entry},
        {1: _poly(ring, [(2, 1), (1, -1)]).entry}])
    if [str(f) for f in invariant_factors(diag)] != ["1", "-1 + x"]:
        return False, "unit-monomial normalisation"
    if invariant_factors(LaurentMatrix.zero(ring, 2, 3)) != ():
        return False, "zero matrix cokernel"
    return True, "normal forms"


def group_novikov():
    c = ChainComplex.two_term(ZZ, _poly(ZZ, [(0, 2), (1, -1)]))
    v = novikov_check(c)
    if not (v.x_side.acyclic == "no" and v.x_inv_side.acyclic == "yes"):
        return False, "2-x asymmetry"
    c = ChainComplex.two_term(QQ, _poly(QQ, [(0, -1), (1, 1)]))
    if not novikov_check(c).both_acyclic:
        return False, "x-1 over Q"
    return True, "field and Z verdicts"


def group_verify_theorem():
    c = ChainComplex.two_term(QQ, _poly(QQ, [(0, -1), (1, 1)]))
    report = verify_theorem(c)
    if not report.passed:
        return False, "x-1 complex should PASS"
    if report.witness.w_ranks() != {0: 2, 1: 1}:
        return False, "witness ranks"
    bad = ChainComplex.single(QQ, BaseRing.LAURENT, 0, 1)
    if verify_theorem(bad).passed:
        return False, "free rank must FAIL"
    return True, "witness and negative control"


def group_extension_roundtrip(rng, cases=20):
    for _ in range(cases):
        ring = random_ring(rng)
        c = random_complex(rng, ring)
        ext = extend_complex(c)
        if restrict_to_torus(ext.sheaf) != c:
            return False, "restriction differs"
        if any(k < 0 or l < 0 for k, l in ext.profile.values()):
            return False, "negative twist"
        for m in ext.sheaf.degrees():
            if cech_cohomology(ext.sheaf.twists[m]).h1_dim:
                return False, "levelwise H1 nonzero"
    return True, f"{cases} cases"


def group_theorem_random(rng, cases=8):
    for _ in range(cases):
        ring = random_ring(rng)
        c = random_novikov_acyclic(rng, ring)
        if not verify_theorem(c).passed:
            return False, "random Novikov-acyclic instance failed"
    return True, f"{cases} cases"


def group_chart_homology():
    ring = QQ
    c = ChainComplex.two_term(ring, _poly(ring, [(1, 1)]), 1, BaseRing.POLY)
    if chart_homology(c) != {0: (0, 1), 1: (0, 0)}:
        return False, "K[[x]]/x class missing"
    if chart_homology(ChainComplex.single(ring, BaseRing.POLY, 0, 1)) != {
            0: (1, 0)}:
        return False, "free K[[x]] missing"
    return True, "K[[x]]/x and K[[x]]"


GROUPS = [
    ("twist-cohomology-table", group_twist_table),
    ("exact-algebra", group_exact_algebra),
    ("series-arithmetic", group_series),
    ("novikov-verdicts", group_novikov),
    ("theorem-examples", group_verify_theorem),
    ("chart-homology", group_chart_homology),
]

SEEDED_GROUPS = [
    ("extension-round-trip", group_extension_roundtrip),
    ("theorem-random", group_theorem_random),
]


def run_selftest(seed: int = 0):
    """Returns (all_ok, lines)."""
    lines = []
    all_ok = True
    for name, fn in GROUPS:
        try:
            ok, detail = fn()
        except Exception as exc:   # a crash is a failure, not an abort
            ok, detail = False, f"error: {exc}"
        all_ok &= ok
        lines.append(f"{'PASS' if ok else 'FAIL'}  {name}  ({detail})")
    for name, fn in SEEDED_GROUPS:
        rng = random.Random(seed)
        try:
            ok, detail = fn(rng)
        except Exception as exc:
            ok, detail = False, f"error: {exc}"
        all_ok &= ok
        lines.append(f"{'PASS' if ok else 'FAIL'}  {name}  ({detail})")
    return all_ok, lines
