"""Mapping tori: Novikov-acyclic complexes with known answers.

T = cone(x - f) for a self-map f = a id + (null-homotopic) of a random
complex D with constant differentials (``paper_lemmas``).  Over a field
with a a unit, T passes the theorem pipeline and H_q(T) has K-dimension
the Betti number of D in degree q.  Over Z the x^-1 side is always
acyclic, and the x side is acyclic exactly when x - a is invertible on
H(D) (x) Z((x)): for a = 1 or -1 always, for a = 2 or 3 exactly when D
has no rational homology, since on a finite H(D) x - a is a unit.  That
f is a quasi-isomorphism is sufficient there, not necessary: for
D = (Z --2--> Z) and f = 2 id the x side is acyclic, though f is not a
quasi-isomorphism (that is the condition over Z[[x]]).  Z mode may still
answer "unknown" (its unit-pivot search is incomplete), but never a
wrong "yes" or "no"; the tests assert only that.
"""

import random

import pytest

from p1dom.domination import novikov_check, verify_theorem
from p1dom.scalars import GF, QQ, ZZ

from helpers import betti_numbers
from paper_lemmas import random_mapping_torus


@pytest.mark.parametrize("ring", [QQ, GF(7)], ids=lambda r: r.tag)
@pytest.mark.parametrize("a", [1, -1, 3])
def test_field_mapping_tori_pass_with_the_betti_numbers(ring, a):
    rng = random.Random(f"mapping-torus/{ring.tag}/{a}")
    for _ in range(20):
        d, t = random_mapping_torus(rng, ring, a)
        report = verify_theorem(t)
        assert report.passed
        betti = betti_numbers(d)
        for row in report.witness.ledger:
            assert row.mid_kdim == betti.get(row.degree, 0)


@pytest.mark.parametrize("a", [1, -1, 2, 3])
def test_integer_mapping_tori_verdicts_are_never_wrong(a):
    rng = random.Random(f"mapping-torus/Z/{a}")
    for _ in range(25):
        d, t = random_mapping_torus(rng, ZZ, a)
        verdict = novikov_check(t)
        assert verdict.x_inv_side.acyclic != "no"
        if a in (1, -1):
            assert verdict.x_side.acyclic != "no"
        elif any(betti_numbers(d).values()):
            assert verdict.x_side.acyclic != "yes"
