"""Answers are invariants of the isomorphism class: a metamorphic oracle.

Three moves give an isomorphic complex, so every exact answer must stay
the same: a unimodular basis change T_{m-1}^-1 d_m T_m
(``helpers.basis_change``), a permutation of the basis of each C_m, and
a generator shift, each basis element e of C_m taken to x^s e with
|s| <= 2.  The seeds of the moves are fixed by the complex's place in
its corpus and not by any answer.

Over a field the corpus is the first 100 verify-desk draws (seed 777)
and 100 ``random_complex`` draws (seed 1403, Q and GF(10007) in turn);
the Novikov verdicts, the homology over K[x,x^-1] (free ranks, monic
torsion factors and K-dimensions) and the ``verify`` verdict must be
equal, and the ledger must hold on every PASS.  The twist profile, W's
ranks and the chart valuations are not invariants.

Over Z the corpus is the 300 pinned complexes of
``test_z_verdict_digests``.  Z mode's unit-pivot contraction is sound but
incomplete, and which pivots it finds depends on the basis: under a
basis change a side may move between a sure answer and ``unknown``,
never between ``yes`` and ``no``, and the number of sides that move is
pinned as a baseline that may only fall.  A permutation or a shift moves
no side.
"""

import random

import pytest

from p1dom.complexes import ChainComplex, homology
from p1dom.domination import novikov_check, verify_theorem
from p1dom.generators import random_complex, random_novikov_acyclic
from p1dom.matrices import LaurentMatrix
from p1dom.scalars import GF, QQ

from helpers import basis_change
from test_z_verdict_digests import SPANS, corpus

CHANGES = 2
# sides of the 1200 (300 complexes, two changes, two sides) that move
# to or from "unknown", all of them from "yes"; the exact Z decision of
# ROADMAP item 10 brings this to 0
UNKNOWN_MOVES = 12


def _moved(c, new_index, shifts):
    """The complex of ``c`` on the basis whose i-th element in degree m
    is x^shifts[m][i] times its new_index[m][i]-th element."""
    diffs = {}
    for m, d in c.diffs.items():
        rows, cols = new_index[m - 1], new_index[m]
        # old (i, j) lands at (rows[i], cols[j]), shifted by s_j - t_i
        data = [{} for _ in range(d.rows)]
        for i, row in enumerate(d.data):
            for j, (v, coeffs) in row.items():
                data[rows[i]][cols[j]] = (
                    v + shifts[m][cols[j]] - shifts[m - 1][rows[i]], coeffs)
        diffs[m] = LaurentMatrix(c.ring, d.rows, d.cols,
                                 [dict(sorted(r.items())) for r in data])
    return ChainComplex(c.ring, c.base, c.lo, c.hi, c.ranks, diffs)


def permuted(rng, c):
    """``c`` on a random permutation of the basis of each C_m."""
    new_index = {}
    for m in c.degrees():
        new_index[m] = list(range(c.rank(m)))
        rng.shuffle(new_index[m])
    return _moved(c, new_index, {m: [0] * c.rank(m) for m in c.degrees()})


def shifted(rng, c, bound=2):
    """``c`` on the basis x^s e, s drawn from -bound..bound for each
    basis element e."""
    return _moved(c, {m: list(range(c.rank(m))) for m in c.degrees()},
                  {m: [rng.randint(-bound, bound) for _ in range(c.rank(m))]
                   for m in c.degrees()})


MOVES = {"basis-change": basis_change, "permutation": permuted,
         "shift": shifted}
# draws of each move per field complex
FIELD_DRAWS = {"basis-change": 2, "permutation": 1, "shift": 1}


def field_corpus():
    """(name, complex): the first 100 verify-desk draws, then 100
    ``random_complex`` draws over Q and GF(10007) in turn."""
    rng = random.Random(777)
    for i in range(100):
        yield f"desk/{i}", random_novikov_acyclic(
            rng, QQ if i % 5 == 0 else GF(7))
    rng = random.Random(1403)
    for i in range(100):
        yield f"random/{i}", random_complex(
            rng, (QQ, GF(10007))[i % 2], max_length=4, max_rank=3, span=3)


def field_answers(c):
    v = novikov_check(c)
    report = verify_theorem(c)
    assert report.witness is None or report.witness.ledger_holds
    return (v.x_side.acyclic, v.x_inv_side.acyclic, homology(c),
            report.verdict)


@pytest.mark.parametrize("move", list(FIELD_DRAWS))
def test_field_answers_do_not_depend_on_the_basis(move):
    verdicts, changed = set(), 0
    for name, c in field_corpus():
        before = field_answers(c)
        verdicts.add(before[-1])
        for k in range(FIELD_DRAWS[move]):
            rng = random.Random(f"metamorphic/field/{move}/{name}/{k}")
            after = MOVES[move](rng, c)
            changed += after != c
            assert field_answers(after) == before, (name, k)
    assert verdicts == {"PASS", "FAIL"}
    assert changed > 50  # a rank-1 degree has one order


def answers(c):
    v = novikov_check(c)
    return v.x_side.acyclic, v.x_inv_side.acyclic


def test_z_answers_do_not_depend_on_the_basis():
    moves = sides = 0
    for span in SPANS:
        for i, c in enumerate(corpus(span)):
            before = answers(c)
            for k in range(CHANGES):
                rng = random.Random(f"metamorphic/z/{span}/{i}/{k}")
                after = answers(basis_change(rng, c))
                for a, b in zip(before, after):
                    sides += 1
                    assert {a, b} != {"yes", "no"}, (span, i, k)
                    moves += a != b
    assert sides == 1200
    assert moves <= UNKNOWN_MOVES


@pytest.mark.parametrize("move", ["permutation", "shift"])
def test_z_answers_do_not_depend_on_the_order_or_shift(move):
    # 300 complexes, two draws each: 1200 sides, none of which moves
    changed = 0
    for span in SPANS:
        for i, c in enumerate(corpus(span)):
            before = answers(c)
            for k in range(CHANGES):
                rng = random.Random(f"metamorphic/z/{move}/{span}/{i}/{k}")
                after = MOVES[move](rng, c)
                changed += after != c
                assert answers(after) == before, (span, i, k)
    assert changed > 300
