"""Answers are invariants of the isomorphism class: a metamorphic oracle.

A unimodular basis change T_{m-1}^-1 d_m T_m (``helpers.basis_change``)
gives an isomorphic complex, so every exact answer must stay the same.
Z mode's unit-pivot contraction is sound but incomplete, and which
pivots it finds depends on the basis: a side may move between a sure
answer and ``unknown``, never between ``yes`` and ``no``.  Here each of
the 300 pinned Z complexes of ``test_z_verdict_digests`` is taken under
two basis changes, their seeds fixed by the complex's place in the
corpus and not by any answer.  The number of sides that move to or from
``unknown`` is pinned as a baseline that may only fall.
"""

import random

from p1dom.domination import novikov_check

from helpers import basis_change
from test_z_verdict_digests import SPANS, corpus

CHANGES = 2
# sides of the 1200 (300 complexes, two changes, two sides) that move
# to or from "unknown", all of them from "yes"; the exact Z decision of
# ROADMAP item 10 brings this to 0
UNKNOWN_MOVES = 12


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
