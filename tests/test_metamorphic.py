"""Answers are invariants of the isomorphism class: a metamorphic oracle.

Three moves give an isomorphic complex, so every exact answer must stay
the same: a unimodular basis change T_{m-1}^-1 d_m T_m
(``helpers.basis_change``), a permutation of the basis of each C_m, and
a generator shift, each basis element e of C_m taken to x^s e with
|s| <= 2.  Two more keep the answers up to a re-indexing: the degree
shift C[k] (``helpers.shift``), whose homology moves up by k, and the
direct sum with a contractible piece R --u x^e--> R, u a unit of the
ring, inside the support, which is homotopy equivalent to C.  The seeds
of the moves are fixed by the complex's place in its corpus and not by
any answer.

Over a field the corpus is the first 100 verify-desk draws (seed 777)
and 100 ``random_complex`` draws (seed 1403, Q and GF(10007) in turn);
the Novikov verdicts, the homology over K[x,x^-1] (free ranks, monic
torsion factors and K-dimensions, re-indexed by k after C[k]) and the
``verify`` verdict must be equal, and the ledger must hold on every
PASS.  The twist profile, W's ranks and the chart valuations are not
invariants.

Over Z the corpus is the 300 pinned complexes of
``test_z_verdict_digests``.  Z mode's unit-pivot contraction is sound but
incomplete, and which pivots it finds depends on the basis: under a
basis change or a contractible summand a side may move between a sure
answer and ``unknown``, never between ``yes`` and ``no``, and the number
of sides that move is pinned as a baseline that may only fall.  A
permutation, a generator shift or a degree shift moves no side.
"""

import random

import pytest

from p1dom.complexes import ChainComplex, homology
from p1dom.domination import novikov_check, verify_theorem
from p1dom.generators import random_complex, random_novikov_acyclic
from p1dom.matrices import LaurentMatrix
from p1dom.scalars import GF, QQ

from helpers import basis_change, direct_sum, shift, two_term
from test_z_verdict_digests import SPANS, corpus

CHANGES = 2
# sides of the 1200 (300 complexes, two changes, two sides) that move
# to or from "unknown", all of them from "yes"; the exact Z decision of
# ROADMAP item 10 brings this to 0
UNKNOWN_MOVES = 12
# the same count for a contractible summand, all of them from "no": a
# summand outside the two degrees of a square two-term complex sends its
# determinant's sure "no" to the contraction, which answers "unknown"
SUMMAND_UNKNOWN_MOVES = 42


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


def degree_shifted(rng, c):
    """C[k] for k drawn from -3..3 but 0: the degrees move up by k and
    each differential takes the sign (-1)^k."""
    return shift(c, rng.choice([-3, -2, -1, 1, 2, 3]))


def with_contractible(rng, c):
    """C (+) (R --u x^e--> R) in degrees m - 1 and m inside the support,
    u a unit of the ring and |e| <= 2; C itself when the support is one
    degree."""
    if c.lo == c.hi:
        return c
    unit = rng.choice([1, -1, 2, -3] if c.ring.is_field else [1, -1])
    return direct_sum(c, two_term(c.ring, [(rng.randint(-2, 2), unit)],
                                  rng.randint(c.lo + 1, c.hi)))


MOVES = {"basis-change": basis_change, "permutation": permuted,
         "shift": shifted, "degree-shift": degree_shifted,
         "contractible-sum": with_contractible}
# draws of each move per field complex
FIELD_DRAWS = {"basis-change": 2, "permutation": 1, "shift": 1,
               "degree-shift": 1, "contractible-sum": 1}


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


def field_answers(c, k=0):
    """The invariants of C[k] read as those of C."""
    v = novikov_check(c)
    report = verify_theorem(c)
    assert report.witness is None or report.witness.ledger_holds
    return (v.x_side.acyclic, v.x_inv_side.acyclic,
            {q - k: e for q, e in homology(c).entries.items()},
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
            # only C[k] moves the support, by k
            assert field_answers(after, after.lo - c.lo) == before, (name, k)
    assert verdicts == {"PASS", "FAIL"}
    assert changed > 50  # a rank-1 degree has one order


def answers(c):
    v = novikov_check(c)
    return v.x_side.acyclic, v.x_inv_side.acyclic


def z_moved_sides(move, tag):
    """The (span, index, draw) of each side that ``move`` moves, the
    number of draws that changed the complex and the number of sides
    compared; no side may move between yes and no."""
    moved, changed, sides = [], 0, 0
    for span in SPANS:
        for i, c in enumerate(corpus(span)):
            before = answers(c)
            for k in range(CHANGES):
                rng = random.Random(f"{tag}/{span}/{i}/{k}")
                after = MOVES[move](rng, c)
                changed += after != c
                for a, b in zip(before, answers(after)):
                    sides += 1
                    assert {a, b} != {"yes", "no"}, (span, i, k)
                    if a != b:
                        moved.append((span, i, k))
    return moved, changed, sides


def test_z_answers_do_not_depend_on_the_basis():
    moved, _, sides = z_moved_sides("basis-change", "metamorphic/z")
    assert sides == 1200
    assert len(moved) <= UNKNOWN_MOVES


@pytest.mark.parametrize("move", ["permutation", "shift", "degree-shift"])
def test_z_answers_do_not_depend_on_the_order_or_shift(move):
    # 300 complexes, two draws each: 1200 sides, none of which moves
    moved, changed, _ = z_moved_sides(move, f"metamorphic/z/{move}")
    assert moved == []
    assert changed > 300


def test_z_answers_under_a_contractible_summand():
    moved, changed, _ = z_moved_sides("contractible-sum",
                                      "metamorphic/z/contractible-sum")
    assert len(moved) <= SUMMAND_UNKNOWN_MOVES
    assert changed > 500  # a one-degree complex takes no summand
