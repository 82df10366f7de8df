"""Seeded random instances for property suites.

Valid complexes are elementary pieces (two-term complexes and single free
levels) conjugated by random invertible basis changes, so d.d = 0 holds
by construction while differentials look generic.  It all runs on
``polylists`` entries: the pieces go straight into the rows of one
block-diagonal matrix per degree, and a basis change T is drawn as
elementary row operations, each with its inverse (``_elementary_ops``),
which act on the nonzero entries of d to form T^-1 d T: no T, no matrix
product and no ``LaurentPoly`` is built.  The same recipe with
unit-monomial pieces yields Novikov-acyclic instances.  The maps and
diagrams of the paper's lemmas are drawn by the tests
(``tests/paper_lemmas.py``) from the same entries.

The same seed gives the same draws: the same calls to ``random`` in the
same order and the same polynomials with the same coefficient types.  The
acceptance corpus, the report digests, ``p1dom selftest`` and the
benchmark's corpora and expected outputs rely on it, and
``tests/test_generator_digests.py`` pins it.
"""

from __future__ import annotations

import random

from .complexes import ChainComplex
from .laurent import BaseRing
from .matrices import LaurentMatrix
from .polylists import ONE, from_terms, lincomb, scaled
from .scalars import GF, QQ, CoefficientRing


def random_ring(rng: random.Random) -> CoefficientRing:
    return rng.choice([QQ, GF(5), GF(7), GF(10007)])


def _poly_entry(rng, ring, min_exp, max_exp, terms, nonzero=False):
    """The entry of up to ``terms`` terms c x^e, c from -3 to 3; with
    ``nonzero`` a zero draw falls back to one monomial, whose coefficient
    is 1 where the drawn one is zero in the ring (2 over GF(2))."""
    acc = {}
    for _ in range(rng.randint(1 if nonzero else 0, terms)):
        e = rng.randint(min_exp, max_exp)
        c = rng.randint(-3, 3)
        if c:
            acc[e] = acc.get(e, 0) + c
    entry = from_terms([(e, ring.from_int(c)) for e, c in acc.items()],
                       ring.p)
    if nonzero and entry is None:
        e = rng.randint(min_exp, max_exp)
        entry = e, (ring.from_int(rng.choice([1, -1, 2])) or ring.one(),)
    return entry


def _elementary_ops(rng, ring, n, span):
    """The row operations E_1, ..., E_k of a random basis change
    T = E_k...E_1 of rank n, from 2n draws, whose determinant is a unit
    monomial.  Each is a record (kind, i, j, x, y), y undoing x: kind 0
    adds x times row j to row i (y = -x), kind 1 swaps rows i and j, and
    kind 2 multiplies row i by the unit x = (e, c), that is c x^e
    (y = (-e, c^-1))."""
    ops = []
    for _ in range(2 * n):
        kind = rng.randint(0, 2)
        if n < 2 and kind != 2:
            kind = 2
        if kind == 0:
            i, j = rng.sample(range(n), 2)
            q = _poly_entry(rng, ring, -span, span, 2)
            if q is None:
                continue
            ops.append((0, i, j, q, scaled(q, -1, ring.p)))
        elif kind == 1:
            i, j = rng.sample(range(n), 2)
            ops.append((1, i, j, None, None))
        else:
            i = rng.randrange(n)
            c = ring.from_int(rng.choice([1, -1, 2, 3]))
            while not ring.is_unit(c):
                c = ring.from_int(rng.choice([1, -1]))
            e = rng.randint(-span, span)
            ops.append((2, i, None, (e, c), (-e, ring.invert(c))))
    return ops


def _operated(lines, ops, inverse, p):
    """Apply ``ops`` to ``lines``, the rows or the columns of a matrix as
    dicts of nonzero entries, last drawn first: with ``inverse`` each
    E^-1 as a row operation, else each E as a column operation (row
    i += x*row j becomes col j += x*col i).  An addition edits its
    target line in place, so the caller hands in copies."""
    for kind, i, j, x, y in reversed(ops):
        if kind == 1:
            lines[i], lines[j] = lines[j], lines[i]
        elif kind == 2:
            e, c = y if inverse else x
            lines[i] = {k: (a[0] + e, scaled(a, c, p)[1])
                        for k, a in lines[i].items()}
        else:
            target, source, q = (i, j, y) if inverse else (j, i, x)
            line = lines[target]
            for k, b in lines[source].items():
                a = lincomb(ONE, line.get(k), q, b, p)
                if a is None:
                    del line[k]
                else:
                    line[k] = a
    return lines


def _conjugated(rng, ring, base, ranks, rows, span):
    """T_{m-1}^-1 d_m T_m for the differentials d_m of sparse rows
    ``rows[m]`` on ``ranks`` (one interval of degrees) and a random
    T_m = E_k...E_1 per degree: T_{m-1}^-1 d_m = E_1^-1...E_k^-1 d_m is
    formed by inverse row operations on copies of the rows, then d_m T_m
    by column operations on its columns, with no matrix product."""
    lo, hi = min(ranks), max(ranks)
    ops = {m: _elementary_ops(rng, ring, ranks[m], span)
           for m in range(lo, hi + 1)}
    diffs = {}
    for m in range(lo + 1, hi + 1):
        cols = [{} for _ in range(ranks[m])]
        for i, row in enumerate(_operated([dict(r) for r in rows[m]],
                                          ops[m - 1], True, ring.p)):
            for j, a in row.items():
                cols[j][i] = a
        d = [{} for _ in range(ranks[m - 1])]  # columns ascending
        for j, col in enumerate(_operated(cols, ops[m], False, ring.p)):
            for i, a in col.items():
                d[i][j] = a[0], tuple(a[1])
        diffs[m] = LaurentMatrix(ring, ranks[m - 1], ranks[m], d)
    return ChainComplex(ring, base, lo, hi, ranks, diffs)


def _conjugated_sum(rng, ring, ranks, cells, span):
    """``_conjugated`` of the direct sum of elementary pieces: ``ranks``
    counts the generators, and each cell (m, i, j, entry) is the
    differential of a two-term piece at (i, j) of the block-diagonal d_m,
    alone in its row."""
    rows = {m: [{} for _ in range(ranks[m - 1])]
            for m in ranks if m - 1 in ranks}
    for m, i, j, entry in cells:
        if entry is not None:
            rows[m][i][j] = entry
    return _conjugated(rng, ring, BaseRing.LAURENT, ranks, rows, span)


def _two_term(ranks, cells, top, entry):
    """Add the two-term piece of ``entry`` in degrees top, top - 1 to the
    sum of pieces (ranks, cells) of ``_conjugated_sum``."""
    i, j = ranks.get(top - 1, 0), ranks.get(top, 0)
    cells.append((top, i, j, entry))
    ranks[top - 1], ranks[top] = i + 1, j + 1


def random_complex(rng, ring, max_length=4, max_rank=4, span=1,
                   lo=0) -> ChainComplex:
    """Random valid bounded free K[x,x^-1]-complex via basis-changed
    elementary sums."""
    length = rng.randint(1, max_length)
    hi = lo + length - 1
    ranks = dict.fromkeys(range(lo, hi + 1), 0)
    cells = []
    # two-term pieces give nontrivial differentials, singles give homology
    for _ in range(rng.randint(1, max_rank)):
        if length >= 2 and rng.random() < 0.7:
            top = rng.randint(lo + 1, hi)
            _two_term(ranks, cells, top, _poly_entry(
                rng, ring, -span, span, 3, nonzero=rng.random() < 0.8))
        else:
            ranks[rng.randint(lo, hi)] += 1
    return _conjugated_sum(rng, ring, ranks, cells, span)


def random_novikov_acyclic(rng, ring, max_rank=3, span=1) -> ChainComplex:
    """Sums of torsion two-term pieces and two-term pieces of 1,
    basis-changed.

    Torsion two-term complexes have nonzero differential (hence torsion
    homology) and the two-term complex of 1 is acyclic, so every output
    has torsion homology in all degrees.
    """
    ranks, cells = {}, []
    for _ in range(rng.randint(1, max_rank)):
        if rng.random() < 0.6:
            entry = _poly_entry(rng, ring, -span, span, 3, nonzero=True)
            _two_term(ranks, cells, rng.randint(0, 2), entry)
        else:
            _two_term(ranks, cells, rng.randint(0, 1) + 1,
                      (0, (ring.one(),)))
    ranks = {m: ranks.get(m, 0) for m in range(min(ranks), max(ranks) + 1)}
    return _conjugated_sum(rng, ring, ranks, cells, span)
