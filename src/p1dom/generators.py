"""Seeded random instances for property suites.

Valid complexes are elementary pieces (two-term complexes and single free
levels) conjugated by random invertible basis changes, so d.d = 0 holds
by construction while differentials look generic.  It all runs on
``polylists`` entries: the pieces go straight into the rows of one
block-diagonal matrix per degree, a basis change T is built by
elementary operations with its inverse alongside it (``_invertible_pair``,
so no inverse is computed from minors), and T^-1 d T is a product of
``LaurentMatrix`` rows, with no ``LaurentPoly`` built.  The
same recipe with unit-monomial pieces yields Novikov-acyclic
instances.  The maps and diagrams of the paper's lemmas are drawn by the
tests (``tests/paper_lemmas.py``) from the same entries.

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


def _times_unit(a, e, c, p):
    """The entry c x^e a (None for a zero a)."""
    return a and (a[0] + e, scaled(a, c, p)[1])


def _invertible_pair(rng, ring, n, span):
    """(T, T^-1) as n x n Laurent matrices, for a product T of 2n
    elementary operations, whose determinant is a unit monomial.

    T is built by row operations on the identity, and T^-1 alongside it by
    the inverse of each operation as a column operation, in the same
    order: row i += q*row j becomes col j -= q*col i, a row swap the same
    column swap, and row i *= u becomes col i *= u^-1, both on grids of
    entries (None for zero).
    """
    p = ring.p
    one = 0, (ring.one(),)
    t = [[one if i == j else None for j in range(n)] for i in range(n)]
    t_inv = [list(row) for row in t]
    for _ in range(2 * n):
        kind = rng.randint(0, 2)
        if n < 2 and kind != 2:
            kind = 2
        if kind == 0:
            i, j = rng.sample(range(n), 2)
            q = _poly_entry(rng, ring, -span, span, 2)
            if q is None:
                continue
            row = t[i]
            for col, b in enumerate(t[j]):
                if b is not None:
                    row[col] = lincomb(ONE, row[col], q, b, p)
            q = scaled(q, -1, p)
            for row in t_inv:
                if row[i] is not None:
                    row[j] = lincomb(ONE, row[j], q, row[i], p)
        elif kind == 1:
            i, j = rng.sample(range(n), 2)
            t[i], t[j] = t[j], t[i]
            for row in t_inv:
                row[i], row[j] = row[j], row[i]
        else:
            i = rng.randrange(n)
            c = ring.from_int(rng.choice([1, -1, 2, 3]))
            while not ring.is_unit(c):
                c = ring.from_int(rng.choice([1, -1]))
            e = rng.randint(-span, span)  # u = c x^e
            t[i] = [_times_unit(a, e, c, p) for a in t[i]]
            e, c = -e, ring.invert(c)
            for row in t_inv:
                row[i] = _times_unit(row[i], e, c, p)
    return tuple(LaurentMatrix(ring, n, n, [
        {j: (e[0], tuple(e[1])) for j, e in enumerate(row) if e is not None}
        for row in grid]) for grid in (t, t_inv))


def _conjugated(rng, ring, base, ranks, rows, span):
    """T_{m-1}^-1 d_m T_m for the differentials d_m of sparse rows
    ``rows[m]`` on ``ranks`` (one interval of degrees) and a random pair
    per degree."""
    lo, hi = min(ranks), max(ranks)
    pairs = {m: _invertible_pair(rng, ring, ranks[m], span)
             for m in range(lo, hi + 1)}
    diffs = {m: pairs[m - 1][1] @ LaurentMatrix(
        ring, ranks[m - 1], ranks[m], rows[m]) @ pairs[m][0]
        for m in range(lo + 1, hi + 1)}
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
