"""Seeded random instances for property suites.

Valid complexes are elementary pieces (two-term complexes and single free
levels) conjugated by random invertible basis changes, so d.d = 0 holds
by construction while differentials look generic.  It all runs on
``polylists`` entries with int coefficients for every ring (residues mod
p over GF(p), plain ints over Q and Z), as ``validate``, the chart
valuations and ``smith`` do.  The pieces go straight into the rows of one
block-diagonal matrix per degree, and a basis change T is drawn as
elementary row operations (``_elementary_ops``), which act on the nonzero
entries of d to form T^-1 d T: no T and no matrix product is built.
Over Q each row of T_{m-1}^-1 d_m carries one denominator, which a row
scaling by c^-1 multiplies by |c| and a row addition raises to the lcm
of both rows'; the column operations keep it, as they combine entries of
one row.  Each stored Q coefficient is made
once, the Fraction of its numerator over its row's denominator, when the
rows of the result are written, so no Fraction arithmetic runs.  The
same recipe with unit-monomial pieces yields Novikov-acyclic instances.
The maps and diagrams of the paper's lemmas are drawn by the tests
(``tests/paper_lemmas.py``) from the same entries.

The same seed gives the same draws: the same bits of ``getrandbits``
in the same order, and the same polynomials with the same coefficient
types (Fractions over Q, residues over GF(p), ints over Z).  Every
integer is drawn by ``_below``, the loop that CPython's ``randint``,
``randrange``, ``choice`` and ``sample`` run on those bits (Python
3.10-3.13), so the draws are theirs with fewer Python calls; the
floats come from ``random()``.  The acceptance
corpus, the report digests and the benchmark's corpora and expected
outputs rely on it, and ``tests/test_generator_digests.py`` pins it.
No command reads this module: its callers are the tests and perfbench/.
"""

from __future__ import annotations

from fractions import Fraction
from math import lcm

from .complexes import ChainComplex
from .laurent import BaseRing
from .matrices import LaurentMatrix
from .polylists import ONE, from_terms, lincomb, scaled


def _below(rng, n):
    """A draw from range(n): CPython's ``_randbelow_with_getrandbits``
    loop, which ``randrange``, ``randint``, ``choice`` and ``sample``
    run, on ``rng.getrandbits`` with none of their layers.  ``n`` must be
    positive: ``getrandbits(0)`` is 0, so the loop would never end."""
    if n <= 0:
        raise ValueError(f"empty range for a draw below {n}")
    k = n.bit_length()
    r = rng.getrandbits(k)
    while r >= n:
        r = rng.getrandbits(k)
    return r


def _two_rows(rng, n):
    """The distinct rows (i, j), n >= 2, that ``sample(range(n), 2)`` draws:
    for n <= 21 ``sample`` draws j from the n - 1 rows left after moving
    row n - 1 into i's place, above 21 it redraws j until j != i."""
    i = _below(rng, n)
    if n <= 21:
        j = _below(rng, n - 1)
        return i, n - 1 if j == i else j
    j = _below(rng, n)
    while j == i:
        j = _below(rng, n)
    return i, j


def _residue(c, p):
    """The int c mod p, or c itself for p = 0 (over Q and Z)."""
    return c % p if p else c


def _poly_entry(rng, p, min_exp, max_exp, terms, nonzero=False):
    """The entry of up to ``terms`` terms c x^e, c from -3 to 3 taken mod
    p; with ``nonzero`` a zero draw falls back to one monomial, whose
    coefficient is 1 where the drawn one is zero mod p (2 over GF(2))."""
    acc = {}
    least = 1 if nonzero else 0
    width = max_exp - min_exp + 1
    for _ in range(least + _below(rng, terms + 1 - least)):
        e = min_exp + _below(rng, width)
        c = _below(rng, 7) - 3
        if c:
            acc[e] = acc.get(e, 0) + c
    entry = from_terms([(e, _residue(c, p)) for e, c in acc.items()], p)
    if nonzero and entry is None:
        e = min_exp + _below(rng, width)
        entry = e, (_residue((1, -1, 2)[_below(rng, 3)], p) or 1,)
    return entry


def _elementary_ops(rng, ring, n, span):
    """The row operations E_1, ..., E_k of a random basis change
    T = E_k...E_1 of rank n, from 2n draws, whose determinant is a unit
    monomial.  Each is a record (kind, i, j, x) on int coefficients:
    kind 0 adds x times row j to row i, kind 1 swaps rows i and j, and
    kind 2 multiplies row i by the unit x = (e, c), that is c x^e.  No
    inverse is formed here: an operation that meets a nonzero line forms
    its own (``_inverse_row_operated``)."""
    p = ring.p
    ops = []
    for _ in range(2 * n):
        kind = _below(rng, 3)
        if n < 2 and kind != 2:
            kind = 2
        if kind == 0:
            i, j = _two_rows(rng, n)
            q = _poly_entry(rng, p, -span, span, 2)
            if q is None:
                continue
            ops.append((0, i, j, q))
        elif kind == 1:
            i, j = _two_rows(rng, n)
            ops.append((1, i, j, None))
        else:
            i = _below(rng, n)
            c = _residue((1, -1, 2, 3)[_below(rng, 4)], p)
            while not ring.is_unit(c):
                c = _residue((1, -1)[_below(rng, 2)], p)
            ops.append((2, i, None, (_below(rng, 2 * span + 1) - span, c)))
    return ops


def _inverse_row_operated(rows, dens, ops, p):
    """E_1^-1...E_k^-1 applied to ``rows``, dicts of nonzero entries, as
    row operations, the inverse of each record of ``ops`` last drawn
    first.  For p = 0 row i stands for rows[i] / dens[i]: the scaling by
    c^-1 x^-e multiplies dens[i] by |c| and its entries by the sign of
    c, and an addition first brings its two rows to the lcm of their
    denominators.  An addition edits its target row in place."""
    for kind, i, j, x in reversed(ops):
        if kind == 1:
            rows[i], rows[j] = rows[j], rows[i]
            dens[i], dens[j] = dens[j], dens[i]
        elif kind == 2:
            if rows[i]:
                e, c = x
                if p:
                    k = pow(c, p - 2, p)
                else:
                    k = 1 if c > 0 else -1
                    dens[i] *= abs(c)
                rows[i] = {col: (a[0] - e, a[1] if k == 1 else
                                 scaled(a, k, p)[1])
                           for col, a in rows[i].items()}
        elif rows[j]:
            row, f, g = rows[i], 1, 1
            if dens[i] != dens[j]:
                den = lcm(dens[i], dens[j])
                f, g = den // dens[i], den // dens[j]
                dens[i] = den
            if f != 1:
                row = rows[i] = {col: (a[0], [f * y for y in a[1]])
                                 for col, a in row.items()}
            q = scaled(x, -g, p)
            for col, b in rows[j].items():
                a = lincomb(ONE, row.get(col), q, b, p)
                if a is None:
                    del row[col]
                else:
                    row[col] = a
    return rows


def _column_operated(cols, ops, p):
    """E_k...E_1 applied to ``cols``, dicts of nonzero entries, as column
    operations, last drawn first: row i += x*row j becomes col j +=
    x*col i, a swap the same swap and a scaling the same scaling.  Each
    combines entries of one row, so the row denominators of
    ``_inverse_row_operated`` stay.  An addition edits its target column
    in place."""
    for kind, i, j, x in reversed(ops):
        if kind == 1:
            cols[i], cols[j] = cols[j], cols[i]
        elif kind == 2:
            e, c = x
            cols[i] = {r: (a[0] + e, a[1] if c == 1 else scaled(a, c, p)[1])
                       for r, a in cols[i].items()}
        elif cols[i]:
            col = cols[j]
            for r, b in cols[i].items():
                a = lincomb(ONE, col.get(r), x, b, p)
                if a is None:
                    del col[r]
                else:
                    col[r] = a
    return cols


def _conjugated(rng, ring, base, ranks, rows, span, dens=None):
    """T_{m-1}^-1 d_m T_m for a random T_m = E_k...E_1 per degree, where
    ``ranks`` maps each degree of one interval, ascending, to its rank
    and d_m has the sparse rows ``rows[m]`` of int entries, row i over Q
    divided by ``dens[m][i]`` (1 when ``dens`` is None).  The rows of
    each d_m, which are edited in place, take the inverse row operations,
    E_1^-1...E_k^-1 d_m, then its columns the column operations, with no
    matrix product.

    The result is stored with no scan (``LaurentMatrix._stored``,
    ``ChainComplex._stored``), and it holds what those scans check:
    ``ranks`` covers lo..hi; each degree above lo has its d_m over
    ``ring``, of ``ranks[m - 1]`` rows keyed by the positions j of
    ``cols``, 0..ranks[m] - 1, written in ascending order; each entry
    (v, c) has c[0] and c[-1] nonzero (``lincomb`` trims, a scaling by a
    unit keeps them, an entry that cancels is deleted), and canonical
    coefficients: residues, as every operation reduces mod p, over
    GF(p), ints over Z and Fractions made here over Q."""
    if span < 0:  # a basis change may make no draw that would refuse it
        raise ValueError(f"negative span {span}")
    lo, hi = min(ranks), max(ranks)
    p = ring.p
    ops = {m: _elementary_ops(rng, ring, ranks[m], span)
           for m in range(lo, hi + 1)}
    over_q = ring.kind == "Q"
    diffs = {}
    for m in range(lo + 1, hi + 1):
        row_dens = list(dens[m]) if dens else [1] * ranks[m - 1]
        cols = [{} for _ in range(ranks[m])]
        for i, row in enumerate(_inverse_row_operated(
                rows[m], row_dens, ops[m - 1], p)):
            for j, a in row.items():
                cols[j][i] = a
        d = [{} for _ in range(ranks[m - 1])]  # columns ascending
        for j, col in enumerate(_column_operated(cols, ops[m], p)):
            for i, (v, c) in col.items():
                if not over_q:
                    d[i][j] = v, tuple(c)
                elif row_dens[i] == 1:
                    d[i][j] = v, tuple(map(Fraction, c))
                else:
                    d[i][j] = v, tuple([Fraction(x, row_dens[i]) for x in c])
        diffs[m] = LaurentMatrix._stored(ring, ranks[m - 1], ranks[m], d)
    return ChainComplex._stored(ring, base, lo, hi, ranks, diffs)


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
    length = 1 + _below(rng, max_length)
    hi = lo + length - 1
    ranks = dict.fromkeys(range(lo, hi + 1), 0)
    cells = []
    # two-term pieces give nontrivial differentials, singles give homology
    for _ in range(1 + _below(rng, max_rank)):
        if length >= 2 and rng.random() < 0.7:
            top = lo + 1 + _below(rng, length - 1)
            _two_term(ranks, cells, top, _poly_entry(
                rng, ring.p, -span, span, 3, nonzero=rng.random() < 0.8))
        else:
            ranks[lo + _below(rng, length)] += 1
    return _conjugated_sum(rng, ring, ranks, cells, span)


def random_novikov_acyclic(rng, ring, max_rank=3, span=1) -> ChainComplex:
    """Sums of torsion two-term pieces and two-term pieces of 1,
    basis-changed.

    Torsion two-term complexes have nonzero differential (hence torsion
    homology) and the two-term complex of 1 is acyclic, so every output
    has torsion homology in all degrees.
    """
    ranks, cells = {}, []
    for _ in range(1 + _below(rng, max_rank)):
        if rng.random() < 0.6:
            entry = _poly_entry(rng, ring.p, -span, span, 3, nonzero=True)
            _two_term(ranks, cells, _below(rng, 3), entry)
        else:
            _two_term(ranks, cells, _below(rng, 2) + 1, ONE)
    ranks = {m: ranks.get(m, 0) for m in range(min(ranks), max(ranks) + 1)}
    return _conjugated_sum(rng, ring, ranks, cells, span)
