"""Seeded random instances for property suites.

Valid complexes are elementary pieces (two-term complexes and single free
levels) conjugated by random invertible basis changes, so d.d = 0 holds
by construction while differentials look generic.  It all runs on
``polylists`` entries (None for zero): the pieces go straight into one
block-diagonal grid per degree, a basis change T is a grid built by
elementary operations with its inverse alongside it (``_invertible_pair``,
so no inverse is computed from minors), and T^-1 d T is formed with
``polylists.dot``, each result wrapped in a ``LaurentPoly`` once.  The
same recipe with unit-monomial or acyclic pieces yields Novikov-acyclic
instances and quasi-isomorphisms for the diagram properties.

The same seed gives the same draws: the same calls to ``random`` in the
same order and the same polynomials with the same coefficient types.  The
acceptance corpus, the report digests, ``p1dom selftest`` and the
benchmark's corpora and expected outputs rely on it, and
``tests/test_generator_digests.py`` pins it.
"""

from __future__ import annotations

import random

from .complexes import ChainComplex, ChainMap, Homotopy, inclusion
from .diagrams import ComplexDiagram, DiagramMap
from .laurent import BaseRing, LaurentPoly
from .matrices import LaurentMatrix
from .polylists import ONE, dot, from_terms, lincomb, scaled
from .scalars import GF, QQ, CoefficientRing


def random_ring(rng: random.Random) -> CoefficientRing:
    return rng.choice([QQ, GF(5), GF(7), GF(10007)])


def random_poly(rng, ring, min_exp=-3, max_exp=3, terms=3,
                nonzero=False) -> LaurentPoly:
    return LaurentPoly.from_entry(
        ring, _poly_entry(rng, ring, min_exp, max_exp, terms, nonzero))


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
    """(T, T^-1) as n x n grids of entries, for a product T of 2n
    elementary operations, whose determinant is a unit monomial.

    T is built by row operations on the identity, and T^-1 alongside it by
    the inverse of each operation as a column operation, in the same
    order: row i += q*row j becomes col j -= q*col i, a row swap the same
    column swap, and row i *= u becomes col i *= u^-1.
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
    return t, t_inv


def _conjugated(rng, ring, base, ranks, grids, span):
    """T_{m-1}^-1 d_m T_m for the entry grids d_m = ``grids[m]`` on
    ``ranks`` (one interval of degrees) and a random pair per degree."""
    lo, hi = min(ranks), max(ranks)
    p = ring.p
    pairs = {m: _invertible_pair(rng, ring, ranks[m], span)
             for m in range(lo, hi + 1)}
    zero = LaurentPoly.zero(ring)
    diffs = {}
    for m in range(lo + 1, hi + 1):
        left = [[dot(row, col, p) for col in zip(*grids[m])]
                for row in pairs[m - 1][1]]
        t = list(zip(*pairs[m][0]))
        out = [[dot(row, col, p) for col in t] for row in left]
        diffs[m] = LaurentMatrix(ring, ranks[m - 1], ranks[m], [
            [zero if e is None else LaurentPoly.from_entry(ring, e)
             for e in row] for row in out])
    return ChainComplex(ring, base, lo, hi, ranks, diffs)


def _conjugated_sum(rng, ring, ranks, cells, span):
    """``_conjugated`` of the direct sum of elementary pieces: ``ranks``
    counts the generators, and each cell (m, i, j, entry) is the
    differential of a two-term piece at (i, j) of the block-diagonal d_m."""
    grids = {m: [[None] * ranks[m] for _ in range(ranks[m - 1])]
             for m in ranks if m - 1 in ranks}
    for m, i, j, entry in cells:
        grids[m][i][j] = entry
    return _conjugated(rng, ring, BaseRing.LAURENT, ranks, grids, span)


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


def null_homotopic_map(rng, source: ChainComplex,
                       target: ChainComplex, span=1) -> ChainMap:
    """d.h + h.d for a random degree-raising h: always a chain map."""
    ring = source.ring
    lo = min(source.lo, target.lo) - 1
    hi = max(source.hi, target.hi)
    h = Homotopy(source, target, {
        m: LaurentMatrix(
            ring, target.rank(m + 1), source.rank(m),
            [[random_poly(rng, ring, -span, span, 2)
              for _ in range(source.rank(m))]
             for _ in range(target.rank(m + 1))])
        for m in range(lo, hi + 1)})
    return ChainMap(source, target, {
        m: target.diff(m + 1) @ h.component(m)
        + h.component(m - 1) @ source.diff(m)
        for m in range(lo, hi + 1)})


def random_surjective_diagram(rng, ring, max_length=3, max_rank=3,
                              span=1) -> ComplexDiagram:
    """Diagram whose level maps (-mu_minus + mu_plus) are all onto.

    The plus complex contains the middle as a summand and the plus map is
    (identity on that summand) + (a null-homotopic perturbation), so every
    level map is surjective and the levelwise first cohomology vanishes.
    """
    mid = random_complex(rng, ring, max_length, max_rank, span)
    extra = random_complex(rng, ring, max_length, max_rank, span)
    plus = mid.direct_sum(extra)
    tail = null_homotopic_map(rng, extra, mid, span)
    from_plus = ChainMap(plus, mid, {
        m: LaurentMatrix.block(mid.ring, [[
            LaurentMatrix.identity(mid.ring, mid.rank(m)),
            tail.component(m),
        ]]) for m in plus.degrees()})
    minus = random_complex(rng, ring, max_length, max_rank, span)
    return ComplexDiagram(minus, mid, plus,
                          null_homotopic_map(rng, minus, mid, span),
                          from_plus)


def quasi_iso_inflation(rng, diagram: ComplexDiagram, span=1):
    """A diagram map with quasi-isomorphism components.

    Direct-sums an acyclic diagram (two-term complexes of 1) onto the
    target and includes the source; every component is a split injection
    with acyclic cokernel, hence a quasi-isomorphism.
    """
    ring = diagram.ring

    def acyclic_like(c: ChainComplex) -> ChainComplex:
        return ChainComplex.two_term(ring, LaurentPoly.one(ring),
                                     rng.randint(c.lo, c.hi) + 1, c.base)

    a_minus = acyclic_like(diagram.minus)
    a_mid = acyclic_like(diagram.mid)
    a_plus = acyclic_like(diagram.plus)
    big = ComplexDiagram(
        diagram.minus.direct_sum(a_minus),
        diagram.mid.direct_sum(a_mid),
        diagram.plus.direct_sum(a_plus),
        _sum_map(diagram.from_minus, a_minus, a_mid,
                 null_homotopic_map(rng, a_minus, a_mid, span)),
        _sum_map(diagram.from_plus, a_plus, a_mid,
                 null_homotopic_map(rng, a_plus, a_mid, span)))
    phi = DiagramMap(
        diagram, big,
        inclusion(diagram.minus, big.minus),
        inclusion(diagram.mid, big.mid),
        inclusion(diagram.plus, big.plus))
    return big, phi


def _sum_map(f: ChainMap, a_src: ChainComplex, a_tgt: ChainComplex,
             g: ChainMap) -> ChainMap:
    src = f.source.direct_sum(a_src)
    tgt = f.target.direct_sum(a_tgt)
    ring = f.source.ring
    return ChainMap(src, tgt, {
        m: LaurentMatrix.block(ring, [[f.component(m), None],
                                      [None, g.component(m)]])
        for m in src.degrees()})
