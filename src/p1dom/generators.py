"""Seeded random instances for property suites.

Valid complexes are built from elementary pieces (two-term complexes and
single free levels) conjugated by random invertible basis changes, so
d.d = 0 holds by construction while differentials look generic.  Each
basis change T is a product of elementary operations and its inverse is
built alongside it (``random_invertible_pair``), so no inverse is
computed from minors.  The same
recipe with unit-monomial or acyclic pieces yields Novikov-acyclic
instances and quasi-isomorphisms for the diagram properties.
"""

from __future__ import annotations

import random

from .complexes import ChainComplex, ChainMap, Homotopy, inclusion
from .diagrams import ComplexDiagram, DiagramMap
from .laurent import BaseRing, LaurentPoly
from .matrices import LaurentMatrix
from .scalars import GF, QQ, CoefficientRing


def random_ring(rng: random.Random) -> CoefficientRing:
    return rng.choice([QQ, GF(5), GF(7), GF(10007)])


def random_poly(rng, ring, min_exp=-3, max_exp=3, terms=3,
                nonzero=False) -> LaurentPoly:
    acc = {}
    for _ in range(rng.randint(1 if nonzero else 0, terms)):
        e = rng.randint(min_exp, max_exp)
        c = rng.randint(-3, 3)
        if c:
            acc[e] = ring.add(acc.get(e, ring.zero()), ring.from_int(c))
    p = LaurentPoly(ring, acc)
    if nonzero and p.is_zero:
        return LaurentPoly.monomial(ring, rng.randint(min_exp, max_exp),
                                    rng.choice([1, -1, 2]))
    return p


def random_unit_monomial(rng, ring, span=1) -> LaurentPoly:
    c = ring.from_int(rng.choice([1, -1, 2, 3]))
    while not ring.is_unit(c):
        c = ring.from_int(rng.choice([1, -1]))
    return LaurentPoly.monomial(ring, rng.randint(-span, span)).scale(c)


def random_invertible_pair(rng, ring, n, ops=None, span=1):
    """(T, T^-1) for a product T of elementary operations, whose
    determinant is a unit monomial.

    T is built by row operations on the identity, and T^-1 alongside it by
    the inverse of each operation as a column operation, in the same
    order: row i += q*row j becomes col j -= q*col i, a row swap the same
    column swap, and row i *= u becomes col i *= u^-1.
    """
    m = [list(r) for r in LaurentMatrix.identity(ring, n).entries]
    inv = [list(r) for r in m]
    ops = ops if ops is not None else 2 * n
    for _ in range(ops):
        kind = rng.randint(0, 2)
        if n < 2 and kind != 2:
            kind = 2
        if kind == 0:
            i, j = rng.sample(range(n), 2)
            q = random_poly(rng, ring, -span, span, 2)
            for col in range(n):
                m[i][col] = m[i][col] + q * m[j][col]
            for row in inv:
                row[j] = row[j] - q * row[i]
        elif kind == 1:
            i, j = rng.sample(range(n), 2)
            m[i], m[j] = m[j], m[i]
            for row in inv:
                row[i], row[j] = row[j], row[i]
        else:
            i = rng.randrange(n)
            u = random_unit_monomial(rng, ring, span)
            for col in range(n):
                m[i][col] = m[i][col] * u
            u_inv = u.inverse_unit()
            for row in inv:
                row[i] = row[i] * u_inv
    return LaurentMatrix(ring, n, n, m), LaurentMatrix(ring, n, n, inv)


def random_complex(rng, ring, max_length=4, max_rank=4, span=1,
                   lo=0) -> ChainComplex:
    """Random valid bounded free K[x,x^-1]-complex via basis-changed
    elementary sums."""
    length = rng.randint(1, max_length)
    hi = lo + length - 1
    pieces = []
    # two-term pieces give nontrivial differentials, singles give homology
    for _ in range(rng.randint(1, max_rank)):
        if length >= 2 and rng.random() < 0.7:
            top = rng.randint(lo + 1, hi)
            p = random_poly(rng, ring, -span, span, 3, nonzero=rng.random() < 0.8)
            pieces.append(ChainComplex.two_term(ring, p, top))
        else:
            d = rng.randint(lo, hi)
            pieces.append(ChainComplex.single(ring, BaseRing.LAURENT, d, 1))
    total = pieces[0]
    for piece in pieces[1:]:
        total = total.direct_sum(piece)
    total = ChainComplex(ring, BaseRing.LAURENT, lo, hi, total.ranks,
                         total.diffs)
    return basis_change(rng, total, span)


def basis_change(rng, c: ChainComplex, span=1) -> ChainComplex:
    """Conjugate by random invertible matrices in every degree."""
    ring = c.ring
    pairs = {m: random_invertible_pair(rng, ring, c.rank(m), span=span)
             for m in c.degrees()}
    diffs = {m: pairs[m - 1][1] @ c.diff(m) @ pairs[m][0]
             for m in range(c.lo + 1, c.hi + 1)}
    return ChainComplex(ring, c.base, c.lo, c.hi, c.ranks, diffs)


def random_novikov_acyclic(rng, ring, max_rank=3, span=1) -> ChainComplex:
    """Sums of torsion two-term pieces and two-term pieces of 1,
    basis-changed.

    Torsion two-term complexes have nonzero differential (hence torsion
    homology) and the two-term complex of 1 is acyclic, so every output
    has torsion homology in all degrees.
    """
    pieces = []
    for _ in range(rng.randint(1, max_rank)):
        style = rng.random()
        if style < 0.6:
            p = random_poly(rng, ring, -span, span, 3, nonzero=True)
            pieces.append(ChainComplex.two_term(
                ring, p, rng.randint(0, 2)))
        else:
            pieces.append(ChainComplex.two_term(
                ring, LaurentPoly.one(ring), rng.randint(0, 1) + 1))
    total = pieces[0]
    for piece in pieces[1:]:
        total = total.direct_sum(piece)
    return basis_change(rng, total, span)


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


def random_diagram(rng, ring, max_length=3, max_rank=3,
                   span=1) -> ComplexDiagram:
    mid = random_complex(rng, ring, max_length, max_rank, span)
    minus = random_complex(rng, ring, max_length, max_rank, span)
    plus = random_complex(rng, ring, max_length, max_rank, span)
    return ComplexDiagram(
        minus, mid, plus,
        null_homotopic_map(rng, minus, mid, span),
        null_homotopic_map(rng, plus, mid, span))


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


def random_retract_witness(rng, ring, span=1):
    """(D, r, s, h) with id - r.s = d.h + h.d, from a basis-changed
    projection of C (+) acyclic onto C."""
    c = random_complex(rng, ring, 3, 2, span)
    acy = ChainComplex.two_term(ring, LaurentPoly.one(ring),
                                rng.randint(c.lo, c.hi) + 1, c.base)
    d = c.direct_sum(acy)
    r = ChainMap(d, c, {m: LaurentMatrix.block(ring, [[
        LaurentMatrix.identity(ring, c.rank(m)),
        LaurentMatrix.zero(ring, c.rank(m), acy.rank(m)),
    ]]) for m in d.degrees()})
    s = inclusion(c, d)
    h = Homotopy(c, c)
    return d, r, s, h
