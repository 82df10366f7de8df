"""Shared builders for the test suite."""

import random

from p1dom import fileformat as ff
from p1dom.complexes import (ChainComplex, ChainMap, Homotopy, ScalarComplex,
                             cone, inclusion)
from p1dom.diagrams import ComplexDiagram, sections_matrix
from p1dom.domination import _chart_direction, _torsion_dims, chart_homology
from p1dom.errors import (BaseRingViolationError, ShapeError,
                          UnsupportedRingError)
from p1dom.generators import (null_homotopic_map, random_complex,
                              random_novikov_acyclic)
from p1dom.laurent import BaseRing, LaurentPoly
from p1dom.matrices import LaurentMatrix, ScalarMatrix, scalar_rank
from p1dom.polylists import scaled
from p1dom.scalars import check_same_ring
from p1dom.sheaves import SheafComplex, cech_cohomology
from p1dom.smith import invariant_factors, kernel_basis


def P(ring, *pairs):
    """Polynomial from (exponent, int-coefficient) pairs."""
    return LaurentPoly.from_pairs(ring, [(e, ring.from_int(c))
                                         for e, c in pairs])


def M(ring, rows, base=BaseRing.LAURENT):
    """Matrix from a grid of (exponent, coeff) pair-lists or ints, each
    entry checked to lie in ``base``.

    Entry syntax: int c means the constant c; a list of pairs means a
    polynomial.
    """
    grid = []
    for row in rows:
        out = []
        for cell in row:
            if isinstance(cell, int):
                out.append(P(ring, (0, cell)) if cell else
                           LaurentPoly.zero(ring))
            else:
                out.append(P(ring, *cell))
        grid.append(out)
    nrows = len(grid)
    ncols = len(grid[0]) if grid else 0
    m = LaurentMatrix(ring, nrows, ncols, grid)
    check_base(m, base)
    return m


def check_base(m, base):
    """Raise unless every entry of the LaurentMatrix m is over its ring
    and respects ``base``."""
    for i, row in enumerate(m.entries):
        for j, p in enumerate(row):
            check_same_ring(m.ring, p.ring)
            if not p.respects(base):
                raise BaseRingViolationError(
                    f"entry ({i},{j}) = {p} violates {base.tag}")


def two_term(ring, pairs, top=1, base=BaseRing.LAURENT):
    return ChainComplex.two_term(ring, P(ring, *pairs), top, base)


def diagram_with_a_non_chain_map(ring):
    """(C --f--> C <-- 0) for C = (x - 1: O -> O) in degrees 1, 0 and f
    the identity in degree 1 and zero in degree 0, which is no chain map:
    f d = 0 but d f = x - 1."""
    c = two_term(ring, [(1, 1), (0, -1)])
    zero = ChainComplex.zero(ring)
    return ComplexDiagram(c, c, zero, ChainMap(c, c, {1: M(ring, [[1]])}),
                          ChainMap(zero, c))


def window_complex(c: ChainComplex, order: int) -> ScalarComplex:
    """Quotient model of c tensored with the chart power-series ring.

    Each generator becomes ``order`` monomial slots in the chart variable
    (x for a K[x]-complex, x^-1 for a K[x^-1]-complex); multiplication drops
    everything at or beyond the cutoff, which is exactly the quotient by the
    Nth power of the variable.  Slot tau of generator j has index
    tau * rank + j, so every differential is a banded Toeplitz matrix whose
    sparse rows are filled straight from the coefficients of c.
    """
    direction = _chart_direction(c)
    ranks = {m: c.rank(m) * order for m in c.degrees()}
    diffs = {}
    for m in range(c.lo + 1, c.hi + 1):
        src = c.rank(m)
        tgt = c.rank(m - 1)
        rows = [{} for _ in range(ranks[m - 1])]
        for i, j, p in c.diff(m).nonzero_entries():
            for e, coeff in p.items():
                shift = e * direction
                for tau in range(order - shift):
                    rows[(tau + shift) * tgt + i][tau * src + j] = coeff
        diffs[m] = ScalarMatrix(c.ring, ranks[m - 1], ranks[m], rows)
    return ScalarComplex(c.ring, c.lo, c.hi, ranks, diffs)


def transpose(a):
    """The transpose of a LaurentMatrix."""
    return LaurentMatrix(a.ring, a.cols, a.rows, [
        [a.entries[i][j] for i in range(a.rows)] for j in range(a.cols)])


def S(ring, grid):
    """ScalarMatrix from a dense grid of ring elements."""
    return ScalarMatrix(ring, len(grid), len(grid[0]) if grid else 0,
                        [{j: v for j, v in enumerate(row) if v}
                         for row in grid])


def random_matrix(rng, ring, rows, cols, span=3):
    """Laurent matrix with up to three random terms per entry."""
    return LaurentMatrix(ring, rows, cols, [
        [LaurentPoly(ring, {rng.randint(-span, span):
                            ring.from_int(rng.randint(-4, 4))
                            for _ in range(rng.randint(0, 3))})
         for _ in range(cols)] for _ in range(rows)])


def three_term_complex(rng, ring):
    """C_2 -> C_1 -> C_0 with d_1 a random matrix and d_2 = K @ R for a
    kernel basis K of d_1: not a sum of two-term pieces."""
    r0, r1, r2 = rng.randint(1, 3), rng.randint(1, 4), rng.randint(1, 3)
    d1 = random_matrix(rng, ring, r0, r1, 2)
    kernel = kernel_basis(d1)
    d2 = kernel @ random_matrix(rng, ring, kernel.cols, r2, 1)
    return ChainComplex(ring, BaseRing.LAURENT, 0, 2, {0: r0, 1: r1, 2: r2},
                        {1: d1, 2: d2})


HOMOLOGY_KINDS = ["random", "novikov", "two-term", "three-term"]


def homology_case(seed, ring, kind):
    """A complex over K[x,x^-1] of one of HOMOLOGY_KINDS."""
    rng = random.Random(seed)
    if kind == "random":
        return random_complex(rng, ring, max_length=4, max_rank=3, span=2)
    if kind == "novikov":
        return random_novikov_acyclic(rng, ring, span=2)
    if kind == "two-term":
        rows, cols = rng.randint(1, 4), rng.randint(1, 4)
        d = random_matrix(rng, ring, rows, cols, 2)
        return ChainComplex(ring, BaseRing.LAURENT, 0, 1,
                            {0: rows, 1: cols}, {1: d})
    return three_term_complex(rng, ring)


def random_mapping_torus(rng, ring, a):
    """(D, T): a random complex D with constant differentials and the
    mapping torus T = cone(x - f) of f = a id + (a null-homotopic map).

    The Mather trick (Ranicki, "Finite domination and Novikov rings",
    Topology 34, 1995): x - f = x (1 - x^-1 f) is invertible over
    R[[x^-1]], so T is Novikov acyclic on the x^-1 side; x lies in the
    Jacobson radical of R[[x]], so T is acyclic on the x side exactly
    when f is a quasi-isomorphism over R.  f is homotopic to a id.  Over
    a field with a a unit, H_q(T) is K[x,x^-1]^b / (x - a), b the Betti
    number of D in degree q, so dim_K H_q(T) = b.
    """
    d = random_complex(rng, ring, span=0)
    null = null_homotopic_map(rng, d, d, span=0)
    x_minus_a = LaurentPoly(ring, {1: ring.one(), 0: ring.from_int(-a)})
    return d, cone(ChainMap(d, d, {
        m: scalar_diag(ring, [x_minus_a] * d.rank(m))
        - null.component(m) for m in d.degrees()}))[0]


def constants(m):
    """The ScalarMatrix of a LaurentMatrix whose entries are constants."""
    data = []
    for row in m.entries:
        data.append({})
        for j, p in enumerate(row):
            if p.entry is not None:
                assert p.entry[0] == 0 and len(p.entry[1]) == 1, p
                data[-1][j] = p.entry[1][0]
    return ScalarMatrix(m.ring, m.rows, m.cols, data)


def betti_numbers(d):
    """Ranks of the homology of a complex with constant differentials,
    over the fraction field of its coefficient ring."""
    ranks = {m: scalar_rank(constants(d.diff(m)))
             for m in range(d.lo, d.hi + 2)}
    return {q: d.rank(q) - ranks[q] - ranks[q + 1] for q in d.degrees()}


# -- Laurent polynomials and matrices -------------------------------------------


def mindeg(p):
    """The least exponent of a nonzero LaurentPoly."""
    return p.entry[0]


def maxdeg(p):
    """The largest exponent of a nonzero LaurentPoly."""
    v, c = p.entry
    return v + len(c) - 1


def core_degree(p):
    """maxdeg - mindeg: the degree of the monic core of a nonzero
    LaurentPoly, the Euclidean norm of K[x,x^-1]."""
    return len(p.entry[1]) - 1


def evaluate(p, point):
    """p at a scalar point (the point must be a unit when negative
    exponents occur)."""
    ring = p.ring
    v, c = p.entry or (0, ())
    total = ring.zero()
    for x in reversed(c):  # Horner's rule, then times point^v
        total = ring.add(ring.mul(total, point), x)
    unit = point if v >= 0 else ring.invert(point)
    for _ in range(abs(v)):
        total = ring.mul(total, unit)
    return total


def unit_normalise(p):
    """(v, c, core) with p = c * x^v * core, core monic and core(0) != 0.
    Needs a field (or a unit leading coefficient over Z) and p != 0."""
    if p.entry is None:
        raise ShapeError("cannot normalise the zero polynomial")
    v, c = p.entry
    lead = c[-1]
    core = scaled((0, c), p.ring.invert(lead), p.ring.p)
    return v, lead, LaurentPoly.from_entry(p.ring, core)


def scalar_diag(ring, polys):
    """The diagonal LaurentMatrix of ``polys``."""
    n = len(polys)
    z = LaurentPoly.zero(ring)
    return LaurentMatrix(ring, n, n, [[polys[i] if i == j else z
                                       for j in range(n)] for i in range(n)])


def submatrix(a, row_idx, col_idx):
    """The rows ``row_idx`` and columns ``col_idx`` of a LaurentMatrix."""
    return LaurentMatrix(a.ring, len(row_idx), len(col_idx),
                         [[a.entries[i][j] for j in col_idx] for i in row_idx])


# -- complexes, diagrams and sheaves --------------------------------------------


def verify_homotopy_retract(d, r, s, h):
    """Check r.s + d.h + h.d = id exactly in every degree.

    ``r: D -> C`` and ``s: C -> D`` exhibit C as a homotopy retract of the
    bounded free complex D; ``h`` is the witnessing homotopy on C.  The sign
    convention fixed here is id - r.s = d.h + h.d.
    """
    c = r.target
    if r.source != d:
        raise ShapeError("r must map out of D")
    if s.source != c or s.target != d:
        raise ShapeError("s must map C into D")
    for m in range(c.lo, c.hi + 1):
        rs = r.component(m) @ s.component(m)
        dh = c.diff(m + 1) @ h.component(m)
        hd = h.component(m - 1) @ c.diff(m)
        if rs + dh + hd != LaurentMatrix.identity(c.ring, c.rank(m)):
            return False
    return True


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
    return d, r, inclusion(c, d), Homotopy(c, c)


def random_diagram(rng, ring, max_length=3, max_rank=3, span=1):
    """Three random complexes with null-homotopic structure maps."""
    mid = random_complex(rng, ring, max_length, max_rank, span)
    minus = random_complex(rng, ring, max_length, max_rank, span)
    plus = random_complex(rng, ring, max_length, max_rank, span)
    return ComplexDiagram(
        minus, mid, plus,
        null_homotopic_map(rng, minus, mid, span),
        null_homotopic_map(rng, plus, mid, span))


def levelwise_h1_trivial(d):
    """True iff every level map (-mu_minus + mu_plus) is surjective.

    A level that only ``mid`` occupies has the zero map into mid_n, which
    is surjective only when mid_n is zero.
    """
    lo = min(d.minus.lo, d.plus.lo, d.mid.lo)
    hi = max(d.minus.hi, d.plus.hi, d.mid.hi)
    for n in range(lo, hi + 1):
        a = sections_matrix(d, n)
        if a.rows == 0:
            continue
        factors = invariant_factors(a)
        if len(factors) < a.rows:
            return False
        if any(core_degree(f) > 0 for f in factors):
            return False
    return True


def chart_homology_dims(c):
    """Torsion K-dimensions of the homology of a K[x] or K[x^-1] chart
    complex after base change to K[[t]], refused on a free part as the
    ledger refuses it (``domination._torsion_dims``)."""
    side = "plus" if _chart_direction(c) == 1 else "minus"
    return _torsion_dims(chart_homology(c), side)


def load_sheaf(path):
    """The SheafComplex of a sheaf file."""
    with open(path, encoding="utf-8") as fh:
        return ff.sheaf_from_dict(ff.loads(fh.read()))


def twist(s, n, k=None):
    """Twist every level of the SheafComplex s by n with the split
    (k, n - k), k defaulting to n; the chart differentials are unchanged
    by a uniform twist."""
    dk = n if k is None else k
    return SheafComplex(s.mid, {m: tuple(t.shifted(dk, n - dk) for t in ts)
                                for m, ts in s.twists.items()})


def sheaf_hyper_homology_dims(s):
    """Hypercohomology dimensions for a sheaf complex with zero
    differentials.

    With no differentials the totalisation splits levelwise, so its
    homology in degree n is H0 of level n plus H1 of level n+1.  When
    every twist is at least -1, first cohomology vanishes and
    ``homology_dims(cech_complex(s))`` gives the hypercohomology of any
    sheaf complex.
    """
    for m in s.degrees():
        if not s.mid.diff(m).is_zero:
            raise UnsupportedRingError(
                "exact sheaf hypercohomology dims need zero differentials; "
                "with every twist at least -1 use "
                "homology_dims(cech_complex(s))")
    coh = {m: cech_cohomology(s.twists[m]) for m in s.degrees()}
    return {n: (coh[n].h0_dim if n in coh else 0)
            + (coh[n + 1].h1_dim if n + 1 in coh else 0)
            for n in range(s.mid.lo - 1, s.mid.hi + 1)}


def chart(s, side, base=None):
    """The ``side`` chart complex of the SheafComplex s, over K[x^-1] for
    "minus" and K[x] for "plus" unless ``base`` is given, in one pass over
    the middle entries: d_m[i][j] x^(a_j(m) - a_i(m-1)), where x^a is the
    torus map of a summand (a = k on the minus side, -l on the plus side,
    as ``SheafComplex.chart_exponents`` gives them).  The library stores
    and builds no chart; this is the oracle of the chart, extension and
    diagram tests."""
    if base is None:
        base = BaseRing.POLY_INV if side == "minus" else BaseRing.POLY
    mid = s.mid
    a = s.chart_exponents(side)
    return ChainComplex(mid.ring, base, mid.lo, mid.hi, dict(mid.ranks), {
        m: mid.diff(m).monomial_scale([-e for e in a[m - 1]], a[m])
        for m in range(mid.lo + 1, mid.hi + 1)})


def torus_diagram(s):
    """The base change of a sheaf complex to the torus as a one-ring
    diagram.

    Both chart complexes become K[x,x^-1]-complexes and the structure
    maps, the torus maps diag(x^k) and diag(x^-l) of each level, turn into
    honest chain maps, so the quasi-isomorphism machinery for one-ring
    diagrams (sections inclusion, totalisation, cones) applies exactly.
    The level maps are onto because the plus torus map is an isomorphism.
    """
    ring = s.ring
    minus = chart(s, "minus", BaseRing.LAURENT)
    plus = chart(s, "plus", BaseRing.LAURENT)

    def torus_maps(side):
        return {m: scalar_diag(ring, [LaurentPoly.monomial(ring, e)
                                      for e in exps])
                for m, exps in s.chart_exponents(side).items()}

    return ComplexDiagram(minus, s.mid, plus,
                          ChainMap(minus, s.mid, torus_maps("minus")),
                          ChainMap(plus, s.mid, torus_maps("plus")))
