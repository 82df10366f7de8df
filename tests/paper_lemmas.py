"""The paper's lemmas on chain maps, diagrams and cones, as test oracles.

The proof of the theorem runs through three lemmas that the witness
pipeline does not compute: the exact sequence of a diagram's
totalisation (``ses_check``), quasi-isomorphism invariance (``phi_star``,
``iota``, ``is_quasi_iso``) and the lift of a mapping cone to the
projective line (``extend_cone``).  A diagram (minus --> mid <-- plus)
totalises in degree n to minus_n + plus_n + mid_{n+1}, with differential

    (a-, a+, a)  |->  (d a-, d a+, -mu_minus(a-) + mu_plus(a+) - d a);

it is a complex exactly when the diagram is valid.  The levelwise kernel
of (-mu_minus + mu_plus) is the complex of global sections, whose
inclusion is a quasi-isomorphism when every level has vanishing first
cohomology.  ``test_generator_digests`` pins the draws of
``random_surjective_diagram``.
"""

from dataclasses import dataclass

from p1dom.complexes import ChainComplex, homology
from p1dom.errors import RingMismatchError, ShapeError
from p1dom.generators import random_complex
from p1dom.laurent import BaseRing, LaurentPoly
from p1dom.matrices import LaurentMatrix
from p1dom.sheaves import SheafComplex, twist_shift
from p1dom.smith import invariant_factors

from helpers import (M, block, chart, core_degree, direct_sum, grid_matrix,
                     identity, kernel_basis, kernel_coordinates, matadd,
                     matmul, matneg, matsub, monomial, monomial_scale,
                     random_poly, scalar_diag, shift, shifted_summand,
                     two_term, vanishes, zero_complex)


# -- chain maps, homotopies and cones ------------------------------------------


class GradedMap:
    """Degreewise matrices f_m: source_m -> target_{m + SHIFT} between
    complexes over one ring, a zero matrix in every degree not given."""

    __slots__ = ("source", "target", "components")
    SHIFT = 0
    KIND = "chain map"        # names the map in the ring error
    PART = "component"        # names a component in the shape error

    def __init__(self, source: ChainComplex, target: ChainComplex,
                 components=None):
        if source.ring != target.ring or source.base != target.base:
            raise RingMismatchError(f"{self.KIND} between different rings")
        self.source = source
        self.target = target
        self.components = {}
        for m in range(min(source.lo, target.lo) - self.SHIFT,
                       max(source.hi, target.hi) + 1):
            f = (components or {}).get(m)
            if f is None:
                f = self.component(m)
            rows, cols = target.rank(m + self.SHIFT), source.rank(m)
            if f.rows != rows or f.cols != cols:
                raise ShapeError(
                    f"{self.PART} at degree {m} has shape {f.rows}x{f.cols}, "
                    f"expected {rows}x{cols}")
            self.components[m] = f

    def component(self, m: int) -> LaurentMatrix:
        f = self.components.get(m)
        if f is None:
            return LaurentMatrix.zero(self.source.ring,
                                      self.target.rank(m + self.SHIFT),
                                      self.source.rank(m))
        return f


class ChainMap(GradedMap):
    """Degreewise matrices commuting with the differentials."""

    __slots__ = ()

    @classmethod
    def identity(cls, c: ChainComplex):
        return cls(c, c, {m: identity(c.ring, c.rank(m))
                          for m in c.degrees()})

    def validate(self):
        problems = []
        lo = min(self.source.lo, self.target.lo)
        hi = max(self.source.hi, self.target.hi)
        for m in range(lo + 1, hi + 1):
            lhs = matmul(self.component(m - 1), self.source.diff(m))
            rhs = matmul(self.target.diff(m), self.component(m))
            if lhs != rhs:
                problems.append(f"degree {m}: f.d != d.f")
        return problems


class Homotopy(GradedMap):
    """Degree +1 family h_m: source_m -> target_{m+1}."""

    __slots__ = ()
    SHIFT = 1
    KIND = PART = "homotopy"


def is_acyclic(c: ChainComplex) -> bool:
    return all(vanishes(e) for e in homology(c).entries.values())


def cone(f: ChainMap):
    """Mapping cone with the block differential [[d_target, f], [0, -d_source]].

    Returns (cone complex, inclusion of the target, projection onto the
    source shifted by +1).
    """
    a, b = f.source, f.target
    ring = a.ring
    lo = min(b.lo, a.lo + 1)
    hi = max(b.hi, a.hi + 1)
    ranks = {m: b.rank(m) + a.rank(m - 1) for m in range(lo, hi + 1)}
    diffs = {}
    for m in range(lo + 1, hi + 1):
        diffs[m] = block(ring, [
            [b.diff(m), f.component(m - 1)], [None, matneg(a.diff(m - 1))]])
    cc = ChainComplex(ring, a.base, lo, hi, ranks, diffs)
    proj = ChainMap(cc, shift(a, 1), {
        m: block(ring, [[
            LaurentMatrix.zero(ring, a.rank(m - 1), b.rank(m)),
            identity(ring, a.rank(m - 1)),
        ]])
        for m in range(lo, hi + 1)})
    return cc, inclusion(b, cc), proj


def inclusion(small: ChainComplex, big: ChainComplex) -> ChainMap:
    """The inclusion of ``small`` as the leading summands of ``big`` in
    every degree: the identity over a zero block."""
    ring = small.ring
    return ChainMap(small, big, {
        m: block(ring, [
            [identity(ring, small.rank(m))],
            [LaurentMatrix.zero(ring, big.rank(m) - small.rank(m),
                                small.rank(m))],
        ])
        for m in big.degrees()})


def is_quasi_iso(f: ChainMap) -> bool:
    """Mapping-cone acyclicity, the derived-category meaning used here."""
    cc, _, _ = cone(f)
    return is_acyclic(cc)


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
        rs = matmul(r.component(m), s.component(m))
        dh = matmul(c.diff(m + 1), h.component(m))
        hd = matmul(h.component(m - 1), c.diff(m))
        if matadd(matadd(rs, dh), hd) != identity(c.ring, c.rank(m)):
            return False
    return True


# -- diagrams and their totalisation -------------------------------------------


@dataclass(frozen=True)
class ComplexDiagram:
    minus: ChainComplex
    mid: ChainComplex
    plus: ChainComplex
    from_minus: ChainMap      # minus -> mid
    from_plus: ChainMap       # plus -> mid

    def __post_init__(self):
        rings = {self.minus.ring, self.mid.ring, self.plus.ring}
        bases = {self.minus.base, self.mid.base, self.plus.base}
        if len(rings) != 1 or len(bases) != 1:
            raise RingMismatchError(
                "diagram constituents live over different rings")
        if (self.from_minus.source != self.minus
                or self.from_minus.target != self.mid):
            raise ShapeError("from_minus must map minus into mid")
        if (self.from_plus.source != self.plus
                or self.from_plus.target != self.mid):
            raise ShapeError("from_plus must map plus into mid")

    @property
    def ring(self):
        return self.mid.ring

    @property
    def base(self):
        return self.mid.base

    def validate(self):
        problems = []
        for name, c in (("minus", self.minus), ("mid", self.mid),
                        ("plus", self.plus)):
            problems += [f"{name}: {p}" for p in c.validate()]
        problems += [f"from_minus: {p}" for p in self.from_minus.validate()]
        problems += [f"from_plus: {p}" for p in self.from_plus.validate()]
        return problems


@dataclass(frozen=True)
class DiagramMap:
    """Triple of chain maps compatible with the structure maps."""

    source: ComplexDiagram
    target: ComplexDiagram
    on_minus: ChainMap
    on_mid: ChainMap
    on_plus: ChainMap

    def validate(self):
        problems = []
        for name, f in (("minus", self.on_minus), ("mid", self.on_mid),
                        ("plus", self.on_plus)):
            problems += [f"on_{name}: {p}" for p in f.validate()]
        lo = min(self.source.mid.lo, self.target.mid.lo)
        hi = max(self.source.mid.hi, self.target.mid.hi)
        for m in range(lo, hi + 1):
            left = matmul(self.on_mid.component(m),
                          self.source.from_minus.component(m))
            right = matmul(self.target.from_minus.component(m),
                           self.on_minus.component(m))
            if left != right:
                problems.append(f"degree {m}: minus square does not commute")
            left = matmul(self.on_mid.component(m),
                          self.source.from_plus.component(m))
            right = matmul(self.target.from_plus.component(m),
                           self.on_plus.component(m))
            if left != right:
                problems.append(f"degree {m}: plus square does not commute")
        return problems


def hypercohomology(d: ComplexDiagram) -> ChainComplex:
    """Total complex of the diagram, blocks ordered (minus, plus, mid[1])."""
    ring = d.ring
    lo = min(d.minus.lo, d.plus.lo, d.mid.lo - 1)
    hi = max(d.minus.hi, d.plus.hi, d.mid.hi - 1)
    ranks = {n: d.minus.rank(n) + d.plus.rank(n) + d.mid.rank(n + 1)
             for n in range(lo, hi + 1)}
    diffs = {}
    for n in range(lo + 1, hi + 1):
        diffs[n] = block(ring, [
            [d.minus.diff(n), None, None],
            [None, d.plus.diff(n), None],
            [matneg(d.from_minus.component(n)), d.from_plus.component(n),
             matneg(d.mid.diff(n + 1))],
        ])
    return ChainComplex(ring, d.base, lo, hi, ranks, diffs)


def phi_star(phi: DiagramMap) -> ChainMap:
    """Induced map on totalisations: blockwise (minus, plus, mid[1])."""
    src = hypercohomology(phi.source)
    tgt = hypercohomology(phi.target)
    ring = src.ring
    comps = {}
    for n in range(min(src.lo, tgt.lo), max(src.hi, tgt.hi) + 1):
        comps[n] = block(ring, [
            [phi.on_minus.component(n), None, None],
            [None, phi.on_plus.component(n), None],
            [None, None, phi.on_mid.component(n + 1)],
        ])
    return ChainMap(src, tgt, comps)


def sections_matrix(d: ComplexDiagram, n: int) -> LaurentMatrix:
    """The level-n map (-mu_minus | mu_plus): minus_n + plus_n -> mid_n."""
    return block(d.ring, [[matneg(d.from_minus.component(n)),
                           d.from_plus.component(n)]])


def sections_complex(d: ComplexDiagram):
    """H0 applied levelwise, with its inclusion into the totalisation.

    Returns (h0 complex, iota: h0 -> hypercohomology(d)).  Each level is
    the kernel of the level map, a basis K_n from ``kernel_basis`` (a
    column echelon reduction over K[x,x^-1]), so the result is an honest
    complex of free modules.  Its differential in degree n is the matrix
    of coordinates, by ``kernel_coordinates``, of the images of K_n in
    the basis K_{n-1}.
    """
    ring = d.ring
    hyper = hypercohomology(d)
    lo = min(d.minus.lo, d.plus.lo)
    hi = max(d.minus.hi, d.plus.hi)
    kernels = {n: kernel_basis(sections_matrix(d, n))
               for n in range(lo, hi + 1)}
    ranks = {n: kernels[n].cols for n in range(lo, hi + 1)}
    diffs = {}
    for n in range(lo + 1, hi + 1):
        image = matmul(block(ring, [[d.minus.diff(n), None],
                                    [None, d.plus.diff(n)]]), kernels[n])
        diffs[n] = kernel_coordinates(kernels[n - 1], image)
    h0 = ChainComplex(ring, d.base, lo, hi, ranks, diffs)
    comps = {}
    for n in range(lo, hi + 1):
        kb = kernels[n]
        pad = LaurentMatrix.zero(ring, d.mid.rank(n + 1), kb.cols)
        comps[n] = block(ring, [[kb], [pad]])
    return h0, ChainMap(h0, hyper, comps)


def iota(d: ComplexDiagram) -> ChainMap:
    """The inclusion of the levelwise global-sections complex."""
    _, incl = sections_complex(d)
    return incl


def ses_check(d: ComplexDiagram) -> bool:
    """The natural short exact sequence of complexes

        0 -> mid[1] -> total -> minus (+) plus -> 0

    holds for the canonical totalisation exactly when that is a complex.

    The total differential is block lower triangular with diagonal blocks
    d_minus, d_plus and -d_mid, so in each degree the inclusion of the mid
    block and the projection onto the (minus, plus) blocks are split exact,
    and the block form alone makes them commute with the differentials.
    What can fail is d.d = 0: its off-diagonal blocks are d mu - mu d for
    the two structure maps, so the total is a complex exactly when the
    three complexes are and both structure maps are chain maps.
    """
    return not hypercohomology(d).validate()


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


def diagram_with_a_non_chain_map(ring):
    """(C --f--> C <-- 0) for C = (x - 1: O -> O) in degrees 1, 0 and f
    the identity in degree 1 and zero in degree 0, which is no chain map:
    f d = 0 but d f = x - 1."""
    c = two_term(ring, [(1, 1), (0, -1)])
    zero = zero_complex(ring)
    return ComplexDiagram(c, c, zero, ChainMap(c, c, {1: M(ring, [[1]])}),
                          ChainMap(zero, c))


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
        return {m: scalar_diag(ring, [monomial(ring, e) for e in exps])
                for m, exps in s.chart_exponents(side).items()}

    return ComplexDiagram(minus, s.mid, plus,
                          ChainMap(minus, s.mid, torus_maps("minus")),
                          ChainMap(plus, s.mid, torus_maps("plus")))


# -- lifts of a morphism and of a mapping cone to the projective line ----------


@dataclass(frozen=True)
class MorphismExtension:
    """A torus map extended to the twisted target sheaf."""

    k: int
    l: int
    f_minus: LaurentMatrix     # the K[x^-1] chart map; entries in K[x^-1]
    f_plus: LaurentMatrix      # the K[x] chart map; entries in K[x]


def extend_morphism(z, y, f: LaurentMatrix) -> MorphismExtension:
    """Extend f: Z|_T -> Y|_T to a sheaf map into the (k+l)-twist of Y,
    for twist sums Z and Y given as their sequences of TwistSummand.

    (k, l) is ``twist_shift(f, y, z)``, (0, 0) for f = 0, and the chart
    maps are

        f_minus[i][j] = x^(k_j(z) - k_i(y) - k) f[i][j]   over K[x^-1],
        f_plus[i][j]  = x^(l_i(y) + l - l_j(z)) f[i][j]   over K[x].

    They lie in their rings: the exponents are a - k and b + l for the
    chart exponents (a, b) of f[i][j], and k >= maxdeg f[i][j] + a,
    l >= -(mindeg f[i][j] + b) by the choice of (k, l).  Both chart
    squares commute identically: Y twisted by (k, l) has the torus maps
    diag(x^(k_i(y) + k)) and diag(x^-(l_i(y) + l)), and Z has
    diag(x^k_j(z)) and diag(x^-l_j(z)), so

        x^(k_i(y) + k) f_minus[i][j]  = f[i][j] x^(k_j(z)),
        x^-(l_i(y) + l) f_plus[i][j]  = f[i][j] x^(-l_j(z)),

    entry by entry, so no product is formed here; the tests multiply the
    squares out as an oracle.
    """
    if f.rows != len(y) or f.cols != len(z):
        raise ShapeError(
            f"map has shape {f.rows}x{f.cols}, expected {len(y)}x{len(z)}")
    k, l = twist_shift(f, y, z) or (0, 0)
    f_minus = monomial_scale(f, [-k - t.k for t in y], [t.k for t in z])
    f_plus = monomial_scale(f, [l + t.l for t in y], [-t.l for t in z])
    return MorphismExtension(k, l, f_minus, f_plus)


def extend_cone(v1: SheafComplex, v2: SheafComplex,
                omega: ChainMap) -> SheafComplex:
    """Lift the mapping cone of a torus map between two extensions.

    The target is replaced by the uniform twist of v2 by (k, l), the
    largest ``twist_shift`` of omega over the degrees, so that every
    level of omega extends (``extend_morphism``).  The cone of omega, with
    the twists of that target on the v2 summands and those of v1 on the
    shifted ones, is then legal (the SheafComplex constructor checks it):
    the omega blocks are legal by the choice of (k, l), and the other
    blocks are the differentials of v1 and of the twisted v2, whose chart
    exponents a uniform twist leaves unchanged.  omega is checked to be a
    chain map, so the cone of the two complexes is a complex, and it
    restricts to cone(omega) on the torus.
    """
    if omega.source != v1.mid or omega.target != v2.mid:
        raise ShapeError("omega must map v1|_T to v2|_T")
    if omega.validate():
        raise ShapeError("omega is not a chain map")
    big_k = big_l = 0
    for m, f in omega.components.items():
        k, l = twist_shift(f, v2.twists.get(m, ()),
                           v1.twists.get(m, ())) or (0, 0)
        big_k = max(big_k, k)
        big_l = max(big_l, l)
    cone_mid, _, _ = cone(omega)
    twists = {m: tuple(shifted_summand(t, big_k, big_l)
                       for t in v2.twists.get(m, ()))
              + v1.twists.get(m - 1, ()) for m in cone_mid.degrees()}
    return SheafComplex(cone_mid, twists)


# -- random maps, diagrams and mapping tori ------------------------------------


def null_homotopic_map(rng, source: ChainComplex,
                       target: ChainComplex, span=1) -> ChainMap:
    """d.h + h.d for a random degree-raising h: always a chain map."""
    ring = source.ring
    lo = min(source.lo, target.lo) - 1
    hi = max(source.hi, target.hi)
    h = Homotopy(source, target, {
        m: grid_matrix(
            ring, target.rank(m + 1), source.rank(m),
            [[random_poly(rng, ring, -span, span, 2)
              for _ in range(source.rank(m))]
             for _ in range(target.rank(m + 1))])
        for m in range(lo, hi + 1)})
    return ChainMap(source, target, {
        m: matadd(matmul(target.diff(m + 1), h.component(m)),
                  matmul(h.component(m - 1), source.diff(m)))
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
    plus = direct_sum(mid, extra)
    tail = null_homotopic_map(rng, extra, mid, span)
    from_plus = ChainMap(plus, mid, {
        m: block(mid.ring, [[identity(mid.ring, mid.rank(m)),
                             tail.component(m)]])
        for m in plus.degrees()})
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
        return two_term(ring, [(0, 1)], rng.randint(c.lo, c.hi) + 1,
                        c.base)

    a_minus = acyclic_like(diagram.minus)
    a_mid = acyclic_like(diagram.mid)
    a_plus = acyclic_like(diagram.plus)
    big = ComplexDiagram(
        direct_sum(diagram.minus, a_minus),
        direct_sum(diagram.mid, a_mid),
        direct_sum(diagram.plus, a_plus),
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
    src = direct_sum(f.source, a_src)
    tgt = direct_sum(f.target, a_tgt)
    return ChainMap(src, tgt, {
        m: block(src.ring, [[f.component(m), None],
                            [None, g.component(m)]])
        for m in src.degrees()})


def random_diagram(rng, ring, max_length=3, max_rank=3, span=1):
    """Three random complexes with null-homotopic structure maps."""
    mid = random_complex(rng, ring, max_length, max_rank, span)
    minus = random_complex(rng, ring, max_length, max_rank, span)
    plus = random_complex(rng, ring, max_length, max_rank, span)
    return ComplexDiagram(
        minus, mid, plus,
        null_homotopic_map(rng, minus, mid, span),
        null_homotopic_map(rng, plus, mid, span))


def random_retract_witness(rng, ring, span=1):
    """(D, r, s, h) with id - r.s = d.h + h.d, from a basis-changed
    projection of C (+) acyclic onto C."""
    c = random_complex(rng, ring, 3, 2, span)
    acy = two_term(ring, [(0, 1)], rng.randint(c.lo, c.hi) + 1, c.base)
    d = direct_sum(c, acy)
    r = ChainMap(d, c, {m: block(ring, [[
        identity(ring, c.rank(m)),
        LaurentMatrix.zero(ring, c.rank(m), acy.rank(m)),
    ]]) for m in d.degrees()})
    return d, r, inclusion(c, d), Homotopy(c, c)


def random_mapping_torus(rng, ring, a):
    """(D, T): a random complex D with constant differentials and the
    mapping torus T = cone(x - f) of f = a id + (a null-homotopic map).

    The Mather trick (Ranicki, "Finite domination and Novikov rings",
    Topology 34, 1995): x - f = x (1 - x^-1 f) is invertible over
    R[[x^-1]], so T is Novikov acyclic on the x^-1 side.  R((x)) is flat
    over R, so the x side, T (x) R((x)), is acyclic exactly when x - f_*
    is invertible on H(D) (x) R((x)); f is homotopic to a id, so
    f_* = a.  Over a field that always holds (x - a has a unit end
    coefficient).  Over Z it holds exactly when a is 0, 1 or -1 or
    H(D; Q) = 0: on a finite summand Z/p^k of H(D), x - a is a unit of
    (Z/p^k)((x)) for every a, as -a (1 - x/a) when p does not divide a
    and as x (1 - a/x), a/x nilpotent, when it does.  "f is a
    quasi-isomorphism" is the condition over R[[x]], where x lies in the
    Jacobson radical; on the x side it is sufficient, not necessary:
    D = (Z --2--> Z) with f = 2 id has an acyclic x side, though f is
    not a quasi-isomorphism.  Over a field with a a unit, H_q(T) is
    K[x,x^-1]^b / (x - a), b the Betti number of D in degree q, so
    dim_K H_q(T) = b.
    """
    d = random_complex(rng, ring, span=0)
    null = null_homotopic_map(rng, d, d, span=0)
    x_minus_a = LaurentPoly(ring, {1: ring.one(), 0: ring.from_int(-a)})
    return d, cone(ChainMap(d, d, {
        m: matsub(scalar_diag(ring, [x_minus_a] * d.rank(m)),
                  null.component(m)) for m in d.degrees()}))[0]
