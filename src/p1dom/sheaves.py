"""Sheaves on the projective line as gluing diagrams.

A sheaf diagram holds free modules over K[x^-1], K[x,x^-1] and K[x] with
structure maps into the middle.  Each middle basis vector carries a twist
split (k, l): the stored matrices p_minus / p_plus are legal over K[x^-1]
and K[x], and the true torus maps are diag(x^k) @ p_minus and
diag(x^-l) @ p_plus.  With this bookkeeping the nth twisting sheaf stores
identity matrices and all legality checks are integer comparisons.

A sheaf complex is its torus complex and its twists: level m is the sum
of the twisting sheaves listed in ``twists[m]``, whose torus maps diag(x^k)
and diag(x^-l) have the unit determinants x^(sum k) and x^-(sum l), so a
level is valid by construction.  The gluing squares then force the two
chart complexes, the monomial conjugates of the middle one; the
constructor checks by integer comparisons that they lie in K[x^-1] and
K[x], ``minus`` and ``plus`` build them only when asked, and
``SheafComplex.level`` builds a level's diagram only for a caller that
asks for one.

The gluing rule for a torus map between two twist sums is written once:
``chart_shifts`` gives each nonzero entry its two chart exponents, and
``twist_shift`` the least twist of the target that makes every entry
legal.  The SheafComplex constructor checks the rule, and the extension
of complexes, morphisms and cones (``extension``) solves it.

Global sections and first cohomology of a sum of twists are banded monomial
spaces: for a summand of twist n = k + l the section basis is
x^-l, ..., x^k (when n >= 0) and the obstruction basis is
x^{k+1}, ..., x^{-l-1} (when n <= -2).  A general (valid) level is a
vector bundle whose sections lie in one exponent band that the entry
degrees and determinants of its structure maps fix in advance; h0 is the
nullity of one scalar matrix on that band, h1 follows by Riemann-Roch, and
no bases are returned.
"""

from __future__ import annotations

from dataclasses import dataclass

from .complexes import ChainComplex, ScalarComplex
from .errors import (BaseRingViolationError, NonVanishingH1Error,
                     ShapeError, UnsupportedRingError)
from .laurent import BaseRing
from .matrices import LaurentMatrix, ScalarMatrix, scalar_rank


@dataclass(frozen=True)
class TwistSummand:
    """Twist split of one line-bundle summand: n = k + l."""

    k: int
    l: int

    @property
    def n(self) -> int:
        return self.k + self.l

    def shifted(self, dk: int, dl: int) -> "TwistSummand":
        return TwistSummand(self.k + dk, self.l + dl)


def chart_shifts(d: LaurentMatrix, target, source):
    """(i, j, p, a, b) for each nonzero entry p = d[i][j] of a torus map d
    from the twist sum ``source`` to the twist sum ``target`` (sequences
    of TwistSummand): its chart entries are x^a p over K[x^-1] and x^b p
    over K[x], with the chart exponents

        a = k_j(source) - k_i(target),   b = l_i(target) - l_j(source),

    so p is legal over K[x^-1] iff maxdeg p + a <= 0 and over K[x] iff
    mindeg p + b >= 0.  This is the one gluing rule of the package."""
    for i, (row, t) in enumerate(zip(d.entries, target)):
        for j, (p, s) in enumerate(zip(row, source)):
            if p.entry is not None:
                yield i, j, p, s.k - t.k, t.l - s.l


def twist_shift(d: LaurentMatrix, target, source):
    """The least (k, l) >= (0, 0) such that d is legal on both charts once
    every summand of ``target`` is shifted by (k, l), which lowers each a
    of ``chart_shifts`` by k and raises each b by l: k is the largest
    maxdeg p + a and l the largest -(mindeg p + b), each at least 0.
    None for the zero map, which any (k, l) makes legal."""
    k = l = 0
    zero = True
    for _, _, p, a, b in chart_shifts(d, target, source):
        v, c = p.entry
        zero = False
        if v + len(c) - 1 + a > k:
            k = v + len(c) - 1 + a
        if -v - b > l:
            l = -v - b
    return None if zero else (k, l)


class SheafDiagram:
    """One level of a sheaf of modules on the projective line."""

    __slots__ = ("ring", "twists", "p_minus", "p_plus", "is_twist_sum")

    def __init__(self, ring, twists, p_minus: LaurentMatrix,
                 p_plus: LaurentMatrix):
        self.ring = ring
        self.twists = tuple(twists)
        r = len(self.twists)
        if p_minus.rows != r or p_plus.rows != r:
            raise ShapeError("structure matrices must have one row per summand")
        p_minus.check_base(BaseRing.POLY_INV)
        p_plus.check_base(BaseRing.POLY)
        self.p_minus = p_minus
        self.p_plus = p_plus
        # identity structure matrices: a sum of twisting sheaves
        self.is_twist_sum = p_minus.is_identity and p_plus.is_identity

    # -- constructors ------------------------------------------------------

    @classmethod
    def twist_sum(cls, ring, twists):
        """Sum of twisting sheaves with identity structure matrices."""
        twists = tuple(twists)
        ident = LaurentMatrix.identity(ring, len(twists))
        return cls(ring, twists, ident, ident)

    # -- the actual structure maps over the torus ----------------------------

    def mu_minus_torus(self) -> LaurentMatrix:
        return self.p_minus.monomial_scale([t.k for t in self.twists])

    def mu_plus_torus(self) -> LaurentMatrix:
        return self.p_plus.monomial_scale([-t.l for t in self.twists])

    def twist(self, n: int, k: int | None = None) -> "SheafDiagram":
        """The nth twist; the split defaults to (n, 0)."""
        dk = n if k is None else k
        dl = n - dk
        return SheafDiagram(self.ring,
                            [t.shifted(dk, dl) for t in self.twists],
                            self.p_minus, self.p_plus)

    def validate(self):
        return self._validated()[0]

    def _validated(self):
        """The problems of ``validate`` and the pairs (torus map, its
        determinant) it computed: none for a twist sum, whose entries are
        constant and whose torus maps diag(x^k), diag(x^-l) are units.
        The constructor has checked the entries against the chart rings,
        so only the torus maps are left."""
        if self.is_twist_sum:
            return [], []
        problems = []
        maps = []
        for label, mu in (("minus", self.mu_minus_torus()),
                          ("plus", self.mu_plus_torus())):
            if not mu.is_square:
                problems.append(f"{label} adjoint map is not square")
            elif mu.rows:
                det = mu.determinant()
                if not det.is_unit:
                    problems.append(f"{label} adjoint map is not an "
                                    "isomorphism over the torus")
                maps.append((mu, det))
        return problems, maps

    def __eq__(self, other):
        if not isinstance(other, SheafDiagram):
            return NotImplemented
        return (self.ring == other.ring and self.twists == other.twists
                and self.p_minus == other.p_minus
                and self.p_plus == other.p_plus)

    def __repr__(self):
        ts = ", ".join(f"O({t.n})[{t.k},{t.l}]" for t in self.twists)
        return f"SheafDiagram({self.ring.tag}; {ts})"


def twisting_sheaf(ring, n: int, k: int = 0, rank: int = 1) -> SheafDiagram:
    """r copies of the nth twisting sheaf with the split (k, l = n - k)."""
    return SheafDiagram.twist_sum(ring, [TwistSummand(k, n - k)] * rank)


# -- cohomology of a single diagram ---------------------------------------------


@dataclass(frozen=True)
class CechCohomology:
    """Dimensions of the kernel and cokernel of the two-term section
    complex of a level.

    For twist sums both bases are explicit monomial lists of pairs
    (summand index, exponent).  A general level is solved on one band
    fixed in advance and gets h1 from Riemann-Roch; it has no bases.
    """

    h0_dim: int
    h1_dim: int
    h0_basis: tuple | None
    h1_basis: tuple | None


def cech_cohomology(d: SheafDiagram) -> CechCohomology:
    """H0 and H1 of one level; an invalid level is a ShapeError.

    For a general level let r be the middle rank, det mu_pm = c_pm x^e_pm
    (units over the torus), and M_pm / m_pm the largest / smallest exponent
    among the entries of mu_pm.  A section is a pair (a-, a+) over K[x^-1]
    and K[x] with mu_minus a- = mu_plus a+.  Then

        a+ = adj(mu_plus) mu_minus a- / (c+ x^e+),

    and every adjugate entry is a sum of products of r - 1 entries, so
    deg a+ <= (r-1) M+ + M- + deg a- - e+ <= H = (r-1) M+ - e+ + M-, as
    deg a- <= 0.  In the same way a- = adj(mu_minus) mu_plus a+ / (c- x^e-)
    has lowest exponent >= L = (r-1) m- - e- + m+.  So every section lies
    in the band of a- exponents [min(0, L), 0] and a+ exponents
    [0, max(0, H)], and the matrix of (-mu_minus | mu_plus) on that band,
    with a row for every (summand, exponent) its columns reach, has the
    sections as its kernel: h0 is its nullity.  Riemann-Roch,
    h0 - h1 = r + e- - e+ (Grothendieck 1957; Gohberg-Krein 1958), gives
    h1.
    """
    problems, maps = d._validated()
    if problems:
        raise ShapeError("invalid sheaf level: " + "; ".join(problems))
    if d.is_twist_sum:
        h0 = []
        h1 = []
        for i, t in enumerate(d.twists):
            # the first range is empty unless n >= 0, the second unless
            # n <= -2
            h0.extend((i, e) for e in range(-t.l, t.k + 1))
            h1.extend((i, e) for e in range(t.k + 1, -t.l))
        return CechCohomology(len(h0), len(h1), tuple(h0), tuple(h1))
    ring = d.ring
    r = len(d.twists)
    # a valid general level has r >= 1: an empty one is a twist sum
    (mu_m, det_m), (mu_p, det_p) = maps
    e_m = det_m.mindeg
    e_p = det_p.mindeg
    lo = min(0, (r - 1) * mu_m.global_mindeg() - e_m + mu_p.global_mindeg())
    hi = max(0, (r - 1) * mu_p.global_maxdeg() - e_p + mu_m.global_maxdeg())
    rows = {}
    col = 0
    for mat, band in ((-mu_m, range(lo, 1)), (mu_p, range(0, hi + 1))):
        for j in range(mat.cols):
            column = [(i, mat.entries[i][j].items()) for i in range(r)]
            for e in band:
                # distinct (summand, exponent) pairs in one column hit
                # distinct rows, so every cell is written once
                for i, terms in column:
                    for ee, c in terms:
                        rows.setdefault((i, ee + e), {})[col] = c
                col += 1
    rank = scalar_rank(ScalarMatrix(ring, len(rows), col, list(rows.values())))
    h0 = col - rank
    return CechCohomology(h0, h0 - (r + e_m - e_p), None, None)


# -- complexes of sheaves ---------------------------------------------------------


class SheafComplex:
    """A bounded free K[x,x^-1]-complex with a twist split per generator.

    ``twists`` maps a degree m to the TwistSummand of each generator of
    C_m: level m is their sum, with torus maps diag(x^k) from the K[x^-1]
    chart and diag(x^-l) from the K[x] chart.  A degree left out has no
    summands; a twist at a degree outside the support of ``mid`` is a
    ShapeError.

    The gluing squares x^(k_i(m-1)) d^-[i][j] = d[i][j] x^(k_j(m)) and
    x^(-l_i(m-1)) d^+[i][j] = d[i][j] x^(-l_j(m)) force the chart
    differentials

        d^-_m[i][j] = x^(k_j(m) - k_i(m-1)) d_m[i][j]   over K[x^-1],
        d^+_m[i][j] = x^(l_i(m-1) - l_j(m)) d_m[i][j]   over K[x],

    which are x^a d_m[i][j] and x^b d_m[i][j] for the chart exponents
    (a, b) of ``chart_shifts`` from level m to level m - 1.  The
    constructor raises BaseRingViolationError at the first entry that
    leaves its chart ring, naming the degree, the entry and the chart
    ring (minus before plus).  ``minus`` and ``plus`` build the charts on
    each call.  A chart is the middle complex conjugated by the diagonal units
    diag(x^k), diag(x^-l), so it has d.d = 0 exactly when ``mid`` has, and
    the squares commute by construction: ``validate`` checks ``mid`` alone.
    """

    __slots__ = ("mid", "twists")

    def __init__(self, mid: ChainComplex, twists):
        if mid.base != BaseRing.LAURENT:
            raise UnsupportedRingError(
                "sheaf complex needs a K[x,x^-1] middle complex")
        for m, ts in twists.items():
            if ts and not mid.lo <= m <= mid.hi:
                raise ShapeError(f"level {m} has twists but lies outside "
                                 f"the support [{mid.lo}, {mid.hi}]")
        self.mid = mid
        self.twists = {m: tuple(twists.get(m, ())) for m in mid.degrees()}
        for m, ts in self.twists.items():
            if len(ts) != mid.rank(m):
                raise ShapeError(f"level {m} has {len(ts)} twists for "
                                 f"rank {mid.rank(m)}")
        for m, d in mid.diffs.items():
            for i, j, p, a, b in chart_shifts(d, self.twists[m - 1],
                                              self.twists[m]):
                v, c = p.entry
                if v + len(c) - 1 + a > 0:
                    side, base, shift = "minus", BaseRing.POLY_INV, a
                elif v + b < 0:
                    side, base, shift = "plus", BaseRing.POLY, b
                else:
                    continue
                raise BaseRingViolationError(
                    f"degree {m}: {side} chart entry ({i},{j}) = "
                    f"{p.times_monomial(shift)} violates {base.tag}")

    @property
    def minus(self) -> ChainComplex:
        """The K[x^-1] chart complex."""
        return self._chart("minus", BaseRing.POLY_INV)

    @property
    def plus(self) -> ChainComplex:
        """The K[x] chart complex."""
        return self._chart("plus", BaseRing.POLY)

    def _chart(self, side: str, base: BaseRing) -> ChainComplex:
        """The chart complex of ``side`` over ``base`` in one pass over the
        middle entries: d_m[i][j] x^(a_j(m) - a_i(m-1)), where
        x^a is the torus map of a summand (a = k on the minus side, -l on
        the plus side)."""
        mid = self.mid
        a = self.chart_exponents(side)
        return ChainComplex(mid.ring, base, mid.lo, mid.hi, dict(mid.ranks), {
            m: mid.diff(m).monomial_scale([-e for e in a[m - 1]], a[m])
            for m in range(mid.lo + 1, mid.hi + 1)})

    def chart_exponents(self, side: str) -> dict:
        """degree m -> the exponents a of the torus maps x^a of the
        summands of level m: a = k on the minus side, -l on the plus
        side."""
        return {m: [t.k if side == "minus" else -t.l for t in ts]
                for m, ts in self.twists.items()}

    def level(self, m: int) -> SheafDiagram:
        """Level m as a diagram with identity structure matrices."""
        return SheafDiagram.twist_sum(self.ring, self.twists.get(m, ()))

    @property
    def ring(self):
        return self.mid.ring

    def degrees(self):
        return self.mid.degrees()

    def twist_profile(self):
        """degree -> (k, l) when every level has one uniform twist split;
        an empty level has the split of the level above it, and an empty
        top level (0, 0), as ``extend_complex`` carries a twist through a
        zero differential."""
        profile = {}
        split = (0, 0)
        for m in sorted(self.twists, reverse=True):
            splits = {(t.k, t.l) for t in self.twists[m]}
            if len(splits) > 1:
                raise ShapeError(f"level {m} mixes twist splits")
            split = profile[m] = splits.pop() if splits else split
        return profile

    def twist(self, n: int, k: int | None = None) -> "SheafComplex":
        """Twist every level by n with the split (k, n-k); differentials on
        the two charts are unchanged by a uniform twist."""
        dk = n if k is None else k
        dl = n - dk
        twists = {m: tuple(t.shifted(dk, dl) for t in ts)
                  for m, ts in self.twists.items()}
        return SheafComplex(self.mid, twists)

    def validate(self):
        return [f"mid: {p}" for p in self.mid.validate()]


def cech_complex(s: SheafComplex) -> ScalarComplex:
    """The complex of global sections as a K-complex on monomial bands.

    Every twist must be at least -1 so that first cohomology vanishes;
    the differential is the restriction of the middle differential to the
    bands.  It maps each band into its target band: a monomial x^e of
    summand j in degree m has -l_j(m) <= e <= k_j(m), and a nonzero entry
    p = d_m[i][j] has maxdeg p + a <= 0 and mindeg p + b >= 0 for its
    chart exponents a = k_j(m) - k_i(m-1), b = l_i(m-1) - l_j(m) (the
    SheafComplex legality check), so every exponent of p x^e lies in
    [-l_i(m-1), k_i(m-1)], the band of summand i in degree m - 1.
    """
    ring = s.ring
    # the band of summand i in degree m has rows offsets[m][i] + e for
    # its exponents e in [-l_i, k_i]
    offsets, ranks = {}, {}
    for m, twists in s.twists.items():
        offsets[m], ranks[m] = [], 0
        for i, t in enumerate(twists):
            if t.n <= -2:
                raise NonVanishingH1Error(
                    f"level {m} summand {i} has twist {t.n} <= -2")
            offsets[m].append(ranks[m] + t.l)
            ranks[m] += t.n + 1
    diffs = {}
    for m, d in s.mid.diffs.items():
        rows = [{} for _ in range(ranks[m - 1])]
        # the columns of d as (row of the target band at x^0 plus the
        # entry's valuation, coefficients) over their nonzero entries
        columns = [[] for _ in range(d.cols)]
        for off, row in zip(offsets[m - 1], d.entries):
            for column, p in zip(columns, row):
                if p.entry is not None:
                    column.append((off + p.entry[0], p.entry[1]))
        col = 0
        for column, t in zip(columns, s.twists[m]):
            for e in range(-t.l, t.k + 1):
                # distinct (row, exponent) pairs hit distinct target
                # monomials, so every cell is written once
                for start, c in column:
                    for k, x in enumerate(c, start + e):
                        if x:
                            rows[k][col] = x
                col += 1
        diffs[m] = ScalarMatrix(ring, len(rows), ranks[m], rows)
    return ScalarComplex(ring, s.mid.lo, s.mid.hi, ranks, diffs)


def sheaf_hyper_homology_dims(s: SheafComplex) -> dict:
    """Hypercohomology dimensions for a complex with zero differentials.

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
    dims = {}
    coh = {m: cech_cohomology(s.level(m)) for m in s.degrees()}
    for n in range(s.mid.lo - 1, s.mid.hi + 1):
        total = 0
        if n in coh:
            total += coh[n].h0_dim
        if n + 1 in coh:
            total += coh[n + 1].h1_dim
        dims[n] = total
    return {n: v for n, v in dims.items()}


def torus_diagram(s: SheafComplex):
    """The base change of a sheaf complex to the torus as a one-ring diagram.

    Both chart complexes become K[x,x^-1]-complexes and the structure maps
    turn into honest chain maps, so the quasi-isomorphism machinery for
    one-ring diagrams (sections inclusion, totalisation, cones) applies
    exactly.  The level maps are onto because the plus adjoint map is an
    isomorphism over the torus.
    """
    from .complexes import ChainMap
    from .diagrams import ComplexDiagram

    minus = s._chart("minus", BaseRing.LAURENT)
    plus = s._chart("plus", BaseRing.LAURENT)
    mid = s.mid
    from_minus = ChainMap(minus, mid, {
        m: s.level(m).mu_minus_torus() for m in s.degrees()})
    from_plus = ChainMap(plus, mid, {
        m: s.level(m).mu_plus_torus() for m in s.degrees()})
    return ComplexDiagram(minus, mid, plus, from_minus, from_plus)

