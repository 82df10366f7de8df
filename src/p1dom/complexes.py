"""Bounded chain complexes of finitely generated free modules.

Complexes are homologically indexed: the differential decreases the degree.
A complex stores explicit support bounds [lo, hi]; every operation treats
degrees outside the support as rank zero.  A ``ChainComplex`` lives over
K[x^-1], K[x] or K[x,x^-1] and stores dense Laurent matrices; its homology
over K[x,x^-1] (free rank plus torsion invariant factors) is read from the
invariant factors of each differential, computed by
``smith.invariant_factors`` from alternating column echelon forms with no
transforms kept (integer coefficients over Q).  Every complex
over the base ring K (the global sections W, base-K files) is a
``ScalarComplex`` of sparse scalar rows, where plain rank-nullity applies.
``homology_ranks`` states that rule once (rank C_q - rank d_q - rank
d_{q+1}); every homology count in the package reads it, and a negative
count is d.d != 0.
"""

from __future__ import annotations

from dataclasses import dataclass

from .errors import RingMismatchError, ShapeError, UnsupportedRingError
from .laurent import BaseRing, LaurentPoly
from .matrices import LaurentMatrix, scalar_rank
from .polylists import cleared, dot
from .scalars import CoefficientRing
from .smith import invariant_factors


class ChainComplex:
    """Degree-indexed ranks and differentials over a declared base ring."""

    __slots__ = ("ring", "base", "lo", "hi", "ranks", "diffs")

    def __init__(self, ring, base: BaseRing, lo: int, hi: int,
                 ranks=None, diffs=None):
        if lo > hi:
            raise ShapeError(f"support interval [{lo}, {hi}] is empty")
        if base == BaseRing.K:
            raise UnsupportedRingError("K-complexes are ScalarComplex")
        self.ring = ring
        self.base = base
        self.lo = lo
        self.hi = hi
        self.ranks = {m: int((ranks or {}).get(m, 0)) for m in range(lo, hi + 1)}
        if any(r < 0 for r in self.ranks.values()):
            raise ShapeError("negative rank")
        diffs = diffs or {}
        clean = {}
        for m in range(lo + 1, hi + 1):
            d = diffs.get(m)
            if d is None:
                d = LaurentMatrix.zero(ring, self.rank(m - 1), self.rank(m))
            if d.rows != self.rank(m - 1) or d.cols != self.rank(m):
                raise ShapeError(
                    f"differential at degree {m} has shape "
                    f"{d.rows}x{d.cols}, expected "
                    f"{self.rank(m - 1)}x{self.rank(m)}")
            if d.ring is not ring and d.ring != ring:
                raise RingMismatchError("differential over a different ring")
            clean[m] = d
        for m in diffs:
            if m not in clean and not diffs[m].is_zero:
                raise ShapeError(f"differential at degree {m} out of support")
        self.diffs = clean

    # -- constructors ------------------------------------------------------

    @classmethod
    def zero(cls, ring, base=BaseRing.LAURENT):
        return cls(ring, base, 0, 0)

    @classmethod
    def single(cls, ring, base, degree, rank):
        return cls(ring, base, degree, degree, {degree: rank})

    @classmethod
    def two_term(cls, ring, poly: LaurentPoly, top: int = 1,
                 base=BaseRing.LAURENT):
        """rank-1 complex (base^1 --poly--> base^1) in degrees top, top-1."""
        d = LaurentMatrix(ring, 1, 1, [[poly]])
        return cls(ring, base, top - 1, top,
                   {top: 1, top - 1: 1}, {top: d})

    # -- access ------------------------------------------------------------

    def rank(self, m: int) -> int:
        return self.ranks.get(m, 0)

    def diff(self, m: int) -> LaurentMatrix:
        """The differential C_m -> C_{m-1} (zero outside the support)."""
        d = self.diffs.get(m)
        if d is None:
            return LaurentMatrix.zero(self.ring, self.rank(m - 1),
                                      self.rank(m))
        return d

    @property
    def is_zero(self) -> bool:
        return all(r == 0 for r in self.ranks.values())

    def degrees(self):
        return range(self.lo, self.hi + 1)

    # -- validation ----------------------------------------------------------

    def validate(self):
        """Full d.d = 0 and exponent-constraint report; [] means valid.

        Every entry respects K[x,x^-1], so only the other base rings scan
        the entries' exponents.  Over Q each row of d_{m-1} and each column
        of d_m that shares a nonzero position with a partner is cleared of
        denominators once (``polylists.cleared``) and the products run on
        ints: scaling rows and columns by nonzero integers changes no
        product entry's vanishing.
        """
        problems = [] if self.base is BaseRing.LAURENT else [
            f"degree {m}: entry ({i},{j}) = {p} violates {self.base.tag}"
            for m in range(self.lo + 1, self.hi + 1)
            for i, j, p in self.diff(m).nonzero_entries()
            if not p.respects(self.base)]
        p = self.ring.p
        clear = self.ring.kind == "Q"
        for m in range(self.lo + 2, self.hi + 1):
            rows = [[q.entry for q in row] for row in self.diff(m - 1).entries]
            cols = [[q.entry for q in col]
                    for col in zip(*self.diff(m).entries)]
            if clear:
                # only a row and a column that share a nonzero position
                # multiply anything
                shared = [k for k in range(self.rank(m - 1))
                          if any(row[k] is not None for row in rows)
                          and any(col[k] is not None for col in cols)]
                if not shared:
                    continue
                rows = [cleared(row)[1] if any(row[k] is not None
                                               for k in shared) else row
                        for row in rows]
                cols = [cleared(col)[1] if any(col[k] is not None
                                               for k in shared) else col
                        for col in cols]
            if any(dot(row, col, p) is not None
                   for row in rows for col in cols):
                problems.append(f"degree {m}: d.d != 0")
        return problems

    # -- basic operations -----------------------------------------------------

    def shift(self, n: int) -> "ChainComplex":
        """Re-index degrees by +n; the differential picks up (-1)^n."""
        sign = 1 if n % 2 == 0 else -1
        ranks = {m + n: r for m, r in self.ranks.items()}
        diffs = {}
        for m, d in self.diffs.items():
            diffs[m + n] = d if sign == 1 else -d
        return ChainComplex(self.ring, self.base, self.lo + n, self.hi + n,
                            ranks, diffs)

    def direct_sum(self, other: "ChainComplex") -> "ChainComplex":
        if self.ring != other.ring or self.base != other.base:
            raise RingMismatchError("direct sum over different rings")
        lo = min(self.lo, other.lo)
        hi = max(self.hi, other.hi)
        ranks = {m: self.rank(m) + other.rank(m) for m in range(lo, hi + 1)}
        diffs = {}
        for m in range(lo + 1, hi + 1):
            diffs[m] = LaurentMatrix.block(
                self.ring, [[self.diff(m), None], [None, other.diff(m)]])
        return ChainComplex(self.ring, self.base, lo, hi, ranks, diffs)

    def __eq__(self, other):
        if not isinstance(other, ChainComplex):
            return NotImplemented
        return (self.ring == other.ring and self.base == other.base
                and self.lo == other.lo and self.hi == other.hi
                and self.ranks == other.ranks and self.diffs == other.diffs)

    def __hash__(self):
        return hash((self.ring, self.base, self.lo, self.hi,
                     tuple(sorted(self.ranks.items()))))

    def __repr__(self):
        ranks = ", ".join(f"{m}:{self.rank(m)}" for m in self.degrees())
        return (f"ChainComplex({self.ring.tag}, {self.base.tag}, "
                f"ranks {{{ranks}}})")


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
        return cls(c, c, {m: LaurentMatrix.identity(c.ring, c.rank(m))
                          for m in c.degrees()})

    def validate(self):
        problems = []
        lo = min(self.source.lo, self.target.lo)
        hi = max(self.source.hi, self.target.hi)
        for m in range(lo + 1, hi + 1):
            lhs = self.component(m - 1) @ self.source.diff(m)
            rhs = self.target.diff(m) @ self.component(m)
            if lhs != rhs:
                problems.append(f"degree {m}: f.d != d.f")
        return problems


class Homotopy(GradedMap):
    """Degree +1 family h_m: source_m -> target_{m+1}."""

    __slots__ = ()
    SHIFT = 1
    KIND = PART = "homotopy"


# -- homology -----------------------------------------------------------------


@dataclass(frozen=True)
class HomologyEntry:
    """Structure of one homology module over the base ring."""

    free_rank: int
    torsion: tuple            # monic nonconstant invariant factors
    kdim: int | None          # dimension over K; None means infinite

    @property
    def is_zero(self) -> bool:
        return self.free_rank == 0 and not self.torsion


@dataclass(frozen=True)
class HomologyReport:
    entries: dict             # degree -> HomologyEntry

    def entry(self, q: int) -> HomologyEntry:
        return self.entries.get(
            q, HomologyEntry(free_rank=0, torsion=(), kdim=0))

    @property
    def is_acyclic(self) -> bool:
        return all(e.is_zero for e in self.entries.values())

    @property
    def all_torsion(self) -> bool:
        return all(e.free_rank == 0 for e in self.entries.values())

    def free_ranks(self) -> dict:
        return {q: e.free_rank for q, e in self.entries.items()
                if e.free_rank}


def homology(c: ChainComplex | ScalarComplex) -> HomologyReport:
    """Per-degree homology structure.

    Over R = K[x,x^-1] (field coefficients) the invariant factors of each
    differential, one ``invariant_factors`` call each (no transforms;
    integer coefficients over Q), give every degree.  R is a PID, so
    im d_q, a submodule of the free C_{q-1}, is free, and
    0 -> ker d_q -> C_q -> im d_q -> 0 splits: C_q = ker d_q (+) L with L
    free of rank rank d_q.  As im d_{q+1} lies in ker d_q,

        coker d_{q+1} = C_q / im d_{q+1} = H_q (+) L.

    Invariant factors are unique, so the torsion of H_q is that of
    coker d_{q+1}, the nonunit invariant factors of d_{q+1}, and
    free_q = rank C_q - rank d_q - rank d_{q+1}.  The factors come monic
    with zero valuation, as a Smith form of a presentation of H_q would
    give them.  d.d = 0 is assumed and not checked beyond that rank count
    (``homology_ranks``).  Over the base ring K only dimensions are
    needed.  Z coefficients are unsupported.
    """
    if not c.ring.is_field:
        raise UnsupportedRingError(
            "homology needs field coefficients (Z[x,x^-1] is not a PID)")
    if isinstance(c, ScalarComplex):
        return HomologyReport({
            q: HomologyEntry(dim, (), dim)
            for q, dim in homology_dims(c).items()})
    if c.base != BaseRing.LAURENT:
        raise UnsupportedRingError(
            f"homology is computed over K or K[x,x^-1], not {c.base.tag}")
    factors = {m: invariant_factors(d)
               for m, d in c.diffs.items() if d.rows and d.cols}
    entries = {}
    ranks = {m: len(fs) for m, fs in factors.items()}
    for q, free in homology_ranks(c.ranks, ranks).items():
        incoming = factors.get(q + 1, ())
        # core degrees, maxdeg - mindeg, read off the entries
        torsion = tuple(f for f in incoming if len(f.entry[1]) > 1)
        kdim = None if free else sum(len(f.entry[1]) - 1 for f in torsion)
        entries[q] = HomologyEntry(free, torsion, kdim)
    return HomologyReport(entries)


@dataclass(frozen=True)
class ScalarComplex:
    """Bounded complex of finite-dimensional K-vector spaces.

    ``diffs[m]`` is the ScalarMatrix of C_m -> C_{m-1}; a degree without
    one has the zero differential.  ``base`` is always K, so a check of the
    base ring reads it as it reads a ChainComplex's.
    """

    ring: CoefficientRing
    lo: int
    hi: int
    ranks: dict
    diffs: dict
    base = BaseRing.K

    def rank(self, m: int) -> int:
        return self.ranks.get(m, 0)

    def degrees(self):
        return range(self.lo, self.hi + 1)

    @property
    def is_zero(self) -> bool:
        return not any(self.ranks.values())

    def validate(self):
        """d.d = 0 report in the words of ChainComplex.validate."""
        p = self.ring.p
        problems = []
        for m in range(self.lo + 2, self.hi + 1):
            a, b = self.diffs.get(m - 1), self.diffs.get(m)
            if a is None or b is None:
                continue
            for row in a.data:
                acc = {}
                for k, v in row.items():
                    for j, w in b.data[k].items():
                        acc[j] = acc.get(j, 0) + v * w
                if any(x % p if p else x for x in acc.values()):
                    problems.append(f"degree {m}: d.d != 0")
                    break
        return problems


def require_valid(c: ChainComplex | ScalarComplex):
    """Raise ShapeError naming every problem ``c.validate()`` finds."""
    problems = c.validate()
    if problems:
        raise ShapeError("invalid complex: " + "; ".join(problems))


def homology_ranks(ranks: dict, diff_ranks: dict) -> dict:
    """Rank-nullity over a field: degree q of ``ranks`` -> rank C_q -
    r_q - r_{q+1}, where ``diff_ranks`` maps m to r_m = rank d_m (0 when
    missing).  This is the rank of H_q: of the homology over K, of the
    free part over K[x,x^-1] (ranks over K(x)), of a chart complex over
    K((t)).  In a complex im d_{q+1} lies in ker d_q, so r_q + r_{q+1} <=
    rank C_q; a degree where it does not raises ShapeError."""
    out = {}
    for q, rank in ranks.items():
        free = rank - diff_ranks.get(q, 0) - diff_ranks.get(q + 1, 0)
        if free < 0:
            raise ShapeError(f"invalid complex: degree {q + 1}: d.d != 0")
        out[q] = free
    return out


def homology_dims(c: ScalarComplex) -> dict:
    """Degree -> K-dimension of the homology of a K-complex; ShapeError
    for a degree where the ranks show d.d != 0."""
    return homology_ranks(
        {q: c.rank(q) for q in c.degrees()},
        {m: scalar_rank(d) for m, d in c.diffs.items() if d.rows and d.cols})


def is_acyclic(c: ChainComplex) -> bool:
    return homology(c).is_acyclic


# -- cones and retracts -------------------------------------------------------


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
        diffs[m] = LaurentMatrix.block(ring, [
            [b.diff(m), f.component(m - 1)], [None, -a.diff(m - 1)]])
    cc = ChainComplex(ring, a.base, lo, hi, ranks, diffs)
    shifted = a.shift(1)
    proj = ChainMap(cc, shifted, {
        m: LaurentMatrix.block(ring, [[
            LaurentMatrix.zero(ring, a.rank(m - 1), b.rank(m)),
            LaurentMatrix.identity(ring, a.rank(m - 1)),
        ]])
        for m in range(lo, hi + 1)})
    return cc, inclusion(b, cc), proj


def inclusion(small: ChainComplex, big: ChainComplex) -> ChainMap:
    """The inclusion of ``small`` as the leading summands of ``big`` in
    every degree: the identity over a zero block."""
    ring = small.ring
    return ChainMap(small, big, {
        m: LaurentMatrix.block(ring, [
            [LaurentMatrix.identity(ring, small.rank(m))],
            [LaurentMatrix.zero(ring, big.rank(m) - small.rank(m),
                                small.rank(m))],
        ])
        for m in big.degrees()})


def is_quasi_iso(f: ChainMap) -> bool:
    """Mapping-cone acyclicity, the derived-category meaning used here."""
    cc, _, _ = cone(f)
    return is_acyclic(cc)


def verify_homotopy_retract(d: ChainComplex, r: ChainMap, s: ChainMap,
                            h: Homotopy) -> bool:
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
        ident = LaurentMatrix.identity(c.ring, c.rank(m))
        if rs + dh + hd != ident:
            return False
    return True

