"""Bounded chain complexes of finitely generated free modules.

Complexes are homologically indexed: the differential decreases the degree.
A complex stores explicit support bounds [lo, hi]; every operation treats
degrees outside the support as rank zero.  A ``ChainComplex`` lives over
K[x^-1], K[x] or K[x,x^-1] and stores Laurent matrices of sparse rows; its
homology over K[x,x^-1] (free rank plus torsion invariant factors) is read from the
invariant factors of each differential, computed by
``smith.invariant_factors`` from alternating column echelon forms with no
transforms kept (integer coefficients over Q).  Every complex
over the base ring K (the global sections W, base-K files) is a
``ScalarComplex`` of sparse scalar rows, where plain rank-nullity applies.
``homology_ranks`` states that rule once (rank C_q - rank d_q - rank
d_{q+1}); every homology count in the package reads it, and a negative
count is d.d != 0.  Complexes are what the pipeline reads and builds:
the chain maps, homotopies and mapping cones of the paper's lemmas are
test oracles (``tests/paper_lemmas.py``).
"""

from __future__ import annotations

from typing import NamedTuple

from .errors import (FormatError, RingMismatchError, ShapeError,
                     UnsupportedRingError, shown)
from .laurent import BaseRing, render
from .matrices import LaurentMatrix, scalar_rank
from .polylists import ONE, cleared, lincomb
from .scalars import CoefficientRing
from .smith import invariant_factors

# the largest rank of a degree in a file or in W: both are written densely
MAX_RANK = 512


def check_rank(rank: int, where: str):
    """A rank above MAX_RANK is a FormatError at ``where``."""
    if rank > MAX_RANK:
        raise FormatError(f"rank {shown(rank)} exceeds {MAX_RANK}", where)


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
    def _stored(cls, ring, base: BaseRing, lo: int, hi: int, ranks: dict,
                diffs: dict) -> "ChainComplex":
        """A complex whose shapes the caller has proved: ``ranks`` maps
        each degree lo..hi, ascending, to a nonnegative int, and
        ``diffs`` each degree lo + 1..hi to a LaurentMatrix over ``ring``
        of shape rank(m - 1) x rank(m); ``base`` is not K.  Only stores
        them, with none of the constructor's checks;
        ``generators._conjugated`` is the one caller."""
        c = object.__new__(cls)
        c.ring = ring
        c.base = base
        c.lo = lo
        c.hi = hi
        c.ranks = ranks
        c.diffs = diffs
        return c

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

    def degrees(self):
        return range(self.lo, self.hi + 1)

    # -- validation ----------------------------------------------------------

    def validate(self):
        """Full d.d = 0 and exponent-constraint report; [] means valid.

        Every entry respects K[x,x^-1], so only the other base rings scan
        the entries' exponents.  d_{m-1}.d_m is formed row by row, as in
        ``ScalarComplex.validate``: a row of d_{m-1} times the rows of d_m
        that it meets, summed with ``lincomb``.  Over Q each row of
        d_{m-1} and all of d_m at once are cleared of denominators
        (``polylists.cleared``) and the products run on ints: scaling the
        rows of the product, or all of it, by a nonzero integer changes no
        entry's vanishing.
        """
        problems = [] if self.base is BaseRing.LAURENT else [
            f"degree {m}: entry ({i},{j}) = {render(self.ring, e)} violates "
            f"{self.base.tag}"
            for m, d in self.diffs.items()
            for i, row in enumerate(d.data)
            for j, e in row.items() if not self.base.admits(e)]
        p = self.ring.p
        for m in range(self.lo + 2, self.hi + 1):
            rows, right = self.diffs[m - 1].data, self.diffs[m].data
            if self.ring.kind == "Q":
                rows = [dict(zip(r, cleared(r.values())[1])) for r in rows]
                entries = iter(cleared(
                    [e for r in right for e in r.values()])[1])
                right = [dict(zip(r, entries)) for r in right]
            for row in rows:
                acc = {}
                for k, e in row.items():
                    for j, f in right[k].items():
                        acc[j] = lincomb(e, f, ONE, acc.get(j), p)
                if any(x is not None for x in acc.values()):
                    problems.append(f"degree {m}: d.d != 0")
                    break
        return problems

    # -- basic operations -----------------------------------------------------

    def __eq__(self, other):
        if not isinstance(other, ChainComplex):
            return NotImplemented
        return (self.ring == other.ring and self.base == other.base
                and self.lo == other.lo and self.hi == other.hi
                and self.ranks == other.ranks and self.diffs == other.diffs)

    def __repr__(self):
        ranks = ", ".join(f"{m}:{self.rank(m)}" for m in self.degrees())
        return (f"ChainComplex({self.ring.tag}, {self.base.tag}, "
                f"ranks {{{ranks}}})")


# -- homology -----------------------------------------------------------------


class HomologyEntry(NamedTuple):
    """Structure of one homology module over the base ring."""

    free_rank: int
    torsion: tuple            # monic nonconstant invariant factors, entries
    kdim: int | None          # dimension over K; None means infinite


_ZERO_ENTRY = HomologyEntry(free_rank=0, torsion=(), kdim=0)  # a tuple: shared


class HomologyReport(NamedTuple):
    entries: dict             # degree -> HomologyEntry

    def entry(self, q: int) -> HomologyEntry:
        return self.entries.get(q, _ZERO_ENTRY)

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
        torsion = tuple(f for f in incoming if len(f[1]) > 1)
        kdim = None if free else sum(len(f[1]) - 1 for f in torsion)
        entries[q] = HomologyEntry(free, torsion, kdim)
    return HomologyReport(entries)


class ScalarComplex(NamedTuple):
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
