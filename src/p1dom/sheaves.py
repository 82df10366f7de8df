"""Sheaves on the projective line as sums of twisting sheaves.

A level of a sheaf is a tuple of (k, l) int pairs: summand i with the
split (k, l) is the twisting sheaf O(k + l), whose torus maps from the
K[x^-1] and K[x] charts are x^k and x^-l.  By Birkhoff-Grothendieck
(Grothendieck 1957) every vector bundle on P^1 is such a sum up to
isomorphism, so no other level is represented.

A sheaf complex is its torus complex and its twists: level m is the sum
of the twisting sheaves listed in ``twists[m]``, whose torus maps are the
units diag(x^k) and diag(x^-l), so a level is valid by construction.  The
gluing squares then force the two chart complexes, the monomial
conjugates of the middle one; the constructor checks by integer
comparisons that they lie in K[x^-1] and K[x].  No chart complex is
stored or built: ``chart_exponents`` gives the exponents the chart
valuations of the witness read.

The gluing rule for a torus map between two twist sums is written once:
``chart_shifts`` gives each entry of its rows its two chart exponents, and
``twist_shift`` the least twist of the target that makes every entry
legal.  The extension of complexes (``extension``) solves the rule, as
do the tests' lifts of morphisms and cones.  The public SheafComplex
constructor checks it, and so does the file loader, which reads the
middle complex with the complex-file reader and builds through that
constructor; like the complex loader it checks no d.d = 0, which
``require_valid(s.mid)`` checks.  The extension of a complex chooses
its twists by ``twist_shift`` and so is legal by construction (the proof
is in ``extend_valid_complex``): it stores its sheaf through
``SheafComplex._legal``, which makes no scan.

Global sections and first cohomology of a sum of twists are banded monomial
spaces: for a summand of twist n = k + l the section basis is
x^-l, ..., x^k (when n >= 0) and the obstruction basis is
x^{k+1}, ..., x^{-l-1} (when n <= -2).  ``cech_complex`` counts the
ranks of W from the twists, refuses one above MAX_RANK before it builds
a row, and fills W's rows straight from the entries of each
differential's rows.
"""

from __future__ import annotations

from dataclasses import dataclass

from .complexes import ChainComplex, ScalarComplex, check_rank
from .errors import (BaseRingViolationError, NonVanishingH1Error,
                     ShapeError, UnsupportedRingError)
from .laurent import BaseRing, render
from .matrices import LaurentMatrix, ScalarMatrix


def chart_shifts(d: LaurentMatrix, target, source):
    """(i, j, e, a, b) for each entry e = d[i][j] of the rows of a torus map
    d from the twist sum ``source`` to the twist sum ``target`` (sequences
    of (k, l) splits): its chart entries are x^a e over K[x^-1] and x^b e
    over K[x], with the chart exponents

        a = k_j(source) - k_i(target),   b = l_i(target) - l_j(source),

    so e is legal over K[x^-1] iff maxdeg e + a <= 0 and over K[x] iff
    mindeg e + b >= 0.  This is the one gluing rule of the package."""
    for i, (row, (k, l)) in enumerate(zip(d.data, target)):
        for j, e in row.items():
            sk, sl = source[j]
            yield i, j, e, sk - k, l - sl


def twist_shift(d: LaurentMatrix, target, source):
    """The least (k, l) >= (0, 0) such that d is legal on both charts once
    every summand of ``target`` is shifted by (k, l), which lowers each a
    of ``chart_shifts`` by k and raises each b by l: k is the largest
    maxdeg e + a and l the largest -(mindeg e + b), each at least 0.
    None for the zero map, which any (k, l) makes legal."""
    k = l = 0
    zero = True
    for _, _, (v, c), a, b in chart_shifts(d, target, source):
        zero = False
        if v + len(c) - 1 + a > k:
            k = v + len(c) - 1 + a
        if -v - b > l:
            l = -v - b
    return None if zero else (k, l)


def twisting_sheaf(n: int, k: int = 0, rank: int = 1) -> tuple:
    """r copies of the nth twisting sheaf with the split (k, l = n - k)."""
    return ((k, n - k),) * rank


# -- cohomology of a single level -----------------------------------------------


@dataclass(frozen=True)
class CechCohomology:
    """H0 and H1 of one level: dimensions and monomial bases, each basis
    a tuple of pairs (summand index, exponent)."""

    h0_dim: int
    h1_dim: int
    h0_basis: tuple
    h1_basis: tuple


def cech_cohomology(twists) -> CechCohomology:
    """H0 and H1 of the sum of the twisting sheaves ``twists`` (a sequence
    of (k, l) splits).

    A summand of split (k, l) has the torus maps x^k and x^-l, so its
    sections x^k K[x^-1] meet x^-l K[x] in the Laurent polynomials with
    exponents in [-l, k], and its first cohomology, the cokernel of
    x^k K[x^-1] + x^-l K[x] in K[x,x^-1], is spanned by the monomials x^e
    with k < e < -l.
    """
    h0 = []
    h1 = []
    for i, (k, l) in enumerate(twists):
        # the first range is empty unless n >= 0, the second unless
        # n <= -2
        h0.extend((i, e) for e in range(-l, k + 1))
        h1.extend((i, e) for e in range(k + 1, -l))
    return CechCohomology(len(h0), len(h1), tuple(h0), tuple(h1))


# -- complexes of sheaves ---------------------------------------------------------


class SheafComplex:
    """A bounded free K[x,x^-1]-complex with a twist split per generator.

    ``twists`` maps a degree m to the split (k, l) of each generator of
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
    ring (minus before plus); it is the check for the loader and any
    other caller, the tests' lifted mapping cone among them.  The
    extension of a complex is legal by the choice of its twists and is
    stored by ``_legal`` without this scan.  No chart is stored: a chart
    is the middle complex conjugated by the diagonal units diag(x^k),
    diag(x^-l), so it has d.d = 0 exactly when ``mid`` has, and the
    squares commute by construction: ``mid.validate()`` checks all three.
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
            for i, j, (v, c), a, b in chart_shifts(d, self.twists[m - 1],
                                                   self.twists[m]):
                if v + len(c) - 1 + a > 0:
                    side, base, shift = "minus", BaseRing.POLY_INV, a
                elif v + b < 0:
                    side, base, shift = "plus", BaseRing.POLY, b
                else:
                    continue
                raise BaseRingViolationError(
                    f"degree {m}: {side} chart entry ({i},{j}) = "
                    f"{render(mid.ring, (v + shift, c))} violates "
                    f"{base.tag}")

    @classmethod
    def _legal(cls, mid: ChainComplex, twists: dict) -> "SheafComplex":
        """A sheaf complex whose twists the caller has proved legal: a
        tuple of ``mid.rank(m)`` summands for each degree m of the
        support, in ascending order, each entry inside its chart rings.
        Only stores them; ``extend_valid_complex`` is the one caller."""
        s = object.__new__(cls)
        s.mid = mid
        s.twists = twists
        return s

    def chart_exponents(self, side: str) -> dict:
        """degree m -> the exponents a of the torus maps x^a of the
        summands of level m: a = k on the minus side, -l on the plus
        side."""
        return {m: [k if side == "minus" else -l for k, l in ts]
                for m, ts in self.twists.items()}

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
            splits = set(self.twists[m])
            if len(splits) > 1:
                raise ShapeError(f"level {m} mixes twist splits")
            split = profile[m] = splits.pop() if splits else split
        return profile


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

    Every rank of W is counted before any row is built, and a rank above
    MAX_RANK is a FormatError naming the degree of W (``check_rank``):
    files and reports write W densely.
    """
    ring = s.ring
    # the band of summand i in degree m has rows offsets[m][i] + e for
    # its exponents e in [-l_i, k_i]
    offsets, ranks = {}, {}
    for m, twists in s.twists.items():
        offsets[m], ranks[m] = [], 0
        for i, (k, l) in enumerate(twists):
            if k + l <= -2:
                raise NonVanishingH1Error(
                    f"level {m} summand {i} has twist {k + l} <= -2")
            offsets[m].append(ranks[m] + l)
            ranks[m] += k + l + 1
        check_rank(ranks[m], f"W degree {m}")
    diffs = {}
    for m, d in s.mid.diffs.items():
        rows = [{} for _ in range(ranks[m - 1])]
        # the columns of d as (row of the target band at x^0 plus the
        # entry's valuation, coefficients) over their nonzero entries
        columns = [[] for _ in range(d.cols)]
        for off, row in zip(offsets[m - 1], d.data):
            for j, (v, c) in row.items():
                columns[j].append((off + v, c))
        col = 0
        for column, (k, l) in zip(columns, s.twists[m]):
            if not column:  # writes no cell: skip its band of k + l + 1
                col += k + l + 1
                continue
            for e in range(-l, k + 1):
                # distinct (row, exponent) pairs hit distinct target
                # monomials, so every cell is written once
                for start, c in column:
                    for r, x in enumerate(c, start + e):
                        if x:
                            rows[r][col] = x
                col += 1
        # col ran up through 0..ranks[m] - 1, so no key scan is needed
        diffs[m] = ScalarMatrix._stored(ring, len(rows), ranks[m], rows)
    return ScalarComplex(ring, s.mid.lo, s.mid.hi, ranks, diffs)
