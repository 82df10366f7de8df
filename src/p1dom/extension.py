"""Lifting complexes from the torus to the projective line.

extend_complex runs the downward-induction construction: the top level gets
the trivial split (0, 0) and each step below takes

    k_m = max(0, k_{m+1} + maxdeg d_{m+1}),
    l_m = max(0, l_{m+1} - mindeg d_{m+1}),

zero differentials contributing nothing.  The result is the input complex
with these twists: its chart differentials, the monomial conjugates
x^{l_{m-1} - l_m} d_m over K[x] and x^{k_m - k_{m-1}} d_m over K[x^-1],
are legal because maxdeg d_m <= k_{m-1} - k_m and mindeg d_m >=
l_m - l_{m-1}, they are built only when a caller reads them, and the
restriction to the torus is the input complex on the nose.

extend_morphism solves the one-level problem: the minimal (k, l) making a
torus map legal on both charts after twisting the target.  With source
splits (kZ_j, lZ_j) and target splits (kY_i, lY_i) the sharp bounds are

    l >= lZ_j - lY_i - mindeg f_ij,   k >= kZ_j - kY_i + maxdeg f_ij

over the nonzero entries; for uniform splits these reduce to the global
mindeg/maxdeg formulas.  Minimality is validated elsewhere by brute-force
legality scans.
"""

from __future__ import annotations

from dataclasses import dataclass

from .complexes import ChainComplex, ChainMap, cone, require_valid
from .errors import ShapeError, UnsupportedRingError
from .laurent import BaseRing
from .matrices import LaurentMatrix
from .sheaves import SheafComplex, SheafDiagram, TwistSummand


@dataclass(frozen=True)
class MorphismExtension:
    """A torus map extended to the twisted target sheaf."""

    k: int
    l: int
    f_minus: LaurentMatrix     # over K[x^-1]
    f_plus: LaurentMatrix      # over K[x]


def extend_morphism(z: SheafDiagram, y: SheafDiagram,
                    f: LaurentMatrix) -> MorphismExtension:
    """Extend f: Z|_T -> Y|_T to a sheaf map into the (k+l)-twist of Y."""
    if not (z.is_twist_sum and y.is_twist_sum):
        raise UnsupportedRingError(
            "morphism extension is implemented for sums of twists")
    if f.rows != y.mid_rank or f.cols != z.mid_rank:
        raise ShapeError(
            f"map has shape {f.rows}x{f.cols}, expected "
            f"{y.mid_rank}x{z.mid_rank}")
    # target structure maps are injective automatically: twist structure
    # maps are nonzero monomial multiples of the identity
    k = 0
    l = 0
    for i, j, p in f.nonzero_entries():
        zt = z.twists[j]
        yt = y.twists[i]
        l = max(l, zt.l - yt.l - p.mindeg)
        k = max(k, zt.k - yt.k + p.maxdeg)
    # f as maps of the chart modules of z into those of y twisted by (k, l)
    f_minus = f.monomial_scale([-k - t.k for t in y.twists],
                               [t.k for t in z.twists]).with_base(
                                   BaseRing.POLY_INV)
    f_plus = f.monomial_scale([l + t.l for t in y.twists],
                              [-t.l for t in z.twists]).with_base(
                                  BaseRing.POLY)
    ext = MorphismExtension(k, l, f_minus, f_plus)
    _check_extension_squares(z, y, f, ext)
    return ext


def _check_extension_squares(z, y, f, ext):
    """Exact commutativity of both chart squares; raises on failure."""
    y_tw = y.twist(ext.k + ext.l, ext.k)
    lhs = y_tw.mu_plus_torus() @ ext.f_plus
    rhs = f @ z.mu_plus_torus()
    if lhs != rhs:
        raise ShapeError("plus chart square does not commute")
    lhs = y_tw.mu_minus_torus() @ ext.f_minus
    rhs = f @ z.mu_minus_torus()
    if lhs != rhs:
        raise ShapeError("minus chart square does not commute")


@dataclass(frozen=True)
class ExtensionResult:
    """A complex on the projective line restricting to the input."""

    sheaf: SheafComplex
    profile: dict              # degree -> (k, l)

    @property
    def twists(self) -> dict:
        return {m: k + l for m, (k, l) in self.profile.items()}


def extend_complex(c: ChainComplex) -> ExtensionResult:
    """Extend a bounded free K[x,x^-1]-complex to the projective line."""
    if c.base != BaseRing.LAURENT:
        raise UnsupportedRingError(
            "extension starts from a K[x,x^-1]-complex")
    require_valid(c)
    return extend_valid_complex(c)


def extend_valid_complex(c: ChainComplex) -> ExtensionResult:
    """``extend_complex`` of a K[x,x^-1]-complex whose d.d = 0 the caller
    has already checked."""
    profile = {}
    k, l = 0, 0
    profile[c.hi] = (0, 0)
    for m in range(c.hi - 1, c.lo - 1, -1):
        span = _degree_span(c.diffs[m + 1])
        if span is None:
            k, l = max(0, k), max(0, l)
        else:
            k = max(0, k + span[1])
            l = max(0, l - span[0])
        profile[m] = (k, l)
    twists = {m: (TwistSummand(*profile[m]),) * r
              for m, r in c.ranks.items()}
    return ExtensionResult(SheafComplex(c, twists), profile)


def _degree_span(d: LaurentMatrix):
    """(mindeg, maxdeg) over the nonzero entries of d in one pass; None
    for the zero matrix."""
    lo = hi = None
    for row in d.entries:
        for p in row:
            if p.entry is not None:
                v, cs = p.entry
                top = v + len(cs) - 1
                if lo is None:
                    lo, hi = v, top
                else:
                    if v < lo:
                        lo = v
                    if top > hi:
                        hi = top
    return None if lo is None else (lo, hi)


def restrict_to_torus(s: SheafComplex) -> ChainComplex:
    """The middle complex with all twist bookkeeping resolved."""
    return ChainComplex(s.mid.ring, BaseRing.LAURENT, s.mid.lo, s.mid.hi,
                        dict(s.mid.ranks), dict(s.mid.diffs))


def extend_cone(v1: SheafComplex, v2: SheafComplex,
                omega: ChainMap) -> SheafComplex:
    """Lift the mapping cone of a torus map between two extensions.

    The target is replaced by a uniform twist of v2 large enough for every
    level of omega to extend.  The cone of omega, with the twists of that
    target on the v2 summands and those of v1 on the shifted ones, is then
    legal (the SheafComplex constructor checks it): the omega blocks meet
    the bounds of extend_morphism, and the other blocks are the
    differentials of v1 and of the twisted v2.  omega is checked to be a
    chain map, so the cone of the two complexes is a complex, and it
    restricts to cone(omega) on the torus.
    """
    if omega.source != v1.mid or omega.target != v2.mid:
        raise ShapeError("omega must map v1|_T to v2|_T")
    if omega.validate():
        raise ShapeError("omega is not a chain map")
    big_k = 0
    big_l = 0
    for m in range(min(v1.mid.lo, v2.mid.lo), max(v1.mid.hi, v2.mid.hi) + 1):
        ext = extend_morphism(v1.level(m), v2.level(m), omega.component(m))
        big_k = max(big_k, ext.k)
        big_l = max(big_l, ext.l)
    v2t = v2.twist(big_k + big_l, big_k)
    cone_mid, _, _ = cone(omega)
    twists = {m: v2t.twists.get(m, ()) + v1.twists.get(m - 1, ())
              for m in cone_mid.degrees()}
    return SheafComplex(cone_mid, twists)
