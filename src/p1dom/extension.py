"""Lifting complexes from the torus to the projective line.

extend_complex runs the downward-induction construction: the top level gets
the trivial split (0, 0) and each step below takes

    k_m = max(0, k_{m+1} + maxdeg d_{m+1}),
    l_m = max(0, l_{m+1} - mindeg d_{m+1}),

zero differentials contributing nothing.  The chart differentials are then
the monomial conjugates x^{l_{m-1} - l_m} d_m (legal over K[x]) and
x^{k_m - k_{m-1}} d_m (legal over K[x^-1]), and the restriction to the
torus is the input complex on the nose.

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

from .complexes import ChainComplex, ChainMap, cone
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
    ext = MorphismExtension(k, l, *_chart_maps(z, y, f, k, l))
    _check_extension_squares(z, y, f, ext)
    return ext


def _chart_maps(z, y, f, k, l):
    """f as maps of the chart modules of z into those of y twisted by
    (k, l): (over K[x^-1], over K[x])."""
    f_minus = f.monomial_row_scale([-k - t.k for t in y.twists]) \
               .monomial_col_scale([t.k for t in z.twists]) \
               .with_base(BaseRing.POLY_INV)
    f_plus = f.monomial_row_scale([l + t.l for t in y.twists]) \
              .monomial_col_scale([-t.l for t in z.twists]) \
              .with_base(BaseRing.POLY)
    return f_minus, f_plus


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
    problems = c.validate()
    if problems:
        raise ShapeError("invalid complex: " + "; ".join(problems))
    ring = c.ring
    profile = {}
    k, l = 0, 0
    profile[c.hi] = (0, 0)
    for m in range(c.hi - 1, c.lo - 1, -1):
        d = c.diff(m + 1)
        hi_deg = d.global_maxdeg()
        lo_deg = d.global_mindeg()
        if hi_deg is None:
            k, l = max(0, k), max(0, l)
        else:
            k = max(0, k + hi_deg)
            l = max(0, l - lo_deg)
        profile[m] = (k, l)
    minus_diffs = {}
    plus_diffs = {}
    for m in range(c.lo + 1, c.hi + 1):
        km, lm = profile[m]
        km1, lm1 = profile[m - 1]
        d = c.diff(m)
        plus_diffs[m] = d.times_monomial(lm1 - lm).with_base(BaseRing.POLY)
        minus_diffs[m] = d.times_monomial(km - km1).with_base(
            BaseRing.POLY_INV)
    ranks = dict(c.ranks)
    minus = ChainComplex(ring, BaseRing.POLY_INV, c.lo, c.hi, ranks,
                         minus_diffs)
    plus = ChainComplex(ring, BaseRing.POLY, c.lo, c.hi, ranks, plus_diffs)
    twists = {m: (TwistSummand(*profile[m]),) * c.rank(m)
              for m in c.degrees()}
    sheaf = SheafComplex(minus, c, plus, twists)
    # c was validated above; check the charts and the gluing only
    problems = [f"{name}: {p}" for name, chart in (("minus", minus),
                                                   ("plus", plus))
                for p in chart.validate()]
    problems += sheaf._gluing_problems()
    if problems:
        raise ShapeError("extension failed validation: " + "; ".join(problems))
    return ExtensionResult(sheaf, profile)


def restrict_to_torus(s: SheafComplex) -> ChainComplex:
    """The middle complex with all twist bookkeeping resolved."""
    return ChainComplex(s.mid.ring, BaseRing.LAURENT, s.mid.lo, s.mid.hi,
                        dict(s.mid.ranks), dict(s.mid.diffs))


def extend_cone(v1: SheafComplex, v2: SheafComplex,
                omega: ChainMap) -> SheafComplex:
    """Lift the mapping cone of a torus map between two extensions.

    The target is replaced by a uniform twist large enough for every level
    of omega to extend; the lifted maps are re-checked to commute with the
    chart differentials rather than trusted, and the levelwise cone of the
    lifted map restricts to cone(omega) on the torus.
    """
    if omega.source != v1.mid or omega.target != v2.mid:
        raise ShapeError("omega must map v1|_T to v2|_T")
    if omega.validate():
        raise ShapeError("omega is not a chain map")
    lo = min(v1.mid.lo, v2.mid.lo)
    hi = max(v1.mid.hi, v2.mid.hi)
    levels = {m: (v1.level(m), v2.level(m)) for m in range(lo, hi + 1)}
    big_k = 0
    big_l = 0
    for m, (z, y) in levels.items():
        ext = extend_morphism(z, y, omega.component(m))
        big_k = max(big_k, ext.k)
        big_l = max(big_l, ext.l)
    v2t = v2.twist(big_k + big_l, big_k)
    omega_plus = {}
    omega_minus = {}
    for m, (z, y) in levels.items():
        omega_minus[m], omega_plus[m] = _chart_maps(
            z, y, omega.component(m), big_k, big_l)
    plus_map = ChainMap(v1.plus, v2t.plus, omega_plus)
    minus_map = ChainMap(v1.minus, v2t.minus, omega_minus)
    if plus_map.validate() or minus_map.validate():
        raise ShapeError("lifted maps fail to commute with the differentials")
    cone_mid, _, _ = cone(omega)
    cone_plus, _, _ = cone(plus_map)
    cone_minus, _, _ = cone(minus_map)
    twists = {m: v2t.twists.get(m, ()) + v1.twists.get(m - 1, ())
              for m in cone_mid.degrees()}
    result = SheafComplex(cone_minus, cone_mid, cone_plus, twists)
    problems = result.validate()
    if problems:
        raise ShapeError("cone extension failed validation: "
                         + "; ".join(problems))
    return result
