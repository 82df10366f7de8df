"""Lifting complexes from the torus to the projective line.

Every construction here solves the one gluing rule of ``sheaves``:
``twist_shift`` is the least (k, l) >= 0 by which the target of a torus
map between twist sums must be twisted for each entry to be legal on
both charts (``chart_shifts``).

extend_complex runs the downward-induction construction: the top level
gets the trivial split (0, 0) and level m the twist_shift of d_{m+1} into
an untwisted C_m, that is k_m = max(0, k_{m+1} + maxdeg d_{m+1}) and
l_m = max(0, l_{m+1} - mindeg d_{m+1}), a zero differential carrying the
twist of degree m + 1.  The result is the input complex with these
twists, so it restricts to the input on the nose.  extend_morphism
twists the target of one torus map by its twist_shift, the minimal
(k, l), and extend_cone the target complex by the largest twist_shift
over the degrees.  Minimality is checked in the tests by brute-force
legality scans.
"""

from __future__ import annotations

from dataclasses import dataclass

from .complexes import ChainComplex, ChainMap, cone, require_valid
from .errors import ShapeError, UnsupportedRingError
from .laurent import BaseRing
from .matrices import LaurentMatrix
from .sheaves import SheafComplex, SheafDiagram, TwistSummand, twist_shift


@dataclass(frozen=True)
class MorphismExtension:
    """A torus map extended to the twisted target sheaf."""

    k: int
    l: int
    f_minus: LaurentMatrix     # the K[x^-1] chart map; entries in K[x^-1]
    f_plus: LaurentMatrix      # the K[x] chart map; entries in K[x]


def extend_morphism(z: SheafDiagram, y: SheafDiagram,
                    f: LaurentMatrix) -> MorphismExtension:
    """Extend f: Z|_T -> Y|_T to a sheaf map into the (k+l)-twist of Y.

    (k, l) is ``twist_shift(f, y.twists, z.twists)``, (0, 0) for f = 0,
    and the chart maps are

        f_minus[i][j] = x^(k_j(z) - k_i(y) - k) f[i][j]   over K[x^-1],
        f_plus[i][j]  = x^(l_i(y) + l - l_j(z)) f[i][j]   over K[x].

    They lie in their rings: the exponents are a - k and b + l for the
    chart exponents (a, b) of f[i][j], and k >= maxdeg f[i][j] + a,
    l >= -(mindeg f[i][j] + b) by the choice of (k, l).  Both chart
    squares commute identically.  Y twisted by (k, l) has the torus maps
    diag(x^(k_i(y) + k)) and diag(x^-(l_i(y) + l)), so

        (mu_minus(Y(k, l)) f_minus)[i][j] = x^(k_j(z)) f[i][j]
                                          = (f mu_minus(Z))[i][j],
        (mu_plus(Y(k, l)) f_plus)[i][j]   = x^(-l_j(z)) f[i][j]
                                          = (f mu_plus(Z))[i][j],

    entry by entry, so no product is formed here; the tests multiply the
    squares out as an oracle.
    """
    if not (z.is_twist_sum and y.is_twist_sum):
        raise UnsupportedRingError(
            "morphism extension is implemented for sums of twists")
    if f.rows != len(y.twists) or f.cols != len(z.twists):
        raise ShapeError(
            f"map has shape {f.rows}x{f.cols}, expected "
            f"{len(y.twists)}x{len(z.twists)}")
    k, l = twist_shift(f, y.twists, z.twists) or (0, 0)
    f_minus = f.monomial_scale([-k - t.k for t in y.twists],
                               [t.k for t in z.twists])
    f_plus = f.monomial_scale([l + t.l for t in y.twists],
                              [-t.l for t in z.twists])
    return MorphismExtension(k, l, f_minus, f_plus)


@dataclass(frozen=True)
class ExtensionResult:
    """A complex on the projective line restricting to the input."""

    sheaf: SheafComplex

    @property
    def profile(self) -> dict:
        """degree -> (k, l): ``SheafComplex.twist_profile`` of the sheaf."""
        return self.sheaf.twist_profile()


def extend_complex(c: ChainComplex) -> ExtensionResult:
    """Extend a bounded free K[x,x^-1]-complex to the projective line."""
    if c.base != BaseRing.LAURENT:
        raise UnsupportedRingError(
            "extension starts from a K[x,x^-1]-complex")
    require_valid(c)
    return extend_valid_complex(c)


_UNTWISTED = TwistSummand(0, 0)


def extend_valid_complex(c: ChainComplex) -> ExtensionResult:
    """``extend_complex`` of a K[x,x^-1]-complex whose d.d = 0 the caller
    has already checked."""
    split = (0, 0)
    twists = {c.hi: (_UNTWISTED,) * c.rank(c.hi)}
    for m in range(c.hi - 1, c.lo - 1, -1):
        split = twist_shift(c.diffs[m + 1], (_UNTWISTED,) * c.rank(m),
                            twists[m + 1]) or split
        twists[m] = (TwistSummand(*split),) * c.rank(m)
    return ExtensionResult(SheafComplex(c, twists))


def restrict_to_torus(s: SheafComplex) -> ChainComplex:
    """The middle complex: a sheaf complex stores its restriction."""
    return s.mid


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
    twists = {m: tuple(t.shifted(big_k, big_l) for t in v2.twists.get(m, ()))
              + v1.twists.get(m - 1, ()) for m in cone_mid.degrees()}
    return SheafComplex(cone_mid, twists)
