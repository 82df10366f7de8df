"""Lifting complexes from the torus to the projective line.

The construction solves the one gluing rule of ``sheaves``:
``twist_shift`` is the least (k, l) >= 0 by which the target of a torus
map between twist sums must be twisted for each entry to be legal on
both charts (``chart_shifts``).

extend_complex runs the downward-induction construction: the top level
gets the trivial split (0, 0) and level m the twist_shift of d_{m+1} into
an untwisted C_m, that is k_m = max(0, k_{m+1} + maxdeg d_{m+1}) and
l_m = max(0, l_{m+1} - mindeg d_{m+1}), a zero differential carrying the
twist of degree m + 1.  Level m stores its split as rank(m) copies of
the (k, l) pair.  The result is the input complex with these twists, so
it restricts to the input on the nose.  The twists are legal
by their choice, and the sheaf is stored without the constructor's
legality scan (the proof is in ``extend_valid_complex``).  Minimality is
checked in the tests by brute-force legality scans.  The paper's other
lifts, of a morphism and of a mapping cone, are test oracles
(``tests/paper_lemmas.py``): the witness pipeline extends complexes only.
"""

from __future__ import annotations

from typing import NamedTuple

from .complexes import ChainComplex, require_valid
from .errors import UnsupportedRingError
from .laurent import BaseRing
from .sheaves import SheafComplex, twist_shift


class ExtensionResult(NamedTuple):
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


_UNTWISTED = (0, 0)


def extend_valid_complex(c: ChainComplex) -> ExtensionResult:
    """``extend_complex`` of a K[x,x^-1]-complex whose d.d = 0 the caller
    has already checked.

    The twists are legal by construction, so the sheaf is stored by
    ``SheafComplex._legal`` without the constructor's scan of the gluing
    rule.  Level m gets the split (k, l) = twist_shift(d_{m+1},
    untwisted, twists[m+1]) when d_{m+1} is nonzero.  An entry p of
    d_{m+1} with chart exponents (a, b) against the untwisted level has
    the exponents (a - k, b + l) against level m twisted by (k, l), and
    k >= maxdeg p + a, l >= -(mindeg p + b) by the choice of (k, l), so

        maxdeg p + (a - k) <= 0,   mindeg p + (b + l) >= 0:

    x^(a - k) p lies in K[x^-1] and x^(b + l) p in K[x].  A zero
    differential has no entries, so the split it carries down from the
    level above is legal for it.  Every degree of the support gets
    ``rank(m)`` summands, in ascending order of degree as the
    constructor stores them; the tests keep the scan as an oracle."""
    split = (0, 0)
    twists = {c.hi: (_UNTWISTED,) * c.rank(c.hi)}
    for m in range(c.hi - 1, c.lo - 1, -1):
        split = twist_shift(c.diffs[m + 1], (_UNTWISTED,) * c.rank(m),
                            twists[m + 1]) or split
        twists[m] = (split,) * c.rank(m)
    return ExtensionResult(SheafComplex._legal(c, dict(reversed(
        twists.items()))))


def restrict_to_torus(s: SheafComplex) -> ChainComplex:
    """The middle complex: a sheaf complex stores its restriction."""
    return s.mid
