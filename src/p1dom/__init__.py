"""Exact homological algebra on the projective line.

Bounded complexes of free modules over K[x,x^-1] extend constructively to
complexes of twisted sums on the projective line; their global sections
give a finite complex over K, and Novikov acyclicity (decided exactly over
a field by the ranks of the differentials over K(x), the Smith form only
rendering the certificate; over Z exactly for a square two-term complex by
the end coefficients of its determinant, otherwise by a sound unit-pivot
contraction, both read off the same chart elimination that counts the
ranks) makes that complex a finite domination witness, audited degree
by degree against the exact homology of the two charts over the
power-series rings K[[x]] and K[[x^-1]], K a field (``chart_homology``).
The package is that pipeline: the paper's lemmas on diagrams, chain maps
and mapping cones are checked by the test suite, not computed here.  A
Laurent polynomial is its ``polylists`` entry throughout, in a matrix
cell, an invariant factor and a determinant alike; ``laurent.render``
prints one.
"""

from .complexes import ChainComplex, HomologyReport, homology
from .domination import (DominationWitness, NovikovVerdict, TheoremReport,
                         chart_homology, dominate, novikov_check,
                         verify_theorem)
from .extension import ExtensionResult, extend_complex, restrict_to_torus
from .laurent import BaseRing
from .matrices import LaurentMatrix
from .scalars import GF, QQ, ZZ, CoefficientRing, ring_from_tag
from .sheaves import (CechCohomology, SheafComplex, cech_cohomology,
                      cech_complex, twisting_sheaf)
from .smith import invariant_factors

__version__ = "0.1.0"

__all__ = [name for name in dir() if not name.startswith("_")]
