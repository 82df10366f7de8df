"""Exact homological algebra on the projective line.

Bounded complexes of free modules over K[x,x^-1] extend constructively to
complexes of twisted sums on the projective line; their global sections
give a finite complex over K, and Novikov acyclicity (decided exactly over
a field by the ranks of the differentials over K(x), the Smith form only
rendering the certificate; over Z by a sound unit-pivot search on
truncated Laurent series, kept as coefficient-list windows) makes that
complex a finite domination witness, audited degree by degree against the
exact homology of the two charts over the power-series rings.
"""

from .complexes import (ChainComplex, ChainMap, Homotopy, HomologyReport,
                        cone, homology, is_acyclic, is_quasi_iso,
                        verify_homotopy_retract)
from .diagrams import (ComplexDiagram, DiagramMap, hypercohomology, iota,
                       phi_star, ses_check)
from .domination import (DominationWitness, FpqcModel, NovikovVerdict,
                         TheoremReport, dominate, fpqc_hyper, novikov_check,
                         verify_theorem)
from .extension import (ExtensionResult, MorphismExtension, extend_complex,
                        extend_cone, extend_morphism, restrict_to_torus)
from .laurent import BaseRing, LaurentPoly
from .matrices import LaurentMatrix
from .scalars import GF, QQ, ZZ, CoefficientRing, ring_from_tag
from .sheaves import (CechCohomology, SheafComplex, SheafDiagram,
                      TwistSummand, cech_cohomology, cech_complex,
                      sheaf_hyper_homology_dims, torus_diagram,
                      twisting_sheaf)
from .smith import invariant_factors, kernel_basis, kernel_coordinates

__version__ = "0.1.0"

__all__ = [name for name in dir() if not name.startswith("_")]
