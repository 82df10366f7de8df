"""The package's public names, and equality against a foreign object.

``p1dom.__all__`` is pinned as a written list, so a change of the public
API shows as a one-line diff of this file.  A class that defines
``__eq__`` compares unequal to an object of another type: its
``return NotImplemented`` branch hands the comparison to Python, which
falls back to identity.
"""

import pytest

import p1dom
from p1dom.complexes import ChainComplex
from p1dom.domination import SideVerdict
from p1dom.laurent import BaseRing
from p1dom.matrices import LaurentMatrix
from p1dom.scalars import QQ

PUBLIC = [
    "BaseRing", "CechCohomology", "ChainComplex", "CoefficientRing",
    "DominationWitness", "ExtensionResult", "GF", "HomologyReport",
    "LaurentMatrix", "NovikovVerdict", "QQ", "SheafComplex",
    "TheoremReport", "ZZ", "cech_cohomology", "cech_complex",
    "chart_homology", "complexes", "dominate", "domination", "errors",
    "extend_complex", "extension", "homology", "invariant_factors",
    "laurent", "matrices", "novikov_check", "polylists",
    "restrict_to_torus", "ring_from_tag", "scalars", "sheaves", "smith",
    "twisting_sheaf", "verify_theorem",
]


def test_public_names_are_the_written_list():
    assert sorted(p1dom.__all__) == PUBLIC


@pytest.mark.parametrize("value", [
    ChainComplex(QQ, BaseRing.LAURENT, 0, 0),
    LaurentMatrix.zero(QQ, 1, 1),
    SideVerdict("yes", "euler", dict),
], ids=["ChainComplex", "LaurentMatrix", "SideVerdict"])
def test_equality_with_a_foreign_object_is_false(value):
    other = object()
    assert (value == other) is False and (other == value) is False
    assert value != other
