"""The package's public names, and equality against a foreign object.

``p1dom.__all__`` is pinned as a written list, so a change of the public
API shows as a one-line diff of this file.  A class that defines
``__eq__`` compares unequal to an object of another type: its
``return NotImplemented`` branch hands the comparison to Python, which
falls back to identity.  The library's result records are NamedTuples,
whose tuple ``__eq__`` does the same.
"""

import os
import subprocess
import sys
from pathlib import Path

import pytest

import p1dom
from p1dom.complexes import ChainComplex, HomologyEntry, homology
from p1dom.domination import NovikovVerdict, SideVerdict, verify_theorem
from p1dom.extension import extend_complex
from p1dom.laurent import BaseRing
from p1dom.matrices import LaurentMatrix
from p1dom.scalars import GF, QQ
from p1dom.sheaves import cech_cohomology, twisting_sheaf

from helpers import load_complex

ROOT = Path(__file__).resolve().parents[1]

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
    HomologyEntry(0, (), 0),
    NovikovVerdict(SideVerdict("yes", "euler", dict),
                   SideVerdict("yes", "euler", dict)),
    QQ,
], ids=["ChainComplex", "LaurentMatrix", "SideVerdict", "HomologyEntry",
        "NovikovVerdict", "CoefficientRing"])
def test_equality_with_a_foreign_object_is_false(value):
    other = object()
    assert (value == other) is False and (other == value) is False
    assert value != other


def test_records_are_immutable_tuples():
    c = load_complex(ROOT / "samples/x-minus-1.cplx")
    report = verify_theorem(c)
    witness = report.witness
    h = homology(c)
    records = {type(r).__name__: r for r in (
        extend_complex(c), cech_cohomology(twisting_sheaf(1)), h,
        h.entry(0), report.novikov, report.novikov.x_side, witness,
        witness.w, witness.ledger[0], report.checks[0], report, GF(7))}
    assert sorted(records) == [
        "CechCohomology", "CoefficientRing", "DominationWitness",
        "ExtensionResult", "HomologyEntry", "HomologyReport", "LedgerRow",
        "NovikovVerdict", "ScalarComplex", "SideVerdict", "TheoremCheck",
        "TheoremReport"]
    for name, record in records.items():
        assert isinstance(record, tuple), name
        with pytest.raises(AttributeError):
            setattr(record, record._fields[0], None)
        with pytest.raises(AttributeError):  # no __dict__ to take it
            record.note = None
    # a record equals the plain tuple of its fields
    assert HomologyEntry(0, (), 0) == (0, (), 0)
    assert GF(7) == ("GF", 7) and tuple(QQ) == ("Q", 0)


def test_a_side_verdict_renders_its_certificate_once_when_read():
    calls = []
    side = SideVerdict("no", "euler", lambda: calls.append(1) or {"e": 2})
    assert repr(side) == "SideVerdict(acyclic='no', method='euler')"
    assert calls == []
    assert side.certificate is side.certificate == {"e": 2}
    assert side == SideVerdict("no", "euler", lambda: {"e": 2})
    assert calls == [1]


def test_import_loads_no_dataclasses_inspect_ast_or_dis():
    # the records are NamedTuples, so importing the package and its CLI
    # loads neither dataclasses nor what it imports
    code = ("import sys, p1dom, p1dom.cli; print(sorted({'dataclasses', "
            "'inspect', 'ast', 'dis'} & set(sys.modules)))")
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    run = subprocess.run([sys.executable, "-c", code], env=env,
                         capture_output=True, text=True, check=True)
    assert run.stdout == "[]\n"
