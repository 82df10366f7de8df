import json
import random
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from p1dom import fileformat as ff
from p1dom.cli import main
from p1dom.complexes import ChainComplex
from p1dom.errors import FormatError
from p1dom.extension import extend_complex, restrict_to_torus
from p1dom.generators import random_complex, random_novikov_acyclic
from p1dom.laurent import BaseRing, LaurentPoly
from p1dom.scalars import GF, QQ, ZZ

from helpers import add, coeff, from_pairs, random_ring, two_term, zero


def test_complex_round_trip_simple():
    c = two_term(QQ, [(1, 1), (0, -1)])
    data = ff.complex_to_dict(c)
    assert data["format"] == "p1dom-complex"
    assert data["ring"] == "Q"
    assert ff.complex_from_dict(data) == c


def test_complex_round_trip_randomised():
    rng = random.Random(6)
    for _ in range(25):
        ring = random_ring(rng)
        c = random_complex(rng, ring)
        assert ff.complex_from_dict(ff.complex_to_dict(c)) == c


def test_gfp_and_integer_rings_round_trip():
    for ring in (GF(7), ZZ):
        c = two_term(ring, [(2, 3), (-1, -1)])
        back = ff.complex_from_dict(ff.complex_to_dict(c))
        assert back == c and back.ring == ring


def test_sheaf_round_trip():
    rng = random.Random(9)
    for _ in range(10):
        ext = extend_complex(random_complex(rng, random_ring(rng), 3, 3))
        data = ff.sheaf_to_dict(ext.sheaf)
        back = ff.sheaf_from_dict(data)
        assert restrict_to_torus(back) == restrict_to_torus(ext.sheaf)
        assert back.twists == ext.sheaf.twists
        # a sheaf file is the complex file and the twists, at version 2
        assert data.pop("twist_profile") and data.pop("version") == 2
        assert data.pop("format") == ff.SHEAF_FORMAT
        complex_data = ff.complex_to_dict(ext.sheaf.mid)
        del complex_data["format"], complex_data["version"]
        assert data == complex_data



def as_complex_file(data):
    """The complex file a sheaf file ``data`` carries: the complex header
    and no ``twist_profile``."""
    data = dict(data, format=ff.COMPLEX_FORMAT,
                version=ff.VERSIONS[ff.COMPLEX_FORMAT])
    del data["twist_profile"]
    return data


def test_sheaf_loader_reads_its_complex_as_the_complex_loader():
    rng = random.Random(43)
    files = {p.name: json.loads(p.read_text(encoding="utf-8"))
             for p in sorted(ROOT.glob("samples/*.sheaf"))}
    assert {"x-minus-1.sheaf", "x-minus-1-bad-twist.sheaf"} <= set(files)
    for ring in (QQ, GF(7), ZZ):
        for i in range(4):
            files[f"{ring.tag}-{i}"] = ff.sheaf_to_dict(
                extend_complex(random_complex(rng, ring)).sheaf)
    for name, data in files.items():
        mid = ff.complex_from_dict(as_complex_file(data))
        if name == "x-minus-1-bad-twist.sheaf":
            # the complex reads; the twists are too small for it
            with pytest.raises(FormatError, match=r"violates K\[x\^-1\] "
                                                  r"\(at \$\)"):
                ff.sheaf_from_dict(data)
        else:
            assert ff.sheaf_from_dict(data).mid == mid


def test_canonical_bytes_stable():
    c = two_term(GF(5), [(1, 4), (0, 3)])
    a = ff.dumps_canonical(ff.complex_to_dict(c))
    b = ff.dumps_canonical(
        ff.complex_to_dict(ff.complex_from_dict(json.loads(a))))
    assert a == b
    assert a.endswith("\n")
    # exponents appear in ascending order in each serialised polynomial
    data = json.loads(a)
    for entry in data["differentials"]:
        for row in entry["matrix"]:
            for cell in row:
                exps = [p[0] for p in cell]
                assert exps == sorted(exps)


def test_degrees_serialised_ascending():
    c = ChainComplex(QQ, BaseRing.LAURENT, -2, 1, {-2: 1, 0: 2, 1: 1})
    data = ff.complex_to_dict(c)
    degs = [item["degree"] for item in data["degrees"]]
    assert degs == sorted(degs)


def test_format_errors_carry_location():
    with pytest.raises(FormatError) as err:
        ff.complex_from_dict({"format": "nope"})
    assert "format" in str(err.value)

    good = ff.complex_to_dict(two_term(QQ, [(1, 1)]))
    bad = json.loads(json.dumps(good))
    bad["differentials"][0]["matrix"][0][0] = [[0, "1/0"]]
    with pytest.raises(FormatError) as err:
        ff.complex_from_dict(bad)
    assert "matrix[0][0]" in str(err.value)

    bad2 = json.loads(json.dumps(good))
    bad2["degrees"][0]["rank"] = -1
    with pytest.raises(FormatError) as err:
        ff.complex_from_dict(bad2)
    assert "degrees[0]" in str(err.value)


def test_invalid_json_reports_position():
    with pytest.raises(FormatError) as err:
        ff.loads("{not json")
    assert "line 1" in str(err.value)


def test_base_ring_enforced_on_load():
    good = ff.complex_to_dict(two_term(QQ, [(-1, 1)]))
    data = json.loads(json.dumps(good))
    data["base"] = "K[x]"
    with pytest.raises(FormatError):
        ff.complex_from_dict(data)


# -- the canonical writer against the standard library ---------------------

ROOT = Path(__file__).resolve().parents[1]
# any code point, lone surrogates included: both writers escape them
JSON_TEXT = st.text(st.characters(blacklist_categories=()))
JSON_TREES = st.recursive(
    st.none() | st.booleans()
    | st.integers(-2**70, 2**70) | st.integers(-3, 3)
    | st.sampled_from([2**64, -2**64 - 1, 10**30])
    | JSON_TEXT
    | st.sampled_from(['"', "\\", "\x00\x1f\x7f", "é", "\U0001d11e", "\ud800"]),
    lambda inner: (st.lists(inner, max_size=4)
                   | st.dictionaries(JSON_TEXT, inner, max_size=4)),
    max_leaves=40)


def _depth(obj):
    if isinstance(obj, (list, dict)):
        values = obj.values() if isinstance(obj, dict) else obj
        return 1 + max(map(_depth, values), default=0)
    return 0


@settings(deadline=None, max_examples=400)
@given(obj=JSON_TREES.filter(lambda o: _depth(o) <= 6))
def test_dumps_canonical_matches_stdlib_indent_encoder(obj):
    assert ff.dumps_canonical(obj) == json.dumps(
        obj, indent=2, separators=(",", ": ")) + "\n"


@pytest.mark.parametrize("obj, name", [
    (1.5, "float"), ((1, 2), "tuple"), ({1, 2}, "set"), ({1: "x"}, "int"),
    ([{"a": [0.0]}], "float"), ({"a": {(0,): 1}}, "tuple"),
], ids=["float", "tuple", "set", "int-key", "nested-float", "tuple-key"])
def test_dumps_canonical_refuses_other_types(obj, name):
    with pytest.raises(TypeError, match=name):
        ff.dumps_canonical(obj)


JSON_FILES = sorted(
    p for p in [*ROOT.glob("tests/golden/*.out"), *ROOT.glob("samples/*")]
    if p.read_text(encoding="utf-8").startswith("{"))


def test_json_files_found():
    # every sample, and the golden reports and files of the exit-0 runs
    assert len(JSON_FILES) >= 30


@pytest.mark.parametrize("path", JSON_FILES,
                         ids=[p.name for p in JSON_FILES])
def test_json_files_redump_to_their_own_bytes(path):
    text = path.read_text(encoding="utf-8")
    assert ff.dumps_canonical(json.loads(text)) == text


# -- coefficient strings ------------------------------------------------------


@pytest.mark.parametrize("text", [
    "1_0", "+5", " 5 ", "5\n", "\u0663", "\uff15", "1/-2", "1/+2", "", "-",
    "1/", "/2", "1.0", "1e3", "0x10", "--1",
], ids=["underscore", "plus", "spaces", "newline", "arabic-indic",
        "fullwidth", "negative-denominator", "plus-denominator", "empty",
        "sign-only", "no-denominator", "no-numerator", "decimal-point",
        "exponent", "hex", "double-sign"])
def test_non_decimal_coefficient_exits_2(text, tmp_path, capsys):
    data = json.loads((ROOT / "samples/x-minus-1.cplx").read_text())
    data["differentials"][0]["matrix"][0][0][1][1] = text
    path = tmp_path / "bad.cplx"
    path.write_text(json.dumps(data))
    assert main(["validate", str(path)]) == 2
    assert capsys.readouterr().err == (
        f"input error: bad coefficient: cannot parse {text!r} as an element "
        "of Q (at differentials[0].matrix[0][0][1])\n")


@pytest.mark.parametrize("ring, text, value", [
    (QQ, "3/6", Fraction(1, 2)), (QQ, "-0", 0), (QQ, "007", 7),
    (GF(7), "12", 5), (GF(7), "-1", 6), (ZZ, "-12", -12),
])
def test_decimal_coefficients_load(ring, text, value):
    c = ff.complex_from_dict({
        "format": ff.COMPLEX_FORMAT, "version": 1, "ring": ring.tag,
        "degrees": [{"degree": 0, "rank": 1}, {"degree": 1, "rank": 1}],
        "differentials": [{"degree": 1, "matrix": [[[[0, text]]]]}]})
    assert coeff(c.diff(1)[0, 0], 0) == value


def test_fraction_strings_are_refused_outside_q():
    for ring in (GF(7), ZZ):
        with pytest.raises(FormatError, match="cannot parse '1/2'"):
            ff.entry_from_pairs(ring, [[0, "1/2"]], "cell")


def _poly(ring, pairs):
    """The LaurentPoly of the entry the loader reads from ``pairs``."""
    return LaurentPoly.from_entry(ring, ff.entry_from_pairs(ring, pairs,
                                                            "cell"))


@pytest.mark.parametrize("ring, pairs, entry", [
    (GF(7), [[2, "1"], [0, "3"], [0, "4"]], (2, (1,))),
    (GF(7), [[-1, "5"], [3, "2"], [-1, "3"]], (-1, (1, 0, 0, 0, 2))),
    (QQ, [[1, "1/2"], [1, "-1/2"]], None),
    (QQ, [[0, "1/3"], [2, "2"], [0, "1/6"]], (0, (Fraction(1, 2), 0, 2))),
    (ZZ, [[4, "-2"], [-4, "1"]], (-4, (1,) + (0,) * 7 + (-2,))),
])
def test_loader_builds_the_entry_from_the_pairs(ring, pairs, entry):
    # repeated exponents summed (mod p), zero ends trimmed, dense between
    p = _poly(ring, pairs)
    assert p.entry == entry
    assert p == from_pairs(
        ring, [(e, ring.parse(x)) for e, x in pairs])
    if entry is not None:
        assert type(p.entry[1]) is tuple
        assert all(type(x) is type(ring.one()) for _, x in p.items())


def _sums(ring, pairs):
    """The nonzero (exponent, coefficient) sums of ``pairs``, ascending: an
    oracle that builds no entry."""
    acc = {}
    for e, x in pairs:
        acc[e] = add(ring, acc.get(e, zero(ring)), ring.parse(x))
    return [(e, x) for e, x in sorted(acc.items()) if x]


def test_loader_builds_every_cell_of_the_acceptance_corpus():
    # the 100 instances of the acceptance corpus (seed 777), as written
    rng = random.Random(777)
    cells = 0
    for k in range(100):
        ring = QQ if k % 5 == 0 else GF(7)
        c = random_novikov_acyclic(rng, ring)
        data = ff.complex_to_dict(c)
        for item in data["differentials"]:
            d = c.diff(item["degree"])
            for i, row in enumerate(item["matrix"]):
                for j, pairs in enumerate(row):
                    p = _poly(ring, pairs)
                    assert p == from_pairs(
                        ring, [(e, ring.parse(x)) for e, x in pairs])
                    assert p == d[i, j]
                    assert p.items() == _sums(ring, pairs)
                    assert p.entry is None or type(p.entry[1]) is tuple
                    cells += 1
    assert cells > 400


# a 2x3 differential whose cell at row 1, column 2 has a bad pair 1; the
# list item before it is a 3x43 differential, which fills 127 x 8193 of
# the MAX_DENSE_SLOTS = 2^20 in the budget case
BAD_CELLS = {
    "not-a-list": ("1", "polynomial must be an array of pairs", ""),
    "pair-shape": ([[0, "1"], [1, "1", 2]],
                   "expected [exponent, coefficient-string]", "[1]"),
    "bool-exponent": ([[0, "1"], [True, "1"]],
                      "exponent must be an integer, got True", "[1][0]"),
    "exponent-bound": ([[0, "1"], [4097, "1"]],
                       "exponent 4097 exceeds 4096 in absolute value",
                       "[1][0]"),
    "coefficient": ([[0, "1"], [1, "+1"]],
                    "bad coefficient: cannot parse '+1' as an element of Q",
                    "[1]"),
    "dense-slots": ([[-4096, "1"], [4096, "1"]],
                    "the file's polynomials span more than MAX_DENSE_SLOTS "
                    "= 1048576 dense coefficient slots", ""),
}


def _bad_file(fmt, cell, fill):
    """A complex or sheaf file, by ``fmt``, with ``cell`` at
    differentials[1].matrix[1][2]."""
    span = [[-ff.MAX_EXPONENT, "1"], [ff.MAX_EXPONENT, "1"]]
    filler = [[span if fill and 43 * i + j < 127 else [] for j in range(43)]
              for i in range(3)]
    target = [[[] for _ in range(3)] for _ in range(2)]
    target[1][2] = cell
    data = {"format": fmt, "version": ff.VERSIONS[fmt], "ring": "Q",
            "variable": "x", "base": "K[x,x^-1]",
            "degrees": [{"degree": 0, "rank": 2}, {"degree": 1, "rank": 3},
                        {"degree": 2, "rank": 43}],
            "differentials": [{"degree": 2, "matrix": filler},
                              {"degree": 1, "matrix": target}]}
    if fmt == ff.SHEAF_FORMAT:
        data["twist_profile"] = [{"degree": m, "k": 0, "l": 0}
                                 for m in range(3)]
    return data


@pytest.mark.parametrize("fmt", [ff.COMPLEX_FORMAT, ff.SHEAF_FORMAT],
                         ids=["differentials", "sheaf"])
@pytest.mark.parametrize("case", list(BAD_CELLS))
def test_bad_cell_error_names_the_cell(case, fmt):
    cell, message, below = BAD_CELLS[case]
    data = _bad_file(fmt, cell, case == "dense-slots")
    load = (ff.complex_from_dict if fmt == ff.COMPLEX_FORMAT
            else ff.sheaf_from_dict)
    with pytest.raises(FormatError) as err:
        load(data)
    assert str(err.value) == (
        f"{message} (at differentials[1].matrix[1][2]{below})")


@pytest.mark.parametrize("tag", ["GF(1_0007)", "GF(+7)", "GF( 7)",
                                 "GF(\uff17)", " Q", "GF:0_7"])
def test_malformed_ring_tags_are_refused(tag):
    # the modulus is ASCII [0-9]+, as coefficient strings are, and nothing
    # around a tag is stripped
    data = {"format": ff.COMPLEX_FORMAT, "version": 1, "ring": tag,
            "degrees": [{"degree": 0, "rank": 1}]}
    with pytest.raises(FormatError) as err:
        ff.complex_from_dict(data)
    assert str(err.value) == (
        f"bad ring tag: unknown ring tag {tag!r} (at ring)")
    for good in ("GF(7)", "GF:7", "GF(10007)", "Q", "Z"):
        data["ring"] = good
        assert ff.complex_from_dict(data).ring.tag == good.replace(
            "GF:7", "GF(7)")
