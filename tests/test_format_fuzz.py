"""Fuzz of the file-format loaders: nothing but FormatError comes out.

Arbitrary text goes through ``loads``; JSON-shaped values (objects built
around the real keys, with values of any JSON type) go through the complex
and sheaf loaders.  A malformed file must exit 2 with a message, never
with a traceback.
"""

import json
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from p1dom import fileformat as ff
from p1dom.cli import main
from p1dom.errors import FormatError

from p1dom.extension import extend_complex
from p1dom.scalars import QQ

from helpers import two_term

KEYS = ["format", "version", "ring", "variable", "base", "degrees",
        "differentials", "twist_profile", "degree", "rank", "matrix", "k",
        "l"]
STRINGS = st.sampled_from([
    ff.COMPLEX_FORMAT, ff.SHEAF_FORMAT, "Q", "Z", "GF:7", "GF:8", "x", "y",
    "K", "K[x]", "K[x^-1]", "K[x,x^-1]", "1", "-1/2", "1/0", "a", ""])
SCALARS = (st.none() | st.booleans() | st.integers(-3, 3)
           | st.integers() | st.floats(allow_nan=True) | STRINGS | st.text())
JSON = st.recursive(
    SCALARS,
    lambda inner: (st.lists(inner, max_size=4)
                   | st.dictionaries(st.sampled_from(KEYS) | st.text(),
                                     inner, max_size=5)),
    max_leaves=30)
LOADERS = [ff.complex_from_dict, ff.sheaf_from_dict]


def _only_format_errors(loader, data):
    try:
        loader(data)
    except FormatError:
        pass


@settings(deadline=None, max_examples=300)
@given(text=st.text())
def test_loads_raises_only_format_errors(text):
    try:
        data = ff.loads(text)
    except FormatError:
        return
    for loader in LOADERS:
        _only_format_errors(loader, data)


@settings(deadline=None, max_examples=400)
@given(data=JSON, loader=st.sampled_from(LOADERS))
def test_json_values_raise_only_format_errors(data, loader):
    _only_format_errors(loader, data)


@st.composite
def mutated(draw, base):
    """A valid file with one value, at any depth, replaced."""
    data = json.loads(json.dumps(base))
    node = data
    while True:
        if isinstance(node, dict) and node:
            key = draw(st.sampled_from(sorted(node)))
        elif isinstance(node, list) and node:
            key = draw(st.integers(0, len(node) - 1))
        else:
            break
        if not isinstance(node[key], (dict, list)) or draw(st.booleans()):
            node[key] = draw(JSON)
            break
        node = node[key]
    return data


COMPLEX = ff.complex_to_dict(two_term(QQ, [(0, -1), (1, 1)]))
SHEAF = ff.sheaf_to_dict(extend_complex(two_term(QQ, [(0, -1), (1, 1)])).sheaf)


@settings(deadline=None, max_examples=400)
@given(data=mutated(COMPLEX))
def test_mutated_complex_files_raise_only_format_errors(data):
    _only_format_errors(ff.complex_from_dict, data)


@settings(deadline=None, max_examples=400)
@given(data=mutated(SHEAF))
def test_mutated_sheaf_files_raise_only_format_errors(data):
    _only_format_errors(ff.sheaf_from_dict, data)


@pytest.mark.parametrize("text", [
    "[" * 100000 + "]" * 100000,
    '{"format": "p1dom-complex", "version": ' + "9" * 5000 + "}",
], ids=["deep-nesting", "long-integer"])
def test_json_past_python_limits_exits_2(text, tmp_path, capsys):
    with pytest.raises(FormatError, match="invalid JSON"):
        ff.loads(text)
    path = tmp_path / "bad.cplx"
    path.write_text(text)
    assert main(["validate", str(path)]) == 2
    assert capsys.readouterr().err.startswith("input error: invalid JSON")


INTEGER_FIELDS = [
    (COMPLEX, ff.complex_from_dict, ("version",), "version"),
    (COMPLEX, ff.complex_from_dict, ("degrees", 0, "degree"),
     "degrees[0].degree"),
    (COMPLEX, ff.complex_from_dict, ("degrees", 1, "rank"), "degrees[1].rank"),
    (COMPLEX, ff.complex_from_dict, ("differentials", 0, "degree"),
     "differentials[0].degree"),
    (COMPLEX, ff.complex_from_dict,
     ("differentials", 0, "matrix", 0, 0, 1, 0),
     "differentials[0].matrix[0][0][1][0]"),
    (SHEAF, ff.sheaf_from_dict, ("version",), "version"),
    (SHEAF, ff.sheaf_from_dict, ("degrees", 0, "rank"), "degrees[0].rank"),
    # the complex case reads pair 1 of the same cell: ids stay distinct
    (SHEAF, ff.sheaf_from_dict,
     ("differentials", 0, "matrix", 0, 0, 0, 0),
     "differentials[0].matrix[0][0][0][0]"),
    (SHEAF, ff.sheaf_from_dict, ("twist_profile", 0, "degree"),
     "twist_profile[0].degree"),
    (SHEAF, ff.sheaf_from_dict, ("twist_profile", 0, "k"),
     "twist_profile[0].k"),
    (SHEAF, ff.sheaf_from_dict, ("twist_profile", 1, "l"),
     "twist_profile[1].l"),
]


@pytest.mark.parametrize("value", [True, False])
@pytest.mark.parametrize("base, loader, path, where", INTEGER_FIELDS,
                         ids=[w for _, _, _, w in INTEGER_FIELDS])
def test_boolean_in_integer_field_is_format_error(base, loader, path, where,
                                                  value):
    data = json.loads(json.dumps(base))
    node = data
    for key in path[:-1]:
        node = node[key]
    node[path[-1]] = value
    with pytest.raises(FormatError, match="must be an integer") as err:
        loader(data)
    assert str(err.value).endswith(f"(at {where})")


def test_boolean_version_and_ranks_do_not_load_as_sample(tmp_path, capsys):
    # true == 1 in Python: without a type check this file loads as
    # samples/x-minus-1.cplx itself
    sample = Path(__file__).resolve().parents[1] / "samples/x-minus-1.cplx"
    data = json.loads(sample.read_text(encoding="utf-8"))
    data["version"] = True
    for item in data["degrees"]:
        item["rank"] = True
    path = tmp_path / "bool.cplx"
    path.write_text(json.dumps(data))
    assert main(["validate", str(path)]) == 2
    assert "version must be an integer" in capsys.readouterr().err


@pytest.mark.parametrize("entry, message", [
    ({"degree": 0, "k": 1, "l": 0}, "duplicate degree"),
    ({"degree": -40, "k": 2, "l": 2}, "degree -40 not in degrees"),
], ids=["duplicate", "unknown"])
def test_twist_profile_degree_must_be_new_and_listed(entry, message):
    data = json.loads(json.dumps(SHEAF))
    data["twist_profile"].append(entry)
    with pytest.raises(FormatError) as err:
        ff.sheaf_from_dict(data)
    assert str(err.value) == f"{message} (at twist_profile[2].degree)"


@pytest.mark.parametrize("source", [COMPLEX, SHEAF], ids=["complex", "sheaf"])
def test_differential_degree_must_be_new(source):
    # without the check the last entry of a degree won, silently
    data = json.loads(json.dumps(source))
    data["differentials"].append({"degree": 1, "matrix": [[[[0, "1"]]]]})
    load = (ff.sheaf_from_dict if source is SHEAF
            else ff.complex_from_dict)
    with pytest.raises(FormatError) as err:
        load(data)
    assert str(err.value) == "duplicate degree (at differentials[1].degree)"


def test_sample_with_a_duplicate_differential_exits_2(tmp_path, capsys):
    sample = Path(__file__).resolve().parents[1] / "samples/x-minus-1.cplx"
    data = json.loads(sample.read_text(encoding="utf-8"))
    data["differentials"].append({"degree": 1, "matrix": [[[[0, "1"]]]]})
    path = tmp_path / "dup.cplx"
    path.write_text(json.dumps(data))
    assert main(["verify", str(path)]) == 2
    assert capsys.readouterr().err == (
        "input error: duplicate degree (at differentials[1].degree)\n")


@pytest.mark.parametrize("command, sample, path, value, message", [
    ("verify", "x-minus-1.cplx", ("degrees", 1, "degree"), 0,
     "duplicate degree (at degrees[1])"),
    ("verify", "x-minus-1.cplx", ("differentials", 0, "degree"), 0,
     "differential degree 0 out of support (at differentials[0])"),
    ("h0", "x-minus-1.sheaf", ("base",), "K[x]",
     "sheaf complexes have base K[x,x^-1] (at base)"),
], ids=["duplicate-degree", "differential-out-of-support", "sheaf-base"])
def test_sample_with_a_bad_field_exits_2(command, sample, path, value,
                                         message, tmp_path, capsys):
    source = Path(__file__).resolve().parents[1] / "samples" / sample
    data = json.loads(source.read_text(encoding="utf-8"))
    node = data
    for key in path[:-1]:
        node = node[key]
    node[path[-1]] = value
    target = tmp_path / sample
    target.write_text(json.dumps(data))
    assert main([command, str(target)]) == 2
    assert capsys.readouterr().err == f"input error: {message}\n"


def test_extended_sample_with_stray_twists_exits_2(tmp_path, capsys):
    # without the checks the last duplicate won and the stray entry was
    # dropped, and h0 exited 0
    sample = Path(__file__).resolve().parents[1] / "samples/x-minus-1.cplx"
    path = tmp_path / "ext.sheaf"
    assert main(["extend", str(sample), "--out", str(path)]) == 0
    data = json.loads(path.read_text(encoding="utf-8"))
    data["twist_profile"] += [{"degree": 0, "k": 1, "l": 0},
                              {"degree": -40, "k": 2, "l": 2}]
    path.write_text(json.dumps(data))
    assert main(["h0", str(path)]) == 2
    assert capsys.readouterr().err == (
        "input error: duplicate degree (at twist_profile[2].degree)\n")
    del data["twist_profile"][2]
    path.write_text(json.dumps(data))
    assert main(["h0", str(path)]) == 2
    assert capsys.readouterr().err == (
        "input error: degree -40 not in degrees "
        "(at twist_profile[2].degree)\n")


def test_illegal_twist_profile_exits_2(tmp_path, capsys):
    # with k = 0 in degree 0 the minus chart entry of x - 1 is x - 1
    sample = Path(__file__).resolve().parents[1] / "samples/x-minus-1.sheaf"
    data = json.loads(sample.read_text(encoding="utf-8"))
    data["twist_profile"][0]["k"] = 0
    path = tmp_path / "illegal.sheaf"
    path.write_text(json.dumps(data))
    assert main(["h0", str(path)]) == 2
    assert capsys.readouterr().err == (
        "input error: degree 1: minus chart entry (0,0) = -1 + x violates "
        "K[x^-1] (at $)\n")
