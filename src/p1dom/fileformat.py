"""Canonical file formats for complexes, sheaf complexes and reports.

All files are JSON.  Laurent polynomials serialise as arrays of
[exponent, coefficient-string] pairs with exponents ascending; rationals
render as "a/b" or "a", GF(p) residues and integers as decimal strings.
A coefficient string is read as ASCII ``-?[0-9]+``, over Q also
``-?[0-9]+/[0-9]+``: a plus sign, spaces, underscores and non-ASCII
digits are a FormatError, as in the modulus of a ring tag.  Serialisation
is bit-stable: degrees ascend, field order is fixed, and every file and report is laid out by
``dumps_canonical``: each array item and object member on its own line
under a two-space indent, "," after each but the last, ": " after each
key, empty arrays and objects as ``[]`` and ``{}``, ``\\uXXXX`` escapes
for non-ASCII and control characters, and a final newline.  A complex
with base "K" loads as a ``ScalarComplex`` of sparse rows of constants,
any other with sparse rows of entries, each polynomial its entry.

Loading is bounded before anything is built: a degree span above
MAX_DEGREE_SPAN, a rank above MAX_RANK, an exponent above MAX_EXPONENT or
a twist above MAX_TWIST (MAX_DEGREE_SPAN * MAX_EXPONENT, as an extension's
twists add up over its differentials) in absolute value is a FormatError
naming the field, and so is a GF modulus above ``scalars.MAX_MODULUS``.
MAX_RANK and its check come from ``complexes``, where
``sheaves.cech_complex`` reads them too: W is written densely as well.
(An omitted differential is a zero matrix of empty rows; exponents and
twists set the sizes of the monomial bands of the global sections.)  Each polynomial is stored dense over its exponent span, so the
sum of max - min + 1 over the cells of a file, its dense coefficient
slots, may not pass MAX_DENSE_SLOTS: the cell that passes it is a
FormatError, raised before that cell is built.  The CLI runs the
loader on every dict it is about to write, so that no file is written
that the loader would refuse.  Wherever the format wants an
integer (version, degree, rank, exponent, twist) only a JSON integer is
accepted: ``true`` and ``false`` are a FormatError naming the field.

A sheaf file is a complex file over K[x,x^-1] with the format
"p1dom-sheaf-complex", version 2, and a ``twist_profile``: one split
(k, l) per degree.  Its chart complexes are not stored, since the twists
force them (see SheafComplex); version 1 stored them as ``minus`` and
``plus`` and is refused.  One reader reads the header, degrees and
differentials of both kinds and builds the complex, with no d.d check;
the sheaf loader adds the profile, each level its rank copies of the
profile's (k, l) pair, and builds the sheaf through the SheafComplex
constructor, whose scan of the gluing rule refuses twists
too small for a differential.  A profile degree that repeats or is not
in ``degrees`` is a FormatError at that entry.  The bounds above count
only what the file stores.
"""

from __future__ import annotations

import hashlib
import json
from json.encoder import encode_basestring_ascii as _escape

from .complexes import MAX_RANK, ChainComplex, ScalarComplex, check_rank
from .errors import (BaseRingViolationError, FormatError,
                     UnsupportedRingError, shown)
from .laurent import BaseRing, base_from_tag, render
from .matrices import LaurentMatrix, ScalarMatrix
from .polylists import from_terms
from .scalars import CoefficientRing, ring_from_tag
from .sheaves import SheafComplex

COMPLEX_FORMAT = "p1dom-complex"
SHEAF_FORMAT = "p1dom-sheaf-complex"
# the version each format is written at and the one it is read at
VERSIONS = {COMPLEX_FORMAT: 1, SHEAF_FORMAT: 2}
MAX_DEGREE_SPAN = 16
# MAX_RANK is imported from complexes, whose check bounds W as well
MAX_EXPONENT = 4096
MAX_TWIST = MAX_DEGREE_SPAN * MAX_EXPONENT
# dense coefficient slots in one file, summed over every cell it stores
MAX_DENSE_SLOTS = 1 << 20


# -- polynomials and matrices ---------------------------------------------------


def entry_from_pairs(ring: CoefficientRing, pairs, where: str,
                     budget=None, index=()):
    """The ``polylists`` entry of ``pairs`` at ``where`` subscripted by
    ``index``; its dense slots are taken from ``budget``, a one-item list
    of the slots left in the file, if given."""
    if not isinstance(pairs, list):
        raise FormatError("polynomial must be an array of pairs",
                          _at(where, *index))
    terms = []
    for pair in pairs:
        if (not isinstance(pair, list) or len(pair) != 2
                or not isinstance(pair[1], str)):
            raise FormatError("expected [exponent, coefficient-string]",
                              _at(where, *index, len(terms)))
        if type(pair[0]) is not int or abs(pair[0]) > MAX_EXPONENT:
            _check_exponent(pair[0], _at(where, *index, len(terms), 0))
        try:
            terms.append((pair[0], ring.parse(pair[1])))
        except UnsupportedRingError as exc:
            raise FormatError(f"bad coefficient: {exc}",
                              _at(where, *index, len(terms))) from exc
    if budget is not None and terms:
        budget[0] -= max(terms)[0] - min(terms)[0] + 1 if len(terms) > 1 else 1
        if budget[0] < 0:
            raise FormatError(
                "the file's polynomials span more than MAX_DENSE_SLOTS = "
                f"{MAX_DENSE_SLOTS} dense coefficient slots",
                _at(where, *index))
    # dense over a span of at most 2 * MAX_EXPONENT + 1
    return from_terms(terms, ring.p)


def _at(where: str, *index) -> str:
    """The location ``where[i][j]...`` of the item at ``index``."""
    return where + "".join(f"[{k}]" for k in index)


def _integer(value, field: str, where: str) -> int:
    """``value`` if it is a JSON integer; a boolean, which Python counts
    as an int, or any other type is a FormatError naming the field."""
    if type(value) is not int:
        raise FormatError(
            f"{field} must be an integer, got {shown(value)}", where)
    return value


def _check_exponent(e, where: str, field="exponent", bound=MAX_EXPONENT):
    if abs(_integer(e, field, where)) > bound:
        raise FormatError(
            f"{field} {shown(e)} exceeds {bound} in absolute value", where)


def _pairs(entry, render):
    """The [exponent, coefficient-string] pairs of a nonzero entry."""
    v, c = entry
    return [[v + k, render(x)] for k, x in enumerate(c) if x]


def matrix_to_rows(m: LaurentMatrix):
    """The cells of ``m`` row by row, zero as the empty polynomial."""
    render = m.ring.render
    return [[_pairs(row[j], render) if j in row else []
             for j in range(m.cols)] for row in m.data]


def matrix_from_rows(ring, rows, cols, data, base: BaseRing, where: str,
                     budget):
    """The matrix of ``data`` over ``base``: a LaurentMatrix, or over K a
    ScalarMatrix of sparse rows of constants.  Every entry is read over
    ``ring``; the first one outside ``base`` is a FormatError."""
    if not isinstance(data, list) or len(data) != rows:
        noun = "matrix row" if rows == 1 else "matrix rows"
        raise FormatError(f"expected {rows} {noun}", where)
    out = []
    for i, row in enumerate(data):
        if not isinstance(row, list) or len(row) != cols:
            noun = "entry" if cols == 1 else "entries"
            raise FormatError(f"expected {cols} {noun}", _at(where, i))
        cells = [entry_from_pairs(ring, cell, where, budget, (i, j))
                 for j, cell in enumerate(row)]
        out.append({j: e for j, e in enumerate(cells) if e is not None})
    if base is not BaseRing.LAURENT:
        for i, row in enumerate(out):
            for j, e in row.items():
                if not base.admits(e):
                    raise FormatError(
                        f"entry ({i},{j}) = {render(ring, e)} violates "
                        f"{base.tag}", where)
    # the keys are positions in rows of cols cells, met ascending: no scan
    if base is BaseRing.K:
        return ScalarMatrix._stored(ring, rows, cols, [
            {j: e[1][0] for j, e in row.items()} for row in out])
    return LaurentMatrix._stored(ring, rows, cols, out)


# -- chain complexes ---------------------------------------------------------------


def complex_to_dict(c: ChainComplex | ScalarComplex) -> dict:
    return {
        "format": COMPLEX_FORMAT,
        "version": VERSIONS[COMPLEX_FORMAT],
        "ring": c.ring.tag,
        "variable": "x",
        "base": c.base.tag,
        "degrees": [{"degree": m, "rank": c.rank(m)} for m in c.degrees()],
        "differentials": [
            {"degree": m, "matrix": _diff_rows(c, m)}
            for m in range(c.lo + 1, c.hi + 1)
        ],
    }


def _diff_rows(c, m: int):
    """The differential at degree m as rows of cells; K entries are
    written as constants, zero as the empty polynomial."""
    if c.base != BaseRing.K:
        return matrix_to_rows(c.diffs[m])
    d = c.diffs.get(m)
    render = c.ring.render
    return [[[[0, render(row[j])]] if j in row else []
             for j in range(c.rank(m))]
            for row in (d.data if d else [{}] * c.rank(m - 1))]


def _read_degrees(data):
    degrees = data.get("degrees")
    if not isinstance(degrees, list) or not degrees:
        raise FormatError("degrees must be a nonempty array", "degrees")
    ranks = {}
    for idx, item in enumerate(degrees):
        loc = f"degrees[{idx}]"
        if not isinstance(item, dict):
            raise FormatError("expected {degree, rank}", loc)
        degree = _integer(item.get("degree"), "degree", f"{loc}.degree")
        rank = _integer(item.get("rank"), "rank", f"{loc}.rank")
        if rank < 0:
            raise FormatError("negative rank", loc)
        if rank > MAX_RANK:  # the location is formatted for a refusal only
            check_rank(rank, f"{loc}.rank")
        if degree in ranks:
            raise FormatError("duplicate degree", loc)
        ranks[degree] = rank
    span = max(ranks) - min(ranks)
    if span > MAX_DEGREE_SPAN:
        raise FormatError(
            f"degree span {shown(span)} exceeds {MAX_DEGREE_SPAN}", "degrees")
    return ranks


def _read_complex(data: dict, expected_format: str):
    """The complex a file of ``expected_format`` stores: its header,
    degrees and differentials, read with no d.d check.  A sheaf file must
    have base K[x,x^-1]."""
    if not isinstance(data, dict):
        raise FormatError("top level must be an object", "$")
    fmt = data.get("format")
    if fmt != expected_format:
        raise FormatError(
            f"format must be {expected_format!r}, got {shown(fmt)}", "format")
    version = _integer(data.get("version"), "version", "version")
    if version != VERSIONS[expected_format]:
        raise FormatError(f"unsupported version {shown(version)}",
                          "version")
    if data.get("variable", "x") != "x":
        raise FormatError("variable must be 'x'", "variable")
    try:
        ring = ring_from_tag(str(data.get("ring")))
    except Exception as exc:
        raise FormatError(f"bad ring tag: {exc}", "ring") from exc
    try:
        base = base_from_tag(str(data.get("base", "K[x,x^-1]")))
    except Exception as exc:
        raise FormatError(f"bad base tag: {exc}", "base") from exc
    if expected_format == SHEAF_FORMAT and base != BaseRing.LAURENT:
        raise FormatError("sheaf complexes have base K[x,x^-1]", "base")
    ranks = _read_degrees(data)
    lo, hi = min(ranks), max(ranks)
    raw = data.get("differentials", [])
    if not isinstance(raw, list):
        raise FormatError("differentials must be an array", "differentials")
    budget = [MAX_DENSE_SLOTS]
    diffs = {}
    for idx, item in enumerate(raw):
        loc = f"differentials[{idx}]"
        if not isinstance(item, dict):
            raise FormatError("expected {degree, matrix}", loc)
        m = _integer(item.get("degree"), "degree", f"{loc}.degree")
        if m in diffs:
            raise FormatError("duplicate degree", f"{loc}.degree")
        if not (lo < m <= hi):
            raise FormatError(f"differential degree {m} out of support", loc)
        diffs[m] = matrix_from_rows(ring, ranks.get(m - 1, 0),
                                    ranks.get(m, 0), item.get("matrix"),
                                    base, f"{loc}.matrix", budget)
    # every shape and degree is checked above: the constructor cannot refuse
    if base == BaseRing.K:
        return ScalarComplex(ring, lo, hi, ranks, diffs)
    return ChainComplex(ring, base, lo, hi, ranks, diffs)


def complex_from_dict(data: dict) -> ChainComplex | ScalarComplex:
    return _read_complex(data, COMPLEX_FORMAT)


# -- sheaf complexes ------------------------------------------------------------


def sheaf_to_dict(s: SheafComplex) -> dict:
    profile = s.twist_profile()
    data = complex_to_dict(s.mid)
    data["format"] = SHEAF_FORMAT
    data["version"] = VERSIONS[SHEAF_FORMAT]
    data["twist_profile"] = [
        {"degree": m, "k": profile[m][0], "l": profile[m][1]}
        for m in sorted(profile)
    ]
    return data


def sheaf_from_dict(data: dict) -> SheafComplex:
    mid = _read_complex(data, SHEAF_FORMAT)
    # the degrees as the file lists them, which may leave gaps in the support
    listed = {item["degree"]: item["rank"] for item in data["degrees"]}
    raw_profile = data.get("twist_profile")
    if not isinstance(raw_profile, list):
        raise FormatError("twist_profile must be an array", "twist_profile")
    profile = {}
    for idx, item in enumerate(raw_profile):
        loc = f"twist_profile[{idx}]"
        if not isinstance(item, dict):
            raise FormatError("expected {degree, k, l}", loc)
        degree, k, l = (_integer(item.get(f), f, f"{loc}.{f}")
                        for f in ("degree", "k", "l"))
        if degree in profile:
            raise FormatError("duplicate degree", f"{loc}.degree")
        if degree not in listed:
            raise FormatError(f"degree {degree} not in degrees",
                              f"{loc}.degree")
        _check_exponent(k, f"{loc}.k", "twist", MAX_TWIST)
        _check_exponent(l, f"{loc}.l", "twist", MAX_TWIST)
        profile[degree] = (k, l)
    for m, rank in listed.items():
        if rank and m not in profile:
            raise FormatError(f"degree {m} missing from twist_profile",
                              "twist_profile")
    twists = {m: (profile.get(m, (0, 0)),) * r for m, r in mid.ranks.items()}
    try:
        return SheafComplex(mid, twists)
    except BaseRingViolationError as exc:
        raise FormatError(str(exc), "$") from exc


# -- canonical bytes ------------------------------------------------------------------


def dumps_canonical(obj) -> str:
    """Fixed-layout JSON text; byte-stable for identical inputs.

    The text the standard library's encoder writes with ``indent=2``,
    separators ``","`` and ``": "`` and ASCII escapes, and a final
    newline.  It is written by hand because up to Python 3.12 any indent
    sends the standard library to its pure-Python encoder, three times
    slower.  Only dict (str keys), list, str, int, bool and None are
    written; anything else is a TypeError naming its type.
    """
    out = []
    _write_json(obj, out, "\n")
    out.append("\n")
    return "".join(out)


_LITERALS = {None: "null", True: "true", False: "false"}


def _write_json(o, out: list, nl: str):
    """Append the text of ``o`` to ``out``; ``nl`` is the newline and
    indent of the line ``o`` starts on."""
    t = type(o)
    if t is str:
        out.append(_escape(o))
    elif t is int:
        out.append(int.__repr__(o))
    elif t is list:
        if not o:
            out.append("[]")
            return
        inner = nl + "  "
        sep = "[" + inner
        for item in o:
            out.append(sep)
            _write_json(item, out, inner)
            sep = "," + inner
        out.append(nl + "]")
    elif t is dict:
        if not o:
            out.append("{}")
            return
        inner = nl + "  "
        sep = "{" + inner
        for key, value in o.items():
            if type(key) is not str:
                raise TypeError(
                    f"keys must be str, not {type(key).__name__}")
            out.append(sep)
            out.append(_escape(key))
            out.append(": ")
            _write_json(value, out, inner)
            sep = "," + inner
        out.append(nl + "}")
    elif o is None or t is bool:
        out.append(_LITERALS[o])
    else:
        raise TypeError(
            f"Object of type {t.__name__} is not JSON serializable")


def loads(text: str):
    try:
        return json.loads(text)
    except json.JSONDecodeError as exc:
        raise FormatError(f"invalid JSON: {exc.msg}",
                          f"line {exc.lineno}, column {exc.colno}") from exc
    except (ValueError, RecursionError) as exc:
        # an integer literal past Python's digit limit, or nesting deeper
        # than the recursion limit
        raise FormatError(f"invalid JSON: {exc}", "$") from None


def digest(text: str) -> str:
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def save_path(path, obj):
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(dumps_canonical(obj))
