"""Canonical file formats for complexes, sheaf complexes and reports.

All files are JSON.  Laurent polynomials serialise as arrays of
[exponent, coefficient-string] pairs with exponents ascending; rationals
render as "a/b" or "a", GF(p) residues and integers as decimal strings.
Serialisation is bit-stable: degrees ascend, field order is fixed, and
dumps always end with a newline.  A complex with base "K" loads as a
``ScalarComplex`` of sparse rows of constants.

Loading is bounded before anything is built: a degree span above
MAX_DEGREE_SPAN, a rank above MAX_RANK or an exponent or twist above
MAX_EXPONENT in absolute value is a FormatError naming the field.  (An
omitted differential is a dense zero matrix; exponents and twists set the
sizes of the monomial bands of the global sections.)  The CLI runs the
loader on every dict it is about to write, so that no file is written
that the loader would refuse.  Wherever the format wants an
integer (version, degree, rank, exponent, twist) only a JSON integer is
accepted: ``true`` and ``false`` are a FormatError naming the field.

A sheaf file stores its chart differentials ``minus`` and ``plus``, which
its twist profile forces (see SheafComplex).  The loader builds the sheaf
from the middle complex and the profile, and reports every degree where a
stored chart differs from the forced one; a profile degree that repeats
or is not in ``degrees`` is a FormatError at that entry.
"""

from __future__ import annotations

import hashlib
import json

from .complexes import ChainComplex, ScalarComplex
from .errors import FormatError
from .laurent import BaseRing, LaurentPoly, base_from_tag
from .matrices import LaurentMatrix, ScalarMatrix
from .scalars import CoefficientRing, ring_from_tag
from .sheaves import SheafComplex, TwistSummand

COMPLEX_FORMAT = "p1dom-complex"
SHEAF_FORMAT = "p1dom-sheaf-complex"
VERSION = 1
MAX_DEGREE_SPAN = 16
MAX_RANK = 512
MAX_EXPONENT = 4096


# -- polynomials and matrices ---------------------------------------------------


def poly_to_pairs(p: LaurentPoly):
    return [[e, p.ring.render(c)] for e, c in p.items()]


def poly_from_pairs(ring: CoefficientRing, pairs, where: str) -> LaurentPoly:
    if not isinstance(pairs, list):
        raise FormatError("polynomial must be an array of pairs", where)
    acc = []
    for idx, pair in enumerate(pairs):
        loc = f"{where}[{idx}]"
        if (not isinstance(pair, list) or len(pair) != 2
                or not isinstance(pair[1], str)):
            raise FormatError(
                "expected [exponent, coefficient-string]", loc)
        _check_exponent(_integer(pair[0], "exponent", f"{loc}[0]"),
                        f"{loc}[0]")
        try:
            acc.append((pair[0], ring.parse(pair[1])))
        except Exception as exc:
            raise FormatError(f"bad coefficient: {exc}", loc) from exc
    return LaurentPoly.from_pairs(ring, acc)


def _integer(value, field: str, where: str) -> int:
    """``value`` if it is a JSON integer; a boolean, which Python counts
    as an int, or any other type is a FormatError naming the field."""
    if type(value) is not int:
        raise FormatError(f"{field} must be an integer, got {value!r}",
                          where)
    return value


def _check_exponent(e: int, where: str):
    if abs(e) > MAX_EXPONENT:
        raise FormatError(
            f"exponent {e} exceeds {MAX_EXPONENT} in absolute value", where)


def _check_rank(rank: int, where: str):
    if rank > MAX_RANK:
        raise FormatError(f"rank {rank} exceeds {MAX_RANK}", where)


def matrix_to_rows(m: LaurentMatrix):
    return [[poly_to_pairs(p) for p in row] for row in m.entries]


def matrix_from_rows(ring, rows, cols, data, base: BaseRing, where: str):
    if not isinstance(data, list) or len(data) != rows:
        raise FormatError(f"expected {rows} matrix rows", where)
    entries = []
    for i, row in enumerate(data):
        if not isinstance(row, list) or len(row) != cols:
            raise FormatError(f"expected {cols} entries", f"{where}[{i}]")
        entries.append([
            poly_from_pairs(ring, cell, f"{where}[{i}][{j}]")
            for j, cell in enumerate(row)
        ])
    try:
        return LaurentMatrix(ring, rows, cols, entries, base)
    except Exception as exc:
        raise FormatError(str(exc), where) from exc


# -- chain complexes ---------------------------------------------------------------


def complex_to_dict(c: ChainComplex | ScalarComplex) -> dict:
    return {
        "format": COMPLEX_FORMAT,
        "version": VERSION,
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
        return matrix_to_rows(c.diff(m))
    d = c.diffs.get(m)
    render = c.ring.render
    return [[[[0, render(row[j])]] if j in row else []
             for j in range(c.rank(m))]
            for row in (d.data if d else [{}] * c.rank(m - 1))]


def _header(data: dict, expected_format: str):
    if not isinstance(data, dict):
        raise FormatError("top level must be an object", "$")
    fmt = data.get("format")
    if fmt != expected_format:
        raise FormatError(f"format must be {expected_format!r}, got {fmt!r}",
                          "format")
    version = _integer(data.get("version"), "version", "version")
    if version != VERSION:
        raise FormatError(f"unsupported version {version!r}", "version")
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
    return ring, base


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
        _check_rank(rank, f"{loc}.rank")
        if degree in ranks:
            raise FormatError("duplicate degree", loc)
        ranks[degree] = rank
    span = max(ranks) - min(ranks)
    if span > MAX_DEGREE_SPAN:
        raise FormatError(f"degree span {span} exceeds {MAX_DEGREE_SPAN}",
                          "degrees")
    return ranks


def _read_differentials(data, ring, base, ranks, key: str):
    raw = data.get(key, [])
    if not isinstance(raw, list):
        raise FormatError(f"{key} must be an array", key)
    lo, hi = min(ranks), max(ranks)
    diffs = {}
    for idx, item in enumerate(raw):
        loc = f"{key}[{idx}]"
        if not isinstance(item, dict):
            raise FormatError("expected {degree, matrix}", loc)
        m = _integer(item.get("degree"), "degree", f"{loc}.degree")
        if not (lo < m <= hi):
            raise FormatError(f"differential degree {m} out of support", loc)
        rows = ranks.get(m - 1, 0)
        cols = ranks.get(m, 0)
        diffs[m] = matrix_from_rows(ring, rows, cols, item.get("matrix"),
                                    base, f"{loc}.matrix")
    return diffs


def complex_from_dict(data: dict) -> ChainComplex | ScalarComplex:
    ring, base = _header(data, COMPLEX_FORMAT)
    ranks = _read_degrees(data)
    lo, hi = min(ranks), max(ranks)
    diffs = _read_differentials(data, ring, base, ranks, "differentials")
    if base == BaseRing.K:
        return ScalarComplex(ring, lo, hi, ranks, {
            m: ScalarMatrix.from_laurent(d) for m, d in diffs.items()})
    try:
        c = ChainComplex(ring, base, lo, hi, ranks, diffs)
    except Exception as exc:
        raise FormatError(str(exc), "differentials") from exc
    return c


# -- sheaf complexes ------------------------------------------------------------


def sheaf_to_dict(s: SheafComplex) -> dict:
    profile = s.twist_profile()
    data = complex_to_dict(s.mid)
    data["format"] = SHEAF_FORMAT
    data["twist_profile"] = [
        {"degree": m, "k": profile[m][0], "l": profile[m][1]}
        for m in sorted(profile)
    ]
    for key, chart in (("minus", s.minus), ("plus", s.plus)):
        data[key] = [
            {"degree": m, "matrix": matrix_to_rows(chart.diff(m))}
            for m in range(chart.lo + 1, chart.hi + 1)
        ]
    return data


def sheaf_from_dict(data: dict) -> SheafComplex:
    ring, base = _header(data, SHEAF_FORMAT)
    if base != BaseRing.LAURENT:
        raise FormatError("sheaf complexes have base K[x,x^-1]", "base")
    ranks = _read_degrees(data)
    lo, hi = min(ranks), max(ranks)
    mid_diffs = _read_differentials(data, ring, base, ranks, "differentials")
    charts = {key: _read_differentials(data, ring, chart_base, ranks, key)
              for key, chart_base in (("minus", BaseRing.POLY_INV),
                                      ("plus", BaseRing.POLY))}
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
        if degree not in ranks:
            raise FormatError(f"degree {degree} not in degrees",
                              f"{loc}.degree")
        _check_exponent(k, f"{loc}.k")
        _check_exponent(l, f"{loc}.l")
        profile[degree] = (k, l)
    for m in ranks:
        if ranks[m] and m not in profile:
            raise FormatError(f"degree {m} missing from twist_profile",
                              "twist_profile")
    try:
        mid = ChainComplex(ring, BaseRing.LAURENT, lo, hi, ranks, mid_diffs)
        twists = {m: (TwistSummand(*profile.get(m, (0, 0))),) * ranks[m]
                  for m in ranks}
        sheaf = SheafComplex(mid, twists)
    except FormatError:
        raise
    except Exception as exc:
        raise FormatError(str(exc), "$") from exc
    problems = sheaf.validate()
    # the file's charts must be the ones its twists force
    derived = {"minus": sheaf.minus, "plus": sheaf.plus}
    for m in range(lo + 1, hi + 1):
        for key, chart in derived.items():
            d = chart.diff(m)
            if charts[key].get(m, LaurentMatrix.zero(ring, d.rows,
                                                     d.cols)) != d:
                problems.append(
                    f"level {m}: {key} structure map not a chain map")
    if problems:
        raise FormatError("; ".join(problems), "$")
    return sheaf


# -- canonical bytes ------------------------------------------------------------------


def dumps_canonical(obj) -> str:
    """Fixed-layout JSON text; byte-stable for identical inputs."""
    return json.dumps(obj, indent=2, sort_keys=False,
                      separators=(",", ": ")) + "\n"


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


def load_complex(path) -> ChainComplex | ScalarComplex:
    with open(path, encoding="utf-8") as fh:
        return complex_from_dict(loads(fh.read()))


def load_sheaf(path) -> SheafComplex:
    with open(path, encoding="utf-8") as fh:
        return sheaf_from_dict(loads(fh.read()))
