"""Command-line front end.

Exit codes: 0 on success or mathematical PASS, 1 on mathematical FAIL
(hypothesis violated, invalid complex), 2 on input or usage errors,
among them a complex whose base ring the command does not take
(``BASES``: K[x,x^-1] for novikov, extend, dominate and verify, K or
K[x,x^-1] for homology, K[x] for hyper) and a Z-coefficient complex given
to a command that needs a field (``FIELD_COMMANDS``: homology, dominate,
verify).  Each command parses only the flags it reads: ``--trunc`` is
``novikov``'s (the Z windows of its unit-pivot search),
``twist-cohomology`` takes no ``--ring`` and ``h0`` no ``--format``;
another flag is an unknown argument (exit 2), which the top-level parser
reports, as it does a missing or unknown command.  ``verify`` and
``dominate`` report the exact chart valuations and ``hyper`` the exact
chart homology, which no order bounds.  Flags can be preset through
environment variables with the P1DOM_ prefix (P1DOM_RING, P1DOM_TRUNC,
P1DOM_FORMAT, P1DOM_OUT); explicit flags win.  A preset is read only by
a command that takes its flag, and is checked like that flag.

Sizes are bounded as file contents are: a truncation order is at most
MAX_ORDER, ``twist-cohomology`` takes a rank r from 0 to MAX_RANK, a twist
n, split k and n - k within MAX_EXPONENT and at most HYPER_ROW_BUDGET
basis monomials, and ``extend`` and ``h0`` write no file that the loader
refuses: they run it on the data first (exit 2 in each case).
"""

from __future__ import annotations

import argparse
import os
import stat
import sys

from . import fileformat as ff
from .complexes import homology, require_valid
from .domination import (chart_homology, dominate, novikov_check,
                         verify_theorem)
from .errors import (FormatError, NotNovikovAcyclicError, P1DomError,
                     StabilisationFailureError, UnsupportedRingError)
from .extension import extend_complex
from .laurent import BaseRing
from .scalars import ring_from_tag
from .sheaves import cech_cohomology, cech_complex, twisting_sheaf

EXIT_OK = 0
EXIT_MATH_FAIL = 1
EXIT_INPUT_ERROR = 2
# largest --trunc, the exponent bound of the file format
MAX_ORDER = ff.MAX_EXPONENT
# the most basis monomials twist-cohomology may list, r * (|n| + 1)
HYPER_ROW_BUDGET = 1 << 16


def _order(text):
    """--trunc: an integer from 1 to MAX_ORDER."""
    try:
        value = int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(
            f"invalid integer {text!r}") from None
    if value < 1:
        raise argparse.ArgumentTypeError(f"must be at least 1, got {value}")
    if value > MAX_ORDER:
        raise argparse.ArgumentTypeError(
            f"must be at most MAX_ORDER = {MAX_ORDER}, got {value}")
    return value


def _ring_tag(text):
    try:
        ring_from_tag(text)
    except (UnsupportedRingError, ValueError):
        raise argparse.ArgumentTypeError(
            f"expected Q, Z or GF:p with p prime, got {text!r}") from None
    return text


def _output_format(text):
    if text not in ("human", "report"):
        raise argparse.ArgumentTypeError(
            f"must be human or report, got {text!r}")
    return text


# command -> the base rings its input complex may have; a file of another
# base is an input error
BASES = {
    "homology": (BaseRing.K, BaseRing.LAURENT),
    "novikov": (BaseRing.LAURENT,),
    "extend": (BaseRing.LAURENT,),
    "hyper": (BaseRing.POLY,),
    "dominate": (BaseRing.LAURENT,),
    "verify": (BaseRing.LAURENT,),
}

# commands that need field coefficients; a Z file is an input error
FIELD_COMMANDS = ("homology", "dominate", "verify")

# flag attribute -> (environment variable, converter, built-in default),
# one row for each flag that some command takes: --ring, novikov's
# --trunc, --format and --out; the flags default to None so that a preset
# is read when main() runs
PRESETS = {
    "ring": ("P1DOM_RING", _ring_tag, None),
    "trunc": ("P1DOM_TRUNC", _order, 16),
    "format": ("P1DOM_FORMAT", _output_format, "human"),
    "out": ("P1DOM_OUT", str, None),
}


def build_parser():
    """The top-level parser and its map of command name -> own parser."""
    parser = argparse.ArgumentParser(
        prog="p1dom",
        description="exact chain-complex extension, cohomology and "
                    "Novikov/finite-domination checks")
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p, with_input=True, flags=("ring", "format")):
        if with_input:
            p.add_argument("input", help="input file")
        if "ring" in flags:
            p.add_argument("--ring", type=_ring_tag,
                           help="Q | GF:p | Z; must match the file header")
        if "format" in flags:
            p.add_argument("--format", type=_output_format,
                           metavar="{human,report}")
        p.add_argument("--out",
                       help="write output to this path instead of stdout")
        return p

    common(sub.add_parser("validate", help="check d.d = 0 and exponent legality"))
    common(sub.add_parser("homology", help="homology report of a complex"))
    nv = sub.add_parser("novikov", help="Novikov acyclicity verdicts")
    common(nv).add_argument("--trunc", type=_order,
                            help="truncation order N of the Z windows "
                                 "(default 16)")
    common(sub.add_parser("extend", help="extend a complex to the projective line"))
    common(sub.add_parser("h0", help="global sections of a sheaf complex"), flags=("ring",))
    common(sub.add_parser("hyper", help="exact homology of a K[x] complex over K[[x]]"))
    common(sub.add_parser("dominate", help="produce the finite-domination witness"))
    common(sub.add_parser("verify", help="full theorem pipeline with ledger"))
    tw = sub.add_parser("twist-cohomology",
                        help="cohomology of r copies of the nth twisting sheaf")
    tw.add_argument("n", type=int)
    tw.add_argument("r", type=int, nargs="?", default=1)
    tw.add_argument("--k", type=int, default=0, help="twist split (k, n-k)")
    common(tw, with_input=False, flags=("format",))
    for name, p in sub.choices.items():
        p.set_defaults(command=name)
    return parser, sub.choices


PARSER, COMMANDS = build_parser()


def _apply_presets(args):
    """Fill each flag of the parsed command left unset from its P1DOM_
    variable or default; a command without the flag reads neither."""
    for attr, (var, convert, default) in PRESETS.items():
        if not hasattr(args, attr) or getattr(args, attr) is not None:
            continue
        raw = os.environ.get(var)
        if raw is None:
            setattr(args, attr, default)
            continue
        try:
            setattr(args, attr, convert(raw))
        except argparse.ArgumentTypeError as exc:
            raise FormatError(f"{var}: {exc}") from None


def _write(args, text):
    """Write ``text`` to --out, or to stdout without one.

    The file is opened without truncation and cut to the written length
    afterwards, so the final bytes are the same as with mode "w".  On ext4
    (auto_da_alloc) truncating a file that was written moments before to
    zero length forces a flush, which stalled each write by tens of ms.
    """
    if not args.out:
        sys.stdout.write(text)
        return
    data = text.encode("utf-8")
    with open(os.open(args.out, os.O_WRONLY | os.O_CREAT, 0o666),
              "wb") as fh:
        fh.write(data)
        if stat.S_ISREG(os.fstat(fh.fileno()).st_mode):
            fh.truncate(len(data))


def _write_file(args, data):
    """Write a complex or sheaf file, or nothing when the loader refuses
    it: the loader itself reads the dict first."""
    _read_back(ff.sheaf_from_dict if data["format"] == ff.SHEAF_FORMAT
               else ff.complex_from_dict, data)
    _write(args, ff.dumps_canonical(data))


def _read_back(load, data):
    try:
        load(data)
    except FormatError as exc:
        raise FormatError(
            f"output not written, p1dom could not read it back: {exc}"
        ) from None


def _emit(args, human_lines, report):
    """Write ``human_lines``, or with --format report the canonical JSON
    of ``report()``: a report dict is built only when it is written."""
    if args.format == "report":
        text = ff.dumps_canonical(report())
    else:
        text = "\n".join(human_lines) + "\n"
    _write(args, text)


def _read_input(args):
    """The input file's text, read once: the text that is parsed is the
    text whose digest a report cites as ``input_digest``."""
    with open(args.input, encoding="utf-8") as fh:
        text = fh.read()
    args.input_digest = ff.digest(text)
    return text


def _load_complex(args):
    c = ff.complex_from_dict(ff.loads(_read_input(args)))
    _check_ring_flag(args, c.ring.tag)
    needed = BASES.get(args.command)
    if needed and c.base not in needed:
        raise FormatError(
            f"{args.command} needs a "
            f"{' or '.join(b.tag for b in needed)}-complex, "
            f"the file has base {c.base.tag}", "base")
    if args.command in FIELD_COMMANDS and not c.ring.is_field:
        raise FormatError(
            f"{args.command} needs field coefficients (Q or GF:p), "
            f"the file has ring {c.ring.tag}", "ring")
    return c


def _load_valid_complex(args):
    """A complex whose d.d = 0 is checked: homology reads it from ranks
    of the differentials, which a non-complex does not contradict."""
    c = _load_complex(args)
    require_valid(c)
    return c


def _load_sheaf(args):
    s = ff.sheaf_from_dict(ff.loads(_read_input(args)))
    _check_ring_flag(args, s.ring.tag)
    return s


def _check_ring_flag(args, header_tag):
    if args.ring is None:
        return
    if ring_from_tag(args.ring).tag != header_tag:
        raise FormatError(
            f"--ring {args.ring} does not match file header {header_tag}",
            "ring")


def cmd_validate(args):
    c = _load_complex(args)
    problems = c.validate()
    _emit(args, ["ok"] if not problems else problems, lambda: {
        "command": "validate", "input_digest": args.input_digest,
        "valid": not problems, "violations": problems})
    return EXIT_OK if not problems else EXIT_MATH_FAIL


def cmd_homology(args):
    c = _load_valid_complex(args)
    rep = homology(c)
    entries = sorted(rep.entries.items())
    lines = []
    for q, e in entries:
        tors = ", ".join(str(f) for f in e.torsion) or "-"
        kdim = "inf" if e.kdim is None else e.kdim
        lines.append(f"H_{q}: free rank {e.free_rank}, torsion [{tors}], "
                     f"K-dim {kdim}")
    _emit(args, lines, lambda: {
        "command": "homology", "input_digest": args.input_digest,
        "ring": c.ring.tag, "entries": [
            {"degree": q, "free_rank": e.free_rank,
             "torsion": [str(f) for f in e.torsion], "kdim": e.kdim}
            for q, e in entries]})
    return EXIT_OK


def cmd_novikov(args):
    c = _load_valid_complex(args)
    verdict = novikov_check(c, order=args.trunc)
    lines = [f"x-side: {verdict.x_side.acyclic}",
             f"x^-1-side: {verdict.x_inv_side.acyclic}"]
    # the certificates are rendered on read: only a report reads them
    _emit(args, lines, lambda: {
        "command": "novikov", "input_digest": args.input_digest,
        "x_side": {
            "acyclic": verdict.x_side.acyclic,
            "method": verdict.x_side.method,
            "certificate": verdict.x_side.certificate},
        "x_inv_side": {
            "acyclic": verdict.x_inv_side.acyclic,
            "method": verdict.x_inv_side.method,
            "certificate": verdict.x_inv_side.certificate}})
    return EXIT_OK


def cmd_extend(args):
    c = _load_complex(args)
    ext = extend_complex(c)
    if args.format == "human" and not args.out:
        profile = ", ".join(
            f"{m}:(k={k},l={l})"
            for m, (k, l) in sorted(ext.sheaf.twist_profile().items()))
        _write(args, f"twist profile: {profile}\n")
        return EXIT_OK
    _write_file(args, ff.sheaf_to_dict(ext.sheaf))
    return EXIT_OK


def cmd_h0(args):
    s = _load_sheaf(args)
    require_valid(s.mid)
    # a summand of twist n >= -1 gives W a band of n + 1 monomials
    # (cech_complex refuses n <= -2), so W is bounded before it is built
    _check_w_ranks({m: sum(max(t.n + 1, 0) for t in twists)
                    for m, twists in s.twists.items()})
    _write_file(args, ff.complex_to_dict(cech_complex(s)))
    return EXIT_OK


def _check_w_ranks(ranks):
    """W is sparse but its file is dense: the loader's rank check runs
    before any cell is written."""
    _read_back(ff._read_degrees, {"degrees": [
        {"degree": m, "rank": r} for m, r in ranks.items()]})


def cmd_hyper(args):
    c = _load_valid_complex(args)
    entries = sorted(chart_homology(c).items())
    _emit(args, [f"H_{q}: free rank {f}, torsion dim {t}"
                 for q, (f, t) in entries], lambda: {
        "command": "hyper", "input_digest": args.input_digest,
        "entries": [{"degree": q, "free_rank": f, "torsion_dim": t}
                    for q, (f, t) in entries]})
    return EXIT_OK


def cmd_dominate(args):
    c = _load_complex(args)
    witness = dominate(c)
    ranks = ", ".join(f"{m}:{r}" for m, r in sorted(witness.w_ranks().items()))
    lines = [f"W ranks {{{ranks}}}",
             f"ledger holds: {witness.ledger_holds}"]
    for row in witness.ledger:
        lines.append(f"  degree {row.degree}: {row.w_dim} = "
                     f"{row.mid_kdim} + {row.plus_dim} + {row.minus_dim}")
    _emit(args, lines, lambda: _dominate_report(args, witness))
    return EXIT_OK


def _dominate_report(args, witness):
    _check_w_ranks(witness.w_ranks())
    return {
        "command": "dominate",
        "input_digest": args.input_digest,
        "w": ff.complex_to_dict(witness.w),
        **witness.report_fields(),
    }


def cmd_verify(args):
    c = _load_complex(args)
    report = verify_theorem(c)
    lines = [report.verdict]
    for ch in report.checks:
        lines.append(f"  {ch.name}: {'ok' if ch.passed else 'FAIL'}"
                     + (f" ({ch.detail})" if ch.detail else ""))
    _emit(args, lines, lambda: {**report.to_dict(), "command": "verify",
                                "input_digest": args.input_digest})
    return EXIT_OK if report.passed else EXIT_MATH_FAIL


def cmd_twist_cohomology(args):
    if args.r < 0:
        raise FormatError(f"rank must be at least 0, got {args.r}", "r")
    ff._check_rank(args.r, "r")
    for value, where in ((args.n, "n"), (args.k, "--k"),
                         (args.n - args.k, "n - k")):
        ff._check_exponent(value, where)
    size = args.r * (abs(args.n) + 1)
    if size > HYPER_ROW_BUDGET:
        raise FormatError(
            f"r * (|n| + 1) = {size} basis monomials, above "
            f"HYPER_ROW_BUDGET = {HYPER_ROW_BUDGET}", "r, n")
    coh = cech_cohomology(twisting_sheaf(args.n, args.k, args.r))
    lines = [f"dim H^0 = {coh.h0_dim}", f"dim H^1 = {coh.h1_dim}"]
    for degree, basis in ((0, coh.h0_basis), (1, coh.h1_basis)):
        if basis:
            lines.append(f"H^{degree} basis: " + _monomials(basis, args.r))
    _emit(args, lines, lambda: {
        "command": "twist-cohomology", "n": args.n, "r": args.r,
        "k": args.k, "h0_dim": coh.h0_dim, "h1_dim": coh.h1_dim,
        "h0_basis": [[i, e] for i, e in coh.h0_basis],
        "h1_basis": [[i, e] for i, e in coh.h1_basis]})
    return EXIT_OK


def _monomials(basis, r):
    """A basis of (summand, exponent) pairs as monomials x^e, grouped by
    summand as "summand i: ..." when there are r >= 2 summands."""
    if r < 2:
        return ", ".join(f"x^{e}" for _, e in basis)
    groups = {}
    for i, e in basis:
        groups.setdefault(i, []).append(f"x^{e}")
    return "; ".join(f"summand {i}: " + ", ".join(monomials)
                     for i, monomials in groups.items())


HANDLERS = {
    "validate": cmd_validate,
    "homology": cmd_homology,
    "novikov": cmd_novikov,
    "extend": cmd_extend,
    "h0": cmd_h0,
    "hyper": cmd_hyper,
    "dominate": cmd_dominate,
    "verify": cmd_verify,
    "twist-cohomology": cmd_twist_cohomology,
}


def _parse(argv):
    """The command's own parser reads argv; PARSER reports what it cannot."""
    parser = COMMANDS.get(argv[0]) if argv else None
    if parser is not None:
        args, extra = parser.parse_known_args(argv[1:])
        if not extra:
            return args
    return PARSER.parse_args(argv)


def main(argv=None) -> int:
    try:
        args = _parse(sys.argv[1:] if argv is None else argv)
    except SystemExit as exc:
        return EXIT_INPUT_ERROR if exc.code not in (0, None) else EXIT_OK
    try:
        _apply_presets(args)
        return HANDLERS[args.command](args)
    except FormatError as exc:
        print(f"input error: {exc}", file=sys.stderr)
        return EXIT_INPUT_ERROR
    except OSError as exc:
        # a missing input, a directory, an unwritable --out: the message
        # names the path
        print(f"input error: {exc}", file=sys.stderr)
        return EXIT_INPUT_ERROR
    except UnicodeDecodeError as exc:
        print(f"input error: {getattr(args, 'input', '')}: not UTF-8 text "
              f"({exc.reason} at byte {exc.start})", file=sys.stderr)
        return EXIT_INPUT_ERROR
    except (NotNovikovAcyclicError, StabilisationFailureError) as exc:
        print(f"FAIL: {exc}", file=sys.stderr)
        return EXIT_MATH_FAIL
    except P1DomError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_MATH_FAIL


if __name__ == "__main__":
    sys.exit(main())
