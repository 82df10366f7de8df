"""Command-line front end.

Exit codes: 0 on success or mathematical PASS, 1 on mathematical FAIL
(hypothesis violated, invalid complex), 2 on input or usage errors,
among them a complex whose base ring the command does not take
(``COMMANDS``: K[x,x^-1] for novikov, extend, dominate and verify, K or
K[x,x^-1] for homology, K[x] for hyper) and a Z-coefficient complex given
to a command that needs a field (homology, hyper, dominate, verify).
The coefficient ring is the one the file header states; no flag names
it.  Options come from the command line alone, and each command parses
only the flags it reads: ``h0`` takes no ``--format``; another flag is an
unknown argument (exit 2), which the top-level parser reports, as it
does a missing or unknown command.  ``novikov`` decides Z complexes
longer than two terms by a unit-pivot contraction on the exact entries,
``verify`` and ``dominate`` report the exact chart valuations and
``hyper`` the exact chart homology, so no command takes a truncation
order.

Sizes are bounded as file contents are: ``twist-cohomology`` takes a rank
r from 0 to MAX_RANK, a twist n, split k and n - k within MAX_EXPONENT and
at most HYPER_ROW_BUDGET basis monomials, ``extend`` and ``h0`` write
no file that the loader refuses: they run it on the data first, and
``h0``, ``dominate`` and ``verify`` build W through ``cech_complex``,
which refuses a degree of W above MAX_RANK before it builds a row (exit
2 in each case).
"""

from __future__ import annotations

import argparse
import os
import stat
import sys
from typing import Callable, NamedTuple

from . import fileformat as ff
from .complexes import check_rank, homology, require_valid
from .domination import (chart_homology, dominate, novikov_check,
                         verify_theorem)
from .errors import (FormatError, NotNovikovAcyclicError, P1DomError,
                     StabilisationFailureError)
from .extension import extend_complex
from .laurent import BaseRing, render
from .sheaves import cech_cohomology, cech_complex, twisting_sheaf

EXIT_OK = 0
EXIT_MATH_FAIL = 1
EXIT_INPUT_ERROR = 2
# the most basis monomials twist-cohomology may list, r * (|n| + 1)
HYPER_ROW_BUDGET = 1 << 16


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
    command = COMMANDS[args.command]
    if command.bases and c.base not in command.bases:
        raise FormatError(
            f"{args.command} needs a "
            f"{' or '.join(b.tag for b in command.bases)}-complex, "
            f"the file has base {c.base.tag}", "base")
    if command.field and not c.ring.is_field:
        raise FormatError(
            f"{args.command} needs field coefficients (Q or GF(p)), "
            f"the file has ring {c.ring.tag}", "ring")
    return c


def _load_valid_complex(args):
    """A complex whose d.d = 0 is checked: homology reads it from ranks
    of the differentials, which a non-complex does not contradict."""
    c = _load_complex(args)
    require_valid(c)
    return c


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
        tors = ", ".join(render(c.ring, f) for f in e.torsion) or "-"
        kdim = "inf" if e.kdim is None else e.kdim
        lines.append(f"H_{q}: free rank {e.free_rank}, torsion [{tors}], "
                     f"K-dim {kdim}")
    _emit(args, lines, lambda: {
        "command": "homology", "input_digest": args.input_digest,
        "ring": c.ring.tag, "entries": [
            {"degree": q, "free_rank": e.free_rank,
             "torsion": [render(c.ring, f) for f in e.torsion],
             "kdim": e.kdim}
            for q, e in entries]})
    return EXIT_OK


def cmd_novikov(args):
    c = _load_valid_complex(args)
    verdict = novikov_check(c)
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
    s = ff.sheaf_from_dict(ff.loads(_read_input(args)))
    require_valid(s.mid)
    _write_file(args, ff.complex_to_dict(cech_complex(s)))
    return EXIT_OK


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
    _emit(args, lines, lambda: {
        "command": "dominate", "input_digest": args.input_digest,
        "w": ff.complex_to_dict(witness.w), **witness.report_fields()})
    return EXIT_OK


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
    check_rank(args.r, "r")
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


class Command(NamedTuple):
    """A command's handler and help text, the base rings its input complex
    may have (None: any) and whether it needs field coefficients: a file
    of another base, or a Z file given to a command that needs a field,
    is an input error."""
    handler: Callable[[argparse.Namespace], int]
    help: str
    bases: tuple[BaseRing, ...] | None = None
    field: bool = False


COMMANDS = {
    "validate": Command(cmd_validate, "check d.d = 0 and exponent legality"),
    "homology": Command(cmd_homology, "homology report of a complex",
                        (BaseRing.K, BaseRing.LAURENT), field=True),
    "novikov": Command(cmd_novikov, "Novikov acyclicity verdicts",
                       (BaseRing.LAURENT,)),
    "extend": Command(cmd_extend, "extend a complex to the projective line",
                      (BaseRing.LAURENT,)),
    "h0": Command(cmd_h0, "global sections of a sheaf complex"),
    "hyper": Command(cmd_hyper, "exact homology of a K[x] complex over K[[x]]",
                     (BaseRing.POLY,), field=True),
    "dominate": Command(cmd_dominate, "produce the finite-domination witness",
                        (BaseRing.LAURENT,), field=True),
    "verify": Command(cmd_verify, "full theorem pipeline with ledger",
                      (BaseRing.LAURENT,), field=True),
    "twist-cohomology": Command(
        cmd_twist_cohomology,
        "cohomology of r copies of the nth twisting sheaf"),
}


def build_parser():
    """The top-level parser and its map of command name -> own parser."""
    parser = argparse.ArgumentParser(
        prog="p1dom",
        description="exact chain-complex extension, cohomology and "
                    "Novikov/finite-domination checks")
    sub = parser.add_subparsers(dest="command", required=True)
    for name, command in COMMANDS.items():
        p = sub.add_parser(name, help=command.help)
        if name == "twist-cohomology":
            p.add_argument("n", type=int)
            p.add_argument("r", type=int, nargs="?", default=1)
            p.add_argument("--k", type=int, default=0,
                           help="twist split (k, n-k)")
        else:
            p.add_argument("input", help="input file")
        if name != "h0":
            p.add_argument("--format", choices=("human", "report"),
                           default="human")
        p.add_argument("--out",
                       help="write output to this path instead of stdout")
        p.set_defaults(command=name)
    return parser, sub.choices


PARSER, PARSERS = build_parser()


def _parse(argv):
    """The command's own parser reads argv; PARSER reports what it cannot."""
    parser = PARSERS.get(argv[0]) if argv else None
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
        return COMMANDS[args.command].handler(args)
    except (FormatError, OSError) as exc:
        # an OSError is a missing input, a directory, an unwritable --out:
        # the message names the path
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
