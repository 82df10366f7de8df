"""Byte-stable reports: ``--format report`` on every file in samples/.

Every complex file (``*.cplx``) runs through each command in COMMANDS and
every sheaf file (``*.sheaf``) through ``h0``, which writes its complex
file whatever the format and so takes no ``--format``.

Each command's stdout, stderr and exit code are compared exactly with the
copies stored under tests/golden/.  After a declared change to a report,
rewrite the copies with

    PYTHONPATH=src python tests/test_golden.py --write
"""

import contextlib
import io
import json
import sys
from pathlib import Path

import pytest

from p1dom.cli import main

ROOT = Path(__file__).resolve().parent.parent
SAMPLES = sorted((ROOT / "samples").glob("*.cplx"))
GOLDEN = Path(__file__).resolve().parent / "golden"
COMMANDS = ("verify", "dominate", "hyper", "homology", "novikov", "extend",
            "validate")
SHEAF_SAMPLES = sorted((ROOT / "samples").glob("*.sheaf"))
CASES = ([(s, c) for s in SAMPLES for c in COMMANDS]
         + [(s, "h0") for s in SHEAF_SAMPLES])


def _name(sample, command):
    return f"{sample.stem}.{command}"


def run_report(sample, command):
    """(exit code, stdout, stderr) of one report run."""
    argv = ([command] + ([] if command == "h0" else ["--format", "report"])
            + [str(sample)])
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(argv)
    return code, out.getvalue(), err.getvalue()


def _load_manifest():
    return json.loads((GOLDEN / "manifest.json").read_text(encoding="utf-8"))


def test_golden_covers_every_sample():
    assert SAMPLES and SHEAF_SAMPLES
    assert sorted(_load_manifest()) == sorted(_name(s, c) for s, c in CASES)


@pytest.mark.parametrize("sample,command", CASES,
                         ids=[_name(s, c) for s, c in CASES])
def test_report_bytes_match_golden(sample, command):
    expected = _load_manifest()[_name(sample, command)]
    code, out, err = run_report(sample, command)
    stored = (GOLDEN / f"{_name(sample, command)}.out").read_bytes()
    assert out.encode("utf-8") == stored
    assert err == expected["stderr"]
    assert code == expected["exit"]


def write_golden():
    GOLDEN.mkdir(exist_ok=True)
    manifest = {}
    for sample, command in CASES:
        code, out, err = run_report(sample, command)
        name = _name(sample, command)
        (GOLDEN / f"{name}.out").write_bytes(out.encode("utf-8"))
        manifest[name] = {"exit": code, "stderr": err}
    (GOLDEN / "manifest.json").write_text(
        json.dumps(manifest, indent=2, sort_keys=True) + "\n",
        encoding="utf-8")


if __name__ == "__main__":
    if sys.argv[1:] != ["--write"]:
        sys.exit("usage: PYTHONPATH=src python tests/test_golden.py --write")
    write_golden()
