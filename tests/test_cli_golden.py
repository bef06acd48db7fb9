"""CLI output is pinned byte for byte by tests/cli_golden.json.

Each entry is one SHA-256 over a group of in-process CLI invocations: one
group per (subcommand, flags) over the nine fixture files, and one per
iso-search flag set over all 81 ordered fixture pairs.  A digest covers the
argv, exit code, stdout and stderr of each invocation in its group.  Paths
are relative to the repository root, and report's "timings" object is cut
from stdout, since it is the only part that varies from run to run.

A change that is meant to keep every output byte-identical must pass this
test unchanged.  A change that alters output on purpose regenerates the file
from the repository root and says so:

    PYTHONPATH=src:tests python -c "import test_cli_golden as g; g.write_golden()"
"""
from __future__ import annotations

import contextlib
import hashlib
import io
import json
import os
import pathlib
import re

from finring.cli import main
from finring.fixtures import FIXTURE_BUILDERS

ROOT = pathlib.Path(__file__).resolve().parent.parent
GOLDEN = ROOT / "tests" / "cli_golden.json"
FIXTURES = ["fixtures/%s.json" % name for name in sorted(FIXTURE_BUILDERS)]
INNER_MAP = "fixtures/maps/t2_f2_inner.json"

SINGLE = {
    "validate": [(), ("--format", "text")],
    "idempotents": [(), ("--oracle",), ("--format", "text"), ("--cap", "8")],
    "triangulate": [(), ("--oracle",), ("--format", "text"), ("--cap", "8")],
    "orders": [(), ("--oracle",), ("--format", "text"), ("--cap", "8")],
    "split": [(), ("--format", "text"), ("--cap", "8")],
    "aut": [(), ("--oracle",), ("--all",), ("--all", "--oracle"), ("--format", "text"),
            ("--cap", "8")],
    "report": [(), ("--oracle",), ("--oracle", "--format", "text"), ("--cap", "8")],
    "iso-decompose": [()],
}
PAIRS = [(), ("--oracle",), ("--all",), ("--all", "--oracle"), ("--format", "text"),
         ("--oracle", "--format", "text"), ("--cap", "8")]

_TIMINGS = re.compile(r',"timings":\{[^{}]*\}\}\n$')


def _invoke(argv: list[str]) -> list:
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = main(argv)
        except SystemExit as exc:
            code = exc.code
    stdout = out.getvalue()
    if argv[0] == "report" and code == 0 and "--format" not in argv:
        stdout, n = _TIMINGS.subn("}\n", stdout)
        assert n == 1, stdout
    return [argv, code, stdout, err.getvalue()]


def _groups():
    for command, flag_sets in SINGLE.items():
        for flags in flag_sets:
            key = " ".join((command,) + flags)
            if command == "iso-decompose":
                yield key, [[command, *flags, f, f, INNER_MAP] for f in FIXTURES]
            else:
                yield key, [[command, *flags, f] for f in FIXTURES]
    for flags in PAIRS:
        key = " ".join(("iso-search",) + flags)
        yield key, [["iso-search", *flags, a, b] for a in FIXTURES for b in FIXTURES]


def digests() -> dict[str, str]:
    """Run every group from the repository root; map each key to its digest."""
    result = {}
    cwd = os.getcwd()
    os.chdir(ROOT)
    try:
        for key, calls in _groups():
            h = hashlib.sha256()
            for argv in calls:
                h.update(json.dumps(_invoke(argv)).encode() + b"\n")
            result[key] = h.hexdigest()
    finally:
        os.chdir(cwd)
    return result


def write_golden() -> None:
    GOLDEN.write_text(json.dumps(digests(), indent=1, sort_keys=True) + "\n")


def test_cli_output_matches_the_golden_digests():
    want = json.loads(GOLDEN.read_text())
    got = digests()
    assert sorted(got) == sorted(want)
    assert [k for k in sorted(want) if got[k] != want[k]] == []
