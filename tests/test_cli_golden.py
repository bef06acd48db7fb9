"""CLI output is pinned byte for byte by tests/cli_golden.json and
tests/cli_golden_ladder.json.

Each entry is one SHA-256 over a group of in-process CLI invocations: one
group per (subcommand, flags) over the nine fixture files, and one per
iso-search flag set over all 81 ordered fixture pairs.  A digest covers the
argv, exit code, stdout and stderr of each invocation in its group.  Paths
are relative to the repository root, and report's "timings" object is cut
from stdout, since it is the only part that varies from run to run.

The ladder file pins the same way a few larger rings that the fixtures do
not reach: T4(F2), T3(Z4), T2(Z9), M2(F2), M2(F3), F16, F2^7 and the
one-element ring, with seeded basis-changed copies of the first four.  They
are written as ring files under fixed names into a scratch directory, and
the CLI runs from there, so stderr names the same files on every run.

A change that is meant to keep every output byte-identical must pass this
test unchanged.  A change that alters output on purpose regenerates the
files from the repository root and says so:

    PYTHONPATH=src:tests python -c "import test_cli_golden as g; g.write_golden()"
"""
from __future__ import annotations

import contextlib
import hashlib
import io
import json
import os
import pathlib
import random
import re
import tempfile

from finring.cli import main
from finring.fixtures import (
    FIXTURE_BUILDERS,
    basis_change,
    cyclic,
    matrix_ring,
    poly_quotient,
    product,
    upper_triangular,
    zero_ring,
)
from finring.jsonio import ring_to_obj
from finring.presentation import RingPresentation

ROOT = pathlib.Path(__file__).resolve().parent.parent
GOLDEN = ROOT / "tests" / "cli_golden.json"
LADDER_GOLDEN = ROOT / "tests" / "cli_golden_ladder.json"
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


def _ladder_rings() -> dict[str, RingPresentation]:
    """File name -> ring.  The copies are on a random basis of GL_k(Z_n),
    seeded by the ring's order."""
    rings = {
        "t4_f2.json": upper_triangular(4, 2),
        "t3_z4.json": upper_triangular(3, 4),
        "t2_z9.json": upper_triangular(2, 9),
        "m2_f2.json": matrix_ring(2, 2),
    }
    for name, ring in list(rings.items()):
        rings[name.replace(".json", "_basis.json")] = basis_change(
            ring, random.Random(ring.order)
        )[0]
    f2_7 = cyclic(2)
    for _ in range(6):
        f2_7 = product(f2_7, cyclic(2))
    rings.update({
        "m2_f3.json": matrix_ring(2, 3),
        "f16.json": poly_quotient([1, 1, 0, 0]),
        "zero.json": zero_ring(name="0"),
        "f2_7.json": f2_7,
    })
    return rings


def _ladder_groups(rings: dict[str, RingPresentation]):
    names = [n for n in rings if n != "f2_7.json"]
    small = [n for n in names if rings[n].order <= 729]
    copies = [(n.replace("_basis", ""), n) for n in names if "_basis" in n]
    for command in ("triangulate", "split", "aut"):
        yield command, [[command, n] for n in names]
    yield "orders", [["orders", n] for n in rings]
    yield "aut --all", [["aut", "--all", n] for n in small]
    yield "iso-search", [["iso-search", a, b] for a, b in copies]
    yield "iso-search --all", [["iso-search", "--all", "t2_z9.json", "t2_z9_basis.json"]]
    yield "report", [["report", n] for n in small]
    yield "report --oracle", [["report", "--oracle", n] for n in small]


def _run_groups(groups, where) -> dict[str, str]:
    """Run every group from the directory where; map each key to its digest."""
    result = {}
    cwd = os.getcwd()
    os.chdir(where)
    try:
        for key, calls in groups:
            h = hashlib.sha256()
            for argv in calls:
                h.update(json.dumps(_invoke(argv)).encode() + b"\n")
            result[key] = h.hexdigest()
    finally:
        os.chdir(cwd)
    return result


def digests() -> dict[str, str]:
    return _run_groups(_groups(), ROOT)


def ladder_digests() -> dict[str, str]:
    rings = _ladder_rings()
    with tempfile.TemporaryDirectory() as where:
        for name, ring in rings.items():
            pathlib.Path(where, name).write_text(json.dumps(ring_to_obj(ring)))
        return _run_groups(_ladder_groups(rings), where)


def write_golden() -> None:
    for path, got in ((GOLDEN, digests()), (LADDER_GOLDEN, ladder_digests())):
        path.write_text(json.dumps(got, indent=1, sort_keys=True) + "\n")


def _assert_matches(path: pathlib.Path, got: dict[str, str]) -> None:
    want = json.loads(path.read_text())
    assert sorted(got) == sorted(want)
    assert [k for k in sorted(want) if got[k] != want[k]] == []


def test_cli_output_matches_the_golden_digests():
    _assert_matches(GOLDEN, digests())


def test_cli_output_on_the_ladder_matches_its_golden_digests():
    _assert_matches(LADDER_GOLDEN, ladder_digests())
