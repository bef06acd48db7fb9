"""Each CLI query frees what it loaded when it returns.

A query runs through cli.main with the cyclic collector off; a collection
afterwards, under gc.DEBUG_SAVEALL, must then find no object of a finring
type: reference counting alone freed the rings, sequences, spans, corners
and maps of the query, on success and on exits 1, 2 and 3.
"""
import gc
import json
import pathlib
import random

import pytest

from finring.cli import main
from finring.fixtures import FIXTURE_BUILDERS, basis_change, upper_triangular
from finring.jsonio import ring_to_obj

FIXTURE_DIR = pathlib.Path(__file__).resolve().parent.parent / "fixtures"

ONE_RING_QUERIES = [
    ["validate"],
    ["idempotents"],
    ["triangulate"],
    ["orders", "--oracle"],
    ["split"],
    ["aut"],
    ["aut", "--all"],
    ["report", "--oracle"],
]


def fx(name: str) -> str:
    return str(FIXTURE_DIR / ("%s.json" % name))


def _finring_garbage() -> list[str]:
    """The names of the finring types among the objects a collection finds
    unreachable; gc.garbage is left empty."""
    gc.set_debug(gc.DEBUG_SAVEALL)
    try:
        gc.collect()
        return sorted(
            {type(o).__qualname__ for o in gc.garbage if type(o).__module__.startswith("finring")}
        )
    finally:
        gc.set_debug(0)
        gc.garbage.clear()


def _run_alone(capsys, argv: list[str]) -> tuple[int, str, list[str]]:
    """main(argv) with the collector off: its exit code, its stdout and the
    finring types left for the collector."""
    debug, enabled = gc.get_debug(), gc.isenabled()
    gc.collect()
    gc.disable()
    try:
        code = main([str(a) for a in argv])
        left = _finring_garbage()
    finally:
        gc.set_debug(debug)
        if enabled:
            gc.enable()
    return code, capsys.readouterr().out, left


@pytest.mark.parametrize("name", sorted(FIXTURE_BUILDERS))
@pytest.mark.parametrize("query", ONE_RING_QUERIES, ids=" ".join)
def test_a_query_about_one_ring_leaves_nothing_for_the_collector(query, name, capsys):
    code, _, left = _run_alone(capsys, query + [fx(name)])
    assert code == 0
    assert left == []


def test_a_searched_map_decomposed_and_synthesized_leaves_nothing(tmp_path, capsys):
    ring = upper_triangular(4, 2, name="T4(F2)")
    a, b, map_path, decomp_path = (tmp_path / n for n in ("a.json", "b.json", "m.json", "d.json"))
    a.write_text(json.dumps(ring_to_obj(ring)))
    b.write_text(json.dumps(ring_to_obj(basis_change(ring, random.Random(0))[0])))
    code, out, left = _run_alone(capsys, ["iso-search", a, b])
    assert (code, left) == (0, [])
    map_path.write_text(json.dumps(json.loads(out)["isomorphism"]))
    code, out, left = _run_alone(capsys, ["iso-decompose", a, b, map_path])
    assert (code, left) == (0, [])
    decomp_path.write_text(out)
    code, out, left = _run_alone(capsys, ["iso-synth", a, b, decomp_path])
    assert (code, left) == (0, [])
    assert json.loads(out)["isomorphism"] == json.loads(map_path.read_text())


def test_a_search_for_every_isomorphism_leaves_nothing(capsys):
    code, out, left = _run_alone(capsys, ["iso-search", "--all", fx("z6"), fx("z2xz3")])
    assert (code, left) == (0, [])
    assert json.loads(out)["count"] == 1


def test_a_decomposed_map_file_leaves_nothing(capsys):
    inner = FIXTURE_DIR / "maps" / "t2_f2_inner.json"
    code, _, left = _run_alone(capsys, ["iso-decompose", fx("t2_f2"), fx("t2_f2"), inner])
    assert (code, left) == (0, [])


def test_queries_that_fail_leave_nothing(tmp_path, capsys):
    # exit 2: the rings are loaded and triangulated before the map file is read
    code, _, left = _run_alone(capsys, ["iso-decompose", fx("z6"), fx("z6"), tmp_path / "none"])
    assert (code, left) == (2, [])
    # exit 3: a sweep is refused at the cap
    code, _, left = _run_alone(capsys, ["aut", "--cap", "4", fx("t2_f2")])
    assert (code, left) == (3, [])
    # exit 1: well-shaped layer data that is no isomorphism
    inner = FIXTURE_DIR / "maps" / "t2_f2_inner.json"
    code, out, left = _run_alone(capsys, ["iso-decompose", fx("t2_f2"), fx("t2_f2"), inner])
    assert (code, left) == (0, [])
    doctored = dict(json.loads(out), last_rho={"images": [[0]]})
    path = tmp_path / "d.json"
    path.write_text(json.dumps(doctored))
    code, _, left = _run_alone(capsys, ["iso-synth", fx("t2_f2"), fx("t2_f2"), path])
    assert (code, left) == (1, [])
