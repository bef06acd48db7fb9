import json
import pathlib
from functools import reduce

import pytest

from finring import cli, jsonio, morphisms, oracle, triangulate
from finring.cli import main
from finring.errors import CapExceeded
from finring.fixtures import FIXTURE_BUILDERS, f2, matrix_ring, poly_quotient, product
from finring.jsonio import ring_to_obj
from finring.sequences import TriangularSequence
from test_structure import SPLITS

FIXTURE_DIR = pathlib.Path(__file__).resolve().parent.parent / "fixtures"


def fx(name: str) -> str:
    return str(FIXTURE_DIR / ("%s.json" % name))


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    payload = json.loads(captured.out) if captured.out.startswith("{") else None
    return code, payload, captured


def test_validate(capsys):
    code, payload, cap = run(capsys, "validate", fx("z6"), fx("t3_f2"))
    assert code == 0
    assert [r["order"] for r in payload["rings"]] == [6, 64]
    assert payload["rings"][0]["name"] == "Z6"
    assert "valid presentation" in cap.err


def test_validate_rejects_malformed(tmp_path, capsys):
    assert run(capsys, "validate", str(tmp_path / "missing.json"))[0] == 2
    bad = tmp_path / "bad.json"
    bad.write_text("{not json")
    assert run(capsys, "validate", str(bad))[0] == 2
    unreduced = tmp_path / "unreduced.json"
    unreduced.write_text(json.dumps({"orders": [2], "mul": [[[3]]], "one": [1]}))
    assert run(capsys, "validate", str(unreduced))[0] == 2
    # JSON booleans are not integers, even though Python's bool is an int
    booleans = tmp_path / "booleans.json"
    booleans.write_text(json.dumps({"orders": [2], "mul": [[[True]]], "one": [True]}))
    assert run(capsys, "validate", str(booleans))[0] == 2


@pytest.mark.parametrize("mul", [5, [5], None, {"a": 1}, "x"], ids=repr)
def test_validate_rejects_a_mul_of_the_wrong_shape(tmp_path, capsys, mul):
    path = tmp_path / "ring.json"
    path.write_text(json.dumps({"orders": [2], "mul": mul, "one": [1]}))
    code, _, cap = run(capsys, "validate", str(path))
    assert code == 2 and cap.err.startswith("error: %s: " % path), cap.err
    assert "mul" in cap.err


def _undecodable_files(tmp_path):
    """A file that is not UTF-8 (it starts with a UTF-16 byte order mark) and
    one nested past the JSON decoder's recursion limit."""
    utf16 = tmp_path / "utf16.json"
    utf16.write_bytes(b"\xff\xfe{}")
    deep = tmp_path / "deep.json"
    deep.write_text("[" * 200000)
    return [(utf16, "not UTF-8 text"), (deep, "invalid JSON")]


def test_undecodable_files_exit_2(tmp_path, capsys):
    for path, reason in _undecodable_files(tmp_path):
        code, _, cap = run(capsys, "validate", str(path))
        assert code == 2 and cap.err.startswith("error: %s: %s" % (path, reason)), cap.err
        code, _, cap = run(capsys, "iso-decompose", fx("z6"), fx("z6"), str(path))
        assert code == 2 and cap.err.startswith("error: %s: %s" % (path, reason)), cap.err


def test_idempotents(capsys):
    code, payload, _ = run(capsys, "idempotents", "--oracle", fx("t2_f2"))
    assert code == 0
    assert payload["count"] == 6
    assert len(payload["semicentral"]) == 4
    assert [1, 0, 0] in payload["semicentral"]
    assert payload["oracle"] == "agree"


def test_triangulate_golden(capsys):
    code, payload, _ = run(capsys, "triangulate", "--oracle", fx("z6"))
    assert code == 0
    assert payload["m"] == 2
    assert payload["sequence"] == [[3], [4]]
    assert payload["corner_orders"] == [2, 3]
    assert payload["oracle"] == "agree"


def test_orders_and_split(capsys, monkeypatch):
    # the order-free facts are decided once for all 6 orders
    calls = []
    brute = cli.brute_triangular_check

    def counted(*args, **kwargs):
        calls.append(args)
        return brute(*args, **kwargs)

    monkeypatch.setattr(cli, "brute_triangular_check", counted)
    code, payload, _ = run(capsys, "orders", "--oracle", fx("three_block"))
    assert code == 0
    assert payload["admissible"] == [[1, 2, 3], [1, 3, 2], [3, 1, 2]]
    assert payload["oracle"] == "agree"
    assert len(calls) == 1

    for name in FIXTURE_BUILDERS:
        code, payload, _ = run(capsys, "split", fx(name))
        assert code == 0, name
        assert payload["splits"] == [j + 1 for j in SPLITS[name]], name


def test_aut(capsys):
    code, payload, _ = run(capsys, "aut", "--all", "--oracle", fx("t2_z4"))
    assert code == 0
    assert payload["aut_order"] == 8
    mats = payload["automorphisms"]
    assert len(mats) == 8
    assert mats == sorted(mats)
    assert payload["oracle"] == "agree"


@pytest.mark.parametrize("name", sorted(FIXTURE_BUILDERS))
def test_aut_count_and_enumeration_print_the_same_order(capsys, name):
    orders = []
    for flags in ((), ("--all",), ("--oracle",)):
        code, payload, _ = run(capsys, "aut", *flags, fx(name))
        assert code == 0
        orders.append(payload["aut_order"])
    assert orders[0] == orders[1] == orders[2]
    assert payload["oracle"] in ("agree", "skipped")


def test_iso_search_all_hashes_each_ring_once(capsys, monkeypatch):
    # every map of --all names both endpoints by hash; the ring keeps its
    # digest, so each ring object is hashed once
    digested = []
    original = jsonio._digest

    def counted(ring):
        digested.append(ring)
        return original(ring)

    monkeypatch.setattr(jsonio, "_digest", counted)
    code, payload, _ = run(capsys, "iso-search", "--all", fx("t2_z4"), fx("t2_z4"))
    assert code == 0
    assert payload["count"] == 8
    assert len(digested) == len({id(ring) for ring in digested}) == 2


def test_iso_search(capsys):
    code, payload, _ = run(capsys, "iso-search", fx("z6"), fx("z2xz3"))
    assert code == 0
    assert payload["found"] is True
    assert payload["isomorphism"]["images"] == [[1, 1]]

    code, payload, _ = run(capsys, "iso-search", "--all", "--oracle", fx("z6"), fx("z2xz3"))
    assert payload["count"] == 1
    assert payload["oracle"] == "agree"

    code, payload, cap = run(capsys, "iso-search", fx("f4"), fx("z4"))
    assert code == 0
    assert payload["found"] is False
    assert "not isomorphic" in cap.err


def test_iso_decompose_golden(capsys):
    code, payload, _ = run(
        capsys,
        "iso-decompose",
        fx("t2_f2"),
        fx("t2_f2"),
        str(FIXTURE_DIR / "maps" / "t2_f2_inner.json"),
    )
    assert code == 0
    assert payload["sigma"] == [1, 2]
    assert payload["layers"][0]["m"] == [0, 1, 0]
    assert payload["last_rho"] == {"images": [[1]]}


def test_iso_synth_roundtrip(tmp_path, capsys):
    _, decomp, _ = run(
        capsys,
        "iso-decompose",
        fx("t2_f2"),
        fx("t2_f2"),
        str(FIXTURE_DIR / "maps" / "t2_f2_inner.json"),
    )
    decomp_path = tmp_path / "d.json"
    decomp_path.write_text(json.dumps(decomp))
    code, payload, _ = run(capsys, "iso-synth", fx("t2_f2"), fx("t2_f2"), str(decomp_path))
    assert code == 0
    want = json.loads((FIXTURE_DIR / "maps" / "t2_f2_inner.json").read_text())
    assert payload["isomorphism"]["images"] == want["images"]


def test_iso_synth_error_codes(tmp_path, capsys):
    _, decomp, _ = run(
        capsys,
        "iso-decompose",
        fx("t2_f2"),
        fx("t2_f2"),
        str(FIXTURE_DIR / "maps" / "t2_f2_inner.json"),
    )
    # malformed sigma is an input problem
    broken = dict(decomp, sigma=[1, 3])
    path = tmp_path / "broken.json"
    path.write_text(json.dumps(broken))
    assert run(capsys, "iso-synth", fx("t2_f2"), fx("t2_f2"), str(path))[0] == 2
    # well-shaped but non-isomorphic layer data is a domain error
    doctored = json.loads(json.dumps(decomp))
    doctored["last_rho"] = {"images": [[0]]}
    path.write_text(json.dumps(doctored))
    assert run(capsys, "iso-synth", fx("t2_f2"), fx("t2_f2"), str(path))[0] == 1


def test_iso_synth_inadmissible_sigma_is_a_domain_error(tmp_path, capsys):
    ident = {
        "domain": {"name": "T3(F2)"},
        "codomain": {"name": "T3(F2)"},
        "images": [[int(i == j) for j in range(6)] for i in range(6)],
    }
    map_path = tmp_path / "id.json"
    map_path.write_text(json.dumps(ident))
    code, decomp, _ = run(capsys, "iso-decompose", fx("t3_f2"), fx("t3_f2"), str(map_path))
    assert code == 0 and decomp["sigma"] == [1, 2, 3]
    # the layers stay those of sigma = id, so they do not fit the swapped
    # blocks; sigma is refused before any layer is read against them
    path = tmp_path / "swapped.json"
    path.write_text(json.dumps(dict(decomp, sigma=[2, 1, 3])))
    code, _, cap = run(capsys, "iso-synth", fx("t3_f2"), fx("t3_f2"), str(path))
    assert code == 1
    assert "InadmissiblePermutation" in cap.err


def test_iso_decompose_rejects_non_isomorphism(tmp_path, capsys):
    ring_obj = json.loads(pathlib.Path(fx("t2_f2")).read_text())
    bad_map = {
        "domain": {"name": ring_obj["name"]},
        "codomain": {"name": ring_obj["name"]},
        "images": [[0, 0, 0], [0, 0, 0], [0, 0, 0]],
    }
    path = tmp_path / "zero.json"
    path.write_text(json.dumps(bad_map))
    code, _, cap = run(capsys, "iso-decompose", fx("t2_f2"), fx("t2_f2"), str(path))
    assert code == 1
    assert "error" in cap.err


def test_cap_exit_code(capsys):
    assert run(capsys, "aut", "--cap", "4", fx("t2_f2"))[0] == 3
    assert run(capsys, "idempotents", "--cap", "4", fx("t2_f2"))[0] == 3


def _ring_file(tmp_path, ring) -> str:
    path = tmp_path / "ring.json"
    path.write_text(json.dumps(ring_to_obj(ring)))
    return str(path)


@pytest.mark.parametrize("p", [2, 3])
def test_aut_of_matrix_rings(tmp_path, capsys, p):
    # |Aut(M2(F_p))| = p(p^2 - 1); M2(F3) needs the pruned corner search
    code, payload, _ = run(capsys, "aut", _ring_file(tmp_path, matrix_ring(2, p)))
    assert code == 0
    assert payload["aut_order"] == p * (p * p - 1)


def test_permutation_guard_exits_3_and_names_the_stage(tmp_path, capsys):
    # F2^9 has 512 elements, under the default cap, and 9 blocks
    ring = reduce(product, [f2() for _ in range(9)])
    code, _, cap = run(capsys, "orders", _ring_file(tmp_path, ring))
    assert code == 3
    assert "block permutation guard" in cap.err


def test_search_caps_exit_3_and_name_the_stage(tmp_path, capsys, monkeypatch):
    monkeypatch.setattr(morphisms, "CORNER_SEARCH_CAP", 8)
    code, _, cap = run(capsys, "aut", _ring_file(tmp_path, poly_quotient([1, 1, 0, 0])))
    assert code == 3
    assert "corner isomorphism search" in cap.err
    monkeypatch.setattr(morphisms, "CORNER_SEARCH_CAP", 3)
    code, _, cap = run(capsys, "aut", fx("t3_f2"))
    assert code == 3
    assert "row map search" in cap.err


def test_report_deterministic(capsys):
    code, first, _ = run(capsys, "report", "--oracle", fx("z6"))
    assert code == 0
    _, second, _ = run(capsys, "report", "--oracle", fx("z6"))
    assert first["report"] == second["report"]
    assert first["report"]["aut_order"] == 1
    assert first["report"]["splits"] == [1, 2]
    assert first["report"]["oracle"] == {
        "aut": "agree",
        "semicentral": "agree",
        "triangular": "agree",
    }
    assert set(first["timings"]) == {"idempotents", "triangulate", "orders", "split", "aut"}


def test_report_triangulates_its_ring_once(capsys, monkeypatch):
    # the Aut(A) enumeration reads the sequence report built, which the
    # ring keeps: one sequence is constructed per report
    build = TriangularSequence.build.__func__
    rings = []

    def counted(cls, ring, idems, cap=None):
        rings.append(ring)
        return build(cls, ring, idems, cap)

    monkeypatch.setattr(TriangularSequence, "build", classmethod(counted))
    for name in sorted(FIXTURE_BUILDERS):
        rings.clear()
        code, payload, _ = run(capsys, "report", "--oracle", fx(name))
        assert code == 0
        assert payload["report"]["aut_order"] >= 1
        assert len(rings) == 1, name


def test_stdout_is_canonical_and_stable(capsys):
    code, _, cap1 = run(capsys, "triangulate", fx("t3_f2"))
    assert code == 0
    _, _, cap2 = run(capsys, "triangulate", fx("t3_f2"))
    assert cap1.out == cap2.out
    assert cap1.out.endswith("\n")
    assert " " not in cap1.out.strip()


def test_text_format(capsys):
    code, payload, cap = run(capsys, "triangulate", "--format", "text", fx("z6"))
    assert code == 0
    assert payload is None
    assert "complete left-triangulating set of length 2" in cap.out


def _outcome(capsys, argv):
    try:
        code = main(list(argv))
    except SystemExit as exc:
        code = exc.code
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_shared_parser_answers_like_a_fresh_one(tmp_path, capsys):
    # The parser is built once per process; each call must still answer as
    # if it had been built anew, whatever the calls before it did.
    malformed = tmp_path / "malformed.json"
    malformed.write_text(json.dumps({"orders": [2], "mul": [[[3]]], "one": [1]}))
    calls = [
        ["iso-search", "--format", "yaml", fx("z6"), fx("z2xz3")],
        ["iso-search", str(malformed), fx("z6")],
        ["iso-search", "--all", fx("z6"), fx("z2xz3")],
        ["iso-search", fx("z6"), fx("z2xz3")],
    ]
    cli._build_parser.cache_clear()
    shared = [_outcome(capsys, argv) for argv in calls]
    assert cli._build_parser() is cli._build_parser()
    fresh = []
    for argv in calls:
        cli._build_parser.cache_clear()
        fresh.append(_outcome(capsys, argv))
    assert shared == fresh
    assert [code for code, _out, _err in shared] == [2, 2, 0, 0]
    assert '"count":1' in shared[2][1] and '"count"' not in shared[3][1]


def test_unknown_subcommand_exits_2(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["frobnicate"])
    assert exc.value.code == 2


@pytest.mark.parametrize(
    "argv, message",
    [
        (["split", "--oracle", fx("z6")], "unrecognized arguments: --oracle"),
        (["validate", "--all", fx("z6")], "unrecognized arguments: --all"),
        (["report", "--all", fx("z6")], "unrecognized arguments: --all"),
        (["iso-decompose", "--oracle", fx("t2_f2"), fx("t2_f2"),
          str(FIXTURE_DIR / "maps" / "t2_f2_inner.json")], "unrecognized arguments: --oracle"),
        (["aut", "--cap", "0", fx("f2")], "argument --cap: N must be at least 1, got 0"),
        (["aut", "--cap", "-1", fx("f2")], "argument --cap: N must be at least 1, got -1"),
    ],
    ids=["split-oracle", "validate-all", "report-all", "iso-decompose-oracle",
         "aut-cap-0", "aut-cap-negative"],
)
def test_option_a_subcommand_does_not_read_exits_2(argv, message, capsys):
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == 2
    assert message in capsys.readouterr().err


def test_oracle_passes_on_whole_corpus(capsys):
    # the only permitted non-"agree" outcome is a cap-skipped sweep
    for path in sorted(FIXTURE_DIR.glob("*.json")):
        code, payload, _ = run(capsys, "report", "--oracle", str(path))
        assert code == 0, path.name
        checks = payload["report"]["oracle"]
        assert set(checks.values()) <= {"agree", "skipped"}, (path.name, checks)
        assert checks["semicentral"] == "agree"
        assert checks["triangular"] == "agree"


def _cap_exceeded(*_args, **_kwargs):
    raise CapExceeded(2048, 1024, "oracle element sweep")


# (argv, the brute-force function cli imports, a wrong answer for it, the
# disagreement named on stderr)
ORACLE_CASES = [
    (["idempotents", "--oracle", fx("t2_f2")], "brute_semicentral_list", [],
     "semicentral list"),
    (["triangulate", "--oracle", fx("t3_f2")], "brute_triangular_check", False,
     "triangulating sequence"),
    (["orders", "--oracle", fx("three_block")], "brute_triangular_check", False,
     "admissibility of (0, 1, 2)"),
    (["aut", "--oracle", fx("t2_z4")], "brute_aut_count", 0, "automorphism count"),
    (["aut", "--all", "--oracle", fx("t2_z4")], "brute_aut_count", 0, "automorphism count"),
    (["iso-search", "--oracle", fx("z6"), fx("z2xz3")], "brute_isos", [],
     "isomorphism existence"),
    (["iso-search", "--all", "--oracle", fx("z6"), fx("z2xz3")], "brute_isos", [],
     "isomorphism list"),
]
ORACLE_IDS = ["idempotents", "triangulate", "orders", "aut", "aut-all", "iso-search",
              "iso-search-all"]


@pytest.mark.parametrize("argv, brute, wrong, what", ORACLE_CASES, ids=ORACLE_IDS)
def test_oracle_disagreement_exits_1_with_nothing_on_stdout(
    argv, brute, wrong, what, capsys, monkeypatch
):
    monkeypatch.setattr(cli, brute, lambda *_args, **_kwargs: wrong)
    code, out, err = _outcome(capsys, argv)
    assert code == 1
    assert out == ""
    assert err == "error: StructureViolation: oracle disagrees with engine on %s\n" % what


def test_orders_oracle_tests_each_lower_component_of_each_order(capsys, monkeypatch):
    # e_1*A*e_2 (0-based) is a lower component of (0, 2, 1), the first
    # admissible order in lexicographic order that has it
    ring = cli._load_ring(fx("three_block"))
    idems = triangulate.complete_triangulating_set(ring).idems
    vanishes = oracle.BrutePeirceTable.vanishes

    def planted(table, e, f):
        return (e, f) != (idems[1], idems[2]) and vanishes(table, e, f)

    monkeypatch.setattr(oracle.BrutePeirceTable, "vanishes", planted)
    code, out, err = _outcome(capsys, ["orders", "--oracle", fx("three_block")])
    assert code == 1
    assert out == ""
    assert err == (
        "error: StructureViolation: oracle disagrees with engine on admissibility of (0, 2, 1)\n"
    )


@pytest.mark.parametrize("argv, brute, wrong, what", ORACLE_CASES, ids=ORACLE_IDS)
def test_oracle_over_its_cap_is_skipped(argv, brute, wrong, what, capsys, monkeypatch):
    monkeypatch.setattr(cli, brute, _cap_exceeded)
    code, payload, cap = run(capsys, *argv)
    assert code == 0
    assert payload["oracle"] == "skipped"
    assert cap.err.splitlines()[-1] == "oracle: skipped"


@pytest.mark.parametrize(
    "brute, wrong, what",
    [
        ("brute_semicentral_list", [], "semicentral list"),
        ("brute_triangular_check", False, "triangulating sequence"),
        ("brute_aut_count", 0, "automorphism count"),
    ],
    ids=["semicentral", "triangular", "aut"],
)
def test_report_oracle_disagreement_exits_1(brute, wrong, what, capsys, monkeypatch):
    monkeypatch.setattr(cli, brute, lambda *_args, **_kwargs: wrong)
    code, out, err = _outcome(capsys, ["report", "--oracle", fx("t2_f2")])
    assert code == 1
    assert out == ""
    assert err == "error: StructureViolation: oracle disagrees with engine on %s\n" % what


def test_report_oracle_over_its_caps_is_skipped(capsys, monkeypatch):
    monkeypatch.setattr(cli, "brute_aut_count", _cap_exceeded)
    code, payload, cap = run(capsys, "report", "--oracle", fx("t2_f2"))
    assert code == 0
    assert payload["report"]["oracle"] == {
        "aut": "skipped", "semicentral": "agree", "triangular": "agree",
    }
    assert cap.err.splitlines()[-1] == "oracle: aut skipped, semicentral agree, triangular agree"
    for brute in ("brute_semicentral_list", "brute_triangular_check"):
        monkeypatch.setattr(cli, brute, _cap_exceeded)
    code, payload, cap = run(capsys, "report", "--oracle", fx("t2_f2"))
    assert code == 0
    assert payload["report"]["oracle"] == dict.fromkeys(("aut", "semicentral", "triangular"),
                                                        "skipped")
    assert cap.err.splitlines()[-1] == (
        "oracle: aut skipped, semicentral skipped, triangular skipped"
    )
