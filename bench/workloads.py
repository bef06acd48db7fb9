"""The benchmark's workloads: ring files, CLI queries and known answers.

A workload is built once per process by `build` (generate ring objects,
write them as ring files, load each back through `finring.jsonio`).  Each
pass over it is a generator from `queries`: it yields `Query` objects and is
sent back the parsed stdout of each one (None when the query was refused),
so later queries can use files derived from earlier answers.

Every query carries a check against an answer known independently of the
engine: closed-form automorphism counts, a re-verification of returned maps,
byte-equal synthesis round trips, and oracle agreement.
"""
from __future__ import annotations

import json
import os
import random
from dataclasses import dataclass, field
from math import gcd
from typing import Callable

import rings

WORKLOADS = ("aut_ladder", "iso_pairs", "report_oracle")

FIXTURE_NAMES = ("z6", "f2", "f4", "z4", "t2_f2", "t2_z4", "t3_f2", "z2xz3", "three_block")


class WrongAnswer(Exception):
    """A query returned something other than its known answer."""


def totient(m: int) -> int:
    return sum(1 for u in range(1, m + 1) if gcd(u, m) == 1)


def kezlan(n: int, m: int) -> int:
    """|Aut(T_n(Z_m))| = phi(m)^(n-1) * m^(n(n-1)/2); all automorphisms are
    inner (Kezlan, Linear Algebra Appl. 1990)."""
    return totient(m) ** (n - 1) * m ** (n * (n - 1) // 2)


# Aut orders of the fixture corpus: Z_n, Z2xZ3 = Z6 and F2 have only the
# identity, Gal(F4/F2) has order 2, T_n(Z_m) follow Kezlan, and three_block
# is F2 x T2(F2).
FIXTURE_AUT = {
    "z6": 1, "f2": 1, "f4": 2, "z4": 1, "t2_f2": kezlan(2, 2), "t2_z4": kezlan(2, 4),
    "t3_f2": kezlan(3, 2), "z2xz3": 1, "three_block": kezlan(2, 2),
}


@dataclass
class Query:
    argv: list[str]
    check: Callable[[dict], None]
    # the seed commit refuses this query (exit 3); an answer is still checked
    refusal_ok: bool = False


@dataclass
class RingFile:
    path: str
    ring: object  # finring.RingPresentation
    hash: str


@dataclass
class Workload:
    name: str
    workdir: str
    files: dict[str, RingFile] = field(default_factory=dict)

    def hashes(self) -> dict[str, str]:
        return {label: f.hash for label, f in self.files.items()}


def _canonical(obj) -> str:
    return json.dumps(obj, sort_keys=True, separators=(",", ":"))


def _ring_objects(name: str, seed: int, fixtures_dir: str) -> dict[str, dict]:
    if name == "aut_ladder":
        return {
            "T2(Z8)": rings.upper_triangular(2, 8),
            "T2(Z9)": rings.upper_triangular(2, 9),
            "T4(F2)": rings.upper_triangular(4, 2),
            "M2(F2)": rings.matrix_ring(2, 2),
            "F16": rings.poly_quotient(2, [1, 1, 0, 0], "F16"),
            "M2(F3)": rings.matrix_ring(2, 3),
        }
    if name == "iso_pairs":
        rng = random.Random(seed)
        base = {
            "T4(F2)": rings.upper_triangular(4, 2),
            "T3(Z4)": rings.upper_triangular(3, 4),
            "T2(Z9)": rings.upper_triangular(2, 9),
            "M2(F2)": rings.matrix_ring(2, 2),
            "F2[x,y]/(x^2,y^2)": rings.dual_square(),
        }
        objs = dict(base)
        for label, obj in base.items():
            objs[label + "'"] = rings.basis_change(obj, rng)
        objs["F16"] = rings.poly_quotient(2, [1, 1, 0, 0], "F16")
        objs["F2[x]/(x^4)"] = rings.poly_quotient(2, [0, 0, 0, 0], "F2[x]/(x^4)")
        return objs
    if name == "report_oracle":
        out = {}
        for label in FIXTURE_NAMES:
            with open(os.path.join(fixtures_dir, label + ".json"), encoding="utf-8") as fh:
                out[label] = json.load(fh)
        return out
    raise ValueError("unknown workload %r" % name)


def build(name: str, seed: int, workdir: str, fixtures_dir: str) -> Workload:
    """Generate the workload's rings, write them as ring files in workdir and
    load each file back through finring.jsonio."""
    from finring.jsonio import ring_from_obj, ring_hash

    wl = Workload(name, workdir)
    for i, (label, obj) in enumerate(_ring_objects(name, seed, fixtures_dir).items()):
        path = os.path.join(workdir, "ring%02d.json" % i)
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(obj, fh)
        with open(path, encoding="utf-8") as fh:
            ring = ring_from_obj(json.load(fh))
        wl.files[label] = RingFile(path, ring, ring_hash(ring))
    return wl


# -- answer checks -----------------------------------------------------------


def _expect(ok: bool, message: str) -> None:
    if not ok:
        raise WrongAnswer(message)


def _check_ref(ref, rf: RingFile, what: str) -> None:
    _expect(isinstance(ref, dict) and ref.get("hash") == rf.hash,
            "%s reference does not name the input ring" % what)


def _verified_map(obj, a: RingFile, b: RingFile):
    from finring import verify_ring_iso
    from finring.jsonio import map_from_obj

    _check_ref(obj.get("domain"), a, "domain")
    _check_ref(obj.get("codomain"), b, "codomain")
    f = map_from_obj(obj, a.ring, b.ring)
    _expect(verify_ring_iso(f, a.ring, b.ring), "returned map is not a ring isomorphism")
    return f


def check_aut(rf: RingFile, order: int) -> Callable[[dict], None]:
    def check(payload: dict) -> None:
        _check_ref(payload.get("ring"), rf, "ring")
        _expect(payload.get("aut_order") == order,
                "aut order %r, expected %d" % (payload.get("aut_order"), order))
    return check


def check_found(a: RingFile, b: RingFile) -> Callable[[dict], None]:
    def check(payload: dict) -> None:
        _expect(payload.get("found") is True, "isomorphic copy not found")
        _verified_map(payload["isomorphism"], a, b)
    return check


def check_not_found(payload: dict) -> None:
    _expect(payload == {"found": False, "isomorphism": None},
            "non-isomorphic pair reported as isomorphic")


def check_decomposition(a: RingFile, b: RingFile) -> Callable[[dict], None]:
    def check(payload: dict) -> None:
        _check_ref(payload.get("domain"), a, "domain")
        _check_ref(payload.get("codomain"), b, "codomain")
        sigma = payload.get("sigma")
        _expect(isinstance(sigma, list) and sorted(sigma) == list(range(1, len(sigma) + 1)),
                "sigma is not a permutation")
    return check


def check_synth(expected_map: dict) -> Callable[[dict], None]:
    want = _canonical(expected_map)

    def check(payload: dict) -> None:
        _expect(_canonical(payload.get("isomorphism")) == want,
                "synthesized map differs from the searched map")
    return check


def check_all(a: RingFile, b: RingFile, count: int) -> Callable[[dict], None]:
    def check(payload: dict) -> None:
        isos = payload.get("isomorphisms")
        _expect(payload.get("found") is True and payload.get("count") == count
                and isinstance(isos, list) and len(isos) == count,
                "expected %d isomorphisms, got %r" % (count, payload.get("count")))
        images = {_canonical(obj["images"]) for obj in isos}
        _expect(len(images) == count, "isomorphism list has duplicates")
        for obj in isos:
            _verified_map(obj, a, b)
    return check


def check_report(rf: RingFile, aut: int) -> Callable[[dict], None]:
    def check(payload: dict) -> None:
        report = payload.get("report", {})
        _check_ref(report.get("ring"), rf, "report ring")
        _expect(report.get("order") == rf.ring.order, "wrong ring order")
        _expect(report.get("aut_order") == aut,
                "aut order %r, expected %d" % (report.get("aut_order"), aut))
        oracle = report.get("oracle")
        _expect(isinstance(oracle, dict) and set(oracle) == {"semicentral", "triangular", "aut"}
                and all(v in ("agree", "skipped") for v in oracle.values()),
                "oracle fields %r" % (oracle,))
    return check


# -- query sequences ---------------------------------------------------------


def _aut_ladder(wl: Workload):
    f = wl.files
    expected = {
        "T2(Z8)": kezlan(2, 8),
        "T2(Z9)": kezlan(2, 9),
        "T4(F2)": kezlan(4, 2),
        "M2(F2)": 2 * (2 * 2 - 1),  # |PGL2(F_p)| = p(p^2 - 1), Skolem-Noether
        "F16": 4,  # Gal(F16/F2)
        "M2(F3)": 3 * (3 * 3 - 1),
    }
    for label, order in expected.items():
        yield Query(["aut", f[label].path], check_aut(f[label], order),
                    refusal_ok=label == "M2(F3)")


def _iso_pairs(wl: Workload):
    f = wl.files
    found = []
    for label in ("T4(F2)", "T3(Z4)", "T2(Z9)", "M2(F2)", "F2[x,y]/(x^2,y^2)"):
        a, b = f[label], f[label + "'"]
        payload = yield Query(["iso-search", a.path, b.path], check_found(a, b))
        if payload is not None:
            found.append((label, a, b, payload["isomorphism"]))
    for x, y in (("M2(F2)", "F16"), ("F2[x]/(x^4)", "F2[x,y]/(x^2,y^2)")):
        yield Query(["iso-search", f[x].path, f[y].path], check_not_found)
    for label, a, b, iso in found:
        stem = os.path.join(wl.workdir, "pair%02d" % list(f).index(label))
        with open(stem + "_map.json", "w", encoding="utf-8") as fh:
            json.dump(iso, fh)
        payload = yield Query(["iso-decompose", a.path, b.path, stem + "_map.json"],
                              check_decomposition(a, b))
        if payload is None:
            continue
        with open(stem + "_decomp.json", "w", encoding="utf-8") as fh:
            json.dump(payload, fh)
        yield Query(["iso-synth", a.path, b.path, stem + "_decomp.json"], check_synth(iso))
    a, b = f["T2(Z9)"], f["T2(Z9)'"]
    yield Query(["iso-search", "--all", a.path, b.path], check_all(a, b, kezlan(2, 9)))


def _report_oracle(wl: Workload):
    for label in FIXTURE_NAMES:
        rf = wl.files[label]
        yield Query(["report", "--oracle", rf.path], check_report(rf, FIXTURE_AUT[label]))


def queries(wl: Workload):
    """One pass over the workload, as a generator of Query objects."""
    return {"aut_ladder": _aut_ladder, "iso_pairs": _iso_pairs,
            "report_oracle": _report_oracle}[wl.name](wl)
