"""Command line surface: analyze ring files, emit deterministic JSON reports.

stdout carries a canonically serialized JSON payload (sorted keys, no
whitespace); a short human summary goes to stderr.  With --format text the
summary is printed to stdout instead.  Exit codes: 0 success, 1 domain error,
2 unreadable or malformed input, 3 enumeration cap exceeded.

--oracle reruns the relevant analyses with the definitional brute-force
sweeps and fails (exit 1) on any disagreement; oracle checks whose sweep caps
are exceeded are recorded as skipped rather than failing the run.
"""
from __future__ import annotations

import argparse
import itertools
import json
import sys
import time

from .automorphisms import aut_group
from .errors import CapExceeded, ShapeMismatch, StructureViolation, ToolkitError
from .idempotents import enumerate_idempotents, is_semicentral
from .jsonio import (
    decomposition_from_obj,
    decomposition_to_obj,
    dumps_canonical,
    map_from_obj,
    map_to_obj,
    ring_from_obj,
    ring_hash,
    ring_ref,
)
from .maps import RingIsomorphism
from .morphisms import enumerate_isomorphisms, iso_decompose, iso_search, iso_synthesize
from .oracle import (
    brute_aut_count,
    brute_isos,
    brute_semicentral_list,
    brute_triangular_check,
)
from .structure import admissible_orders, detect_direct_sum, peirce_decompose
from .triangulate import complete_triangulating_set


class InputProblem(Exception):
    """A file could not be read or does not parse as the expected format."""


def _load_json(path: str):
    try:
        with open(path, "r", encoding="utf-8") as fh:
            return json.load(fh)
    except OSError as exc:
        raise InputProblem("%s: %s" % (path, exc))
    except json.JSONDecodeError as exc:
        raise InputProblem("%s: invalid JSON (%s)" % (path, exc))


def _load_ring(path: str):
    obj = _load_json(path)
    try:
        return ring_from_obj(obj)
    except ToolkitError as exc:
        raise InputProblem("%s: %s" % (path, exc))


def _coeff_rows(elems) -> list:
    return [list(e.coeffs) for e in elems]


def _one_based(perms) -> list:
    return [[j + 1 for j in sigma] for sigma in perms]


# -- subcommands -----------------------------------------------------------


def cmd_validate(args):
    rings = []
    summary = []
    for path in args.rings:
        ring = _load_ring(path)
        rings.append(
            {
                "file": path,
                "name": ring.name,
                "hash": ring_hash(ring),
                "orders": list(ring.orders),
                "order": ring.order,
                "rank": ring.rank,
            }
        )
        summary.append("%s: valid presentation, order %d, rank %d" % (path, ring.order, ring.rank))
    return {"rings": rings}, summary


def cmd_idempotents(args):
    ring = _load_ring(args.ring)
    idems = enumerate_idempotents(ring, args.cap)
    semis = [e for e in idems if is_semicentral(ring, e)]
    payload = {
        "ring": ring_ref(ring),
        "count": len(idems),
        "idempotents": _coeff_rows(idems),
        "semicentral": _coeff_rows(semis),
    }
    summary = ["%s: %d idempotents, %d semicentral" % (args.ring, len(idems), len(semis))]
    if args.oracle:
        payload["oracle"] = _oracle_semicentral(ring, payload["semicentral"])
        summary.append("oracle: %s" % payload["oracle"])
    return payload, summary


def cmd_triangulate(args):
    ring = _load_ring(args.ring)
    seq = complete_triangulating_set(ring, args.cap)
    payload = {
        "ring": ring_ref(ring),
        "m": seq.m,
        "sequence": _coeff_rows(seq.idems),
        "corner_orders": [c.order for c in seq.corners],
    }
    summary = ["%s: complete left-triangulating set of length %d" % (args.ring, seq.m)]
    if args.oracle:
        payload["oracle"] = _oracle_triangular(ring, seq)
        summary.append("oracle: %s" % payload["oracle"])
    return payload, summary


def cmd_orders(args):
    ring = _load_ring(args.ring)
    seq = complete_triangulating_set(ring, args.cap)
    sigmas = admissible_orders(ring, seq)
    payload = {
        "ring": ring_ref(ring),
        "m": seq.m,
        "admissible": _one_based(sigmas),
    }
    summary = ["%s: %d admissible orders out of %d blocks factorial" % (args.ring, len(sigmas), seq.m)]
    if args.oracle:
        def check():
            for perm in itertools.permutations(range(seq.m)):
                arranged = [seq.idems[j] for j in perm]
                want = perm in set(sigmas)
                _require_agreement(
                    brute_triangular_check(ring, arranged) == want,
                    "admissibility of %s" % (perm,),
                )
            return "agree"

        payload["oracle"] = _oracle_guard(check)
        summary.append("oracle: %s" % payload["oracle"])
    return payload, summary


def cmd_split(args):
    ring = _load_ring(args.ring)
    seq = complete_triangulating_set(ring, args.cap)
    dec = peirce_decompose(ring, seq)
    splits = detect_direct_sum(ring, dec)
    payload = {
        "ring": ring_ref(ring),
        "m": seq.m,
        "splits": [j + 1 for j in splits],
    }
    summary = ["%s: %d direct-summand blocks" % (args.ring, len(splits))]
    return payload, summary


def cmd_aut(args):
    ring = _load_ring(args.ring)
    group = aut_group(ring, args.cap)
    payload = {"ring": ring_ref(ring), "aut_order": group.order}
    if args.all:
        payload["automorphisms"] = [
            [list(row) for row in g.map.images] for g in group.elements
        ]
    summary = ["%s: automorphism group of order %d" % (args.ring, group.order)]
    if args.oracle:
        payload["oracle"] = _oracle_aut(ring, group.order)
        summary.append("oracle: %s" % payload["oracle"])
    return payload, summary


def cmd_iso_synth(args):
    ring_a = _load_ring(args.ring_a)
    ring_b = _load_ring(args.ring_b)
    seq_a = complete_triangulating_set(ring_a, args.cap)
    seq_b = complete_triangulating_set(ring_b, args.cap)
    obj = _load_json(args.decomposition)
    try:
        d = decomposition_from_obj(obj, seq_a, seq_b)
    except ShapeMismatch as exc:
        # structural problems in the file are input errors; a well-shaped
        # layer that fails to be an isomorphism stays a domain error
        raise InputProblem("%s: %s" % (args.decomposition, exc))
    iso = iso_synthesize(seq_a, seq_b, d)
    payload = {"isomorphism": map_to_obj(iso)}
    summary = ["synthesized isomorphism %s -> %s" % (args.ring_a, args.ring_b)]
    return payload, summary


def cmd_iso_decompose(args):
    ring_a = _load_ring(args.ring_a)
    ring_b = _load_ring(args.ring_b)
    seq_a = complete_triangulating_set(ring_a, args.cap)
    seq_b = complete_triangulating_set(ring_b, args.cap)
    obj = _load_json(args.map)
    try:
        raw = map_from_obj(obj, ring_a, ring_b)
    except ToolkitError as exc:
        raise InputProblem("%s: %s" % (args.map, exc))
    phi = RingIsomorphism.create(raw)
    d = iso_decompose(phi, seq_a, seq_b)
    payload = decomposition_to_obj(d)
    payload["domain"] = ring_ref(ring_a)
    payload["codomain"] = ring_ref(ring_b)
    summary = ["decomposed map across %d blocks, sigma %s" % (seq_a.m, payload["sigma"])]
    return payload, summary


def cmd_iso_search(args):
    ring_a = _load_ring(args.ring_a)
    ring_b = _load_ring(args.ring_b)
    if args.all:
        isos = [iso for _d, iso in enumerate_isomorphisms(ring_a, ring_b, args.cap)]
        payload = {
            "found": bool(isos),
            "count": len(isos),
            "isomorphisms": [map_to_obj(i) for i in isos],
        }
        summary = ["%d isomorphisms %s -> %s" % (len(isos), args.ring_a, args.ring_b)]
        if args.oracle:
            payload["oracle"] = _oracle_guard(
                lambda: _require_agreement(
                    {i.map.images for i in isos}
                    == {i.map.images for i in brute_isos(ring_a, ring_b)},
                    "isomorphism list",
                )
            )
            summary.append("oracle: %s" % payload["oracle"])
    else:
        iso = iso_search(ring_a, ring_b, args.cap)
        payload = {
            "found": iso is not None,
            "isomorphism": None if iso is None else map_to_obj(iso),
        }
        summary = [
            "isomorphism found" if iso is not None else "rings are not isomorphic (no map found)"
        ]
        if args.oracle:
            payload["oracle"] = _oracle_guard(
                lambda: _require_agreement(
                    (iso is not None) == bool(brute_isos(ring_a, ring_b)),
                    "isomorphism existence",
                )
            )
            summary.append("oracle: %s" % payload["oracle"])
    return payload, summary


def cmd_report(args):
    ring = _load_ring(args.ring)
    timings: dict[str, float] = {}

    def timed(key, thunk):
        t0 = time.perf_counter()
        value = thunk()
        timings[key] = round(time.perf_counter() - t0, 6)
        return value

    idems = timed("idempotents", lambda: enumerate_idempotents(ring, args.cap))
    semis = [e for e in idems if is_semicentral(ring, e)]
    seq = timed("triangulate", lambda: complete_triangulating_set(ring, args.cap))
    sigmas = timed("orders", lambda: admissible_orders(ring, seq))
    splits = timed("split", lambda: detect_direct_sum(ring, peirce_decompose(ring, seq)))
    group = timed("aut", lambda: aut_group(ring, args.cap))
    report = {
        "ring": {"name": ring.name, "hash": ring_hash(ring)},
        "order": ring.order,
        "rank": ring.rank,
        "idempotent_count": len(idems),
        "semicentral": _coeff_rows(semis),
        "sequence": {"m": seq.m, "idempotents": _coeff_rows(seq.idems)},
        "admissible_orders": _one_based(sigmas),
        "splits": [j + 1 for j in splits],
        "aut_order": group.order,
    }
    if args.oracle:
        report["oracle"] = {
            "semicentral": _oracle_semicentral(ring, report["semicentral"]),
            "triangular": _oracle_triangular(ring, seq),
            "aut": _oracle_aut(ring, report["aut_order"]),
        }
    payload = {"report": report, "timings": timings}
    summary = [
        "%s: order %d, %d idempotents, m = %d, aut order %d"
        % (args.ring, ring.order, len(idems), seq.m, group.order)
    ]
    if args.oracle:
        summary.append(
            "oracle: " + ", ".join("%s %s" % kv for kv in sorted(report["oracle"].items()))
        )
    return payload, summary


def _require_agreement(ok: bool, what: str) -> str:
    if not ok:
        raise StructureViolation("oracle disagrees with engine on %s" % what)
    return "agree"


def _oracle_guard(thunk):
    """Run an oracle check; report 'skipped' when its sweep caps bail out."""
    try:
        return thunk()
    except CapExceeded:
        return "skipped"


def _oracle_semicentral(ring, semicentral_rows) -> str:
    return _oracle_guard(
        lambda: _require_agreement(
            _coeff_rows(brute_semicentral_list(ring)) == semicentral_rows, "semicentral list"
        )
    )


def _oracle_triangular(ring, seq) -> str:
    return _oracle_guard(
        lambda: _require_agreement(
            brute_triangular_check(ring, seq.idems), "triangulating sequence"
        )
    )


def _oracle_aut(ring, aut_order: int) -> str:
    return _oracle_guard(
        lambda: _require_agreement(brute_aut_count(ring) == aut_order, "automorphism count")
    )


# -- wiring ----------------------------------------------------------------


def _build_parser() -> argparse.ArgumentParser:
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--cap", type=int, default=None, metavar="N",
                        help="override the element-enumeration cap")
    common.add_argument("--all", action="store_true",
                        help="list every result instead of the first")
    common.add_argument("--oracle", action="store_true",
                        help="cross-check with brute-force sweeps; fail on mismatch")
    common.add_argument("--format", choices=("json", "text"), default="json",
                        help="stdout payload format")
    parser = argparse.ArgumentParser(
        prog="finring",
        description="Structure and isomorphism analysis of finite rings given by additive presentations.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    sp = sub.add_parser("validate", parents=[common], help="validate ring presentation files")
    sp.add_argument("rings", nargs="+", metavar="RING")
    sp.set_defaults(handler=cmd_validate)

    sp = sub.add_parser("idempotents", parents=[common], help="list idempotents and semicentral idempotents")
    sp.add_argument("ring", metavar="RING")
    sp.set_defaults(handler=cmd_idempotents)

    sp = sub.add_parser("triangulate", parents=[common], help="compute the canonical complete left-triangulating set")
    sp.add_argument("ring", metavar="RING")
    sp.set_defaults(handler=cmd_triangulate)

    sp = sub.add_parser("orders", parents=[common], help="list admissible reorderings of the canonical sequence")
    sp.add_argument("ring", metavar="RING")
    sp.set_defaults(handler=cmd_orders)

    sp = sub.add_parser("split", parents=[common], help="detect direct-summand blocks")
    sp.add_argument("ring", metavar="RING")
    sp.set_defaults(handler=cmd_split)

    sp = sub.add_parser("aut", parents=[common], help="compute the automorphism group")
    sp.add_argument("ring", metavar="RING")
    sp.set_defaults(handler=cmd_aut)

    sp = sub.add_parser("iso-synth", parents=[common], help="synthesize an isomorphism from decomposition data")
    sp.add_argument("ring_a", metavar="RING_A")
    sp.add_argument("ring_b", metavar="RING_B")
    sp.add_argument("decomposition", metavar="DECOMP")
    sp.set_defaults(handler=cmd_iso_synth)

    sp = sub.add_parser("iso-decompose", parents=[common], help="decompose an isomorphism into layer data")
    sp.add_argument("ring_a", metavar="RING_A")
    sp.add_argument("ring_b", metavar="RING_B")
    sp.add_argument("map", metavar="MAP")
    sp.set_defaults(handler=cmd_iso_decompose)

    sp = sub.add_parser("iso-search", parents=[common], help="search for an isomorphism between two rings")
    sp.add_argument("ring_a", metavar="RING_A")
    sp.add_argument("ring_b", metavar="RING_B")
    sp.set_defaults(handler=cmd_iso_search)

    sp = sub.add_parser("report", parents=[common], help="full structural report for one ring")
    sp.add_argument("ring", metavar="RING")
    sp.set_defaults(handler=cmd_report)

    return parser


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        payload, summary = args.handler(args)
    except InputProblem as exc:
        print("error: %s" % exc, file=sys.stderr)
        return 2
    except CapExceeded as exc:
        print("error: %s" % exc, file=sys.stderr)
        return 3
    except ToolkitError as exc:
        print("error: %s: %s" % (type(exc).__name__, exc), file=sys.stderr)
        return 1
    if args.format == "json":
        print(dumps_canonical(payload))
        for line in summary:
            print(line, file=sys.stderr)
    else:
        for line in summary:
            print(line)
    return 0


if __name__ == "__main__":
    sys.exit(main())
