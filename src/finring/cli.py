"""Command line surface: analyze ring files, emit deterministic JSON reports.

stdout carries a canonically serialized JSON payload (sorted keys, no
whitespace); a short human summary goes to stderr.  With --format text the
summary is printed to stdout instead.  Exit codes: 0 success, 1 domain error,
2 unreadable or malformed input or a usage error (such as an option the
subcommand does not take, or --cap below 1), 3 a size refusal: an enumeration
cap or the block permutation guard exceeded, with the stage named on stderr.

Each handler returns (payload, summary, check).  check is None or a
zero-argument function that reruns the answer with the definitional
brute-force sweeps and raises StructureViolation("oracle disagrees with
engine on ...") on any disagreement (exit 1).  With --oracle, main runs it
once through _oracle, which gives "agree", or "skipped" when a sweep exceeds
its own cap, stores that verdict as payload["oracle"] and appends
"oracle: <verdict>" to the summary.  report has three verdicts, so it runs
the same checks itself under report.oracle and returns no check.
"""
from __future__ import annotations

import argparse
import functools
import itertools
import json
import sys
import time

from .automorphisms import _aut_group, aut_group, aut_order
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
from .morphisms import (
    _canonical_sequences, enumerate_isomorphisms, iso_decompose, iso_search, iso_synthesize,
)
from .oracle import (
    BrutePeirceTable,
    brute_aut_count,
    brute_isos,
    brute_semicentral_list,
    brute_triangular_check,
)
from .structure import admissible_orders, detect_direct_sum
from .triangulate import complete_triangulating_set


class InputProblem(Exception):
    """A file could not be read or does not parse as the expected format."""


def _load_json(path: str):
    try:
        with open(path, "r", encoding="utf-8") as fh:
            return json.load(fh)
    except OSError as exc:
        raise InputProblem("%s: %s" % (path, exc))
    except UnicodeDecodeError as exc:
        raise InputProblem("%s: not UTF-8 text (%s)" % (path, exc))
    except (json.JSONDecodeError, RecursionError) as exc:
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
    return {"rings": rings}, summary, None


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
    return payload, summary, lambda: _check_semicentral(ring, payload["semicentral"])


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
    return payload, summary, lambda: _check_triangular(ring, seq)


def cmd_orders(args):
    ring = _load_ring(args.ring)
    seq = complete_triangulating_set(ring, args.cap)
    sigmas = admissible_orders(seq)
    payload = {
        "ring": ring_ref(ring),
        "m": seq.m,
        "admissible": _one_based(sigmas),
    }
    summary = ["%s: %d admissible orders out of %d blocks factorial" % (args.ring, len(sigmas), seq.m)]

    def check():
        # The facts other than the lower components do not depend on the
        # order: decide them once, on the canonical order, which comes first
        # and is admissible, so their failure is reported as its disagreement.
        # Each pair's component is read from the table once, by block index.
        admissible = set(sigmas)
        table = BrutePeirceTable(ring)
        order_free = brute_triangular_check(ring, seq.idems, table=table)
        blocks = range(seq.m)
        pairs = [(j, i) for j in blocks for i in blocks if i != j]
        vanishes = {(j, i): table.vanishes(seq.idems[j], seq.idems[i]) for j, i in pairs}
        for perm in itertools.permutations(blocks):
            lower = all(vanishes[perm[b], perm[a]] for b in blocks for a in range(b))
            _require_agreement(
                (order_free and lower) == (perm in admissible),
                "admissibility of %s" % (perm,),
            )

    return payload, summary, check


def cmd_split(args):
    ring = _load_ring(args.ring)
    seq = complete_triangulating_set(ring, args.cap)
    splits = detect_direct_sum(seq)
    payload = {
        "ring": ring_ref(ring),
        "m": seq.m,
        "splits": [j + 1 for j in splits],
    }
    summary = ["%s: %d direct-summand blocks" % (args.ring, len(splits))]
    return payload, summary, None


def cmd_aut(args):
    ring = _load_ring(args.ring)
    payload = {"ring": ring_ref(ring)}
    if args.all:
        group = aut_group(ring, args.cap)
        order = group.order
        payload["automorphisms"] = [
            [list(row) for row in g.images] for g in group.elements
        ]
    else:
        order = aut_order(ring, args.cap)
    payload["aut_order"] = order
    summary = ["%s: automorphism group of order %d" % (args.ring, order)]
    return payload, summary, lambda: _check_aut(ring, order)


def cmd_iso_synth(args):
    ring_a = _load_ring(args.ring_a)
    ring_b = _load_ring(args.ring_b)
    seq_a, seq_b = _canonical_sequences(ring_a, ring_b, args.cap)
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
    return payload, summary, None


def cmd_iso_decompose(args):
    ring_a = _load_ring(args.ring_a)
    ring_b = _load_ring(args.ring_b)
    seq_a, seq_b = _canonical_sequences(ring_a, ring_b, args.cap)
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
    return payload, summary, None


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

        def check():
            _require_agreement(
                {i.images for i in isos} == {i.images for i in brute_isos(ring_a, ring_b)},
                "isomorphism list",
            )
    else:
        iso = iso_search(ring_a, ring_b, args.cap)
        payload = {
            "found": iso is not None,
            "isomorphism": None if iso is None else map_to_obj(iso),
        }
        summary = [
            "isomorphism found" if iso is not None else "rings are not isomorphic (no map found)"
        ]

        def check():
            _require_agreement(
                (iso is not None) == bool(brute_isos(ring_a, ring_b)), "isomorphism existence"
            )
    return payload, summary, check


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
    sigmas = timed("orders", lambda: admissible_orders(seq))
    splits = timed("split", lambda: detect_direct_sum(seq))
    group = timed("aut", lambda: _aut_group(seq, args.cap))
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
    summary = [
        "%s: order %d, %d idempotents, m = %d, aut order %d"
        % (args.ring, ring.order, len(idems), seq.m, group.order)
    ]
    if args.oracle:
        report["oracle"] = {
            "semicentral": _oracle(lambda: _check_semicentral(ring, report["semicentral"])),
            "triangular": _oracle(lambda: _check_triangular(ring, seq)),
            "aut": _oracle(lambda: _check_aut(ring, group.order)),
        }
        summary.append(
            "oracle: " + ", ".join("%s %s" % kv for kv in sorted(report["oracle"].items()))
        )
    return {"report": report, "timings": timings}, summary, None


# -- oracle checks: each raises StructureViolation on a disagreement ---------


def _require_agreement(ok: bool, what: str) -> None:
    if not ok:
        raise StructureViolation("oracle disagrees with engine on %s" % what)


def _oracle(check) -> str:
    """Run a check: 'agree', or 'skipped' when a brute-force sweep exceeds its cap."""
    try:
        check()
    except CapExceeded:
        return "skipped"
    return "agree"


def _check_semicentral(ring, semicentral_rows) -> None:
    _require_agreement(
        _coeff_rows(brute_semicentral_list(ring)) == semicentral_rows, "semicentral list"
    )


def _check_triangular(ring, seq) -> None:
    _require_agreement(brute_triangular_check(ring, seq.idems), "triangulating sequence")


def _check_aut(ring, aut_order: int) -> None:
    _require_agreement(brute_aut_count(ring) == aut_order, "automorphism count")


# -- wiring ----------------------------------------------------------------


def positive_int(text: str) -> int:
    n = int(text)
    if n < 1:
        raise argparse.ArgumentTypeError("N must be at least 1, got %d" % n)
    return n


_OPTIONS = {
    "--cap": dict(type=positive_int, default=None, metavar="N",
                  help="override the element-enumeration cap"),
    "--all": dict(action="store_true", help="list every result instead of the first"),
    "--oracle": dict(action="store_true",
                     help="cross-check with brute-force sweeps; fail on mismatch"),
    "--format": dict(choices=("json", "text"), default="json", help="stdout payload format"),
}

# positionals are (dest, metavar, nargs)
_RING = [("ring", "RING", None)]
_PAIR = [("ring_a", "RING_A", None), ("ring_b", "RING_B", None)]

# (name, handler, help, positionals, options): each subcommand takes only the
# options its handler reads.
_COMMANDS = [
    ("validate", cmd_validate, "validate ring presentation files",
     [("rings", "RING", "+")], ("--format",)),
    ("idempotents", cmd_idempotents, "list idempotents and semicentral idempotents",
     _RING, ("--cap", "--oracle", "--format")),
    ("triangulate", cmd_triangulate, "compute the canonical complete left-triangulating set",
     _RING, ("--cap", "--oracle", "--format")),
    ("orders", cmd_orders, "list admissible reorderings of the canonical sequence",
     _RING, ("--cap", "--oracle", "--format")),
    ("split", cmd_split, "detect direct-summand blocks",
     _RING, ("--cap", "--format")),
    ("aut", cmd_aut, "compute the automorphism group",
     _RING, ("--cap", "--all", "--oracle", "--format")),
    ("iso-synth", cmd_iso_synth, "synthesize an isomorphism from decomposition data",
     _PAIR + [("decomposition", "DECOMP", None)], ("--cap", "--format")),
    ("iso-decompose", cmd_iso_decompose, "decompose an isomorphism into layer data",
     _PAIR + [("map", "MAP", None)], ("--cap", "--format")),
    ("iso-search", cmd_iso_search, "search for an isomorphism between two rings",
     _PAIR, ("--cap", "--all", "--oracle", "--format")),
    ("report", cmd_report, "full structural report for one ring",
     _RING, ("--cap", "--oracle", "--format")),
]


@functools.cache
def _build_parser() -> argparse.ArgumentParser:
    """The parser, built on the first call and shared by later ones: parsing
    writes only to the namespace it returns, so no call sees another's."""
    parser = argparse.ArgumentParser(
        prog="finring",
        description="Structure and isomorphism analysis of finite rings given by additive presentations.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name, handler, help_text, positionals, options in _COMMANDS:
        sp = sub.add_parser(name, help=help_text)
        for flag in options:
            sp.add_argument(flag, **_OPTIONS[flag])
        for dest, metavar, nargs in positionals:
            sp.add_argument(dest, metavar=metavar, nargs=nargs)
        sp.set_defaults(handler=handler)
    return parser


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        payload, summary, check = args.handler(args)
        if check is not None and args.oracle:
            payload["oracle"] = _oracle(check)
            summary.append("oracle: %s" % payload["oracle"])
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
