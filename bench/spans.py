"""Span and counter wrappers around finring's layer entry points.

Only the traced run imports this module.  `Tracer.install` wraps the
functions named in TARGETS and rebinds every module's copy of each name
(callers import with `from .x import f`, so patching one module is not
enough); `Tracer.remove` puts every original object back.

A span's self time is its duration minus the time covered by spans opened
inside it.  Scoped counters count an event only while a given span is open,
e.g. the ring-isomorphism checks issued inside the corner search.
"""
from __future__ import annotations

import functools
import sys
import time
from collections import defaultdict

SPAN, COUNT, GEN_SPAN, GEN_COUNT = "span", "count", "gen_span", "gen_count"

# (module, attribute, kind, name, extras).  An attribute "Cls.meth" is patched
# on the class; anything else is a module-level function.  extras holds
# (scope span, counter) pairs: the call is also counted as counter while
# scope is open.  A "found" extra adds len(result) to name + ".found".
TARGETS = [
    ("automorphisms", "_verify_group_law", SPAN, "automorphisms.group_law", ()),
    ("maps", "ring_iso_failure", SPAN, "maps.ring_iso_check",
     (("morphisms.corner_search", "morphisms.corner_search.tuples"),)),
    ("maps", "invert_map", SPAN, "maps.invert", ()),
    ("maps", "compose_maps", COUNT, "maps.compose.calls",
     (("automorphisms.group_law", "automorphisms.group_law.compositions"),)),
    ("maps", "AdditiveMap.__init__", COUNT, "maps.additive_map.calls",
     (("morphisms.row_search", "morphisms.row_search.candidates"),)),
    ("morphisms", "_enumerate_corner_isos", SPAN, "morphisms.corner_search", ("found",)),
    ("morphisms", "_enumerate_row_maps", SPAN, "morphisms.row_search", ("found",)),
    ("morphisms", "enumerate_isomorphisms", GEN_SPAN, "morphisms.enumerate", ()),
    ("morphisms", "iso_synthesize", SPAN, "morphisms.synthesize", ()),
    ("morphisms", "iso_decompose", SPAN, "morphisms.decompose", ()),
    ("subgroups", "Subgroup.span", SPAN, "subgroups.span", ()),
    ("subgroups", "Subgroup._decomposition", SPAN, "subgroups.decompose", ("uncached",)),
    ("subgroups", "Subgroup.contains", COUNT, "subgroups.contains.calls", ()),
    ("corners", "peirce_component", COUNT, "corners.peirce_component.calls", ()),
    ("corners", "corner_ring", SPAN, "corners.corner_ring", ()),
    ("presentation", "RingPresentation.__init__", SPAN, "presentation.validate", ()),
    ("presentation", "RingPresentation._mul_coeffs", COUNT, "presentation.mul.calls", ()),
    ("presentation", "RingPresentation.elements", GEN_COUNT, "presentation.elements.swept", ()),
    ("idempotents", "enumerate_idempotents", SPAN, "idempotents.enumerate", ()),
    ("idempotents", "is_semicentral", COUNT, "idempotents.is_semicentral.calls", ()),
    ("sequences", "triangularity_failure", SPAN, "sequences.triangularity", ()),
    ("triangulate", "complete_triangulating_set", SPAN, "triangulate.complete", ()),
    ("structure", "admissible_orders", SPAN, "structure.admissible_orders", ()),
    ("oracle", "brute_aut_count", SPAN, "oracle", ()),
    ("oracle", "brute_isos", SPAN, "oracle", ()),
    ("oracle", "brute_semicentral_list", SPAN, "oracle", ()),
    ("oracle", "brute_triangular_check", SPAN, "oracle", ()),
] + [
    ("jsonio", fn, SPAN, "jsonio", ())
    for fn in (
        "ring_from_obj", "ring_to_obj", "ring_hash", "ring_ref", "check_ring_ref",
        "map_to_obj", "map_from_obj", "decomposition_to_obj",
        "decomposition_from_obj", "dumps_canonical",
    )
] + [
    ("cli", "main", SPAN, "cli", ()),
]


class Tracer:
    """Accumulates span times and counts; `reset` starts a new pass."""

    def __init__(self):
        self.paused = False
        self._patches: list[tuple[object, str, object]] = []
        self.self_s: dict[str, float] = defaultdict(float)
        self.total_s: dict[str, float] = defaultdict(float)
        self.counts: dict[str, int] = defaultdict(int)
        self._stack: list[list] = []  # open spans: [name, start, child time]
        self._open: dict[str, int] = defaultdict(int)

    def reset(self) -> None:
        for table in (self.self_s, self.total_s, self.counts, self._open):
            table.clear()
        self._stack.clear()

    # -- wrapper factories --------------------------------------------------
    # The wrappers close over the tables (cleared in place by reset) so that a
    # call costs a few dictionary updates and two clock reads.

    def _wrap(self, fn, kind: str, name: str, extras):
        scoped = tuple(x for x in extras if isinstance(x, tuple))
        found = "found" in extras
        uncached = "uncached" in extras
        tr = self
        counts, self_s, total_s = self.counts, self.self_s, self.total_s
        stack, open_ = self._stack, self._open
        clock = time.perf_counter
        calls = name if kind in (COUNT, GEN_COUNT) else name + ".calls"

        def count():
            counts[calls] += 1
            for scope, key in scoped:
                if open_[scope]:
                    counts[key] += 1

        def enter():
            open_[name] += 1
            stack.append([name, clock(), 0.0])

        def leave():
            _, start, child = stack.pop()
            dur = clock() - start
            self_s[name] += dur - child
            open_[name] -= 1
            if not open_[name]:
                total_s[name] += dur
            if stack:
                stack[-1][2] += dur

        if kind == COUNT:
            @functools.wraps(fn)
            def counted(*args, **kwargs):
                if not tr.paused:
                    count()
                return fn(*args, **kwargs)
            return counted

        if kind == GEN_COUNT:
            @functools.wraps(fn)
            def swept(*args, **kwargs):
                for item in fn(*args, **kwargs):
                    if not tr.paused:
                        counts[calls] += 1
                    yield item
            return swept

        if kind == GEN_SPAN:
            yielded = name + ".yielded"

            @functools.wraps(fn)
            def spanned_gen(*args, **kwargs):
                if tr.paused:
                    yield from fn(*args, **kwargs)
                    return
                count()
                it = fn(*args, **kwargs)
                try:
                    while True:
                        enter()
                        try:
                            item = next(it)
                        except StopIteration:
                            return
                        finally:
                            leave()
                        counts[yielded] += 1
                        yield item
                finally:
                    it.close()
            return spanned_gen

        found_key = name + ".found"

        @functools.wraps(fn)
        def spanned(*args, **kwargs):
            if tr.paused or (uncached and args[0]._dec is not None):
                return fn(*args, **kwargs)
            count()
            enter()
            try:
                result = fn(*args, **kwargs)
            finally:
                leave()
            if found:
                counts[found_key] += len(result)
            return result
        return spanned

    # -- patching -----------------------------------------------------------

    def install(self) -> None:
        if self._patches:
            raise RuntimeError("tracer is already installed")
        modules = [m for k, m in sys.modules.items() if k == "finring" or k.startswith("finring.")]
        for mod_name, attr, kind, name, extras in TARGETS:
            home = sys.modules["finring." + mod_name]
            if "." in attr:
                cls_name, meth = attr.split(".")
                cls = getattr(home, cls_name)
                raw = cls.__dict__[meth]
                if isinstance(raw, classmethod):
                    wrapped = classmethod(self._wrap(raw.__func__, kind, name, extras))
                else:
                    wrapped = self._wrap(raw, kind, name, extras)
                self._patches.append((cls, meth, raw))
                setattr(cls, meth, wrapped)
                continue
            original = getattr(home, attr)
            wrapped = self._wrap(original, kind, name, extras)
            for mod in modules:
                for key, value in list(vars(mod).items()):
                    if value is original:
                        self._patches.append((mod, key, original))
                        setattr(mod, key, wrapped)

    def remove(self) -> None:
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    @property
    def patched(self) -> list[tuple[object, str, object]]:
        return list(self._patches)

    # -- results ------------------------------------------------------------

    def layer_values(self) -> dict[str, float]:
        """Flatten spans and counters into metric-name -> value."""
        out: dict[str, float] = dict(self.counts)
        for name, value in self.self_s.items():
            out[name + ".self_s"] = value
            out[name + ".total_s"] = self.total_s[name]
        for stage, attempts in (("morphisms.corner_search", "tuples"),
                                ("morphisms.row_search", "candidates")):
            base = out.get("%s.%s" % (stage, attempts), 0)
            out[stage + ".yield"] = out.get(stage + ".found", 0) / base if base else 0.0
        return out
