"""Every object the engine adopts is one its checking constructor accepts.

Corner presentations are built with RingPresentation._adopt, and the maps
the engine derives with AdditiveMap._adopt, without checks: a corner e*A*e
of a validated ring is a ring with unit e, and a composite, inverse,
identity, level map or conjugation is an additive map by construction.
These tests hold that fact to the checking constructors over the corpus of
test_engine_isomorphisms, which goes past the oracle's caps, and check that
the modules that read outside input never adopt."""
import ast
import pathlib

import pytest

import finring
from finring import (
    complete_triangulating_set,
    corner_decompose,
    corner_synthesize,
    enumerate_isomorphisms,
    identity_iso,
    inner_automorphism,
    iso_decompose,
    iso_synthesize,
    ring_units,
)
from finring.maps import AdditiveMap
from finring.presentation import RingPresentation
from test_engine_isomorphisms import CORPUS

# Rings up to this order also list their units and conjugate by a few.
UNIT_SWEEP_ORDER = 1024


def _fresh(ring: RingPresentation) -> RingPresentation:
    """A copy of ring with an empty memo, so every corner of it is built
    while the test watches."""
    return RingPresentation(ring.orders, ring.mul, ring.one, name=ring.name)


def _corner_rings(seq):
    return list(seq.corners) + [t.local for t in seq.types if t.local is not None]


@pytest.mark.parametrize("name", list(CORPUS), ids=list(CORPUS))
def test_every_corner_presentation_is_the_validated_one(name):
    for ring in CORPUS[name]:
        seq = complete_triangulating_set(_fresh(ring), ring.order)
        for corner in _corner_rings(seq):
            pres = corner.presentation
            checked = RingPresentation(pres.orders, pres.mul, pres.one)
            assert checked == pres and checked._terms == pres._terms


def _watch_adoption(monkeypatch) -> dict:
    """Make each adopting constructor first build its object through the
    checking one, which raises on anything it would refuse; count both."""
    seen = {"maps": 0, "rings": 0}
    adopt_map = AdditiveMap.__dict__["_adopt"].__func__
    adopt_ring = RingPresentation.__dict__["_adopt"].__func__

    def checked_map(cls, domain, codomain, images):
        images = tuple(images)
        AdditiveMap(domain, codomain, images)
        seen["maps"] += 1
        return adopt_map(cls, domain, codomain, images)

    def checked_ring(cls, orders, mul, one, name=None):
        RingPresentation(orders, mul, one, name)
        seen["rings"] += 1
        return adopt_ring(cls, orders, mul, one, name)

    monkeypatch.setattr(AdditiveMap, "_adopt", classmethod(checked_map))
    monkeypatch.setattr(RingPresentation, "_adopt", classmethod(checked_ring))
    return seen


@pytest.mark.parametrize("name", list(CORPUS), ids=list(CORPUS))
def test_every_adopted_object_passes_the_checking_constructor(name, monkeypatch):
    seen = _watch_adoption(monkeypatch)
    a, b = (_fresh(ring) for ring in CORPUS[name])
    there = [phi for _d, phi in enumerate_isomorphisms(a, b, a.order)]
    back = [phi for _d, phi in enumerate_isomorphisms(b, a, b.order)][:2]
    phi = there[0]
    seq_a, seq_b = complete_triangulating_set(a, a.order), complete_triangulating_set(b, b.order)
    d = iso_decompose(phi, seq_a, seq_b)
    assert iso_synthesize(seq_a, seq_b, d) == phi
    if seq_a.m >= 2:
        e, f = seq_a.idems[0], seq_b.idems[d.sigma[0]]
        assert corner_synthesize(e, f, corner_decompose(phi, e, f)) == phi
    for f in there[:2]:
        f.inverse()
        for g in back:
            f.compose(g)
    identity_iso(a)
    if a.order <= UNIT_SWEEP_ORDER:
        for u in ring_units(a, a.order)[:3]:
            inner_automorphism(u, a.order)
    assert seen["maps"] > 0


def _adopting_calls(path: pathlib.Path) -> list[int]:
    """The lines of path that name an adopting constructor."""
    tree = ast.parse(path.read_text(encoding="utf-8"))
    return sorted(
        node.lineno
        for node in ast.walk(tree)
        if (isinstance(node, ast.Attribute) and node.attr == "_adopt")
        or (isinstance(node, ast.Name) and node.id == "_adopt")
    )


@pytest.mark.parametrize("module", ["jsonio.py", "cli.py", "oracle.py"])
def test_modules_reading_outside_input_never_adopt(module):
    # Ring, map and decomposition files and the command line are outside
    # input, and the oracle shares no machinery with the engine: each builds
    # its objects through the checking constructors.
    path = pathlib.Path(finring.__file__).parent / module
    assert _adopting_calls(path) == []
