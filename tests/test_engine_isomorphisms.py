"""Every map the engine builds is a ring isomorphism.

The engine adopts the maps it builds without verifying them: a map
synthesized or enumerated from checked corner data is an isomorphism by the
paper's parametrization, and so are composites, inverses, the identity and
conjugation by a unit.  These tests carry that fact: the full check
ring_iso_failure passes on every such map, over a corpus that goes beyond
the oracle's caps."""
import random

import pytest

from finring import (
    complete_triangulating_set,
    corner_decompose,
    corner_synthesize,
    enumerate_isomorphisms,
    identity_iso,
    inner_automorphism,
    iso_decompose,
    iso_synthesize,
    ring_iso_failure,
    ring_units,
)
from finring.fixtures import (
    basis_change,
    field_f4,
    fixture,
    matrix_ring,
    upper_triangular_over,
    zero_ring,
)
from test_matrix_units import MATRIX_PAIRS
from test_triangulate import LADDER


def _corpus():
    """(id, domain, codomain): the matrix pairs there and back, each ladder ring
    to itself and to a basis-changed copy, T2(F4) and the zero ring."""
    out = []
    for a, b in MATRIX_PAIRS:
        out += [(a.name + "-there", a, b), (a.name + "-back", b, a)]
    for seed, (name, ring) in enumerate(LADDER.items()):
        changed = basis_change(ring, random.Random(seed))[0]
        out += [(name, ring, ring), (name + "-basis", ring, changed)]
    out += [
        ("T2(F4)", upper_triangular_over(2, field_f4()), upper_triangular_over(2, field_f4())),
        ("zero", zero_ring(name="0"), zero_ring(name="0")),
    ]
    return out


CORPUS = {name: (a, b) for name, a, b in _corpus()}


def _first_map(a, b):
    for _d, phi in enumerate_isomorphisms(a, b, a.order):
        return phi
    raise AssertionError("no isomorphism %s -> %s" % (a.name, b.name))


@pytest.mark.parametrize("name", list(CORPUS), ids=list(CORPUS))
def test_every_enumerated_map_is_a_ring_isomorphism(name):
    a, b = CORPUS[name]
    count = 0
    for _d, phi in enumerate_isomorphisms(a, b, a.order):
        assert ring_iso_failure(phi, a, b) is None
        count += 1
    assert count > 0


@pytest.mark.parametrize("name", list(CORPUS), ids=list(CORPUS))
def test_synthesis_from_a_decomposition_is_a_ring_isomorphism(name):
    a, b = CORPUS[name]
    phi = _first_map(a, b)
    seq_a, seq_b = complete_triangulating_set(a, a.order), complete_triangulating_set(b, b.order)
    d = iso_decompose(phi, seq_a, seq_b)
    psi = iso_synthesize(seq_a, seq_b, d)
    assert psi == phi and ring_iso_failure(psi, a, b) is None
    if seq_a.m >= 2:  # the single-level engine on the head block
        e, f = seq_a.idems[0], seq_b.idems[d.sigma[0]]
        psi = corner_synthesize(e, f, corner_decompose(phi, e, f))
        assert psi == phi and ring_iso_failure(psi, a, b) is None


@pytest.mark.parametrize("name", ["M2(Z3)-there", "P(2,1)-back", "T2(Z9)-basis"])
def test_composites_and_inverses_are_ring_isomorphisms(name):
    a, b = CORPUS[name]
    there = [phi for _d, phi in enumerate_isomorphisms(a, b, a.order)][:4]
    back = [phi for _d, phi in enumerate_isomorphisms(b, a, b.order)][:4]
    for f in there:
        assert ring_iso_failure(f.inverse(), b, a) is None
        for g in back:
            assert ring_iso_failure(f.compose(g), a, a) is None
            assert ring_iso_failure(g.compose(f), b, b) is None


@pytest.mark.parametrize(
    "ring",
    [
        fixture("t2_z4"),
        fixture("t3_f2"),
        upper_triangular_over(2, field_f4()),
        matrix_ring(2, 3),
        LADDER["T2(Z9)"],
    ],
    ids=lambda r: r.name,
)
def test_identity_and_conjugations_are_ring_isomorphisms(ring):
    assert ring_iso_failure(identity_iso(ring), ring, ring) is None
    units = ring_units(ring, ring.order)
    assert units
    for u in units:
        assert ring_iso_failure(inner_automorphism(u, ring.order), ring, ring) is None
