import pytest

from finring import (
    AutomorphismGroup,
    RingPresentation,
    StructureViolation,
    aut_group,
    aut_order,
    identity_iso,
    inner_automorphism,
    ring_units,
)
from finring import morphisms
from finring.automorphisms import _verify_group_law
from finring.errors import CapExceeded
from finring.fixtures import FIXTURE_BUILDERS, f2, fixture, matrix_ring, product

# computed once by exhaustive search and frozen
AUT_ORDERS = {
    "z6": 1,
    "f2": 1,
    "f4": 2,
    "z4": 1,
    "t2_f2": 2,
    "t2_z4": 8,
    "t3_f2": 8,
    "z2xz3": 1,
    "three_block": 2,
}


@pytest.mark.parametrize("name", sorted(AUT_ORDERS))
def test_aut_orders(name):
    assert aut_order(fixture(name)) == AUT_ORDERS[name]


def test_aut_group_contents():
    ring = fixture("t2_f2")
    group = aut_group(ring)
    assert isinstance(group, AutomorphismGroup)
    assert group.order == 2
    assert identity_iso(ring) in group
    assert inner_automorphism(ring.element((1, 1, 1))) in group


def test_aut_group_sorted_and_deduplicated():
    group = aut_group(fixture("t2_z4"))
    images = [g.map.images for g in group.elements]
    assert images == sorted(images)
    assert len(set(images)) == len(images)


def test_inner_automorphisms_lie_in_group():
    ring = fixture("t3_f2")
    group = aut_group(ring)
    for u in ring_units(ring):
        assert inner_automorphism(u) in group


def test_trivial_rings():
    assert aut_order(RingPresentation((), (), ())) == 1
    assert aut_order(f2()) == 1
    assert aut_order(product(f2(), f2())) == 2  # swap of the two factors


def test_aut_order_is_presentation_invariant():
    # isomorphic rings have equal automorphism counts
    assert aut_order(fixture("z6")) == aut_order(fixture("z2xz3"))
    ring = fixture("t3_f2")
    perm = list(range(ring.rank))
    perm[0], perm[3] = perm[3], perm[0]
    assert aut_order(ring.permuted(perm)) == AUT_ORDERS["t3_f2"]


def test_every_fixture_group_satisfies_group_law():
    for name in FIXTURE_BUILDERS:
        group = aut_group(fixture(name))
        ids = {g.map.images for g in group.elements}
        for g in group.elements:
            assert g.inverse().map.images in ids
        assert AUT_ORDERS[name] == group.order


def test_group_law_check_rejects_incomplete_sets():
    ring = fixture("t2_z4")
    group = aut_group(ring)
    ident = identity_iso(ring)
    others = [g for g in group.elements if g != ident]
    assert len(others) == 7
    for g in others:
        # g is the inverse of a remaining automorphism, or a product of two
        kept = tuple(h for h in group.elements if h != g)
        with pytest.raises(StructureViolation, match="not closed under"):
            _verify_group_law(AutomorphismGroup(ring, kept), None)
    with pytest.raises(StructureViolation, match="missing the identity"):
        _verify_group_law(AutomorphismGroup(ring, tuple(others)), None)


@pytest.mark.parametrize("p", [2, 3])
def test_aut_of_matrix_rings_is_pgl2(p):
    # Skolem-Noether: every automorphism of M2(F_p) is inner, so
    # Aut(M2(F_p)) = PGL2(F_p) of order p(p^2 - 1); 6 and 24
    assert aut_order(matrix_ring(2, p)) == p * (p * p - 1)


def test_corner_search_cap_counts_candidate_images(monkeypatch):
    monkeypatch.setattr(morphisms, "CORNER_SEARCH_CAP", 8)
    with pytest.raises(CapExceeded) as info:
        aut_group(matrix_ring(2, 2))
    assert info.value.what == "corner isomorphism search"
    assert (info.value.size, info.value.cap) == (9, 8)


def test_row_search_cap_counts_candidate_images(monkeypatch):
    # T3(F2): corner searches over F2 try 2 images, the first row (F2^2) at
    # least 4, so a cap of 3 stops the row search only
    monkeypatch.setattr(morphisms, "CORNER_SEARCH_CAP", 3)
    with pytest.raises(CapExceeded) as info:
        aut_group(fixture("t3_f2"))
    assert info.value.what == "row map search"
