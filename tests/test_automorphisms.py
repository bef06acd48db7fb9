import random

import pytest

from finring import (
    AutomorphismGroup,
    StructureViolation,
    aut_group,
    aut_order,
    identity_iso,
    inner_automorphism,
    ring_units,
)
from finring import automorphisms, morphisms
from finring.automorphisms import _verify_group_law
from finring.errors import CapExceeded
from finring.fixtures import (
    FIXTURE_BUILDERS,
    basis_change,
    dual_square,
    f2,
    fixture,
    matrix_ring,
    poly_quotient,
    product,
    upper_triangular,
    zero_ring,
)
from finring.maps import compose_maps, invert_map

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
    images = [g.images for g in group.elements]
    assert images == sorted(images)
    assert len(set(images)) == len(images)


def test_aut_group_refuses_an_automorphism_enumerated_twice(monkeypatch):
    # a duplicate is an enumeration bug; collapsing it would let aut and
    # aut --all disagree
    original = automorphisms.enumerate_isomorphisms

    def first_twice(ring_a, ring_b, cap=None):
        pairs = list(original(ring_a, ring_b, cap))
        return pairs[:1] + pairs

    monkeypatch.setattr(automorphisms, "enumerate_isomorphisms", first_twice)
    with pytest.raises(StructureViolation, match="twice"):
        aut_group(fixture("t2_f2"))


def test_inner_automorphisms_lie_in_group():
    ring = fixture("t3_f2")
    group = aut_group(ring)
    for u in ring_units(ring):
        assert inner_automorphism(u) in group


def test_trivial_rings():
    zero = zero_ring()
    assert aut_order(zero) == 1
    assert [g.images for g in aut_group(zero).elements] == [()]
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
        ids = {g.images for g in group.elements}
        for g in group.elements:
            assert g.inverse().images in ids
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


def _reference_group_law_failure(group):
    """The exhaustive check: the identity, the inverse of every element and
    all |G|² products.  Returns the first failure, or None."""
    maps = set(group.elements)
    if identity_iso(group.ring) not in maps:
        return "missing the identity"
    for f in group.elements:
        if invert_map(f) not in maps:
            return "not closed under inversion"
        for g in group.elements:
            if compose_maps(f, g) not in maps:
                return "not closed under composition"
    return None


def _group_law_failure(group):
    try:
        _verify_group_law(group, None)
    except StructureViolation as exc:
        return str(exc)
    return None


def _subset(group, keep):
    # keeps the sorted order of group.elements, which the check walks
    return AutomorphismGroup(group.ring, tuple(g for g in group.elements if keep(g)))


def test_group_law_check_agrees_with_the_exhaustive_check():
    for name in FIXTURE_BUILDERS:
        group = aut_group(fixture(name))
        assert _reference_group_law_failure(group) is None
        assert _group_law_failure(group) is None
    for name in ("t2_z4", "t3_f2"):
        group = aut_group(fixture(name))
        ident = identity_iso(group.ring)
        for g in group.elements:
            subset = _subset(group, lambda h: h != g)
            assert _reference_group_law_failure(subset) is not None
            assert _group_law_failure(subset) is not None
        # {1, a} ∪ {1, b} for involutions a != b is closed under inverses
        # but not under composition: ab is none of 1, a, b
        involutions = [
            g for g in group.elements
            if g != ident and compose_maps(g, g) == ident
        ]
        unions = [
            _subset(group, lambda h: h in (ident, a, b))
            for i, a in enumerate(involutions)
            for b in involutions[i + 1:]
        ]
        assert unions
        for subset in unions:
            assert subset.order == 3
            assert _reference_group_law_failure(subset) == "not closed under composition"
            with pytest.raises(StructureViolation, match="not closed under composition"):
                _verify_group_law(subset, None)


def test_group_law_check_composes_each_element_with_each_generator_once(monkeypatch):
    calls = {"compose": 0, "invert": 0}

    def counting(key, fn):
        def wrapped(*args, **kwargs):
            calls[key] += 1
            return fn(*args, **kwargs)
        return wrapped

    monkeypatch.setattr(automorphisms, "compose_maps", counting("compose", compose_maps))
    monkeypatch.setattr(automorphisms, "invert_map", counting("invert", invert_map))
    order = aut_group(upper_triangular(2, 9)).order
    gens = calls["invert"]  # one inverse sweep per generator
    assert order == 54
    assert 1 <= gens and 2 ** gens <= order
    assert calls["compose"] == order * gens
    calls.update(compose=0, invert=0)
    assert aut_group(fixture("z6")).order == 1
    assert calls == {"compose": 0, "invert": 0}


@pytest.mark.parametrize("q, order", [(3, 108), (4, 256)])
def test_aut_of_t3_is_inner_above_the_oracle_caps(q, order):
    # Kezlan: every automorphism of T_n(Z_m) is inner, so
    # |Aut(T_n(Z_m))| = phi(m)^(n-1) * m^(n(n-1)/2); phi(3) = phi(4) = 2
    assert aut_order(upper_triangular(3, q)) == 2 ** 2 * q ** 3 == order


@pytest.mark.parametrize("n, q, order", [(5, 2, 1024), (3, 5, 2000), (4, 3, 5832)])
def test_aut_order_matches_kezlan_where_enumeration_is_slow(n, q, order):
    # phi(m)^(n-1) * m^(n(n-1)/2): 1 * 2^10, 4^2 * 5^3, 2^3 * 3^6.  These
    # rings exceed the default cap, and listing Aut(T5(F2)) takes about 20 s.
    ring = upper_triangular(n, q)
    assert aut_order(ring, cap=ring.order) == order


@pytest.mark.parametrize("n, q, order", [(2, 8, 32), (4, 2, 64)])
def test_aut_order_matches_kezlan_on_the_ladder(n, q, order):
    # the same closed form on the benchmark ladder's T2(Z8) and T4(F2):
    # 4 * 8 and 1 * 2^6, within the default cap
    assert aut_order(upper_triangular(n, q)) == order


def test_aut_order_does_not_check_the_group_law(monkeypatch):
    monkeypatch.setattr(automorphisms, "_verify_group_law", None)
    assert aut_order(upper_triangular(2, 9)) == 54


@pytest.mark.parametrize("p", [2, 3])
def test_aut_of_matrix_rings_is_pgl2(p):
    # Skolem-Noether: every automorphism of M2(F_p) is inner, so
    # Aut(M2(F_p)) = PGL2(F_p) of order p(p^2 - 1); 6 and 24
    assert aut_order(matrix_ring(2, p)) == p * (p * p - 1)


def test_corner_search_cap_counts_candidate_images(monkeypatch):
    # F16 is one local block, so its corner search runs over all of it
    monkeypatch.setattr(morphisms, "CORNER_SEARCH_CAP", 8)
    with pytest.raises(CapExceeded) as info:
        aut_group(poly_quotient([1, 1, 0, 0]))
    assert info.value.what == "corner isomorphism search"
    assert (info.value.size, info.value.cap) == (9, 8)


def test_corner_search_cap_is_met_exactly_by_f16(monkeypatch):
    # F16's one corner search charges 101 candidates in all: 4 * 16 for
    # filtering each generator's candidates once and 37 taken up by partial
    # assignments.  A cap of 101 answers and one less refuses
    ring = poly_quotient([1, 1, 0, 0])
    monkeypatch.setattr(morphisms, "CORNER_SEARCH_CAP", 101)
    assert aut_order(ring) == 4
    monkeypatch.setattr(morphisms, "CORNER_SEARCH_CAP", 100)
    with pytest.raises(CapExceeded) as info:
        aut_order(ring)
    assert info.value.what == "corner isomorphism search"
    assert (info.value.size, info.value.cap) == (101, 100)


@pytest.mark.parametrize(
    "ring, order, charge",
    [(matrix_ring(2, 5), 120, 6), (matrix_ring(3, 2), 168, 3),
     (basis_change(matrix_ring(2, 3), random.Random(5))[0], 24, 4),
     (basis_change(dual_square(), random.Random(1))[0], 24, 2448)],
    ids=["M2(F5)", "M3(F2)", "M2(F3) on a random basis", "F2[x,y]/(x^2,y^2) on a random basis"],
)
def test_corner_search_charge_is_pinned(monkeypatch, ring, order, charge):
    # Charged per placement of every candidate, the searches over the whole
    # M_n(F_p) blocks exceeded the default cap of 65536; charged per
    # candidate filtered or taken up, they cost 7252, 39095 and 1580
    # (PGL2(F5), PGL3(F2) and PGL2(F3)).  Those blocks are now built from
    # matrix units, and only Iso(F_p, F_p) is searched.  F2[x,y]/(x^2,y^2)
    # on a random basis is one local block, which the search covers whole.
    # Each answers at the default cap and at its charge, and one less refuses
    assert aut_order(ring) == order
    monkeypatch.setattr(morphisms, "CORNER_SEARCH_CAP", charge)
    assert aut_order(ring) == order
    monkeypatch.setattr(morphisms, "CORNER_SEARCH_CAP", charge - 1)
    with pytest.raises(CapExceeded) as info:
        aut_order(ring)
    assert info.value.what == "corner isomorphism search"
    assert (info.value.size, info.value.cap) == (charge, charge - 1)


def test_row_search_cap_counts_candidate_images(monkeypatch):
    # T3(F2): a corner search over F2 charges its 2 candidates and the 1 that
    # f(1) = 1 keeps, the first row search (F2^2) at least its 4 candidates,
    # so a cap of 3 stops the row search only
    monkeypatch.setattr(morphisms, "CORNER_SEARCH_CAP", 3)
    with pytest.raises(CapExceeded) as info:
        aut_group(fixture("t3_f2"))
    assert info.value.what == "row map search"
