import pytest

from finring import (
    AdditiveMap,
    AmbientMismatch,
    NotBijective,
    RingIsomorphism,
    ShapeMismatch,
    StructureViolation,
    compose_maps,
    identity_iso,
    identity_map,
    inner_automorphism,
    invert_map,
    peirce_component,
    ring_iso_failure,
    ring_units,
    unit_inverse,
    verify_ring_iso,
)
from finring.fixtures import cyclic, f2, fixture, t2_f2, t2_z4, z2xz3, z6


def _crt():
    # 1 -> (1,1) is the ring isomorphism Z6 -> Z2xZ3
    return AdditiveMap(z6(), z2xz3(), [z2xz3().element((1, 1))])


def test_additive_map_application():
    f = _crt()
    assert f.apply(z6().element((5,))).coeffs == (1, 2)
    assert f.apply(z6().zero()).is_zero()


def test_generator_order_enforced():
    with pytest.raises(ShapeMismatch):
        AdditiveMap(cyclic(2), cyclic(3), [cyclic(3).element((1,))])
    # 2 * (0,) == 0 is fine
    AdditiveMap(cyclic(2), cyclic(3), [cyclic(3).zero()])


def test_images_must_be_elements_of_the_codomain_ring():
    with pytest.raises(AmbientMismatch):
        AdditiveMap(z6(), z2xz3(), [(1, 1)])
    with pytest.raises(AmbientMismatch):
        AdditiveMap(z6(), z2xz3(), [z6().element((1,))])


def test_subgroup_codomain_membership_enforced():
    ring = t2_f2()
    e11 = ring.element((1, 0, 0))
    e22 = ring.element((0, 0, 1))
    row = peirce_component(ring, e11, e22)
    AdditiveMap(row, row, [ring.element((0, 1, 0))])
    with pytest.raises(ShapeMismatch):
        AdditiveMap(row, row, [ring.element((1, 0, 0))])


def test_identity_and_compose():
    f = _crt()
    g = invert_map(f)
    assert compose_maps(f, g) == identity_map(z6())
    assert compose_maps(g, f) == identity_map(z2xz3())
    # f ends in Z2xZ3, and f cannot follow it from Z6
    with pytest.raises(ShapeMismatch, match="composition endpoints do not match"):
        compose_maps(f, f)


def test_invert_requires_bijective():
    zero_map = AdditiveMap(cyclic(2), cyclic(2), [cyclic(2).zero()])
    with pytest.raises(NotBijective, match="not injective"):
        invert_map(zero_map)
    f4 = fixture("f4")
    with pytest.raises(NotBijective, match="domain and codomain orders differ"):
        invert_map(AdditiveMap(f2(), f4, [f4.one_element()]))


def test_verify_ring_iso():
    f = _crt()
    assert verify_ring_iso(f, z6(), z2xz3())
    assert ring_iso_failure(f, z6(), z2xz3()) is None
    bad = AdditiveMap(z6(), z2xz3(), [z2xz3().element((1, 0))])
    assert not verify_ring_iso(bad, z6(), z2xz3())
    assert "unit" in ring_iso_failure(bad, z6(), z2xz3())
    f4 = fixture("f4")  # generators 1 and x, with x*x = 1 + x
    kill_x = AdditiveMap(f4, f4, [f4.one_element(), f4.zero()])
    assert ring_iso_failure(kill_x, f4, f4) == "multiplicativity fails on generator pair (1, 1)"
    # F2 -> F4 is a unital ring homomorphism into a larger ring
    inclusion = AdditiveMap(f2(), f4, [f4.one_element()])
    assert ring_iso_failure(inclusion, f2(), f4) == "ring orders differ"
    assert not verify_ring_iso(inclusion, f2(), f4)


def test_ring_isomorphism_create_and_inverse():
    phi = RingIsomorphism.create(_crt())
    assert phi.domain == z6()
    inv = phi.inverse()
    assert inv.apply(z2xz3().element((1, 1))).coeffs == (1,)
    both = phi.compose(inv)
    assert both == identity_iso(z6())


def test_units_of_z6():
    units = ring_units(z6())
    assert [u.coeffs for u in units] == [(1,), (5,)]
    assert unit_inverse(z6().element((5,))).coeffs == (5,)
    with pytest.raises(StructureViolation):
        unit_inverse(z6().element((2,)))


def test_inner_automorphism_direction():
    # conjugation by u acts as x -> u^{-1} x u
    ring = t2_z4()
    u = ring.element((1, 1, 1))  # 1 + E12
    phi = inner_automorphism(u)
    uinv = unit_inverse(u)
    for x in ring.elements():
        assert phi.apply(x) == uinv * x * u
    # spot values: E11 -> E11 + E12, E22 -> E22 + 3*E12
    assert phi.apply(ring.element((1, 0, 0))).coeffs == (1, 1, 0)
    assert phi.apply(ring.element((0, 0, 1))).coeffs == (0, 3, 1)


def test_identity_iso_fixed_points():
    ring = fixture("t3_f2")
    ident = identity_iso(ring)
    for g in ring.gens():
        assert ident.apply(g) == g
