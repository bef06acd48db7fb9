import collections
import itertools
import math
import random

import pytest

from finring import (
    AdditiveMap,
    AmbientMismatch,
    NotBijective,
    RingIsomorphism,
    ShapeMismatch,
    StructureViolation,
    compose_maps,
    enumerate_isomorphisms,
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
from finring.fixtures import (
    FIXTURE_BUILDERS,
    basis_change,
    cyclic,
    f2,
    fixture,
    matrix_ring,
    poly_quotient,
    product,
    t2_f2,
    t2_z4,
    upper_triangular,
    z2xz3,
    z6,
)


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


def loop_iso_failure(f, a, b):
    """ring_iso_failure with multiplicativity decided the textbook way: two
    products per generator pair (i, j), in row-major order."""
    if f.domain != a or f.codomain != b:
        raise ShapeMismatch("map endpoints do not match the given rings")
    if f.apply(a.one_element()) != b.one_element():
        return "unit is not preserved"
    gens = a.gens()
    for i, gi in enumerate(gens):
        for j, gj in enumerate(gens):
            if f.apply(gi * gj) != f._image_elems[i] * f._image_elems[j]:
                return "multiplicativity fails on generator pair (%d, %d)" % (i, j)
    if a.order != b.order:
        return "ring orders differ"
    if f.image_span().order != b.order:
        return "map is not bijective"
    return None


def _perturbed(f):
    """f with one coefficient of one image moved by s, 2s or -s, for every
    image and coefficient; s is the least step that keeps the image
    annihilated by its generator's order."""
    cod = f.codomain
    out = []
    for l, (o, img) in enumerate(zip(f.domain.orders, f.images)):
        for n, d in enumerate(cod.orders):
            step = d // math.gcd(d, o)
            for delta in sorted({m * step % d for m in (1, 2, -1)} - {0}):
                moved = list(img)
                moved[n] = (moved[n] + delta) % d
                images = list(f._image_elems)
                images[l] = cod.element(moved)
                out.append(AdditiveMap(f.domain, cod, images))
    return out


def _swapped(f):
    """f with the images of two generators of equal order exchanged."""
    orders = f.domain.orders
    out = []
    for l, m in itertools.combinations(range(len(orders)), 2):
        if orders[l] == orders[m]:
            images = list(f._image_elems)
            images[l], images[m] = images[m], images[l]
            out.append(AdditiveMap(f.domain, f.codomain, images))
    return out


def _map_family(isos, a, b):
    """The zero map a -> b and, for each isomorphism, itself, every
    single-coefficient perturbation of its images and its swapped images."""
    out = [AdditiveMap(a, b, [b.zero()] * a.rank)]
    for f in isos:
        out += [f] + _perturbed(f) + _swapped(f)
    return out


def _first_isos(a, b, n):
    return [phi for _d, phi in itertools.islice(enumerate_isomorphisms(a, b, a.order), n)]


def _transported(family, ring, changed, to_new):
    """Each map g of family (ring -> ring) moved onto every pair of endpoints
    from ring and its basis-changed copy: g, then phi, psi or both around it,
    phi: ring -> changed the basis change and psi its inverse."""
    phi = AdditiveMap(ring, changed, [changed.element(to_new(g.coeffs)) for g in ring.gens()])
    psi = invert_map(phi, ring.order)
    out = []
    for g in family:
        out += [g, compose_maps(g, phi), compose_maps(psi, g)]
        out.append(compose_maps(compose_maps(psi, g), phi))
    return out


def _conjugation(ring, c):
    """x -> (1 - c*E12) x (1 + c*E12) on T2(Z_n), where E12 is gen(1)."""
    u = ring.one_element() + c * ring.gen(1)
    v = ring.one_element() - c * ring.gen(1)
    return AdditiveMap(ring, ring, [v * g * u for g in ring.gens()])


def _iso_check_cases():
    cases = [
        pytest.param(_map_family(_first_isos(ring, ring, 3), ring, ring), id=name)
        for name, ring in ((name, fixture(name)) for name in sorted(FIXTURE_BUILDERS))
    ]
    cases.append(pytest.param(_map_family(_first_isos(z6(), z2xz3(), 3), z6(), z2xz3()), id="z6-z2xz3"))
    f4 = fixture("f4")
    cases.append(pytest.param(_map_family([AdditiveMap(f2(), f4, [f4.one_element()])], f2(), f4), id="f2-f4"))
    # dense structure constants in the domain, the codomain or both
    for seed, (name, ring) in enumerate(
        [
            ("T4(F2)", upper_triangular(4, 2)),
            ("T3(Z4)", upper_triangular(3, 4)),
            ("T2(Z9)", upper_triangular(2, 9)),
            ("M2(F3)", matrix_ring(2, 3)),
            ("F16", poly_quotient([1, 1, 0, 0])),
        ]
    ):
        changed, to_new = basis_change(ring, random.Random(seed))
        family = _map_family(_first_isos(ring, ring, 3), ring, ring)
        cases.append(pytest.param(_transported(family, ring, changed, to_new), id=name + "-basis"))
    mixed = product(t2_z4(), matrix_ring(2, 3))
    cases.append(pytest.param(_map_family(_first_isos(mixed, mixed, 3), mixed, mixed), id="T2(Z4)xM2(F3)"))
    # slots of k^2 (t - 1)^3, about 2^96, wider than a machine word; the
    # conjugation's images carry a coefficient near 2^30
    wide = upper_triangular(2, 2**31)
    isos = [identity_map(wide), _conjugation(wide, 2**30 + 12345)]
    cases.append(pytest.param(_map_family(isos, wide, wide), id="T2(Z_2^31)"))
    return cases


ISO_CHECK_CASES = _iso_check_cases()


@pytest.mark.parametrize("maps", ISO_CHECK_CASES)
def test_packed_multiplicativity_matches_the_pair_loop(maps):
    for f in maps:
        assert ring_iso_failure(f, f.domain, f.codomain) == loop_iso_failure(f, f.domain, f.codomain)


def test_iso_check_corpus_reaches_every_verdict():
    verdicts = collections.Counter()
    for case in ISO_CHECK_CASES:
        kinds = collections.Counter(
            (loop_iso_failure(f, f.domain, f.codomain) or "isomorphism").split(" on ")[0]
            for f in case.values[0]
        )
        if case.id.endswith("-basis") or case.id.startswith("T2("):
            assert kinds["isomorphism"] and kinds["multiplicativity fails"], case.id
        verdicts += kinds
    assert set(verdicts) == {
        "isomorphism",
        "unit is not preserved",
        "multiplicativity fails",
        "ring orders differ",
        "map is not bijective",
    }


def test_verify_ring_iso_tests_the_rank_first_with_the_same_verdict():
    # on (E11, E12, E22), dropping the radical E12 is a unital ring
    # endomorphism of T2(F2) that is not bijective
    ring = t2_f2()
    e11, _e12, e22 = ring.gens()
    diagonal = AdditiveMap(ring, ring, [e11, ring.zero(), e22])
    assert ring_iso_failure(diagonal, ring, ring) == "map is not bijective"
    assert not verify_ring_iso(diagonal, ring, ring)
    swap = AdditiveMap(ring, ring, [e22, _e12, e11])  # bijective, not multiplicative
    assert ring_iso_failure(swap, ring, ring).startswith("multiplicativity fails")
    assert not verify_ring_iso(swap, ring, ring)
    assert verify_ring_iso(identity_map(ring), ring, ring)
    # endpoints are checked before the rank, as ring_iso_failure checks them
    with pytest.raises(ShapeMismatch, match="endpoints"):
        verify_ring_iso(diagonal, ring, t2_z4())


def test_ring_isomorphism_create_and_inverse():
    phi = RingIsomorphism.create(_crt())
    assert phi.domain == z6()
    inv = phi.inverse()
    assert inv.apply(z2xz3().element((1, 1))).coeffs == (1,)
    both = phi.compose(inv)
    assert both == identity_iso(z6())
    # a map on a Peirce row is additive only
    ring = t2_f2()
    e = ring.element((1, 0, 0))
    row = peirce_component(ring, e, ring.one_element() - e)
    with pytest.raises(ShapeMismatch, match="ring isomorphisms connect full presentations"):
        RingIsomorphism.create(AdditiveMap(row, row, list(row.generators)))


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
