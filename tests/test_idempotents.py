import itertools
import random

import pytest

from finring import (
    CapExceeded,
    NotIdempotent,
    RingPresentation,
    enumerate_idempotents,
    is_semicentral,
    is_semicentral_reduced,
)
from finring.corners import corner_ring, peirce_component, vanishes
from finring.fixtures import (
    FIXTURE_BUILDERS,
    basis_change,
    cyclic,
    dual_square,
    f2,
    field_f4,
    fixture,
    matrix_ring,
    poly_quotient,
    product,
    t2_f2,
    upper_triangular,
    z6,
    zero_ring,
)
from finring.idempotents import has_reduced_corner


def test_z6_idempotents():
    ring = z6()
    assert [e.coeffs for e in enumerate_idempotents(ring)] == [(0,), (1,), (3,), (4,)]


def test_t2f2_idempotents_and_semicentral():
    ring = t2_f2()
    idems = enumerate_idempotents(ring)
    assert len(idems) == 6
    semis = [e.coeffs for e in idems if is_semicentral(ring, e)]
    # 0, E11, 1, E11+E12
    assert semis == [(0, 0, 0), (1, 0, 0), (1, 0, 1), (1, 1, 0)]


def test_e22_is_not_semicentral():
    ring = t2_f2()
    e22 = ring.element((0, 0, 1))
    assert not is_semicentral(ring, e22)
    # definitional witness: (1-E22) * E12 * E22 = E12
    comp = ring.one_element() - e22
    wit = comp * ring.element((0, 1, 0)) * e22
    assert wit.coeffs == (0, 1, 0)


def test_unit_is_semicentral():
    ring = t2_f2()
    assert is_semicentral(ring, ring.one_element())
    assert is_semicentral(ring, ring.zero())


def test_semicentral_requires_idempotent():
    ring = t2_f2()
    with pytest.raises(NotIdempotent):
        is_semicentral(ring, ring.element((0, 1, 0)))


def test_semicentral_reduced():
    assert is_semicentral_reduced(f2())
    assert is_semicentral_reduced(field_f4())
    assert is_semicentral_reduced(cyclic(4))
    assert not is_semicentral_reduced(z6())
    assert not is_semicentral_reduced(t2_f2())


def test_zero_ring_is_not_semicentral_reduced():
    zr = zero_ring()
    assert not is_semicentral_reduced(zr)


def test_enumeration_cap():
    big = cyclic(5000)
    with pytest.raises(CapExceeded):
        enumerate_idempotents(big)
    assert [e.coeffs for e in enumerate_idempotents(big, cap=5000)][:2] == [(0,), (1,)]


def _reference_has_reduced_corner(ring, e):
    """The corner's own presentation swept in corner coordinates."""
    corner = corner_ring(ring, e).presentation
    if corner.order == 1:
        return False
    semis = [f for f in enumerate_idempotents(corner) if is_semicentral(corner, f)]
    return len(semis) == 2 and set(semis) == {corner.zero(), corner.one_element()}


def _rebased(ring, basis):
    """ring presented on the elements of basis, which must be a Z_n-basis of
    it, n the one order of ring's generators."""
    n = ring.orders[0]
    coords = {
        ring.sum(c * h for c, h in zip(cs, basis)): cs
        for cs in itertools.product(range(n), repeat=len(basis))
    }
    mul = [[coords[a * b] for b in basis] for a in basis]
    return RingPresentation(ring.orders, mul, coords[ring.one_element()])


def _fallback_rings():
    """Bases on which every generator is a unit or nilpotent, so no
    idempotent power splits 1 and listing A finds the split: M2(F2) on 1,
    E12, E21 and E12 + E21 + E22, and F4 x F4 on four units, where only that
    listing shows that 1 is not reduced."""
    m2 = matrix_ring(2, 2)
    _e11, e12, e21, e22 = m2.gens()
    f4_f4 = product(field_f4(), field_f4())
    a, w, b, v = f4_f4.gens()  # 1 and w in each factor, w*w = w + 1
    return [
        pytest.param(
            _rebased(m2, [m2.one_element(), e12, e21, e12 + e21 + e22]), id="M2(F2)-units-nilpotents"
        ),
        pytest.param(_rebased(f4_f4, [a + b, w + b, a + v, a + w + b]), id="F4xF4-units"),
    ]


WIDER_RINGS = [
    pytest.param(matrix_ring(2, 3), id="M2(F3)"),
    pytest.param(matrix_ring(2, 4), id="M2(Z4)"),
    pytest.param(poly_quotient([1, 1, 0, 0]), id="F16"),
    pytest.param(dual_square(), id="F2[x,y]/(x^2,y^2)"),
    pytest.param(product(t2_f2(), matrix_ring(2, 2)), id="T2(F2)xM2(F2)"),
] + _fallback_rings() + [
    pytest.param(basis_change(ring, random.Random(seed))[0], id="%s-basis%d" % (name, seed))
    for seed, (name, ring) in enumerate(
        [
            ("M2(F2)", matrix_ring(2, 2)),
            ("T2(F2)xM2(F2)", product(t2_f2(), matrix_ring(2, 2))),
            ("M2(F3)", matrix_ring(2, 3)),
        ]
    )
]


REDUCEDNESS_RINGS = [
    pytest.param(fixture(name), id=name)
    for name in FIXTURE_BUILDERS
    if fixture(name).order <= 16
] + [
    pytest.param(matrix_ring(2, 2), id="M2(F2)"),
    pytest.param(upper_triangular(3, 2), id="T3(F2)"),
    pytest.param(upper_triangular(2, 9), id="T2(Z9)"),
] + WIDER_RINGS


@pytest.mark.parametrize("ring", REDUCEDNESS_RINGS)
def test_reduced_corner_decided_in_the_ring(ring):
    # every idempotent, semicentral or not, and 0 among them
    for e in enumerate_idempotents(ring):
        assert has_reduced_corner(ring, e) == _reference_has_reduced_corner(ring, e), e.coeffs


def _counted_has_reduced_corner(ring, e):
    """The definition in the ring: list e*A*e and count its semicentral
    idempotents, which must be exactly 0 and e."""
    corner = peirce_component(ring, e, e)
    semis = [f for f in corner.elements() if f.is_idempotent() and vanishes(ring, e - f, f)]
    return len(semis) == 2 and set(semis) == {ring.zero(), e}


@pytest.mark.parametrize(
    "ring",
    [pytest.param(fixture(name), id=name) for name in FIXTURE_BUILDERS]
    + [
        pytest.param(upper_triangular(2, 8), id="T2(Z8)"),
        pytest.param(basis_change(upper_triangular(3, 4), random.Random(3))[0], id="T3(Z4)-basis"),
    ]
    + WIDER_RINGS,
)
def test_short_circuit_reducedness_matches_the_count(ring):
    # the Peirce-graph block test against the definition: the listed corner's
    # semicentral idempotents, every one counted
    for e in enumerate_idempotents(ring):
        assert has_reduced_corner(ring, e) == _counted_has_reduced_corner(ring, e), e.coeffs


def test_reduced_corner_keeps_its_checks():
    """A split that lists nothing is never refused.  The ring keeps each
    split in its memo, and a split read from there lists nothing, so the
    cap refusal is asked of a fresh ring."""
    ring = upper_triangular(2, 9)
    with pytest.raises(NotIdempotent):
        has_reduced_corner(ring, ring.element((0, 1, 0)))
    # Z6 is generated by 1, whose idempotent power is 1: only listing the
    # six elements finds the idempotent 3 that splits it
    ring = z6()
    one = ring.one_element()
    assert not has_reduced_corner(ring, one, cap=6)
    assert not has_reduced_corner(ring, one, cap=5)
    ring = z6()
    with pytest.raises(CapExceeded, match="idempotent sweep size 6 exceeds cap 5"):
        has_reduced_corner(ring, ring.one_element(), cap=5)


def test_reducedness_refuses_only_what_it_lists():
    # M2(Z9) splits into E11 and E22, whose corners are Z9: nothing is
    # listed, so the default cap, below |A| = 6561, does not refuse
    assert is_semicentral_reduced(matrix_ring(2, 9))
    # T2(Z9)'s corner at E11 is Z9, generated by E11 itself
    ring = upper_triangular(2, 9)
    assert has_reduced_corner(ring, ring.element((1, 0, 0)), cap=1)
