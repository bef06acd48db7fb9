import pytest

from finring import NotIdempotent, corner_ring, iso_search, peirce_component, vanishes
from finring.corners import _vanishes
from finring.fixtures import FIXTURE_BUILDERS, cyclic, fixture, matrix_ring, t2_f2, z6


def test_corner_at_one_is_the_ring():
    ring = t2_f2()
    c = corner_ring(ring, ring.one_element())
    assert c.presentation == ring
    assert c.order == ring.order
    for g in ring.gens():
        assert c.embed(c.project(g)) == g


def test_corner_at_zero_is_trivial():
    ring = t2_f2()
    c = corner_ring(ring, ring.zero())
    assert c.order == 1
    assert c.presentation.rank == 0


def test_corner_requires_idempotent():
    ring = t2_f2()
    with pytest.raises(NotIdempotent):
        corner_ring(ring, ring.element((0, 1, 0)))


def test_vanishes_requires_idempotents():
    # e12*A*e11 = 0, so only the idempotence check stops the public test
    # from answering on the nilpotent e12
    ring = t2_f2()
    e11, e12 = ring.element((1, 0, 0)), ring.element((0, 1, 0))
    assert _vanishes(ring, e12, e11)
    with pytest.raises(NotIdempotent):
        vanishes(ring, e12, e11)
    with pytest.raises(NotIdempotent):
        vanishes(ring, e11, e12)


def test_t2f2_diagonal_corners():
    ring = t2_f2()
    e11 = ring.element((1, 0, 0))
    e22 = ring.element((0, 0, 1))
    top = corner_ring(ring, e11)
    bottom = corner_ring(ring, e22)
    assert top.order == 2
    assert bottom.order == 2
    assert top.presentation.orders == (2,)
    # the corner unit embeds back onto the idempotent
    assert top.embed(top.presentation.one_element()) == e11
    assert bottom.embed(bottom.presentation.one_element()) == e22


def test_z6_corners():
    ring = z6()
    c2 = corner_ring(ring, ring.element((3,)))
    c3 = corner_ring(ring, ring.element((4,)))
    assert c2.order == 2
    assert c3.order == 3
    # canonical generator of {0,2,4} is the ambient 2, so the unit is 2*gen
    assert c3.presentation.orders == (3,)
    assert c3.presentation.one == (2,)
    assert c3.embed(c3.presentation.one_element()) == ring.element((4,))
    assert iso_search(c3.presentation, cyclic(3)) is not None


def test_project_embed_roundtrip():
    ring = t2_f2()
    e = ring.element((1, 1, 0))  # E11 + E12, a non-diagonal idempotent
    c = corner_ring(ring, e)
    assert c.order == 2
    for r in c.presentation.elements():
        assert c.project(c.embed(r)) == r
    # projection restricted to the corner subgroup inverts embedding
    assert c.embed(c.presentation.one_element()) == e


def test_corner_multiplication_matches_ambient():
    ring = t2_f2()
    e = ring.element((1, 0, 0))
    c = corner_ring(ring, e)
    for r in c.presentation.elements():
        for s in c.presentation.elements():
            assert c.embed(r * s) == c.embed(r) * c.embed(s)


def test_peirce_components():
    ring = t2_f2()
    e11 = ring.element((1, 0, 0))
    e22 = ring.element((0, 0, 1))
    upper = peirce_component(ring, e11, e22)
    lower = peirce_component(ring, e22, e11)
    assert upper.order == 2
    assert ring.element((0, 1, 0)) in upper
    assert lower.is_trivial()


def test_peirce_component_requires_idempotents():
    ring = t2_f2()
    with pytest.raises(NotIdempotent):
        peirce_component(ring, ring.element((0, 1, 0)), ring.one_element())


SMALL_RINGS = [
    pytest.param(fixture(name), id=name)
    for name in FIXTURE_BUILDERS
    if fixture(name).order <= 16
] + [pytest.param(matrix_ring(2, 2), id="M2(F2)")]


@pytest.mark.parametrize("ring", SMALL_RINGS)
def test_vanishes_agrees_with_the_span(ring):
    """Same answer on every pair of idempotents, and NotIdempotent on exactly
    the pairs where peirce_component raises it."""

    def outcome(test, e, f):
        try:
            return test(ring, e, f)
        except NotIdempotent:
            return NotIdempotent

    def span_trivial(ring, e, f):
        return peirce_component(ring, e, f).is_trivial()

    elems = list(ring.elements())
    for e in elems:
        for f in elems:
            expect = outcome(span_trivial, e, f)
            assert outcome(vanishes, e, f) == expect, (e.coeffs, f.coeffs)
