import itertools

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from finring.errors import AmbientMismatch
from finring.fixtures import cyclic, product
from finring.subgroups import Subgroup


def _z2z4():
    return product(cyclic(2), cyclic(4), name="Z2xZ4")


def test_mixed_modulus_cyclic_span():
    # span{(1,1)} in Z2 x Z4 is cyclic of order 4; a naive per-column basis
    # would misreport it as a product of smaller groups
    ring = _z2z4()
    sub = Subgroup.span(ring, [ring.element((1, 1))])
    assert sub.order == 4
    assert sub.generator_orders == (4,)
    got = {e.coeffs for e in sub.elements()}
    assert got == {(0, 0), (1, 1), (0, 2), (1, 3)}


def test_coords_are_additive():
    ring = _z2z4()
    sub = Subgroup.span(ring, [ring.element((1, 1))])
    orders = sub.generator_orders
    for x in sub.elements():
        for y in sub.elements():
            cx = sub.coords(x)
            cy = sub.coords(y)
            merged = tuple((a + b) % o for a, b, o in zip(cx, cy, orders))
            assert sub.element_from_coords(merged) == x + y


def test_coords_roundtrip():
    ring = product(cyclic(4), cyclic(8), name="Z4xZ8")
    sub = Subgroup.span(ring, [ring.element((1, 2)), ring.element((0, 4))])
    for x in sub.elements():
        assert sub.element_from_coords(sub.coords(x)) == x


def test_full_and_zero_subgroups():
    ring = _z2z4()
    full = Subgroup.full(ring)
    zero = Subgroup.zero(ring)
    assert full.order == 8
    assert zero.order == 1
    assert zero.is_trivial()
    assert not full.is_trivial()
    assert ring.element((1, 3)) in full
    assert ring.element((1, 0)) not in zero
    assert ring.zero() in zero


def test_membership():
    ring = _z2z4()
    sub = Subgroup.span(ring, [ring.element((0, 2))])
    assert sub.order == 2
    assert ring.element((0, 2)) in sub
    assert ring.element((0, 1)) not in sub
    assert ring.element((1, 2)) not in sub
    # elements of another ring are refused, not tested
    stranger = product(cyclic(4), cyclic(2)).element((2, 0))
    with pytest.raises(AmbientMismatch):
        Subgroup.span(ring, [stranger])
    with pytest.raises(AmbientMismatch):
        sub.coords(stranger)
    with pytest.raises(AmbientMismatch):
        sub.contains(stranger)


def test_elements_sorted_and_complete():
    ring = _z2z4()
    sub = Subgroup.span(ring, [ring.element((1, 0)), ring.element((0, 2))])
    elems = sub.elements()
    assert elems == sorted(elems)
    assert len(elems) == sub.order == 4


def test_span_equals_span_of_all_elements():
    ring = _z2z4()
    sub = Subgroup.span(ring, [ring.element((1, 1))])
    again = Subgroup.span(ring, sub.elements())
    assert sub == again
    assert hash(sub) == hash(again)


@settings(max_examples=60, deadline=None)
@given(
    st.lists(
        st.tuples(st.integers(0, 1), st.integers(0, 3), st.integers(0, 2)),
        max_size=4,
    ),
    st.data(),
)
def test_span_canonical_under_shuffle(rows, data):
    ring = product(product(cyclic(2), cyclic(4)), cyclic(3), name="Z2xZ4xZ3")
    gens = [ring.element(r) for r in rows]
    shuffled = data.draw(st.permutations(gens))
    a = Subgroup.span(ring, gens)
    b = Subgroup.span(ring, list(shuffled))
    assert a.hnf == b.hnf
    assert a == b
    assert all(g in a for g in gens)
    assert ring.order % a.order == 0


def test_sum_of_components_tile():
    # orders of complementary spans multiply to the ambient order when the
    # spans intersect trivially; a quick coherence check of order arithmetic
    ring = _z2z4()
    a = Subgroup.span(ring, [ring.element((1, 0))])
    b = Subgroup.span(ring, [ring.element((0, 1))])
    joint = Subgroup.span(ring, [ring.element((1, 0)), ring.element((0, 1))])
    assert a.order * b.order == joint.order == ring.order
    combos = {
        (x + y).coeffs
        for x, y in itertools.product(a.elements(), b.elements())
    }
    assert len(combos) == ring.order


@settings(max_examples=60, deadline=None)
@given(
    rows=st.lists(st.tuples(st.integers(0, 5), st.integers(0, 3), st.integers(0, 7)), max_size=3),
    x=st.tuples(st.integers(0, 5), st.integers(0, 3), st.integers(0, 7)),
)
def test_least_in_coset_is_the_minimum_of_the_coset(rows, x):
    # Z6 x Z4 x Z8: pivots need not divide each other across columns
    ring = product(product(cyclic(6), cyclic(4)), cyclic(8), name="Z6xZ4xZ8")
    sub = Subgroup.span(ring, [ring.element(r) for r in rows])
    x = ring.element(x)
    assert sub.least_in_coset(x) == min(x + s for s in sub.elements())
    with pytest.raises(AmbientMismatch):
        sub.least_in_coset(cyclic(2).one_element())
