import pytest

from finring import (
    AmbientMismatch,
    CapExceeded,
    NonAssociative,
    OrderViolation,
    RingPresentation,
    ShapeMismatch,
    UnitFailure,
    validate_presentation,
)
from finring.fixtures import cyclic, t2_f2, upper_triangular
from finring.presentation import require_cap


def test_cyclic_basics():
    z6 = cyclic(6)
    assert z6.order == 6
    assert z6.rank == 1
    assert z6.zero().coeffs == (0,)
    assert z6.one_element().coeffs == (1,)
    assert [e.coeffs for e in z6.elements()] == [(i,) for i in range(6)]


def test_zero_ring_is_rank_zero():
    zr = RingPresentation((), (), ())
    assert zr.order == 1
    assert zr.zero() == zr.one_element()
    assert list(zr.elements()) == [zr.zero()]


def test_generator_orders_must_be_at_least_two():
    with pytest.raises(ShapeMismatch):
        RingPresentation((1,), (((0,),),), (0,))
    with pytest.raises(ShapeMismatch):
        RingPresentation((0,), (((0,),),), (0,))


def test_rejects_unreduced_entries():
    # 6 == 0 mod 6 but the file-level contract demands reduced input
    with pytest.raises(ShapeMismatch):
        RingPresentation((6,), (((6,),),), (1,))
    with pytest.raises(ShapeMismatch):
        RingPresentation((6,), (((1,),),), (7,))


def test_rejects_wrong_shapes():
    with pytest.raises(ShapeMismatch):
        RingPresentation((2, 2), (((1, 0), (0, 0)),), (1, 0))
    with pytest.raises(ShapeMismatch):
        RingPresentation((2,), (((1, 0),),), (1,))


def test_order_compatibility_check():
    # e0 has additive order 2, so e0*e0 must be killed by 2; (0,1) is not
    mul = (((0, 1), (0, 0)), ((0, 0), (0, 0)))
    with pytest.raises(OrderViolation) as exc:
        RingPresentation((2, 4), mul, (0, 0))
    assert exc.value.pair == (0, 0)


def test_unit_law_check():
    # zero multiplication cannot have 1 as a unit
    with pytest.raises(UnitFailure):
        RingPresentation((2,), (((0,),),), (1,))


def test_associativity_check():
    # basis u (unit), a, b with a*a = b, a*b = a, b*a = 0: (aa)a != a(aa)
    Z = (0, 0, 0)
    mul = (
        ((1, 0, 0), (0, 1, 0), (0, 0, 1)),
        ((0, 1, 0), (0, 0, 1), (1, 0, 0)),
        ((0, 0, 1), Z, Z),
    )
    with pytest.raises(NonAssociative) as exc:
        RingPresentation((2, 2, 2), mul, (1, 0, 0))
    assert exc.value.triple == (1, 1, 1)


def test_element_arithmetic():
    z6 = cyclic(6)
    a = z6.element((4,))
    b = z6.element((5,))
    assert (a + b).coeffs == (3,)
    assert (a - b).coeffs == (5,)
    assert (-a).coeffs == (2,)
    assert (a * b).coeffs == (2,)
    assert (3 * a).coeffs == (0,)
    assert (a * 2).coeffs == (2,)
    assert a.is_zero() is False
    assert z6.element((3,)).is_idempotent()
    assert not b.is_idempotent()


def test_element_reduction_via_constructor():
    z6 = cyclic(6)
    assert z6.element((10,)).coeffs == (4,)
    assert z6.element((-1,)).coeffs == (5,)


def test_cross_ring_operations_fail():
    a = cyclic(6).element((1,))
    b = cyclic(4).element((1,))
    with pytest.raises(AmbientMismatch):
        a + b
    with pytest.raises(AmbientMismatch):
        a * b


def test_equality_ignores_name():
    a = cyclic(6, name="first")
    b = cyclic(6, name="second")
    assert a == b
    assert hash(a) == hash(b)
    assert a != cyclic(4)


def test_permuted_re_presentation():
    t2 = t2_f2()
    perm = (2, 0, 1)
    re = t2.permuted(perm)
    assert re.order == t2.order
    # the permuted ring multiplies consistently: E11 slot moved to index 1
    assert re.gen(1) * re.gen(1) == re.gen(1)
    with pytest.raises(ShapeMismatch):
        t2.permuted((0, 1))
    with pytest.raises(ShapeMismatch):
        t2.permuted((0, 0, 1))


def test_gen_refuses_indices_outside_the_rank():
    t2 = t2_f2()
    assert [t2.gen(i) for i in range(t2.rank)] == list(t2.gens())
    for i in (-1, t2.rank):
        with pytest.raises(ShapeMismatch):
            t2.gen(i)


def test_validate_presentation_wrapper():
    ring = validate_presentation((6,), (((1,),),), (1,), name="wrapped")
    assert ring.name == "wrapped"
    assert ring == cyclic(6)


def test_element_ordering_is_lexicographic():
    t2 = t2_f2()
    elems = list(t2.elements())
    assert elems == sorted(elems)
    assert elems[0].is_zero()


def test_require_cap():
    assert require_cap(10, None) == 4096
    with pytest.raises(CapExceeded) as exc:
        require_cap(5000, None)
    assert exc.value.cap == 4096
    with pytest.raises(CapExceeded):
        require_cap(11, 10)
    assert require_cap(7, 10) == 10


def test_upper_triangular_structure():
    t3 = upper_triangular(3, 2)
    assert t3.order == 64
    one = t3.one_element()
    for g in t3.gens():
        assert one * g == g
        assert g * one == g
