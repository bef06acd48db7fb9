import itertools
import random
from unittest import mock

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

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
from finring.fixtures import (
    FIXTURE_BUILDERS,
    basis_change,
    cyclic,
    fixture,
    matrix_ring,
    t2_f2,
    upper_triangular,
)
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
    with pytest.raises(ShapeMismatch, match="orders must be a sequence of integers"):
        RingPresentation(("two",), (((1,),),), (1,))
    with pytest.raises(ShapeMismatch, match="mul row 1 must have 2 entries"):
        RingPresentation((2, 2), (((1, 0), (0, 1)), ((0, 1),)), (1, 0))
    with pytest.raises(ShapeMismatch, match="unit vector must have 2 coefficients"):
        RingPresentation((2, 2), (((1, 0), (0, 1)), ((0, 1), (0, 0))), (1,))
    # a mul that is not a nested sequence is a shape error, not a TypeError
    for mul in (5, None):
        with pytest.raises(ShapeMismatch, match="mul tensor must have 1 rows"):
            RingPresentation([2], mul, [1])
    with pytest.raises(ShapeMismatch, match="mul row 0 must have 1 entries"):
        RingPresentation([2], [5], [1])
    with pytest.raises(ShapeMismatch, match="element needs 1 coefficients"):
        cyclic(6).element((1, 2))


def test_rejects_floats_as_integers():
    # int(2.7) == 2 and int(1.9) == 1 would present Z2
    with pytest.raises(ShapeMismatch, match="orders must be a sequence of integers"):
        RingPresentation([2.7], [[[1.9]]], [1.2])
    with pytest.raises(ShapeMismatch, match=r"mul\[0\]\[0\] must be a sequence of integers"):
        RingPresentation([2], [[[1.0]]], [1])
    with pytest.raises(ShapeMismatch, match="one must be a sequence of integers"):
        RingPresentation([2], [[[1]]], [1.0])


def test_rejects_strings_and_bools_as_integers():
    # int("3") == 3 and int(True) == 1 would present Z3
    with pytest.raises(ShapeMismatch, match="orders must be a sequence of integers"):
        validate_presentation(["3"], [[["1"]]], [True])
    with pytest.raises(ShapeMismatch, match=r"mul\[0\]\[0\] must be a sequence of integers"):
        validate_presentation([3], [[["1"]]], [1])
    with pytest.raises(ShapeMismatch, match="one must be a sequence of integers"):
        validate_presentation([3], [[[1]]], [True])


def test_element_rejects_non_integer_coefficients():
    # int(3.9) == 3 would give (1, 0, 0) in T2(F2)
    ring = upper_triangular(2, 2)
    with pytest.raises(ShapeMismatch, match="coefficients must be a sequence of integers"):
        ring.element([3.9, 0, 0])
    with pytest.raises(ShapeMismatch, match="coefficients must be a sequence of integers"):
        ring.element([True, 0, 0])
    assert ring.element([3, 0, 0]).coeffs == (1, 0, 0)


def test_order_compatibility_check():
    # e0 has additive order 2, so e0*e0 must be killed by 2; (0,1) is not
    mul = (((0, 1), (0, 0)), ((0, 0), (0, 0)))
    with pytest.raises(OrderViolation) as exc:
        RingPresentation((2, 4), mul, (0, 0))
    assert exc.value.pair == (0, 0)
    # e0*e1 = e1*e0 = e1 are both killed by 4 but not by 2: the first pair
    # in row-major order is named
    mul = (((0, 0), (0, 1)), ((0, 1), (0, 0)))
    with pytest.raises(OrderViolation) as exc:
        RingPresentation((2, 4), mul, (0, 0))
    assert exc.value.pair == (0, 1)


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


def _reference_associativity(ring):
    """The element-product check: both bracketings of every generator triple
    through the product kernel, in lexicographic order of (i, j, l)."""
    basis = [g.coeffs for g in ring.gens()]
    for i, j, l in itertools.product(range(ring.rank), repeat=3):
        left = ring._mul_coeffs(ring.mul[i][j], basis[l])
        right = ring._mul_coeffs(basis[i], ring.mul[j][l])
        if left != right:
            raise NonAssociative(i, j, l)


def _associativity_verdicts(orders, mul, one):
    """(sparse check, reference) on the same data: the failing triple, or None
    when the check accepts.  The presentation is built with the three axiom
    checks switched off, so any reduced tensor gets to both."""
    skip = lambda self: None  # noqa: E731
    with mock.patch.multiple(
        RingPresentation,
        _check_order_compat=skip,
        _check_unit=skip,
        _check_associativity=skip,
    ):
        ring = RingPresentation(orders, mul, one)
    verdicts = []
    for check in (RingPresentation._check_associativity, _reference_associativity):
        try:
            check(ring)
        except NonAssociative as exc:
            verdicts.append(exc.triple)
        else:
            verdicts.append(None)
    return verdicts


@pytest.mark.parametrize("name", sorted(FIXTURE_BUILDERS))
def test_sparse_associativity_check_accepts_the_fixtures(name):
    ring = fixture(name)
    assert _associativity_verdicts(ring.orders, ring.mul, ring.one) == [None, None]


MUTATED_BASES = {
    "T2(Z4)": upper_triangular(2, 4),
    "T3(F2)": upper_triangular(3, 2),
    "M2(F2)": matrix_ring(2, 2),
}


@settings(max_examples=150, deadline=None)
@given(name=st.sampled_from(sorted(MUTATED_BASES)), data=st.data())
def test_sparse_associativity_check_matches_the_reference(name, data):
    # one structure constant changed to any reduced value
    ring = MUTATED_BASES[name]
    k = ring.rank
    i, j, l = (data.draw(st.integers(0, k - 1)) for _ in range(3))
    value = data.draw(st.integers(0, ring.orders[l] - 1))
    mul = [[list(vec) for vec in row] for row in ring.mul]
    mul[i][j][l] = value
    sparse, reference = _associativity_verdicts(ring.orders, mul, ring.one)
    assert sparse == reference


def test_sparse_associativity_check_reports_the_first_triple():
    # e12*e12 := e12 in T2(F2) on (e11, e12, e22): (e12 e11) e12 = 0 but
    # e12 (e11 e12) = e12, and no triple before (1, 0, 1) fails
    ring = upper_triangular(2, 2)
    mul = [[list(vec) for vec in row] for row in ring.mul]
    mul[1][1] = [0, 1, 0]
    assert _associativity_verdicts(ring.orders, mul, ring.one) == [(1, 0, 1), (1, 0, 1)]
    with pytest.raises(NonAssociative) as exc:
        RingPresentation(ring.orders, mul, ring.one)
    assert exc.value.triple == (1, 0, 1)


DENSE_BASES = {
    "T3(F2)": upper_triangular(3, 2),
    "T3(Z4)": upper_triangular(3, 4),
    "T2(Z9)": upper_triangular(2, 9),
    "M2(F3)": matrix_ring(2, 3),
}


@pytest.mark.parametrize("name", sorted(DENSE_BASES))
def test_packed_associativity_check_matches_the_triple_loop_on_dense_tensors(name):
    # after a basis change most bracketings differ before reduction, so the
    # packed comparison reads residues on almost every pair (i, j)
    ring = basis_change(DENSE_BASES[name], random.Random(0))[0]
    k, n = ring.rank, ring.orders[0]
    assert _associativity_verdicts(ring.orders, ring.mul, ring.one) == [None, None]
    rng = random.Random(1)
    failing = 0
    for _ in range(90):
        i, j, l = (rng.randrange(k) for _ in range(3))
        mul = [[list(vec) for vec in row] for row in ring.mul]
        mul[i][j][l] = (mul[i][j][l] + rng.randrange(1, n)) % n
        packed, reference = _associativity_verdicts(ring.orders, mul, ring.one)
        assert packed == reference, (i, j, l)
        failing += reference is not None
    assert failing > 45


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
