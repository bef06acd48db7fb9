import itertools

import pytest

from finring import (
    InvalidSequence,
    RingPresentation,
    Subgroup,
    TriangularSequence,
    brute_triangular_check,
    complete_triangulating_set,
    is_strongly_triangular,
    peirce_component,
    triangularity_failure,
)
from finring.fixtures import (
    FIXTURE_BUILDERS,
    field_f4,
    fixture,
    t2_f2,
    three_block,
    upper_triangular,
    z6,
)
from finring import oracle


def test_t2f2_sequence_accepted_and_reverse_rejected():
    ring = t2_f2()
    e11 = ring.element((1, 0, 0))
    e22 = ring.element((0, 0, 1))
    assert is_strongly_triangular(ring, [e11, e22])
    assert not is_strongly_triangular(ring, [e22, e11])


def test_z6_both_orders():
    ring = z6()
    a = ring.element((3,))
    b = ring.element((4,))
    assert is_strongly_triangular(ring, [a, b])
    assert is_strongly_triangular(ring, [b, a])
    # [1] alone fails: the full corner Z6 is not semicentral reduced
    assert not is_strongly_triangular(ring, [ring.one_element()])


def test_singleton_for_reduced_ring():
    ring = field_f4()
    assert is_strongly_triangular(ring, [ring.one_element()])


def test_failure_reasons_in_order():
    ring = t2_f2()
    e11 = ring.element((1, 0, 0))
    e12 = ring.element((0, 1, 0))
    e22 = ring.element((0, 0, 1))
    assert "idempotent" in triangularity_failure(ring, [e12, e22])
    assert "orthogonal" in triangularity_failure(ring, [e11, ring.one_element()])
    assert "sum" in triangularity_failure(ring, [e11])
    assert "component" in triangularity_failure(ring, [e22, e11])
    assert triangularity_failure(ring, [e11, e22]) is None


def test_empty_sequence_only_for_trivial_ring():
    zr = RingPresentation((), (), ())
    assert is_strongly_triangular(zr, [])
    assert not is_strongly_triangular(z6(), [])


def test_build_validates():
    ring = t2_f2()
    e11 = ring.element((1, 0, 0))
    e22 = ring.element((0, 0, 1))
    seq = TriangularSequence.build(ring, [e11, e22])
    assert seq.m == 2
    with pytest.raises(InvalidSequence):
        TriangularSequence.build(ring, [e22, e11])


def test_tails_shrink():
    ring = three_block()
    from finring import complete_triangulating_set

    seq = complete_triangulating_set(ring)
    assert seq.tails[0] == Subgroup.full(ring)
    orders = [t.order for t in seq.tails]
    assert orders == [16, 4, 2]
    # tail idempotents are the partial sums from the right
    assert seq.tail_idempotent(0) == ring.one_element()
    assert seq.tail_idempotent(seq.m).is_zero()


def test_corner_presentations():
    ring = t2_f2()
    seq = TriangularSequence.build(
        ring, [ring.element((1, 0, 0)), ring.element((0, 0, 1))]
    )
    assert [c.order for c in seq.corners] == [2, 2]


def _count_corner_rings(monkeypatch) -> list:
    """Record every corner_ring call, through each module's copy."""
    import sys

    import finring.corners

    original = finring.corners.corner_ring
    calls = []

    def counted(*args, **kwargs):
        calls.append(args)
        return original(*args, **kwargs)

    for modname, mod in list(sys.modules.items()):
        if modname == "finring" or modname.startswith("finring."):
            for key, value in list(vars(mod).items()):
                if value is original:
                    monkeypatch.setattr(mod, key, counted)
    return calls


def test_build_makes_each_corner_once(monkeypatch):
    # reducedness is decided in the ring, and tails are kept as subgroups
    # (the last is the last corner's): m corner rings
    calls = _count_corner_rings(monkeypatch)
    for ring in (upper_triangular(3, 4), three_block(), z6(), field_f4()):
        seq = complete_triangulating_set(ring)
        calls.clear()
        rebuilt = TriangularSequence.build(ring, seq.idems)
        assert len(calls) == seq.m
        assert rebuilt.corners == seq.corners and rebuilt.tails == seq.tails
        assert rebuilt.tails[-1] is rebuilt.corners[-1].subgroup


def test_triangularity_is_decided_without_corner_presentations(monkeypatch):
    ring = upper_triangular(4, 2)
    calls = _count_corner_rings(monkeypatch)
    seq = complete_triangulating_set(ring)
    # the 4 corners that build keeps; the sweep and the tails build none
    assert len(calls) == 4
    calls.clear()
    assert triangularity_failure(ring, seq.idems) is None
    assert calls == []


def _table_cases():
    from test_triangulate import _permuted_copies

    rings = {name: fixture(name) for name in FIXTURE_BUILDERS}
    rings["T3(Z4)"] = upper_triangular(3, 4)
    rings["T4(F2)"] = upper_triangular(4, 2)
    cases = [pytest.param(ring, id=name) for name, ring in rings.items()]
    for name in ("three_block", "T3(Z4)", "T4(F2)"):
        for i, copy in enumerate(_permuted_copies(rings[name])):
            cases.append(pytest.param(copy, id="%s-perm%d" % (name, i)))
    return cases


@pytest.mark.parametrize("ring", _table_cases())
def test_vanishing_table_admits_and_tails_match_the_components(ring, monkeypatch):
    # T3(Z4) has 4096 elements: let the oracle sweep the whole ring
    monkeypatch.setattr(oracle, "ORACLE_ELEMENT_CAP", ring.order)
    seq = complete_triangulating_set(ring)
    for i, ei in enumerate(seq.idems):
        for j, ej in enumerate(seq.idems):
            assert seq.vanishing[i][j] == peirce_component(ring, ei, ej).is_trivial(), (i, j)
    for sigma in itertools.permutations(range(seq.m)):
        reordered = [seq.idems[j] for j in sigma]
        assert seq.admits(sigma) == brute_triangular_check(ring, reordered)
    for i, tail in enumerate(seq.tails):
        t = seq.tail_idempotent(i)
        assert tail == peirce_component(ring, t, t), i
