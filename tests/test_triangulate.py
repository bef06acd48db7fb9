import collections
import random
import sys

import pytest

from finring import (
    AmbientMismatch,
    CapExceeded,
    NotIdempotent,
    NotSemicentral,
    NotSemicentralReduced,
    RingPresentation,
    TriangularSequence,
    aut_group,
    aut_order,
    complete_triangulating_set,
    extend_semicentral,
    is_strongly_triangular,
    iso_search,
    locate_reduced,
    peirce_component,
)
from finring.corners import corner_ring
from finring.fixtures import (
    FIXTURE_BUILDERS,
    basis_change,
    dual_square,
    fixture,
    matrix_ring,
    poly_quotient,
    product,
    upper_triangular,
    zero_ring,
)
from finring.jsonio import ring_from_obj, ring_to_obj
from finring.subgroups import Subgroup

CANONICAL_SEQUENCES = {
    "z6": [(3,), (4,)],
    "f2": [(1,)],
    "f4": [(1, 0)],
    "z4": [(1,)],
    "t2_f2": [(1, 0, 0), (0, 0, 1)],
    "t2_z4": [(1, 0, 0), (0, 0, 1)],
    "t3_f2": [(1, 0, 0, 0, 0, 0), (0, 0, 0, 1, 0, 0), (0, 0, 0, 0, 0, 1)],
    "z2xz3": [(0, 1), (1, 0)],
    "three_block": [(0, 1, 0, 0), (0, 0, 0, 1), (1, 0, 0, 0)],
}


def test_canonical_sequences_frozen():
    for name in FIXTURE_BUILDERS:
        seq = complete_triangulating_set(fixture(name))
        assert [e.coeffs for e in seq.idems] == CANONICAL_SEQUENCES[name], name


def test_zero_ring_sequence_is_empty():
    zr = zero_ring()
    assert complete_triangulating_set(zr).m == 0


def test_sequences_are_valid():
    for name in FIXTURE_BUILDERS:
        ring = fixture(name)
        seq = complete_triangulating_set(ring)
        assert is_strongly_triangular(ring, seq.idems), name


def test_locate_on_z6():
    ring = fixture("z6")
    seq = complete_triangulating_set(ring)
    j, rest = locate_reduced(seq, ring.element((3,)))
    assert (j, rest.is_zero()) == (0, True)
    j, rest = locate_reduced(seq, ring.element((4,)))
    assert (j, rest.is_zero()) == (1, True)


def test_locate_on_t2f2():
    ring = fixture("t2_f2")
    seq = complete_triangulating_set(ring)
    j, rest = locate_reduced(seq, ring.element((1, 1, 0)))
    assert j == 0
    assert rest.coeffs == (0, 1, 0)
    # the offset lies strictly in the truncated row of block j
    assert (seq.idems[0] * rest * seq.idems[1]) == rest


def test_locate_preconditions():
    ring = fixture("t2_f2")
    seq = complete_triangulating_set(ring)
    with pytest.raises(NotIdempotent, match="not idempotent"):
        locate_reduced(seq, ring.element((0, 1, 0)))
    with pytest.raises(NotSemicentralReduced):
        locate_reduced(seq, ring.one_element())
    with pytest.raises(NotSemicentralReduced):
        locate_reduced(seq, ring.element((0, 0, 1)))
    # the sequence carries its ring; an idempotent of another ring is refused
    # by the element arithmetic
    with pytest.raises(AmbientMismatch):
        locate_reduced(seq, fixture("z6").element((3,)))


def test_locate_uniqueness_sweep():
    # exactly one diagonal block absorbs each semicentral reduced idempotent
    from finring import enumerate_idempotents, is_semicentral, is_semicentral_reduced
    from finring.corners import corner_ring

    for name in FIXTURE_BUILDERS:
        ring = fixture(name)
        seq = complete_triangulating_set(ring)
        for f in enumerate_idempotents(ring):
            if not is_semicentral(ring, f):
                continue
            if not is_semicentral_reduced(corner_ring(ring, f).presentation):
                continue
            j, rest = locate_reduced(seq, f)
            hits = [
                k
                for k in range(seq.m)
                if seq.idems[k] * f * seq.idems[k] == seq.idems[k]
            ]
            assert hits == [j], (name, f.coeffs)
            assert f == seq.idems[j] + rest


def test_extend_semicentral_t2f2():
    ring = fixture("t2_f2")
    e = ring.element((1, 1, 0))  # E11 + E12
    seq, l = extend_semicentral(ring, e)
    assert l == 1
    assert ring.sum(seq.idems[:l]) == e
    assert [x.coeffs for x in seq.idems] == [(1, 1, 0), (0, 1, 1)]
    assert is_strongly_triangular(ring, seq.idems)


def test_extend_semicentral_edges():
    ring = fixture("t2_f2")
    seq0, l0 = extend_semicentral(ring, ring.zero())
    assert l0 == 0
    assert seq0.m == 2
    seq1, l1 = extend_semicentral(ring, ring.one_element())
    assert l1 == seq1.m == 2


def test_extend_semicentral_rejects_non_semicentral():
    ring = fixture("t2_f2")
    with pytest.raises(NotSemicentral):
        extend_semicentral(ring, ring.element((0, 0, 1)))
    with pytest.raises(NotIdempotent, match="not idempotent"):
        extend_semicentral(ring, ring.element((0, 1, 0)))


def test_extend_semicentral_sweep():
    from finring import enumerate_idempotents, is_semicentral

    for name in FIXTURE_BUILDERS:
        ring = fixture(name)
        for e in enumerate_idempotents(ring):
            if not is_semicentral(ring, e):
                continue
            seq, l = extend_semicentral(ring, e)
            assert ring.sum(seq.idems[:l]) == e, (name, e.coeffs)
            assert is_strongly_triangular(ring, seq.idems), (name, e.coeffs)


def _reference_is_reduced(ring):
    """Semicentral reducedness from spans: only 0 and 1 have (1-e)*A*e = 0."""
    if ring.order == 1:
        return False
    one = ring.one_element()
    semis = [
        e
        for e in ring.elements()
        if e.is_idempotent() and peirce_component(ring, one - e, e).is_trivial()
    ]
    return semis == [ring.zero(), one]


def _reference_sweep(ring):
    """Reference sweep: list every tail corner sorted, and test semicentrality
    with the Hermite span of (tail-e)*A*e."""
    if ring.order == 1:
        return ()
    tail = ring.one_element()
    idems = []
    while not tail.is_zero():
        for e in peirce_component(ring, tail, tail).elements():
            if e.is_zero() or not e.is_idempotent():
                continue
            if not peirce_component(ring, tail - e, e).is_trivial():
                continue
            if not _reference_is_reduced(corner_ring(ring, e).presentation):
                continue
            break
        else:
            raise AssertionError("no admissible head")
        idems.append(e)
        tail = tail - e
    return tuple(idems)


LADDER = {
    "T4(F2)": upper_triangular(4, 2),
    "T3(Z4)": upper_triangular(3, 4),
    "T2(Z9)": upper_triangular(2, 9),
    "T3(Z3)": upper_triangular(3, 3),
    "M2(F2)": matrix_ring(2, 2),
}


def _permuted_copies(ring):
    """Three re-presentations; each reorders the coefficients, so the
    lexicographic sweep meets the elements in another order."""
    k = ring.rank
    perms = [
        tuple(reversed(range(k))),
        tuple(range(1, k)) + (0,),
        (1, 0) + tuple(range(2, k)),
    ]
    return [ring.permuted(p) for p in perms]


SWEEP_CASES = (
    [pytest.param(fixture(name), id=name) for name in FIXTURE_BUILDERS]
    + [pytest.param(ring, id=name) for name, ring in LADDER.items()]
    + [
        pytest.param(copy, id="%s-perm%d" % (name, i))
        for name, ring in LADDER.items()
        for i, copy in enumerate(_permuted_copies(ring))
    ]
)


@pytest.mark.parametrize("ring", SWEEP_CASES)
def test_sweep_matches_the_materialized_reference(ring):
    assert complete_triangulating_set(ring).idems == _reference_sweep(ring)


def test_sweep_lists_no_full_ring_and_spans_little(monkeypatch):
    counts = {"span": 0, "full": 0}
    span = Subgroup.span.__func__
    elements = Subgroup.elements

    def counted_span(cls, ring, elems):
        counts["span"] += 1
        return span(cls, ring, elems)

    def counted_elements(self):
        if self.order == self.ring.order:
            counts["full"] += 1
        return elements(self)

    monkeypatch.setattr(Subgroup, "span", classmethod(counted_span))
    monkeypatch.setattr(Subgroup, "elements", counted_elements)
    complete_triangulating_set(upper_triangular(4, 2))
    # Splitting 1 into E11, ..., E44 spans the corner of each idempotent it
    # meets: A, the tails E22 + E33 + E44 and E33 + E44, and the four E_ii,
    # which are the head corners and the last tail.  The four stages span
    # the rows E_ii*A*(t - E_ii), which are the rows build keeps, so build
    # spans nothing.  Spanning each corner again for the reducedness check
    # and for the corner presentation, and each tail again, made 22; a span
    # per semicentral test and a sorted listing of A would make 139 spans and
    # 1 full-ring list.
    assert counts == {"span": 11, "full": 0}


@pytest.mark.parametrize(
    "ring",
    [
        pytest.param(upper_triangular(4, 2), id="T4(F2)"),
        pytest.param(basis_change(upper_triangular(4, 2), random.Random(4))[0], id="T4(F2)-basis"),
    ],
)
def test_one_triangulation_spans_each_peirce_component_once(monkeypatch, ring):
    import finring.corners

    original = finring.corners.peirce_component
    components = collections.Counter()
    spans = [0]

    def counted(ring, e, f):
        components[e.coeffs, f.coeffs] += 1
        return original(ring, e, f)

    for name, mod in list(sys.modules.items()):
        if (name == "finring" or name.startswith("finring.")) and (
            getattr(mod, "peirce_component", None) is original
        ):
            monkeypatch.setattr(mod, "peirce_component", counted)
    span = Subgroup.span.__func__

    def counted_span(cls, ring, elems):
        spans[0] += 1
        return span(cls, ring, elems)

    monkeypatch.setattr(Subgroup, "span", classmethod(counted_span))
    seq = complete_triangulating_set(ring)
    assert seq.m == 4
    assert max(components.values()) == 1
    # every span is one of those components
    assert spans[0] == sum(components.values())
    # the shared spans are the components themselves
    assert seq.tails[-1] is seq.corners[-1].subgroup
    assert [c.subgroup for c in seq.corners] == [original(ring, e, e) for e in seq.idems]
    tails = [seq.tail_idempotent(i) for i in range(seq.m)]
    assert list(seq.tails) == [original(ring, t, t) for t in tails]


def _corner_span(ring, e, spans):
    """e*A*e, spanned once per dict spans of the sweep's own, which shares
    nothing with the ring's memo."""
    if e not in spans:
        spans[e] = peirce_component(ring, e, e)
    return spans[e]


def _swept_reduced_corner(ring, e, spans):
    """The definition in the ring: list e*A*e and count its semicentral
    idempotents, which must be exactly 0 and e."""
    from finring.corners import _vanishes

    corner = _corner_span(ring, e, spans)
    semis = [f for f in corner.elements() if f.is_idempotent() and _vanishes(ring, e - f, f)]
    return len(semis) == 2 and set(semis) == {ring.zero(), e}


def _lexicographic_sweep(ring):
    """The construction this package used before primitive idempotents: walk
    A (later tails: t*A*t, listed sorted) in lexicographic order and take the
    first admissible head of each tail, each corner swept for reducedness."""
    from finring.corners import _vanishes

    tail = ring.one_element()
    idems = []
    spans = {}
    while not tail.is_zero():
        sweep = _corner_span(ring, tail, spans).elements() if idems else ring.elements()
        for e in sweep:
            if e.is_zero() or not e.is_idempotent():
                continue
            if not _vanishes(ring, tail - e, e):
                continue
            if _swept_reduced_corner(ring, e, spans):
                break
        else:
            raise AssertionError("no admissible head")
        idems.append(e)
        tail = tail - e
    return tuple(idems)


def _corpus():
    t2_f2, m2_f2 = upper_triangular(2, 2), matrix_ring(2, 2)
    rings = {
        **{"T%d(Z%d)" % nm: upper_triangular(*nm) for nm in
           [(2, 2), (3, 2), (4, 2), (2, 3), (3, 3), (2, 4), (3, 4), (2, 8), (2, 9)]},
        **{"M%d(Z%d)" % nm: matrix_ring(*nm) for nm in [(2, 2), (2, 3), (2, 4), (3, 2)]},
        "T2(F2)xM2(F2)": product(t2_f2, m2_f2),
        "M2(F2)xM2(F2)": product(m2_f2, m2_f2),
        "F4xT2(F2)": product(fixture("f4"), t2_f2),
        "F2[x,y]/(x^2,y^2)": dual_square(),
        "F16": poly_quotient([1, 1, 0, 0]),
        "F2[x]/(x^4)": poly_quotient([0, 0, 0, 0]),
    }
    cases = [pytest.param(fixture(name), id=name) for name in FIXTURE_BUILDERS]
    for name, ring in rings.items():
        cases.append(pytest.param(ring, id=name))
        cases += [
            pytest.param(basis_change(ring, random.Random(seed))[0], id="%s-basis%d" % (name, seed))
            for seed in range(4)
        ]
    return cases


@pytest.mark.parametrize("ring", _corpus())
def test_construction_matches_the_lexicographic_sweep(ring):
    assert complete_triangulating_set(ring).idems == _lexicographic_sweep(ring)


@pytest.mark.parametrize(
    "ring",
    [pytest.param(upper_triangular(5, 2), id="T5(F2)"), pytest.param(upper_triangular(4, 3), id="T4(Z3)")],
)
def test_construction_matches_the_sweep_above_the_default_cap(ring):
    assert complete_triangulating_set(ring, ring.order).idems == _lexicographic_sweep(ring)


def test_construction_never_lists_the_ring(monkeypatch):
    def refuse(self):
        raise AssertionError("RingPresentation.elements called")

    monkeypatch.setattr(RingPresentation, "elements", refuse)
    rings = [fixture(name) for name in FIXTURE_BUILDERS] + [
        upper_triangular(4, 2),
        matrix_ring(3, 2),
        dual_square(),
        poly_quotient([1, 1, 0, 0]),
        basis_change(matrix_ring(2, 3), random.Random(0))[0],
    ]
    for ring in rings:
        assert is_strongly_triangular(ring, complete_triangulating_set(ring).idems)
    # above the default cap, where the sweep was refused
    assert complete_triangulating_set(upper_triangular(5, 2), 1 << 15).m == 5


@pytest.mark.parametrize(
    "ring", [pytest.param(matrix_ring(2, 9), id="M2(Z9)"), pytest.param(matrix_ring(3, 2), id="M3(F2)")]
)
def test_one_block_rings_list_nothing(monkeypatch, ring):
    # A is one block, the head's corner: its reducedness check in build
    # reads the construction's split of 1 and lists neither A nor any
    # subgroup, as sweeping the corner for semicentral idempotents did.
    def refuse(self):
        raise AssertionError("%s.elements called" % type(self).__name__)

    monkeypatch.setattr(RingPresentation, "elements", refuse)
    monkeypatch.setattr(Subgroup, "elements", refuse)
    assert complete_triangulating_set(ring, ring.order).m == 1


def test_each_idempotent_is_split_once(monkeypatch):
    # Every generator of F16 is a unit, whose idempotent power is 1, so only
    # listing F16 shows that 1 is primitive.  build's reducedness check of
    # the head 1 reads that answer from the ring's memo.
    listed = []
    original = Subgroup.elements

    def counted(self):
        listed.append(self.order)
        return original(self)

    monkeypatch.setattr(Subgroup, "elements", counted)
    assert complete_triangulating_set(poly_quotient([1, 1, 0, 0])).m == 1
    assert listed == [16]


# -- the ring's memo -----------------------------------------------------------


def _count_work(monkeypatch):
    """Count peirce_component calls, through every module's copy of the
    name, and sequence constructions (TriangularSequence.build)."""
    import finring.corners

    counts = {"spans": 0, "builds": 0}
    original = finring.corners.peirce_component
    build = TriangularSequence.build.__func__

    def counted(ring, e, f):
        counts["spans"] += 1
        return original(ring, e, f)

    def counted_build(cls, ring, idems, cap=None):
        counts["builds"] += 1
        return build(cls, ring, idems, cap)

    for name, mod in list(sys.modules.items()):
        if (name == "finring" or name.startswith("finring.")) and (
            getattr(mod, "peirce_component", None) is original
        ):
            monkeypatch.setattr(mod, "peirce_component", counted)
    monkeypatch.setattr(TriangularSequence, "build", classmethod(counted_build))
    return counts


@pytest.mark.parametrize(
    "ring",
    [
        pytest.param(upper_triangular(4, 2), id="T4(F2)"),
        pytest.param(basis_change(matrix_ring(2, 3), random.Random(0))[0], id="M2(F3)-basis"),
    ],
)
def test_a_second_question_about_a_ring_spans_and_builds_nothing(monkeypatch, ring):
    counts = _count_work(monkeypatch)
    order = aut_order(ring)
    assert counts["spans"] > 0 and counts["builds"] == 1
    counts.update(spans=0, builds=0)
    assert aut_group(ring).order == order
    assert iso_search(ring, ring) is not None
    assert counts == {"spans": 0, "builds": 0}


def test_the_cap_is_checked_before_the_kept_sequence():
    ring = upper_triangular(3, 2)
    assert complete_triangulating_set(ring, cap=64).m == 3
    with pytest.raises(CapExceeded, match="triangulating sweep size 64 exceeds cap 63"):
        complete_triangulating_set(ring, cap=63)


def test_rings_read_from_one_object_share_nothing(monkeypatch):
    # rings equal by content are still separate objects, each with its own
    # memo, so a query that loads its rings afresh repeats all of its work
    obj = ring_to_obj(upper_triangular(3, 2))
    counts = _count_work(monkeypatch)
    for _ in range(2):
        ring = ring_from_obj(obj)
        counts.update(spans=0, builds=0)
        assert complete_triangulating_set(ring).m == 3
        assert counts == {"spans": 8, "builds": 1}
