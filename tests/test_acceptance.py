"""Release gate: end-to-end checks with wall-clock budgets.

Each test prints one "criterion N: PASS" line (visible with pytest -s); a
failing criterion shows up as the corresponding test failure.  Budgets are
asserted after the substance so a slow pass is reported as such.
"""
import itertools
import random
import time

from finring import (
    admissible_orders,
    aut_group,
    aut_order,
    brute_aut_count,
    brute_isos,
    brute_semicentral,
    brute_semicentral_list,
    brute_triangular_check,
    complete_triangulating_set,
    corner_ring,
    detect_direct_sum,
    enumerate_idempotents,
    enumerate_isomorphisms,
    extend_semicentral,
    inner_automorphism,
    is_semicentral,
    is_semicentral_reduced,
    is_strongly_triangular,
    iso_decompose,
    iso_search,
    iso_synthesize,
    locate_reduced,
    peirce_component,
    ring_units,
)
from finring import (
    AdditiveMap,
    CornerQuadruple,
    corner_synthesize,
    identity_iso,
)
from finring.fixtures import FIXTURE_BUILDERS, fixture, t2_f2, t2_z4

SMALL = [n for n in FIXTURE_BUILDERS if fixture(n).order <= 16]


def _finish(num: int, budget: float | None, t0: float) -> None:
    elapsed = time.perf_counter() - t0
    if budget is None:
        print("criterion %d: PASS (%.2fs)" % (num, elapsed))
        return
    print("criterion %d: PASS (%.2fs, budget %gs)" % (num, elapsed, budget))
    assert elapsed < budget


def _trivial_offset_quadruple(ring, e, m):
    """Identity corner maps and identity row map; only the offset varies."""
    comp = ring.one_element() - e
    corner = corner_ring(ring, e)
    other = corner_ring(ring, comp)
    row = peirce_component(ring, e, comp)
    rho = identity_iso(corner.presentation)
    phibar = identity_iso(other.presentation)
    chi = AdditiveMap(row, row, list(row.generators))
    return CornerQuadruple(rho, phibar, chi, m)


def test_criterion_01_t2f2_golden_run_with_oracle():
    t0 = time.perf_counter()
    ring = t2_f2()
    idems = enumerate_idempotents(ring)
    assert len(idems) == 6
    semis = {e.coeffs for e in idems if is_semicentral(ring, e)}
    assert semis == {(0, 0, 0), (1, 0, 0), (1, 1, 0), (1, 0, 1)}
    seq = complete_triangulating_set(ring)
    assert seq.m == 2
    assert [e.coeffs for e in seq.idems] == [(1, 0, 0), (0, 0, 1)]
    assert admissible_orders(seq) == [(0, 1)]
    assert detect_direct_sum(seq) == []
    assert aut_order(ring) == 2

    # independent confirmation of every number above
    assert sum(1 for x in ring.elements() if x.is_idempotent()) == 6
    assert {e.coeffs for e in brute_semicentral_list(ring)} == semis
    assert brute_triangular_check(ring, seq.idems)
    for perm in itertools.permutations(range(2)):
        assert brute_triangular_check(ring, [seq.idems[j] for j in perm]) == (
            perm == (0, 1)
        )
    assert brute_aut_count(ring) == 2
    _finish(1, 1.0, t0)


def test_criterion_02_z6_golden_run():
    t0 = time.perf_counter()
    ring = fixture("z6")
    idems = enumerate_idempotents(ring)
    assert {e.coeffs for e in idems} == {(0,), (1,), (3,), (4,)}
    seq = complete_triangulating_set(ring)
    assert seq.m == 2
    assert len(admissible_orders(seq)) == 2
    assert detect_direct_sum(seq) == [0, 1]
    assert aut_order(ring) == 1
    crt = iso_search(ring, fixture("z2xz3"))
    assert crt is not None
    assert crt.apply(ring.element((1,))).coeffs == (1, 1)
    _finish(2, 1.0, t0)


def test_criterion_03_offset_synthesis_is_conjugation():
    t0 = time.perf_counter()
    for build in (t2_f2, t2_z4):  # the modulus-4 ring leaves characteristic 2
        ring = build()
        e = ring.element((1, 0, 0))
        row = peirce_component(ring, e, ring.one_element() - e)
        for m in row.elements():
            phi = corner_synthesize(e, e, _trivial_offset_quadruple(ring, e, m))
            conj = inner_automorphism(ring.one_element() + m)
            assert all(phi.apply(x) == conj.apply(x) for x in ring.elements())
    _finish(3, None, t0)  # exact-equality criterion; no clock attached


def test_criterion_04_t3f2_roundtrips_and_unit_conjugations():
    t0 = time.perf_counter()
    ring = fixture("t3_f2")
    seq = complete_triangulating_set(ring)
    group = aut_group(ring)
    for phi in group.elements:
        d = iso_decompose(phi, seq, seq)
        assert iso_synthesize(seq, seq, d) == phi
    for d, iso in enumerate_isomorphisms(ring, ring):
        assert iso_decompose(iso, seq, seq) == d
    units = ring_units(ring)
    assert len(units) == 8
    for u in units:
        assert inner_automorphism(u) in group
    _finish(4, 10.0, t0)


def test_criterion_05_unique_location_of_reduced_idempotents():
    t0 = time.perf_counter()
    for name in FIXTURE_BUILDERS:
        ring = fixture(name)
        seq = complete_triangulating_set(ring)
        for f in enumerate_idempotents(ring):
            if not is_semicentral(ring, f):
                continue
            if not is_semicentral_reduced(corner_ring(ring, f).presentation):
                continue
            hits = [
                j
                for j in range(seq.m)
                if seq.idems[j] * f * seq.idems[j] == seq.idems[j]
            ]
            assert len(hits) == 1, (name, f)
            j, rest = locate_reduced(seq, f)
            assert j == hits[0]
            assert f == seq.idems[j] + rest
            tail = seq.tail_idempotent(j + 1)
            assert rest == seq.idems[j] * rest * tail
            for i in range(j):
                assert (seq.idems[i] * f * seq.idems[j]).is_zero()
    _finish(5, 5.0, t0)


def test_criterion_06_semicentral_extension():
    t0 = time.perf_counter()
    for name in FIXTURE_BUILDERS:
        ring = fixture(name)
        for e in enumerate_idempotents(ring):
            if not is_semicentral(ring, e):
                continue
            seq, l = extend_semicentral(ring, e)
            assert ring.sum(seq.idems[:l]) == e, (name, e)
            assert is_strongly_triangular(ring, seq.idems)
    _finish(6, 5.0, t0)


def test_criterion_07_three_block_rejections():
    t0 = time.perf_counter()
    ring = fixture("three_block")
    seq = complete_triangulating_set(ring)
    e1, e2, e3 = seq.idems
    # the first two blocks are linked by a nonzero connecting component
    assert peirce_component(ring, e1, e2).order > 1
    assert not is_strongly_triangular(ring, [e2, e1, e3])
    assert not is_strongly_triangular(ring, [e2, e3, e1])
    assert is_strongly_triangular(ring, [e1, e2, e3])
    _finish(7, 1.0, t0)


def test_criterion_08_presentation_invariance():
    t0 = time.perf_counter()
    rng = random.Random(20260823)
    for name in FIXTURE_BUILDERS:
        ring = fixture(name)
        m = complete_triangulating_set(ring).m
        for _ in range(20):
            perm = rng.sample(range(ring.rank), ring.rank)
            other = ring.permuted(perm)
            assert complete_triangulating_set(other).m == m, (name, perm)
            assert iso_search(other, ring) is not None, (name, perm)
    _finish(8, 10.0, t0)


def test_criterion_09_oracle_equivalence_sweep():
    t0 = time.perf_counter()
    for name in SMALL:
        ring = fixture(name)
        engine_semi = {
            e.coeffs
            for e in enumerate_idempotents(ring)
            if is_semicentral(ring, e)
        }
        brute_semi = {x.coeffs for x in ring.elements() if brute_semicentral(ring, x)}
        assert engine_semi == brute_semi, name

        seq = complete_triangulating_set(ring)
        for perm in itertools.permutations(range(seq.m)):
            arranged = [seq.idems[j] for j in perm]
            assert is_strongly_triangular(ring, arranged) == brute_triangular_check(
                ring, arranged
            ), (name, perm)
        if seq.m:
            assert not brute_triangular_check(ring, seq.idems[:1] * 2)

        assert aut_order(ring) == brute_aut_count(ring), name
    for a_name, b_name in itertools.product(SMALL, SMALL):
        a, b = fixture(a_name), fixture(b_name)
        if a.order != b.order:
            continue
        engine = {iso.images for _d, iso in enumerate_isomorphisms(a, b)}
        brute = {iso.images for iso in brute_isos(a, b)}
        assert engine == brute, (a_name, b_name)
    _finish(9, 60.0, t0)
