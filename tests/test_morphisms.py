import dataclasses
import gc
import itertools
import random
import sys

import pytest

from finring import (
    AdditiveMap,
    AmbientMismatch,
    CapExceeded,
    CornerQuadruple,
    InadmissiblePermutation,
    InconsistentQuadruple,
    IsoDecomposition,
    LocationMismatch,
    NotSemicentral,
    RingIsomorphism,
    ShapeMismatch,
    TriangularSequence,
    aut_group,
    aut_order,
    check_corner_quadruple,
    complete_triangulating_set,
    corner_decompose,
    corner_ring,
    corner_synthesize,
    enumerate_idempotents,
    enumerate_isomorphisms,
    identity_iso,
    inner_automorphism,
    is_semicentral,
    iso_count,
    iso_decompose,
    iso_search,
    iso_synthesize,
    locate_reduced,
    peirce_component,
    ring_units,
    verify_ring_iso,
)
from finring import morphisms
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
    t2_f2_inner,
    t2_z4,
    upper_triangular,
    upper_triangular_over,
    zero_ring,
)
from finring.oracle import brute_isos
from finring.presentation import RingPresentation


def _identity_quadruple(ring, e, m):
    comp = ring.one_element() - e
    corner = corner_ring(ring, e)
    other = corner_ring(ring, comp)
    row = peirce_component(ring, e, comp)
    rho = identity_iso(corner.presentation)
    phibar = identity_iso(other.presentation)
    chi = AdditiveMap(row, row, list(row.generators))
    return CornerQuadruple(rho, phibar, chi, m)


def test_corner_synthesis_is_conjugation():
    # with all maps trivial the offset m produces conjugation by 1 + m
    for build in (t2_f2, t2_z4):
        ring = build()
        e = ring.element((1, 0, 0))
        row = peirce_component(ring, e, ring.one_element() - e)
        for m in row.elements():
            q = _identity_quadruple(ring, e, m)
            phi = corner_synthesize(e, e, q)
            conj = inner_automorphism(ring.one_element() + m)
            assert all(phi.apply(x) == conj.apply(x) for x in ring.elements())


def test_corner_synthesize_requires_semicentral():
    ring = t2_f2()
    e22 = ring.element((0, 0, 1))
    q = _identity_quadruple(ring, e22, ring.zero())
    with pytest.raises(NotSemicentral):
        corner_synthesize(e22, e22, q)


def test_corner_decompose_roundtrip():
    ring = t2_z4()
    e = ring.element((1, 0, 0))
    u = ring.element((1, 3, 1))  # 1 + 3*E12
    phi = inner_automorphism(u)
    q = corner_decompose(phi, e, e)
    assert q.m.coeffs == (0, 3, 0)
    assert corner_synthesize(e, e, q) == phi

    # every automorphism, at the head idempotent over the block it locates to
    # and at every semicentral idempotent e over phi(e)
    for name in ("t2_f2", "t2_z4", "z6"):
        ring = fixture(name)
        seq = complete_triangulating_set(ring)
        head = seq.idems[0]
        semicentral = [e for e in enumerate_idempotents(ring) if is_semicentral(ring, e)]
        offsets = set()
        for _d, phi in enumerate_isomorphisms(ring, ring):
            j, m = locate_reduced(seq, phi.apply(head))
            offsets.add(m.coeffs)
            pairs = [(head, seq.idems[j])] + [(e, phi.apply(e)) for e in semicentral]
            for e, f in pairs:
                q = corner_decompose(phi, e, f)
                check_corner_quadruple(e, f, q)
                assert corner_synthesize(e, f, q) == phi, (name, e, f)
        if name == "t2_z4":
            assert len(offsets) == 4  # every element of the row Z4*E12 occurs


def test_corner_decompose_location_mismatch():
    # both idempotents are semicentral, but phi(3) misses the coset of 4
    ring = fixture("z6")
    phi = identity_iso(ring)
    with pytest.raises(LocationMismatch):
        corner_decompose(phi, ring.element((3,)), ring.element((4,)))
    # idempotents of another ring do not locate at all
    other = fixture("z2xz3")
    with pytest.raises(AmbientMismatch, match="idempotents do not match"):
        corner_decompose(phi, other.element((1, 0)), ring.element((3,)))


def test_quadruple_validation():
    ring = t2_f2()
    e = ring.element((1, 0, 0))
    row = peirce_component(ring, e, ring.one_element() - e)
    q = _identity_quadruple(ring, e, ring.zero())
    check_corner_quadruple(e, e, q)

    # offset outside the row
    bad_offset = CornerQuadruple(q.rho, q.phibar, q.chi, ring.element((1, 0, 0)))
    with pytest.raises(InconsistentQuadruple):
        check_corner_quadruple(e, e, bad_offset)

    # non-bijective row map
    zero_chi = AdditiveMap(row, row, [ring.zero() for _ in row.generators])
    with pytest.raises(InconsistentQuadruple):
        check_corner_quadruple(e, e, CornerQuadruple(q.rho, q.phibar, zero_chi, ring.zero()))


def _frobenius(corner: RingPresentation) -> RingIsomorphism:
    """The Frobenius of an F4 corner.  T2(F4) has two F4 corners, each
    acting on the row F4 by multiplication, so it twists either action."""
    (frob,) = [g for g in aut_group(corner).elements if g != identity_iso(corner)]
    return frob


def _corruptions(ring, row, rho, closing, closing_name, closing_what):
    """(field, corrupt value, reason) for one level of identity data: rho is
    its corner isomorphism, closing the map of the level below it, which the
    checks call closing_what."""
    zero_chi = AdditiveMap(row, row, [ring.zero() for _ in row.generators])
    return [
        ("m", ring.one_element(), "offset lies outside the target row"),
        ("chi", zero_chi, "row map is not bijective"),
        ("rho", _frobenius(rho.domain), "left action compatibility fails"),
        (closing_name, _frobenius(closing.domain), "right action compatibility fails"),
        ("rho", identity_iso(ring), "corner isomorphism has wrong endpoints"),
        ("chi", AdditiveMap(row, ring, row.generators), "row map has wrong endpoints"),
        (closing_name, identity_iso(ring), "%s has wrong endpoints" % closing_what),
    ]


def test_every_level_check_reason_reaches_iso_synthesize():
    ring = upper_triangular_over(2, field_f4())
    seq = complete_triangulating_set(ring)
    assert seq.m == 2 and all(c.order == 4 for c in seq.corners)
    d = iso_decompose(identity_iso(ring), seq, seq)
    layer = d.layers[0]
    closing = "closing corner isomorphism"
    cases = _corruptions(ring, seq.rows[0], layer.rho, d.last_rho, "last_rho", closing)
    for field, value, reason in cases:
        if field == "last_rho":
            bad = dataclasses.replace(d, last_rho=value)
        else:
            bad = dataclasses.replace(d, layers=(dataclasses.replace(layer, **{field: value}),))
        # the closing map's endpoints are checked first, as level m - 1
        level = 1 if reason.startswith(closing) else 0
        with pytest.raises(InconsistentQuadruple) as info:
            iso_synthesize(seq, seq, bad)
        assert (info.value.reason, info.value.level) == (reason, level)
        assert str(info.value) == "%s at level %d" % (reason, level)
    with pytest.raises(InconsistentQuadruple) as info:
        iso_synthesize(seq, seq, dataclasses.replace(d, last_rho=None))
    assert str(info.value) == "closing corner isomorphism has wrong endpoints at level 1"


def test_every_level_check_reason_reaches_check_corner_quadruple():
    ring = upper_triangular_over(2, field_f4())
    e = complete_triangulating_set(ring).idems[0]
    q = corner_decompose(identity_iso(ring), e, e)
    row = peirce_component(ring, e, ring.one_element() - e)
    cases = _corruptions(ring, row, q.rho, q.phibar, "phibar", "complement isomorphism")
    for field, value, reason in cases:
        with pytest.raises(InconsistentQuadruple) as info:
            check_corner_quadruple(e, e, dataclasses.replace(q, **{field: value}))
        assert (info.value.reason, info.value.level) == (reason, None)
        assert str(info.value) == reason


def test_level_checks_name_the_level_below_the_top():
    # T3(F2): a row map that drops the generator of the second row, and one
    # that swaps E12 and E13 in the first (E12 * E23 = E13 is not preserved)
    ring = fixture("t3_f2")
    seq = complete_triangulating_set(ring)
    d = iso_decompose(identity_iso(ring), seq, seq)
    row0, row1 = seq.rows[0], seq.rows[1]
    zero_chi = AdditiveMap(row1, row1, [ring.zero()])
    swap = AdditiveMap(row0, row0, row0.generators[::-1])
    for i, chi, reason in ((1, zero_chi, "row map is not bijective"),
                           (0, swap, "right action compatibility fails")):
        layers = list(d.layers)
        layers[i] = dataclasses.replace(layers[i], chi=chi)
        with pytest.raises(InconsistentQuadruple) as info:
            iso_synthesize(seq, seq, dataclasses.replace(d, layers=tuple(layers)))
        assert (info.value.reason, info.value.level) == (reason, i)


def test_corner_data_is_the_first_layer_of_a_two_block_decomposition():
    # the single-level API is layer 0 over the two-block sequence, with the
    # closing corner isomorphism as phibar
    pairs = [("t2_f2", "t2_f2"), ("t2_z4", "t2_z4"), ("z6", "z6"), ("z6", "z2xz3"), ("z2xz3", "z6")]
    cases = 0
    for a, b in pairs:
        ring_a, ring_b = fixture(a), fixture(b)
        seq_a, seq_b = complete_triangulating_set(ring_a), complete_triangulating_set(ring_b)
        assert seq_a.m == seq_b.m == 2
        for _d, phi in enumerate_isomorphisms(ring_a, ring_b):
            d = iso_decompose(phi, seq_a, seq_b)
            q = corner_decompose(phi, seq_a.idems[0], seq_b.idems[d.sigma[0]])
            layer = d.layers[0]
            assert (q.rho, q.chi, q.m) == (layer.rho, layer.chi, layer.m), (a, b)
            assert q.phibar == d.last_rho
            cases += 1
    assert cases == 13


def test_iso_synthesize_rejects_inadmissible_sigma():
    ring = t2_f2()
    seq = complete_triangulating_set(ring)
    good = iso_decompose(identity_iso(ring), seq, seq)
    swapped = IsoDecomposition((1, 0), good.layers, good.last_rho)
    with pytest.raises(InadmissiblePermutation):
        iso_synthesize(seq, seq, swapped)
    # a sigma that is not a permutation of the blocks
    repeated = IsoDecomposition((0, 0), good.layers, good.last_rho)
    with pytest.raises(InadmissiblePermutation):
        iso_synthesize(seq, seq, repeated)
    # the shape checks that come before sigma's: F2 has one block, and a
    # two-block decomposition has one layer
    with pytest.raises(ShapeMismatch, match="sequences have different lengths"):
        iso_synthesize(complete_triangulating_set(f2()), seq, good)
    with pytest.raises(ShapeMismatch, match="expected 1 layers, got 0"):
        iso_synthesize(seq, seq, IsoDecomposition(good.sigma, (), good.last_rho))


def test_iso_synthesize_does_not_relabel_internal_errors(monkeypatch):
    # only package errors become StructureViolation; a bug stays a bug
    ring = t2_z4()
    seq = complete_triangulating_set(ring)
    d = iso_decompose(inner_automorphism(ring.element((1, 3, 1))), seq, seq)

    def broken(*args):
        raise TypeError("internal bug")

    monkeypatch.setattr(morphisms, "_level_map", broken)
    with pytest.raises(TypeError, match="internal bug"):
        iso_synthesize(seq, seq, d)


def test_enumeration_reuses_the_sequence_rows(monkeypatch):
    # Peirce rows are built with the sequences, before the first yield
    import finring.corners

    original = finring.corners.peirce_component
    calls = []

    def counted(*args):
        calls.append(args)
        return original(*args)

    for modname, mod in list(sys.modules.items()):
        if modname == "finring" or modname.startswith("finring."):
            for key, value in list(vars(mod).items()):
                if value is original:
                    monkeypatch.setattr(mod, key, counted)
    ring = t2_z4()
    pairs = enumerate_isomorphisms(ring, ring)
    next(pairs)
    assert calls  # the patch reaches the sequence construction
    calls.clear()
    assert len(list(pairs)) == 7
    assert calls == []


def test_iso_decompose_identity_z6():
    ring = fixture("z6")
    seq = complete_triangulating_set(ring)
    d = iso_decompose(identity_iso(ring), seq, seq)
    assert d.sigma == (0, 1)
    assert len(d.layers) == 1
    assert d.layers[0].m.is_zero()
    assert d.last_rho is not None
    # phi must run between the sequences' rings
    seq_t2f2 = complete_triangulating_set(t2_f2())
    with pytest.raises(ShapeMismatch, match="map endpoints do not match the sequences"):
        iso_decompose(identity_iso(ring), seq_t2f2, seq_t2f2)


def test_iso_decompose_inner_t2f2():
    ring = t2_f2()
    seq = complete_triangulating_set(ring)
    phi = inner_automorphism(ring.element((1, 1, 1)))
    d = iso_decompose(phi, seq, seq)
    assert d.sigma == (0, 1)
    assert d.layers[0].m.coeffs == (0, 1, 0)
    assert d.layers[0].rho == identity_iso(seq.corners[0].presentation)
    assert iso_synthesize(seq, seq, d) == phi


def test_enumeration_counts():
    assert len(list(enumerate_isomorphisms(fixture("z6"), fixture("z2xz3")))) == 1
    assert len(list(enumerate_isomorphisms(fixture("z6"), fixture("z6")))) == 1
    assert len(list(enumerate_isomorphisms(fixture("f4"), fixture("z4")))) == 0
    assert len(list(enumerate_isomorphisms(t2_f2(), t2_f2()))) == 2


def test_enumeration_has_no_duplicates():
    for name in ("t2_f2", "three_block", "t2_z4"):
        ring = fixture(name)
        pairs = list(enumerate_isomorphisms(ring, ring))
        maps = [iso.images for _d, iso in pairs]
        assert len(maps) == len(set(maps)), name


def test_iso_search_crt():
    iso = iso_search(fixture("z6"), fixture("z2xz3"))
    assert iso is not None
    assert iso.images == ((1, 1),)


def test_iso_search_negative_cases():
    assert iso_search(cyclic(2), cyclic(3)) is None
    # same order, different block counts
    ff = product(f2(), f2())
    assert iso_search(cyclic(4), ff) is None
    # same order and block count, non-isomorphic corners
    assert iso_search(fixture("f4"), cyclic(4)) is None


def test_roundtrip_b_small_rings():
    # the one-element ring has the empty sequence and one empty decomposition
    rings = [fixture(name) for name in ("z6", "z2xz3", "t2_f2", "three_block")]
    for ring in rings + [zero_ring()]:
        seq = complete_triangulating_set(ring)
        for d, iso in enumerate_isomorphisms(ring, ring):
            assert iso_decompose(iso, seq, seq) == d, ring


def test_synthesis_output_always_verifies():
    # every enumerated parametrization synthesizes to a genuine isomorphism
    ring = t2_z4()
    count = 0
    for _d, iso in enumerate_isomorphisms(ring, ring):
        assert verify_ring_iso(iso, ring, ring)
        count += 1
    assert count == 8


def test_unit_conjugations_are_enumerated():
    ring = t2_z4()
    enumerated = {iso.images for _d, iso in enumerate_isomorphisms(ring, ring)}
    conj = {inner_automorphism(u).images for u in ring_units(ring)}
    assert conj <= enumerated


def test_cross_ring_decompose_roundtrip():
    a = fixture("z6")
    b = fixture("z2xz3")
    seq_a = complete_triangulating_set(a)
    seq_b = complete_triangulating_set(b)
    phi = iso_search(a, b)
    d = iso_decompose(phi, seq_a, seq_b)
    assert sorted(d.sigma) == [0, 1]
    assert iso_synthesize(seq_a, seq_b, d) == phi


def test_zero_ring_isomorphism():
    za = zero_ring()
    zb = zero_ring()
    pairs = list(enumerate_isomorphisms(za, zb))
    assert len(pairs) == 1
    d, iso = pairs[0]
    assert d.sigma == ()
    assert d.last_rho is None
    assert iso.images == ()
    assert iso_search(za, zb) == iso
    assert iso_count(za, zb) == 1
    seq = complete_triangulating_set(za)
    assert iso_synthesize(seq, seq, d) == iso
    with_rho = IsoDecomposition((), (), identity_iso(za))
    with pytest.raises(ShapeMismatch, match="cannot carry a closing isomorphism"):
        iso_synthesize(seq, seq, with_rho)


def test_corner_search_matches_the_oracle_in_order():
    # the pruned search returns exactly the oracle's isomorphisms, in the same
    # lexicographic image order, on every equal-order pair of the fixtures and
    # M2(F2) that the oracle does not refuse; it refuses only T3(F2) with
    # itself (64^6 image tuples)
    rings = [fixture(name) for name in sorted(FIXTURE_BUILDERS)] + [matrix_ring(2, 2)]
    pairs = 0
    refused = []
    for dom in rings:
        for cod in rings:
            if dom.order == cod.order:
                try:
                    expected = [iso for iso in brute_isos(dom, cod)]
                except CapExceeded:
                    refused.append((dom.name, cod.name))
                    continue
                found = morphisms._enumerate_corner_isos(dom, cod)
                assert [iso for iso in found] == expected, (dom, cod)
                pairs += 1
    assert pairs == 17
    assert refused == [("T3(F2)", "T3(F2)")]


def _row_maps_by_product(row_l, row_m, left_pairs, right_pairs):
    """Every order-compatible image tuple, filtered afterwards."""
    elems = row_m.elements()
    candidates = [[y for y in elems if (o * y).is_zero()] for o in row_l.generator_orders]
    gens = row_l.generators
    out = []
    for images in itertools.product(*candidates):
        chi = AdditiveMap(row_l, row_m, list(images))
        if not chi.is_bijective():
            continue
        if any(chi.apply(r * l) != s * chi.apply(l) for r, s in left_pairs for l in gens):
            continue
        if any(chi.apply(l * a) != chi.apply(l) * b for a, b in right_pairs for l in gens):
            continue
        out.append(chi)
    return out


def test_row_search_matches_product_and_filter_in_order(monkeypatch):
    original = morphisms._enumerate_row_maps
    visited = []

    def recorded(*args):
        found = original(*args)
        visited.append((args, found))
        return found

    monkeypatch.setattr(morphisms, "_enumerate_row_maps", recorded)
    for ring in (t2_z4(), fixture("t3_f2"), fixture("three_block"), upper_triangular(2, 9)):
        visited.clear()
        for _pair in enumerate_isomorphisms(ring, ring):
            pass
        assert visited
        assert any(found for _args, found in visited)
        for args, found in visited:
            assert found == _row_maps_by_product(*args)


def test_searches_leave_no_cyclic_garbage():
    # the search keeps its state in flat lists, with no closure that reaches
    # itself, so nothing it allocates waits for the cyclic collector
    ring = matrix_ring(2, 2)
    t3 = fixture("t3_f2")
    seq = complete_triangulating_set(t3)
    row = seq.rows[0]
    left = [(x, x) for x in seq.corners[0].subgroup.generators]
    right = [(a, a) for a in seq.tails[1].generators]
    inner = t2_f2_inner()
    seq_t2 = complete_triangulating_set(inner.domain)
    gc.collect()
    gc.disable()
    try:
        assert len(morphisms._enumerate_corner_isos(ring, ring)) == 6
        assert morphisms._enumerate_row_maps(row, row, left, right)
        assert gc.collect() == 0
        # whole queries: the level maps are AdditiveMaps and the corner table
        # and level walk are plain functions, so the only cycles left are
        # each corner presentation's links to its generator Elements
        gc.set_debug(gc.DEBUG_SAVEALL)
        assert aut_order(t3) == 8
        assert len(list(enumerate_isomorphisms(t3, t3))) == 8
        assert iso_decompose(inner, seq_t2, seq_t2).layers[0].m.coeffs == (0, 1, 0)
        gc.collect()
        kinds = {type(x).__name__ for x in gc.garbage}
        assert kinds <= {"tuple", "Element", "RingPresentation"}, kinds
    finally:
        gc.set_debug(0)
        gc.garbage.clear()
        gc.enable()


def test_m2f2_and_f16_enumerate_within_one_percent_of_their_image_tuples(monkeypatch):
    # The product-and-filter search scanned 16^4 = 65536 image tuples of
    # either ring.  M2(F2) is built from matrix units, with only Iso(F2, F2)
    # searched; F16 is one local block, searched whole at a charge of 101
    # candidates, so a cap of 100 refuses it.
    monkeypatch.setattr(morphisms, "CORNER_SEARCH_CAP", 65536 // 100)
    ring = matrix_ring(2, 2)
    assert len(list(enumerate_isomorphisms(ring, ring))) == 6
    f16 = poly_quotient([1, 1, 0, 0])
    assert len(list(enumerate_isomorphisms(f16, f16))) == 4
    monkeypatch.setattr(morphisms, "CORNER_SEARCH_CAP", 100)
    with pytest.raises(CapExceeded) as info:
        list(enumerate_isomorphisms(f16, f16))
    assert info.value.what == "corner isomorphism search"


# -- counting without listing ---------------------------------------------


COUNTED_RINGS = [fixture(name) for name in sorted(FIXTURE_BUILDERS)] + [
    upper_triangular(2, 8),
    upper_triangular(2, 9),
    upper_triangular(4, 2),
    upper_triangular(3, 4),
    matrix_ring(2, 2),
    matrix_ring(2, 3),
]


@pytest.mark.parametrize("ring", COUNTED_RINGS, ids=lambda ring: ring.name)
def test_iso_count_equals_the_order_of_the_enumerated_group(ring):
    assert iso_count(ring, ring) == aut_group(ring).order


@pytest.mark.parametrize(
    "ring",
    [t2_z4(), fixture("t3_f2"), fixture("three_block"), upper_triangular(2, 9),
     upper_triangular(3, 4), upper_triangular(4, 2), matrix_ring(2, 2)],
    ids=lambda ring: ring.name,
)
def test_iso_count_equals_the_enumeration_on_basis_changed_pairs(ring):
    other = basis_change(ring, random.Random(ring.order))[0]
    for a, b in ((ring, other), (other, ring)):
        assert iso_count(a, b) == sum(1 for _pair in enumerate_isomorphisms(a, b))


def test_iso_count_of_non_isomorphic_pairs_is_zero():
    f16 = poly_quotient([1, 1, 0, 0])  # x^4 + x + 1 is irreducible over F2
    truncated = poly_quotient([0, 0, 0, 0])  # F2[x]/(x^4)
    for a, b in ((matrix_ring(2, 2), f16), (truncated, dual_square())):
        assert iso_count(a, b) == iso_count(b, a) == 0
    # rings of different orders are refused before either is triangulated
    assert iso_count(fixture("z6"), fixture("f4")) == iso_count(f16, matrix_ring(2, 3)) == 0
    assert aut_order(f16) == 4  # Gal(F16/F2)


def test_automorphisms_triangulate_the_ring_once(monkeypatch):
    build = TriangularSequence.build.__func__
    calls = []

    def counted(cls, ring, idems, cap=None):
        calls.append(ring)
        return build(cls, ring, idems, cap)

    monkeypatch.setattr(TriangularSequence, "build", classmethod(counted))
    ring = t2_z4()
    assert iso_count(ring, ring) == 8
    assert len(list(enumerate_isomorphisms(ring, ring))) == 8
    assert calls == [ring]
    calls.clear()
    # the ring keeps its sequence; only the permuted copy is constructed
    assert iso_count(ring, ring.permuted([1, 0, 2])) == 8
    assert len(calls) == 1
