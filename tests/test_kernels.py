"""The coefficient-space kernels against reference formulas.

The references below are written the textbook way: a triple loop over the
whole structure-constant tensor for products, one generator expression per
coordinate for the additive operations, and Element accumulation for additive
maps.  The packed product table is also held to a copy of the sparse product
loop it replaced, and the packed unit-law check to a copy of the loop of
products it replaced.  Coefficient vectors are drawn over the fixture corpus,
T3(Z4), M2(F3), the zero ring, and copies of some of them on a random basis
in GL_k(Z_n), whose structure constants are dense.
"""
import functools
import gc
import itertools
import math
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from finring import (
    AdditiveMap,
    StructureViolation,
    UnitFailure,
    aut_group,
    aut_order,
    complete_triangulating_set,
    enumerate_isomorphisms,
)
from finring.fixtures import (
    FIXTURE_BUILDERS,
    basis_change,
    cyclic,
    fixture,
    matrix_ring,
    poly_quotient,
    product,
    random_gl,
    upper_triangular,
    zero_ring,
)
from finring.errors import NonAssociative, ToolkitError
from finring.idempotents import _residue_order
from finring.presentation import RingPresentation


def dense_mul(ring, a, b):
    k = ring.rank
    acc = [0] * k
    for i in range(k):
        for j in range(k):
            for l in range(k):
                acc[l] += a[i] * b[j] * ring.mul[i][j][l]
    return tuple(c % d for c, d in zip(acc, ring.orders))


def sparse_mul(ring, a, b):
    """The sparse product loop products ran before the packed table: the
    nonzero coefficients of both factors against the nonzero structure
    constants, reduced once."""
    acc = [0] * ring.rank
    b_terms = [(j, y) for j, y in enumerate(b) if y]
    for i, x in enumerate(a):
        if not x:
            continue
        for j, y in b_terms:
            for l, c in ring._terms[i][j]:
                acc[l] += x * y * c
    return tuple(c % d for c, d in zip(acc, ring.orders))


def generator_add(ring, a, b):
    return tuple((x + y) % d for x, y, d in zip(a, b, ring.orders))


def generator_neg(ring, a):
    return tuple((-x) % d for x, d in zip(a, ring.orders))


def generator_scale(ring, n, a):
    return tuple((n * x) % d for x, d in zip(a, ring.orders))


def element_apply(f, x):
    codomain = f.codomain if isinstance(f.codomain, RingPresentation) else f.codomain.ring
    acc = codomain.zero()
    for c, img in zip(f.domain.coords(x), f._image_elems):
        if c:
            acc = acc + c * img
    return acc


ZERO_RING = zero_ring(name="0")
BASE_RINGS = [fixture(name) for name in sorted(FIXTURE_BUILDERS)] + [
    upper_triangular(3, 4),
    matrix_ring(2, 3),
    ZERO_RING,
]
CHANGED_RINGS = [
    basis_change(ring, random.Random(seed))[0]
    for seed, ring in enumerate(
        [fixture("t2_z4"), fixture("t3_f2"), upper_triangular(3, 4), matrix_ring(2, 3)]
    )
]
RINGS = BASE_RINGS + CHANGED_RINGS
# T2(Z_2^31) needs slots of several 64-bit words
PRODUCT_RINGS = RINGS + [upper_triangular(2, 2**31)]


def coeffs(ring):
    return st.tuples(*(st.integers(0, d - 1) for d in ring.orders))


def test_corpus_covers_mixed_moduli_and_dense_constants():
    names = {ring.name for ring in BASE_RINGS}
    assert {"Z2xZ3", "T2(Z4)", "T3(Z4)", "M2(Z3)", "0"} <= names
    # T_n and M_n have at most one term per generator product; their
    # basis-changed copies do not
    for ring in (upper_triangular(3, 4), matrix_ring(2, 3)):
        assert max(len(terms) for row in ring._terms for terms in row) == 1
    assert all(
        max(len(terms) for row in ring._terms for terms in row) > 1 for ring in CHANGED_RINGS
    )


def test_sparse_terms_list_the_nonzero_structure_constants():
    for ring in RINGS:
        for i, row in enumerate(ring._terms):
            for j, terms in enumerate(row):
                vec = ring.mul[i][j]
                assert terms == tuple((l, c) for l, c in enumerate(vec) if c)


@settings(max_examples=300, deadline=None)
@given(st.data())
def test_products_match_the_dense_triple_loop(data):
    ring = data.draw(st.sampled_from(RINGS))
    a = data.draw(coeffs(ring))
    b = data.draw(coeffs(ring))
    assert ring._mul_coeffs(a, b) == dense_mul(ring, a, b)


def test_products_match_the_sparse_loop_on_random_pairs():
    rng = random.Random(31)
    for ring in PRODUCT_RINGS:
        pairs = [
            tuple(tuple(rng.randrange(d) for d in ring.orders) for _ in range(2))
            for _ in range(200)
        ]
        # the extreme coefficients reach the bound the slot width is made for
        top = tuple(d - 1 for d in ring.orders)
        pairs += [(top, top), (top, (0,) * ring.rank), (ring.one, top)]
        for a, b in pairs:
            assert ring._mul_coeffs(a, b) == sparse_mul(ring, a, b)


def test_wide_moduli_take_slots_of_several_words():
    ring = upper_triangular(2, 2**31)
    top = tuple(d - 1 for d in ring.orders)
    assert ring._mul_coeffs(top, top) == sparse_mul(ring, top, top) == dense_mul(ring, top, top)
    # 3^2 * (2^31 - 1)^3 needs 97 bits: three slots of 16 bytes a group
    assert ring._table.row_bytes == 3 * 16


def _idempotent_pairs(ring):
    """Pairs of idempotents of ring: all of them on small rings, else the
    canonical sequence's idempotents, their complements, 0 and 1."""
    if ring.order <= 256:
        idems = [x for x in ring.elements() if x.is_idempotent()]
    else:
        one = ring.one_element()
        seq = complete_triangulating_set(ring)
        idems = [ring.zero(), one] + list(seq.idems) + [one - e for e in seq.idems]
    return [(e, f) for e in idems for f in idems]


def test_peirce_rows_match_products_of_e_g_f():
    checked = 0
    for ring in RINGS:
        for e, f in _idempotent_pairs(ring):
            rows = ring._peirce_rows(e.coeffs, f.coeffs)
            assert rows == tuple((e * g * f).coeffs for g in ring.gens())
            assert rows == tuple(
                sparse_mul(ring, sparse_mul(ring, e.coeffs, g.coeffs), f.coeffs)
                for g in ring.gens()
            )
            checked += 1
    assert checked > 1000


def test_peirce_rows_of_any_factors_on_wide_and_dense_rings():
    rng = random.Random(32)
    for ring in PRODUCT_RINGS:
        for _ in range(30):
            e = tuple(rng.randrange(d) for d in ring.orders)
            f = tuple(rng.randrange(d) for d in ring.orders)
            assert ring._peirce_rows(e, f) == tuple(
                dense_mul(ring, dense_mul(ring, e, g.coeffs), f) for g in ring.gens()
            )


@settings(max_examples=300, deadline=None)
@given(st.data(), st.integers(-(10**30), 10**30))
def test_additive_kernels_match_the_generator_forms(data, n):
    ring = data.draw(st.sampled_from(RINGS))
    a = data.draw(coeffs(ring))
    b = data.draw(coeffs(ring))
    assert ring._add_coeffs(a, b) == generator_add(ring, a, b)
    assert ring._neg_coeffs(a) == generator_neg(ring, a)
    assert ring._scale_coeffs(n, a) == generator_scale(ring, n, a)
    assert ring._reduce((n,) * ring.rank) == generator_scale(ring, n, (1,) * ring.rank)


@pytest.mark.parametrize("k, n", [(3, 4), (4, 9), (10, 2)])
def test_random_gl_draws_an_inverse_pair(k, n):
    for seed in range(5):
        p, q = random_gl(k, n, random.Random(seed))
        for i in range(k):
            for j in range(k):
                assert sum(p[i][t] * q[t][j] for t in range(k)) % n == int(i == j)


@settings(max_examples=50, deadline=None)
@given(st.integers(0, 2**32), st.sampled_from([fixture("t2_z4"), upper_triangular(3, 4)]))
def test_basis_change_is_a_ring_isomorphism(seed, ring):
    changed, to_new = basis_change(ring, random.Random(seed))
    rng = random.Random(seed + 1)
    for _ in range(10):
        a = tuple(rng.randrange(d) for d in ring.orders)
        b = tuple(rng.randrange(d) for d in ring.orders)
        assert changed._mul_coeffs(to_new(a), to_new(b)) == to_new(ring._mul_coeffs(a, b))
        assert changed._mul_coeffs(to_new(a), to_new(b)) == dense_mul(changed, to_new(a), to_new(b))


def _random_map(domain, codomain, rng):
    """An additive map with random images: generator of order o goes to
    (E // o) * y for a random y, where E is the codomain's exponent."""
    cod = codomain if isinstance(codomain, RingPresentation) else codomain.ring
    exponent = math.lcm(*cod.orders) if cod.rank else 1
    orders = domain.orders if isinstance(domain, RingPresentation) else domain.generator_orders
    images = []
    for o in orders:
        y = cod.element([rng.randrange(d) for d in cod.orders])
        images.append((exponent // math.gcd(exponent, o)) * y)
    return AdditiveMap(domain, codomain, images)


def _maps(ring):
    """Full-ring maps, corner embed/project maps, maps out of Peirce rows, and
    the row maps of the last automorphism in canonical order."""
    rng = random.Random(ring.rank)
    out = [_random_map(ring, ring, rng)]
    seq = complete_triangulating_set(ring)
    for corner in seq.corners:
        out += [corner.embed_map, corner.project_map]
        out.append(_random_map(corner.presentation, ring, rng))
    for row in seq.rows:
        out.append(_random_map(row, ring, rng))
    if ring.order <= 64:
        d, _phi = list(enumerate_isomorphisms(ring, ring))[-1]
        out += [layer.chi for layer in d.layers]
    return out


@functools.cache
def map_corpus() -> tuple:
    """The maps of _maps over RINGS, built on first use: the corpus runs the
    engine, so a fault there fails the tests that read it, not collection."""
    return tuple(f for ring in RINGS for f in _maps(ring))


def test_map_corpus_has_subgroup_domains_and_codomains():
    maps = map_corpus()
    assert sum(isinstance(f.domain, RingPresentation) for f in maps) > 20
    assert sum(not isinstance(f.domain, RingPresentation) for f in maps) > 20
    assert sum(not isinstance(f.codomain, RingPresentation) for f in maps) > 20


def _members(f):
    if isinstance(f.domain, RingPresentation):
        return coeffs(f.domain).map(f.domain.element)
    gens = f.domain.generators
    orders = f.domain.generator_orders
    coords = st.tuples(*(st.integers(-2 * o, 2 * o) for o in orders))
    return coords.map(
        lambda c: f.domain.ring.sum(n * g for n, g in zip(c, gens))
    )


@settings(max_examples=400, deadline=None)
@given(st.data())
def test_apply_matches_element_accumulation(data):
    f = data.draw(st.sampled_from(map_corpus()))
    x = data.draw(_members(f))
    assert f.apply(x) == element_apply(f, x)


def test_apply_refuses_non_members_of_a_subgroup_domain():
    ring = upper_triangular(2, 2)
    row = complete_triangulating_set(ring).rows[0]
    f = AdditiveMap(row, ring, row.generators)
    assert f.apply(row.generators[0]) == row.generators[0]
    with pytest.raises(StructureViolation):
        f.apply(ring.one_element())


def test_generators_agree_and_form_no_cycle():
    ring = upper_triangular(4, 2)
    assert ring.gens() == ring.generators == tuple(ring.gen(i) for i in range(ring.rank))
    assert [g.coeffs for g in ring.gens()] == [
        tuple(int(j == i) for j in range(ring.rank)) for i in range(ring.rank)
    ]
    # a ring that built its generators is freed by reference counting alone
    debug = gc.get_debug()
    gc.collect()
    gc.set_debug(gc.DEBUG_SAVEALL)
    try:
        ring = RingPresentation(ring.orders, ring.mul, ring.one)
        assert len(ring.gens()) == len(ring.generators) == 10
        del ring
        gc.collect()
        assert not any(isinstance(o, RingPresentation) for o in gc.garbage)
    finally:
        gc.set_debug(debug)
        gc.garbage.clear()


def _looped_unit_failure(ring):
    """A copy of the unit-law check that the packed pass replaced: the first
    i with one * g_i != g_i or g_i * one != g_i, by two products each."""
    for i in range(ring.rank):
        g = tuple(int(j == i) for j in range(ring.rank))
        if ring._mul_coeffs(ring.one, g) != g or ring._mul_coeffs(g, ring.one) != g:
            return i
    return None


def _packed_unit_failure(ring):
    try:
        ring._check_unit()
    except UnitFailure as exc:
        return exc.index
    return None


def _unit_sides(ring):
    """The generators where one is no left unit, and those where it is no
    right unit."""
    basis = [tuple(int(j == i) for j in range(ring.rank)) for i in range(ring.rank)]
    return (
        {i for i, g in enumerate(basis) if ring._mul_coeffs(ring.one, g) != g},
        {i for i, g in enumerate(basis) if ring._mul_coeffs(g, ring.one) != g},
    )


def _broken_units(ring):
    """Presentations of ring's data with one structure constant c[i][j][l]
    moved by 1, adopted unchecked: where one_i != 0 the move breaks
    one * g_j, and where one_j != 0 it breaks g_i * one."""
    k = ring.rank
    out = []
    for i, j in itertools.product(range(k), repeat=2):
        l = (i + j) % k
        mul = [[list(vec) for vec in row] for row in ring.mul]
        mul[i][j][l] = (mul[i][j][l] + 1) % ring.orders[l]
        mul = tuple(tuple(tuple(vec) for vec in row) for row in mul)
        out.append(RingPresentation._adopt(ring.orders, mul, ring.one))
    return out


def test_the_packed_unit_check_matches_the_loop_of_products():
    broken = [b for ring in RINGS for b in _broken_units(ring)]
    for ring in RINGS:
        assert _packed_unit_failure(ring) is None
        assert _looped_unit_failure(ring) is None
    sides = {"left": set(), "right": set()}
    for ring in broken:
        assert _packed_unit_failure(ring) == _looped_unit_failure(ring)
        left, right = _unit_sides(ring)
        if left and not right:
            sides["left"].add(min(left))
        if right and not left:
            sides["right"].add(min(right))
    # failures on one side only, first at several generators
    assert len(sides["left"]) >= 3 and len(sides["right"]) >= 3, sides


def test_the_constructor_raises_the_first_unit_failure():
    for ring in [b for ring in RINGS for b in _broken_units(ring)]:
        index = _looped_unit_failure(ring)
        try:
            RingPresentation(ring.orders, ring.mul, ring.one)
        except UnitFailure as exc:
            assert exc.index == index
        except ToolkitError as exc:
            # an order or associativity failure of the moved constant; the
            # order check runs first, the associativity check after the unit
            assert index is None or not isinstance(exc, NonAssociative)
        else:
            assert index is None


def _count_products(monkeypatch) -> list[int]:
    calls = [0]
    original = RingPresentation._mul_coeffs

    def counted(self, a, b):
        calls[0] += 1
        return original(self, a, b)

    monkeypatch.setattr(RingPresentation, "_mul_coeffs", counted)
    return calls


def _count_peirce_passes(monkeypatch) -> list[int]:
    """Peirce-row passes (e*g*f for every generator g at once), which make
    no product call but do the work of 2k products."""
    calls = [0]
    original = RingPresentation._peirce_rows

    def counted(self, e, f):
        calls[0] += 1
        return original(self, e, f)

    monkeypatch.setattr(RingPresentation, "_peirce_rows", counted)
    return calls


def test_aut_group_of_t4_f2_makes_a_pinned_number_of_products(monkeypatch):
    # The number of products is part of the cost model: a change that buys
    # speed with more products, or saves products, must update this figure.
    # Each level map is an AdditiveMap whose images are computed once, so the
    # action pairs and the levels above read it without multiplying out the
    # level formula again.  Every map the enumeration and the group-law
    # check prove is proved multiplicative on packed integers, with no
    # product, where two products per generator pair made 13008 more.  Each
    # level makes the row parts e*g*t of the generators once, where every
    # level map multiplied them out again (1420 more), and a level map with
    # offset 0 makes no product (220 more).  The spans e*A*f, the vanishing
    # tests, the block edges of the Peirce graph and the row parts read
    # e*g*f for all g in one Peirce-row pass each: 34 passes where 413
    # products were made (200 for spans, 87 for vanishing, 66 for edges, 60
    # for row parts).  A corner e*A*e is a ring with unit e by construction,
    # so its presentation is adopted without the unit-law check, whose two
    # products per corner generator made 8 more.
    ring = upper_triangular(4, 2)
    calls = _count_products(monkeypatch)
    passes = _count_peirce_passes(monkeypatch)
    assert aut_group(ring).order == 64
    assert calls[0] == 2286
    assert passes[0] == 34


def test_aut_order_of_t4_f2_makes_a_pinned_number_of_products(monkeypatch):
    # The count builds and verifies only the offset-free automorphisms.  The
    # right action pairs read each lower level map from its images, without
    # multiplying out its formula.  The triangulation splits 1 into primitive
    # idempotents instead of walking A up to its first admissible head, which
    # cost 1180 of the 2084 products this count made before.  Multiplicativity
    # is decided on packed integers, with no product (208 fewer).  Every map
    # the count builds has offset 0, and such a level map makes no product
    # (60 fewer).  The same 413 products of the triangulation as in
    # aut_group's count are 34 Peirce-row passes.  The corner presentations
    # are adopted, with no unit-law check (8 products fewer).
    ring = upper_triangular(4, 2)
    calls = _count_products(monkeypatch)
    passes = _count_peirce_passes(monkeypatch)
    assert aut_order(ring) == 64
    assert calls[0] == 215
    assert passes[0] == 34


def test_aut_order_of_f2_to_the_5_makes_a_pinned_number_of_products(monkeypatch):
    # F2^5 is five blocks with 5! = 120 block orders.  Each level makes the
    # row parts e*g*t of the generators once for all of them, and a level
    # map with offset 0 makes no product; making the parts again for every
    # map under every block order, and the offset terms, cost 9560 more.
    # Spans (260 products), vanishing tests and block edges (135) and row
    # parts (40) are 64 Peirce-row passes.  The corner presentations are
    # adopted, with no unit-law check (10 products fewer).
    ring = functools.reduce(product, [cyclic(2)] * 5)
    calls = _count_products(monkeypatch)
    passes = _count_peirce_passes(monkeypatch)
    assert aut_order(ring) == 120
    assert calls[0] == 124
    assert passes[0] == 64


def test_aut_order_of_m2_f3_makes_a_pinned_number_of_products(monkeypatch):
    # 11 products triangulate M2(F3) (the reducedness check of the one head,
    # 1, reads the split of 1 that the triangulation made and runs only the
    # block test), 8 type its block as M2(D) (2 for the matrix units, 2
    # for the corner ring D = F3, 4 for its residue field) and 1 searches
    # Iso(F3, F3).  D's presentation is a corner, adopted with no unit-law
    # check (2 products fewer).  The count is then |GL2(F3)| / |F3^x| * 1 = 24, with no
    # product.  The corner search over all of M2(F3) and its 24 assembled
    # maps made 1158 more.  9 Peirce-row passes replace 58 products: 20
    # for spans, 22 for the block edges and 16 for the matrix units'
    # e*g*f; the residue field F3 has length 1 and its nilpotency test
    # needs no squaring (1 product fewer).
    ring = matrix_ring(2, 3)
    calls = _count_products(monkeypatch)
    passes = _count_peirce_passes(monkeypatch)
    assert aut_order(ring) == 24
    assert calls[0] == 20
    assert passes[0] == 9


def test_residue_order_of_f256_makes_a_pinned_number_of_products(monkeypatch):
    # F256 = F2[x]/(x^8 + x^4 + x^3 + x^2 + 1) has length 8, so y - g is
    # nilpotent exactly when its 8th power, three squarings, is 0.  Walking
    # each unit y - g up to its multiplicative order made 1745 products.
    ring = poly_quotient([1, 0, 1, 1, 1, 0, 0, 0])
    calls = _count_products(monkeypatch)
    assert _residue_order(ring) == 256
    assert calls[0] == 258
