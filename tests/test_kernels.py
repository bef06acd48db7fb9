"""The coefficient-space kernels against reference formulas.

The references below are written the textbook way: a triple loop over the
whole structure-constant tensor for products, one generator expression per
coordinate for the additive operations, and Element accumulation for additive
maps.  Coefficient vectors are drawn over the fixture corpus, T3(Z4), M2(F3),
the zero ring, and copies of some of them on a random basis in GL_k(Z_n),
whose structure constants are dense.
"""
import math
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from finring import (
    AdditiveMap,
    StructureViolation,
    aut_group,
    aut_order,
    complete_triangulating_set,
    enumerate_isomorphisms,
)
from finring.fixtures import FIXTURE_BUILDERS, fixture, matrix_ring, upper_triangular
from finring.presentation import RingPresentation


def dense_mul(ring, a, b):
    k = ring.rank
    acc = [0] * k
    for i in range(k):
        for j in range(k):
            for l in range(k):
                acc[l] += a[i] * b[j] * ring.mul[i][j][l]
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


def random_gl(k, n, rng):
    """P in GL_k(Z_n) and its inverse Q, from random transvections and unit
    scalings of the rows of P (matching column operations on Q)."""
    p = [[int(i == j) for j in range(k)] for i in range(k)]
    q = [[int(i == j) for j in range(k)] for i in range(k)]
    units = [u for u in range(1, n) if math.gcd(u, n) == 1]
    for _ in range(3 * k * k):
        i, j = rng.randrange(k), rng.randrange(k)
        if i != j:
            c = rng.randrange(n)
            p[i] = [(x + c * y) % n for x, y in zip(p[i], p[j])]
            for row in q:
                row[j] = (row[j] - c * row[i]) % n
        else:
            u = rng.choice(units)
            p[i] = [(u * x) % n for x in p[i]]
            for row in q:
                row[i] = (row[i] * pow(u, -1, n)) % n
    for i in range(k):
        for j in range(k):
            assert sum(p[i][t] * q[t][j] for t in range(k)) % n == int(i == j)
    return p, q


def basis_change(ring, rng):
    """The ring on the basis h_a = sum_i P[a][i] g_i, with the coordinate
    change from old to new coordinates.  Needs equal generator orders n."""
    n, k = ring.orders[0], ring.rank
    assert set(ring.orders) == {n}
    p, q = random_gl(k, n, rng)

    def to_new(v):
        return tuple(sum(v[t] * q[t][l] for t in range(k)) % n for l in range(k))

    def old_basis(a):
        return tuple(p[a])

    mul = [
        [to_new(dense_mul(ring, old_basis(a), old_basis(b))) for b in range(k)]
        for a in range(k)
    ]
    return RingPresentation(ring.orders, mul, to_new(ring.one), name=ring.name), to_new


ZERO_RING = RingPresentation([], [], [], name="0")
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


MAPS = [f for ring in RINGS for f in _maps(ring)]


def test_map_corpus_has_subgroup_domains_and_codomains():
    assert sum(isinstance(f.domain, RingPresentation) for f in MAPS) > 20
    assert sum(not isinstance(f.domain, RingPresentation) for f in MAPS) > 20
    assert sum(not isinstance(f.codomain, RingPresentation) for f in MAPS) > 20


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
    f = data.draw(st.sampled_from(MAPS))
    x = data.draw(_members(f))
    assert f.apply(x) == element_apply(f, x)


def test_apply_refuses_non_members_of_a_subgroup_domain():
    ring = upper_triangular(2, 2)
    row = complete_triangulating_set(ring).rows[0]
    f = AdditiveMap(row, ring, row.generators)
    assert f.apply(row.generators[0]) == row.generators[0]
    with pytest.raises(StructureViolation):
        f.apply(ring.one_element())


def test_generators_are_built_once():
    ring = upper_triangular(4, 2)
    assert ring.gens() is ring.gens()
    assert [g.coeffs for g in ring.gens()] == [ring.gen(i).coeffs for i in range(ring.rank)]


def _count_products(monkeypatch) -> list[int]:
    calls = [0]
    original = RingPresentation._mul_coeffs

    def counted(self, a, b):
        calls[0] += 1
        return original(self, a, b)

    monkeypatch.setattr(RingPresentation, "_mul_coeffs", counted)
    return calls


def test_aut_group_of_t4_f2_makes_a_pinned_number_of_products(monkeypatch):
    # The number of products is part of the cost model: a change that buys
    # speed with more products, or saves products, must update this figure.
    # Each level map is an AdditiveMap whose images are computed once, so the
    # action pairs and the levels above read it without multiplying out the
    # level formula again.
    ring = upper_triangular(4, 2)
    calls = _count_products(monkeypatch)
    assert aut_group(ring).order == 64
    assert calls[0] == 18535


def test_aut_order_of_t4_f2_makes_a_pinned_number_of_products(monkeypatch):
    # The count builds and verifies only the offset-free automorphisms.  The
    # right action pairs read each lower level map from its images, without
    # multiplying out its formula.
    ring = upper_triangular(4, 2)
    calls = _count_products(monkeypatch)
    assert aut_order(ring) == 64
    assert calls[0] == 2084


def test_aut_order_of_m2_f3_makes_a_pinned_number_of_products(monkeypatch):
    # One corner search: the unit equation fixes the image of the last
    # generator, so the search looks it up instead of scanning 81 candidates.
    ring = matrix_ring(2, 3)
    calls = _count_products(monkeypatch)
    assert aut_order(ring) == 24
    assert calls[0] == 3018
