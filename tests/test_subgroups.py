import itertools
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from finring.errors import AmbientMismatch
from finring.fixtures import cyclic, product
from finring.subgroups import Subgroup, hermite_form, smith_form_left


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


# -- the modular Hermite form and the Smith shortcuts against the loops they
# replaced ------------------------------------------------------------------


def reference_hermite_form(rows, orders):
    """The integer Hermite loop the modular form replaced: diag(orders) is
    appended, each column is cleared by repeated division with the least
    entry as pivot, and the entries above each pivot are reduced."""
    k = len(orders)
    mat = [list(r) for r in rows]
    mat += [[orders[i] if j == i else 0 for j in range(k)] for i in range(k)]
    piv = 0
    for col in range(k):
        while True:
            nz = [r for r in range(piv, len(mat)) if mat[r][col]]
            r_best = min(nz, key=lambda r: (abs(mat[r][col]), r))
            if r_best != piv:
                mat[piv], mat[r_best] = mat[r_best], mat[piv]
            if mat[piv][col] < 0:
                mat[piv] = [-v for v in mat[piv]]
            p = mat[piv][col]
            done = True
            for r in range(piv + 1, len(mat)):
                if mat[r][col]:
                    q = mat[r][col] // p
                    mat[r] = [a - q * b for a, b in zip(mat[r], mat[piv])]
                    if mat[r][col]:
                        done = False
            if done:
                break
        p = mat[piv][col]
        for r in range(piv):
            q = mat[r][col] // p
            if q:
                mat[r] = [a - q * b for a, b in zip(mat[r], mat[piv])]
        piv += 1
    return tuple(tuple(mat[i]) for i in range(k))


def reference_smith_form_left(w):
    """smith_form_left without its two shortcuts: the pivot scan reads every
    entry, and the divisibility scan runs for every pivot."""
    n = len(w)
    s = [list(row) for row in w]
    u = [[int(i == j) for j in range(n)] for i in range(n)]
    uinv = [[int(i == j) for j in range(n)] for i in range(n)]

    def row_add(i, j, q):  # row_i += q * row_j
        s[i] = [a + q * b for a, b in zip(s[i], s[j])]
        u[i] = [a + q * b for a, b in zip(u[i], u[j])]
        for r in range(n):
            uinv[r][j] -= q * uinv[r][i]

    def row_swap(i, j):
        s[i], s[j] = s[j], s[i]
        u[i], u[j] = u[j], u[i]
        for r in range(n):
            uinv[r][i], uinv[r][j] = uinv[r][j], uinv[r][i]

    def row_neg(i):
        s[i] = [-a for a in s[i]]
        u[i] = [-a for a in u[i]]
        for r in range(n):
            uinv[r][i] = -uinv[r][i]

    def col_add(j, l, q):  # col_j += q * col_l, right multiplication only
        for r in range(n):
            s[r][j] += q * s[r][l]

    def col_swap(j, l):
        for r in range(n):
            s[r][j], s[r][l] = s[r][l], s[r][j]

    for t in range(n):
        while True:
            best = None
            for i in range(t, n):
                for j in range(t, n):
                    v = s[i][j]
                    if v and (best is None or abs(v) < abs(s[best[0]][best[1]])):
                        best = (i, j)
            if best is None:
                break
            bi, bj = best
            if bi != t:
                row_swap(t, bi)
            if bj != t:
                col_swap(t, bj)
            if s[t][t] < 0:
                row_neg(t)
            p = s[t][t]
            dirty = False
            for i in range(t + 1, n):
                if s[i][t]:
                    row_add(i, t, -(s[i][t] // p))
                    if s[i][t]:
                        dirty = True
            for j in range(t + 1, n):
                if s[t][j]:
                    col_add(j, t, -(s[t][j] // p))
                    if s[t][j]:
                        dirty = True
            if dirty:
                continue
            off = None
            for i in range(t + 1, n):
                for j in range(t + 1, n):
                    if s[i][j] % p:
                        off = i
                        break
                if off is not None:
                    break
            if off is None:
                break
            row_add(t, off, 1)
    return [s[i][i] for i in range(n)], u, uinv


MODULI = [2, 3, 4, 5, 6, 8, 9, 12, 16, 25, 27, 32, 2**31 - 1, 2**31]


def _random_lattice(rng):
    k = rng.randrange(0, 8)
    if rng.random() < 0.5:
        orders = (rng.choice(MODULI),) * k
    else:
        orders = tuple(rng.choice(MODULI) for _ in range(k))
    rows = [
        [rng.randrange(-3 * d, 3 * d) if rng.random() < 0.6 else 0 for d in orders]
        for _ in range(rng.randrange(0, 2 * k + 2))
    ]
    return rows, orders


def test_hermite_form_matches_the_integer_loop_on_seeded_lattices():
    rng = random.Random(2024)
    cases = [([[1, 1]], (2, 4)), ([], (2, 4)), ([], ()), ([[]], ()), ([[0, 0, 0]], (4, 4, 4))]
    cases += [_random_lattice(rng) for _ in range(10_000)]
    for rows, orders in cases:
        assert hermite_form(rows, orders) == reference_hermite_form(rows, orders), (rows, orders)
    # the docstring's example: span{(1,1)} in Z2 x Z4, of order 4
    assert hermite_form([[1, 1]], (2, 4)) == ((1, 1), (0, 2))
    assert hermite_form([], ()) == ()


def test_smith_form_matches_the_full_scans_on_random_matrices():
    rng = random.Random(2025)
    for _ in range(3000):
        n = rng.randrange(0, 7)
        w = [
            [rng.choice([0, 0, 1, -1, 2, 4, rng.randrange(-40, 41)]) for _ in range(n)]
            for _ in range(n)
        ]
        assert smith_form_left(w) == reference_smith_form_left(w), w
