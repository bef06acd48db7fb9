import itertools
import math
from functools import reduce

import pytest

from finring import (
    CapExceeded,
    InadmissiblePermutation,
    IsoDecomposition,
    PreconditionViolated,
    StructureViolation,
    ToolkitError,
    admissible_orders,
    complete_triangulating_set,
    detect_direct_sum,
    identity_iso,
    is_strongly_triangular,
    iso_decompose,
    iso_synthesize,
    peirce_component,
    reorder_front,
)
from finring.fixtures import FIXTURE_BUILDERS, f2, fixture, product
from test_triangulate import LADDER, _permuted_copies

ADMISSIBLE = {
    "z6": [(0, 1), (1, 0)],
    "f2": [(0,)],
    "f4": [(0,)],
    "z4": [(0,)],
    "t2_f2": [(0, 1)],
    "t2_z4": [(0, 1)],
    "t3_f2": [(0, 1, 2)],
    "z2xz3": [(0, 1), (1, 0)],
    "three_block": [(0, 1, 2), (0, 2, 1), (2, 0, 1)],
}

SPLITS = {
    "z6": [0, 1],
    "f2": [],
    "f4": [],
    "z4": [],
    "t2_f2": [],
    "t2_z4": [],
    "t3_f2": [],
    "z2xz3": [0, 1],
    "three_block": [2],
}


def test_admissible_orders_frozen():
    for name in FIXTURE_BUILDERS:
        seq = complete_triangulating_set(fixture(name))
        assert admissible_orders(seq) == ADMISSIBLE[name], name


def test_admissible_matches_exhaustive_revalidation():
    for name in FIXTURE_BUILDERS:
        ring = fixture(name)
        seq = complete_triangulating_set(ring)
        got = set(admissible_orders(seq))
        for perm in itertools.permutations(range(seq.m)):
            arranged = [seq.idems[j] for j in perm]
            assert is_strongly_triangular(ring, arranged) == (perm in got), (name, perm)


def test_consecutive_nonzero_rows_force_identity():
    # when every component just above the diagonal is nonzero, no reordering
    # survives
    for name in ("t2_f2", "t2_z4", "t3_f2"):
        ring = fixture(name)
        seq = complete_triangulating_set(ring)
        e = seq.idems
        for i in range(seq.m - 1):
            assert not peirce_component(ring, e[i], e[i + 1]).is_trivial()
        assert admissible_orders(seq) == [tuple(range(seq.m))]


def test_peirce_decomposition_orders():
    ring = fixture("t2_f2")
    e = complete_triangulating_set(ring).idems
    orders = [[peirce_component(ring, ei, ej).order for ej in e] for ei in e]
    assert orders == [[2, 2], [1, 2]]


def test_sequence_rows_are_the_peirce_rows():
    # e_i*A*(1-e_i) is the truncated row e_i*A*(e_{i+1}+...+e_m)
    for name in FIXTURE_BUILDERS:
        ring = fixture(name)
        seq = complete_triangulating_set(ring)
        assert len(seq.rows) == seq.m, name
        for i, e in enumerate(seq.idems):
            assert seq.rows[i] == peirce_component(ring, e, ring.one_element() - e), name
            assert seq.rows[i] == peirce_component(ring, e, seq.tail_idempotent(i + 1)), name


TILING_CASES = [pytest.param(fixture(name), id=name) for name in FIXTURE_BUILDERS] + [
    pytest.param(ring, id=name) for name, ring in LADDER.items()
]


@pytest.mark.parametrize("ring", TILING_CASES)
def test_peirce_components_tile_the_ring(ring):
    # A is the direct sum of the m^2 components e_i*A*e_j, each row[i] is the
    # sum of the components right of the diagonal, and the vanishing table
    # records exactly the trivial components
    seq = complete_triangulating_set(ring)
    comps = [[peirce_component(ring, ei, ej) for ej in seq.idems] for ei in seq.idems]
    assert math.prod(c.order for row in comps for c in row) == ring.order
    for i in range(seq.m):
        assert seq.rows[i].order == math.prod(c.order for c in comps[i][i + 1:])
        for j in range(seq.m):
            assert seq.vanishing[i][j] == comps[i][j].is_trivial(), (i, j)


def test_splits_frozen():
    for name in FIXTURE_BUILDERS:
        seq = complete_triangulating_set(fixture(name))
        assert detect_direct_sum(seq) == SPLITS[name], name


def test_split_block_is_an_ideal_summand():
    # the split block multiplies into itself and annihilates the rest
    for name in ("z6", "z2xz3", "three_block"):
        ring = fixture(name)
        seq = complete_triangulating_set(ring)
        one = ring.one_element()
        for j in detect_direct_sum(seq):
            f = seq.idems[j]
            rest = one - f
            for g in ring.gens():
                for h in ring.gens():
                    assert ((f * g * f) * (rest * h * rest)).is_zero()
                    assert ((rest * g * rest) * (f * h * f)).is_zero()


def test_no_split_for_single_block():
    seq = complete_triangulating_set(fixture("f4"))
    assert detect_direct_sum(seq) == []


def test_reorder_front():
    seq = complete_triangulating_set(fixture("z6"))
    moved = reorder_front(seq, 1)
    assert [e.coeffs for e in moved.idems] == [(4,), (3,)]

    tb = fixture("three_block")
    seq3 = complete_triangulating_set(tb)
    moved3 = reorder_front(seq3, 2)
    assert moved3.idems[0] == seq3.idems[2]
    assert is_strongly_triangular(tb, moved3.idems)


def test_reorder_front_blocked_by_nonzero_component():
    seq = complete_triangulating_set(fixture("t2_f2"))
    with pytest.raises(PreconditionViolated) as exc:
        reorder_front(seq, 1)
    assert exc.value.index == 0
    for j in (-1, 2):
        with pytest.raises(StructureViolation, match="block index out of range"):
            reorder_front(seq, j)


def test_permutation_guard():
    ring = reduce(lambda a, b: product(a, b), [f2() for _ in range(9)])
    seq = complete_triangulating_set(ring)
    assert seq.m == 9
    with pytest.raises(CapExceeded) as exc:
        admissible_orders(seq)
    assert (exc.value.size, exc.value.what) == (9, "block permutation guard")


def _sigma_cases():
    cases = [pytest.param(fixture(name), id=name) for name in FIXTURE_BUILDERS]
    for name, ring in LADDER.items():
        cases.append(pytest.param(ring, id=name))
        for i, copy in enumerate(_permuted_copies(ring)):
            cases.append(pytest.param(copy, id="%s-perm%d" % (name, i)))
    return cases


@pytest.mark.parametrize("ring", _sigma_cases())
def test_sigma_check_matches_full_revalidation(ring):
    # the vanishing table decides sigma as the full check of the reordered
    # sequence does, and iso_synthesize refuses exactly those sigma
    seq = complete_triangulating_set(ring)
    identity = iso_decompose(identity_iso(ring), seq, seq)
    for sigma in itertools.permutations(range(seq.m)):
        want = is_strongly_triangular(ring, [seq.idems[j] for j in sigma])
        assert seq.admits(sigma) == want, sigma
        d = IsoDecomposition(sigma, identity.layers, identity.last_rho)
        refused = False
        try:
            iso_synthesize(seq, seq, d)
        except InadmissiblePermutation:
            refused = True
        except ToolkitError:
            pass  # identity layers need not fit an admissible sigma
        assert refused == (not want), sigma
