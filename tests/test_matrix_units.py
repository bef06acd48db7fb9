"""Blocks of type M_n(D): their types, and their isomorphisms built from
matrix units and counted by |GL_n(D')| / |D'^x| * |Iso(D, D')|.

The closed forms below come from outside the engine: every automorphism of
M_n(F_q) is semilinear (Skolem-Noether with the Galois group of F_q), so
|Aut| = |PGL_n(F_q)| * [F_q : F_p]; over Z_(p^k) every automorphism is
inner, so |Aut(M_n(Z_(p^k)))| = |GL_n(Z_(p^k))| / phi(p^k).
"""
import json
import random
from math import gcd, prod

import pytest

from finring import (
    CapExceeded,
    aut_group,
    aut_order,
    complete_triangulating_set,
    enumerate_isomorphisms,
    iso_count,
    iso_search,
    ring_units,
)
from finring import morphisms
from finring.cli import main
from finring.fixtures import (
    _matrix_units,
    basis_change,
    cyclic,
    dual_square,
    field_f4,
    matrices_over,
    matrix_ring,
    poly_quotient,
    product,
    upper_triangular,
)
from finring.idempotents import _residue_order
from finring.jsonio import ring_to_obj
from finring.oracle import brute_aut_count
from finring.presentation import RingPresentation


def gl_order(n: int, q: int) -> int:
    return prod(q ** n - q ** i for i in range(n))


def totient(m: int) -> int:
    return sum(1 for u in range(1, m + 1) if gcd(u, m) == 1)


# Block upper triangular [[M2(F2), F2^2], [0, F2]], on the matrix units E_ab
# of M3(F2) off the lower-left 1x2 block: a matrix block at the first level
PARABOLIC = _matrix_units(
    [(a, b) for a in range(3) for b in range(3) if not (a == 2 and b < 2)], cyclic(2), "P(2,1)"
)

# F2 on the quiver 1 <-> 2 modulo paths of length 2, on e1, e2, a, b with
# a = e1*a*e2, b = e2*b*e1 and a*b = b*a = 0: one block of two primitives
# that are not equivalent
TWO_CYCLE = RingPresentation(
    [2] * 4,
    [
        [[1, 0, 0, 0], [0, 0, 0, 0], [0, 0, 1, 0], [0, 0, 0, 0]],
        [[0, 0, 0, 0], [0, 1, 0, 0], [0, 0, 0, 0], [0, 0, 0, 1]],
        [[0, 0, 0, 0], [0, 0, 1, 0], [0, 0, 0, 0], [0, 0, 0, 0]],
        [[0, 0, 0, 1], [0, 0, 0, 0], [0, 0, 0, 0], [0, 0, 0, 0]],
    ],
    [1, 1, 0, 0],
    name="two-cycle",
)


@pytest.mark.parametrize(
    "ring, n, q, degree",
    [
        pytest.param(matrix_ring(2, 2), 2, 2, 1, id="M2(F2)"),
        pytest.param(matrix_ring(2, 3), 2, 3, 1, id="M2(F3)"),
        pytest.param(matrix_ring(2, 5), 2, 5, 1, id="M2(F5)"),
        pytest.param(matrix_ring(3, 2), 3, 2, 1, id="M3(F2)"),
        pytest.param(matrices_over(2, field_f4()), 2, 4, 2, id="M2(F4)"),
    ],
)
def test_aut_of_matrix_rings_over_fields_is_pgl_times_the_galois_group(ring, n, q, degree):
    assert aut_order(ring) == gl_order(n, q) // (q - 1) * degree


@pytest.mark.parametrize(
    "n, p, k, order, cap",
    [(2, 2, 2, 48, None), (2, 3, 2, 648, 6561)],
    ids=["M2(Z4)", "M2(Z9)"],
)
def test_aut_of_matrix_rings_over_z_pk_is_gl_over_the_units(n, p, k, order, cap):
    gl = p ** ((k - 1) * n * n) * gl_order(n, p)  # |GL_n(Z_(p^k))|
    assert gl // totient(p ** k) == order
    assert aut_order(matrix_ring(n, p ** k), cap) == order


@pytest.mark.parametrize("seed", range(12))
def test_basis_changed_m2_f3_answers_at_default_settings(seed):
    assert aut_order(basis_change(matrix_ring(2, 3), random.Random(seed))[0]) == 24


@pytest.mark.parametrize("seed", range(4))
def test_basis_changed_m3_f2_answers_at_default_settings(seed):
    assert aut_order(basis_change(matrix_ring(3, 2), random.Random(seed))[0]) == 168


@pytest.mark.parametrize(
    "ring, key",
    [
        pytest.param(matrix_ring(2, 3), (2, 3, 3), id="M2(F3)"),
        pytest.param(matrix_ring(2, 9), (2, 9, 3), id="M2(Z9)"),
        pytest.param(matrix_ring(3, 2), (3, 2, 2), id="M3(F2)"),
        pytest.param(matrices_over(2, field_f4()), (2, 4, 4), id="M2(F4)"),
        pytest.param(basis_change(matrix_ring(2, 3), random.Random(0))[0], (2, 3, 3),
                     id="M2(F3)-basis"),
        pytest.param(TWO_CYCLE, (2, None, None), id="two-cycle"),
        pytest.param(poly_quotient([1, 1, 0, 0]), (1, None, None), id="F16"),
    ],
)
def test_one_block_rings_record_their_type(ring, key):
    (block,) = complete_triangulating_set(ring, ring.order).types
    assert block.key == key
    if block.local is not None:
        row, col = block.row, block.col
        n = len(block.prims)
        units = [[col[i] * row[j] for j in range(n)] for i in range(n)]  # E_ij
        for i in range(n):
            for j in range(n):
                for k in range(n):
                    for m in range(n):
                        expected = units[i][m] if j == k else ring.zero()
                        assert units[i][j] * units[k][m] == expected
        assert ring.sum(units[i][i] for i in range(n)) == ring.one_element()


def test_types_are_kept_per_block():
    seq = complete_triangulating_set(PARABOLIC)
    assert sorted(t.key for t in seq.types) == [(1, None, None), (2, 2, 2)]
    assert [t.key for t in complete_triangulating_set(upper_triangular(3, 2)).types] == [
        (1, None, None)
    ] * 3


@pytest.mark.parametrize(
    "ring",
    [cyclic(9), cyclic(8), field_f4(), poly_quotient([1, 1, 0, 0]), poly_quotient([0] * 4),
     poly_quotient([0] * 4, 3), poly_quotient([1, 2, 0], 3), dual_square()],
    ids=["Z9", "Z8", "F4", "F16", "F2[x]/(x^4)", "F3[x]/(x^4)", "F27", "F2[x,y]/(x^2,y^2)"],
)
def test_residue_order_matches_the_units_of_a_listed_local_ring(ring):
    units = len(ring_units(ring))
    assert _residue_order(ring) == ring.order // (ring.order - units)


MATRIX_PAIRS = [
    (matrix_ring(2, 2), basis_change(matrix_ring(2, 2), random.Random(16))[0]),
    (matrix_ring(2, 3), basis_change(matrix_ring(2, 3), random.Random(0))[0]),
    (matrix_ring(2, 4), basis_change(matrix_ring(2, 4), random.Random(1))[0]),
    (matrix_ring(3, 2), basis_change(matrix_ring(3, 2), random.Random(2))[0]),
    (matrices_over(2, field_f4()), matrices_over(2, field_f4())),
    (PARABOLIC, basis_change(PARABOLIC, random.Random(3))[0]),
    (product(matrix_ring(2, 3), cyclic(3)), product(matrix_ring(2, 3), cyclic(3))),
]


@pytest.mark.parametrize("a, b", MATRIX_PAIRS, ids=lambda r: r.name)
def test_iso_count_equals_the_length_of_the_enumeration(a, b):
    for dom, cod in ((a, b), (b, a)):
        listed = [iso.images for _d, iso in enumerate_isomorphisms(dom, cod)]
        assert iso_count(dom, cod) == len(listed) == len(set(listed)) == aut_order(dom)


def test_iso_count_of_m2_z9_equals_its_enumeration_under_the_cap():
    ring = matrix_ring(2, 9)
    assert iso_count(ring, ring, 6561) == aut_group(ring, 6561).order == 648


def test_a_block_of_inequivalent_primitives_keeps_the_search():
    assert aut_order(TWO_CYCLE) == brute_aut_count(TWO_CYCLE) == len(aut_group(TWO_CYCLE).elements)


def test_type_mismatch_is_not_found_before_any_search(monkeypatch):
    def refuse(dom, cod):
        raise AssertionError("corner search ran")

    monkeypatch.setattr(morphisms, "_enumerate_corner_isos", refuse)
    a = basis_change(matrix_ring(2, 3), random.Random(0))[0]
    b = poly_quotient([0, 0, 0, 0], 3)  # F3[x]/(x^4), one primitive
    assert iso_count(a, b) == iso_count(b, a) == 0
    assert iso_search(a, b) is None and iso_search(b, a) is None
    # F16 and M2(F2) have 16 elements and one block each
    assert iso_search(matrix_ring(2, 2), poly_quotient([1, 1, 0, 0])) is None


def test_matrix_blocks_of_one_type_over_non_isomorphic_corners_are_not_found(tmp_path, capsys):
    # M2(Z4) and M2(F2[x]/(x^2)) have the one type key (2, 4, 2), so sigma
    # pairs their blocks, but their local corners are not isomorphic (their
    # additive groups are Z4 and Z2^2): Iso(D, D') is empty, and so is the
    # list of maps built from matrix units
    a, b = matrix_ring(2, 4), matrices_over(2, poly_quotient([0, 0]))
    for ring in (a, b):
        assert complete_triangulating_set(ring).types[0].key == (2, 4, 2)
    paths = []
    for x, y in ((a, b), (b, a)):
        assert iso_search(x, y) is None
        assert iso_count(x, y) == 0
        path = tmp_path / ("%d.json" % len(paths))
        path.write_text(json.dumps(ring_to_obj(x)))
        paths.append(str(path))
    for argv in (paths, paths[::-1]):
        assert main(["iso-search", *argv]) == 0
        captured = capsys.readouterr()
        assert json.loads(captured.out)["found"] is False
        assert "no map found" in captured.err


def test_the_count_of_a_matrix_block_lists_nothing_but_its_local_corner(monkeypatch):
    from finring.subgroups import Subgroup

    listed = []
    for cls in (RingPresentation, Subgroup):
        def counted(self, original=cls.elements):
            listed.append(self.order)
            return original(self)

        monkeypatch.setattr(cls, "elements", counted)
    assert aut_order(matrix_ring(2, 9), 6561) == 648
    assert listed == [9]  # the search of Iso(Z9, Z9)
    listed.clear()
    assert aut_order(matrices_over(2, field_f4())) == 120
    # the split lists the corners of the primitives (F4) to show that they
    # are primitive, and the search of Iso(F4, F4) lists F4
    assert listed and max(listed) == 4


def test_one_block_counts_verify_each_map_once(monkeypatch):
    checks = []
    original = morphisms.verify_ring_iso

    def counted(f, a, b):
        checks.append(a.order)
        return original(f, a, b)

    monkeypatch.setattr(morphisms, "verify_ring_iso", counted)
    monkeypatch.setattr(morphisms, "_assemble", None)  # no second check at m = 1
    assert aut_order(poly_quotient([1, 1, 0, 0])) == 4
    assert checks == [16] * 4
    checks.clear()
    assert aut_order(matrix_ring(2, 3)) == 24
    assert checks == [3]  # the one automorphism of the corner F3


def test_listing_the_target_units_is_charged():
    seq = complete_triangulating_set(matrix_ring(2, 3))
    corner, block = seq.corners[0], seq.types[0]
    assert len(morphisms._matrix_unit_isos(corner, corner, block, block, 81)) == 24
    with pytest.raises(CapExceeded) as info:
        morphisms._matrix_unit_isos(corner, corner, block, block, 80)
    assert (info.value.size, info.value.cap, info.value.what) == (81, 80, "matrix unit systems")
