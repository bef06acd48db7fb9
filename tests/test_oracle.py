import ast
import itertools
import pathlib
import random

import pytest

from finring import (
    CapExceeded,
    RingIsomorphism,
    aut_order,
    brute_aut_count,
    brute_isos,
    brute_semicentral,
    brute_semicentral_list,
    brute_triangular_check,
    complete_triangulating_set,
    enumerate_idempotents,
    enumerate_isomorphisms,
    is_semicentral,
)
import finring
from finring import morphisms, oracle
from finring.fixtures import (
    FIXTURE_BUILDERS,
    basis_change,
    cyclic,
    f2,
    fixture,
    matrix_ring,
    product,
    t2_f2,
    t3_f2,
    upper_triangular,
    zero_ring,
)
from finring.maps import AdditiveMap
from finring.oracle import BrutePeirceTable
from finring.presentation import RingPresentation


def test_brute_semicentral_t2f2():
    ring = t2_f2()
    assert brute_semicentral(ring, ring.element((1, 0, 0))) is True
    assert brute_semicentral(ring, ring.element((0, 0, 1))) is False
    assert brute_semicentral(ring, ring.one_element()) is True
    assert brute_semicentral(ring, ring.element((0, 1, 0))) is False  # not idempotent


def test_brute_semicentral_matches_engine():
    for name in ("z6", "f4", "t2_f2", "t2_z4", "z2xz3", "three_block"):
        ring = fixture(name)
        brute = set(brute_semicentral_list(ring))
        engine = {e for e in enumerate_idempotents(ring) if is_semicentral(ring, e)}
        assert brute == engine, name


def test_brute_isos_golden():
    z6 = fixture("z6")
    isos = brute_isos(z6, z6)
    assert len(isos) == 1
    assert isinstance(isos[0], RingIsomorphism)
    assert isos[0].images == ((1,),)

    assert len(brute_isos(t2_f2(), t2_f2())) == 2
    assert brute_isos(cyclic(2), cyclic(3)) == []


def test_brute_triangular_golden():
    ring = t2_f2()
    e11 = ring.element((1, 0, 0))
    e22 = ring.element((0, 0, 1))
    assert brute_triangular_check(ring, [e11, e22]) is True
    assert brute_triangular_check(ring, [e22, e11]) is False
    f4 = fixture("f4")
    assert brute_triangular_check(f4, [f4.one_element()]) is True
    assert brute_triangular_check(f4, []) is False


def test_brute_triangular_matches_engine():
    import itertools

    from finring import is_strongly_triangular

    for name in ("z6", "t2_f2", "z2xz3"):
        ring = fixture(name)
        seq = complete_triangulating_set(ring)
        for perm in itertools.permutations(range(seq.m)):
            idems = [seq.idems[i] for i in perm]
            assert brute_triangular_check(ring, idems) == is_strongly_triangular(
                ring, idems
            ), (name, perm)


def test_brute_iso_caps():
    with pytest.raises(CapExceeded) as info:
        brute_isos(t3_f2(), t3_f2())  # 64^6 candidate tuples
    # the cap counts order-compatible tuples before the unit and square rules
    # cut them: it refuses at the fourth generator's 64^4
    assert info.value.size == 16777216
    with pytest.raises(CapExceeded):
        brute_semicentral(cyclic(2048), cyclic(2048).one_element())


def test_oracle_agrees_with_enumeration():
    for name in ("z6", "f2", "f4", "z4", "t2_f2", "z2xz3"):
        ring = fixture(name)
        brute = {iso.images for iso in brute_isos(ring, ring)}
        engine = {iso.images for _d, iso in enumerate_isomorphisms(ring, ring)}
        assert brute == engine, name


def test_oracle_agrees_cross_ring():
    a = fixture("z6")
    b = fixture("z2xz3")
    brute = {iso.images for iso in brute_isos(a, b)}
    engine = {iso.images for _d, iso in enumerate_isomorphisms(a, b)}
    assert brute == engine == {((1, 1),)}


def test_brute_aut_count():
    assert brute_aut_count(f2()) == 1
    assert brute_aut_count(fixture("f4")) == 2
    assert brute_aut_count(fixture("t2_z4")) == aut_order(fixture("t2_z4")) == 8


def _isos_by_elements(dom, cod):
    """Reference for brute_isos: every order-compatible image tuple, checked
    on Element objects and filtered afterwards."""
    if dom.order != cod.order:
        return []
    cod_elems = list(cod.elements())
    candidates = [[y for y in cod_elems if (o * y).is_zero()] for o in dom.orders]
    dom_elems = list(dom.elements())
    one_coeffs = dom.one_element().coeffs
    cod_one = cod.one_element()
    out = []
    for tup in itertools.product(*candidates):
        if cod.sum(c * y for c, y in zip(one_coeffs, tup)) != cod_one:
            continue
        table = {
            x.coeffs: cod.sum(c * y for c, y in zip(x.coeffs, tup)) for x in dom_elems
        }
        if len(set(table.values())) != dom.order:
            continue
        if any(
            table[(x * y).coeffs] != table[x.coeffs] * table[y.coeffs]
            for x in dom_elems
            for y in dom_elems
        ):
            continue
        out.append(RingIsomorphism(AdditiveMap(dom, cod, list(tup))))
    return out


# Z4 x Z4 on a = (1, 3), b = (0, 1): 1 = a + 2b, so the unit is solved for the
# image of b through the zero divisor 2, and a*a = a + 2b is no multiple of a
Z4XZ4_SKEW = RingPresentation(
    [4, 4], [[[1, 2], [0, 3]], [[0, 3], [0, 1]]], [1, 2], name="Z4xZ4 skew"
)
# Z8 on g = 3: 1 = 3g and g*g = 3g
Z8_ON_3 = RingPresentation([8], [[[3]]], [3], name="Z8 on 3")


ZERO = zero_ring()


def _oracle_pairs():
    """The oracle pairs: the fixtures of at most 16 elements paired by
    order, two small skew presentations, the zero ring and seeded basis
    changes."""
    rings = [fixture(name) for name in sorted(FIXTURE_BUILDERS)]
    rings = [r for r in rings if r.order <= 16]
    pairs = [(a, b) for a in rings for b in rings if a.order == b.order]
    pairs.append((cyclic(2), cyclic(3)))
    pairs.append((ZERO, ZERO))
    for ring, standard in ((Z4XZ4_SKEW, product(cyclic(4), cyclic(4))), (Z8_ON_3, cyclic(8))):
        pairs += [(ring, ring), (ring, standard), (standard, ring)]
    # seeded basis changes of the fixtures with at most 16 elements on one
    # generator order (basis_change needs it): the unit's coefficients and
    # the generators' squares move off the standard basis
    for seed, ring in enumerate(r for r in rings if len(set(r.orders)) == 1):
        changed = basis_change(ring, random.Random(seed))[0]
        pairs.append((changed, changed))
    return pairs


def test_brute_isos_matches_the_element_reference_in_order():
    pairs = _oracle_pairs()
    for dom, cod in pairs:
        expected = [iso for iso in _isos_by_elements(dom, cod)]
        assert [iso for iso in brute_isos(dom, cod)] == expected, (dom, cod)
    assert len(pairs) == 25
    assert [iso.images for iso in brute_isos(ZERO, ZERO)] == [()]
    assert len(brute_isos(Z4XZ4_SKEW, Z4XZ4_SKEW)) == 2
    assert len(brute_isos(Z8_ON_3, Z8_ON_3)) == 1


def _count_element_ops(monkeypatch) -> dict:
    """Count RingPresentation._add_coeffs and _mul_coeffs calls from now on."""
    calls = {"_add_coeffs": 0, "_mul_coeffs": 0}
    for name in calls:
        original = getattr(RingPresentation, name)

        def counted(self, a, b, _original=original, _name=name):
            calls[_name] += 1
            return _original(self, a, b)

        monkeypatch.setattr(RingPresentation, name, counted)
    return calls


def test_brute_isos_refuses_before_filling_tables(monkeypatch):
    ring = t3_f2()
    big = upper_triangular(2, 16)  # 4096 elements
    calls = _count_element_ops(monkeypatch)
    with pytest.raises(CapExceeded) as info:
        brute_isos(ring, ring)
    assert info.value.what == "oracle image tuples"
    # above ORACLE_ELEMENT_CAP every sweep refuses before any table or row
    for sweep in (
        lambda: brute_isos(big, big),
        lambda: brute_semicentral_list(big),
        lambda: BrutePeirceTable(big),
        lambda: brute_triangular_check(big, [big.one_element()]),
    ):
        with pytest.raises(CapExceeded) as info:
            sweep()
        assert info.value.what == "oracle element sweep"
        assert info.value.size == 4096
    assert calls == {"_add_coeffs": 0, "_mul_coeffs": 0}


def test_brute_aut_count_work_on_t2_z4(monkeypatch):
    # the cost model of the sweep: the addition table from its 3 generator
    # rows (3*64 additions), the 64 squares and 3 generator squares, the one
    # multiplication table from its 3 generator rows (3*64 products), and
    # 120 visited tuples where the order-compatible product has 64^3
    ring = fixture("t2_z4")
    calls = _count_element_ops(monkeypatch)
    visited = []
    unit_tuples = oracle._unit_tuples

    def counted_tuples(*args):
        for tup in unit_tuples(*args):
            visited.append(tup)
            yield tup

    monkeypatch.setattr(oracle, "_unit_tuples", counted_tuples)
    assert brute_aut_count(ring) == 8
    assert calls == {"_add_coeffs": 192, "_mul_coeffs": 64 + 3 + 192}
    assert 8 <= len(visited) <= 120


def test_brute_semicentral_list_work_on_t2_z4(monkeypatch):
    # the 64 idempotence tests, then for each of the 10 idempotents e the
    # difference 1 - e and the 3 + 3 generator products of the rows
    # a -> (1-e)*a and y -> y*e; the rows' additions come from the 3
    # generator rows of the addition table (3*64 additions)
    ring = fixture("t2_z4")
    calls = _count_element_ops(monkeypatch)
    semis = brute_semicentral_list(ring)
    assert len(semis) == 6
    assert calls == {"_add_coeffs": 192 + 10, "_mul_coeffs": 64 + 10 * 6}


# Test-local copies of the element sweeps that brute_semicentral_list and
# BrutePeirceTable replaced with position rows: every product here is an
# Element product.


def _semicentral_by_elements(ring):
    one = ring.one_element()
    return [
        e
        for e in ring.elements()
        if e.is_idempotent() and all(((one - e) * x * e).is_zero() for x in ring.elements())
    ]


def _vanishes_by_elements(ring, e, f):
    return all((e * a * f).is_zero() for a in ring.elements())


def _reduced_by_elements(ring, e):
    corner = {e * a * e for a in ring.elements()}
    semis = {
        f
        for f in corner
        if f.is_idempotent() and all(((e - f) * x * f).is_zero() for x in corner)
    }
    return not e.is_zero() and semis == {ring.zero(), e}


def _reference_rings():
    rings = [fixture(name) for name in sorted(FIXTURE_BUILDERS)]
    rings += [matrix_ring(2, 2), matrix_ring(2, 3), upper_triangular(2, 9)]
    changed = [
        basis_change(ring, random.Random(seed))[0]
        for seed, ring in enumerate(r for r in rings if len(set(r.orders)) == 1)
    ]
    return rings + changed


def test_semicentral_and_peirce_sweeps_match_the_element_reference_in_order():
    rings = _reference_rings()
    assert len(rings) == 23
    for n, ring in enumerate(rings):
        assert brute_semicentral_list(ring) == _semicentral_by_elements(ring), ring
        # the idempotents, few enough for an element sweep per pair, and two
        # seeded elements that are not idempotent in general
        idems = [e for e in ring.elements() if e.is_idempotent()]
        if ring.order > 100:
            idems = idems[:6]
        rng = random.Random(n)
        probes = idems + [
            ring.element([rng.randrange(d) for d in ring.orders]) for _ in range(2)
        ]
        table = BrutePeirceTable(ring)
        assert [table.vanishes(e, f) for e in probes for f in probes] == [
            _vanishes_by_elements(ring, e, f) for e in probes for f in probes
        ], ring
        assert [table.reduced(e) for e in probes] == [
            _reduced_by_elements(ring, e) for e in probes
        ], ring


def test_one_peirce_table_decides_every_order():
    # F2^4: the 4! orders of the canonical sequence share one table, which
    # sweeps each of the 12 off-diagonal components and the 4 corners once
    ring = f2()
    for _ in range(3):
        ring = product(ring, f2())
    seq = complete_triangulating_set(ring)
    table = BrutePeirceTable(ring)
    for perm in itertools.permutations(range(seq.m)):
        idems = [seq.idems[j] for j in perm]
        assert brute_triangular_check(ring, idems, table=table) is True
        assert brute_triangular_check(ring, idems) is True
    assert len(table._vanishes) == 12
    assert len(table._reduced) == 4
    t2 = t2_f2()
    table = BrutePeirceTable(t2)
    e11, e22 = t2.element((1, 0, 0)), t2.element((0, 0, 1))
    assert brute_triangular_check(t2, [e11, e22], table=table) is True
    assert brute_triangular_check(t2, [e22, e11], table=table) is False
    assert table.vanishes(e22, e11) and not table.vanishes(e11, e22)


def test_corner_search_matches_the_oracle_in_order():
    # the corner search on whole rings of equal order, and the matrix-unit
    # construction on M2(F2) and its basis-changed copies, where the
    # enumeration of a one-block ring is its list of corner isomorphisms
    for dom, cod in _oracle_pairs():
        if dom.order == cod.order:
            assert morphisms._enumerate_corner_isos(dom, cod) == brute_isos(dom, cod), (dom, cod)
    m2 = [matrix_ring(2, 2)] + [
        basis_change(matrix_ring(2, 2), random.Random(seed))[0] for seed in range(3)
    ]
    for dom in m2:
        for cod in m2:
            engine = [iso for _d, iso in enumerate_isomorphisms(dom, cod)]
            assert engine == brute_isos(dom, cod)
            assert len(engine) == 6


# -- independence from the engine -----------------------------------------


def _package_imports() -> dict:
    """The finring modules that each module of the package imports, read
    from its import statements: x for `from .x import y`, `from . import x`
    and `import finring.x`."""
    out = {}
    for path in sorted(pathlib.Path(finring.__file__).parent.glob("*.py")):
        found = set()
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.Import):
                names = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom):
                base = ("finring." if node.level else "") + (node.module or "")
                names = [base.rstrip(".") + "." + alias.name for alias in node.names]
            else:
                continue
            found.update(name.split(".")[1] for name in names if name.startswith("finring."))
        out[path.stem] = found
    return out


def test_oracle_shares_no_machinery_with_the_engine():
    # The oracle re-derives the engine's answers, so it may read only the
    # ring presentation, additive maps and the error types, and no engine
    # module may read the oracle: only the package and the CLI expose it.
    imports = _package_imports()
    assert imports["oracle"] <= {"errors", "maps", "presentation"}
    assert imports["oracle"], "the oracle's package imports were not found"
    assert {name for name, found in imports.items() if "oracle" in found} == {"__init__", "cli"}


def test_the_cli_reads_only_public_library_names():
    # The command line is a client of the library: every name it imports
    # from a finring module is public, so no private fork of an engine
    # entry point exists only for it.
    path = pathlib.Path(finring.__file__).parent / "cli.py"
    imported = set()
    for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
        if isinstance(node, ast.ImportFrom) and (node.level or node.module.startswith("finring")):
            imported.update(alias.name for alias in node.names)
    assert imported, "the CLI's package imports were not found"
    assert sorted(name for name in imported if name.startswith("_")) == []
