"""Brute-force reference routines used to cross-check the structured code.

Everything here decides by exhaustive element sweeps over the presentations
alone; none of the subgroup, corner, or enumeration machinery is involved.
The only shared code is element arithmetic and the dumb map wrappers, so the
structured implementations and these sweeps fail independently.  Sweeps
refuse outsized inputs with CapExceeded instead of degrading.

The isomorphism sweep checks the definition's candidate tuples with the
definition's checks, in order, but reads tables indexed by element position
(the index in elements() order) instead of building Element objects.  The
tables are filled once per call from element arithmetic (+, scalar *, ring
*); the multiplication tables wait for the first tuple that passes the unit
and bijectivity checks.
"""
from __future__ import annotations

import itertools

from .errors import CapExceeded
from .maps import AdditiveMap, RingIsomorphism
from .presentation import Element, RingPresentation

ORACLE_ELEMENT_CAP = 1024
ORACLE_TUPLE_CAP = 1 << 20


def _require_small(size: int, cap: int, what: str) -> None:
    if size > cap:
        raise CapExceeded(size, cap, what)


def brute_semicentral(
    ring: RingPresentation, e: Element, cap: int = ORACLE_ELEMENT_CAP
) -> bool:
    """Definitional test: e idempotent and (1-e)*x*e == 0 for every x."""
    _require_small(ring.order, cap, "oracle element sweep")
    if not e.is_idempotent():
        return False
    c = ring.one_element() - e
    return all((c * x * e).is_zero() for x in ring.elements())


def brute_semicentral_list(
    ring: RingPresentation, cap: int = ORACLE_ELEMENT_CAP
) -> list[Element]:
    """All semicentral idempotents, by double sweep, in lexicographic order."""
    _require_small(ring.order, cap, "oracle element sweep")
    return [e for e in ring.elements() if brute_semicentral(ring, e, cap)]


def brute_triangular_check(
    ring: RingPresentation, idems, cap: int = ORACLE_ELEMENT_CAP
) -> bool:
    """Full-sweep test that idems is a complete left-triangulating sequence."""
    _require_small(ring.order, cap, "oracle element sweep")
    elems = list(ring.elements())
    zero = ring.zero()
    one = ring.one_element()
    seq = list(idems)
    if ring.order == 1:
        return seq == []
    if not seq:
        return False
    for e in seq:
        if e.ring != ring or not e.is_idempotent():
            return False
    for i, e in enumerate(seq):
        for j, f in enumerate(seq):
            if i != j and not (e * f).is_zero():
                return False
    if ring.sum(seq) != one:
        return False
    for j in range(len(seq)):
        for i in range(j):
            if any(not (seq[j] * a * seq[i]).is_zero() for a in elems):
                return False
    for e in seq:
        corner = sorted({e * a * e for a in elems})
        semis = {
            f
            for f in corner
            if f.is_idempotent() and all(((e - f) * x * f).is_zero() for x in corner)
        }
        if e.is_zero() or semis != {zero, e}:
            return False
    return True


def _multiplicative(table, dom_mul, cod_mul) -> bool:
    """table[x*y] == table[x]*table[y] for every pair of dom positions."""
    for row, tx in zip(dom_mul, table):
        image_row = cod_mul[tx]
        if [table[xy] for xy in row] != [image_row[ty] for ty in table]:
            return False
    return True


def brute_isos(
    dom: RingPresentation,
    cod: RingPresentation,
    element_cap: int = ORACLE_ELEMENT_CAP,
    tuple_cap: int = ORACLE_TUPLE_CAP,
) -> list[RingIsomorphism]:
    """All ring isomorphisms dom -> cod, found by definitional brute force.

    Candidate generator images are cut down by additive order only; each
    surviving tuple is checked for unit preservation, bijectivity, and
    multiplicativity on every pair of elements, in that order.  Survivors are
    wrapped without re-validation and come back sorted lexicographically by
    image tuple.

    The sweep works on positions: an element's index in elements() order.
    Once the caps pass, each ring is indexed and its position tables are
    filled once from element arithmetic: addition and the unit's multiples
    in cod, and one step of the additive build of every element of dom.  The
    two multiplication tables are filled only when the first tuple passes the
    unit and bijectivity checks.  No table holds more than |A|^2 entries.
    """
    if dom.order != cod.order:
        return []
    _require_small(dom.order, element_cap, "oracle element sweep")
    cod_elems = list(cod.elements())
    candidates = []
    space = 1
    for o in dom.orders:
        annihilated = [p for p, y in enumerate(cod_elems) if (o * y).is_zero()]
        space *= len(annihilated)
        _require_small(space, tuple_cap, "oracle image tuples")
        candidates.append(annihilated)
    dom_elems = list(dom.elements())
    dom_pos = {x.coeffs: p for p, x in enumerate(dom_elems)}
    cod_pos = {y.coeffs: p for p, y in enumerate(cod_elems)}
    add = [[cod_pos[(y + z).coeffs] for z in cod_elems] for y in cod_elems]
    one_terms = [[cod_pos[(c * y).coeffs] for y in cod_elems] for c in dom.one]
    cod_zero = cod_pos[cod.zero().coeffs]
    cod_one = cod_pos[cod.one]
    # x = x' + g_i, with i the last generator in x's support: x' comes earlier
    # in elements() order, so the image table fills left to right.
    steps = []
    gens = dom.gens()
    for x in dom_elems[1:]:
        i = max(j for j, c in enumerate(x.coeffs) if c)
        steps.append((dom_pos[(x - gens[i]).coeffs], i))
    dom_mul = cod_mul = None
    out = []
    for tup in itertools.product(*candidates):
        acc = cod_zero
        for terms, y in zip(one_terms, tup):
            acc = add[acc][terms[y]]
        if acc != cod_one:
            continue
        table = [cod_zero]
        for prev, i in steps:
            table.append(add[table[prev]][tup[i]])
        if len(set(table)) != dom.order:
            continue
        if dom_mul is None:
            dom_mul = [[dom_pos[(x * y).coeffs] for y in dom_elems] for x in dom_elems]
            cod_mul = [[cod_pos[(y * z).coeffs] for z in cod_elems] for y in cod_elems]
        if not _multiplicative(table, dom_mul, cod_mul):
            continue
        out.append(RingIsomorphism(AdditiveMap(dom, cod, [cod_elems[p] for p in tup])))
    return out


def brute_aut_count(ring: RingPresentation, **caps) -> int:
    return len(brute_isos(ring, ring, **caps))
