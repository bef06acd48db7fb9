"""Brute-force reference routines used to cross-check the structured code.

Everything here decides by exhaustive element sweeps over the presentations
alone; none of the subgroup, corner, or enumeration machinery is involved.
The only shared code is element arithmetic and the dumb map wrappers, so the
structured implementations and these sweeps fail independently.  Sweeps
refuse outsized inputs with CapExceeded instead of degrading.

The triangularity check decides each Peirce component e*A*f and each corner
by one sweep of A, kept in a BrutePeirceTable: a table built once for a set
of idempotents decides every order of them.

The isomorphism sweep reads tables indexed by element position (the index in
elements() order) instead of building Element objects.  The tables are
filled once per call from element arithmetic (+, scalar *, ring *).  It
visits only the image tuples that can pass its checks, by three rules:

(a) phi(1) = 1.  Write 1 = c_0*g_0 + ... + c_j*g_j with c_j != 0 the last
    nonzero coefficient.  Any unital phi has c_j*phi(g_j) = 1 - (c_0*phi(g_0)
    + ... + c_{j-1}*phi(g_{j-1})), so for each choice of the earlier images
    only the images of g_j that solve this are visited; the images after j
    do not enter the sum.
(b) phi(g)^2 = phi(g^2).  When g*g = c*g, any multiplicative phi has
    phi(g)^2 = c*phi(g), so only such images of g are visited.
(c) When cod is dom the two multiplication tables are the same table, so it
    is filled once.

Rules (a) and (b) drop no homomorphism and keep the lexicographic order of
the tuples, and every visited tuple still goes through the unit,
bijectivity and multiplicativity checks.  The tuple cap counts the
order-compatible tuples before either rule, so what the sweep refuses does
not change.  The multiplication tables wait for the first tuple that passes
the unit and bijectivity checks.
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


class BrutePeirceTable:
    """Peirce facts of one ring's idempotents, each decided by one sweep of A.

    vanishes(e, f) says whether e*a*f == 0 for every a, and reduced(e)
    whether e is nonzero and 0 and e are the only semicentral idempotents of
    the corner {e*a*e}.  Each answer is swept on first use and kept.  Neither
    depends on an order of the idempotents, so one table decides every
    reordering of a sequence.
    """

    def __init__(self, ring: RingPresentation, cap: int = ORACLE_ELEMENT_CAP):
        _require_small(ring.order, cap, "oracle element sweep")
        self.ring = ring
        self._elems = list(ring.elements())
        self._vanishes: dict = {}
        self._reduced: dict = {}

    def vanishes(self, e: Element, f: Element) -> bool:
        key = (e, f)
        if key not in self._vanishes:
            self._vanishes[key] = all((e * a * f).is_zero() for a in self._elems)
        return self._vanishes[key]

    def reduced(self, e: Element) -> bool:
        if e not in self._reduced:
            corner = {e * a * e for a in self._elems}
            semis = {
                f
                for f in corner
                if f.is_idempotent() and all(((e - f) * x * f).is_zero() for x in corner)
            }
            self._reduced[e] = not e.is_zero() and semis == {self.ring.zero(), e}
        return self._reduced[e]


def brute_triangular_check(
    ring: RingPresentation,
    idems,
    cap: int = ORACLE_ELEMENT_CAP,
    table: BrutePeirceTable | None = None,
) -> bool:
    """Full-sweep test that idems is a complete left-triangulating sequence.

    The sweeps of A go through table, a BrutePeirceTable of ring; pass one to
    reuse its answers across several orders of the same idempotents.
    """
    _require_small(ring.order, cap, "oracle element sweep")
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
    if ring.sum(seq) != ring.one_element():
        return False
    if table is None:
        table = BrutePeirceTable(ring, cap)
    return all(
        table.vanishes(seq[j], seq[i]) for j in range(len(seq)) for i in range(j)
    ) and all(table.reduced(e) for e in seq)


def _multiplicative(table, dom_mul, cod_mul) -> bool:
    """table[x*y] == table[x]*table[y] for every pair of dom positions."""
    for row, tx in zip(dom_mul, table):
        image_row = cod_mul[tx]
        if [table[xy] for xy in row] != [image_row[ty] for ty in table]:
            return False
    return True


def _unit_tuples(candidates, one_coeffs, one_terms, add, cod_zero, cod_one):
    """The image tuples whose unit sum can be cod_one, in lexicographic order.

    With j the last generator whose coefficient c_j in the unit is nonzero,
    y_j must solve c_j*y_j = 1 - (c_0*y_0 + ... + c_{j-1}*y_{j-1}); the
    generators after j do not enter the sum.  So each prefix of images
    before j looks up its y_j among candidates[j] grouped by c_j*y_j.
    """
    j = max((i for i, c in enumerate(one_coeffs) if c), default=None)
    if j is None:
        yield from itertools.product(*candidates)
        return
    solutions: dict[int, list[int]] = {}
    for y in candidates[j]:
        solutions.setdefault(one_terms[j][y], []).append(y)
    rest = [row.index(cod_one) for row in add]  # rest[p]: the q with p + q = 1
    for prefix in itertools.product(*candidates[:j]):
        acc = cod_zero
        for terms, y in zip(one_terms, prefix):
            acc = add[acc][terms[y]]
        for y in solutions.get(rest[acc], ()):
            for suffix in itertools.product(*candidates[j + 1:]):
                yield prefix + (y,) + suffix


def brute_isos(dom: RingPresentation, cod: RingPresentation) -> list[RingIsomorphism]:
    """All ring isomorphisms dom -> cod, found by definitional brute force.

    Both caps are the module's: a ring of more than ORACLE_ELEMENT_CAP
    elements is refused, and so is a product of more than ORACLE_TUPLE_CAP
    tuples, where a generator's candidate images are the elements its
    additive order annihilates.  Of that product the sweep visits only the
    tuples that rules (a) and (b) of the module docstring leave: the image
    of the last generator in the unit's support solves phi(1) = 1 (see
    _unit_tuples), and a generator with g*g = c*g keeps only images y with
    y*y = c*y.  Each visited tuple is checked for unit preservation,
    bijectivity, and multiplicativity on every pair of elements, in that
    order.  Survivors are wrapped without re-validation and come back sorted
    lexicographically by image tuple.

    The sweep works on positions: an element's index in elements() order.
    Once the caps pass, each ring is indexed and its position tables are
    filled once from element arithmetic: addition, the unit's multiples and
    the squares in cod, and one step of the additive build of every element
    of dom.  The multiplication tables are filled only when the first tuple
    passes the unit and bijectivity checks, and only one when cod is dom
    (rule (c)).  No table holds more than |A|^2 entries.
    """
    if dom.order != cod.order:
        return []
    _require_small(dom.order, ORACLE_ELEMENT_CAP, "oracle element sweep")
    cod_elems = list(cod.elements())
    candidates = []
    space = 1
    for o in dom.orders:
        annihilated = [p for p, y in enumerate(cod_elems) if (o * y).is_zero()]
        space *= len(annihilated)
        _require_small(space, ORACLE_TUPLE_CAP, "oracle image tuples")
        candidates.append(annihilated)
    cod_pos = {y.coeffs: p for p, y in enumerate(cod_elems)}
    if cod is dom:
        dom_elems, dom_pos = cod_elems, cod_pos
    else:
        dom_elems = list(dom.elements())
        dom_pos = {x.coeffs: p for p, x in enumerate(dom_elems)}
    gens = dom.gens()
    squares = None
    for i, g in enumerate(gens):
        square = g * g
        c = square.coeffs[i]
        if square == c * g:
            if squares is None:
                squares = [y * y for y in cod_elems]
            candidates[i] = [p for p in candidates[i] if squares[p] == c * cod_elems[p]]
    add = [[cod_pos[(y + z).coeffs] for z in cod_elems] for y in cod_elems]
    one_terms = [[cod_pos[(c * y).coeffs] for y in cod_elems] for c in dom.one]
    cod_zero = cod_pos[cod.zero().coeffs]
    cod_one = cod_pos[cod.one]
    # x = x' + g_i, with i the last generator in x's support: x' comes earlier
    # in elements() order, so the image table fills left to right.
    steps = []
    for x in dom_elems[1:]:
        i = max(j for j, c in enumerate(x.coeffs) if c)
        steps.append((dom_pos[(x - gens[i]).coeffs], i))
    dom_mul = cod_mul = None
    out = []
    for tup in _unit_tuples(candidates, dom.one, one_terms, add, cod_zero, cod_one):
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
            cod_mul = [[cod_pos[(y * z).coeffs] for z in cod_elems] for y in cod_elems]
            dom_mul = cod_mul if cod is dom else [
                [dom_pos[(x * y).coeffs] for y in dom_elems] for x in dom_elems
            ]
        if not _multiplicative(table, dom_mul, cod_mul):
            continue
        out.append(RingIsomorphism(AdditiveMap(dom, cod, [cod_elems[p] for p in tup])))
    return out


def brute_aut_count(ring: RingPresentation) -> int:
    return len(brute_isos(ring, ring))
