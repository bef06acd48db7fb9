"""Brute-force reference routines used to cross-check the structured code.

Everything here decides by exhaustive element sweeps over the presentations
alone; none of the subgroup, corner, or enumeration machinery is involved.
The only shared code is element arithmetic and the dumb map wrappers, so the
structured implementations and these sweeps fail independently.  Sweeps
refuse inputs above the module's fixed caps, ORACLE_ELEMENT_CAP and
ORACLE_TUPLE_CAP, with CapExceeded, before any element arithmetic, instead
of degrading.

The sweeps read tables indexed by element position (the index in elements()
order) instead of building Element objects.  Every nonzero x is x' + g_i,
where i is the last generator in x's support and x' comes earlier in that
order (_steps).  So a table that is additive in one argument is filled row
by row from the rows of the k generators, with list lookups only:

    add[x][q] = add[x'][add[g_i][q]]          (the addition table)
    mul[x][z] = add[mul[x'][z]][mul[g_i][z]]  (the multiplication table)
    t[x] = add[t[g_i]][t[x']]                 (the values of an additive
                                               map t: a -> e*a, a -> a*f,
                                               a -> c*a, or phi)

A table then costs k*|A| element operations (its generator rows) and |A|^2
lookups, where one element operation per entry costs |A|^2.  A row of
values costs the k element operations that give t(g_i) and |A| lookups in
the addition rows of those k values; each addition row is filled on first
use.  What stays element arithmetic is each generator row, the values
t(g_i), every idempotence test x*x == x, the squares and the additive
orders' multiples o*y in the isomorphism sweep, the differences 1 - e and
e - f, and the triangularity check's products of the sequence's
idempotents.

The semicentral sweep tests (1-e)*a*e == 0 for every a as
right_e[left_(1-e)[a]] == 0, reading a row for a -> (1-e)*a and one for
y -> y*e.  The triangularity check decides each Peirce component e*A*f and
each corner from such rows, kept in a BrutePeirceTable: a table built once
for a set of idempotents decides every order of them.

The isomorphism sweep visits only the image tuples that can pass its
checks, by three rules:

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
from functools import cached_property
from math import prod

from .errors import CapExceeded
from .maps import AdditiveMap, RingIsomorphism
from .presentation import Element, RingPresentation

ORACLE_ELEMENT_CAP = 1024
ORACLE_TUPLE_CAP = 1 << 20


def _require_small(size: int, cap: int, what: str) -> None:
    if size > cap:
        raise CapExceeded(size, cap, what)


def brute_semicentral(ring: RingPresentation, e: Element) -> bool:
    """Definitional test: e idempotent and (1-e)*x*e == 0 for every x."""
    _require_small(ring.order, ORACLE_ELEMENT_CAP, "oracle element sweep")
    if not e.is_idempotent():
        return False
    c = ring.one_element() - e
    return all((c * x * e).is_zero() for x in ring.elements())


def _steps(orders) -> list[tuple[int, int]]:
    """(p', i) for each position p = 1, 2, ... of elements() order: the
    element at p is the one at p' plus g_i, where i is the last generator in
    its support.  Its coefficient i is then at least 1, so p' = p - s_i with
    s_i = d_{i+1} * ... * d_{k-1}, and p' < p."""
    strides = [prod(orders[i + 1:]) for i in range(len(orders))]
    steps = []
    for p, coeffs in enumerate(itertools.product(*map(range, orders))):
        if p:
            i = max(j for j, c in enumerate(coeffs) if c)
            steps.append((p - strides[i], i))
    return steps


def _fill(steps, translations) -> list[int]:
    """The positions of an additive map's values in elements() order, from
    translations[i], the row of q -> t(g_i) + q for its value t(g_i) on
    each generator: t(x' + g_i) = t(g_i) + t(x'), with steps as in _steps."""
    row = [0]
    for prev, i in steps:
        row.append(translations[i][row[prev]])
    return row


class _Positions:
    """One ring's elements by position, and the position tables filled from
    them by bilinearity (see the module docstring).

    elems[p] is the element at position p, pos maps its coefficients back to
    p, position 0 is zero, and gens holds the ring's generators, built once.
    Each row of the addition table is filled on first use, and the
    multiplication table too.
    """

    def __init__(self, ring: RingPresentation):
        self.ring = ring
        self.gens = ring.gens()
        self.elems = list(ring.elements())
        self.pos = {x.coeffs: p for p, x in enumerate(self.elems)}
        self.steps = _steps(ring.orders)
        self._add_rows = [list(range(ring.order))] + [None] * (ring.order - 1)

    def of(self, x: Element) -> int:
        return self.pos[x.coeffs]

    @cached_property
    def _gen_add(self) -> list[list[int]]:
        """The positions of g_i + q for every q, one row per generator."""
        return [[self.of(g + y) for y in self.elems] for g in self.gens]

    def add_row(self, y: int) -> list[int]:
        """The positions of y + q for every q.  The row of x' + g_i is the
        row of x' read through the row of g_i, so the rows along y's steps
        back to 0 are filled first."""
        rows = self._add_rows
        chain = []
        x = y
        while rows[x] is None:
            chain.append(x)
            x = self.steps[x - 1][0]
        for x in reversed(chain):
            prev, i = self.steps[x - 1]
            rows[x] = list(map(rows[prev].__getitem__, self._gen_add[i]))
        return rows[y]

    @cached_property
    def add(self) -> list[list[int]]:
        """add[x][q] is the position of x + q."""
        return [self.add_row(x) for x in range(self.ring.order)]

    @cached_property
    def mul(self) -> list[list[int]]:
        """mul[x][z] is the position of x * z; mul[x'+g_i] is mul[x'] plus
        the row of g_i, entry by entry."""
        add = self.add
        gen_rows = [[self.of(g * z) for z in self.elems] for g in self.gens]
        mul = [[0] * len(self.elems)]
        for prev, i in self.steps:
            mul.append([add[y][z] for y, z in zip(mul[prev], gen_rows[i])])
        return mul

    def values(self, f) -> list[int]:
        """The positions of f(a) for every a, for an additive map f on the
        ring's elements, from its k values f(g_i) (see _fill)."""
        return _fill(self.steps, [self.add_row(self.of(f(g))) for g in self.gens])


def _vanish(left: list[int], right: list[int], among) -> bool:
    """right[left[a]] is zero for every position a in among: with left the
    values of a -> e*a and right those of y -> y*f, e*a*f == 0 on among."""
    return not any(right[left[a]] for a in among)


def brute_semicentral_list(ring: RingPresentation) -> list[Element]:
    """All semicentral idempotents in lexicographic order: each idempotent e
    with (1-e)*a*e == 0 for every a, read from the rows of a -> (1-e)*a and
    y -> y*e."""
    _require_small(ring.order, ORACLE_ELEMENT_CAP, "oracle element sweep")
    positions = _Positions(ring)
    everything = range(ring.order)
    one = ring.one_element()
    out = []
    for e in positions.elems:
        if e.is_idempotent():
            c = one - e
            by_c = positions.values(lambda a: c * a)
            if _vanish(by_c, positions.values(lambda y: y * e), everything):
                out.append(e)
    return out


class BrutePeirceTable:
    """Peirce facts of one ring's idempotents, each decided by one sweep of A.

    vanishes(e, f) says whether e*a*f == 0 for every a, and reduced(e)
    whether e is nonzero and 0 and e are the only semicentral idempotents of
    the corner {e*a*e}.  Both read e*a*f over every a from the row of
    a -> e*a and the row of y -> y*f, which are kept per idempotent; each
    answer is swept on first use and kept.  Neither depends on an order of
    the idempotents, so one table decides every reordering of a sequence.
    """

    def __init__(self, ring: RingPresentation):
        _require_small(ring.order, ORACLE_ELEMENT_CAP, "oracle element sweep")
        self.ring = ring
        self._positions = _Positions(ring)
        self._left: dict = {}
        self._right: dict = {}
        self._vanishes: dict = {}
        self._reduced: dict = {}

    def _rows(self, e: Element, f: Element) -> tuple[list[int], list[int]]:
        if e not in self._left:
            self._left[e] = self._positions.values(lambda a: e * a)
        if f not in self._right:
            self._right[f] = self._positions.values(lambda y: y * f)
        return self._left[e], self._right[f]

    def vanishes(self, e: Element, f: Element) -> bool:
        key = (e, f)
        if key not in self._vanishes:
            self._vanishes[key] = _vanish(*self._rows(e, f), range(self.ring.order))
        return self._vanishes[key]

    def reduced(self, e: Element) -> bool:
        if e not in self._reduced:
            positions = self._positions
            left, right = self._rows(e, e)
            corner = {right[y] for y in left}
            semis = set()
            for p in corner:
                f = positions.elems[p]
                if f.is_idempotent():
                    c = e - f
                    by_c = positions.values(lambda x: c * x)
                    if _vanish(by_c, positions.values(lambda y: y * f), corner):
                        semis.add(p)
            self._reduced[e] = not e.is_zero() and semis == {0, positions.of(e)}
        return self._reduced[e]


def brute_triangular_check(
    ring: RingPresentation,
    idems,
    table: BrutePeirceTable | None = None,
) -> bool:
    """Full-sweep test that idems is a complete left-triangulating sequence.

    The sweeps of A go through table, a BrutePeirceTable of ring; pass one to
    reuse its answers across several orders of the same idempotents.
    """
    _require_small(ring.order, ORACLE_ELEMENT_CAP, "oracle element sweep")
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
        table = BrutePeirceTable(ring)
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
    Once the caps pass, the tables are filled by bilinearity (see the module
    docstring): cod's addition table from the k rows g_i + q, and each
    tuple's image table from the tuple itself, phi(x' + g_i) = phi(x') +
    phi(g_i), with no element arithmetic.  Element arithmetic is left for
    the generator rows, the multiples o*y that pick each generator's
    candidates, the unit's coefficients times the generators, and the
    squares y*y in cod.  The
    multiplication tables are filled only when the first tuple passes the
    unit and bijectivity checks, each from its k generator rows, and only
    one when cod is dom (rule (c)); dom's addition table is filled with its
    multiplication table.  No table holds more than |A|^2 entries.
    """
    if dom.order != cod.order:
        return []
    _require_small(dom.order, ORACLE_ELEMENT_CAP, "oracle element sweep")
    cod_positions = _Positions(cod)
    cod_elems = cod_positions.elems
    candidates = []
    space = 1
    for o in dom.orders:
        annihilated = [p for p, y in enumerate(cod_elems) if (o * y).is_zero()]
        space *= len(annihilated)
        _require_small(space, ORACLE_TUPLE_CAP, "oracle image tuples")
        candidates.append(annihilated)
    squares = None
    for i, g in enumerate(dom.gens()):
        square = g * g
        c = square.coeffs[i]
        if square == c * g:
            if squares is None:
                squares = [cod_positions.of(y * y) for y in cod_elems]
            multiples = cod_positions.values(lambda y: c * y)
            candidates[i] = [p for p in candidates[i] if squares[p] == multiples[p]]
    add = cod_positions.add
    one_terms = [cod_positions.values(lambda y: c * y) for c in dom.one]
    cod_zero = 0
    cod_one = cod_positions.of(cod.one_element())
    steps = _steps(dom.orders)
    dom_mul = cod_mul = None
    out = []
    for tup in _unit_tuples(candidates, dom.one, one_terms, add, cod_zero, cod_one):
        acc = cod_zero
        for terms, y in zip(one_terms, tup):
            acc = add[acc][terms[y]]
        if acc != cod_one:
            continue
        table = _fill(steps, [add[y] for y in tup])
        if len(set(table)) != dom.order:
            continue
        if dom_mul is None:
            cod_mul = cod_positions.mul
            dom_mul = cod_mul if cod is dom else _Positions(dom).mul
        if not _multiplicative(table, dom_mul, cod_mul):
            continue
        out.append(RingIsomorphism(AdditiveMap(dom, cod, [cod_elems[p] for p in tup])))
    return out


def brute_aut_count(ring: RingPresentation) -> int:
    return len(brute_isos(ring, ring))
