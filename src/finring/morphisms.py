"""Isomorphisms of triangulated rings: corner data, synthesis, decomposition.

A single semicentral level turns an isomorphism phi into corner data
(rho, phibar, chi, m): rho acts on the diagonal corner, phibar on the
complementary corner, chi on the connecting row, and m records where phi
drops the head idempotent inside its row coset.  Synthesis rebuilds

    phi(r + l + a) = rho(r) + [rho(r)*m + chi(l) - m*phibar(a)] + phibar(a)

with r, l, a the Peirce parts of the argument.  Iterating down a
triangulating sequence gives the full parametrization: a block permutation
sigma, one (rho, chi, m) layer per level but the last, and a closing corner
isomorphism.  Layer data is stored against canonical ambient objects (corner
presentations and rows e_i*A*(1-e_i) of the two sequences), so decomposition
and synthesis round-trip field by field.  The single-level functions are the
same engine on the two-block sequence (e, 1-e), with phibar as the next level.

Enumeration walks sigma in lexicographic order and, per sigma, the layer
choices with deeper levels varying slowest and each level keyed by image
tuples in lexicographic order; iso_search returns the first hit in that
canonical order.  Each level map is an AdditiveMap on A, built once from its
images on the generators and read by every choice above it.  A level makes
the row parts e_i*g*t_{i+1} of A's generators once for all its maps, and a
map with offset 0 makes no product.

Decomposition rests on the structure theorem (see triangulate.py), which
drops phi(e_i) into the row coset of exactly one target block.  It is not
re-proved per call: decomposition looks that block up, and comparing the
resynthesis of the parts with phi is its one check.

iso_count counts the same maps without listing them.  A level with offset m
is its offset-0 map followed by conjugation by the unit 1 - m (m*m = 0), so
the choices at a level do not depend on the offsets chosen below it.  The
count walks the enumeration's level recursion with every offset fixed at 0
and multiplies, per sigma, by the orders of the target rows.  A ring of one
block is its own corner, so its count is its corner count, and no map is
assembled.

Each block carries its type (sequences.BlockType), and sigma pairs only
blocks of equal type, so a ring of type M2(F3) meets a local ring of 81
elements with no search.  A block whose n >= 2 primitive idempotents are
equivalent is M_n(D) over the local corner D = p_1*A*p_1, with matrix units
E_ij (Lam, A First Course in Noncommutative Rings, sections 21-23).  A ring
isomorphism M_n(D) -> B is fixed by the image system F_ij of the matrix
units and its restriction alpha: D -> F_11*B*F_11, and it is
a -> sum F_i1*alpha(E_1i*a*E_j1)*F_1j.  The systems of B are one orbit
under its units, and the stabilizer of one is its scalars D'^x, so

    |Iso(M_n(D), M_n(D'))| = |GL_n(D')| / |D'^x| * |Iso(D, D')|.

The count takes this formula and searches only Iso(D, D').  The enumeration
builds every map from the systems u^-1*E'*u, one unit u per system, and
sorts the maps by image tuple; that is the order in which the search lists
them, so the canonical order, the first hit and every listing are those of
the search.  A block whose primitives are not all equivalent, and a
one-primitive (local) block, keeps the search.

Corner isomorphisms of the other blocks, Iso(D, D') and row maps are found
by one backtracking search over generator images.  It assigns the images
in generator order, trying the candidates of each in element order, so
complete tuples come out in the lexicographic order of the full product.
Each defining equation (the unit and the generator products for a corner,
the two twisted actions for a row) is decided as soon as every image it
reads is assigned, and a failing partial assignment is dropped with all its
extensions.  So every complete
survivor satisfies every equation.  The search runs on coefficient tuples:
an equation that reads only the image being placed filters that image's
candidates once per search, one that the earlier images solve for it picks
its candidates by one lookup, and the rest are tested per candidate.  A
surviving corner tuple still gets the full verify_ring_iso, which also
proves it bijective; a surviving row tuple is kept when it is bijective,
the one condition the equations do not test.
"""
from __future__ import annotations

import operator
from dataclasses import dataclass
from math import prod

from .corners import CornerRing, corner_ring, peirce_component
from .errors import (
    AmbientMismatch,
    CapExceeded,
    InadmissiblePermutation,
    InconsistentQuadruple,
    LocationMismatch,
    NotSemicentral,
    ShapeMismatch,
    StructureViolation,
)
from .idempotents import is_semicentral
from .maps import AdditiveMap, RingIsomorphism, _power_walk, compose_maps, verify_ring_iso
from .presentation import Element, RingPresentation, require_cap
from .sequences import BlockType, TriangularSequence
from .structure import admissible_orders
from .subgroups import Subgroup
from .triangulate import _locate_over, complete_triangulating_set

# Candidate images handled by one corner or row search: each candidate of a
# generator once when its candidates are filtered, and each candidate that a
# partial assignment takes up for that generator.
CORNER_SEARCH_CAP = 1 << 16


@dataclass(frozen=True)
class CornerQuadruple:
    """Corner data (rho, phibar, chi, m) for one semicentral level; chi is
    the additive map from the row e*A*(1-e) to the row f*B*(1-f)."""

    rho: RingIsomorphism
    phibar: RingIsomorphism
    chi: AdditiveMap
    m: Element


# -- one level ---------------------------------------------------------------


def _in_ambient(corner_r: CornerRing, corner_s: CornerRing, rho: RingIsomorphism):
    """rho read in ambient coordinates: x -> rho(e*x*e), embedded at f."""
    return compose_maps(compose_maps(corner_r.project_map, rho), corner_s.embed_map)


def _action_pairs(sub: Subgroup, phi: AdditiveMap) -> list[tuple[Element, Element]]:
    """(x, phi(x)) over the ambient additive generators x of the subgroup."""
    return [(x, phi.apply(x)) for x in sub.generators]


def _check_ends(f, dom, cod, what: str, level: int | None = None) -> None:
    if f is None or f.domain != dom or f.codomain != cod:
        raise InconsistentQuadruple("%s has wrong endpoints" % what, level)


def _row_equations(row_l: Subgroup, row_m: Subgroup, left_pairs, right_pairs):
    """The twisted actions on a row map chi: row_l -> row_m, as two lists of
    _backtrack equations in the images of the generators l_j of row_l: the
    left list asks chi(r*l_j) = rho(r)*chi(l_j) over the pairs (r, rho(r)),
    the right list chi(l_j*a) = chi(l_j)*phi(a) over the pairs (a, phi(a)).
    The right-hand sides multiply in row_m's ring."""
    mul = row_m.ring._mul_coeffs
    gens = list(enumerate(row_l.generators))
    left = [
        (row_l.coords(r * l), [j], lambda images, j=j, x=rho_r.coeffs: mul(x, images[j]))
        for j, l in gens for r, rho_r in left_pairs
    ]
    right = [
        (row_l.coords(l * a), [j], lambda images, j=j, x=phi_a.coeffs: mul(images[j], x))
        for j, l in gens for a, phi_a in right_pairs
    ]
    return left, right


def _level_failure(chi: AdditiveMap, offset: Element, left, right) -> str | None:
    """First reason the row map chi and the offset fail at one level, else
    None: the offset must lie in the target row, and chi must be bijective
    and satisfy the left and then the right equations of _row_equations."""
    row_m = chi.codomain
    if offset.ring != row_m.ring or not row_m.contains(offset):
        return "offset lies outside the target row"
    if not chi.is_bijective():
        return "row map is not bijective"
    orders = row_m.ring.orders
    for side, equations in (("left", left), ("right", right)):
        for coeffs, _reads, rhs in equations:
            if any(_residual(orders, enumerate(coeffs), rhs, chi.images)):
                return "%s action compatibility fails" % side
    return None


def _row_parts(e: Element, tail: Element) -> list[Element]:
    """The row parts e*g*t of the generators g of A, made once per level
    for all the maps built there."""
    return [e * g * tail for g in e.ring.gens()]


def _level_map(parts, rho_amb, chi, m: Element, phi_next) -> AdditiveMap:
    """phi(r + l + a) = rho(r) + rho(r)*m + chi(l) - m*phi_next(a) + phi_next(a)
    for the Peirce parts r = e*x*e, l = e*x*t, a = t*x*t at the head e and
    the tail t, given by its images on the generators of A and their row
    parts (_row_parts).  rho_amb and phi_next are AdditiveMaps on A that
    read only r and a; chi is defined on the row alone.  A zero offset m
    makes no product."""
    twisted = not m.is_zero()
    images = []
    for l, rho_r, phi_a in zip(parts, rho_amb._image_elems, phi_next._image_elems):
        y = rho_r + chi.apply(l) + phi_a
        images.append(y + rho_r * m - m * phi_a if twisted else y)
    return AdditiveMap(rho_amb.domain, m.ring, images)


def _checked_level(
    layer,
    corner_r: CornerRing,
    corner_s: CornerRing,
    row_l: Subgroup,
    row_m: Subgroup,
    tail: Element,
    tail_sub: Subgroup,
    phi_next: AdditiveMap,
    level: int | None = None,
) -> AdditiveMap:
    """Check one level of corner data and return its level map.  layer has
    rho (corner_r -> corner_s), chi (row_l -> row_m) and the offset m; the
    tail t and its subgroup t*A*t carry phi_next, the map of the next level."""
    _check_ends(
        layer.rho, corner_r.presentation, corner_s.presentation, "corner isomorphism", level
    )
    _check_ends(layer.chi, row_l, row_m, "row map", level)
    rho_amb = _in_ambient(corner_r, corner_s, layer.rho)
    rho_pairs = _action_pairs(corner_r.subgroup, rho_amb)
    phi_pairs = _action_pairs(tail_sub, phi_next)
    reason = _level_failure(layer.chi, layer.m, *_row_equations(row_l, row_m, rho_pairs, phi_pairs))
    if reason is not None:
        raise InconsistentQuadruple(reason, level)
    return _level_map(_row_parts(corner_r.idem, tail), rho_amb, layer.chi, layer.m, phi_next)


def _restrict_corner(psi: AdditiveMap, corner_r: CornerRing, corner_s: CornerRing):
    """The corner isomorphism x -> f*psi(x)*f from the corner at e to that at f,
    adopted unchecked: the callers' resynthesis and comparison with phi prove it."""
    return RingIsomorphism(
        compose_maps(compose_maps(corner_r.embed_map, psi), corner_s.project_map)
    )


def _restrict_row(psi: AdditiveMap, row_l: Subgroup, row_m: Subgroup) -> AdditiveMap:
    """psi read on the row e*A*(1-e), which it maps into the row f*B*(1-f):
    f is semicentral and psi(e) lies in f + f*B*(1-f) (the structure
    theorem, see triangulate.py)."""
    return AdditiveMap(row_l, row_m, [psi.apply(l) for l in row_l.generators])


# -- a single semicentral level ----------------------------------------------
# One level is the layered engine on the two-block sequence (e, 1-e): the
# complement corner is the tail and phibar, read in ambient coordinates, is
# the next level.


def _corner_context(ring: RingPresentation, e: Element):
    if not is_semicentral(ring, e):
        raise NotSemicentral("idempotent is not semicentral")
    comp = ring.one_element() - e
    return corner_ring(ring, e), corner_ring(ring, comp), peirce_component(ring, e, comp)


def _quadruple_level(ctx_a, ctx_b, q: CornerQuadruple):
    """Check q against the corner contexts of e and f; return its level map."""
    corner_r, corner_abar, row_l = ctx_a
    corner_s, corner_bbar, row_m = ctx_b
    _check_ends(
        q.phibar, corner_abar.presentation, corner_bbar.presentation, "complement isomorphism"
    )
    phibar_amb = _in_ambient(corner_abar, corner_bbar, q.phibar)
    return _checked_level(
        q, corner_r, corner_s, row_l, row_m, corner_abar.idem, corner_abar.subgroup, phibar_amb
    )


def check_corner_quadruple(e: Element, f: Element, q: CornerQuadruple) -> None:
    """Raise InconsistentQuadruple unless q satisfies every compatibility
    condition for the semicentral idempotents e (domain side) and f."""
    _quadruple_level(_corner_context(e.ring, e), _corner_context(f.ring, f), q)


def corner_synthesize(e: Element, f: Element, q: CornerQuadruple) -> RingIsomorphism:
    """Build the isomorphism determined by corner data at one level, adopted
    once the data is checked."""
    return RingIsomorphism(
        _quadruple_level(_corner_context(e.ring, e), _corner_context(f.ring, f), q)
    )


def corner_decompose(phi: RingIsomorphism, e: Element, f: Element) -> CornerQuadruple:
    """Extract the corner data of phi at semicentral idempotents e, f.

    Requires phi(e) to lie in the row coset f + f*B*(1-f); raises
    LocationMismatch otherwise.
    """
    ring_a = phi.domain
    ring_b = phi.codomain
    if e.ring != ring_a or f.ring != ring_b:
        raise AmbientMismatch("idempotents do not match the map's endpoints")
    ctx_a = _corner_context(ring_a, e)
    ctx_b = _corner_context(ring_b, f)
    corner_r, corner_abar, row_l = ctx_a
    corner_s, corner_bbar, row_m = ctx_b
    offset = phi.apply(e) - f
    if not row_m.contains(offset):
        raise LocationMismatch("phi(e) is not in the row coset of f")
    rho = _restrict_corner(phi, corner_r, corner_s)
    phibar = _restrict_corner(phi, corner_abar, corner_bbar)
    q = CornerQuadruple(rho, phibar, _restrict_row(phi, row_l, row_m), offset)
    # phi is verified, so a resynthesis equal to it needs no check of its own
    if _quadruple_level(ctx_a, ctx_b, q) != phi:
        raise StructureViolation("corner data does not resynthesize the map")
    return q


# -- full decompositions ---------------------------------------------------


@dataclass(frozen=True)
class IsoLayer:
    """One level of an IsoDecomposition: corner isomorphism, row map, offset."""

    rho: RingIsomorphism
    chi: AdditiveMap
    m: Element


@dataclass(frozen=True)
class IsoDecomposition:
    """Block permutation, per-level layers, and the closing corner isomorphism.

    sigma is 0-based: layer i connects block i of the domain sequence to block
    sigma[i] of the codomain sequence.  last_rho is None only for the empty
    decomposition of one-element rings.
    """

    sigma: tuple[int, ...]
    layers: tuple[IsoLayer, ...]
    last_rho: RingIsomorphism | None


def iso_synthesize(
    seq_a: TriangularSequence,
    seq_b: TriangularSequence,
    d: IsoDecomposition,
) -> RingIsomorphism:
    """Assemble the isomorphism parametrized by d over the two sequences.
    seq_b was validated when built, so sigma is checked only for vanishing
    lower components, the one condition that depends on the block order.
    Checked layers over an admissible sigma parametrize an isomorphism, so
    the map is adopted, not verified."""
    ring_a = seq_a.ring
    ring_b = seq_b.ring
    m = seq_a.m
    if seq_b.m != m:
        raise ShapeMismatch("sequences have different lengths")
    if sorted(d.sigma) != list(range(m)):
        raise InadmissiblePermutation(d.sigma)
    if len(d.layers) != max(m - 1, 0):
        raise ShapeMismatch("expected %d layers, got %d" % (max(m - 1, 0), len(d.layers)))
    if m == 0:
        if d.last_rho is not None:
            raise ShapeMismatch("empty decomposition cannot carry a closing isomorphism")
        return RingIsomorphism(AdditiveMap(ring_a, ring_b, []))
    if not seq_b.admits(d.sigma):
        raise InadmissiblePermutation(d.sigma)
    corner_r, corner_s = seq_a.corners[m - 1], seq_b.corners[d.sigma[m - 1]]
    _check_ends(
        d.last_rho, corner_r.presentation, corner_s.presentation,
        "closing corner isomorphism", m - 1,
    )
    phi = _in_ambient(corner_r, corner_s, d.last_rho)
    for i in range(m - 2, -1, -1):
        j = d.sigma[i]
        phi = _checked_level(
            d.layers[i], seq_a.corners[i], seq_b.corners[j], seq_a.rows[i], seq_b.rows[j],
            seq_a.tail_idempotent(i + 1), seq_a.tails[i + 1], phi, i,
        )
    return RingIsomorphism(phi)


def iso_decompose(
    phi: RingIsomorphism,
    seq_a: TriangularSequence,
    seq_b: TriangularSequence,
) -> IsoDecomposition:
    """Factor phi into sigma, per-level corner data, and a closing corner
    isomorphism.  The result resynthesizes to phi exactly; that is asserted,
    and it is the only check (see the module docstring)."""
    ring_a = seq_a.ring
    ring_b = seq_b.ring
    if phi.domain != ring_a or phi.codomain != ring_b:
        raise ShapeMismatch("map endpoints do not match the sequences")
    m = seq_a.m
    active = list(range(m))
    psi = phi
    sigma: list[int] = []
    layers: list[IsoLayer] = []
    last_rho = None
    for i in range(m):
        k, rest = _locate_over(seq_b, active, psi.apply(seq_a.idems[i]))
        sigma.append(k)
        rho = _restrict_corner(psi, seq_a.corners[i], seq_b.corners[k])
        if i == m - 1:
            last_rho = rho
            break
        layers.append(IsoLayer(rho, _restrict_row(psi, seq_a.rows[i], seq_b.rows[k]), rest))
        active.remove(k)
        shrink = ring_b.sum(seq_b.idems[r] for r in active)
        psi = AdditiveMap(ring_a, ring_b, [shrink * y * shrink for y in phi._image_elems])
    d = IsoDecomposition(tuple(sigma), tuple(layers), last_rho)
    if iso_synthesize(seq_a, seq_b, d) != phi:
        raise StructureViolation("decomposition does not resynthesize the isomorphism")
    return d


# -- structured enumeration ------------------------------------------------


def _residual(orders, terms, rhs, images) -> tuple[int, ...]:
    """rhs(images) - sum c*images[l] over the (l, c) in terms, reduced."""
    acc = rhs(images)
    for l, c in terms:
        acc = map(operator.sub, acc, map(c.__mul__, images[l]))
    return tuple(map(operator.mod, acc, orders))


def _pool(ring: RingPresentation, ys, unary, solvable, images, d: int):
    """The candidates ys for image d that pass the unary equations, grouped
    by their keys c*y under the solvable equations, in the order of ys.  Each
    y is tried in images[d]."""
    orders = ring.orders
    groups: dict = {}
    for y in ys:
        images[d] = y
        if all(not any(_residual(orders, terms, rhs, images)) for terms, rhs in unary):
            key = tuple(ring._scale_coeffs(c, y) for c, _terms, _rhs in solvable)
            groups.setdefault(key, []).append(y)
    return groups


def _backtrack(ring: RingPresentation, candidates, equations, what: str):
    """The tuples of the product of candidates that satisfy every equation,
    in lexicographic order.  Images are coefficient tuples of ring.

    An equation (coeffs, reads, rhs) asks sum_l coeffs[l]*images[l] ==
    rhs(images), where rhs reads the images listed in reads and returns a
    coefficient tuple.  It is decided at the depth d of the last image it
    reads, as one of three kinds:

    - unary, reading image d alone: it filters candidates[d] once, on the
      first visit to depth d;
    - solvable, with rhs reading only earlier images and coeffs[d] = c != 0:
      it asks c*y == rhs(images) - (the earlier terms) of the image y at d.
      The filtered candidates are grouped once by their keys c*y, and each
      prefix takes the group of its right-hand sides with one lookup;
    - any other equation is tested on each candidate a prefix tries.

    A prefix that fails is dropped with all its extensions.  The search
    charges its work against CORNER_SEARCH_CAP: |candidates[d]| once, when
    the candidates at depth d are filtered and grouped, and then the size of
    the group each node at depth d takes; past the cap, CapExceeded names
    what."""
    n = len(candidates)
    if n == 0:  # the one (empty) tuple, untested
        return [()]
    orders = ring.orders
    unary = [[] for _ in range(n)]
    solvable = [[] for _ in range(n)]
    other = [[] for _ in range(n)]
    for coeffs, reads, rhs in equations:
        terms = [(l, c) for l, c in enumerate(coeffs) if c]
        d = max([l for l, _c in terms] + reads, default=0)
        earlier = [(l, c) for l, c in terms if l < d]
        if not earlier and all(r == d for r in reads):
            unary[d].append((terms, rhs))
        elif coeffs[d] and all(r < d for r in reads):
            solvable[d].append((coeffs[d], earlier, rhs))
        else:
            other[d].append((terms, rhs))
    cap = CORNER_SEARCH_CAP
    tried = 0
    images: list = [None] * n
    pools: list = [None] * n
    choices: list = [None] * n
    out = []
    d = 0
    while d >= 0:
        if choices[d] is None:
            if pools[d] is None:
                pools[d] = _pool(ring, candidates[d], unary[d], solvable[d], images, d)
                tried += len(candidates[d])
            key = tuple(_residual(orders, terms, rhs, images) for _c, terms, rhs in solvable[d])
            group = pools[d].get(key, ())
            tried += len(group)
            if tried > cap:
                raise CapExceeded(cap + 1, cap, what)
            choices[d] = iter(group)
        for y in choices[d]:
            images[d] = y
            if all(not any(_residual(orders, terms, rhs, images)) for terms, rhs in other[d]):
                if d + 1 < n:
                    d += 1
                    break
                out.append(tuple(images))
        else:
            choices[d] = None
            d -= 1
    return out


def _search(dom, cod, equations, what: str) -> list[AdditiveMap]:
    """The additive maps dom -> cod between two sides whose generator images
    satisfy every _backtrack equation, in lexicographic image order.  The
    candidates for a generator of order o are the elements of cod that o
    annihilates, in element order."""
    ring = cod.ring
    elems = list(cod.elements())
    orders = dom.generator_orders
    by_order = {o: [y.coeffs for y in elems if (o * y).is_zero()] for o in set(orders)}
    candidates = [by_order[o] for o in orders]
    return [
        AdditiveMap(dom, cod, [Element(ring, y) for y in images])
        for images in _backtrack(ring, candidates, equations, what)
    ]


def _enumerate_corner_isos(
    dom: RingPresentation, cod: RingPresentation
) -> list[RingIsomorphism]:
    """All ring isomorphisms dom -> cod, in lexicographic image order.  The
    search assigns generator images with order pruning and drops a partial
    assignment once f(1) = 1 or some f(g_i*g_j) = f(g_i)*f(g_j) fails; every
    survivor is verified in full."""
    mul = cod._mul_coeffs
    equations = [(dom.one, [], lambda images, one=cod.one: one)]
    for i in range(dom.rank):
        for j in range(dom.rank):
            equations.append(
                (dom.mul[i][j], [i, j], lambda images, i=i, j=j: mul(images[i], images[j]))
            )
    found = _search(dom, cod, equations, "corner isomorphism search")
    return [RingIsomorphism(f) for f in found if verify_ring_iso(f, dom, cod)]


def _enumerate_row_maps(row_l: Subgroup, row_m: Subgroup, left_pairs, right_pairs):
    """Bijective additive maps row_l -> row_m compatible with both actions,
    in lexicographic image order.  The search drops a partial assignment once
    some chi(r*l_j) = rho(r)*chi(l_j) or chi(l_j*a) = chi(l_j)*phi(a) fails on
    the generators l_j of row_l, so every survivor twists both actions and
    only its bijectivity is left to check."""
    left, right = _row_equations(row_l, row_m, left_pairs, right_pairs)
    found = _search(row_l, row_m, left + right, "row map search")
    return [chi for chi in found if chi.is_bijective()]


def _canonical_sequences(ring_a: RingPresentation, ring_b: RingPresentation, cap: int | None):
    """The canonical sequences of both rings; a ring paired with itself
    (automorphisms) is triangulated once."""
    seq_a = complete_triangulating_set(ring_a, cap)
    seq_b = seq_a if ring_b is ring_a else complete_triangulating_set(ring_b, cap)
    return seq_a, seq_b


def _zero_offset(row_m: Subgroup) -> tuple[Element, ...]:
    return (row_m.ring.zero(),)


def _matrix_unit_isos(
    corner_r: CornerRing, corner_s: CornerRing, type_r: BlockType, type_s: BlockType,
    cap: int | None,
) -> list[RingIsomorphism]:
    """All ring isomorphisms between two blocks of type M_n(D) and M_n(D'),
    built from matrix units and sorted by image tuple.

    With E the matrix units of the domain block, an element a is the matrix
    of the entries E_1i*a*E_j1 of D.  Each isomorphism is
    a -> sum F_i1*alpha(E_1i*a*E_j1)*F_1j for one system F of matrix units
    of the target block and one alpha in Iso(D, D') (the corner search on
    D).  The systems are the conjugates u^-1*E'*u of the target's own
    system E' over the units u of the target block, each reached from
    |D'^x| units, so conjugating the maps built on E' by one unit per
    system gives every isomorphism once.  The units are found by listing
    the target block, which cap bounds."""
    alphas = _enumerate_corner_isos(type_r.local.presentation, type_s.local.presentation)
    if not alphas:
        return []
    pres_r, pres_s = corner_r.presentation, corner_s.presentation
    n = len(type_r.prims)
    row_r, col_r, row_s, col_s = type_r.row, type_r.col, type_s.row, type_s.col
    # entries[g][i][j] = E_1i*a*E_j1 for the generator a = g of the domain block
    entries = [
        [[row_r[i] * a * col_r[j] for j in range(n)] for i in range(n)]
        for a in corner_r.embed_map._image_elems
    ]
    ring_b = corner_s.parent
    bases = []  # the images of the generators under the maps built on E'
    for alpha in alphas:
        alpha_amb = _in_ambient(type_r.local, type_s.local, alpha)
        bases.append([
            corner_s.project(ring_b.sum(
                col_s[i] * alpha_amb.apply(d[i][j]) * row_s[j]
                for i in range(n) for j in range(n)
            ))
            for d in entries
        ])
    system = [corner_s.project(x) for x in row_s[1:] + col_s[1:]]
    require_cap(pres_s.order, cap, "matrix unit systems")
    one = pres_s.one_element()
    conjugations = {}
    for u in pres_s.elements():
        v = _power_walk(u, one)[1]
        if v is not None:
            conjugations.setdefault(tuple((v * x * u).coeffs for x in system), (v, u))
    isos = [
        RingIsomorphism(AdditiveMap(pres_r, pres_s, [v * b * u for b in base]))
        for v, u in conjugations.values()
        for base in bases
    ]
    isos.sort(key=lambda f: f.images)
    return isos


def _corner_isos(
    table: dict, seq_a: TriangularSequence, seq_b: TriangularSequence, i, j, cap: int | None
):
    """(rho, rho_amb, left_pairs) over the corner isomorphisms rho from block
    i of seq_a to block j of seq_b, read in ambient coordinates and with
    their left action pairs; found on first use and kept in table, which
    lives for one query.  Blocks of type M_n(D), n >= 2, are built from
    matrix units (_matrix_unit_isos); the others are searched.  Either way
    the list is in lexicographic image order."""
    entry = table.get((i, j))
    if entry is None:
        corner_r = seq_a.corners[i]
        corner_s = seq_b.corners[j]
        type_r, type_s = seq_a.types[i], seq_b.types[j]
        if type_r.local is None:
            isos = _enumerate_corner_isos(corner_r.presentation, corner_s.presentation)
        else:
            isos = _matrix_unit_isos(corner_r, corner_s, type_r, type_s, cap)
        entry = table[i, j] = []
        for rho in isos:
            rho_amb = _in_ambient(corner_r, corner_s, rho)
            entry.append((rho, rho_amb, _action_pairs(corner_r.subgroup, rho_amb)))
    return entry


def _corner_count(seq_a: TriangularSequence, seq_b: TriangularSequence) -> int:
    """The number of isomorphisms between the one-block rings of seq_a and
    seq_b, blocks of equal type.  For M_n(D) -> M_n(D'), n >= 2, it is
    |GL_n(D')| / |D'^x| * |Iso(D, D')|: the systems of matrix units of the
    target are one orbit under its units, with stabilizer the scalars D'^x.
    |GL_n(D')| = |J|^(n^2) * |GL_n(F_q)| for J = J(D') and D'/J = F_q (that
    is |D'|^(n^2) * prod_{i=1..n} (1 - q^-i)), and |D'^x| = |J| * (q - 1).
    The other blocks are counted by the corner search, which verifies each
    map it finds."""
    (type_r,), (type_s,) = seq_a.types, seq_b.types
    if type_r.local is None:
        return len(_enumerate_corner_isos(seq_a.ring, seq_b.ring))
    n, q = len(type_s.prims), type_s.q
    radical = type_s.local.order // q
    gl_residue = prod(q ** n - q ** k for k in range(n))
    alphas = _enumerate_corner_isos(type_r.local.presentation, type_s.local.presentation)
    return radical ** (n * n - 1) * gl_residue // (q - 1) * len(alphas)


def _levels(
    seq_a: TriangularSequence, seq_b: TriangularSequence, sigma, offsets, table, i,
    cap: int | None,
):
    """Yield (layers, last_rho, phi) for the levels i, ..., m-1 of the block
    order sigma in canonical order, deeper levels varying slowest; phi is the
    level map at i.  A level with target row row_m tries the offsets in
    offsets(row_m).  table holds the corner isomorphisms (_corner_isos) and,
    under i, the row parts of level i, which no block order changes."""
    m = seq_a.m
    j = sigma[i]
    if i == m - 1:
        for rho, rho_amb, _left_pairs in _corner_isos(table, seq_a, seq_b, i, j, cap):
            yield (), rho, rho_amb
        return
    row_l = seq_a.rows[i]
    row_m = seq_b.rows[j]
    parts = table.get(i)
    if parts is None:
        parts = table[i] = _row_parts(seq_a.idems[i], seq_a.tail_idempotent(i + 1))
    level_offsets = offsets(row_m)
    for sub_layers, last_rho, phi_next in _levels(
        seq_a, seq_b, sigma, offsets, table, i + 1, cap
    ):
        right_pairs = _action_pairs(seq_a.tails[i + 1], phi_next)
        for rho, rho_amb, left_pairs in _corner_isos(table, seq_a, seq_b, i, j, cap):
            for chi in _enumerate_row_maps(row_l, row_m, left_pairs, right_pairs):
                for offset in level_offsets:
                    phi = _level_map(parts, rho_amb, chi, offset, phi_next)
                    yield (IsoLayer(rho, chi, offset),) + sub_layers, last_rho, phi


def _matched(seq_a: TriangularSequence, seq_b: TriangularSequence, sigma) -> bool:
    """Whether sigma pairs each block of seq_a with a block of seq_b of the
    same corner order, row order and type (BlockType.key), as every
    isomorphism over sigma must."""
    return all(
        seq_a.corners[i].order == seq_b.corners[j].order
        and seq_a.rows[i].order == seq_b.rows[j].order
        and seq_a.types[i].key == seq_b.types[j].key
        for i, j in enumerate(sigma)
    )


def _parametrizations(
    seq_a: TriangularSequence, seq_b: TriangularSequence, offsets, cap: int | None
):
    """Yield (sigma, layers, last_rho, phi) in canonical order, phi being the
    level map of the parametrization; a level with target row row_m tries
    the offsets in offsets(row_m).  cap bounds the target units that a
    matrix-unit construction lists."""
    m = seq_a.m
    if seq_b.m != m:
        return
    if m == 0:  # the one-element rings: one empty parametrization
        yield (), (), None, AdditiveMap(seq_a.ring, seq_b.ring, [])
        return
    table: dict = {}
    for sigma in admissible_orders(seq_b):
        if not _matched(seq_a, seq_b, sigma):
            continue
        for layers, last_rho, phi in _levels(seq_a, seq_b, sigma, offsets, table, 0, cap):
            yield sigma, layers, last_rho, phi


def enumerate_isomorphisms(
    ring_a: RingPresentation, ring_b: RingPresentation, cap: int | None = None
):
    """Yield (IsoDecomposition, RingIsomorphism) pairs in canonical order.

    Every valid parametrization over the canonical sequences appears exactly
    once, and by the structure theorem that is every isomorphism a -> b.
    """
    if ring_a.order != ring_b.order:
        return
    yield from _enumerate(*_canonical_sequences(ring_a, ring_b, cap), cap)


def _enumerate(seq_a: TriangularSequence, seq_b: TriangularSequence, cap: int | None):
    """enumerate_isomorphisms over the canonical sequences of two rings of
    equal order, for a caller that has built them already."""
    for sigma, layers, last_rho, phi in _parametrizations(seq_a, seq_b, Subgroup.elements, cap):
        yield IsoDecomposition(sigma, layers, last_rho), RingIsomorphism(phi)


def iso_count(ring_a: RingPresentation, ring_b: RingPresentation, cap: int | None = None) -> int:
    """|Iso(ring_a, ring_b)|, the number of maps enumerate_isomorphisms yields.

    A level with offset m is its offset-0 map followed by conjugation by the
    unit 1 - m, so the choices at a level do not depend on the offsets
    chosen below it.  Hence the count is, summed over sigma, the number of
    offset-free parametrizations times the orders of the target rows of
    the levels above the last.  A ring of one block is its own corner, with
    identity embed and project maps, so its isomorphisms are its corner
    isomorphisms, counted by _corner_count.
    """
    if ring_a.order != ring_b.order:
        return 0
    seq_a, seq_b = _canonical_sequences(ring_a, ring_b, cap)
    if seq_a.m == seq_b.m == 1:
        return _corner_count(seq_a, seq_b) if _matched(seq_a, seq_b, (0,)) else 0
    total = 0
    for sigma, _layers, _last_rho, _phi in _parametrizations(seq_a, seq_b, _zero_offset, cap):
        total += prod(seq_b.rows[j].order for j in sigma[:-1])
    return total


def iso_search(
    ring_a: RingPresentation, ring_b: RingPresentation, cap: int | None = None
) -> RingIsomorphism | None:
    """First isomorphism in canonical enumeration order, or None."""
    for _d, iso in enumerate_isomorphisms(ring_a, ring_b, cap):
        return iso
    return None
