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
canonical order.

Corner isomorphisms and row maps are found by one backtracking search over
generator images.  It assigns the images in generator order, trying the
candidates of each in element order, so complete tuples come out in the
lexicographic order of the full product.  Each defining equation (the unit
and the generator products for a corner, the two twisted actions for a row)
is tested as soon as every image it reads is assigned, and a failing partial
assignment is dropped with all its extensions.  Survivors still get the full
check (verify_ring_iso, _level_failure).
"""
from __future__ import annotations

from dataclasses import dataclass

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
    ToolkitError,
)
from .idempotents import is_semicentral
from .maps import AdditiveMap, RingIsomorphism, verify_ring_iso
from .presentation import Element, RingPresentation
from .sequences import TriangularSequence
from .structure import admissible_orders
from .subgroups import Subgroup
from .triangulate import _locate_over, complete_triangulating_set

# Candidate images tried by one corner or row search (every placement of a
# candidate at some generator counts, pruned or not).
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

    def amb(x: Element) -> Element:
        return corner_s.embed(rho.apply(corner_r.project(x)))

    return amb


def _action_pairs(sub: Subgroup, phi) -> list[tuple[Element, Element]]:
    """(x, phi(x)) over the ambient additive generators x of the subgroup."""
    return [(x, phi(x)) for x in sub.generators]


def _check_ends(f, dom, cod, what: str, level: int | None = None) -> None:
    if f is None or f.domain != dom or f.codomain != cod:
        raise InconsistentQuadruple("%s has wrong endpoints" % what, level)


def _level_failure(chi: AdditiveMap, offset, left_pairs, right_pairs) -> str | None:
    """First reason the row map chi fails at one level, else None: chi must
    be bijective and twist both actions, chi(r*l) = rho(r)*chi(l) over the
    pairs (r, rho(r)) and chi(l*a) = chi(l)*phi(a) over the pairs (a, phi(a)).
    An offset other than None must also lie in the target row."""
    row_m = chi.codomain
    if offset is not None and (offset.ring != row_m.ring or not row_m.contains(offset)):
        return "offset lies outside the target row"
    if not chi.is_bijective():
        return "row map is not bijective"
    images = list(zip(chi.domain.generators, chi._image_elems))
    if any(chi.apply(r * l) != rho_r * img for r, rho_r in left_pairs for l, img in images):
        return "left action compatibility fails"
    if any(chi.apply(l * a) != img * phi_a for a, phi_a in right_pairs for l, img in images):
        return "right action compatibility fails"
    return None


def _level_map(e: Element, tail: Element, rho_amb, chi: AdditiveMap, m: Element, phi_next):
    """phi(r + l + a) = rho(r) + rho(r)*m + chi(l) - m*phi_next(a) + phi_next(a)
    for the Peirce parts r = e*x*e, l = e*x*t, a = t*x*t at the head e and
    the tail t."""

    def level(x: Element) -> Element:
        rho_r = rho_amb(e * x * e)
        phi_a = phi_next(tail * x * tail)
        return rho_r + rho_r * m + chi.apply(e * x * tail) - m * phi_a + phi_a

    return level


def _checked_level(
    layer,
    corner_r: CornerRing,
    corner_s: CornerRing,
    row_l: Subgroup,
    row_m: Subgroup,
    tail: Element,
    tail_sub: Subgroup,
    phi_next,
    level: int | None = None,
):
    """Check one level of corner data and return its level map.  layer has
    rho (corner_r -> corner_s), chi (row_l -> row_m) and the offset m; the
    tail t and its subgroup t*A*t carry phi_next, the map of the next level."""
    _check_ends(
        layer.rho, corner_r.presentation, corner_s.presentation, "corner isomorphism", level
    )
    _check_ends(layer.chi, row_l, row_m, "row map", level)
    rho_amb = _in_ambient(corner_r, corner_s, layer.rho)
    reason = _level_failure(
        layer.chi,
        layer.m,
        _action_pairs(corner_r.subgroup, rho_amb),
        _action_pairs(tail_sub, phi_next),
    )
    if reason is not None:
        raise InconsistentQuadruple(reason, level)
    return _level_map(corner_r.idem, tail, rho_amb, layer.chi, layer.m, phi_next)


def _assemble(ring_a: RingPresentation, ring_b: RingPresentation, phi) -> RingIsomorphism:
    """The map with generator images phi(g); checked data always yields an
    isomorphism, so a failure here is reported as a StructureViolation."""
    images = AdditiveMap(ring_a, ring_b, [phi(g) for g in ring_a.gens()])
    try:
        return RingIsomorphism.create(images)
    except ToolkitError as exc:
        raise StructureViolation("checked data synthesized a non-isomorphism: %s" % exc)


def _restrict_corner(psi, corner_r: CornerRing, corner_s: CornerRing) -> RingIsomorphism:
    """The corner isomorphism x -> f*psi(x)*f from the corner at e to that at f."""
    dom = corner_r.presentation
    cod = corner_s.presentation
    return RingIsomorphism.create(
        AdditiveMap(dom, cod, [corner_s.project(psi(corner_r.embed(g))) for g in dom.gens()])
    )


def _restrict_row(psi, row_l: Subgroup, row_m: Subgroup) -> AdditiveMap:
    try:
        return AdditiveMap(row_l, row_m, [psi(l) for l in row_l.generators])
    except ShapeMismatch as exc:
        raise StructureViolation("restriction of phi leaves the target row: %s" % exc)


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
    """Build the isomorphism determined by corner data at one level."""
    level = _quadruple_level(_corner_context(e.ring, e), _corner_context(f.ring, f), q)
    return _assemble(e.ring, f.ring, level)


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
    rho = _restrict_corner(phi.apply, corner_r, corner_s)
    phibar = _restrict_corner(phi.apply, corner_abar, corner_bbar)
    q = CornerQuadruple(rho, phibar, _restrict_row(phi.apply, row_l, row_m), offset)
    if _assemble(ring_a, ring_b, _quadruple_level(ctx_a, ctx_b, q)).map != phi.map:
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


def _base_level(seq_a: TriangularSequence, seq_b: TriangularSequence, j: int, rho: RingIsomorphism):
    corner_r = seq_a.corners[seq_a.m - 1]
    corner_s = seq_b.corners[j]
    _check_ends(
        rho, corner_r.presentation, corner_s.presentation, "closing corner isomorphism", seq_a.m - 1
    )
    return _in_ambient(corner_r, corner_s, rho)


def iso_synthesize(
    seq_a: TriangularSequence,
    seq_b: TriangularSequence,
    d: IsoDecomposition,
) -> RingIsomorphism:
    """Assemble the isomorphism parametrized by d over the two sequences.
    seq_b was validated when built, so sigma is checked only for vanishing
    lower components, the one condition that depends on the block order."""
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
        return RingIsomorphism.create(AdditiveMap(ring_a, ring_b, []))
    if not seq_b.admits(d.sigma):
        raise InadmissiblePermutation(d.sigma)
    phi = _base_level(seq_a, seq_b, d.sigma[m - 1], d.last_rho)
    for i in range(m - 2, -1, -1):
        j = d.sigma[i]
        phi = _checked_level(
            d.layers[i], seq_a.corners[i], seq_b.corners[j], seq_a.rows[i], seq_b.rows[j],
            seq_a.tail_idempotent(i + 1), seq_a.tails[i + 1], phi, i,
        )
    return _assemble(ring_a, ring_b, phi)


def iso_decompose(
    phi: RingIsomorphism,
    seq_a: TriangularSequence,
    seq_b: TriangularSequence,
) -> IsoDecomposition:
    """Factor phi into sigma, per-level corner data, and a closing corner
    isomorphism.  The result resynthesizes to phi exactly; that is asserted."""
    ring_a = seq_a.ring
    ring_b = seq_b.ring
    if phi.domain != ring_a or phi.codomain != ring_b:
        raise ShapeMismatch("map endpoints do not match the sequences")
    m = seq_a.m
    if seq_b.m != m:
        raise StructureViolation("isomorphic rings have sequences of equal length")
    if m == 0:
        return IsoDecomposition((), (), None)
    active = list(range(m))
    psi = phi.apply
    sigma: list[int] = []
    layers: list[IsoLayer] = []
    last_rho = None
    for i in range(m):
        k, rest = _locate_over(seq_b, active, psi(seq_a.idems[i]))
        sigma.append(k)
        rho = _restrict_corner(psi, seq_a.corners[i], seq_b.corners[k])
        if i == m - 1:
            if not rest.is_zero():
                raise StructureViolation("closing block leaves a nonzero row part")
            last_rho = rho
            break
        layers.append(IsoLayer(rho, _restrict_row(psi, seq_a.rows[i], seq_b.rows[k]), rest))
        active.remove(k)
        shrink = ring_b.sum(seq_b.idems[r] for r in active)
        psi = _restrict(psi, shrink)
    d = IsoDecomposition(tuple(sigma), tuple(layers), last_rho)
    if iso_synthesize(seq_a, seq_b, d).map != phi.map:
        raise StructureViolation("decomposition does not resynthesize the isomorphism")
    return d


def _restrict(psi, shrink: Element):
    def inner(x: Element) -> Element:
        return shrink * psi(x) * shrink

    return inner


# -- structured enumeration ------------------------------------------------


def _backtrack(ring: RingPresentation, candidates, equations, what: str):
    """The tuples of the product of candidates that satisfy every equation,
    in lexicographic order.

    An equation (coeffs, reads, rhs) asks sum_l coeffs[l]*images[l] ==
    rhs(images), where rhs reads the images listed in reads.  It is tested as
    soon as every image it reads is assigned, and a partial tuple that fails
    it is dropped with all its extensions.  Each candidate image tried counts
    against CORNER_SEARCH_CAP; past it, CapExceeded names what."""
    n = len(candidates)
    # with no generators the one (empty) tuple is returned untested
    tests = [[] for _ in range(max(n, 1))]
    for coeffs, reads, rhs in equations:
        terms = [(l, c) for l, c in enumerate(coeffs) if c]
        tests[max([l for l, _c in terms] + reads, default=0)].append((terms, rhs))
    cap = CORNER_SEARCH_CAP
    images: list = [None] * n
    out = []
    tried = 0

    def holds(terms, rhs) -> bool:
        lhs = ring.zero()
        for l, c in terms:
            lhs = lhs + c * images[l]
        return lhs == rhs(images)

    def extend(d: int) -> None:
        nonlocal tried
        if d == n:
            out.append(list(images))
            return
        for y in candidates[d]:
            tried += 1
            if tried > cap:
                raise CapExceeded(tried, cap, what)
            images[d] = y
            if all(holds(terms, rhs) for terms, rhs in tests[d]):
                extend(d + 1)

    extend(0)
    return out


def _order_candidates(orders, elems) -> list[list[Element]]:
    """Per generator order o, the elements that o annihilates, in elems order."""
    return [[y for y in elems if (o * y).is_zero()] for o in orders]


def _enumerate_corner_isos(
    dom: RingPresentation, cod: RingPresentation
) -> list[RingIsomorphism]:
    """All ring isomorphisms dom -> cod, in lexicographic image order.  The
    search assigns generator images with order pruning and drops a partial
    assignment once f(1) = 1 or some f(g_i*g_j) = f(g_i)*f(g_j) fails; every
    survivor is verified in full."""
    if dom.order != cod.order:
        return []
    one = cod.one_element()
    equations = [(dom.one, [], lambda images: one)]
    for i in range(dom.rank):
        for j in range(dom.rank):
            equations.append(
                (dom.mul[i][j], [i, j], lambda images, i=i, j=j: images[i] * images[j])
            )
    candidates = _order_candidates(dom.orders, list(cod.elements()))
    out = []
    for images in _backtrack(cod, candidates, equations, "corner isomorphism search"):
        f = AdditiveMap(dom, cod, images)
        if verify_ring_iso(f, dom, cod):
            out.append(RingIsomorphism(f))
    return out


def _enumerate_row_maps(row_l: Subgroup, row_m: Subgroup, left_pairs, right_pairs):
    """Bijective additive maps row_l -> row_m compatible with both actions,
    in lexicographic image order.  The search drops a partial assignment once
    some chi(r*l_j) = rho(r)*chi(l_j) or chi(l_j*a) = chi(l_j)*phi(a) fails on
    the generators l_j of row_l; every survivor is checked in full."""
    equations = []
    for j, l in enumerate(row_l.generators):
        for r, rho_r in left_pairs:
            equations.append(
                (row_l.coords(r * l), [j], lambda images, j=j, x=rho_r: x * images[j])
            )
        for a, phi_a in right_pairs:
            equations.append(
                (row_l.coords(l * a), [j], lambda images, j=j, x=phi_a: images[j] * x)
            )
    candidates = _order_candidates(row_l.generator_orders, row_m.elements())
    chis = (
        AdditiveMap(row_l, row_m, images)
        for images in _backtrack(row_m.ring, candidates, equations, "row map search")
    )
    return [chi for chi in chis if _level_failure(chi, None, left_pairs, right_pairs) is None]


def enumerate_isomorphisms(
    ring_a: RingPresentation, ring_b: RingPresentation, cap: int | None = None
):
    """Yield (IsoDecomposition, RingIsomorphism) pairs in canonical order.

    Every valid parametrization over the canonical sequences appears exactly
    once, and by the structure theorem that is every isomorphism a -> b.
    """
    if ring_a.order != ring_b.order:
        return
    if ring_a.order == 1:
        yield IsoDecomposition((), (), None), RingIsomorphism.create(
            AdditiveMap(ring_a, ring_b, [])
        )
        return
    seq_a = complete_triangulating_set(ring_a, cap)
    seq_b = complete_triangulating_set(ring_b, cap)
    m = seq_a.m
    if seq_b.m != m:
        return
    corner_cache: dict[tuple[int, int], list[RingIsomorphism]] = {}

    def corner_isos(i: int, j: int) -> list[RingIsomorphism]:
        key = (i, j)
        if key not in corner_cache:
            corner_cache[key] = _enumerate_corner_isos(
                seq_a.corners[i].presentation, seq_b.corners[j].presentation
            )
        return corner_cache[key]

    for sigma in admissible_orders(ring_b, seq_b):
        if any(seq_a.corners[i].order != seq_b.corners[sigma[i]].order for i in range(m)):
            continue
        if any(seq_a.rows[i].order != seq_b.rows[sigma[i]].order for i in range(m)):
            continue

        def levels(i: int):
            if i == m - 1:
                for rho in corner_isos(m - 1, sigma[m - 1]):
                    yield (), rho, _base_level(seq_a, seq_b, sigma[m - 1], rho)
                return
            j = sigma[i]
            corner_r = seq_a.corners[i]
            corner_s = seq_b.corners[j]
            row_l = seq_a.rows[i]
            row_m = seq_b.rows[j]
            tail = seq_a.tail_idempotent(i + 1)
            offsets = row_m.elements()
            for sub_layers, last_rho, phi_next in levels(i + 1):
                right_pairs = _action_pairs(seq_a.tails[i + 1], phi_next)
                for rho in corner_isos(i, j):
                    rho_amb = _in_ambient(corner_r, corner_s, rho)
                    left_pairs = _action_pairs(corner_r.subgroup, rho_amb)
                    for chi in _enumerate_row_maps(row_l, row_m, left_pairs, right_pairs):
                        for offset in offsets:
                            phi_here = _level_map(
                                corner_r.idem, tail, rho_amb, chi, offset, phi_next
                            )
                            yield (IsoLayer(rho, chi, offset),) + sub_layers, last_rho, phi_here

        for layers, last_rho, phi in levels(0):
            yield IsoDecomposition(sigma, layers, last_rho), _assemble(ring_a, ring_b, phi)


def iso_search(
    ring_a: RingPresentation, ring_b: RingPresentation, cap: int | None = None
) -> RingIsomorphism | None:
    """First isomorphism in canonical enumeration order, or None."""
    for _d, iso in enumerate_isomorphisms(ring_a, ring_b, cap):
        return iso
    return None
