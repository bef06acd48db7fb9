"""Additive maps between additive sides: presented rings and their subgroups.

A side is a RingPresentation or a Subgroup.  Both carry `ring` (the ambient
presentation; a presentation is its own), `generators`, `generator_orders`,
`coords(x)` and `elements()`: the ring generators and their orders for a
presentation, the independent cyclic generators for a Subgroup.  A map is
stored by its images on its domain side's generators, in the codomain's
ambient coordinates.  Construction enforces well definedness (each
generator's order annihilates its image, and images land inside a subgroup
codomain), so every AdditiveMap instance is an honest homomorphism.

AdditiveMap(...) runs those checks, and is the constructor for maps from
outside input (map and decomposition files, library callers, the oracle)
and for the candidates of the engine's searches.  AdditiveMap._adopt builds
the same object, through the same _setup, with no check, for maps that are
well defined by construction: each image is made from its generator g by
additive steps (an additive map's value, a product with fixed elements, a
sum of such), so the order of g annihilates it.  Its callers are
compose_maps (g's images lie in g's codomain), identity_map, invert_map (the
images are members of f's domain), _is_unit's x -> u*x, inner_automorphism,
a corner's embed_map (the subgroup's own generators) and project_map (the
corner coordinates of e*g*e), and, in morphisms.py, the level maps, the
matrix-unit isomorphisms and the shrunk map of iso_decompose.

Evaluation works in coefficient space: apply() sums c * images[i] over the
argument's domain coordinates c in plain integers, reduces once modulo the
codomain orders and allocates a single Element.

Bijectivity is decided exactly, without element sweeps: the map is bijective
iff domain and codomain have equal order and the span of the images fills the
codomain.

ring_iso_failure decides whether a map between two presentations is a unital
ring isomorphism: it checks the unit, then multiplicativity on every pair of
generators, then the orders and the rank.  Multiplicativity makes no element
product.  For each generator g_i of the domain, f(g_i g_j) and
f(g_i) f(g_j) for every j are packed, unreduced, into one integer each
(presentation.SlotPacking, the format the associativity check uses), read
from the two structure-constant tables and the images, and compared; only
an unequal row is read slot by slot, to name the first failing pair.

A RingIsomorphism is an AdditiveMap between two presentations that is a
unital ring isomorphism.  RingIsomorphism.create checks a map, and is kept
for maps from outside input.  RingIsomorphism(f) adopts a map that is an
isomorphism by proof or by construction: corner-search survivors, which
verify_ring_iso proves; oracle-checked maps; a decomposition's corner
restrictions, which its resynthesis and comparison with the original map
prove; maps synthesized or enumerated from checked corner data, which the
paper's parametrization makes isomorphisms, as it does the matrix-unit
isomorphisms of a block of type M_n(D); and the composite and inverse of
isomorphisms, the identity and conjugation by a unit.  It shares _setup
with AdditiveMap, so adoption is written once.  Equal endpoints and images
make equal maps, whichever of the two classes they have.

The powers of an element are walked in one place, _power_walk, for the
idempotent among them and, for a unit, its inverse: unit_inverse and the
matrix units read the inverse, the idempotent splits (idempotents.py) the
idempotent power.
"""
from __future__ import annotations

import operator

from .errors import (
    AmbientMismatch,
    NotBijective,
    NotIsomorphism,
    ShapeMismatch,
    StructureViolation,
)
from .presentation import Element, RingPresentation, SlotPacking, require_cap
from .subgroups import Subgroup


class AdditiveMap:
    """A homomorphism of additive groups given by generator images."""

    __slots__ = ("domain", "codomain", "images", "_image_elems", "_span")

    def __init__(self, domain, codomain, images):
        amb = codomain.ring
        elems = tuple(images)
        for e in elems:
            if not isinstance(e, Element) or e.ring != amb:
                raise AmbientMismatch("image is not an element of the codomain's ring")
        orders = domain.generator_orders
        if len(elems) != len(orders):
            raise ShapeMismatch(
                "expected %d generator images, got %d" % (len(orders), len(elems))
            )
        subgroup = codomain is not amb
        for o, e in zip(orders, elems):
            if not (o * e).is_zero():
                raise ShapeMismatch(
                    "image of a generator of order %d is not annihilated by it" % o
                )
            if subgroup and not codomain.contains(e):
                raise ShapeMismatch("image falls outside the codomain subgroup")
        self._setup(domain, codomain, elems)

    @classmethod
    def _adopt(cls, domain, codomain, images) -> "AdditiveMap":
        """The map with these generator images, with no check: each image
        is an element of the codomain's ring that its generator's order
        annihilates and that lies in a subgroup codomain by construction
        (see the module docstring for the callers)."""
        f = cls.__new__(cls)
        f._setup(domain, codomain, tuple(images))
        return f

    def _setup(self, domain, codomain, elems: tuple):
        """The fields of a map from its image elements, checked or adopted."""
        self.domain = domain
        self.codomain = codomain
        self.images = tuple(e.coeffs for e in elems)
        self._image_elems = elems
        self._span = None

    # -- evaluation ------------------------------------------------------

    def apply(self, x: Element) -> Element:
        amb = self.codomain.ring
        acc = [0] * len(amb.orders)
        for c, row in zip(self.domain.coords(x), self.images):
            if c:
                acc = [s + c * v for s, v in zip(acc, row)]
        return Element(amb, tuple(map(operator.mod, acc, amb.orders)))

    def __call__(self, x: Element) -> Element:
        return self.apply(x)

    # -- exact rank bookkeeping ------------------------------------------

    def image_span(self) -> Subgroup:
        """The span of the images, made once per map: verify_ring_iso's rank
        test and ring_iso_failure's read the same one."""
        if self._span is None:
            self._span = Subgroup.span(self.codomain.ring, self._image_elems)
        return self._span

    def is_bijective(self) -> bool:
        n = self.domain.order
        if n != self.codomain.order:
            return False
        return self.image_span().order == n

    def __eq__(self, other):
        if not isinstance(other, AdditiveMap):
            return NotImplemented
        return (
            self.domain == other.domain
            and self.codomain == other.codomain
            and self.images == other.images
        )

    def __hash__(self):
        return hash((self.domain, self.codomain, self.images))

    def __repr__(self):
        return "AdditiveMap(%d gens -> %r)" % (len(self.images), self.codomain.ring)


def identity_map(ring: RingPresentation) -> AdditiveMap:
    return AdditiveMap._adopt(ring, ring, ring.gens())


def compose_maps(f: AdditiveMap, g: AdditiveMap) -> AdditiveMap:
    """The map x -> g(f(x)); f is applied first.  The endpoints need only
    share their ambient ring: g reads f's images in its own domain side."""
    if f.codomain.ring != g.domain.ring:
        raise ShapeMismatch("composition endpoints do not match")
    return AdditiveMap._adopt(f.domain, g.codomain, [g.apply(img) for img in f._image_elems])


def invert_map(f: AdditiveMap, cap: int | None = None) -> AdditiveMap:
    """Exact inverse of a bijective map, found by sweeping the domain."""
    n = f.domain.order
    if n != f.codomain.order:
        raise NotBijective("domain and codomain orders differ")
    require_cap(n, cap, "map inversion sweep")
    table = {}
    for x in f.domain.elements():
        y = f.apply(x)
        if y in table:
            raise NotBijective("map is not injective")
        table[y] = x
    # n distinct images in a codomain of n elements: every generator is one
    return AdditiveMap._adopt(f.codomain, f.domain, [table[g] for g in f.codomain.generators])


# -- ring isomorphisms ----------------------------------------------------


def ring_iso_failure(f: AdditiveMap, a: RingPresentation, b: RingPresentation) -> str | None:
    """First reason f fails to be a unital ring isomorphism a -> b, else None:
    the unit, multiplicativity on the generator pairs (i, j) in row-major
    order, the ring orders, then bijectivity."""
    if f.domain != a or f.codomain != b:
        raise ShapeMismatch("map endpoints do not match the given rings")
    if f.apply(a.one_element()) != b.one_element():
        return "unit is not preserved"
    pair = _multiplicativity_failure(f.images, a, b)
    if pair is not None:
        return "multiplicativity fails on generator pair (%d, %d)" % pair
    if a.order != b.order:
        return "ring orders differ"
    if f.image_span().order != b.order:
        return "map is not bijective"
    return None


def _multiplicativity_failure(images, a: RingPresentation, b: RingPresentation):
    """The first pair (i, j) with f(g_i g_j) != f(g_i) f(g_j), for the
    additive map f: a -> b with images[l] = f(g_l); None when there is none.

    One comparison per row i, in the packed format of presentation.SlotPacking:
    group j, slot n holds the unreduced coefficient of b's generator n.  The
    left side f(g_i g_j) = sum of c * F_l over a's terms (l, c) of g_i g_j,
    each slot at most k_a (t_a - 1)(t_b - 1).  The right side
    f(g_i) f(g_j) = sum of F_i[p] * (h_p F_j) over b's generators h_p; the
    integers s[p], h_p F_j in every group j, are made once from b's terms and
    the images' columns, and each slot is at most k_b^2 (t_b - 1)^3.  t is
    the largest generator order."""
    ka, kb = a.rank, b.rank
    ta, tb = max(a.orders, default=1), max(b.orders, default=1)
    packing = SlotPacking(b.orders, ka, max(ka * (ta - 1) * (tb - 1), kb * kb * (tb - 1) ** 3))
    group = packing.group
    packed = [packing.pack(enumerate(v)) for v in images]  # F_l in one group
    # cols[q]: coefficient q of each image F_j, in group j
    cols = [sum(v[q] << j * group for j, v in enumerate(images)) for q in range(kb)]
    s = [
        sum(packing.pack(terms) * cols[q] for q, terms in enumerate(row) if terms)
        for row in b._terms
    ]
    for i, row in enumerate(a._terms):
        left = 0
        for j, terms in enumerate(row):
            if terms:
                left += sum(c * packed[l] for l, c in terms) << j * group
        right = sum(c * s[p] for p, c in enumerate(images[i]) if c)
        j = packing.first_unequal_group(left, right)
        if j is not None:
            return i, j
    return None


def verify_ring_iso(f: AdditiveMap, a: RingPresentation, b: RingPresentation) -> bool:
    """Exact check that f is a bijective unital ring homomorphism a -> b.
    Only the verdict is needed, so the rank test, one span, runs first and
    rejects a map that is not bijective before ring_iso_failure checks the
    unit and multiplicativity."""
    if f.domain == a and f.codomain == b and not f.is_bijective():
        return False
    return ring_iso_failure(f, a, b) is None


class RingIsomorphism(AdditiveMap):
    """A ring isomorphism between two presentations.  create checks a map;
    RingIsomorphism(f) adopts the map f that its caller has proved one."""

    __slots__ = ()

    def __init__(self, f: AdditiveMap):
        # a kept isomorphism, e.g. in a group, holds no span
        self._setup(f.domain, f.codomain, f._image_elems)

    @classmethod
    def create(cls, f: AdditiveMap) -> "RingIsomorphism":
        if not isinstance(f.domain, RingPresentation) or not isinstance(
            f.codomain, RingPresentation
        ):
            raise ShapeMismatch("ring isomorphisms connect full presentations")
        reason = ring_iso_failure(f, f.domain, f.codomain)
        if reason is not None:
            raise NotIsomorphism(reason)
        return cls(f)

    def compose(self, other: "RingIsomorphism") -> "RingIsomorphism":
        """self followed by other."""
        return RingIsomorphism(compose_maps(self, other))

    def inverse(self, cap: int | None = None) -> "RingIsomorphism":
        return RingIsomorphism(invert_map(self, cap))

    def __repr__(self):
        return "RingIsomorphism(%r -> %r)" % (self.domain, self.codomain)


def identity_iso(ring: RingPresentation) -> RingIsomorphism:
    return RingIsomorphism(identity_map(ring))


# -- units and inner automorphisms ----------------------------------------


def _is_unit(u: Element) -> bool:
    """Whether x -> u*x is bijective.  Then u*v = 1 for some v, and v*u = 1
    follows because a finite ring is Dedekind-finite."""
    ring = u.ring
    return AdditiveMap._adopt(ring, ring, [u * g for g in ring.gens()]).is_bijective()


def ring_units(ring: RingPresentation, cap: int | None = None) -> list[Element]:
    """All two-sided units in lexicographic order, each decided by the rank of
    x -> u*x."""
    require_cap(ring.order, cap, "unit sweep")
    return [u for u in ring.elements() if _is_unit(u)]


def unit_inverse(u: Element, cap: int | None = None) -> Element:
    """u^(n-1) for n the multiplicative order of the unit u."""
    require_cap(u.ring.order, cap, "unit inversion sweep")
    inverse = _power_walk(u, u.ring.one_element())[1]
    if inverse is None:
        raise StructureViolation("element is not a unit")
    return inverse


def _power_walk(x: Element, one: Element) -> tuple[Element, Element | None]:
    """(e, v) for x in the finite ring (or corner) whose unit is one: e is
    the idempotent among the powers of x, and v the inverse of x, or None
    when x is not a unit.  If some x^n is one, x is a unit, e = one and
    v = x^(n-1).  Otherwise the powers recur without meeting one, and e is
    x^n for the multiple n of their period that is at least their
    preperiod; x is nilpotent exactly when e is 0.  The walk makes at most
    as many products as x has powers."""
    seen: dict = {}
    powers = [one]  # powers[i] = x^i
    y = x
    while y != one and y.coeffs not in seen:
        seen[y.coeffs] = len(powers)
        powers.append(y)
        y = y * x
    if y == one:
        return one, powers[-1]
    start = seen[y.coeffs]  # x^start is the first power that recurs
    period = len(powers) - start
    return powers[-(-start // period) * period], None


def inner_automorphism(u: Element, cap: int | None = None) -> RingIsomorphism:
    """Conjugation by the unit u, as x -> u^{-1} x u."""
    ring = u.ring
    v = unit_inverse(u, cap)
    return RingIsomorphism(AdditiveMap._adopt(ring, ring, [v * g * u for g in ring.gens()]))
