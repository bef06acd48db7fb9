"""Additive maps between presented rings and their subgroups.

A map is stored by its images on the canonical additive generators of the
domain: the ring generators when the domain is a full presentation, or the
independent cyclic generators when the domain is a Subgroup.  Images live in
the codomain's ambient coordinates.  Construction enforces well definedness
(each generator's order annihilates its image, and images land inside a
subgroup codomain), so every AdditiveMap instance is an honest homomorphism.

Evaluation works in coefficient space: apply() sums c * images[i] over the
argument's domain coordinates c in plain integers, reduces once modulo the
codomain orders and allocates a single Element.

Bijectivity is decided exactly, without element sweeps: the map is bijective
iff domain and codomain have equal order and the span of the images fills the
codomain.
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
from .presentation import Element, RingPresentation, require_cap
from .subgroups import Subgroup

Side = RingPresentation | Subgroup


def _ambient(side: Side) -> RingPresentation:
    return side if isinstance(side, RingPresentation) else side.ring


def _side_generators(side: Side) -> tuple[Element, ...]:
    if isinstance(side, RingPresentation):
        return side.gens()
    return side.generators


def _side_generator_orders(side: Side) -> tuple[int, ...]:
    if isinstance(side, RingPresentation):
        return side.orders
    return side.generator_orders


class AdditiveMap:
    """A homomorphism of additive groups given by generator images."""

    __slots__ = ("domain", "codomain", "images", "_image_elems")

    def __init__(self, domain: Side, codomain: Side, images):
        amb = _ambient(codomain)
        elems = tuple(images)
        for e in elems:
            if not isinstance(e, Element) or e.ring != amb:
                raise AmbientMismatch("image is not an element of the codomain's ring")
        orders = _side_generator_orders(domain)
        if len(elems) != len(orders):
            raise ShapeMismatch(
                "expected %d generator images, got %d" % (len(orders), len(elems))
            )
        for o, e in zip(orders, elems):
            if not (o * e).is_zero():
                raise ShapeMismatch(
                    "image of a generator of order %d is not annihilated by it" % o
                )
            if isinstance(codomain, Subgroup) and not codomain.contains(e):
                raise ShapeMismatch("image falls outside the codomain subgroup")
        self.domain = domain
        self.codomain = codomain
        self.images = tuple(e.coeffs for e in elems)
        self._image_elems = elems

    # -- evaluation ------------------------------------------------------

    def _domain_coords(self, x: Element) -> tuple[int, ...]:
        if isinstance(self.domain, RingPresentation):
            if x.ring != self.domain:
                raise AmbientMismatch("argument from the wrong ring")
            return x.coeffs
        return self.domain.coords(x)

    def apply(self, x: Element) -> Element:
        coords = self._domain_coords(x)
        amb = _ambient(self.codomain)
        acc = [0] * len(amb.orders)
        for c, row in zip(coords, self.images):
            if c:
                acc = [s + c * v for s, v in zip(acc, row)]
        return Element(amb, tuple(map(operator.mod, acc, amb.orders)))

    def __call__(self, x: Element) -> Element:
        return self.apply(x)

    # -- exact rank bookkeeping ------------------------------------------

    def image_span(self) -> Subgroup:
        return Subgroup.span(_ambient(self.codomain), self._image_elems)

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
        return "AdditiveMap(%d gens -> %r)" % (len(self.images), _ambient(self.codomain))


def identity_map(ring: RingPresentation) -> AdditiveMap:
    return AdditiveMap(ring, ring, ring.gens())


def compose_maps(f: AdditiveMap, g: AdditiveMap) -> AdditiveMap:
    """The map x -> g(f(x)); f is applied first."""
    if f.codomain != g.domain:
        if _ambient(f.codomain) != _ambient(g.domain):
            raise ShapeMismatch("composition endpoints do not match")
        # Allow subgroup/full mixtures over the same ambient when membership works out.
    return AdditiveMap(f.domain, g.codomain, [g.apply(img) for img in f._image_elems])


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
    images = []
    for g in _side_generators(f.codomain):
        if g not in table:
            raise NotBijective("map is not surjective onto the codomain generators")
        images.append(table[g])
    return AdditiveMap(f.codomain, f.domain, images)


# -- ring isomorphisms ----------------------------------------------------


def ring_iso_failure(f: AdditiveMap, a: RingPresentation, b: RingPresentation) -> str | None:
    """First reason f fails to be a unital ring isomorphism a -> b, else None."""
    if f.domain != a or f.codomain != b:
        raise ShapeMismatch("map endpoints do not match the given rings")
    if f.apply(a.one_element()) != b.one_element():
        return "unit is not preserved"
    gens = a.gens()
    for i, gi in enumerate(gens):
        for j, gj in enumerate(gens):
            if f.apply(gi * gj) != f._image_elems[i] * f._image_elems[j]:
                return "multiplicativity fails on generator pair (%d, %d)" % (i, j)
    if a.order != b.order:
        return "ring orders differ"
    if f.image_span().order != b.order:
        return "map is not bijective"
    return None


def verify_ring_iso(f: AdditiveMap, a: RingPresentation, b: RingPresentation) -> bool:
    """Exact check that f is a bijective unital ring homomorphism a -> b."""
    return ring_iso_failure(f, a, b) is None


class RingIsomorphism:
    """A verified ring isomorphism; construct through the create factory."""

    __slots__ = ("map",)

    def __init__(self, map: AdditiveMap):
        self.map = map

    @classmethod
    def create(cls, map: AdditiveMap) -> "RingIsomorphism":
        if not isinstance(map.domain, RingPresentation) or not isinstance(
            map.codomain, RingPresentation
        ):
            raise ShapeMismatch("ring isomorphisms connect full presentations")
        reason = ring_iso_failure(map, map.domain, map.codomain)
        if reason is not None:
            raise NotIsomorphism(reason)
        return cls(map)

    @property
    def domain(self) -> RingPresentation:
        return self.map.domain

    @property
    def codomain(self) -> RingPresentation:
        return self.map.codomain

    def apply(self, x: Element) -> Element:
        return self.map.apply(x)

    def __call__(self, x: Element) -> Element:
        return self.map.apply(x)

    def compose(self, other: "RingIsomorphism") -> "RingIsomorphism":
        """self followed by other."""
        return RingIsomorphism.create(compose_maps(self.map, other.map))

    def inverse(self, cap: int | None = None) -> "RingIsomorphism":
        return RingIsomorphism.create(invert_map(self.map, cap))

    def __eq__(self, other):
        if not isinstance(other, RingIsomorphism):
            return NotImplemented
        return self.map == other.map

    def __hash__(self):
        return hash(self.map)

    def __repr__(self):
        return "RingIsomorphism(%r -> %r)" % (self.domain, self.codomain)


def identity_iso(ring: RingPresentation) -> RingIsomorphism:
    return RingIsomorphism.create(identity_map(ring))


# -- units and inner automorphisms ----------------------------------------


def ring_units(ring: RingPresentation, cap: int | None = None) -> list[Element]:
    """All two-sided units, by exhaustive sweep, in lexicographic order."""
    require_cap(ring.order, cap, "unit sweep")
    one = ring.one_element()
    elems = list(ring.elements())
    units = []
    for u in elems:
        for v in elems:
            if u * v == one and v * u == one:
                units.append(u)
                break
    return units


def unit_inverse(u: Element, cap: int | None = None) -> Element:
    require_cap(u.ring.order, cap, "unit inversion sweep")
    one = u.ring.one_element()
    for v in u.ring.elements():
        if u * v == one and v * u == one:
            return v
    raise StructureViolation("element is not a unit")


def inner_automorphism(u: Element, cap: int | None = None) -> RingIsomorphism:
    """Conjugation by the unit u, as x -> u^{-1} x u."""
    ring = u.ring
    v = unit_inverse(u, cap)
    return RingIsomorphism.create(
        AdditiveMap(ring, ring, [v * g * u for g in ring.gens()])
    )
