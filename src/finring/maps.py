"""Additive maps between additive sides: presented rings and their subgroups.

A side is a RingPresentation or a Subgroup.  Both carry `ring` (the ambient
presentation; a presentation is its own), `generators`, `generator_orders`,
`coords(x)` and `elements()`: the ring generators and their orders for a
presentation, the independent cyclic generators for a Subgroup.  A map is
stored by its images on its domain side's generators, in the codomain's
ambient coordinates.  Construction enforces well definedness (each
generator's order annihilates its image, and images land inside a subgroup
codomain), so every AdditiveMap instance is an honest homomorphism.

Evaluation works in coefficient space: apply() sums c * images[i] over the
argument's domain coordinates c in plain integers, reduces once modulo the
codomain orders and allocates a single Element.

Bijectivity is decided exactly, without element sweeps: the map is bijective
iff domain and codomain have equal order and the span of the images fills the
codomain.

A RingIsomorphism is an AdditiveMap between two presentations that is a
unital ring isomorphism.  RingIsomorphism.create checks a map;
RingIsomorphism(f) adopts a map that its caller has already verified.  Equal
endpoints and images make equal maps, whichever of the two classes they have.
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


class AdditiveMap:
    """A homomorphism of additive groups given by generator images."""

    __slots__ = ("domain", "codomain", "images", "_image_elems")

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
        self.domain = domain
        self.codomain = codomain
        self.images = tuple(e.coeffs for e in elems)
        self._image_elems = elems

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
        return Subgroup.span(self.codomain.ring, self._image_elems)

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
    return AdditiveMap(ring, ring, ring.gens())


def compose_maps(f: AdditiveMap, g: AdditiveMap) -> AdditiveMap:
    """The map x -> g(f(x)); f is applied first.  The endpoints need only
    share their ambient ring: g reads f's images in its own domain side."""
    if f.codomain.ring != g.domain.ring:
        raise ShapeMismatch("composition endpoints do not match")
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
    for g in f.codomain.generators:
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


class RingIsomorphism(AdditiveMap):
    """A verified ring isomorphism between two presentations.  create checks
    a map; RingIsomorphism(f) adopts the map f that its caller has verified."""

    __slots__ = ()

    def __init__(self, f: AdditiveMap):
        self.domain = f.domain
        self.codomain = f.codomain
        self.images = f.images
        self._image_elems = f._image_elems

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
        return RingIsomorphism.create(compose_maps(self, other))

    def inverse(self, cap: int | None = None) -> "RingIsomorphism":
        return RingIsomorphism.create(invert_map(self, cap))

    def __repr__(self):
        return "RingIsomorphism(%r -> %r)" % (self.domain, self.codomain)


def identity_iso(ring: RingPresentation) -> RingIsomorphism:
    return RingIsomorphism.create(identity_map(ring))


# -- units and inner automorphisms ----------------------------------------


def _is_unit(u: Element) -> bool:
    """Whether x -> u*x is bijective.  Then u*v = 1 for some v, and v*u = 1
    follows because a finite ring is Dedekind-finite."""
    ring = u.ring
    return AdditiveMap(ring, ring, [u * g for g in ring.gens()]).is_bijective()


def ring_units(ring: RingPresentation, cap: int | None = None) -> list[Element]:
    """All two-sided units in lexicographic order, each decided by the rank of
    x -> u*x."""
    require_cap(ring.order, cap, "unit sweep")
    return [u for u in ring.elements() if _is_unit(u)]


def unit_inverse(u: Element, cap: int | None = None) -> Element:
    """u^(n-1) for n the multiplicative order of the unit u."""
    require_cap(u.ring.order, cap, "unit inversion sweep")
    if not _is_unit(u):
        raise StructureViolation("element is not a unit")
    one = u.ring.one_element()
    inverse, power = one, u
    while power != one:
        inverse, power = power, power * u
    return inverse


def inner_automorphism(u: Element, cap: int | None = None) -> RingIsomorphism:
    """Conjugation by the unit u, as x -> u^{-1} x u."""
    ring = u.ring
    v = unit_inverse(u, cap)
    return RingIsomorphism.create(
        AdditiveMap(ring, ring, [v * g * u for g in ring.gens()])
    )
