"""Automorphism groups assembled from the structured enumeration, and their
order counted from the layers without listing the group.  Both read the
canonical sequence the ring keeps, so the second of them builds none."""
from __future__ import annotations

from dataclasses import dataclass

from .errors import StructureViolation
from .maps import RingIsomorphism, compose_maps, identity_iso, invert_map
from .morphisms import enumerate_isomorphisms, iso_count
from .presentation import RingPresentation


@dataclass(frozen=True)
class AutomorphismGroup:
    """All ring automorphisms, sorted by image tuples."""

    ring: RingPresentation
    elements: tuple[RingIsomorphism, ...]

    @property
    def order(self) -> int:
        return len(self.elements)

    def __contains__(self, iso: RingIsomorphism) -> bool:
        return iso in self.elements


def aut_group(ring: RingPresentation, cap: int | None = None) -> AutomorphismGroup:
    """Enumerate Aut(ring) and verify it is closed under the group operations.

    The parametrized enumeration visits each automorphism once, so a map it
    yields twice is an enumeration bug and raises StructureViolation; the
    group then has the order that `aut_order` counts.  The group law is
    checked from a greedy generating set T (see `_verify_group_law`):
    |G|·|T| compositions and |T| inversions.
    """
    seen = set()
    for _d, iso in enumerate_isomorphisms(ring, ring, cap):
        if iso in seen:
            raise StructureViolation("the enumeration yields an automorphism twice")
        seen.add(iso)
    elements = tuple(sorted(seen, key=lambda g: g.images))
    group = AutomorphismGroup(ring, elements)
    _verify_group_law(group, cap)
    return group


def aut_order(ring: RingPresentation, cap: int | None = None) -> int:
    """|Aut(ring)|, counted by `iso_count` from the offset-free
    parametrizations and the row orders; equals `aut_group(ring).order`
    without building the whole group or checking its group law."""
    return iso_count(ring, ring, cap)


def _verify_group_law(group: AutomorphismGroup, cap: int | None) -> None:
    """Check that the set holds the identity and is closed under composition.

    A finite set of bijections that holds the identity and is closed under
    composition is a group.  Closure is checked by a breadth-first search
    from the identity under a generating set T that grows greedily: walking
    the elements in sorted order, each one the search has not reached yet
    becomes the next generator.  Every reached element is composed with
    every generator exactly once (a per-element count records how many
    generators it has met), and every product must lie in the set.  When
    the walk ends the search has reached the whole set, which is then the
    monoid generated by T and hence closed.  In a group each new generator
    at least doubles the reached subgroup, so this costs |G|·|T|
    compositions with |T| <= log2 |G|, where checking every product costs
    |G|².

    Closure already implies inverses, so only the generators are inverted,
    as a cross-check.  The elements are isomorphisms by construction (built
    from checked layers), so inverses and composites are compared by map
    and never verified.
    """
    maps = set(group.elements)
    ident = identity_iso(group.ring)
    if ident not in maps:
        raise StructureViolation("automorphism set is missing the identity")
    applied = {ident: 0}  # reached element -> generators composed with it
    reached = [ident]
    gens = []
    for g in group.elements:
        if g in applied:
            continue
        if invert_map(g, cap) not in maps:
            raise StructureViolation("automorphism set is not closed under inversion")
        gens.append(g)
        for f in reached:  # grows while it is walked: the search frontier
            for t in gens[applied[f]:]:
                h = compose_maps(f, t)
                if h not in maps:
                    raise StructureViolation("automorphism set is not closed under composition")
                if h not in applied:
                    applied[h] = 0
                    reached.append(h)
            applied[f] = len(gens)
