"""Automorphism groups assembled from the structured enumeration."""
from __future__ import annotations

from dataclasses import dataclass

from .errors import StructureViolation
from .maps import RingIsomorphism, compose_maps, identity_iso, invert_map
from .morphisms import enumerate_isomorphisms
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
        return any(iso.map == g.map for g in self.elements)


def aut_group(ring: RingPresentation, cap: int | None = None) -> AutomorphismGroup:
    """Enumerate Aut(ring) and verify it is closed under the group operations.

    The parametrized enumeration visits each automorphism once; duplicates are
    collapsed by underlying map so the count stays honest either way.
    """
    seen = {}
    for _d, iso in enumerate_isomorphisms(ring, ring, cap):
        seen.setdefault(iso.map, iso)
    elements = tuple(sorted(seen.values(), key=lambda g: g.map.images))
    group = AutomorphismGroup(ring, elements)
    _verify_group_law(group, cap)
    return group


def aut_order(ring: RingPresentation, cap: int | None = None) -> int:
    return aut_group(ring, cap).order


def _verify_group_law(group: AutomorphismGroup, cap: int | None) -> None:
    """Check that the set holds the identity and is closed under inversion
    and composition.  The elements are verified isomorphisms, so inverses
    and composites are compared by map and not verified again."""
    maps = {g.map for g in group.elements}
    if identity_iso(group.ring).map not in maps:
        raise StructureViolation("automorphism set is missing the identity")
    for f in group.elements:
        if invert_map(f.map, cap) not in maps:
            raise StructureViolation("automorphism set is not closed under inversion")
        for g in group.elements:
            if compose_maps(f.map, g.map) not in maps:
                raise StructureViolation("automorphism set is not closed under composition")
