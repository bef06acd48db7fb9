"""Idempotent predicates: enumeration, semicentrality, semicentral reducedness.

An idempotent e is left semicentral when (1-e)*A*e = 0, i.e. its lower Peirce
component vanishes.  A ring is semicentral reduced when 0 and 1 are its only
semicentral idempotents; the one-element ring is not considered semicentral
reduced, which keeps triangulating idempotents nonzero.
"""
from __future__ import annotations

from .corners import _require_idempotent, vanishes
from .presentation import Element, RingPresentation, require_cap


def enumerate_idempotents(ring: RingPresentation, cap: int | None = None) -> list[Element]:
    """All x with x*x = x, in lexicographic coefficient order."""
    require_cap(ring.order, cap, "idempotent sweep")
    return [x for x in ring.elements() if x.is_idempotent()]


def is_semicentral(ring: RingPresentation, e: Element) -> bool:
    _require_idempotent(e)
    return vanishes(ring, ring.one_element() - e, e)


def is_semicentral_reduced(ring: RingPresentation, cap: int | None = None) -> bool:
    """True when the only semicentral idempotents are 0 and 1 (and 0 != 1)."""
    if ring.order == 1:
        return False
    semis = [e for e in enumerate_idempotents(ring, cap) if is_semicentral(ring, e)]
    return len(semis) == 2 and set(semis) == {ring.zero(), ring.one_element()}
