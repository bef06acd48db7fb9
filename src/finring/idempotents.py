"""Idempotent predicates: enumeration, semicentrality, semicentral reducedness.

An idempotent e is left semicentral when (1-e)*A*e = 0, i.e. its lower Peirce
component vanishes.  A ring is semicentral reduced when 0 and 1 are its only
semicentral idempotents; the one-element ring is not considered semicentral
reduced, which keeps triangulating idempotents nonzero.

Reducedness of a corner e*A*e is decided in A, with no corner presentation:
for f idempotent in the corner, (e-f)*x*f = (e-f)*(e*x*e)*f for every x in
A, so f is semicentral in the corner exactly when vanishes(A, e-f, f).
Spanning e*A*e checked e, and e-f is then idempotent too, so that test does
not re-prove idempotence.  0 and e are semicentral in every corner, so the
test stops at the first other semicentral idempotent it meets.
"""
from __future__ import annotations

from .corners import _peirce_span, _require_idempotent, _vanishes
from .presentation import Element, RingPresentation, require_cap


def enumerate_idempotents(ring: RingPresentation, cap: int | None = None) -> list[Element]:
    """All x with x*x = x, in lexicographic coefficient order."""
    require_cap(ring.order, cap, "idempotent sweep")
    return [x for x in ring.elements() if x.is_idempotent()]


def is_semicentral(ring: RingPresentation, e: Element) -> bool:
    _require_idempotent(e)
    return _vanishes(ring, ring.one_element() - e, e)


def has_reduced_corner(
    ring: RingPresentation, e: Element, cap: int | None = None, *, _spans=None
) -> bool:
    """True when the corner e*A*e is semicentral reduced: its semicentral
    idempotents are exactly 0 and e, two of them (the zero corner has one).
    _spans is the caller's dict of Peirce spans (see corners._peirce_span)."""
    corner = _peirce_span(ring, e, e, _spans)
    require_cap(corner.order, cap, "idempotent sweep")
    if e.is_zero():
        return False
    for f in corner.elements():
        if f.is_zero() or f == e:
            continue
        if f.is_idempotent() and _vanishes(ring, e - f, f):
            return False
    return True


def is_semicentral_reduced(ring: RingPresentation, cap: int | None = None) -> bool:
    """True when the only semicentral idempotents are 0 and 1 (and 0 != 1)."""
    return has_reduced_corner(ring, ring.one_element(), cap)
