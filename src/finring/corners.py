"""Corner rings e*A*e and Peirce components e*A*f.

A corner inherits its addition and multiplication from the ambient ring and
has e as its unit.  We present it on the independent cyclic generators of the
subgroup e*A*e, so the corner presentation is a valid RingPresentation in its
own right, with embed/project additive maps translating between corner and
ambient coordinates.  The corner at the ambient unit is the ring itself, with
identity translation, rather than a re-based copy.

corner_ring checks that e is idempotent and then adopts what it builds
(RingPresentation._adopt, AdditiveMap._adopt): a corner of a validated ring
at an idempotent is a ring with unit e, its orders compatible and its
product associative (see presentation.py), embed_map sends each corner
generator to itself in the subgroup, and project_map sends g to the corner
coordinates of e*g*e, which is additive in g.

The engine reads each span e*A*f through _peirce_span, which keeps it in
the ring's memo; peirce_component always spans afresh.  Both span e*g*f
over the generators g, which RingPresentation._peirce_rows makes for all g
in one packed pass, as it does for the vanishing test.
"""
from __future__ import annotations

from dataclasses import dataclass, field

from .errors import NotIdempotent
from .maps import AdditiveMap, identity_map
from .presentation import Element, RingPresentation
from .subgroups import Subgroup


def _require_idempotent(e: Element):
    if not e.is_idempotent():
        raise NotIdempotent("element %r is not idempotent" % (e.coeffs,))


def peirce_component(ring: RingPresentation, e: Element, f: Element) -> Subgroup:
    """The additive subgroup e*A*f, spanned by e*g*f over the generators."""
    _require_idempotent(e)
    _require_idempotent(f)
    one = ring.one_element()
    if e == one == f:
        return Subgroup.span(ring, ring.gens())
    return Subgroup.span(ring, _peirce_rows(ring, e, f))


def _peirce_span(ring: RingPresentation, e: Element, f: Element) -> Subgroup:
    """peirce_component(ring, e, f), kept in the ring's memo under (e, f).
    Every corner (e, e) is spanned here, from e*g*e over the generators,
    which corner_ring reads back; the triangulation files each head's row
    under (f, 1 - f) itself (see triangulate.py)."""
    return ring._remember((e, f), lambda: peirce_component(ring, e, f))


def vanishes(ring: RingPresentation, e: Element, f: Element) -> bool:
    """True when e*A*f = 0, i.e. peirce_component(ring, e, f).is_trivial().

    A span is trivial exactly when every spanning vector is zero, so the test
    reads e*g*f over the generators, without a Hermite form.
    """
    _require_idempotent(e)
    _require_idempotent(f)
    return _vanishes(ring, e, f)


def _vanishes(ring: RingPresentation, e: Element, f: Element) -> bool:
    """vanishes for idempotents the caller has already checked or built as
    such (t - e for e idempotent in the corner of t), without checking again."""
    return not any(map(any, ring._peirce_rows(e.coeffs, f.coeffs)))


def _peirce_rows(ring: RingPresentation, e: Element, f: Element) -> list[Element]:
    """e*g*f for every generator g of ring, in one packed pass."""
    return [Element(ring, c) for c in ring._peirce_rows(e.coeffs, f.coeffs)]


@dataclass(frozen=True, eq=False)
class CornerRing:
    """The ring e*A*e presented on its own generators."""

    parent: RingPresentation
    idem: Element
    presentation: RingPresentation
    subgroup: Subgroup
    embed_map: AdditiveMap = field(repr=False)
    project_map: AdditiveMap = field(repr=False)

    def embed(self, x: Element) -> Element:
        """Corner coordinates to ambient coordinates."""
        return self.embed_map.apply(x)

    def project(self, y: Element) -> Element:
        """Ambient y to corner coordinates of e*y*e."""
        return self.project_map.apply(y)

    @property
    def order(self) -> int:
        return self.presentation.order

    def __eq__(self, other):
        if not isinstance(other, CornerRing):
            return NotImplemented
        return self.parent == other.parent and self.idem == other.idem

    def __hash__(self):
        return hash((self.parent, self.idem))


def corner_ring(ring: RingPresentation, e: Element) -> CornerRing:
    _require_idempotent(e)
    sub = _peirce_span(ring, e, e)
    if sub.order == ring.order:
        # e A e = A forces e = 1; keep the original presentation untouched.
        ident = identity_map(ring)
        return CornerRing(ring, e, ring, sub, ident, ident)
    gens = sub.generators
    orders = sub.generator_orders
    k = len(gens)
    mul = tuple(
        tuple(sub.coords(gens[i] * gens[j]) for j in range(k)) for i in range(k)
    )
    pres = RingPresentation._adopt(orders, mul, sub.coords(e))
    embed = AdditiveMap._adopt(pres, sub, gens)
    # sub was spanned from e*g*e over the generators: their images
    project = AdditiveMap._adopt(ring, pres, [Element(pres, sub.coords(x)) for x in sub.spanning])
    return CornerRing(ring, e, pres, sub, embed, project)
