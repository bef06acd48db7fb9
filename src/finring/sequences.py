"""Validated triangulating sequences of idempotents.

A sequence e_1, ..., e_m is strongly triangulating when the e_i are pairwise
orthogonal idempotents summing to 1, every lower Peirce component e_j*A*e_i
with j > i vanishes, and each corner e_i*A*e_i is semicentral reduced.  The
empty sequence is valid exactly for the one-element ring.

TriangularSequence.build revalidates through triangularity_failure, so
sequences constructed anywhere in the package carry their invariants.  That
check decides corner reducedness in A (has_reduced_corner); build then makes
each corner ring once.  It also records which components e_i*A*e_j vanish,
the one table every block-order question reads, and keeps each tail
t_i*A*t_i only as a subgroup of A, which is all the engine reads of it.
"""
from __future__ import annotations

from dataclasses import dataclass

from .corners import CornerRing, corner_ring, peirce_component, vanishes
from .errors import InvalidSequence
from .idempotents import has_reduced_corner
from .presentation import Element, RingPresentation
from .subgroups import Subgroup


def triangularity_failure(
    ring: RingPresentation, idems, cap: int | None = None
) -> str | None:
    """First reason the sequence fails to be strongly triangulating, or None:
    idempotence, orthogonality, the unit sum, the vanishing lower components,
    then the reducedness of each corner."""
    idems = tuple(idems)
    for i, e in enumerate(idems):
        if e.ring != ring:
            return "element %d lives in a different ring" % i
        if not e.is_idempotent():
            return "element %d is not idempotent" % i
    for i, ei in enumerate(idems):
        for j, ej in enumerate(idems):
            if i != j and not ((ei * ej).is_zero() and (ej * ei).is_zero()):
                return "elements %d and %d are not orthogonal" % (i, j)
    if ring.sum(idems) != ring.one_element():
        return "sequence does not sum to the unit"
    for j in range(len(idems)):
        for i in range(j):
            if not vanishes(ring, idems[j], idems[i]):
                return "lower component (%d, %d) is nonzero" % (j, i)
    for i, e in enumerate(idems):
        if not has_reduced_corner(ring, e, cap):
            return "corner %d is not semicentral reduced" % i
    return None


def is_strongly_triangular(ring: RingPresentation, idems, cap: int | None = None) -> bool:
    return triangularity_failure(ring, idems, cap) is None


@dataclass(frozen=True)
class TriangularSequence:
    """A strongly triangulating sequence with its corners, tails, rows and
    vanishing table.

    tails[i] is the subgroup t_i*A*t_i at t_i = e_i + ... + e_m, so tails[0]
    is all of A and tails[-1] is the last corner's subgroup.  rows[i] is the
    Peirce row e_i*A*(1-e_i); the lower components vanish, so it equals
    e_i*A*(e_{i+1} + ... + e_m).  vanishing[i][j] is whether e_i*A*e_j = 0.
    """

    ring: RingPresentation
    idems: tuple[Element, ...]
    corners: tuple[CornerRing, ...]
    tails: tuple[Subgroup, ...]
    rows: tuple[Subgroup, ...]
    vanishing: tuple[tuple[bool, ...], ...]

    @classmethod
    def build(
        cls, ring: RingPresentation, idems, cap: int | None = None
    ) -> "TriangularSequence":
        idems = tuple(idems)
        reason = triangularity_failure(ring, idems, cap)
        if reason is not None:
            raise InvalidSequence(reason)
        corners = tuple(corner_ring(ring, e) for e in idems)
        # the last tail is the last corner's subgroup
        tails = tuple(
            peirce_component(ring, t, t)
            for t in (ring.sum(idems[i:]) for i in range(len(idems) - 1))
        ) + tuple(c.subgroup for c in corners[-1:])
        one = ring.one_element()
        rows = tuple(peirce_component(ring, e, one - e) for e in idems)
        # the lower triangle was just checked to vanish
        vanishing = tuple(
            tuple(i > j or vanishes(ring, ei, ej) for j, ej in enumerate(idems))
            for i, ei in enumerate(idems)
        )
        return cls(ring, idems, corners, tails, rows, vanishing)

    @property
    def m(self) -> int:
        return len(self.idems)

    def tail_idempotent(self, i: int) -> Element:
        """e_i + ... + e_m for 0-based i; the zero element past the end."""
        return self.ring.sum(self.idems[i:])

    def admits(self, sigma) -> bool:
        """Whether every lower component of e_{sigma(0)}, ..., e_{sigma(m-1)}
        vanishes.  Orthogonality, the unit sum and corner reducedness do not
        depend on the order, so sigma is admissible exactly when this holds."""
        v = self.vanishing
        return all(v[sigma[a]][sigma[b]] for a in range(len(sigma)) for b in range(a))
