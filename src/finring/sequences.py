"""Validated triangulating sequences of idempotents.

A sequence e_1, ..., e_m is strongly triangulating when the e_i are pairwise
orthogonal idempotents summing to 1, every lower Peirce component e_j*A*e_i
with j > i vanishes, and each corner e_i*A*e_i is semicentral reduced.  The
empty sequence is valid exactly for the one-element ring.

TriangularSequence.build revalidates through triangularity_failure, so
sequences constructed anywhere in the package carry their invariants.  That
check tests the lower components once per prefix sum s = e_1 + ... + e_i,
since (1 - s)*A*s is their direct sum, and decides corner reducedness in A
by the Peirce-graph block test (has_reduced_corner); build then makes each
corner ring once.  It also records which components e_i*A*e_j vanish, the
one table every block-order question reads, and keeps each tail t_i*A*t_i
only as a subgroup of A, which is all the engine reads of it.

build also records the type of each block (BlockType): its primitive
idempotents, read from the split the reducedness check made, and, when
there are n >= 2 of them and all are equivalent to the first, p_1, the
matrix units E_1j, E_j1 that make the block M_n(D) over the local corner
D = p_1*A*p_1, with q = |D/J(D)|.  Equivalence is decided on products of
spanning generators of p_1*A*p_j and p_j*A*p_1
(idempotents._matrix_unit_system) and q by the Frobenius of D's residue
field (idempotents._residue_order), so nothing is listed; a one-primitive
block costs no product.  Isomorphic
blocks have equal types, since complete sets of primitive idempotents are
conjugate (Krull-Schmidt), and the isomorphism engine reads the types to
pair blocks and to build or count the isomorphisms of matrix blocks.

build spans each corner, tail and row once per ring object: the
reducedness check, the corner rings, the tails and the rows read the spans
and idempotent splits kept in the ring's memo (corners._peirce_span,
idempotents._primitive_idempotents).  complete_triangulating_set has
already filled it with the corners and splits of the idempotents it split
1 into, and the row of each head, so those are not spanned or split again:
a head that is one of them, such as the head 1 of a one-block ring, is
split by reading the memo, and only its block test runs.  A sequence built
again on the same ring object, in another block order say, spans nothing
the memo holds.
"""
from __future__ import annotations

from dataclasses import dataclass

from .corners import CornerRing, _peirce_span, _vanishes, corner_ring
from .errors import InvalidSequence
from .idempotents import (
    _matrix_unit_system,
    _primitive_idempotents,
    _residue_order,
    has_reduced_corner,
)
from .presentation import Element, RingPresentation
from .subgroups import Subgroup


def triangularity_failure(ring: RingPresentation, idems, cap: int | None = None) -> str | None:
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
        for j, ej in enumerate(idems[i + 1:], i + 1):
            if not ((ei * ej).is_zero() and (ej * ei).is_zero()):
                return "elements %d and %d are not orthogonal" % (i, j)
    if ring.sum(idems) != ring.one_element():
        return "sequence does not sum to the unit"
    # (1 - s)*A*s at the prefix sum s = e_0 + ... + e_i is the direct sum of
    # the lower components (j, l) with l <= i < j, so one test per prefix
    # decides them all; a failure is then named pair by pair.
    one = ring.one_element()
    s = ring.zero()
    for e in idems[:-1]:
        s = s + e
        if not _vanishes(ring, one - s, s):
            for j in range(len(idems)):
                for i in range(j):
                    if not _vanishes(ring, idems[j], idems[i]):
                        return "lower component (%d, %d) is nonzero" % (j, i)
    for i, e in enumerate(idems):
        if not has_reduced_corner(ring, e, cap):
            return "corner %d is not semicentral reduced" % i
    return None


def is_strongly_triangular(ring: RingPresentation, idems, cap: int | None = None) -> bool:
    return triangularity_failure(ring, idems, cap) is None


@dataclass(frozen=True)
class BlockType:
    """The type of one block e*A*e: its primitive idempotents prims and,
    when there are n >= 2 of them and all are equivalent, the block as
    M_n(D).  Then row[j] = E_1j and col[j] = E_j1 are matrix units
    (row[0] = col[0] = prims[0]), local is the corner ring D at prims[0],
    and q is the order of D's residue field D/J(D).  Otherwise row, col,
    local and q are None."""

    prims: tuple[Element, ...]
    row: tuple[Element, ...] | None = None
    col: tuple[Element, ...] | None = None
    local: CornerRing | None = None
    q: int | None = None

    @property
    def key(self) -> tuple:
        """(n, |D|, q), equal for isomorphic blocks; |D| and q are None
        unless the block is M_n(D) with n >= 2."""
        return len(self.prims), None if self.local is None else self.local.order, self.q


def _block_type(ring: RingPresentation, e: Element, cap: int | None) -> BlockType:
    """The type of the block at e, from the split of e that the reducedness
    check left in the ring's memo; a one-primitive block makes no product."""
    prims = tuple(_primitive_idempotents(ring, e, cap))
    units = _matrix_unit_system(ring, prims) if len(prims) > 1 else None
    if units is None:
        return BlockType(prims)
    local = corner_ring(ring, prims[0])
    return BlockType(prims, *units, local, _residue_order(local.presentation))


@dataclass(frozen=True)
class TriangularSequence:
    """A strongly triangulating sequence with its corners, tails, rows,
    vanishing table and block types.

    tails[i] is the subgroup t_i*A*t_i at t_i = e_i + ... + e_m, so tails[0]
    is all of A and tails[-1] is the last corner's subgroup.  rows[i] is the
    Peirce row e_i*A*(1-e_i); the lower components vanish, so it equals
    e_i*A*(e_{i+1} + ... + e_m).  vanishing[i][j] is whether e_i*A*e_j = 0.
    types[i] is the BlockType of the corner e_i*A*e_i.
    """

    ring: RingPresentation
    idems: tuple[Element, ...]
    corners: tuple[CornerRing, ...]
    tails: tuple[Subgroup, ...]
    rows: tuple[Subgroup, ...]
    vanishing: tuple[tuple[bool, ...], ...]
    types: tuple[BlockType, ...]

    @classmethod
    def build(cls, ring: RingPresentation, idems, cap: int | None = None) -> "TriangularSequence":
        """Validate idems and collect their Peirce data, reading and adding
        to the spans and splits in the ring's memo."""
        idems = tuple(idems)
        reason = triangularity_failure(ring, idems, cap)
        if reason is not None:
            raise InvalidSequence(reason)
        corners = tuple(corner_ring(ring, e) for e in idems)
        # t_m = e_m, so the last tail is the last corner's subgroup
        tails = tuple(
            _peirce_span(ring, t, t) for t in (ring.sum(idems[i:]) for i in range(len(idems)))
        )
        one = ring.one_element()
        rows = tuple(_peirce_span(ring, e, one - e) for e in idems)
        # the lower triangle was just checked to vanish, and e_i*A*e_i holds
        # the nonzero e_i
        vanishing = tuple(
            tuple(i > j or (i < j and _vanishes(ring, ei, ej)) for j, ej in enumerate(idems))
            for i, ei in enumerate(idems)
        )
        types = tuple(_block_type(ring, e, cap) for e in idems)
        return cls(ring, idems, corners, tails, rows, vanishing, types)

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
