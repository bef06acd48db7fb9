"""Peirce decompositions, admissible block orders, and direct sum detection."""
from __future__ import annotations

import itertools
from dataclasses import dataclass

from .corners import CornerRing, peirce_component, vanishes
from .errors import PreconditionViolated, StructureViolation, TooManyBlocks
from .presentation import RingPresentation
from .sequences import TriangularSequence, is_strongly_triangular, triangularity_failure
from .subgroups import Subgroup

# Block-order enumeration is factorial; refuse above this many blocks.
PERMUTATION_GUARD = 8


@dataclass(frozen=True)
class PeirceDecomposition:
    """All components e_i*A*e_j of a triangulating sequence, plus the
    truncated rows row[i] = e_i*A*(e_{i+1} + ... + e_m), which are the
    sequence's rows e_i*A*(1-e_i) because the lower components vanish."""

    seq: TriangularSequence
    components: tuple[tuple[Subgroup, ...], ...]
    rows: tuple[Subgroup, ...]

    @property
    def corners(self) -> tuple[CornerRing, ...]:
        return self.seq.corners

    @property
    def tails(self) -> tuple[CornerRing, ...]:
        return self.seq.tails


def peirce_decompose(ring: RingPresentation, seq: TriangularSequence) -> PeirceDecomposition:
    if seq.ring != ring:
        raise StructureViolation("sequence belongs to a different ring")
    m = seq.m
    comps = tuple(
        tuple(peirce_component(ring, seq.idems[i], seq.idems[j]) for j in range(m))
        for i in range(m)
    )
    rows = seq.rows
    total = 1
    for i in range(m):
        for j in range(m):
            total *= comps[i][j].order
    if total != ring.order:
        raise StructureViolation("components do not tile the additive group")
    for i in range(m):
        expect = 1
        for j in range(i + 1, m):
            expect *= comps[i][j].order
        if rows[i].order != expect:
            raise StructureViolation("row %d does not match its components" % i)
    return PeirceDecomposition(seq, comps, rows)


def reorder_front(
    ring: RingPresentation, seq: TriangularSequence, j: int, cap: int | None = None
) -> TriangularSequence:
    """Move block j (0-based) to the front.  Requires every component above
    block j to vanish; the first offending index is reported otherwise."""
    if not 0 <= j < seq.m:
        raise StructureViolation("block index out of range")
    for i in range(j):
        if not vanishes(ring, seq.idems[i], seq.idems[j]):
            raise PreconditionViolated(i)
    new_order = (seq.idems[j],) + tuple(e for i, e in enumerate(seq.idems) if i != j)
    return TriangularSequence.build(ring, new_order, cap)


def admissible_orders(ring: RingPresentation, seq: TriangularSequence) -> list[tuple[int, ...]]:
    """All permutations sigma (0-based, lexicographic) for which the reordered
    sequence e_{sigma(0)}, ..., e_{sigma(m-1)} is strongly triangulating.

    Orthogonality, the unit sum and corner reducedness are order independent,
    so only the lower-component conditions are rechecked per permutation.
    """
    if seq.m > PERMUTATION_GUARD:
        raise TooManyBlocks(seq.m, PERMUTATION_GUARD)
    table = _vanishing_table(ring, seq)
    return [perm for perm in itertools.permutations(range(seq.m)) if _admits(table, perm)]


def _vanishing_table(ring: RingPresentation, seq: TriangularSequence) -> list[list[bool]]:
    """table[i][j] is whether e_i*A*e_j = 0 for the blocks of seq."""
    return [[vanishes(ring, ei, ej) for ej in seq.idems] for ei in seq.idems]


def _admits(table: list[list[bool]], sigma) -> bool:
    """Whether the lower components of e_{sigma(0)}, ..., e_{sigma(m-1)} all vanish."""
    return all(table[sigma[a]][sigma[b]] for a in range(len(sigma)) for b in range(a))


def detect_direct_sum(ring: RingPresentation, dec: PeirceDecomposition) -> list[int]:
    """Blocks j (0-based) whose row and column components all vanish, i.e.
    whose corner splits off as a two-sided direct summand.  A single block is
    never reported as a split."""
    m = dec.seq.m
    if m < 2:
        return []
    out = []
    for j in range(m):
        if all(
            dec.components[i][j].is_trivial() and dec.components[j][i].is_trivial()
            for i in range(m)
            if i != j
        ):
            out.append(j)
    return out


__all__ = [
    "PERMUTATION_GUARD",
    "PeirceDecomposition",
    "admissible_orders",
    "detect_direct_sum",
    "is_strongly_triangular",
    "peirce_decompose",
    "reorder_front",
    "triangularity_failure",
]
