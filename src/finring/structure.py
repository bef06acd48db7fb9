"""Admissible block orders, block moves and direct sum detection.

Every function takes a TriangularSequence, which carries the ring and the
Peirce data read here: the vanishing table says which components e_i*A*e_j
are zero, so no component is spanned again to answer a block-order question.
"""
from __future__ import annotations

import itertools

from .errors import CapExceeded, PreconditionViolated, StructureViolation
from .sequences import TriangularSequence

# Block-order enumeration is factorial; refuse above this many blocks.
PERMUTATION_GUARD = 8


def reorder_front(seq: TriangularSequence, j: int, cap: int | None = None) -> TriangularSequence:
    """Move block j (0-based) to the front.  Requires every component above
    block j to vanish; the first offending index is reported otherwise."""
    if not 0 <= j < seq.m:
        raise StructureViolation("block index out of range")
    for i in range(j):
        if not seq.vanishing[i][j]:
            raise PreconditionViolated(i)
    new_order = (seq.idems[j],) + tuple(e for i, e in enumerate(seq.idems) if i != j)
    return TriangularSequence.build(seq.ring, new_order, cap)


def admissible_orders(seq: TriangularSequence) -> list[tuple[int, ...]]:
    """All permutations sigma (0-based, lexicographic) for which the reordered
    sequence e_{sigma(0)}, ..., e_{sigma(m-1)} is strongly triangulating.

    Orthogonality, the unit sum and corner reducedness are order independent,
    so only the lower-component conditions are rechecked per permutation.
    """
    if seq.m > PERMUTATION_GUARD:
        raise CapExceeded(seq.m, PERMUTATION_GUARD, "block permutation guard")
    return [perm for perm in itertools.permutations(range(seq.m)) if seq.admits(perm)]


def detect_direct_sum(seq: TriangularSequence) -> list[int]:
    """Blocks j (0-based) whose row and column components all vanish, i.e.
    whose corner splits off as a two-sided direct summand.  A single block is
    never reported as a split."""
    m = seq.m
    if m < 2:
        return []
    v = seq.vanishing
    return [j for j in range(m) if all(v[i][j] and v[j][i] for i in range(m) if i != j)]
