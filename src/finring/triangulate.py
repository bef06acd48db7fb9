"""Construction and use of complete triangulating sequences.

The canonical sequence takes, at each stage, the lexicographically smallest
admissible head of the current tail corner t*A*t: a nonzero idempotent that
is semicentral there and whose corner is semicentral reduced.  The remaining
tail shrinks strictly, so the loop ends with a full sequence.  Selection
happens in ambient coordinates, which keeps the tie-break independent of how
tail corners are presented.

complete_triangulating_set finds that head without listing t*A*t, from the
structure theorem that locate_reduced implements (Birkenmeier, Heatherly,
Kim and Park, J. Algebra 230 (2000)): over any triangulating sequence of the
tail, the admissible heads are exactly the cosets e_j + e_j*A*(t - e_j) of
its source blocks, those e_j with e_i*A*e_j = 0 for every other block e_i.
It works in three steps.

1. Split 1 into orthogonal primitive idempotents p_i
   (idempotents._primitive_idempotents).
2. Take the blocks: the strongly connected components of the Peirce graph
   of the p_i, in a topological order (idempotents._blocks).  Each block's
   corner is semicentral reduced by the test has_reduced_corner makes, so
   the blocks triangulate A.
3. Each stage reduces every source e_j by the Hermite rows of its row
   e_j*A*(t - e_j), which gives the least element of its coset, and takes
   the smallest of these, f = e_j + r.  Conjugating by the unit 1 + r
   (r*r = 0) turns e_j into f and every other block e_i into e_i - r*e_i,
   which triangulate t - f; the block graph is unchanged.

Each Peirce component is spanned once per ring object: the primitive
corners and the stage rows are kept in the ring's memo, keyed by
idempotent pair (corners._peirce_span), where TriangularSequence.build
reads them.  The chosen head's row f*A*(1 - f) is the row it was reduced
against, conjugated by 1 + r, which fixes that row; the construction files
it under (f, 1 - f), so build spans no row of its own.  The memo also
keeps the split of every idempotent that step 1 met, so build's
reducedness check splits again only a head that step 3 moved (r != 0).
The finished sequence is kept there too, so every later question about
the same ring object reads it and builds nothing.  Rings loaded or built
afresh share nothing.

locate_reduced realizes the structure theorem for a semicentral reduced
idempotent f over a triangulating sequence: exactly one j has f_j*f*f_j != 0,
that product equals f_j, f - f_j lies in the row of f_j, and every component
above f_j vanishes.  The theorem is proved once, not per call: locate_reduced
and the isomorphism decomposition only look up the block that f hits and
take f - f_j, and the acceptance tests (criterion 05) assert all four facts
over the fixture corpus.
"""
from __future__ import annotations

from .corners import _peirce_span, corner_ring
from .errors import NotSemicentral, NotSemicentralReduced
from .idempotents import _blocks, _primitive_idempotents, has_reduced_corner, is_semicentral
from .presentation import Element, RingPresentation, require_cap
from .sequences import TriangularSequence


def complete_triangulating_set(
    ring: RingPresentation, cap: int | None = None
) -> TriangularSequence:
    """The canonical complete triangulating sequence of ring (see the module
    docstring), validated by TriangularSequence.build.  The cap on |A| is
    checked on every call; the sequence is then kept in the ring's memo."""
    require_cap(ring.order, cap, "triangulating sweep")
    return ring._remember("sequence", lambda: _construct(ring, cap))


def _construct(ring: RingPresentation, cap: int | None) -> TriangularSequence:
    one = ring.one_element()
    blocks, into = _blocks(ring, _primitive_idempotents(ring, one, cap))
    tail = one
    active = list(range(len(blocks)))
    idems: list[Element] = []
    while active:
        candidates = []
        for j in active:
            if any(i in into[j] for i in active):
                continue
            e = blocks[j]
            row = _peirce_span(ring, e, tail - e)
            candidates.append((row.least_in_coset(e), j, row))
        f, j, row = min(candidates, key=lambda c: c[0].coeffs)
        ring._remember((f, one - f), lambda: row)
        active.remove(j)
        r = f - blocks[j]
        if not r.is_zero():
            for i in active:
                blocks[i] = blocks[i] - r * blocks[i]
        idems.append(f)
        tail = tail - f
    return TriangularSequence.build(ring, tuple(idems), cap)


def _locate_over(seq: TriangularSequence, active: list[int], f: Element) -> tuple[int, Element]:
    """Shared core of locate_reduced, parameterized by the still-active block
    indices so the isomorphism decomposition can reuse it on shrinking tails.
    Returns (absolute block index, row part of f): the one active block e_k
    with e_k*f*e_k != 0, and f - e_k.  The structure theorem proves the rest
    (see the module docstring), so none of it is checked again here."""
    idems = seq.idems
    k = next(k for k in active if not (idems[k] * f * idems[k]).is_zero())
    return k, f - idems[k]


def locate_reduced(
    seq: TriangularSequence, f: Element, cap: int | None = None
) -> tuple[int, Element]:
    """Position a semicentral reduced idempotent over its unique block.

    Returns (j, m) with 0-based j such that f = e_j + m, m in the row of e_j,
    and all components above block j vanish.
    """
    ring = seq.ring
    if not is_semicentral(ring, f):
        raise NotSemicentralReduced("idempotent is not semicentral")
    if not has_reduced_corner(ring, f, cap):
        raise NotSemicentralReduced("corner of the idempotent is not semicentral reduced")
    return _locate_over(seq, list(range(seq.m)), f)


def extend_semicentral(
    ring: RingPresentation, e: Element, cap: int | None = None
) -> tuple[TriangularSequence, int]:
    """Complete a semicentral idempotent to a triangulating sequence whose
    first l members sum to e.  Returns (sequence, l)."""
    if not is_semicentral(ring, e):
        raise NotSemicentral("idempotent is not semicentral")
    head_corner = corner_ring(ring, e)
    head = [head_corner.embed(x) for x in complete_triangulating_set(head_corner.presentation, cap).idems]
    tail_corner = corner_ring(ring, ring.one_element() - e)
    tail = [tail_corner.embed(x) for x in complete_triangulating_set(tail_corner.presentation, cap).idems]
    # the head sequence sums to the unit e of its corner
    return TriangularSequence.build(ring, tuple(head) + tuple(tail), cap), len(head)
