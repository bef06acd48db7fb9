"""Construction and use of complete triangulating sequences.

complete_triangulating_set peels off, at each stage, the lexicographically
smallest nonzero idempotent of the current tail corner that is semicentral
there and has a semicentral reduced corner; the remaining tail shrinks
strictly, so the loop terminates with a full sequence.  Selection happens in
ambient coordinates, which keeps the tie-break independent of how tail corners
are presented.

The first tail is 1, whose corner is A itself, so the first stage sweeps
ring.elements() lazily and stops at the first admissible head; later tails
are listed from their corner subgroups.  Semicentrality within the tail is
tested with vanishes, which stops at the first nonzero product (tail-e)*g*e
over the generators instead of computing the Hermite form of a span.  The
reducedness of a candidate's corner is decided in A by has_reduced_corner,
so the sweep and locate_reduced build no corner presentation.

Each Peirce component is spanned once per call: the sweep keeps the tails
t*A*t it lists and the candidate corners e*A*e it checks in one dict, keyed by
idempotent pair, and hands it to TriangularSequence.build, which reads the
head corners and tails from it instead of spanning them again.  The dict lives
for that one call; the ring keeps no cache.

locate_reduced realizes the structure theorem for a semicentral reduced
idempotent f over a triangulating sequence: exactly one j has f_j*f*f_j != 0,
that product equals f_j, f - f_j lies in the row of f_j, and every component
above f_j vanishes.
"""
from __future__ import annotations

from .corners import _peirce_span, _vanishes, corner_ring
from .errors import NotSemicentral, NotSemicentralReduced, StructureViolation
from .idempotents import has_reduced_corner, is_semicentral
from .presentation import Element, RingPresentation, require_cap
from .sequences import TriangularSequence


def complete_triangulating_set(
    ring: RingPresentation, cap: int | None = None
) -> TriangularSequence:
    require_cap(ring.order, cap, "triangulating sweep")
    # In the one-element ring 1 = 0, so the loop never runs.
    tail = ring.one_element()
    idems: list[Element] = []
    spans: dict = {}
    while not tail.is_zero():
        chosen = None
        if idems:
            sweep = _peirce_span(ring, tail, tail, spans).elements()
        else:
            # The first tail is 1, whose corner is A: sweep A lazily, in the
            # lexicographic order a sorted subgroup listing would have.
            sweep = ring.elements()
        for e in sweep:
            if e.is_zero() or not e.is_idempotent():
                continue
            # Semicentral within the tail corner: (tail - e) A e must vanish;
            # e was just checked and tail - e is then idempotent too.
            if not _vanishes(ring, tail - e, e):
                continue
            if not has_reduced_corner(ring, e, cap, _spans=spans):
                continue
            chosen = e
            break
        if chosen is None:
            raise StructureViolation(
                "no admissible head idempotent in a nonzero tail; "
                "finite rings always have one, so the input is corrupt"
            )
        idems.append(chosen)
        tail = tail - chosen
    return TriangularSequence.build(ring, tuple(idems), cap, _spans=spans)


def _locate_over(seq: TriangularSequence, active: list[int], f: Element) -> tuple[int, Element]:
    """Shared core of locate_reduced, parameterized by the still-active block
    indices so the isomorphism decomposition can reuse it on shrinking tails.
    Returns (absolute block index, row part of f).

    f lies in u*A*u for u the sum of the active idempotents, so its row part
    lies in e_k*A*(u - e_k) exactly when it lies in the row e_k*A*(1 - e_k)
    that the sequence keeps."""
    idems = seq.idems
    hits = []
    for k in active:
        p = idems[k] * f * idems[k]
        if not p.is_zero():
            hits.append((k, p))
    if len(hits) != 1:
        raise StructureViolation(
            "expected exactly one diagonal hit, found %d" % len(hits)
        )
    k, p = hits[0]
    if p != idems[k]:
        raise StructureViolation("diagonal product is nonzero but not the block idempotent")
    rest = f - idems[k]
    if not seq.rows[k].contains(rest):
        raise StructureViolation("idempotent does not sit in its block's row coset")
    for i in active:
        if i == k:
            break
        if not seq.vanishing[i][k]:
            raise StructureViolation(
                "component above the located block is nonzero at index %d" % i
            )
    return k, rest


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
    seq = TriangularSequence.build(ring, tuple(head) + tuple(tail), cap)
    if ring.sum(head) != e:
        raise StructureViolation("head of the extension does not sum to the idempotent")
    return seq, len(head)
