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

1. Split 1 into orthogonal primitive idempotents.  An idempotent p whose
   corner p*A*p is Z_n on p, for n a prime power, is primitive.  Otherwise
   p is split by the idempotent power of p*g*p for a generator g when that
   power is neither 0 nor p, and a p that no generator splits is certified
   primitive by the idempotents of p*A*p.
2. The blocks are the strongly connected components of the graph with an
   edge i -> j when p_i*A*p_j != 0, in a topological order; each block's
   corner is semicentral reduced, so they triangulate A.
3. Each stage reduces every source e_j by the Hermite rows of its row
   e_j*A*(t - e_j), which gives the least element of its coset, and takes
   the smallest of these, f = e_j + r.  Conjugating by the unit 1 + r
   (r*r = 0) turns e_j into f and every other block e_i into e_i - r*e_i,
   which triangulate t - f; the block graph is unchanged.

Each Peirce component is spanned once per call: the primitive corners and
the stage rows sit in one dict, keyed by idempotent pair, that goes to
TriangularSequence.build.  The chosen head's row f*A*(1 - f) is the row it
was reduced against, conjugated by 1 + r, which fixes that row; build reads
it, and the head corners and tails, from the dict.  The dict lives for that
one call; the ring keeps no cache.

locate_reduced realizes the structure theorem for a semicentral reduced
idempotent f over a triangulating sequence: exactly one j has f_j*f*f_j != 0,
that product equals f_j, f - f_j lies in the row of f_j, and every component
above f_j vanishes.
"""
from __future__ import annotations

from math import gcd, isqrt, lcm

from .corners import _peirce_span, corner_ring
from .errors import NotSemicentral, NotSemicentralReduced, StructureViolation
from .idempotents import has_reduced_corner, is_semicentral
from .presentation import Element, RingPresentation, require_cap
from .sequences import TriangularSequence


def complete_triangulating_set(
    ring: RingPresentation, cap: int | None = None
) -> TriangularSequence:
    """The canonical complete triangulating sequence of ring (see the module
    docstring), validated by TriangularSequence.build."""
    require_cap(ring.order, cap, "triangulating sweep")
    spans: dict = {}
    blocks, into = _blocks(ring, _primitive_idempotents(ring, spans))
    one = ring.one_element()
    tail = one
    active = list(range(len(blocks)))
    idems: list[Element] = []
    while active:
        candidates = []
        for j in active:
            if any(i in into[j] for i in active):
                continue
            e = blocks[j]
            row = _peirce_span(ring, e, tail - e, spans)
            candidates.append((row.least_in_coset(e), j, row))
        f, j, row = min(candidates, key=lambda c: c[0].coeffs)
        spans[f, one - f] = row
        active.remove(j)
        r = f - blocks[j]
        if not r.is_zero():
            for i in active:
                blocks[i] = blocks[i] - r * blocks[i]
        idems.append(f)
        tail = tail - f
    return TriangularSequence.build(ring, tuple(idems), cap, _spans=spans)


def _primitive_idempotents(ring: RingPresentation, spans) -> list[Element]:
    """Orthogonal primitive idempotents summing to 1; none in the one-element
    ring, where 1 = 0."""
    one = ring.one_element()
    todo = [] if one.is_zero() else [one]
    prims = []
    while todo:
        p = todo.pop()
        q = _splitting_idempotent(ring, p, spans)
        if q is None:
            prims.append(p)
        else:
            todo += [q, p - q]
    return prims


def _splitting_idempotent(ring: RingPresentation, p: Element, spans):
    """An idempotent of p*A*p other than 0 and p, or None when p is
    primitive.  A corner that p generates additively is Z_n, whose only
    idempotents are 0 and p when n is a prime power.  Otherwise the
    idempotent powers of the p*g*p that span the corner are tried, then its
    elements."""
    corner = _peirce_span(ring, p, p, spans)
    n = corner.order
    if _additive_order(p) == n and _is_prime_power(n):
        return None
    for x in corner.spanning:
        q = _idempotent_power(x)
        if not q.is_zero() and q != p:
            return q
    for q in corner.elements():
        if not q.is_zero() and q != p and q.is_idempotent():
            return q
    return None


def _additive_order(x: Element) -> int:
    return lcm(*(d // gcd(c, d) for c, d in zip(x.coeffs, x.ring.orders)))


def _is_prime_power(n: int) -> bool:
    q = next((d for d in range(2, isqrt(n) + 1) if n % d == 0), n)
    while n % q == 0:
        n //= q
    return n == 1


def _idempotent_power(x: Element) -> Element:
    """The idempotent among the powers of x: x^n for the multiple n of their
    period that is at least their preperiod."""
    seen: dict = {}
    powers = []  # powers[i] = x^(i + 1)
    y = x
    while y.coeffs not in seen:
        seen[y.coeffs] = len(powers)
        powers.append(y)
        y = y * x
    start = seen[y.coeffs] + 1  # x^start is the first power that recurs
    period = len(powers) + 1 - start
    return powers[-(-start // period) * period - 1]


def _blocks(ring: RingPresentation, prims: list[Element]):
    """The block idempotents in a topological order, with into[j], the other
    blocks i whose component e_i*A*e_j is nonzero."""
    n = len(prims)
    left = [[x for x in (p * g for g in ring.gens()) if not x.is_zero()] for p in prims]
    edge = [
        [i != j and any(not (x * q).is_zero() for x in left[i]) for j, q in enumerate(prims)]
        for i in range(n)
    ]
    reach = [[i == j or edge[i][j] for j in range(n)] for i in range(n)]
    for m in range(n):
        for i in range(n):
            if reach[i][m]:
                reach[i] = [a or b for a, b in zip(reach[i], reach[m])]
    comps = []
    for i in range(n):
        comp = tuple(j for j in range(n) if reach[i][j] and reach[j][i])
        if comp[0] == i:
            comps.append(comp)
    # a block reached from another is reached from strictly more blocks
    comps.sort(key=lambda c: sum(reach[i][c[0]] for i in range(n)))
    blocks = [ring.sum(prims[i] for i in c) for c in comps]
    into = [
        {a for a, src in enumerate(comps) if a != b and any(edge[i][j] for i in src for j in dst)}
        for b, dst in enumerate(comps)
    ]
    return blocks, into


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
