"""Idempotent predicates: enumeration, semicentrality, semicentral reducedness.

An idempotent e is left semicentral when (1-e)*A*e = 0, i.e. its lower Peirce
component vanishes.  A ring is semicentral reduced when 0 and 1 are its only
semicentral idempotents; the one-element ring is not considered semicentral
reduced, which keeps triangulating idempotents nonzero.

A corner e*A*e is semicentral reduced exactly when the orthogonal primitive
idempotents p_i that split e form one block: one strongly connected
component of the Peirce graph, with an edge i -> j when p_i*A*p_j != 0
(e = 0 gives none).  A component that no outside edge enters gives the
semicentral idempotent e_S, the sum of its p_i (Birkenmeier, Heatherly, Kim
and Park, J. Algebra 230 (2000)).  A semicentral f other than 0 and e splits,
with e - f, into primitives with no edge from e - f's side into f's; complete
sets of primitive idempotents of a finite ring are conjugate up to order
(Krull-Schmidt; Lam, A First Course in Noncommutative Rings, ch. 8), and
conjugation keeps p_i*A*p_j != 0, so the p_i do not form one block either.
complete_triangulating_set takes its blocks from the same graph.

Each idempotent is split once per ring object: the ring's memo keeps the
splitting idempotent, or None for a primitive, beside the corner spans it
read (corners._peirce_span).  The "idempotent sweep" cap guards only the
listing of a corner, so a split read from the memo is never refused.

The idempotent powers a split tries and the unit inverses of the matrix
units come from one walk over the powers of an element, maps._power_walk.
"""
from __future__ import annotations

from math import gcd, isqrt, lcm

from .corners import _peirce_rows, _peirce_span, _require_idempotent, _vanishes
from .maps import _power_walk
from .presentation import Element, RingPresentation, require_cap


def enumerate_idempotents(ring: RingPresentation, cap: int | None = None) -> list[Element]:
    """All x with x*x = x, in lexicographic coefficient order."""
    require_cap(ring.order, cap, "idempotent sweep")
    return [x for x in ring.elements() if x.is_idempotent()]


def is_semicentral(ring: RingPresentation, e: Element) -> bool:
    _require_idempotent(e)
    return _vanishes(ring, ring.one_element() - e, e)


def has_reduced_corner(ring: RingPresentation, e: Element, cap: int | None = None) -> bool:
    """True when the corner e*A*e is semicentral reduced: its semicentral
    idempotents are exactly 0 and e, two of them (the zero corner has one).
    cap bounds the corners listed while splitting e; a split read from the
    ring's memo lists nothing, so it is never refused."""
    return len(_blocks(ring, _primitive_idempotents(ring, e, cap))[0]) == 1


def is_semicentral_reduced(ring: RingPresentation, cap: int | None = None) -> bool:
    """True when the only semicentral idempotents are 0 and 1 (and 0 != 1)."""
    return has_reduced_corner(ring, ring.one_element(), cap)


def _primitive_idempotents(ring: RingPresentation, e: Element, cap: int | None) -> list[Element]:
    """Orthogonal primitive idempotents summing to e; none when e = 0.  Each
    idempotent p is split once per ring object: the ring's memo keeps the
    answer under ("split", p)."""
    todo = [] if e.is_zero() else [e]
    prims = []
    while todo:
        p = todo.pop()
        q = ring._remember(("split", p), lambda: _splitting_idempotent(ring, p, cap))
        if q is None:
            prims.append(p)
        else:
            todo += [q, p - q]
    return prims


def _splitting_idempotent(ring: RingPresentation, p: Element, cap: int | None):
    """An idempotent of p*A*p other than 0 and p, or None when p is
    primitive.  A corner that p generates additively is Z_n, whose only
    idempotents are 0 and p when n is a prime power.  Otherwise the
    idempotent powers of the p*g*p that span the corner are tried, then its
    elements, which cap bounds."""
    corner = _peirce_span(ring, p, p)
    n = corner.order
    if _additive_order(p) == n and _is_prime_power(n):
        return None
    for x in corner.spanning:
        q = _power_walk(x, p)[0]
        if not q.is_zero() and q != p:
            return q
    require_cap(n, cap, "idempotent sweep")
    for q in corner.elements():
        if not q.is_zero() and q != p and q.is_idempotent():
            return q
    return None


def _additive_order(x: Element) -> int:
    return lcm(*(d // gcd(c, d) for c, d in zip(x.coeffs, x.ring.orders)))


def _least_prime(n: int) -> int:
    return next((d for d in range(2, isqrt(n) + 1) if n % d == 0), n)


def _is_prime_power(n: int) -> bool:
    q = _least_prime(n)
    while n % q == 0:
        n //= q
    return n == 1


def _blocks(ring: RingPresentation, prims: list[Element]):
    """The blocks of prims (the strongly connected components of their Peirce
    graph) in a topological order, with into[j], the other blocks i whose
    component e_i*A*e_j is nonzero."""
    n = len(prims)
    if n == 1:  # one primitive is one block, with no edges to find
        return prims, [set()]
    edge = [
        [i != j and not _vanishes(ring, p, q) for j, q in enumerate(prims)]
        for i, p in enumerate(prims)
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


def _matrix_unit_system(ring: RingPresentation, prims: list[Element]):
    """(row, col) with row[j] = E_1j and col[j] = E_j1, matrix units over
    D = p_1*A*p_1 for the primitives p_1, ..., p_n (row[0] = col[0] = p_1),
    when every p_j is equivalent to p_1; None otherwise.

    The products x*y of x = p_1*g*p_j and y = p_j*h*p_1 over the generators
    g, h span p_1*A*p_j*A*p_1, an ideal of the local ring D.  It is D when
    p_j is equivalent to p_1 (the product E_1j*E_j1 = p_1 lies in it) and
    lies in J(D), the non-units, otherwise; J(D) is additive, so p_j is
    equivalent to p_1 exactly when some x*y is a unit u of D.  Then
    x*(y*u^-1) = p_1, and y*u^-1*x is a nonzero idempotent of the local
    corner p_j*A*p_j, which is p_j (Lam, A First Course in Noncommutative
    Rings, sections 21-23)."""
    p = prims[0]
    row, col = [p], [p]
    for r in prims[1:]:
        xs = [x for x in _peirce_rows(ring, p, r) if not x.is_zero()]
        ys = [y for y in _peirce_rows(ring, r, p) if not y.is_zero()]
        pair = next(
            ((x, y * v) for x in xs for y in ys for v in [_power_walk(x * y, p)[1]]
             if v is not None),
            None,
        )
        if pair is None:
            return None
        row.append(pair[0])
        col.append(pair[1])
    return tuple(row), tuple(col)


def _residue_order(d: RingPresentation) -> int:
    """q = |D/J(D)| for a local ring D, without listing D.  D/J(D) is the
    field F_q, q = p^f for the one prime p dividing |D|, where x -> x^p is
    additive; so f is the least exponent at which g^(p^f) - g lies in J(D)
    for every generator g of D.  J(D) is the set of nilpotents, and its
    nilpotency index is at most the length of D, log_p |D|: the powers of
    J(D) fall strictly until 0, each by a factor of at least p.  So x lies
    in J(D) exactly when x^(2^s) = 0 for the least 2^s >= log_p |D|; an x
    outside J(D) is a unit, and no power of a unit is 0."""
    p = _least_prime(d.order)
    one = d.one_element()
    length, n = 0, d.order
    while n > 1:
        n, length = n // p, length + 1
    squarings = (length - 1).bit_length()

    def nilpotent(x: Element) -> bool:
        for _ in range(squarings):
            x = x * x
        return x.is_zero()

    def power(x: Element, k: int) -> Element:
        acc = one
        while k:
            if k & 1:
                acc = acc * x
            x, k = x * x, k >> 1
        return acc

    gens = d.gens()
    images, q = gens, 1
    while True:
        images, q = [power(y, p) for y in images], q * p
        if all(nilpotent(y - g) for y, g in zip(images, gens)):
            return q
