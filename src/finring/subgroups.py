"""Additive subgroups of a presented ring's coefficient group.

A subgroup of Z_{d1} x ... x Z_{dk} is the image of an integer lattice that
contains every d_i * e_i.  We keep the Hermite normal form of that lattice as
the canonical key: it is upper triangular with positive pivots dividing the
column modulus and entries above each pivot reduced, and it is unique, so two
spans are equal exactly when their Hermite forms are equal bit for bit.  The
subgroup order is the product of d_i / pivot_i.

hermite_form works modulo the diagonal (Cohen, A Course in Computational
Algebraic Number Theory, 1993, section 2.4.2): since d_l * e_l lies in the
lattice, every column-l entry is kept reduced mod d_l, and each column is
cleared with extended gcds.  The steps change the basis, never the lattice,
and the Hermite form of a lattice is unique, so the output is the one any
correct Hermite algorithm gives, bit for bit.

The Hermite rows are deliberately not used as additive generators.  In a mixed
modulus ambient they need not be independent: span{(1,1)} inside Z_2 x Z_4 is
cyclic of order 4, while its Hermite pivots alone would suggest Z_2 x Z_2.  A
Smith normal form pass over the quotient lattice supplies honest independent
cyclic generators, which is what corner presentations and additive map domains
require.

With W writing diag(orders) in the Hermite rows H and U * W * V = diag(s),
a member x = c * H has coordinate (U * c)_i mod s_i on the generator at each
index i with s_i != 1 (it would be 0 mod 1 elsewhere), so a coordinate is one
dot product with a kept row of U; a non-member has no integer c.  The Smith
form runs in the ambient rank: dropping the rows d_i * e_i first may give
other, equally valid generators (a Smith transform is not unique), and with
them other canonical output.  Its two shortcuts (the pivot scan stops at an
entry +-1, and a pivot 1 needs no divisibility scan) change no pivot and no
row of U.
"""
from __future__ import annotations

import operator

from .errors import AmbientMismatch, StructureViolation
from .presentation import Element, RingPresentation


def hermite_form(rows, orders) -> tuple[tuple[int, ...], ...]:
    """Canonical upper-triangular basis of the lattice spanned by the given
    rows together with diag(orders).  Returns a k x k tuple matrix.

    The lattice contains d_l * e_l, so every column-l entry is kept reduced
    mod d_l.  Column by column, the pivot d * e_col meets each row r with
    entry a in column col through the unimodular step
    (P, r) -> (x*P + y*r, (a/h)*P - (g/h)*r), x*g + y*a = h = gcd(g, a),
    which leaves the pivot entry h and clears r's; the cleared rows, which
    are zero before col + 1, go on to the next column.  Each entry above a
    pivot is reduced mod that pivot last."""
    k = len(orders)
    active = [r for r in (list(map(operator.mod, row, orders)) for row in rows) if any(r)]
    pivots, tails = [], []
    for col, d in enumerate(orders):
        rest_orders = orders[col + 1:]
        g, p = d, [0] * len(rest_orders)  # the pivot row d * e_col, by its tail
        rest = []
        for row in active:
            a, r = row[0], row[1:]
            if not a:
                if any(r):
                    rest.append(r)
                continue
            h, x, y = _extended_gcd(g, a)
            other = [(a // h * w - g // h * v) % n for v, w, n in zip(r, p, rest_orders)]
            if h != g:  # x = 0 when a divides g, and then y = 1
                p = [(x * w + y * v) % n for v, w, n in zip(r, p, rest_orders)] if x else r
                g = h
            if any(other):
                rest.append(other)
        pivots.append(g)
        tails.append(p)
        active = rest
    hnf = [[0] * i + [g] + p for i, (g, p) in enumerate(zip(pivots, tails))]
    for i, row in enumerate(hnf):
        for j in range(i + 1, k):
            q = row[j] // pivots[j]
            if q:
                row[j:] = [v - q * w for v, w in zip(row[j:], hnf[j][j:])]
    return tuple(map(tuple, hnf))


def _extended_gcd(g: int, a: int) -> tuple[int, int, int]:
    """(h, x, y) with x*g + y*a = h = gcd(g, a), for g > 0 and a >= 0."""
    x0, y0, x1, y1 = 1, 0, 0, 1
    while a:
        q, r = divmod(g, a)
        g, a = a, r
        x0, x1 = x1, x0 - q * x1
        y0, y1 = y1, y0 - q * y1
    return g, x0, y0


def smith_form_left(w):
    """Diagonalize the square integer matrix w as U * w * V = diag(s) with
    U, V unimodular.  Returns (s, U, Uinv); V is not tracked because only row
    coordinates are needed by callers.  s is ascending under divisibility."""
    n = len(w)
    s = [list(row) for row in w]
    u = [[int(i == j) for j in range(n)] for i in range(n)]
    uinv = [[int(i == j) for j in range(n)] for i in range(n)]

    def row_add(i, j, q):  # row_i += q * row_j
        s[i] = [a + q * b for a, b in zip(s[i], s[j])]
        u[i] = [a + q * b for a, b in zip(u[i], u[j])]
        for r in range(n):
            uinv[r][j] -= q * uinv[r][i]

    def row_swap(i, j):
        s[i], s[j] = s[j], s[i]
        u[i], u[j] = u[j], u[i]
        for r in range(n):
            uinv[r][i], uinv[r][j] = uinv[r][j], uinv[r][i]

    def row_neg(i):
        s[i] = [-a for a in s[i]]
        u[i] = [-a for a in u[i]]
        for r in range(n):
            uinv[r][i] = -uinv[r][i]

    def col_add(j, l, q):  # col_j += q * col_l, right multiplication only
        for r in range(n):
            s[r][j] += q * s[r][l]

    def col_swap(j, l):
        for r in range(n):
            s[r][j], s[r][l] = s[r][l], s[r][j]

    for t in range(n):
        while True:
            # the first entry of least absolute value; nothing is below 1
            best, least = None, 0
            for i in range(t, n):
                for j in range(t, n):
                    v = abs(s[i][j])
                    if v and (best is None or v < least):
                        best, least = (i, j), v
                        if v == 1:
                            break
                if least == 1:
                    break
            if best is None:
                break
            bi, bj = best
            if bi != t:
                row_swap(t, bi)
            if bj != t:
                col_swap(t, bj)
            if s[t][t] < 0:
                row_neg(t)
            p = s[t][t]
            dirty = False
            for i in range(t + 1, n):
                if s[i][t]:
                    row_add(i, t, -(s[i][t] // p))
                    if s[i][t]:
                        dirty = True
            for j in range(t + 1, n):
                if s[t][j]:
                    col_add(j, t, -(s[t][j] // p))
                    if s[t][j]:
                        dirty = True
            if dirty:
                continue
            if p == 1:  # every entry is a multiple of 1
                break
            off = None
            for i in range(t + 1, n):
                for j in range(t + 1, n):
                    if s[i][j] % p:
                        off = i
                        break
                if off is not None:
                    break
            if off is None:
                break
            row_add(t, off, 1)
    return [s[i][i] for i in range(n)], u, uinv


class Subgroup:
    """An additive subgroup in canonical form, with decomposition on demand.
    spanning holds the elements a span was made from, in their given order."""

    def __init__(self, ring: RingPresentation, hnf: tuple[tuple[int, ...], ...], spanning=()):
        self.ring = ring
        self.hnf = hnf
        self.spanning = spanning
        self._dec = None
        self._elements = None

    @classmethod
    def span(cls, ring: RingPresentation, elements) -> "Subgroup":
        elements = tuple(elements)
        for e in elements:
            if e.ring != ring:
                raise AmbientMismatch("span of elements from a different ring")
        return cls(ring, hermite_form([e.coeffs for e in elements], ring.orders), elements)

    @classmethod
    def zero(cls, ring: RingPresentation) -> "Subgroup":
        return cls.span(ring, ())

    @classmethod
    def full(cls, ring: RingPresentation) -> "Subgroup":
        return cls.span(ring, ring.gens())

    @property
    def order(self) -> int:
        n = 1
        for i, d in enumerate(self.ring.orders):
            n *= d // self.hnf[i][i]
        return n

    def is_trivial(self) -> bool:
        return self.order == 1

    # -- decomposition into independent cyclic generators -----------------

    def _decomposition(self):
        if self._dec is not None:
            return self._dec
        k = len(self.ring.orders)
        # w expresses diag(orders) in the Hermite basis; solve column by column.
        w = [[0] * k for _ in range(k)]
        for j in range(k):
            target = tuple(self.ring.orders[i] if i == j else 0 for i in range(k))
            if self.hnf[j] == target:  # _solve_rows would give e_j
                w[j][j] = 1
                continue
            col = _solve_rows(self.hnf, target)
            for i in range(k):
                w[i][j] = col[i]
        s, u, uinv = smith_form_left(w)
        hnf = self.hnf
        idx = [i for i in range(k) if s[i] != 1]
        lifts = [[sum(hnf[t][r] * uinv[t][i] for t in range(k)) for r in range(k)] for i in idx]
        gens = tuple(map(self.ring.element, lifts))
        self._dec = (gens, tuple(s[i] for i in idx), tuple(u[i] for i in idx))
        return self._dec

    @property
    def generators(self) -> tuple[Element, ...]:
        return self._decomposition()[0]

    @property
    def generator_orders(self) -> tuple[int, ...]:
        return self._decomposition()[1]

    def coords(self, x: Element) -> tuple[int, ...]:
        """Coordinates of x over the cyclic generators; raises if x is not a
        member.  The coordinate map is additive."""
        if x.ring != self.ring:
            raise AmbientMismatch("element from a different ring")
        _gens, orders, rows = self._decomposition()
        c = _solve_rows(self.hnf, x.coeffs)
        if c is None:
            raise StructureViolation("element is not in the subgroup")
        return tuple(sum(map(operator.mul, row, c)) % o for row, o in zip(rows, orders))

    def element_from_coords(self, coords) -> Element:
        gens = self.generators
        if len(coords) != len(gens):
            raise StructureViolation("coordinate arity mismatch")
        acc = self.ring.zero()
        for c, g in zip(coords, gens):
            acc = acc + c * g
        return acc

    def contains(self, x: Element) -> bool:
        if x.ring != self.ring:
            raise AmbientMismatch("element from a different ring")
        return _solve_rows(self.hnf, x.coeffs) is not None

    def __contains__(self, x: Element) -> bool:
        return self.contains(x)

    def least_in_coset(self, x: Element) -> Element:
        """The lexicographically least element of x + self.  Hermite row i
        is zero before column i, so subtracting multiples of the rows in turn
        leaves each coordinate at its least residue mod the row's pivot
        without moving the coordinates already cleared."""
        if x.ring != self.ring:
            raise AmbientMismatch("element from a different ring")
        v = list(x.coeffs)
        for i, row in enumerate(self.hnf):
            q = v[i] // row[i]
            if q:
                v = [a - q * b for a, b in zip(v, row)]
        return self.ring.element(v)

    def elements(self) -> list[Element]:
        """All members, sorted lexicographically by coefficients.  The
        generators are independent, so the sums of c*g over 0 <= c < the
        order of g name each member once."""
        if self._elements is None:
            out = [self.ring.zero()]
            for g, o in zip(self.generators, self.generator_orders):
                out = [e + c * g for e in out for c in range(o)]
            out.sort()
            self._elements = out
        return list(self._elements)

    def __eq__(self, other):
        if not isinstance(other, Subgroup):
            return NotImplemented
        return self.ring == other.ring and self.hnf == other.hnf

    def __hash__(self):
        return hash((self.ring, self.hnf))

    def __repr__(self):
        return "Subgroup(order=%d of %r)" % (self.order, self.ring)


def _solve_rows(hnf, target):
    """Solve sum_i c[i] * hnf[i] = target exactly in integers, for the
    upper-triangular rows hnf of a Hermite form.  Returns None if no integer
    solution exists."""
    k = len(hnf)
    c = [0] * k
    rem = list(target)
    for i in range(k):
        q, r = divmod(rem[i], hnf[i][i])
        if r:
            return None
        c[i] = q
        if q:
            for r2 in range(i, k):
                rem[r2] -= q * hnf[i][r2]
    return c
