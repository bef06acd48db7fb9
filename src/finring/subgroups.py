"""Additive subgroups of a presented ring's coefficient group.

A subgroup of Z_{d1} x ... x Z_{dk} is the image of an integer lattice that
contains every d_i * e_i.  We keep the Hermite normal form of that lattice as
the canonical key: it is upper triangular with positive pivots dividing the
column modulus and entries above each pivot reduced, and it is unique, so two
spans are equal exactly when their Hermite forms are equal bit for bit.  The
subgroup order is the product of d_i / pivot_i.

The Hermite rows are deliberately not used as additive generators.  In a mixed
modulus ambient they need not be independent: span{(1,1)} inside Z_2 x Z_4 is
cyclic of order 4, while its Hermite pivots alone would suggest Z_2 x Z_2.  A
Smith normal form pass over the quotient lattice supplies honest independent
cyclic generators, which is what corner presentations and additive map domains
require.
"""
from __future__ import annotations

from .errors import AmbientMismatch, StructureViolation
from .presentation import Element, RingPresentation


def hermite_form(rows, orders) -> tuple[tuple[int, ...], ...]:
    """Canonical upper-triangular basis of the lattice spanned by the given
    rows together with diag(orders).  Returns a k x k tuple matrix."""
    k = len(orders)
    mat = [list(r) for r in rows]
    mat += [[orders[i] if j == i else 0 for j in range(k)] for i in range(k)]
    piv = 0
    for col in range(k):
        while True:
            nz = [r for r in range(piv, len(mat)) if mat[r][col]]
            if not nz:
                raise StructureViolation("lattice lost full rank; invalid input")
            r_best = min(nz, key=lambda r: (abs(mat[r][col]), r))
            if r_best != piv:
                mat[piv], mat[r_best] = mat[r_best], mat[piv]
            if mat[piv][col] < 0:
                mat[piv] = [-v for v in mat[piv]]
            p = mat[piv][col]
            done = True
            for r in range(piv + 1, len(mat)):
                if mat[r][col]:
                    q = mat[r][col] // p
                    mat[r] = [a - q * b for a, b in zip(mat[r], mat[piv])]
                    if mat[r][col]:
                        done = False
            if done:
                break
        p = mat[piv][col]
        for r in range(piv):
            q = mat[r][col] // p
            if q:
                mat[r] = [a - q * b for a, b in zip(mat[r], mat[piv])]
        piv += 1
    return tuple(tuple(mat[i]) for i in range(k))


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
            best = None
            for i in range(t, n):
                for j in range(t, n):
                    v = s[i][j]
                    if v and (best is None or abs(v) < abs(s[best[0]][best[1]])):
                        best = (i, j)
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
    """An additive subgroup in canonical form, with decomposition on demand."""

    def __init__(self, ring: RingPresentation, hnf: tuple[tuple[int, ...], ...]):
        self.ring = ring
        self.hnf = hnf
        self._dec = None
        self._elements = None

    @classmethod
    def span(cls, ring: RingPresentation, elements) -> "Subgroup":
        rows = []
        for e in elements:
            if e.ring != ring:
                raise AmbientMismatch("span of elements from a different ring")
            rows.append(e.coeffs)
        return cls(ring, hermite_form(rows, ring.orders))

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
            target = [self.ring.orders[i] if i == j else 0 for i in range(k)]
            col = _solve_rows(self.hnf, target)
            for i in range(k):
                w[i][j] = col[i]
        s, u, uinv = smith_form_left(w)
        gens = []
        gen_orders = []
        for i in range(k):
            if s[i] == 1:
                continue
            lift = [sum(self.hnf[t][r] * uinv[t][i] for t in range(k)) for r in range(k)]
            gens.append(self.ring.element(lift))
            gen_orders.append(s[i])
        idx = [i for i in range(k) if s[i] != 1]
        self._dec = (u, tuple(s), tuple(gens), tuple(gen_orders), tuple(idx))
        return self._dec

    @property
    def generators(self) -> tuple[Element, ...]:
        return self._decomposition()[2]

    @property
    def generator_orders(self) -> tuple[int, ...]:
        return self._decomposition()[3]

    def coords(self, x: Element) -> tuple[int, ...]:
        """Coordinates of x over the cyclic generators; raises if x is not a
        member.  The coordinate map is additive."""
        if x.ring != self.ring:
            raise AmbientMismatch("element from a different ring")
        u, s, _gens, _go, idx = self._decomposition()
        c = _solve_rows(self.hnf, list(x.coeffs), strict=False)
        if c is None:
            raise StructureViolation("element is not in the subgroup")
        k = len(s)
        y = [sum(u[i][r] * c[r] for r in range(k)) for i in range(k)]
        for i in range(k):
            if i not in idx and y[i] % s[i]:
                raise StructureViolation("inconsistent coordinates; invalid state")
        return tuple(y[i] % s[i] for i in idx)

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
        return _solve_rows(self.hnf, list(x.coeffs), strict=False) is not None

    def __contains__(self, x: Element) -> bool:
        return self.contains(x)

    def elements(self) -> list[Element]:
        """All members, sorted lexicographically by coefficients."""
        if self._elements is None:
            out = [self.ring.zero()]
            for g, o in zip(self.generators, self.generator_orders):
                out = [e + c * g for e in out for c in range(o)]
            out.sort()
            if len(out) != self.order:
                raise StructureViolation("generator decomposition does not tile the subgroup")
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


def _solve_rows(hnf, target, strict: bool = True):
    """Solve sum_i c[i] * hnf[i] = target exactly in integers, for the
    upper-triangular rows hnf of a Hermite form.  Returns None (or raises
    when strict) if no integer solution exists."""
    k = len(hnf)
    c = [0] * k
    rem = list(target)
    for i in range(k):
        v = rem[i]
        q, r = divmod(v, hnf[i][i])
        if r:
            if strict:
                raise StructureViolation("no exact solution in triangular solve")
            return None
        c[i] = q
        if q:
            for r2 in range(i, k):
                rem[r2] -= q * hnf[i][r2]
    if any(rem):
        if strict:
            raise StructureViolation("triangular solve left a nonzero tail")
        return None
    return c
