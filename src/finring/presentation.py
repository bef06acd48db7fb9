"""Finite rings presented by structure constants.

A ring here is an additive group Z_{d1} x ... x Z_{dk} with a bilinear
multiplication described by a tensor c, where generator products expand as

    g_i * g_j = sum_l c[i][j][l] * g_l      (mod d_l componentwise).

Validation checks, in order: shapes and reduction of all entries, order
compatibility (d_i * (g_i g_j) = d_j * (g_i g_j) = 0, which makes the bilinear
extension well defined), the two-sided unit law on generators, and
associativity on all generator triples.  Bilinearity then carries these to the
whole ring, so a validated presentation is an honest finite unital ring.

Products read a sparse copy of the tensor, built before validation:
_terms[i][j] lists the nonzero (l, c[i][j][l]).  A product visits only the
nonzero coefficients of both factors and the terms of their generator
products, accumulates in plain integers and reduces once.  Matrix-unit rings
such as T_n and M_n have at most one term per generator product.  The unit
law runs through that product kernel; associativity is checked on _terms
directly, with no product call: both bracketings of the triples (i, j, l)
for one pair (i, j) and every l are packed into one integer each and
compared.  SlotPacking owns that format and reads an unequal pair of
integers slot by slot; maps.ring_iso_failure decides multiplicativity in
the same format.

Elements are immutable coefficient tuples tied to their presentation; mixing
elements of different presentations raises AmbientMismatch.  gens() returns
one tuple of generator elements built with the presentation.  A presentation
is also an additive side of maps (see maps.py), like a Subgroup: its ring is
itself, its generators are gens(), and the coordinates of an element are its
coefficients.
"""
from __future__ import annotations

import itertools
import operator

from .errors import (
    AmbientMismatch,
    CapExceeded,
    NonAssociative,
    OrderViolation,
    ShapeMismatch,
    UnitFailure,
)

# Exhaustive element sweeps refuse to run past this many elements unless the
# caller raises the cap explicitly.
DEFAULT_ENUMERATION_CAP = 4096


def _as_int_tuple(seq, what: str) -> tuple[int, ...]:
    """seq as a tuple of ints; a float, string or bool raises, as in
    jsonio, so no value is silently rounded or parsed."""
    try:
        out = tuple(seq)
        ok = all(isinstance(v, int) and not isinstance(v, bool) for v in out)
    except TypeError:
        ok = False
    if not ok:
        raise ShapeMismatch("%s must be a sequence of integers" % what)
    return out


class SlotPacking:
    """The packed format of the bilinear checks: a grid of unreduced
    coefficients in one integer.

    Slot (x, n), coefficient n of group x, sits at bit
    (x * len(orders) + n) * width.  Both integers compared hold a value in
    [0, bound] in every slot, and width leaves one bit more, so adding the
    offset 2^(width - 1) to each slot of left - right keeps every slot
    nonnegative: no slot borrows from the next.  Slot (x, n) of the two
    sides agrees when that difference is 0 mod orders[n].  bound is at
    least max(orders) - 1.
    """

    __slots__ = ("group", "_orders", "_width", "_groups", "_half", "_slot", "_offset", "_low")

    def __init__(self, orders: tuple[int, ...], groups: int, bound: int):
        k = len(orders)
        self._orders = orders
        self._width = width = bound.bit_length() + 1
        self.group = k * width  # bits per group
        self._groups = groups
        self._half = half = 1 << (width - 1)
        self._slot = (1 << width) - 1
        spread = sum(1 << x * self.group for x in range(groups))  # a 1 in each group
        self._offset = half * sum(1 << n * width for n in range(k)) * spread
        self._low = None
        if all(d & (d - 1) == 0 for d in orders):
            # half > bound >= d - 1 is a multiple of each order: a slot is
            # 0 mod d when its low bits are
            self._low = sum((d - 1) << n * width for n, d in enumerate(orders)) * spread

    def pack(self, terms) -> int:
        """One group's slots from the (n, c) pairs of a coefficient vector."""
        width = self._width
        return sum(c << n * width for n, c in terms)

    def first_unequal_group(self, left: int, right: int) -> int | None:
        """The first group x with a slot (x, n) where left - right is not
        0 mod orders[n]; None when there is none."""
        if left == right:
            return None
        diff = left - right + self._offset
        if self._low is not None and not diff & self._low:
            return None
        k, width, slot, half = len(self._orders), self._width, self._slot, self._half
        for x in range(self._groups):
            for n, d in enumerate(self._orders):
                if ((diff >> (x * k + n) * width & slot) - half) % d:
                    return x
        return None


class RingPresentation:
    """A validated structure-constant presentation of a finite unital ring."""

    __slots__ = ("orders", "mul", "one", "name", "_hash", "_terms", "_gens")

    def __init__(self, orders, mul, one, name: str | None = None):
        self.orders = _as_int_tuple(orders, "orders")
        k = len(self.orders)
        for i, d in enumerate(self.orders):
            if d < 2:
                raise ShapeMismatch("generator order at index %d must be >= 2" % i)

        if len(mul) != k:
            raise ShapeMismatch("mul tensor must have %d rows" % k)
        rows = []
        for i, row in enumerate(mul):
            if len(row) != k:
                raise ShapeMismatch("mul row %d must have %d entries" % (i, k))
            cols = []
            for j, vec in enumerate(row):
                v = _as_int_tuple(vec, "mul[%d][%d]" % (i, j))
                if len(v) != k:
                    raise ShapeMismatch("mul[%d][%d] must have %d coefficients" % (i, j, k))
                for l, c in enumerate(v):
                    if not 0 <= c < self.orders[l]:
                        raise ShapeMismatch(
                            "mul[%d][%d][%d] = %d is not reduced mod %d; "
                            "reduce all inputs before validation" % (i, j, l, c, self.orders[l])
                        )
                cols.append(v)
            rows.append(tuple(cols))
        self.mul = tuple(rows)

        u = _as_int_tuple(one, "one")
        if len(u) != k:
            raise ShapeMismatch("unit vector must have %d coefficients" % k)
        for l, c in enumerate(u):
            if not 0 <= c < self.orders[l]:
                raise ShapeMismatch(
                    "one[%d] = %d is not reduced mod %d; "
                    "reduce all inputs before validation" % (l, c, self.orders[l])
                )
        self.one = u
        self.name = name
        self._hash = hash((self.orders, self.mul, self.one))
        self._terms = tuple(
            tuple(tuple((l, c) for l, c in enumerate(vec) if c) for vec in row)
            for row in self.mul
        )
        self._gens = tuple(Element(self, self._basis_coeffs(i)) for i in range(k))

        self._check_order_compat()
        self._check_unit()
        self._check_associativity()

    # -- validation ------------------------------------------------------

    def _check_order_compat(self):
        # a zero constant cannot fail, so the sparse table is walked, row-major
        orders = self.orders
        for i, row in enumerate(self._terms):
            for j, terms in enumerate(row):
                for l, c in terms:
                    if (orders[i] * c) % orders[l] or (orders[j] * c) % orders[l]:
                        raise OrderViolation(i, j)

    def _check_unit(self):
        for i, gen in enumerate(self._gens):
            g = gen.coeffs
            if self._mul_coeffs(self.one, g) != g or self._mul_coeffs(g, self.one) != g:
                raise UnitFailure(i)

    def _check_associativity(self):
        # (g_i g_j) g_l = sum over (m, c) in terms[i][j] of c * (g_m g_l), and
        # g_i (g_j g_l) = sum over (m, c) in terms[j][l] of c * (g_i g_m).
        # Both are packed, for all l at once, into one integer per (i, j):
        # group l holds the unreduced coefficients of the bracketing at l,
        # each at most k * top^2.
        terms = self._terms
        orders = self.orders
        k = len(orders)
        top = max(orders, default=1)
        packing = SlotPacking(orders, k, k * top * top)
        group = packing.group
        # products[m][l] = g_m g_l in one group
        products = [[packing.pack(vec) for vec in row] for row in terms]
        # rows[m]: g_m g_l in group l; cols[j][m]: the coefficient of g_m in
        # g_j g_l, in group l, so products[i][m] * cols[j][m] adds
        # c * (g_i g_m) to every group l
        rows = [sum(p << (l * group) for l, p in enumerate(row)) for row in products]
        cols = [[0] * k for _ in range(k)]
        for j in range(k):
            for l in range(k):
                for m, c in terms[j][l]:
                    cols[j][m] += c << (l * group)
        for i in range(k):
            row_i = [(p, m) for m, p in enumerate(products[i]) if p]
            for j in range(k):
                left = 0
                for m, c in terms[i][j]:
                    left += c * rows[m]
                cols_j = cols[j]
                right = 0
                for p, m in row_i:
                    right += p * cols_j[m]
                l = packing.first_unequal_group(left, right)
                if l is not None:
                    raise NonAssociative(i, j, l)

    # -- coefficient arithmetic ------------------------------------------

    def _basis_coeffs(self, i: int) -> tuple[int, ...]:
        return tuple(1 if j == i else 0 for j in range(len(self.orders)))

    def _reduce(self, coeffs) -> tuple[int, ...]:
        return tuple(map(operator.mod, coeffs, self.orders))

    def _add_coeffs(self, a, b):
        return tuple(map(operator.mod, map(operator.add, a, b), self.orders))

    def _neg_coeffs(self, a):
        return tuple(map(operator.mod, map(operator.neg, a), self.orders))

    def _scale_coeffs(self, n, a):
        return tuple([n * x % d for x, d in zip(a, self.orders)])

    def _mul_coeffs(self, a, b):
        acc = [0] * len(self.orders)
        b_terms = list(itertools.compress(enumerate(b), b))
        for i, x in itertools.compress(enumerate(a), a):
            row = self._terms[i]
            for j, y in b_terms:
                terms = row[j]
                if terms:
                    xy = x * y
                    for l, c in terms:
                        acc[l] += xy * c
        return tuple(map(operator.mod, acc, self.orders))

    # -- public surface --------------------------------------------------

    @property
    def order(self) -> int:
        n = 1
        for d in self.orders:
            n *= d
        return n

    @property
    def rank(self) -> int:
        return len(self.orders)

    # -- the additive side interface shared with Subgroup -----------------

    @property
    def ring(self) -> "RingPresentation":
        return self

    @property
    def generators(self) -> tuple["Element", ...]:
        return self._gens

    @property
    def generator_orders(self) -> tuple[int, ...]:
        return self.orders

    def coords(self, x: "Element") -> tuple[int, ...]:
        """Coordinates of x over the generators: its coefficients."""
        if x.ring != self:
            raise AmbientMismatch("argument from the wrong ring")
        return x.coeffs

    def zero(self) -> "Element":
        return Element(self, (0,) * len(self.orders))

    def one_element(self) -> "Element":
        return Element(self, self.one)

    def gen(self, i: int) -> "Element":
        if not 0 <= i < self.rank:
            raise ShapeMismatch("generator index %d outside range(%d)" % (i, self.rank))
        return self._gens[i]

    def gens(self) -> tuple["Element", ...]:
        return self._gens

    def element(self, coeffs) -> "Element":
        c = _as_int_tuple(coeffs, "coefficients")
        if len(c) != len(self.orders):
            raise ShapeMismatch("element needs %d coefficients" % len(self.orders))
        return Element(self, self._reduce(c))

    def elements(self):
        """All elements in lexicographic coefficient order.  No cap is applied
        here; callers running exhaustive sweeps must guard with require_cap."""
        for coeffs in itertools.product(*(range(d) for d in self.orders)):
            yield Element(self, coeffs)

    def sum(self, elems) -> "Element":
        acc = self.zero()
        for e in elems:
            acc = acc + e
        return acc

    def permuted(self, perm) -> "RingPresentation":
        """Re-present the same ring with generators listed in a new order.

        perm[i] names the old index of new generator i.
        """
        perm = tuple(perm)
        k = len(self.orders)
        if sorted(perm) != list(range(k)):
            raise ShapeMismatch("not a permutation of generator indices")
        inv = [0] * k
        for new, old in enumerate(perm):
            inv[old] = new
        orders = tuple(self.orders[old] for old in perm)

        def remap(vec):
            return tuple(vec[perm[l]] for l in range(k))

        mul = tuple(
            tuple(remap(self.mul[perm[i]][perm[j]]) for j in range(k)) for i in range(k)
        )
        return RingPresentation(orders, mul, remap(self.one), name=self.name)

    def __eq__(self, other):
        if self is other:
            return True
        if not isinstance(other, RingPresentation):
            return NotImplemented
        return (
            self._hash == other._hash
            and self.orders == other.orders
            and self.mul == other.mul
            and self.one == other.one
        )

    def __hash__(self):
        return self._hash

    def __repr__(self):
        label = self.name if self.name else "x".join("Z%d" % d for d in self.orders) or "0"
        return "RingPresentation(%s, |A|=%d)" % (label, self.order)


def validate_presentation(orders, mul, one, name: str | None = None) -> RingPresentation:
    """Validate raw structure-constant data, returning the presentation.

    Raises the first violated axiom: ShapeMismatch for malformed or unreduced
    input, OrderViolation(i, j), UnitFailure(i) or NonAssociative(i, j, l).
    """
    return RingPresentation(orders, mul, one, name=name)


class Element:
    """An element of a presented ring, stored as reduced coefficients."""

    __slots__ = ("ring", "coeffs")

    def __init__(self, ring: RingPresentation, coeffs: tuple[int, ...]):
        self.ring = ring
        self.coeffs = coeffs

    def _require_same(self, other: "Element"):
        if self.ring is not other.ring and self.ring != other.ring:
            raise AmbientMismatch("elements belong to different rings")

    def __add__(self, other):
        if not isinstance(other, Element):
            return NotImplemented
        self._require_same(other)
        return Element(self.ring, self.ring._add_coeffs(self.coeffs, other.coeffs))

    def __sub__(self, other):
        if not isinstance(other, Element):
            return NotImplemented
        self._require_same(other)
        return Element(
            self.ring,
            self.ring._add_coeffs(self.coeffs, self.ring._neg_coeffs(other.coeffs)),
        )

    def __neg__(self):
        return Element(self.ring, self.ring._neg_coeffs(self.coeffs))

    def __mul__(self, other):
        if isinstance(other, Element):
            self._require_same(other)
            return Element(self.ring, self.ring._mul_coeffs(self.coeffs, other.coeffs))
        if isinstance(other, int):
            return Element(self.ring, self.ring._scale_coeffs(other, self.coeffs))
        return NotImplemented

    def __rmul__(self, other):
        if isinstance(other, int):
            return Element(self.ring, self.ring._scale_coeffs(other, self.coeffs))
        return NotImplemented

    def is_zero(self) -> bool:
        return not any(self.coeffs)

    def is_idempotent(self) -> bool:
        return self.ring._mul_coeffs(self.coeffs, self.coeffs) == self.coeffs

    def __eq__(self, other):
        if not isinstance(other, Element):
            return NotImplemented
        return self.coeffs == other.coeffs and self.ring == other.ring

    def __lt__(self, other):
        if not isinstance(other, Element):
            return NotImplemented
        self._require_same(other)
        return self.coeffs < other.coeffs

    def __hash__(self):
        return hash((self.ring._hash, self.coeffs))

    def __repr__(self):
        return "Element%r" % (self.coeffs,)


def require_cap(size: int, cap: int | None, what: str = "enumeration") -> int:
    """Resolve the effective cap and raise CapExceeded when size overruns it."""
    effective = DEFAULT_ENUMERATION_CAP if cap is None else cap
    if size > effective:
        raise CapExceeded(size, effective, what)
    return effective
