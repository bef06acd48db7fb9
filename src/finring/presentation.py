"""Finite rings presented by structure constants.

A ring here is an additive group Z_{d1} x ... x Z_{dk} with a bilinear
multiplication described by a tensor c, where generator products expand as

    g_i * g_j = sum_l c[i][j][l] * g_l      (mod d_l componentwise).

Validation checks, in order: shapes and reduction of all entries, order
compatibility (d_i * (g_i g_j) = d_j * (g_i g_j) = 0, which makes the bilinear
extension well defined), the two-sided unit law on generators, and
associativity on all generator triples.  Bilinearity then carries these to the
whole ring, so a validated presentation is an honest finite unital ring.

Each check runs once, where data enters.  RingPresentation(...) and
validate_presentation run all of them, and are the constructors for outside
input: ring files (jsonio hands their values over unchanged, so the rules
for integers, which exclude booleans, for shapes and for reduced entries
live only here), library callers and the fixture builders.
RingPresentation._adopt builds the same object, through the same _setup,
with no check, and has one caller: corners.corner_ring, for a corner e*A*e
of a validated ring A at an idempotent e.  That corner is correct by
construction: on independent cyclic generators h_i of orders s_i, the
constants are the reduced coordinates of h_i h_j, and s_i * (h_i h_j) =
(s_i h_i) h_j = 0 gives order compatibility; e is its two-sided unit; and
its product is A's, so it is associative.

A sparse copy of the tensor is built before validation: _terms[i][j]
lists the nonzero (l, c[i][j][l]).  Products read a ProductTable, made from
_terms in one pass when it is first read (by the unit law, when the ring
is validated) and kept on the ring: rows[i] packs every g_i * g_j into one
integer, in slots of a whole number of bytes wide enough for
k^2 * (max(orders) - 1)^3, the largest unreduced coefficient of a product.
a * b is then one big-integer product and sum per nonzero coefficient of a
and of b and one unpack of k slots, reduced once; _peirce_rows(e, f) makes
e * g_j * f for every generator g_j in one such pass, for the Peirce spans
and tests of corners, idempotents and morphisms.  The unit law reads
one * g_j for every j from one pass over the rows, and g_m * one for every
m from one over the columns, with no product call.  Associativity is checked
on _terms directly, with no product call: both bracketings of the triples
(i, j, l) for one pair (i, j) and every l are packed into one integer each
and compared.  SlotPacking owns that format and reads an unequal pair of
integers slot by slot; maps.ring_iso_failure decides multiplicativity in
the same format.  Every packed format lives in this module.

Elements are immutable coefficient tuples tied to their presentation; mixing
elements of different presentations raises AmbientMismatch.  A presentation
keeps its generators as the coefficient tuples of the basis, and gens()
builds their elements on each call, since an Element points at its ring.
A presentation is also an additive side of maps (see maps.py), like a
Subgroup: its ring is itself, its generators are gens(), and the
coordinates of an element are its coefficients.

Each presentation object keeps one memo (_remember) of the Peirce spans,
idempotent splits, canonical sequence and content hash derived from it
(see corners, idempotents, triangulate and jsonio.ring_hash).  It belongs
to the object, not to its contents.  The memo is the only field that
points back at the ring, through the spans and sequence it holds, so it is
the only cycle in a ring's graph: forget() empties it, and reference
counting then frees the ring and all that was derived from it as soon as
the last outside reference goes.  The CLI calls forget() on every ring a
query loaded when the query ends; the library never does, so a ring used
from Python keeps its memo as long as it lives and is freed by the cyclic
collector.
"""
from __future__ import annotations

import itertools
import operator
import struct

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


def _as_tuple(seq) -> tuple | None:
    """seq as a tuple, or None when it is not a sequence.  A string or a
    mapping iterates, but over its characters or keys, so neither is one."""
    if isinstance(seq, (str, bytes, dict)):
        return None
    try:
        return tuple(seq)
    except TypeError:
        return None


def _as_int_tuple(seq, what: str) -> tuple[int, ...]:
    """seq as a tuple of ints; a float, string or bool raises, so no value
    is silently rounded or parsed (JSON true and false are not integers)."""
    out = _as_tuple(seq)
    if out is None or not all(isinstance(v, int) and not isinstance(v, bool) for v in out):
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


class ProductTable:
    """The packed format of products: the structure constants in 2k integers.

    Slot (j, l) of rows[i] and slot (i, l) of cols[j] hold c[i][j][l]; slot
    (x, n) sits at bit (x * k + n) * width, so group x (its k slots) starts
    at shifts[x], and mask keeps group 0.  width is a whole number of bytes
    and holds k^2 * (max(orders) - 1)^3, the largest unreduced coefficient
    of a product of reduced factors; read_row and read_grid turn the
    little-endian bytes of k and k^2 slots into their values.

    sum a_i * rows[i] holds the unreduced a*g_j in group j, and adding
    b_j times it shifted down by shifts[j] leaves a*b in group 0: every
    term there is nonnegative and no slot of group 0 overflows, so what
    lies above it never reaches it.  Likewise sum f_n * cols[n] holds
    g_m*f in group m.
    """

    __slots__ = ("rows", "cols", "shifts", "mask", "row_bytes", "read_row", "read_grid")

    def __init__(self, orders: tuple[int, ...], terms):
        k = len(orders)
        need = (k * k * (max(orders, default=1) - 1) ** 3).bit_length()
        nbytes = 1
        while nbytes < need / 8:
            nbytes *= 2
        width = 8 * nbytes
        self.row_bytes = k * nbytes
        self.read_row = _slot_reader(k, nbytes)
        self.read_grid = _slot_reader(k * k, nbytes)
        self.shifts = shifts = tuple(x * k * width for x in range(k))
        self.mask = (1 << k * width) - 1
        # one pass over the sparse constants: group (i, j) packs g_i * g_j
        lift = [l * width for l in range(k)]
        packed = [
            [sum([c << lift[l] for l, c in vec]) if vec else 0 for vec in row] for row in terms
        ]
        self.rows = tuple(sum(map(operator.lshift, row, shifts)) for row in packed)
        self.cols = tuple(sum(map(operator.lshift, col, shifts)) for col in zip(*packed))


def _slot_reader(count: int, nbytes: int):
    """The values of count little-endian slots of nbytes each, from their
    bytes.  Slots wider than 8 bytes, which large moduli such as 2^31 need,
    are read one int.from_bytes each."""
    if nbytes <= 8:
        return struct.Struct("<%d%s" % (count, "BHIQ"[nbytes.bit_length() - 1])).unpack
    return lambda data: [
        int.from_bytes(data[s:s + nbytes], "little") for s in range(0, len(data), nbytes)
    ]


class RingPresentation:
    """A validated structure-constant presentation of a finite unital ring."""

    __slots__ = ("orders", "mul", "one", "name", "_hash", "_terms", "_table", "_basis", "_memo")

    def __init__(self, orders, mul, one, name: str | None = None):
        orders = _as_int_tuple(orders, "orders")
        k = len(orders)
        for i, d in enumerate(orders):
            if d < 2:
                raise ShapeMismatch("generator order at index %d must be >= 2" % i)

        mul_rows = _as_tuple(mul)
        if mul_rows is None or len(mul_rows) != k:
            raise ShapeMismatch("mul tensor must have %d rows" % k)
        rows = []
        for i, row in enumerate(mul_rows):
            row = _as_tuple(row)
            if row is None or len(row) != k:
                raise ShapeMismatch("mul row %d must have %d entries" % (i, k))
            cols = []
            for j, vec in enumerate(row):
                v = _as_int_tuple(vec, "mul[%d][%d]" % (i, j))
                if len(v) != k:
                    raise ShapeMismatch("mul[%d][%d] must have %d coefficients" % (i, j, k))
                for l, c in enumerate(v):
                    if not 0 <= c < orders[l]:
                        raise ShapeMismatch(
                            "mul[%d][%d][%d] = %d is not reduced mod %d; "
                            "reduce all inputs before validation" % (i, j, l, c, orders[l])
                        )
                cols.append(v)
            rows.append(tuple(cols))

        u = _as_int_tuple(one, "one")
        if len(u) != k:
            raise ShapeMismatch("unit vector must have %d coefficients" % k)
        for l, c in enumerate(u):
            if not 0 <= c < orders[l]:
                raise ShapeMismatch(
                    "one[%d] = %d is not reduced mod %d; "
                    "reduce all inputs before validation" % (l, c, orders[l])
                )

        self._setup(orders, tuple(rows), u, name)
        self._check_order_compat()
        self._check_unit()
        self._check_associativity()

    @classmethod
    def _adopt(cls, orders, mul, one, name: str | None = None) -> "RingPresentation":
        """The presentation of data that satisfies every check by
        construction, with none run: orders a tuple of ints >= 2, mul a
        k x k tuple of reduced coefficient tuples and one a reduced tuple
        (see the module docstring for its one caller)."""
        ring = cls.__new__(cls)
        ring._setup(orders, mul, one, name)
        return ring

    def _setup(self, orders, mul, one, name):
        """The fields every presentation has, from checked or adopted data."""
        self.orders = orders
        self.mul = mul
        self.one = one
        self.name = name
        self._hash = hash((orders, mul, one))
        self._terms = tuple(
            tuple(tuple((l, c) for l, c in enumerate(vec) if c) for vec in row) for row in mul
        )
        self._table = None
        k = len(orders)
        self._basis = tuple(tuple(int(j == i) for j in range(k)) for i in range(k))
        self._memo = {}

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
        # one packed pass per side: one * g_j in group j of the left grid,
        # g_m * one in group m of the right one
        table = self._table or self._build_table()
        k = len(self.orders)
        left = self._grid(table.rows, self.one)
        right = self._grid(table.cols, self.one)
        for i, g in enumerate(self._basis):
            if left[i * k:i * k + k] != g or right[i * k:i * k + k] != g:
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

    def _reduce(self, coeffs) -> tuple[int, ...]:
        return tuple(map(operator.mod, coeffs, self.orders))

    def _add_coeffs(self, a, b):
        return tuple(map(operator.mod, map(operator.add, a, b), self.orders))

    def _neg_coeffs(self, a):
        return tuple(map(operator.mod, map(operator.neg, a), self.orders))

    def _scale_coeffs(self, n, a):
        return tuple([n * x % d for x, d in zip(a, self.orders)])

    def _mul_coeffs(self, a, b):
        table = self._table or self._build_table()
        rows, shifts = table.rows, table.shifts
        left = 0
        for i, x in itertools.compress(enumerate(a), a):
            left += x * rows[i]
        acc = 0
        for j, y in itertools.compress(enumerate(b), b):
            acc += y * (left >> shifts[j])
        slots = table.read_row((acc & table.mask).to_bytes(table.row_bytes, "little"))
        return tuple(map(operator.mod, slots, self.orders))

    def _peirce_rows(self, e, f):
        """The coefficients of e * g_j * f for every generator g_j, in one
        packed pass; e and f are coefficient tuples.  The left factors
        e * g_j are reduced before the second product, so each of its sums
        stays in its slot."""
        table = self._table or self._build_table()
        k = len(self.orders)
        orders, shifts, mask = self.orders * k, table.shifts, table.mask
        grid_bytes = k * table.row_bytes
        right = 0
        for n, y in itertools.compress(enumerate(f), f):
            right += y * table.cols[n]
        # (e * g_j)_m at index j * k + m, and g_m * f in right_m[m]
        eg = self._grid(table.rows, e)
        right_m = [right >> s & mask for s in shifts]
        acc = 0
        for x, c in itertools.compress(enumerate(eg), eg):
            j, m = divmod(x, k)
            acc += c * right_m[m] << shifts[j]
        flat = map(operator.mod, table.read_grid(acc.to_bytes(grid_bytes, "little")), orders)
        return tuple(zip(*[flat] * k))

    def _grid(self, packed, e) -> tuple[int, ...]:
        """The reduced slots of sum e_i * packed[i], k per generator: with
        packed the table's rows, e * g_j at index j * k; with its columns,
        g_m * e at index m * k.  Each slot is at most k * (max(orders) - 1)^2,
        so none overflows."""
        table = self._table
        acc = 0
        for i, x in itertools.compress(enumerate(e), e):
            acc += x * packed[i]
        grid = table.read_grid(acc.to_bytes(len(self.orders) * table.row_bytes, "little"))
        return tuple(map(operator.mod, grid, self.orders * len(self.orders)))

    def _build_table(self) -> "ProductTable":
        self._table = ProductTable(self.orders, self._terms)
        return self._table

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
        return self.gens()

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
        return self.gens()[i]

    def gens(self) -> tuple["Element", ...]:
        """The generator elements, built afresh on each call (see the module
        docstring)."""
        return tuple([Element(self, g) for g in self._basis])

    def _remember(self, key, make):
        """The fact kept under key, made by make() the first time it is
        asked for; it lives until forget() or the ring object goes (see
        the module docstring)."""
        memo = self._memo
        if key not in memo:
            memo[key] = make()
        return memo[key]

    def forget(self) -> None:
        """Drop every fact derived from this ring and kept on it: Peirce
        spans, idempotent splits, the canonical sequence and the content
        hash.  A later question derives them again.  With the memo empty
        the ring's graph holds no cycle, so it is freed as soon as nothing
        outside refers to it (see the module docstring)."""
        self._memo.clear()

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
