"""Bundled example rings and maps used by tests, docs, and the CLI corpus.

Besides the fixture corpus, this module builds the ring families the tests
check against closed forms: T_n(Z_m), M_n(Z_m), M_n(D) over a presented ring
D, truncated and irreducible polynomial quotients over F_p, and copies of a
ring on a random basis of GL_k(Z_n) (random_gl, basis_change), whose
structure constants are dense.
"""
from __future__ import annotations

import math

from .maps import RingIsomorphism, inner_automorphism
from .presentation import RingPresentation


def cyclic(n: int, name: str | None = None) -> RingPresentation:
    """The ring of integers mod n on a single generator."""
    return RingPresentation((n,), (((1 % n,),),), (1 % n,), name=name or "Z%d" % n)


def _matrix_units(pairs, d: RingPresentation, name: str) -> RingPresentation:
    """The ring over the presented ring d spanned by E_ab * g_l, for the
    positions (a, b) in pairs and the generators g_l of d, in the order of
    pairs and then l: (E_ab x)(E_cd y) = [b == c] E_ad (x y), and 1 is the sum
    of the E_aa * 1."""
    k = d.rank
    start = {p: t * k for t, p in enumerate(pairs)}
    size = len(pairs) * k

    def at(pos, vec):
        out = [0] * size
        out[start[pos]:start[pos] + k] = vec
        return tuple(out)

    zero = (0,) * size
    mul = tuple(
        tuple(at((a, dd), d.mul[x][y]) if b == c else zero for c, dd in pairs for y in range(k))
        for a, b in pairs for x in range(k)
    )
    one = [0] * size
    for a, b in pairs:
        if a == b:
            one[start[a, a]:start[a, a] + k] = d.one
    return RingPresentation(d.orders * len(pairs), mul, tuple(one), name=name)


def upper_triangular(n: int, modulus: int, name: str | None = None) -> RingPresentation:
    """n-by-n upper triangular matrices over Z_modulus, on E_ab for a <= b in
    row-major order."""
    pairs = [(a, b) for a in range(n) for b in range(a, n)]
    return _matrix_units(pairs, cyclic(modulus), name or "T%d(Z%d)" % (n, modulus))


def matrix_ring(n: int, modulus: int, name: str | None = None) -> RingPresentation:
    """n-by-n matrices over Z_modulus, on E_ab in row-major order."""
    return matrices_over(n, cyclic(modulus), name or "M%d(Z%d)" % (n, modulus))


def matrices_over(n: int, d: RingPresentation, name: str | None = None) -> RingPresentation:
    """n-by-n matrices over the presented ring d, on E_ab * g_l for a, b in
    range(n) and the generators g_l of d, in row-major order of (a, b) and
    then l."""
    pairs = [(a, b) for a in range(n) for b in range(n)]
    return _matrix_units(pairs, d, name or "M%d(%s)" % (n, d.name))


def poly_quotient(f, p: int = 2, name: str | None = None) -> RingPresentation:
    """F_p[x]/(g) on 1, x, ..., x^(d-1), for the monic g of degree d = len(f)
    whose low coefficients f lists: g = x^d + f[d-1] x^(d-1) + ... + f[0]."""
    d = len(f)
    powers = [[int(i == t) for i in range(d)] for t in range(d)]
    for _ in range(d, 2 * d - 1):
        top = powers[-1][d - 1]
        shifted = [0] + powers[-1][: d - 1]
        powers.append([(x - top * c) % p for x, c in zip(shifted, f)])
    mul = [[powers[i + j] for j in range(d)] for i in range(d)]
    return RingPresentation([p] * d, mul, powers[0], name=name)


def dual_square() -> RingPresentation:
    """F2[x,y]/(x^2, y^2) on 1, x, y, xy."""
    monos = [(0, 0), (1, 0), (0, 1), (1, 1)]
    mul = [
        [[int((a[0] + b[0], a[1] + b[1]) == c) for c in monos] for b in monos]
        for a in monos
    ]
    return RingPresentation([2] * 4, mul, [1, 0, 0, 0])


def random_gl(k: int, n: int, rng):
    """P in GL_k(Z_n) and its inverse Q, from 3k^2 random steps, each a
    transvection or a unit scaling of the rows of P (with the matching
    column operation on Q).  rng is a random.Random."""
    p = [[int(i == j) for j in range(k)] for i in range(k)]
    q = [[int(i == j) for j in range(k)] for i in range(k)]
    units = [u for u in range(1, n) if math.gcd(u, n) == 1]
    for _ in range(3 * k * k):
        i, j = rng.randrange(k), rng.randrange(k)
        if i != j:
            c = rng.randrange(n)
            p[i] = [(x + c * y) % n for x, y in zip(p[i], p[j])]
            for row in q:
                row[j] = (row[j] - c * row[i]) % n
        else:
            u = rng.choice(units)
            p[i] = [(u * x) % n for x in p[i]]
            for row in q:
                row[i] = (row[i] * pow(u, -1, n)) % n
    return p, q


def basis_change(ring: RingPresentation, rng):
    """The ring on the basis h_a = sum_i P[a][i] g_i for P from random_gl,
    with the coordinate change from old to new coordinates.  Needs equal
    generator orders n."""
    n, k = ring.orders[0], ring.rank
    if set(ring.orders) != {n}:
        raise ValueError("basis_change needs one generator order")
    p, q = random_gl(k, n, rng)

    def to_new(v):
        return tuple(sum(v[t] * q[t][l] for t in range(k)) % n for l in range(k))

    mul = [[to_new(ring._mul_coeffs(tuple(p[a]), tuple(p[b]))) for b in range(k)] for a in range(k)]
    return RingPresentation(ring.orders, mul, to_new(ring.one), name=ring.name), to_new


def product(a: RingPresentation, b: RingPresentation, name: str | None = None) -> RingPresentation:
    """External direct product with block-diagonal multiplication."""
    ka = a.rank
    kb = b.rank
    zero = (0,) * (ka + kb)
    mul = []
    for i in range(ka + kb):
        row = []
        for j in range(ka + kb):
            if i < ka and j < ka:
                row.append(tuple(a.mul[i][j]) + (0,) * kb)
            elif i >= ka and j >= ka:
                row.append((0,) * ka + tuple(b.mul[i - ka][j - ka]))
            else:
                row.append(zero)
        mul.append(tuple(row))
    return RingPresentation(
        a.orders + b.orders,
        tuple(mul),
        tuple(a.one) + tuple(b.one),
        name=name or "%sx%s" % (a.name, b.name),
    )


def field_f4() -> RingPresentation:
    """GF(4) = F2[x]/(x^2 + x + 1) on 1, x."""
    return poly_quotient([1, 1], name="F4")


def z6() -> RingPresentation:
    return cyclic(6)


def f2() -> RingPresentation:
    return cyclic(2, name="F2")


def z4() -> RingPresentation:
    return cyclic(4)


def t2_f2() -> RingPresentation:
    return upper_triangular(2, 2, name="T2(F2)")


def t2_z4() -> RingPresentation:
    return upper_triangular(2, 4, name="T2(Z4)")


def t3_f2() -> RingPresentation:
    return upper_triangular(3, 2, name="T3(F2)")


def z2xz3() -> RingPresentation:
    return product(cyclic(2), cyclic(3), name="Z2xZ3")


def three_block() -> RingPresentation:
    """T2(F2) plus a one-dimensional summand; three triangular blocks, one of
    which splits off.  The summand is listed first in the basis."""
    return product(f2(), t2_f2(), name="three_block")


FIXTURE_BUILDERS = {
    "z6": z6,
    "f2": f2,
    "f4": field_f4,
    "z4": z4,
    "t2_f2": t2_f2,
    "t2_z4": t2_z4,
    "t3_f2": t3_f2,
    "z2xz3": z2xz3,
    "three_block": three_block,
}


def fixture(name: str) -> RingPresentation:
    return FIXTURE_BUILDERS[name]()


def t2_f2_inner() -> RingIsomorphism:
    """Conjugation of T2(F2) by the unit 1 + E12."""
    ring = t2_f2()
    return inner_automorphism(ring.element((1, 1, 1)))
