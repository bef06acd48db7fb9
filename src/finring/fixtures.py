"""Bundled example rings and maps used by tests, docs, and the CLI corpus."""
from __future__ import annotations

from .maps import RingIsomorphism, inner_automorphism
from .presentation import RingPresentation


def cyclic(n: int, name: str | None = None) -> RingPresentation:
    """The ring of integers mod n on a single generator."""
    return RingPresentation((n,), (((1 % n,),),), (1 % n,), name=name or "Z%d" % n)


def _matrix_units(pairs, modulus: int, name: str) -> RingPresentation:
    """The ring over Z_modulus spanned by the matrix units E_ab, (a, b) in
    pairs, in that order: E_ab * E_cd = [b == c] E_ad, and 1 = sum of the E_aa."""
    index = {p: t for t, p in enumerate(pairs)}
    k = len(pairs)
    units = [tuple(int(s == t) for t in range(k)) for s in range(k)]
    zero = (0,) * k
    mul = tuple(
        tuple(units[index[a, d]] if b == c else zero for c, d in pairs) for a, b in pairs
    )
    one = tuple(int(a == b) for a, b in pairs)
    return RingPresentation((modulus,) * k, mul, one, name=name)


def upper_triangular(n: int, modulus: int, name: str | None = None) -> RingPresentation:
    """n-by-n upper triangular matrices over Z_modulus, on E_ab for a <= b in
    row-major order."""
    pairs = [(a, b) for a in range(n) for b in range(a, n)]
    return _matrix_units(pairs, modulus, name or "T%d(Z%d)" % (n, modulus))


def matrix_ring(n: int, modulus: int, name: str | None = None) -> RingPresentation:
    """n-by-n matrices over Z_modulus, on E_ab in row-major order."""
    pairs = [(a, b) for a in range(n) for b in range(n)]
    return _matrix_units(pairs, modulus, name or "M%d(Z%d)" % (n, modulus))


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
    # GF(4) on basis {1, x} with x^2 = x + 1
    return RingPresentation(
        (2, 2),
        (((1, 0), (0, 1)), ((0, 1), (1, 1))),
        (1, 0),
        name="F4",
    )


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
