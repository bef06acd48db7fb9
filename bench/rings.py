"""Ring families for the benchmark, built as plain ring-file objects.

Every builder returns the dict that `finring.jsonio.ring_from_obj` reads:
{"orders", "mul", "one", "name"}.  Only the standard library is used here;
upper triangular rings come from `finring.fixtures.upper_triangular` so the
benchmark and the test corpus share one definition.
"""
from __future__ import annotations

import random
from math import gcd


def _obj(orders, mul, one, name):
    return {"orders": list(orders), "mul": mul, "one": list(one), "name": name}


def matrix_ring(n: int, q: int) -> dict:
    """M_n(Z_q) on the matrix units E_ab in row-major order."""
    k = n * n
    mul = []
    for a in range(n):
        for b in range(n):
            row = []
            for c in range(n):
                for d in range(n):
                    vec = [0] * k
                    if b == c:
                        vec[a * n + d] = 1
                    row.append(vec)
            mul.append(row)
    one = [1 if a == b else 0 for a in range(n) for b in range(n)]
    label = "F%d" % q if _is_prime(q) else "Z%d" % q
    return _obj([q] * k, mul, one, "M%d(%s)" % (n, label))


def poly_quotient(p: int, f: list[int], name: str) -> dict:
    """Z_p[x]/(f) on 1, x, ..., x^(d-1); f lists the low coefficients of a
    monic polynomial of degree d = len(f)."""
    d = len(f)
    # powers[t] = coefficients of x^t reduced mod f, for t < 2d - 1
    powers = [[1 if i == t else 0 for i in range(d)] for t in range(d)]
    for _ in range(d, 2 * d - 1):
        prev = powers[-1]
        top = prev[d - 1]
        shifted = [0] + prev[: d - 1]
        powers.append([(s - top * c) % p for s, c in zip(shifted, f)])
    mul = [[powers[i + j] for j in range(d)] for i in range(d)]
    return _obj([p] * d, mul, powers[0], name)


def dual_square() -> dict:
    """F2[x,y]/(x^2, y^2) on 1, x, y, xy."""
    monos = [(0, 0), (1, 0), (0, 1), (1, 1)]
    mul = []
    for a in monos:
        row = []
        for b in monos:
            prod = (a[0] + b[0], a[1] + b[1])
            row.append([1 if prod == m else 0 for m in monos])
        mul.append(row)
    return _obj([2] * 4, mul, [1, 0, 0, 0], "F2[x,y]/(x^2,y^2)")


def upper_triangular(n: int, modulus: int) -> dict:
    from finring.fixtures import upper_triangular as build
    from finring.jsonio import ring_to_obj

    return ring_to_obj(build(n, modulus))


def random_gl(k: int, n: int, rng: random.Random):
    """A random P in GL_k(Z_n) with its inverse, as a product of elementary
    row operations (transvections, unit scalings, swaps)."""
    p = [[int(i == j) for j in range(k)] for i in range(k)]
    q = [[int(i == j) for j in range(k)] for i in range(k)]
    units = [u for u in range(1, n) if gcd(u, n) == 1]
    for _ in range(4 * k * k):
        i, j = rng.randrange(k), rng.randrange(k)
        kind = rng.randrange(3)
        if kind == 0 and i != j:
            c = rng.randrange(1, n)
            # P <- (I + c E_ij) P, Q <- Q (I - c E_ij)
            p[i] = [(x + c * y) % n for x, y in zip(p[i], p[j])]
            for row in q:
                row[j] = (row[j] - c * row[i]) % n
        elif kind == 1:
            u = rng.choice(units)
            v = pow(u, -1, n)
            p[i] = [(u * x) % n for x in p[i]]
            for row in q:
                row[i] = (row[i] * v) % n
        else:
            p[i], p[j] = p[j], p[i]
            for row in q:
                row[i], row[j] = row[j], row[i]
    for i in range(k):
        for j in range(k):
            if sum(p[i][t] * q[t][j] for t in range(k)) % n != int(i == j):
                raise ArithmeticError("basis change is not invertible")
    return p, q


def basis_change(obj: dict, rng: random.Random) -> dict:
    """The same ring on the basis h_i = sum_j P[i][j] g_j for a random P in
    GL_k(Z_n).  Needs every generator order equal to n."""
    orders = obj["orders"]
    n, k = orders[0], len(orders)
    if any(o != n for o in orders):
        raise ValueError("basis change needs a free Z_n-module")
    p, q = random_gl(k, n, rng)
    mul = obj["mul"]

    def to_new(coeffs):
        return [sum(coeffs[t] * q[t][l] for t in range(k)) % n for l in range(k)]

    new_mul = []
    for a in range(k):
        row = []
        for b in range(k):
            acc = [0] * k
            for i in range(k):
                if p[a][i]:
                    for j in range(k):
                        c = p[a][i] * p[b][j]
                        if c:
                            for t, v in enumerate(mul[i][j]):
                                acc[t] += c * v
            row.append(to_new(acc))
        new_mul.append(row)
    return _obj(orders, new_mul, to_new(obj["one"]), obj["name"] + "'")


def _is_prime(n: int) -> bool:
    return n > 1 and all(n % d for d in range(2, int(n ** 0.5) + 1))
