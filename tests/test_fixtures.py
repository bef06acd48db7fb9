"""The random bases of fixtures.random_gl: the same seeded streams as when
it listed every unit of Z_n, and no listing on a large modulus."""
import math
import random

from finring.fixtures import basis_change, random_gl, upper_triangular


def _random_gl_listing_units(k: int, n: int, rng):
    """random_gl as it was when it drew its scalings with rng.choice over the
    list of every unit of Z_n."""
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


def test_random_gl_keeps_every_seeded_stream():
    for n in range(2, 101):
        for k in range(1, 5):
            for seed in range(5):
                ours, listing = random.Random(seed), random.Random(seed)
                expected = _random_gl_listing_units(k, n, listing)
                assert random_gl(k, n, ours) == expected, (n, k, seed)
                assert ours.random() == listing.random(), (n, k, seed)


def test_basis_change_over_a_large_modulus_returns_a_valid_ring():
    ring = upper_triangular(2, 2 ** 31)
    changed, to_new = basis_change(ring, random.Random(0))
    assert changed.orders == ring.orders
    assert changed.one == to_new(ring.one)
