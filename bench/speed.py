"""A fixed pure-Python kernel that measures how fast this machine runs now.

The sandbox this benchmark was tuned on changes speed by up to 1.7x in
phases of seconds to minutes (CPU time tracks wall time, so it is the
machine, not scheduling).  Timing this kernel between the passes gives the
run's slowdown, and run.py divides its times by slowdown ** SENSITIVITY.
The kernel shares no code with finring, so a change to finring cannot move
it: it multiplies small objects through a structure constant table, hashes
the products into a dict and reduces mod n, the same kind of interpreter
work as finring's element arithmetic.
"""
from __future__ import annotations

import time

# One sample's time on the sandbox (Intel Xeon, 2 vCPUs, Python 3.11.7)
# when the machine ran at its usual speed.
NOMINAL_S = 0.2

# How strongly the workloads follow the kernel.  Measured across slow and
# fast phases, report_oracle's time moved with the kernel's to the power 1,
# aut_ladder's to about 1/3 and iso_pairs' in between.  Dividing by the
# kernel's slowdown to the power 2/3 leaves at most a factor 1.7^(1/3),
# about 1.2, of a 1.7x phase on any workload, where dividing by the full
# slowdown would leave 1.7^(2/3), about 1.4, on aut_ladder.
SENSITIVITY = 2 / 3

_N = 4
_K = 6
# T3(Z_4) on E11, E12, E13, E22, E23, E33 (row-major), as in finring.fixtures
_PAIRS = [(a, b) for a in range(3) for b in range(a, 3)]
_MUL = [
    [
        tuple(int(b == c and (a, d) == p) for p in _PAIRS)
        for c, d in _PAIRS
    ]
    for a, b in _PAIRS
]


class _Elem:
    __slots__ = ("c",)

    def __init__(self, c):
        self.c = c

    def __mul__(self, other):
        acc = [0] * _K
        for i, x in enumerate(self.c):
            if not x:
                continue
            row = _MUL[i]
            for j, y in enumerate(other.c):
                if not y:
                    continue
                vec = row[j]
                xy = x * y
                for t in range(_K):
                    acc[t] += xy * vec[t]
        return _Elem(tuple(v % _N for v in acc))

    def __hash__(self):
        return hash(self.c)

    def __eq__(self, other):
        return self.c == other.c


def sample() -> float:
    """Seconds for one run of the kernel (about NOMINAL_S at usual speed)."""
    t0 = time.perf_counter()
    seen: dict[_Elem, int] = {}
    for a in range(13000):
        x = _Elem(tuple((a * (i + 3) + a // 7) % _N for i in range(_K)))
        y = _Elem(tuple((a * (i + 1) + 1) % _N for i in range(_K)))
        z = x * y
        seen[z] = seen.get(z, 0) + 1
    if len(seen) < 2:
        raise ArithmeticError("speed kernel produced a degenerate table")
    return time.perf_counter() - t0
