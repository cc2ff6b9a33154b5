"""Integer cyclotomic polynomials and reduction of root-of-unity sums.

For q > 1, Phi_q is the product of (1 - x^(q/d))^mu(d) over the squarefree
divisors d of q, taken as a power series of length phi(q) + 1 in Python ints
(low degree first). The reduction table expresses x^m mod Phi_q in the power
basis 1, x, ..., x^(phi(q)-1); sums of q-th roots of unity are exactly zero
iff their reduced coefficient vector vanishes. `errors.check_bytes` refuses
a table above `MAX_SYSTEM_BYTES` before Phi_q is built, and the tables kept
between calls are bounded by `TABLE_CACHE_BYTES`.
"""

from __future__ import annotations

import math
from collections import namedtuple
from functools import wraps
from itertools import combinations

import numpy as np

from .errors import MAX_SYSTEM_BYTES, check_bytes
from .groups import factorize

# Bytes of reduction tables kept. A scan meets every order of its grid per chunk: a lower bound rebuilds tables.
TABLE_CACHE_BYTES = MAX_SYSTEM_BYTES
CacheInfo = namedtuple("CacheInfo", "hits misses maxsize currsize")


def cyclotomic_polynomial(q: int) -> tuple[int, ...]:
    """Coefficients of Phi_q, low degree first, monic."""
    if q < 1:
        raise ValueError(f"q must be positive, got {q}")
    if q == 1:
        return (-1, 1)
    deg = euler_phi(q)
    coeffs = [1] + [0] * deg
    primes = factorize(q)
    for size in range(len(primes) + 1):
        for subset in combinations(primes, size):  # the squarefree divisor d, with mu(d) = (-1)^size
            s = q // math.prod(subset)
            if size % 2 == 0:  # times 1 - x^s
                for i in range(deg, s - 1, -1):
                    coeffs[i] -= coeffs[i - s]
            else:  # divided by 1 - x^s
                for i in range(s, deg + 1):
                    coeffs[i] += coeffs[i - s]
    return tuple(coeffs)


def euler_phi(q: int) -> int:
    """Degree of Phi_q, from the prime factorisation: q times the product of 1 - 1/p over p | q."""
    primes = factorize(q)
    return q // math.prod(primes) * math.prod(p - 1 for p in primes)


def _cached_within_table_bytes(build):
    """Cache build(q) as lru_cache does, but drop the least recently used tables, never the newest, while
    they hold more than TABLE_CACHE_BYTES; cache_info() counts maxsize and currsize in bytes."""
    tables, counts = {}, {"hits": 0, "misses": 0}  # tables from least to most recently used

    @wraps(build)
    def cached(q: int) -> np.ndarray:
        counts["hits" if q in tables else "misses"] += 1
        tables[q] = tables.pop(q) if q in tables else build(q)
        while len(tables) > 1 and sum(t.nbytes for t in tables.values()) > TABLE_CACHE_BYTES:
            del tables[next(iter(tables))]
        return tables[q]

    cached.cache_info = lambda: CacheInfo(*counts.values(), TABLE_CACHE_BYTES, sum(t.nbytes for t in tables.values()))
    cached.cache_clear = lambda: tables.clear() or counts.update(hits=0, misses=0)
    return cached


@_cached_within_table_bytes
def power_reduction_table(q: int) -> np.ndarray:
    """Rows m = 0..q-1: coefficient vector of x^m mod Phi_q (int64, shape q x phi)."""
    deg = euler_phi(q)
    check_bytes(f"reduction table of {q} x {deg} entries", q * deg * 8)
    low = np.array(cyclotomic_polynomial(q)[:-1], dtype=np.int64)
    table = np.zeros((q, deg), dtype=np.int64)
    table[0, 0] = 1
    for m in range(1, q):
        # x times row m - 1, with x^deg folded to -(low[0] + ... + low[deg-1] x^(deg-1))
        table[m, 1:] = table[m - 1, :-1]
        if lead := table[m - 1, -1]:
            table[m] -= lead * low
    return table
