"""Integer cyclotomic polynomials and reduction of root-of-unity sums.

For q > 1, Phi_q is the product of (1 - x^(q/d))^mu(d) over the squarefree
divisors d of q, taken as a power series of length phi(q) + 1 in Python ints
(low degree first). The reduction table expresses x^m mod Phi_q in the power
basis 1, x, ..., x^(phi(q)-1); sums of q-th roots of unity are exactly zero
iff their reduced coefficient vector vanishes. `errors.check_bytes` refuses
a table above `MAX_SYSTEM_BYTES` before Phi_q is built. The one caller family,
the exact pair system in `exact`, meets one order per matrix: one table is kept.
"""

from __future__ import annotations

import math
from functools import lru_cache
from itertools import combinations

import numpy as np

from .errors import check_bytes
from .groups import factorize


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


@lru_cache(maxsize=1)
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
