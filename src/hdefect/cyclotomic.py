"""Integer cyclotomic polynomials and reduction of root-of-unity sums.

Phi_q is computed by recursive exact division of x^q - 1 by the product of
Phi_d over proper divisors d, entirely in integer coefficient lists
(low degree first). The reduction table expresses x^m mod Phi_q in the power
basis 1, x, ..., x^(phi(q)-1); sums of q-th roots of unity are exactly zero
iff their reduced coefficient vector vanishes. A table above
`MAX_SYSTEM_BYTES` is refused before Phi_q is built.
"""

from __future__ import annotations

import math
from functools import lru_cache

import numpy as np

from .errors import MAX_SYSTEM_BYTES, CapExceededError
from .groups import factorize


def _poly_mul(a: list[int], b: list[int]) -> list[int]:
    out = [0] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        if x:
            for j, y in enumerate(b):
                out[i + j] += x * y
    return out


def _poly_divmod_exact(num: list[int], den: list[int]) -> list[int]:
    """Quotient of an exact division; raises if the remainder is nonzero."""
    num = list(num)
    dlead = den[-1]
    qdeg = len(num) - len(den)
    quot = [0] * (qdeg + 1)
    for k in range(qdeg, -1, -1):
        coeff = num[k + len(den) - 1]
        if coeff % dlead != 0:
            raise ArithmeticError("non-exact polynomial division")
        coeff //= dlead
        quot[k] = coeff
        if coeff:
            for j, y in enumerate(den):
                num[k + j] -= coeff * y
    if any(num):
        raise ArithmeticError("non-exact polynomial division")
    return quot


def divisors(n: int) -> list[int]:
    small, large = [], []
    d = 1
    while d * d <= n:
        if n % d == 0:
            small.append(d)
            if d != n // d:
                large.append(n // d)
        d += 1
    return small + large[::-1]


@lru_cache(maxsize=None)
def cyclotomic_polynomial(q: int) -> tuple[int, ...]:
    """Coefficients of Phi_q, low degree first, monic."""
    if q < 1:
        raise ValueError(f"q must be positive, got {q}")
    if q == 1:
        return (-1, 1)
    num = [-1] + [0] * (q - 1) + [1]  # x^q - 1
    den = [1]
    for d in divisors(q):
        if d < q:
            den = _poly_mul(den, list(cyclotomic_polynomial(d)))
    return tuple(_poly_divmod_exact(num, den))


def euler_phi(q: int) -> int:
    """Degree of Phi_q, from the prime factorisation: q times the product of 1 - 1/p over p | q."""
    primes = factorize(q)
    return q // math.prod(primes) * math.prod(p - 1 for p in primes)


@lru_cache(maxsize=None)
def power_reduction_table(q: int) -> np.ndarray:
    """Rows m = 0..q-1: coefficient vector of x^m mod Phi_q (int64, shape q x phi)."""
    deg = euler_phi(q)
    nbytes = q * deg * 8
    if nbytes > MAX_SYSTEM_BYTES:
        raise CapExceededError(
            f"reduction table of {q} x {deg} entries needs {nbytes} bytes, above the cap {MAX_SYSTEM_BYTES}"
        )
    phi = cyclotomic_polynomial(q)
    table = np.zeros((q, deg), dtype=np.int64)
    row = [0] * deg
    row[0] = 1
    for m in range(q):
        table[m] = row
        # multiply by x, fold x^deg = -(phi[0] + ... + phi[deg-1] x^(deg-1))
        lead = row[-1]
        row = [0] + row[:-1]
        if lead:
            for t in range(deg):
                row[t] -= lead * phi[t]
    return table
