"""Finite abelian groups and the exact combinatorics behind Fourier-matrix defects.

Everything here is exact: integers, int64 index arrays and fractions.Fraction
only, no floating point. A group is a product of cyclic factors
Z_N1 x ... x Z_Nr; elements are residue tuples iterated in odometer order
(first factor outermost), which is also the row order used by the Fourier
matrix constructors.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from itertools import product

import numpy as np

from . import errors
from .errors import check_bytes, check_elements


@dataclass(frozen=True)
class FiniteAbelianGroup:
    """Z_N1 x ... x Z_Nr with componentwise addition."""

    cycle_orders: tuple[int, ...]

    def __post_init__(self):
        for n in self.cycle_orders:
            if not isinstance(n, int) or n < 1:
                raise ValueError(f"cycle orders must be positive integers, got {n!r}")

    @property
    def order(self) -> int:
        return math.prod(self.cycle_orders)

    @property
    def exponent(self) -> int:
        return math.lcm(*self.cycle_orders) if self.cycle_orders else 1

    def elements(self):
        """All residue tuples in odometer order (first factor outermost)."""
        return product(*(range(n) for n in self.cycle_orders))

    def element_list(self) -> tuple[tuple[int, ...], ...]:
        return tuple(self.elements())

    def check_element(self, g) -> tuple[int, ...]:
        g = tuple(g)
        if len(g) != len(self.cycle_orders):
            raise ValueError(f"element {g} has wrong arity for orders {self.cycle_orders}")
        for x, n in zip(g, self.cycle_orders):
            if not isinstance(x, int) or not 0 <= x < n:
                raise ValueError(f"residue {x} out of range for cycle order {n}")
        return g

    def index_tables(self) -> tuple[np.ndarray, np.ndarray]:
        """Odometer indices of g + h (a |G| x |G| table) and of -g, by mixed-radix digits."""
        check_bytes(f"addition table of order {self.order}", self.order**2 * 8)
        digits = np.array(self.element_list(), dtype=np.int64).reshape(self.order, len(self.cycle_orders))
        add = np.zeros((self.order, self.order), dtype=np.int64)
        neg = np.zeros(self.order, dtype=np.int64)
        stride = 1
        for n, d in zip(self.cycle_orders[::-1], digits.T[::-1]):
            add += (d[:, None] + d) % n * stride
            neg += -d % n * stride
            stride *= n
        return add, neg


def make_group(orders) -> FiniteAbelianGroup:
    return FiniteAbelianGroup(tuple(orders))


def element_order(group: FiniteAbelianGroup, g) -> int:
    """Additive order: lcm over factors of N_i / gcd(N_i, g_i)."""
    g = group.check_element(g)
    return math.lcm(*(n // math.gcd(n, x) for x, n in zip(g, group.cycle_orders))) if g else 1


def element_orders(group: FiniteAbelianGroup) -> np.ndarray:
    """Additive order of every element, in odometer order, built factor by factor with no element listed."""
    orders = np.ones(1, dtype=np.int64)
    for n in group.cycle_orders:  # the lcm of the orders so far and each residue's order n / gcd(n, x)
        orders = np.lcm.outer(orders, n // np.gcd(n, np.arange(n))).ravel()
    return orders


def factorize(n: int) -> dict[int, int]:
    """Prime factorization by trial division, {} for n = 1; past MAX_ELEMENTS divisors only a prime cofactor ends it."""
    factors: dict[int, int] = {}
    d = 2
    while d * d <= n:
        if d > errors.MAX_ELEMENTS:
            if n < PRIME_TEST_LIMIT and is_prime(n):
                break
            check_elements(f"trial division of {n}", math.isqrt(n))
        while n % d == 0:
            factors[d] = factors.get(d, 0) + 1
            n //= d
        d += 1
    if n > 1:
        factors[n] = factors.get(n, 0) + 1
    return factors


# Miller-Rabin over the first 12 primes as bases is exact below the limit (Sorenson and Webster, 2015).
PRIME_TEST_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37)
PRIME_TEST_LIMIT = 3317044064679887385961981


def is_prime(p: int) -> bool:
    """Deterministic Miller-Rabin, exact for every p below PRIME_TEST_LIMIT; ValueError above it."""
    if p >= PRIME_TEST_LIMIT:
        raise ValueError(f"primality of {p} is not decided below {PRIME_TEST_LIMIT}")
    if p < 2 or any(p % b == 0 for b in PRIME_TEST_BASES):
        return p in PRIME_TEST_BASES
    s = ((p - 1) & (1 - p)).bit_length() - 1  # p - 1 = 2^s d with d odd
    # Per base, b^(d 2^t) for t = 0, ..., s: a prime p has b^d = 1 or b^(d 2^t) = -1 for some t < s.
    chains = ([pow(b, (p - 1) >> (s - t), p) for t in range(s + 1)] for b in PRIME_TEST_BASES)
    return all(c[0] == 1 or p - 1 in c[:-1] for c in chains)


def isotypic_decomposition(group: FiniteAbelianGroup) -> dict[int, tuple[int, ...]]:
    """Split into p-primary parts: prime -> nondecreasing cyclic exponents.

    Z_12 x Z_2 -> {2: (1, 2), 3: (1,)}; order-1 factors contribute nothing.
    """
    parts: dict[int, list[int]] = {}
    for n in group.cycle_orders:
        for p, a in factorize(n).items():
            parts.setdefault(p, []).append(a)
    return {p: tuple(sorted(a)) for p, a in sorted(parts.items())}


def _check_exponents(exponents) -> tuple[int, ...]:
    exponents = tuple(exponents)
    if not exponents:
        raise ValueError("exponent list must be nonempty")
    if any(not isinstance(a, int) or a < 1 for a in exponents):
        raise ValueError(f"exponents must be integers >= 1, got {exponents}")
    if any(a > b for a, b in zip(exponents, exponents[1:])):
        raise ValueError(f"exponents must be nondecreasing, got {exponents}")
    return exponents


def _q_integer(a: int, q: int) -> int:
    """1 + q + ... + q^(a-1), with value 0 for a = 0."""
    return sum(q**t for t in range(a))


def delta_isotypic(p: int, exponents) -> Fraction:
    """Order-weighted sum 1/ord over a p-group with the given cyclic exponents.

    Closed form; for a single factor this is 1 + a - a/p.
    """
    if not is_prime(p):
        raise ValueError(f"{p} is not prime")
    a = (0,) + _check_exponents(exponents)
    r = len(a) - 1
    total = Fraction(1)
    for k in range(1, r + 1):
        exp = (r - k) * a[k - 1] + sum(a[1:k]) - 1
        total += Fraction(p) ** exp * (p ** (r - k + 1) - 1) * _q_integer(a[k] - a[k - 1], p ** (r - k))
    return total


def delta_closed(group: FiniteAbelianGroup) -> Fraction:
    """Sum of 1/order(g) over the group, via the per-prime closed form: it checks `ds_delta_exact` on the regular
    representation, where the same sum is read off fixed points, and gives `fourier_defect` its |G| * delta(G)."""
    total = Fraction(1)
    for p, exps in isotypic_decomposition(group).items():
        total *= delta_isotypic(p, exps)
    return total


def fourier_defect(group: FiniteAbelianGroup) -> int:
    """Undephased defect of the Fourier matrix of the group: |G| * delta(G)."""
    value = group.order * delta_closed(group)
    if value.denominator != 1:
        raise RuntimeError(f"defect formula produced non-integer {value} for {group}")
    return value.numerator


def fourier_defect_cyclic(n: int) -> int:
    """d(F_n) = n * prod over p^a || n of (1 + a - a/p): checks `fourier_defect` and the SVDs of acceptance 1, 6."""
    if n < 1:
        raise ValueError(f"n must be positive, got {n}")
    value = Fraction(n)
    for p, a in factorize(n).items():
        value *= 1 + a - Fraction(a, p)
    if value.denominator != 1:
        raise RuntimeError(f"cyclic defect formula produced non-integer {value} for n={n}")
    return value.numerator


def _p_space_keys(group: FiniteAbelianGroup):
    """Class key of each entry P[i][j], row-major, and the index vector of -g.

    The key is least(i + <j>) * |G| + min(j, -j): the least row of the coset
    that column translation runs along, and the column pair that conjugation
    ties.
    """
    n = group.order
    shift, neg = group.index_tables()
    cols = np.arange(n)
    # After t steps least[i, j] is the least row i + k j over k < 2^t, and 2^t reaches the exponent.
    least = np.broadcast_to(cols[:, None], (n, n))
    for _ in range((group.exponent - 1).bit_length()):
        least = np.minimum(least, least[shift, cols])
        shift = shift[shift, cols]
    return (least * n + np.minimum(cols, neg)).ravel(), neg


def p_space_dimension(group: FiniteAbelianGroup) -> int:
    """Real dimension of the parameter space (2 per free class, 1 per real one): acceptance 2's combinatorial d(F_G)."""
    key, neg = _p_space_keys(group)
    columns = np.unique(key, return_index=True)[0] % group.order  # a plain np.unique imports numpy.ma
    return 2 * columns.size - int(np.count_nonzero(neg[columns] == columns))


@lru_cache(maxsize=None)
def _partitions(n: int, least: int = 1) -> tuple[tuple[int, ...], ...]:
    """Nondecreasing partitions of n with every part >= least, lexicographically ordered."""
    if n == 0:
        return ((),)
    return tuple((part, *rest) for part in range(least, n + 1) for rest in _partitions(n - part, part))


def abelian_group_types(order: int) -> list[FiniteAbelianGroup]:
    """All isomorphism types of abelian groups of the given order (primary form)."""
    if order < 1:
        raise ValueError(f"order must be positive, got {order}")
    factors = sorted(factorize(order).items())
    choices = [[tuple(p**a for a in part) for part in _partitions(e)] for p, e in factors]
    groups = []
    for combo in product(*choices):
        cycles = tuple(c for part in combo for c in part)
        groups.append(make_group(sorted(cycles)))
    return groups
