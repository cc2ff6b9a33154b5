"""Finite abelian groups and the exact combinatorics behind Fourier-matrix defects.

Everything here is exact: integers and fractions.Fraction only, no floating
point. A group is a product of cyclic factors Z_N1 x ... x Z_Nr; elements are
residue tuples iterated in odometer order (first factor outermost), which is
also the row order used by the Fourier matrix constructors.
"""

from __future__ import annotations

import math
import os
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from itertools import product

from .errors import CapExceededError

DEFAULT_ENUMERATION_CAP = 10**6


def enumeration_cap() -> int:
    """Element cap for enumerating operations; HD_CAP overrides the default."""
    value = os.environ.get("HD_CAP")
    if value is None:
        return DEFAULT_ENUMERATION_CAP
    try:
        cap = int(value)
    except ValueError as exc:
        raise ValueError(f"HD_CAP must be an integer, got {value!r}") from exc
    if cap < 1:
        raise ValueError(f"HD_CAP must be positive, got {cap}")
    return cap


def _check_cap(size: int, cap: int | None, what: str) -> None:
    limit = enumeration_cap() if cap is None else cap
    if size > limit:
        raise CapExceededError(f"{what} needs {size} elements, cap is {limit}")


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

    def add(self, g, h) -> tuple[int, ...]:
        return tuple((x + y) % n for x, y, n in zip(g, h, self.cycle_orders))

    def neg(self, g) -> tuple[int, ...]:
        return tuple((-x) % n for x, n in zip(g, self.cycle_orders))


def make_group(orders) -> FiniteAbelianGroup:
    return FiniteAbelianGroup(tuple(orders))


def element_order(group: FiniteAbelianGroup, g) -> int:
    """Additive order: lcm over factors of N_i / gcd(N_i, g_i)."""
    g = group.check_element(g)
    return math.lcm(*(n // math.gcd(n, x) for x, n in zip(g, group.cycle_orders))) if g else 1


def factorize(n: int) -> dict[int, int]:
    """Prime factorization by trial division; {} for n = 1."""
    factors: dict[int, int] = {}
    d = 2
    while d * d <= n:
        while n % d == 0:
            factors[d] = factors.get(d, 0) + 1
            n //= d
        d += 1
    if n > 1:
        factors[n] = factors.get(n, 0) + 1
    return factors


def is_prime(p: int) -> bool:
    """Trial division, exact for every p."""
    if p < 2:
        return False
    d = 2
    while d * d <= p:
        if p % d == 0:
            return False
        d += 1
    return True


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
    """Sum of 1/order(g) over the group, via the per-prime closed form."""
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
    """Undephased defect of F_n: n * prod over p^a || n of (1 + a - a/p)."""
    if n < 1:
        raise ValueError(f"n must be positive, got {n}")
    value = Fraction(n)
    for p, a in factorize(n).items():
        value *= 1 + a - Fraction(a, p)
    if value.denominator != 1:
        raise RuntimeError(f"cyclic defect formula produced non-integer {value} for n={n}")
    return value.numerator


def delta_dihedral(n: int) -> Fraction:
    """Order-weighted sum 1/ord over the dihedral group of order 2n: n/2 + delta(Z_n)."""
    if n < 1:
        raise ValueError(f"n must be positive, got {n}")
    return Fraction(n, 2) + delta_closed(make_group([n]))


class _ParityUnionFind:
    """Union-find whose edges may carry a conjugation flag (parity 1)."""

    def __init__(self, size: int):
        self.parent = list(range(size))
        self.parity = [0] * size
        self.forced_real = [False] * size

    def find(self, x: int) -> tuple[int, int]:
        root = x
        par = 0
        while self.parent[root] != root:
            par ^= self.parity[root]
            root = self.parent[root]
        # path compression, re-anchoring parities at the root
        result = par
        while self.parent[x] != root:
            nxt = self.parent[x]
            nxt_par = par ^ self.parity[x]
            self.parent[x] = root
            self.parity[x] = par
            x, par = nxt, nxt_par
        return root, result

    def union(self, x: int, y: int, flag: int) -> None:
        rx, px = self.find(x)
        ry, py = self.find(y)
        if rx == ry:
            if px ^ py != flag:
                # cycle implies z = conj(z) on this class
                self.forced_real[rx] = True
            return
        self.parent[ry] = rx
        self.parity[ry] = px ^ py ^ flag
        if self.forced_real[ry]:
            self.forced_real[rx] = True


def _p_space_union_find(group: FiniteAbelianGroup) -> tuple[_ParityUnionFind, list]:
    n = group.order
    elems = group.element_list()
    index = {g: i for i, g in enumerate(elems)}
    uf = _ParityUnionFind(n * n)
    for j, gj in enumerate(elems):
        shift = [index[group.add(g, gj)] for g in elems]
        jneg = index[group.neg(gj)]
        for i in range(n):
            node = i * n + j
            uf.union(node, shift[i] * n + j, 0)
            uf.union(node, i * n + jneg, 1)
    return uf, elems


def p_space_components(group: FiniteAbelianGroup, cap: int | None = None):
    """Constraint classes of the group-indexed parameter space.

    Entries P[i][j] are tied by column translation (P[i][j] = P[i+j][j]) and
    column conjugation (P[i][j] = conj(P[i][-j])). Returns a list of
    (members, forced_real) where members holds (row_index, col_index, parity)
    triples, parity 1 meaning the entry is the conjugate of the class value.
    """
    _check_cap(group.order, cap, "p_space_components")
    n = group.order
    uf, _ = _p_space_union_find(group)
    classes: dict[int, list[tuple[int, int, int]]] = {}
    for i in range(n):
        for j in range(n):
            root, par = uf.find(i * n + j)
            classes.setdefault(root, []).append((i, j, par))
    return [(members, uf.forced_real[root]) for root, members in sorted(classes.items())]


def p_space_dimension(group: FiniteAbelianGroup, cap: int | None = None) -> int:
    """Real dimension of the constrained parameter space (2 per free class, 1 per real one)."""
    return sum(1 if forced else 2 for _, forced in p_space_components(group, cap))


@lru_cache(maxsize=None)
def _partitions(n: int) -> tuple[tuple[int, ...], ...]:
    """Nondecreasing partitions of n, lexicographically ordered."""
    if n == 0:
        return ((),)
    result = []
    def extend(remaining, minimum, prefix):
        if remaining == 0:
            result.append(prefix)
            return
        for part in range(minimum, remaining + 1):
            extend(remaining - part, part, prefix + (part,))
    extend(n, 1, ())
    return tuple(result)


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
