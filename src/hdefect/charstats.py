"""Fixed-point statistics of permutation groups and defect estimates from them.

For the regular representation the normalized fixed-point count of g^r is the
indicator of ord(g) dividing r, so averaging over r recovers sums of 1/ord(g).
Truncated averages give estimates that stabilize once the window length is a
multiple of the group exponent.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import lcm

from .errors import check_elements
from .groups import FiniteAbelianGroup, element_orders


@dataclass(frozen=True)
class PermutationGroup:
    """A finite group given by its action on range(degree).

    The element list may contain repeated permutations when the action is
    not faithful; statistics average over the list, not the image set.
    """

    degree: int
    elements: tuple[tuple[int, ...], ...]
    identity_index: int

    @property
    def order(self) -> int:
        return len(self.elements)


def compose(a: tuple[int, ...], b: tuple[int, ...]) -> tuple[int, ...]:
    """(a o b)(x) = a[b[x]]."""
    return tuple(a[x] for x in b)


def permutation_group(degree: int, elements) -> PermutationGroup:
    """Validate the permutations and their closure under composition, then freeze the group: for lists from outside.

    Closure is enough: a nonempty finite set closed under composition holds every power of each element,
    so it holds the identity and every inverse."""
    elems = tuple(tuple(p) for p in elements)
    if not elems:
        raise ValueError("empty element list")
    domain = list(range(degree))
    for p in elems:
        if sorted(p) != domain:
            raise ValueError(f"not a permutation of range({degree}): {p}")
    image = set(elems)
    check_elements("permutation_group", len(image) ** 2 * degree)  # images in the closure sweep's compositions
    for a in image:
        for b in image:
            if compose(a, b) not in image:
                raise ValueError("element list not closed under composition")
    return PermutationGroup(degree=degree, elements=elems, identity_index=elems.index(tuple(domain)))


def _cycle_lengths(perm: tuple[int, ...]) -> list[int]:
    seen = [False] * len(perm)
    lengths = []
    for start in range(len(perm)):
        if seen[start]:
            continue
        length = 0
        x = start
        while not seen[x]:
            seen[x] = True
            x = perm[x]
            length += 1
        lengths.append(length)
    return lengths


def permutation_order(perm: tuple[int, ...]) -> int:
    return lcm(*_cycle_lengths(perm)) if perm else 1


def group_exponent(group: PermutationGroup) -> int:
    return lcm(*(permutation_order(p) for p in group.elements))


def fixed_points_of_power(perm: tuple[int, ...], r: int) -> int:
    # A length-c cycle of g contributes c fixed points to g^r exactly when c | r.
    return sum(c for c in _cycle_lengths(perm) if r % c == 0)


def ds_variable(group: PermutationGroup, element_index: int, r: int) -> Fraction:
    """Fixed points of the r-th power, normalized by the degree."""
    if r < 1:
        raise ValueError("power index must be >= 1")
    return Fraction(fixed_points_of_power(group.elements[element_index], r), group.degree)


def ds_perm_estimate(group: PermutationGroup, k: int, window: int) -> Fraction:
    """The statistic of `ds_defect_estimate` read off fixed points of permutations; checks its element-order sum."""
    if window < 1:
        raise ValueError("window length must be >= 1")
    if k < 1:
        raise ValueError("moment index must be >= 1")
    check_elements("ds_perm_estimate", window * group.order)  # (power, element) fixed-point counts
    cycles = [_cycle_lengths(p) for p in group.elements]  # each element's cycle type, found once
    # g^r fixes the f points of g's cycles whose length divides r; n^2 / window * sum (f / n)^k / n, as one fraction
    fixed = (sum(c for c in lengths if r % c == 0) for r in range(1, window + 1) for lengths in cycles)
    return Fraction(sum(f**k for f in fixed), window * group.degree ** (k - 1))


def ds_defect_estimate(group: FiniteAbelianGroup, k: int, window: int) -> Fraction:
    """Same window average, computed from element orders in the regular action.

    In the regular representation g^r fixes everything or nothing, so the
    normalized statistic is the indicator of ord(g) | r and the k-th moment
    collapses to the plain count. Summed over r <= window, g is counted
    window // ord(g) times, so the cost does not grow with the window.
    """
    if window < 1:
        raise ValueError("window length must be >= 1")
    if k < 1:
        raise ValueError("moment index must be >= 1")
    check_elements("ds_defect_estimate", group.order)
    hits = sum(window // order for order in element_orders(group).tolist())  # its own elements: none is validated
    return Fraction(group.order * hits, window)


def is_regular(group: PermutationGroup) -> bool:
    """True when the action is the left translation action on the group itself.

    That is when g -> g(0) maps the element list one-to-one onto the points: by orbit-stabilizer there is then
    one orbit, of size |G| = degree, and every stabilizer is trivial. A repeated entry breaks the map."""
    return group.order == group.degree and len({p[0] for p in group.elements}) == group.degree


def ds_delta_exact(group: PermutationGroup, k: int = 1) -> Fraction:
    """Order-weighted sum recovered exactly from a full-exponent window.

    Requires a regular action; at window = exponent the truncated average of
    the divisibility indicator equals 1/ord(g) with no error term.
    """
    if not is_regular(group):
        raise ValueError("statistic is exact only for a regular action")
    window = group_exponent(group)
    return ds_perm_estimate(group, k, window) / group.degree


def regular_representation(group: FiniteAbelianGroup) -> PermutationGroup:
    """Left translation action of an abelian group on itself; a group by Cayley's theorem, row 0 the identity."""
    check_elements("regular_representation", group.order**2)  # addition table entries
    return PermutationGroup(group.order, tuple(map(tuple, group.index_tables()[0].tolist())), 0)


def dihedral_group(n: int) -> PermutationGroup:
    """Rotations and reflections acting on n points, closed by the group law, with rotation 0, the identity, first.

    For n <= 2 the action is not faithful and the 2n-entry list repeats
    permutations; the list still enumerates the abstract group elements.
    """
    if n < 1:
        raise ValueError("need n >= 1")
    check_elements("dihedral_group", 2 * n * n)  # images of the 2n elements
    rotations = [tuple((x + k) % n for x in range(n)) for k in range(n)]
    reflections = [tuple((c - x) % n for x in range(n)) for c in range(n)]
    return PermutationGroup(n, tuple(rotations + reflections), 0)


def regular_dihedral_group(n: int) -> PermutationGroup:
    """Left translation action of the dihedral group on its own 2n elements: a group by Cayley's theorem.

    Elements are pairs (s, k) acting on Z_n as x -> (-1)^s x + k, composed as
    (s1, k1) * (s2, k2) = (s1 + s2, (-1)^(s1) k2 + k1); the identity (0, 0) is first.
    """
    if n < 1:
        raise ValueError("need n >= 1")
    check_elements("regular_dihedral_group", (2 * n) ** 2)  # products g * h

    def multiply(a, b):
        s1, k1 = a
        s2, k2 = b
        return ((s1 + s2) % 2, ((-k2 if s1 else k2) + k1) % n)

    elems = [(s, k) for s in range(2) for k in range(n)]
    index = {g: i for i, g in enumerate(elems)}
    perms = [tuple(index[multiply(g, h)] for h in elems) for g in elems]
    return PermutationGroup(2 * n, tuple(perms), 0)
