"""Test oracles for the fixed-point statistics: general permutation groups, read off cycle types.

`hdefect.charstats` keeps only the regular-action statistics that the program reads. These oracles compute the same
quantities the long way, for any permutation action, so that tests can check the library against them:

- `permutation_group` validates a list by its closure: it checks that the constructors build groups by their law;
- `permutation_order`, `group_exponent` and `fixed_points_of_power` read orders and fixed points off cycle types:
  they check `ds_delta_exact`'s walk to point 0, and are checked in turn by repeated composition;
- `ds_variable` and `ds_perm_estimate` give the window average of normalized fixed points for any action: they check
  `ds_defect_estimate`, which reads it off element orders, and `ds_delta_exact` at a full-exponent window;
- `regular_representation` and `dihedral_group` give the regular action of an abelian group and the natural dihedral
  action: inputs on which the library's statistics and `regular_dihedral_group` are checked;
- `delta_dihedral` is the sum of 1/ord over the dihedral group of order 2n, from `delta_closed`: it checks
  `ds_delta_exact(regular_dihedral_group(n))`;
- `add` is componentwise group addition: it checks `FiniteAbelianGroup.index_tables` and the enumeration oracles.

None of them reads input from outside the program, so none has a size guard.
"""

from fractions import Fraction
from math import lcm

from hdefect.charstats import PermutationGroup
from hdefect.groups import FiniteAbelianGroup, delta_closed, make_group


def compose(a: tuple[int, ...], b: tuple[int, ...]) -> tuple[int, ...]:
    """(a o b)(x) = a[b[x]]."""
    return tuple(a[x] for x in b)


def permutation_group(degree: int, elements) -> PermutationGroup:
    """Validate the permutations and their closure under composition, then freeze the group.

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
    for a in image:
        for b in image:
            if compose(a, b) not in image:
                raise ValueError("element list not closed under composition")
    return PermutationGroup(degree=degree, elements=elems, identity_index=elems.index(tuple(domain)))


def cycle_lengths(perm: tuple[int, ...]) -> list[int]:
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
    return lcm(*cycle_lengths(perm)) if perm else 1


def group_exponent(group: PermutationGroup) -> int:
    return lcm(*(permutation_order(p) for p in group.elements))


def fixed_points_of_power(perm: tuple[int, ...], r: int) -> int:
    # A length-c cycle of g contributes c fixed points to g^r exactly when c | r.
    return sum(c for c in cycle_lengths(perm) if r % c == 0)


def ds_variable(group: PermutationGroup, element_index: int, r: int) -> Fraction:
    """Fixed points of the r-th power, normalized by the degree."""
    if r < 1:
        raise ValueError("power index must be >= 1")
    return Fraction(fixed_points_of_power(group.elements[element_index], r), group.degree)


def ds_perm_estimate(group: PermutationGroup, k: int, window: int) -> Fraction:
    """n^2 / window * sum over r <= window and g of (fix(g^r) / n)^k / n, read off the cycle types of any action."""
    if window < 1:
        raise ValueError("window length must be >= 1")
    if k < 1:
        raise ValueError("moment index must be >= 1")
    cycles = [cycle_lengths(p) for p in group.elements]  # each element's cycle type, found once
    # g^r fixes the f points of g's cycles whose length divides r; n^2 / window * sum (f / n)^k / n, as one fraction
    fixed = (sum(c for c in lengths if r % c == 0) for r in range(1, window + 1) for lengths in cycles)
    return Fraction(sum(f**k for f in fixed), window * group.degree ** (k - 1))


def add(group: FiniteAbelianGroup, g, h) -> tuple[int, ...]:
    """g + h, residue by residue."""
    return tuple((x + y) % n for x, y, n in zip(g, h, group.cycle_orders))


def regular_representation(group: FiniteAbelianGroup) -> PermutationGroup:
    """Left translation action of an abelian group on itself; a group by Cayley's theorem, row 0 the identity."""
    return PermutationGroup(group.order, tuple(map(tuple, group.index_tables()[0].tolist())), 0)


def dihedral_group(n: int) -> PermutationGroup:
    """Rotations and reflections acting on n points, closed by the group law, with rotation 0, the identity, first.

    For n <= 2 the action is not faithful and the 2n-entry list repeats
    permutations; the list still enumerates the abstract group elements.
    """
    if n < 1:
        raise ValueError("need n >= 1")
    rotations = [tuple((x + k) % n for x in range(n)) for k in range(n)]
    reflections = [tuple((c - x) % n for x in range(n)) for c in range(n)]
    return PermutationGroup(n, tuple(rotations + reflections), 0)


def delta_dihedral(n: int) -> Fraction:
    """Sum of 1/ord over the dihedral group of order 2n: n reflections of order 2, and the rotations, a copy of Z_n."""
    if n < 1:
        raise ValueError(f"n must be positive, got {n}")
    return Fraction(n, 2) + delta_closed(make_group([n]))
