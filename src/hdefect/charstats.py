"""Fixed-point statistics of regular permutation actions, and the defect estimates read off them.

For the regular representation the normalized fixed-point count of g^r is the indicator of ord(g) dividing r, so
averaging over r recovers sums of 1/ord(g); truncated averages stabilize once the window is a multiple of the group
exponent. What stays is what the program reads: `ds_defect_estimate` behind the `ds` command, and `ds_delta_exact`
with `regular_dihedral_group` behind acceptance test 8. The permutation machinery that checks them (closure
validation, cycle types, powers, the natural dihedral action, the estimator read off fixed points) is in
tests/perm_oracles.py as test oracles.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

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


def ds_defect_estimate(group: FiniteAbelianGroup, k: int, window: int) -> Fraction:
    """Window average n^2 / window * sum over r <= window and g of (fix(g^r) / n)^k / n, in the regular action.

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


def ds_delta_exact(group: PermutationGroup) -> Fraction:
    """Sum of 1/ord(g) over a regular action, read off fixed points: acceptance 8 checks it against
    n/2 + delta_closed(Z_n) on the dihedral groups, and tests against `delta_closed` and the permutation oracles.

    In a regular action g^r fixes every point when ord(g) | r and none otherwise, so ord(g) is the first r at which g^r
    fixes point 0: the walk x <- p[x] from p[0] back to 0. It takes at most `degree` steps on a permutation."""
    if not is_regular(group):
        raise ValueError("statistic is exact only for a regular action")
    total = Fraction(0)
    for p in group.elements:
        x, order = p[0], 1
        while x != 0:
            if order == group.degree:
                raise ValueError(f"not a permutation of range({group.degree}): {p}")
            x, order = p[x], order + 1
        total += Fraction(1, order)
    return total


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
