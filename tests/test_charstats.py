"""Permutation statistics: the library's regular-action statistics against the permutation oracles, and the oracles
against the group axioms and repeated composition."""

import random
from fractions import Fraction
from itertools import chain, combinations, permutations

import pytest

from hdefect.charstats import PermutationGroup, ds_defect_estimate, ds_delta_exact, is_regular, regular_dihedral_group
from hdefect.groups import abelian_group_types, delta_closed, fourier_defect, make_group
from perm_oracles import (
    compose,
    delta_dihedral,
    dihedral_group,
    ds_perm_estimate,
    ds_variable,
    fixed_points_of_power,
    group_exponent,
    permutation_group,
    permutation_order,
    regular_representation,
)


def power_by_composition(perm, r):
    # Oracle: repeated explicit composition, no cycle shortcuts.
    result = tuple(range(len(perm)))
    for _ in range(r):
        result = compose(perm, result)
    return result


def naive_estimate(group, k, window):
    # Oracle: the window average written out directly from fixed-point counts.
    n = group.degree
    total = Fraction(0)
    for r in range(1, window + 1):
        for p in group.elements:
            fixed = sum(1 for x in range(n) if power_by_composition(p, r)[x] == x)
            total += Fraction(fixed, n) ** k
    return Fraction(n * n, window) * total / n


def three_axiom_group(degree, elements):
    # Oracle: the group axioms checked one by one (identity, inverses, closure), or None when one fails.
    elems = tuple(tuple(p) for p in elements)
    identity = tuple(range(degree))
    if not elems or any(sorted(p) != list(identity) for p in elems) or identity not in elems:
        return None
    image = set(elems)
    for a in image:
        if tuple(sorted(range(degree), key=lambda x: a[x])) not in image:
            return None
        if any(compose(a, b) not in image for b in image):
            return None
    return (degree, elems, elems.index(identity))


def fixed_point_free_regular(group):
    # Oracle: as many points as entries, no fixed point off the identity, and no repeated entry.
    n = group.degree
    if n != group.order:
        return False
    for i, p in enumerate(group.elements):
        if i != group.identity_index and any(p[x] == x for x in range(n)):
            return False
    return len(set(group.elements)) == group.order


def closure_of(generators):
    # Oracle: the subgroup generated, by breadth-first products.
    found = set(generators)
    frontier = list(found)
    while frontier:
        new = {compose(a, b) for a in frontier for b in generators} - found
        found |= new
        frontier = list(new)
    return found


def test_validation_rejects_bad_lists():
    with pytest.raises(ValueError):
        permutation_group(2, [(0, 1), (1, 2)])
    with pytest.raises(ValueError):
        permutation_group(2, [(1, 0)])
    with pytest.raises(ValueError):
        permutation_group(3, [(0, 1, 2), (1, 2, 0)])
    with pytest.raises(ValueError):
        permutation_group(1, [])


def test_composition_convention():
    a = (1, 0, 2)
    b = (0, 2, 1)
    assert compose(a, b) == (1, 2, 0)
    assert compose(b, a) == (2, 0, 1)


def test_orders_and_powers_match_composition_oracle():
    group = dihedral_group(4)
    for p in group.elements:
        order = permutation_order(p)
        assert power_by_composition(p, order) == tuple(range(4))
        for r in range(1, order):
            assert power_by_composition(p, r) != tuple(range(4))
        for r in range(1, 9):
            powered = power_by_composition(p, r)
            fixed = sum(1 for x in range(4) if powered[x] == x)
            assert fixed_points_of_power(p, r) == fixed


def test_dihedral_group_shape():
    group = dihedral_group(4)
    assert group.degree == 4
    assert group.order == 8
    assert sorted(permutation_order(p) for p in group.elements) == [1, 2, 2, 2, 2, 2, 4, 4]
    assert group_exponent(group) == 4
    # degenerate cases keep the full 2n-entry element list
    assert dihedral_group(1).order == 2
    assert dihedral_group(2).order == 4
    assert len(set(dihedral_group(2).elements)) == 2


def test_regular_representation_of_cyclic_group():
    group = regular_representation(make_group([6]))
    assert group.degree == 6
    assert group.order == 6
    assert is_regular(group)
    assert group_exponent(group) == 6
    assert sorted(permutation_order(p) for p in group.elements) == [1, 2, 3, 3, 6, 6]


def test_regular_dihedral_matches_natural_action_orders():
    for n in range(3, 7):
        regular = regular_dihedral_group(n)
        natural = dihedral_group(n)
        assert regular.degree == 2 * n
        assert is_regular(regular)
        assert sorted(permutation_order(p) for p in regular.elements) == sorted(
            permutation_order(p) for p in natural.elements
        )


def test_ds_variable_on_regular_swap():
    group = regular_representation(make_group([2]))
    swap = next(i for i, p in enumerate(group.elements) if i != group.identity_index)
    assert ds_variable(group, swap, 1) == 0
    assert ds_variable(group, swap, 2) == 1
    assert ds_variable(group, group.identity_index, 1) == 1
    with pytest.raises(ValueError):
        ds_variable(group, swap, 0)


def test_defect_estimate_frozen_small_windows():
    z2 = make_group([2])
    group = regular_representation(z2)
    assert naive_estimate(group, 1, 2) == 3
    assert naive_estimate(group, 1, 1) == 2
    assert ds_defect_estimate(z2, 1, 2) == 3
    assert ds_defect_estimate(z2, 1, 1) == 2


def test_estimate_paths_agree():
    for orders in ([2], [3], [4], [2, 2], [6], [2, 4]):
        group = make_group(orders)
        perm = regular_representation(group)
        for k in (1, 2):
            for window in (1, 2, 3, group.exponent):
                assert ds_defect_estimate(group, k, window) == ds_perm_estimate(perm, k, window)
                assert ds_perm_estimate(perm, k, window) == naive_estimate(perm, k, window)


def test_estimate_exact_at_exponent_multiples():
    for order in range(1, 25):
        for group in abelian_group_types(order):
            expected = fourier_defect(group)
            e = group.exponent
            for k in (1, 2, 3):
                assert ds_defect_estimate(group, k, e) == expected
            assert ds_defect_estimate(group, 1, 2 * e) == expected
            assert ds_defect_estimate(group, 1, 3 * e) == expected


def test_estimate_sums_whole_periods():
    # w * est(w) counts the hits over r <= w, and the hits of r depend only on r mod e
    for orders in ([2, 3, 4], [6], [2, 2], [1]):
        group = make_group(orders)
        e = group.exponent
        for m in (0, 10**9 + 7):
            for s in range(1, e + 1):
                w = m * e + s
                rest = s * ds_defect_estimate(group, 1, s)
                assert w * ds_defect_estimate(group, 1, w) == m * e * ds_defect_estimate(group, 1, e) + rest


def test_estimate_deviation_bound():
    for orders in ([6], [2, 4], [12]):
        group = make_group(orders)
        target = fourier_defect(group)
        n = group.order
        e = group.exponent
        for window in range(1, 13):
            deviation = abs(ds_defect_estimate(group, 1, window) - target)
            assert deviation <= Fraction(n * n * e, window)


def test_delta_exact_on_regular_groups():
    assert ds_delta_exact(regular_representation(make_group([6]))) == Fraction(5, 2)
    for order in range(1, 17):
        for group in abelian_group_types(order):
            delta = ds_delta_exact(regular_representation(group))
            assert delta == delta_closed(group)
    for n in range(1, 9):
        assert ds_delta_exact(regular_dihedral_group(n)) == delta_dihedral(n)


def test_delta_exact_requires_regular_action():
    with pytest.raises(ValueError):
        ds_delta_exact(dihedral_group(4))
    with pytest.raises(ValueError):
        ds_delta_exact(dihedral_group(2))


def relabelled(group, rng):
    # The same action with its points renamed by a random sigma, p -> sigma p sigma^-1, and its element list shuffled.
    sigma = list(range(group.degree))
    rng.shuffle(sigma)
    elements = []
    for p in group.elements:
        moved = [0] * group.degree
        for x in range(group.degree):
            moved[sigma[x]] = sigma[p[x]]
        elements.append(tuple(moved))
    rng.shuffle(elements)
    return PermutationGroup(group.degree, tuple(elements), elements.index(tuple(range(group.degree))))


def test_delta_exact_is_invariant_under_relabelling():
    # The walk starts at point 0, which relabelling moves; the sum, and the oracle's window average at every moment
    # index, must not move with it.
    rng = random.Random(26)
    cases = [(regular_representation(g), delta_closed(g)) for order in range(1, 17) for g in abelian_group_types(order)]
    cases += [(regular_dihedral_group(n), delta_dihedral(n)) for n in range(1, 9)]
    for group, expected in cases:
        for _ in range(3):
            moved = relabelled(group, rng)
            exponent = group_exponent(moved)
            assert ds_delta_exact(moved) == expected, group
            for k in (1, 2, 3):
                assert ds_perm_estimate(moved, k, exponent) / moved.degree == expected
    # Regular by its first column, but (1, 1) is no permutation: its walk never returns to 0, and is refused.
    malformed = PermutationGroup(2, ((1, 1), (0, 1)), 1)
    assert is_regular(malformed)
    with pytest.raises(ValueError, match="not a permutation"):
        ds_delta_exact(malformed)


def assert_rules_agree(degree, elements):
    # None when both rules reject the list; else is_regular, after the oracles agree on the group and on regularity.
    expected = three_axiom_group(degree, elements)
    try:
        group = permutation_group(degree, elements)
    except ValueError:
        assert expected is None, elements
        return None
    assert (group.degree, group.elements, group.identity_index) == expected
    assert is_regular(group) == fixed_point_free_regular(group), elements
    return is_regular(group)


def test_closure_and_one_orbit_agree_with_the_axioms():
    # Every subset of S_1, S_2 and S_3, alone and with a repeated entry, then seeded lists and subgroups of S_4.
    rng = random.Random(19)
    results = []
    for degree in (1, 2, 3):
        sym = list(permutations(range(degree)))
        for subset in chain.from_iterable(combinations(sym, k) for k in range(len(sym) + 1)):
            results.append(assert_rules_agree(degree, list(subset)))
            results.append(assert_rules_agree(degree, list(subset) + list(subset[:1])))
    s4 = list(permutations(range(4)))
    for _ in range(2000):
        elements = rng.sample(s4, rng.randint(1, 24))
        if rng.random() < 0.3:
            elements.append(rng.choice(elements))
        results.append(assert_rules_agree(4, elements))
    for _ in range(500):
        elements = list(closure_of(rng.sample(s4, rng.randint(1, 2))))
        rng.shuffle(elements)
        if rng.random() < 0.3:
            elements.insert(rng.randrange(len(elements) + 1), rng.choice(elements))
        results.append(assert_rules_agree(4, elements))
    for n in range(1, 5):
        results.append(assert_rules_agree(2 * n, regular_dihedral_group(n).elements))
        results.append(assert_rules_agree(n, dihedral_group(n).elements))
    for group in (g for order in range(1, 9) for g in abelian_group_types(order)):
        elements = regular_representation(group).elements
        results.append(assert_rules_agree(group.order, elements))
        results.append(assert_rules_agree(group.order, elements + elements[-1:]))
    accepted = [r for r in results if r is not None]
    assert len(accepted) > 400 and sum(accepted) > 20 and len(results) - len(accepted) > 1000


def test_constructors_build_by_the_group_law():
    # Each constructor builds its list by its group law; the closure validator, given the same lists, returns the
    # same groups: identity first, elements in their order.
    built = [(g.order, regular_representation(g)) for order in range(1, 17) for g in abelian_group_types(order)]
    built += [(n, dihedral_group(n)) for n in range(1, 9)] + [(2 * n, regular_dihedral_group(n)) for n in range(1, 9)]
    for degree, group in built:
        assert group.identity_index == 0 and permutation_group(degree, group.elements) == group
