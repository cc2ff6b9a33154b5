"""Group arithmetic and the exact defect formulas, checked against enumeration oracles."""

import math
from fractions import Fraction

import pytest

from hdefect.errors import CapExceededError
from hdefect.groups import (
    abelian_group_types,
    delta_bruteforce,
    delta_closed,
    delta_dihedral,
    delta_isotypic,
    element_order,
    fourier_defect,
    fourier_defect_cyclic,
    isotypic_decomposition,
    make_group,
    p_space_dimension,
)


def order_by_repeated_addition(group, g):
    """Oracle: add g to itself until the identity comes back."""
    zero = tuple(0 for _ in group.cycle_orders)
    acc = g
    k = 1
    while acc != zero:
        acc = group.add(acc, g)
        k += 1
    return k


def delta_by_enumeration(group):
    """Oracle: sum 1/ord(g) using the repeated-addition order."""
    return sum(
        (Fraction(1, order_by_repeated_addition(group, g)) for g in group.elements()),
        Fraction(0),
    )


def test_make_group_validates():
    with pytest.raises(ValueError):
        make_group([0, 3])
    with pytest.raises(ValueError):
        make_group([-2])
    assert make_group([]).order == 1
    assert make_group([1]).order == 1
    assert make_group([2, 4]).order == 8


def test_element_iteration_is_odometer():
    g = make_group([2, 3])
    assert list(g.elements()) == [(0, 0), (0, 1), (0, 2), (1, 0), (1, 1), (1, 2)]


def test_element_order_examples():
    g = make_group([2, 4])
    assert element_order(g, (1, 2)) == 2
    assert element_order(g, (1, 2)) == order_by_repeated_addition(g, (1, 2))
    assert element_order(g, (0, 0)) == 1
    with pytest.raises(ValueError):
        element_order(g, (2, 0))
    with pytest.raises(ValueError):
        element_order(g, (0,))


def test_element_order_matches_repeated_addition():
    for orders in [(5,), (8,), (2, 4), (3, 9), (2, 2, 3), (12,)]:
        g = make_group(orders)
        for e in g.elements():
            assert element_order(g, e) == order_by_repeated_addition(g, e)


def test_delta_bruteforce_examples():
    assert delta_bruteforce(make_group([6])) == Fraction(5, 2)
    assert delta_bruteforce(make_group([2])) == Fraction(3, 2)
    assert delta_bruteforce(make_group([])) == 1
    assert delta_bruteforce(make_group([1])) == 1


def test_delta_bruteforce_cap():
    with pytest.raises(CapExceededError):
        delta_bruteforce(make_group([100]), cap=99)
    assert delta_bruteforce(make_group([100]), cap=100) == delta_by_enumeration(make_group([100]))


def test_cap_env_override(monkeypatch):
    monkeypatch.setenv("HD_CAP", "10")
    with pytest.raises(CapExceededError):
        delta_bruteforce(make_group([11]))
    assert delta_bruteforce(make_group([10])) == delta_by_enumeration(make_group([10]))
    monkeypatch.setenv("HD_CAP", "zero")
    with pytest.raises(ValueError):
        delta_bruteforce(make_group([2]))


def test_isotypic_decomposition_examples():
    assert isotypic_decomposition(make_group([6])) == {2: (1,), 3: (1,)}
    assert isotypic_decomposition(make_group([2, 4])) == {2: (1, 2)}
    assert isotypic_decomposition(make_group([12, 2])) == {2: (1, 2), 3: (1,)}
    assert isotypic_decomposition(make_group([1])) == {}


def test_isotypic_reconstruction():
    # the primary decomposition rebuilds a group of the same order and exponent
    for orders in [(6,), (12, 2), (4, 6), (30,), (8, 9)]:
        g = make_group(orders)
        cycles = [p**a for p, exps in isotypic_decomposition(g).items() for a in exps]
        h = make_group(sorted(cycles))
        assert h.order == g.order
        assert h.exponent == g.exponent
        assert delta_bruteforce(h) == delta_bruteforce(g)


def test_delta_isotypic_examples():
    assert delta_isotypic(2, [1, 2]) == Fraction(7, 2)
    assert delta_isotypic(2, [1, 1]) == Fraction(5, 2)
    for p in (2, 3, 5):
        for a in range(1, 5):
            assert delta_isotypic(p, [a]) == 1 + a - Fraction(a, p)
    with pytest.raises(ValueError):
        delta_isotypic(6, [1])


def test_delta_closed_examples():
    assert delta_closed(make_group([2])) == Fraction(3, 2)
    assert delta_closed(make_group([6])) == Fraction(5, 2)
    assert delta_closed(make_group([2, 4])) == Fraction(7, 2)
    assert delta_closed(make_group([2, 2])) == Fraction(5, 2)
    assert delta_closed(make_group([])) == 1


def test_delta_closed_matches_bruteforce_up_to_256():
    checked = 0
    for order in range(1, 257):
        for g in abelian_group_types(order):
            assert delta_closed(g) == delta_by_enumeration(g), g
            checked += 1
    assert checked > 250


def test_delta_multiplicative_for_coprime_orders():
    for o1 in range(1, 65):
        for o2 in range(1, 129):
            if o1 * o2 > 128:
                break
            for g1 in abelian_group_types(o1):
                for g2 in abelian_group_types(o2):
                    both = make_group(g1.cycle_orders + g2.cycle_orders)
                    lhs = delta_closed(both)
                    rhs = delta_closed(g1) * delta_closed(g2)
                    if math.gcd(o1, o2) == 1:
                        assert lhs == rhs
                    else:
                        assert lhs >= rhs


def test_fourier_defect_examples():
    assert fourier_defect(make_group([2, 2])) == 10
    assert fourier_defect(make_group([2])) == 3
    assert fourier_defect(make_group([2, 4])) == 28


def test_fourier_defect_is_group_sum():
    # |G|/ord(g) summed over the group equals the closed form
    for orders in [(2,), (4,), (6,), (2, 2), (2, 4), (3, 3), (12,), (2, 2, 2)]:
        g = make_group(orders)
        brute = sum(Fraction(g.order, element_order(g, e)) for e in g.elements())
        assert brute == fourier_defect(g)


def test_fourier_defect_cyclic_examples():
    assert fourier_defect_cyclic(6) == 15
    assert fourier_defect_cyclic(1) == 1
    assert fourier_defect_cyclic(4) == 8
    with pytest.raises(ValueError):
        fourier_defect_cyclic(0)


def test_fourier_defect_cyclic_matches_general():
    for n in range(1, 101):
        assert fourier_defect_cyclic(n) == fourier_defect(make_group([n]))


def test_delta_dihedral_examples():
    assert delta_dihedral(4) == 4
    assert delta_dihedral(1) == Fraction(3, 2)
    assert delta_dihedral(3) == Fraction(19, 6)
    with pytest.raises(ValueError):
        delta_dihedral(0)


def test_p_space_dimension_examples():
    assert p_space_dimension(make_group([2])) == 3
    assert p_space_dimension(make_group([2, 2])) == 10
    assert p_space_dimension(make_group([3])) == 5


def test_p_space_dimension_matches_defect_up_to_64():
    for order in range(1, 65):
        for g in abelian_group_types(order):
            assert p_space_dimension(g) == fourier_defect(g), g


def test_abelian_group_types_counts():
    assert len(abelian_group_types(1)) == 1
    assert len(abelian_group_types(12)) == 2
    assert len(abelian_group_types(16)) == 5
    assert len(abelian_group_types(36)) == 4
    orders_16 = {g.cycle_orders for g in abelian_group_types(16)}
    assert (2, 2, 2, 2) in orders_16 and (16,) in orders_16 and (4, 4) in orders_16
