"""Group arithmetic and the exact defect formulas, checked against enumeration oracles."""

import math
import re
from collections import deque
from fractions import Fraction
from itertools import product
from pathlib import Path

import numpy as np
import pytest

from hdefect import errors
from hdefect.errors import MAX_SYSTEM_BYTES, CapExceededError
from hdefect.groups import (
    FiniteAbelianGroup,
    abelian_group_types,
    delta_closed,
    delta_isotypic,
    element_order,
    fourier_defect,
    fourier_defect_cyclic,
    isotypic_decomposition,
    _p_space_keys,
    is_prime,
    make_group,
    p_space_dimension,
)
from hdefect.exact import _lift_primes
from hdefect.tangent import _p_space_basis
from perm_oracles import add, delta_dihedral, regular_representation


def order_by_repeated_addition(group, g):
    """Oracle: add g to itself until the identity comes back."""
    zero = tuple(0 for _ in group.cycle_orders)
    acc = g
    k = 1
    while acc != zero:
        acc = add(group, acc, g)
        k += 1
    return k


def delta_by_enumeration(group):
    """Oracle: sum 1/ord(g), each order found by adding g to itself until the identity comes back.

    All elements step at once: row g of `multiple` holds k g after k steps.
    """
    moduli = np.array(group.cycle_orders, dtype=np.int64)
    elements = np.array(group.element_list(), dtype=np.int64).reshape(group.order, len(moduli))
    orders, multiple, k = np.zeros(group.order, dtype=np.int64), elements, 1
    while not orders.all():
        orders[(orders == 0) & ~multiple.any(axis=1)] = k
        multiple, k = (multiple + elements) % moduli, k + 1
    values, counts = np.unique(orders, return_counts=True)
    return sum((Fraction(int(c), int(o)) for o, c in zip(values, counts)), Fraction(0))


def p_space_classes_by_search(group):
    """Oracle: breadth-first search over (i, j) -> (i + j, j) and the conjugation (i, j) -> (i, -j).

    Returns (member set, forced_real) per class; a class is forced real when an
    edge closes a cycle whose conjugation count is odd.
    """
    elems = group.element_list()
    index = {g: k for k, g in enumerate(elems)}
    neg = [index[tuple(-x % n for x, n in zip(g, group.cycle_orders))] for g in elems]
    seen, classes = set(), []
    for start in product(range(group.order), repeat=2):
        if start in seen:
            continue
        parity, forced, queue = {start: 0}, False, deque([start])
        while queue:
            node = i, j = queue.popleft()
            for nxt, flip in (((index[add(group, elems[i], elems[j])], j), 0), ((i, neg[j]), 1)):
                if nxt not in parity:
                    parity[nxt] = parity[node] ^ flip
                    queue.append(nxt)
                forced |= parity[nxt] != parity[node] ^ flip
        seen.update(parity)
        classes.append((frozenset(parity), forced))
    return classes


def p_space_components(group):
    """Oracle: constraint classes of the group-indexed parameter space, from `_p_space_keys`.

    Entries P[i][j] are tied by column translation (P[i][j] = P[i+j][j]), which
    runs along the coset i + <j>, and column conjugation (P[i][j] = conj(P[i][-j])),
    which keeps the row; so a class is one coset in the columns j and -j, forced
    real exactly when j = -j (2j = 0). Returns a list of (members, forced_real)
    where members holds (row_index, col_index, parity) triples, parity 1 meaning
    the entry is the conjugate of the class value (the larger of the two columns).
    """
    n = group.order
    key, neg = _p_space_keys(group)
    order = np.argsort(key, kind="stable")
    rows, columns = np.divmod(order, n)
    members = list(zip(rows.tolist(), columns.tolist(), (columns > neg[columns]).astype(int).tolist()))
    real = (columns == neg[columns]).tolist()
    starts = [0, *(np.flatnonzero(np.diff(key[order])) + 1).tolist(), n * n]
    return [(members[a:b], real[a]) for a, b in zip(starts, starts[1:])]


def is_prime_by_trial_division(p):
    """Oracle: no divisor d with d^2 <= p."""
    return p >= 2 and all(p % d for d in range(2, math.isqrt(p) + 1))


def test_is_prime_matches_trial_division():
    assert [p for p in range(10**5) if is_prime(p)] == [p for p in range(10**5) if is_prime_by_trial_division(p)]
    assert not is_prime(25326001)  # strong pseudoprime to the bases 2, 3 and 5
    assert not is_prime(3215031751)  # strong pseudoprime to the bases 2, 3, 5 and 7
    for q in (2, 8, 12, 16):
        for p in _lift_primes(q):
            assert is_prime(p) and is_prime_by_trial_division(p)
            assert not is_prime(p * p) and not is_prime(p * 4294967311)
    with pytest.raises(ValueError):
        is_prime(3317044064679887385961981)


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
    assert delta_by_enumeration(make_group([6])) == Fraction(5, 2)
    assert delta_by_enumeration(make_group([2])) == Fraction(3, 2)
    assert delta_by_enumeration(make_group([])) == 1
    assert delta_by_enumeration(make_group([1])) == 1


def test_p_space_keys_cap(monkeypatch):
    # The addition table of Z_12 is 12^2 x 8 = 1152 bytes.
    monkeypatch.setattr(errors, "MAX_SYSTEM_BYTES", 1151)
    with pytest.raises(CapExceededError, match="^addition table of order 12 needs 1152 bytes, above the cap 1151$"):
        _p_space_keys(make_group([12]))
    monkeypatch.setattr(errors, "MAX_SYSTEM_BYTES", 1152)
    assert p_space_dimension(make_group([12])) == fourier_defect(make_group([12]))


def test_p_space_components_match_search_up_to_64():
    for order in range(1, 65):
        for group in abelian_group_types(order):
            components = p_space_components(group)
            found = {frozenset((i, j) for i, j, _ in members): forced for members, forced in components}
            assert len(found) == len(components)
            assert found == dict(p_space_classes_by_search(group)), group
            table, neg = group.index_tables()
            for members, forced in components:
                if forced:
                    continue
                parity = {(i, j): p for i, j, p in members}
                for (i, j), p in parity.items():
                    assert parity[table[i, j], j] == p  # translation keeps the parity
                    assert parity[i, neg[j]] == 1 - p  # conjugation flips it


def test_p_space_basis_matches_the_classes():
    for orders in ([1], [2], [3], [4], [2, 2], [6], [8], [2, 4]):
        group = make_group(orders)
        n = group.order
        expected = []
        for members, forced in p_space_components(group):
            rows, cols, parities = np.array(members).T
            for entries in [1.0] if forced else [1.0, np.where(parities, -1j, 1j)]:
                element = np.zeros((n, n), dtype=complex)
                element[rows, cols] = entries
                expected.append(element.view(float).ravel().tolist())
        assert sorted(e.view(float).ravel().tolist() for e in _p_space_basis(group)) == sorted(expected), group


def test_index_tables_match_group_addition():
    for orders in ([], [1], [6], [2, 4], [2, 2, 3]):
        group = make_group(orders)
        elems = group.element_list()
        zero = tuple(0 for _ in orders)
        table, neg = group.index_tables()
        assert table.shape == (group.order, group.order) and table.dtype == neg.dtype == np.int64
        for i, g in enumerate(elems):
            assert elems[table[i, neg[i]]] == zero
            for j, h in enumerate(elems):
                assert elems[table[i, j]] == add(group, g, h)


def test_addition_table_refused_before_its_elements(monkeypatch):
    # 8193^2 x 8 = 537,001,992 bytes is above the 2^29-byte cap; 8192 fits exactly and is never built here.
    assert 8192**2 * 8 == MAX_SYSTEM_BYTES < 8193**2 * 8
    monkeypatch.setattr(FiniteAbelianGroup, "element_list", lambda group: pytest.fail("elements listed before the check"))
    for build in (p_space_components, regular_representation):
        with pytest.raises(CapExceededError, match="addition table of order 8193 needs 537001992 bytes"):
            build(make_group([8193]))


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
        assert delta_by_enumeration(h) == delta_by_enumeration(g)


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


def test_readme_order_64_table_matches_the_closed_form():
    # The README's proved defects of order 64 list each group once, with four counts that all equal d(F_G).
    text = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    rows = re.findall(r"^\| `fourier:([\dx]+)` \| (\d+) \| (\d+) \| (\d+) \| (\d+) \|", text, re.M)
    table = {tuple(map(int, spec.split("x"))): {int(c) for c in counts} for spec, *counts in rows}
    assert len(rows) == len(table) == 11
    assert table == {g.cycle_orders: {fourier_defect(g)} for g in abelian_group_types(64)}


def test_abelian_group_types_counts():
    assert len(abelian_group_types(1)) == 1
    assert len(abelian_group_types(12)) == 2
    assert len(abelian_group_types(16)) == 5
    assert len(abelian_group_types(36)) == 4
    orders_16 = {g.cycle_orders for g in abelian_group_types(16)}
    assert (2, 2, 2, 2) in orders_16 and (16,) in orders_16 and (4, 4) in orders_16
