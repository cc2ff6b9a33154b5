"""Cyclotomic polynomial arithmetic used by the exact checks."""

import math

import numpy as np
import pytest

from hdefect import cyclotomic
from hdefect.cyclotomic import (
    cyclotomic_polynomial,
    divisors,
    euler_phi,
    power_reduction_table,
)
from hdefect.errors import MAX_SYSTEM_BYTES, CapExceededError


def test_small_cyclotomics():
    assert cyclotomic_polynomial(1) == (-1, 1)
    assert cyclotomic_polynomial(2) == (1, 1)
    assert cyclotomic_polynomial(3) == (1, 1, 1)
    assert cyclotomic_polynomial(4) == (1, 0, 1)
    assert cyclotomic_polynomial(6) == (1, -1, 1)
    assert cyclotomic_polynomial(8) == (1, 0, 0, 0, 1)
    assert cyclotomic_polynomial(12) == (1, 0, -1, 0, 1)


def test_cyclotomic_coefficients_can_exceed_one():
    # first index with a coefficient of magnitude 2
    assert 2 in {abs(c) for c in cyclotomic_polynomial(105)}


def test_product_over_divisors_is_x_pow_n_minus_one():
    for n in range(1, 31):
        prod = np.array([1], dtype=object)
        for d in divisors(n):
            prod = np.polymul(prod[::-1], np.array(cyclotomic_polynomial(d), dtype=object)[::-1])[::-1]
        expected = [-1] + [0] * (n - 1) + [1]
        assert list(prod) == expected


def test_euler_phi():
    def totient(n):
        return sum(1 for k in range(1, n + 1) if math.gcd(k, n) == 1)

    for n in range(1, 50):
        assert euler_phi(n) == totient(n)
    for q in range(1, 201):
        assert euler_phi(q) == len(cyclotomic_polynomial(q)) - 1


def test_reduction_table_size_guard(monkeypatch):
    # q = 39892 = 4 x 9973 would need 39892 x 19944 x 8 bytes, about 6.4 GB; Phi_q must not be built.
    def refused(q):
        raise AssertionError("Phi_q built before the size check")

    monkeypatch.setattr(cyclotomic, "cyclotomic_polynomial", refused)
    assert 39892 * euler_phi(39892) * 8 > MAX_SYSTEM_BYTES
    with pytest.raises(CapExceededError):
        power_reduction_table(39892)


def test_reduction_table_matches_numeric_roots():
    for q in (2, 3, 4, 6, 8, 12, 16):
        table = power_reduction_table(q)
        basis = np.exp(2j * np.pi * np.arange(euler_phi(q)) / q)
        roots = np.exp(2j * np.pi * np.arange(q) / q)
        assert np.allclose(table @ basis, roots, atol=1e-12)


def _root_power_sum_is_zero(q, counts):
    return not (np.asarray(counts) @ power_reduction_table(q)).any()


def test_root_power_sums():
    for q in range(2, 20):
        assert _root_power_sum_is_zero(q, [1] * q)
    counts = [0] * 6
    counts[0] = 1
    counts[3] = 1  # 1 + e^(pi i) = 0
    assert _root_power_sum_is_zero(6, counts)
    counts = [0] * 6
    counts[0] = 1
    counts[2] = 1
    counts[4] = 1  # cube roots inside the 6th roots
    assert _root_power_sum_is_zero(6, counts)
    counts[4] = 0
    assert not _root_power_sum_is_zero(6, counts)
    assert not _root_power_sum_is_zero(5, [1, 0, 0, 0, 0])
