"""Exact rational systems: construction, modular and integer rank, the proof sandwich and the equality check."""

from fractions import Fraction
import random

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from hdefect import exact
from hdefect.cli import build_matrix, parse_matrix_spec, run
from hdefect.cyclotomic import power_reduction_table
from hdefect.errors import CapExceededError, NonExactError
from hdefect.exact import (
    BAREISS,
    MODULAR_LIFT,
    REFUTED_AT_INSTANCE,
    SUPPORTED,
    build_exact_system,
    conjecture_check,
    exact_upper_bound,
    integer_matrix_rank,
    modular_prime,
    rational_nullity,
)
from hdefect.groups import is_prime, make_group
from hdefect.matrices import (
    HadamardMatrix,
    apply_equivalence,
    fourier_matrix,
    haagerup_matrix,
    tao_matrix,
    tensor_product,
)
from hdefect.tangent import pair_rows, undephased_defect


def fraction_gauss_rank(rows, ncols):
    # Independent rank oracle: plain Gaussian elimination over Fraction.
    m = [[Fraction(v) for v in row] for row in rows]
    rank = 0
    for c in range(ncols):
        piv = next((k for k in range(rank, len(m)) if m[k][c]), None)
        if piv is None:
            continue
        m[rank], m[piv] = m[piv], m[rank]
        inv = 1 / m[rank][c]
        m[rank] = [v * inv for v in m[rank]]
        for k in range(len(m)):
            if k != rank and m[k][c]:
                f = m[k][c]
                m[k] = [a - f * b for a, b in zip(m[k], m[rank])]
        rank += 1
    return rank


def test_f2_system_shape_and_rows():
    system = build_exact_system(fourier_matrix(make_group([2])))
    assert system.root_order == 2
    assert system.degree == 1
    assert system.pairs.tolist() == [[0, 1], [1, 0]]
    for array in (system.pairs, system.exponents):
        assert array.dtype == np.int64 and not array.flags.writeable
    assert system.integer_rows() == [[1, -1, -1, 1], [-1, 1, 1, -1]]


def test_f3_rows_split_per_pair():
    system = build_exact_system(fourier_matrix(make_group([3])))
    assert system.root_order == 3
    assert system.degree == 2
    assert len(system.pairs) == 6
    assert len(system.integer_rows()) == 12


def test_integer_rank_matches_fraction_gauss_on_random_matrices():
    rng = random.Random(20240817)
    for _ in range(40):
        nrows = rng.randint(1, 8)
        ncols = rng.randint(1, 10)
        rows = [[rng.randint(-3, 3) for _ in range(ncols)] for _ in range(nrows)]
        assert integer_matrix_rank(rows, ncols) == fraction_gauss_rank(rows, ncols)


def test_integer_rank_degenerate_inputs():
    assert integer_matrix_rank([], 7) == 0
    assert integer_matrix_rank([[0, 0, 0]], 3) == 0
    assert integer_matrix_rank([[2, 4], [3, 6]], 2) == 1
    with pytest.raises(ValueError):
        integer_matrix_rank([[1, 2], [3]], 2)


def test_rational_nullity_small_fourier():
    assert rational_nullity(build_exact_system(fourier_matrix(make_group([2])))) == 3
    assert rational_nullity(build_exact_system(fourier_matrix(make_group([3])))) == 5


def test_trivial_matrix_nullity():
    system = build_exact_system(HadamardMatrix.from_turns([[Fraction(0)]]))
    assert system.pairs.tolist() == []
    assert rational_nullity(system) == 1


def test_conjecture_supported_on_small_instances():
    f2 = fourier_matrix(make_group([2]))
    cases = [
        fourier_matrix(make_group([2])),
        fourier_matrix(make_group([3])),
        fourier_matrix(make_group([4])),
        fourier_matrix(make_group([5])),
        fourier_matrix(make_group([2, 2])),
        fourier_matrix(make_group([2, 4])),
        tensor_product(f2, f2),
        tao_matrix(),
    ]
    for h in cases:
        report = conjecture_check(h)
        assert report.verdict == SUPPORTED
        assert report.rational_nullity == report.numeric_defect


def test_conjecture_soundness_on_eighth_root_deformations():
    from hdefect.matrices import DeformationParameters, deformed_tensor

    f2 = fourier_matrix(make_group([2]))
    for num in range(8):
        q = Fraction(num, 8)
        params = DeformationParameters.from_turns([[0, 0], [0, q]])
        h = deformed_tensor(f2, params, f2)
        report = conjecture_check(h)
        assert report.rational_nullity <= report.numeric_defect
        assert report.verdict in (SUPPORTED, REFUTED_AT_INSTANCE)


def test_degree_cap_enforced():
    with pytest.raises(CapExceededError):
        build_exact_system(haagerup_matrix(Fraction(1, 97)))
    with pytest.raises(CapExceededError):
        build_exact_system(fourier_matrix(make_group([8])), degree_cap=1)


def test_float_matrix_rejected():
    n = 5
    grid = np.arange(n)
    dft = np.exp(2j * np.pi * np.outer(grid, grid) / n)
    with pytest.raises(NonExactError):
        build_exact_system(HadamardMatrix.from_values(dft))


def test_report_fields():
    h = fourier_matrix(make_group([6]))
    report = conjecture_check(h)
    assert report.provenance == "fourier:6"
    assert report.root_order == 6
    assert report.degree == 2
    assert report.numeric_defect == undephased_defect(h).undephased_defect == 15
    assert report.gap_ratio >= 1e6


# Modular nullity with a checked lift, the exact upper bound, and the size guard.

ORACLE_SPECS = (
    [f"fourier:{n}" for n in range(2, 13)]
    + ["tao"]
    + [f"haagerup:{k}/8" for k in range(8)]
)
SANDWICH_SPECS = ORACLE_SPECS + [
    f"deformed:(fourier:2,[[0,0],[0,{k}/16]],fourier:2)" for k in range(0, 16, 3)
] + ["tensor:(fourier:2,fourier:4)"]
EQUIVALENCE_BASES = ["fourier:2", "fourier:3", "fourier:4", "fourier:5", "fourier:6", "tao", "haagerup:1/8", "fourier:2x2"]


def _spec_matrix(spec):
    return build_matrix(parse_matrix_spec(spec))


def bareiss_nullity(system):
    return system.n * system.n - integer_matrix_rank(system.integer_rows(), system.n * system.n)


@pytest.mark.parametrize("spec", ORACLE_SPECS)
def test_modular_nullity_matches_bareiss(spec):
    system = build_exact_system(_spec_matrix(spec))
    nullity = rational_nullity(system)
    assert nullity == bareiss_nullity(system)
    assert nullity.method == MODULAR_LIFT
    assert nullity.prime == modular_prime(system.root_order)
    if spec.startswith("haagerup:") and int(spec.split(":")[1].split("/")[0]) % 2:
        assert nullity == 12


def test_modular_nullity_on_seeded_random_equivalents():
    rng = random.Random(20261018)
    for spec in EQUIVALENCE_BASES:
        h = _spec_matrix(spec)
        q = h.phase_order()
        for _ in range(3):
            rows, cols = list(range(h.n)), list(range(h.n))
            rng.shuffle(rows)
            rng.shuffle(cols)
            phases = [[Fraction(rng.randrange(q), q) for _ in range(h.n)] for _ in range(2)]
            system = build_exact_system(apply_equivalence(h, rows, cols, *phases))
            assert rational_nullity(system) == bareiss_nullity(system)


@st.composite
def equivalent_matrices(draw):
    h = _spec_matrix(draw(st.sampled_from(EQUIVALENCE_BASES)))
    q = h.phase_order()
    rows = draw(st.permutations(range(h.n)))
    cols = draw(st.permutations(range(h.n)))
    phases = st.lists(st.integers(0, q - 1), min_size=h.n, max_size=h.n)
    row_phases = [Fraction(k, q) for k in draw(phases)]
    col_phases = [Fraction(k, q) for k in draw(phases)]
    return h, apply_equivalence(h, rows, cols, row_phases, col_phases)


@settings(max_examples=30, deadline=None, derandomize=True)
@given(equivalent_matrices())
def test_modular_nullity_invariant_under_equivalence(pair):
    base, equivalent = pair
    system = build_exact_system(equivalent)
    nullity = rational_nullity(system)
    assert nullity == bareiss_nullity(system)
    assert nullity == rational_nullity(build_exact_system(base))


def test_tiny_prime_falls_back_to_bareiss(monkeypatch):
    # Modulo 2 the lifted kernel fails the exact check: the half system loses rank, or -1 lifts as 1.
    monkeypatch.setattr(exact, "modular_prime", lambda q: 2)
    for spec in ("fourier:2", "fourier:4", "fourier:6", "tao"):
        system = build_exact_system(_spec_matrix(spec))
        nullity = rational_nullity(system)
        assert (nullity.method, nullity.prime) == (BAREISS, 2)
        assert nullity == bareiss_nullity(system)
    # Modulo 7 the kernel entries of haagerup:1/8 have no small rational preimage.
    monkeypatch.setattr(exact, "modular_prime", lambda q: 7)
    nullity = rational_nullity(build_exact_system(haagerup_matrix(Fraction(1, 8))))
    assert (nullity, nullity.method) == (12, BAREISS)


def test_each_branch_is_forced(monkeypatch):
    system = build_exact_system(fourier_matrix(make_group([6])))
    assert rational_nullity(system).method == MODULAR_LIFT
    with monkeypatch.context() as patch:
        patch.setattr(exact, "_solves_full_system", lambda system, kernel: False)
        nullity = rational_nullity(system)
        assert (nullity, nullity.method) == (15, BAREISS)
    with monkeypatch.context() as patch:
        patch.setattr(exact, "_lift_kernel", lambda reduced, pivots, p: None)
        nullity = rational_nullity(system)
        assert (nullity, nullity.method) == (15, BAREISS)


def test_lifted_kernel_is_checked_exactly():
    system = build_exact_system(haagerup_matrix(Fraction(1, 8)))
    p = modular_prime(system.root_order)
    half = system.pairs[:, 0] < system.pairs[:, 1]
    blocks = power_reduction_table(8)[system.exponents[half]].transpose(0, 2, 1)
    reduced = pair_rows(system.pairs[half], blocks, system.n) % p
    pivots = exact._row_reduce_mod(reduced, p)
    kernel = exact._lift_kernel(reduced[: len(pivots)], pivots, p)
    assert kernel.shape == (36, 12)
    full = np.array(system.integer_rows(), dtype=object)
    assert not (full @ kernel).any()
    assert exact._solves_full_system(system, kernel)
    # Large entries take the Python-int path and are still checked exactly.
    assert exact._solves_full_system(system, kernel * 2**62)
    broken = kernel.copy()
    broken[pivots[0], 0] += 1
    assert not exact._solves_full_system(system, broken)
    assert not exact._solves_full_system(system, broken * 2**62)


def test_rational_reconstruction():
    p = 2147483647
    residues = np.array([0, 1, p - 1, pow(3, -1, p), (-5 * pow(7, -1, p)) % p])
    num, den = exact._rational_reconstruction(residues, p)
    assert num.tolist() == [0, 1, -1, 1, -5]
    assert den.tolist() == [1, 1, 1, 3, 7]
    assert exact._rational_reconstruction(np.array([2]), 5) is None


def test_prime_search():
    assert [n for n in range(60) if is_prime(n)] == [2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41, 43, 47, 53, 59]
    assert is_prime(2**31 - 1)
    assert not is_prime(25326001)  # strong pseudoprime to the bases 2, 3 and 5
    for q in (1, 2, 3, 8, 12, 16, 60):
        p = modular_prime(q)
        assert p < 2**31 and (p - 1) % q == 0 and is_prime(p)
        assert all(not is_prime(c) for c in range(p + q, 2**31, q))
        w = exact._root_of_order(q, p)
        assert pow(w, q, p) == 1
        assert all(pow(w, d, p) != 1 for d in range(1, q))


@pytest.mark.parametrize("spec", SANDWICH_SPECS)
def test_sandwich_on_corpus(spec):
    report = conjecture_check(_spec_matrix(spec))
    assert report.exact_upper_bound >= report.numeric_defect >= report.rational_nullity
    assert report.method == MODULAR_LIFT
    assert report.prime == modular_prime(report.root_order)


def assert_rows_evaluate_to_entry_products(h):
    system = build_exact_system(h)
    rows = np.array(system.integer_rows()).reshape(len(system.pairs), system.degree, -1)
    basis = np.exp(2j * np.pi * np.arange(system.degree) / system.root_order)
    values = h.to_values()
    for (i, j), row in zip(system.pairs, np.einsum("ptc,t->pc", rows, basis)):
        expected = np.zeros((h.n, h.n), dtype=complex)
        expected[i] += values[i] * np.conj(values[j])
        expected[j] -= values[i] * np.conj(values[j])
        assert np.allclose(row, expected.ravel(), atol=1e-12)


def test_system_evaluation_matches_entry_products():
    for orders in ([2], [3], [6], [2, 2]):
        assert_rows_evaluate_to_entry_products(fourier_matrix(make_group(orders)))
    assert_rows_evaluate_to_entry_products(tao_matrix())
    assert_rows_evaluate_to_entry_products(haagerup_matrix(Fraction(1, 8)))


def test_integer_rows_evaluate_to_entry_products():
    for h in (fourier_matrix(make_group([6])), tao_matrix(), haagerup_matrix(Fraction(3, 8))):
        assert_rows_evaluate_to_entry_products(h)


def test_size_guard_raises_before_allocating():
    h = fourier_matrix(make_group([4]))
    system = build_exact_system(h)
    # Half system 6 pairs x phi(4) = 2 rows by 16 columns of int64: 1536 bytes.
    assert rational_nullity(system, byte_cap=1536) == 8
    with pytest.raises(CapExceededError):
        rational_nullity(system, byte_cap=1535)
    # Complex system: 12 ordered pairs by 16 columns.
    assert exact_upper_bound(system, byte_cap=1536) == 8
    with pytest.raises(CapExceededError):
        exact_upper_bound(system, byte_cap=1535)


def test_size_guard_runs_before_the_blocks(monkeypatch):
    system = build_exact_system(fourier_matrix(make_group([4])))

    def unexpected(q):
        raise AssertionError("blocks built before the size check")

    monkeypatch.setattr(exact, "power_reduction_table", unexpected)
    monkeypatch.setattr(exact, "modular_prime", unexpected)
    with pytest.raises(CapExceededError):
        rational_nullity(system, byte_cap=1535)
    with pytest.raises(CapExceededError):
        exact_upper_bound(system, byte_cap=1535)


def test_cli_size_guard_exit_code(capsys):
    # 64 * 63 / 2 pairs x phi(64) = 32 rows by 4096 columns would need about 2.1 GB.
    assert run(["conjecture", "fourier:64"]) == 1
    assert "above the cap" in capsys.readouterr().err
