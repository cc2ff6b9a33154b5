"""Exact phases as integer numerators over one root order: round trips, order, and agreement with the floating path."""

import math
import tracemalloc
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from hdefect.cli import build_matrix, parse_matrix_spec
from hdefect.cyclotomic import power_reduction_table
from hdefect.errors import CapExceededError
from hdefect.matrices import (
    DeformationParameters,
    HadamardMatrix,
    UnimodularMatrix,
    apply_equivalence,
    deformed_tensor,
    dephase,
    haagerup_matrix,
    matrix_from_dict,
    matrix_to_dict,
    tensor_product,
    verify_hadamard,
)
from hdefect.tangent import MAX_SYSTEM_BYTES, tangent_system, undephased_defect

PROPERTY = settings(max_examples=40, deadline=None, derandomize=True)
HADAMARD_SPECS = [
    "fourier:2", "fourier:3", "fourier:4", "fourier:5", "fourier:6", "fourier:7", "fourier:8",
    "fourier:2x2", "fourier:2x4", "tao", "haagerup:1/8", "haagerup:2/5",
    "tensor:(fourier:2,fourier:3)", "deformed:(fourier:2,[[0,0],[0,3/16]],fourier:2)",
]


def _floating(h):
    return HadamardMatrix.from_values(h.to_values(), provenance=h.provenance)


def _same_phases(a, b):
    return np.array_equal(a.numerators, b.numerators) and a.phase_order() == b.phase_order()


@st.composite
def phase_arrays(draw, square=False, min_size=0):
    q = draw(st.integers(1, 48))
    rows = draw(st.integers(min_size, 5))
    # Turns have no way to spell a 0 x k matrix with k > 0.
    cols = rows if square or not rows else draw(st.integers(0, 5))
    entries = draw(st.lists(st.integers(-200, 200), min_size=rows * cols, max_size=rows * cols))
    return np.array(entries, dtype=np.int64).reshape(rows, cols), q


@st.composite
def turn_vectors(draw, n):
    """n turns over a drawn denominator, so that equivalences can raise the phase order."""
    q = draw(st.integers(1, 12))
    return [Fraction(k, q) for k in draw(st.lists(st.integers(0, q - 1), min_size=n, max_size=n))]


@st.composite
def equivalences(draw, n):
    return (
        draw(st.permutations(range(n))),
        draw(st.permutations(range(n))),
        draw(turn_vectors(n)),
        draw(turn_vectors(n)),
    )


@st.composite
def hadamard_with_equivalence(draw):
    h = build_matrix(parse_matrix_spec(draw(st.sampled_from(HADAMARD_SPECS))))
    return h, draw(equivalences(h.n))


@PROPERTY
@given(phase_arrays())
def test_turns_round_trip(phases):
    m = UnimodularMatrix(phases=phases)
    back = UnimodularMatrix(turns=m.turns)
    assert _same_phases(back, m)
    assert all(0 <= t < 1 for row in m.turns for t in row)
    assert m.phase_order() == math.lcm(1, *(t.denominator for row in m.turns for t in row))
    assert m.phase_order() == phases[1] // math.gcd(phases[1], *phases[0].ravel().tolist())


@PROPERTY
@given(phase_arrays(square=True, min_size=1))
def test_json_round_trip(phases):
    h = HadamardMatrix(phases=phases)
    assert _same_phases(matrix_from_dict(matrix_to_dict(h)), h)
    assert _same_phases(HadamardMatrix.from_turns(h.turns), h)
    entries = [[t.numerator, t.denominator] for row in h.turns for t in row]
    assert matrix_to_dict(h)["entries"] == entries


@PROPERTY
@given(phase_arrays(square=True))
def test_dephase_is_idempotent(phases):
    once = dephase(HadamardMatrix(phases=phases))
    assert _same_phases(dephase(once), once)
    assert not once.numerators[:1].any() and not once.numerators[:, :1].any()


@PROPERTY
@given(hadamard_with_equivalence(), st.sampled_from(HADAMARD_SPECS[:5]))
def test_exact_operations_match_references(pair, right_spec):
    # References: the floating path within 1e-12, and the same sums of turns in Fraction arithmetic exactly.
    h, (rp, cp, row_phases, col_phases) = pair
    k = build_matrix(parse_matrix_spec(right_spec))
    params = DeformationParameters(phases=(np.arange(k.n * h.n).reshape(k.n, h.n), 16))
    ht, lt, kt = h.turns, params.turns, k.turns
    n, m = h.n, k.n

    def table(entry, rows, cols):
        return tuple(tuple(entry(*r, *c) % 1 for c in cols) for r in rows)

    blocks = [(i, a) for i in range(n) for a in range(m)]
    square = [(i,) for i in range(n)]
    cases = [
        (tensor_product(h, k), tensor_product(_floating(h), k),
         table(lambda i, a, j, b: ht[i][j] + kt[a][b], blocks, blocks)),
        (deformed_tensor(h, params, k), deformed_tensor(_floating(h), params, k),
         table(lambda i, a, j, b: ht[i][j] + lt[a][j] + kt[a][b], blocks, blocks)),
        (apply_equivalence(h, rp, cp, row_phases, col_phases),
         apply_equivalence(_floating(h), rp, cp, row_phases, col_phases),
         table(lambda i, j: row_phases[i] + col_phases[j] + ht[rp[i]][cp[j]], square, square)),
        (dephase(h), dephase(_floating(h)),
         table(lambda i, j: ht[i][j] - ht[0][j] - ht[i][0] + ht[0][0], square, square)),
    ]
    for exact, floating, turns in cases:
        assert exact.is_exact and not floating.is_exact
        assert exact.turns == turns
        assert np.allclose(exact.to_values(), floating.to_values(), rtol=0, atol=1e-12)


@PROPERTY
@given(hadamard_with_equivalence())
def test_defect_invariant_under_exact_equivalence(pair):
    h, transform = pair
    other = apply_equivalence(h, *transform)
    assert verify_hadamard(other).passed and other.is_exact
    assert undephased_defect(other).undephased_defect == undephased_defect(h).undephased_defect


def test_empty_matrix():
    for h in (HadamardMatrix.from_turns([]), HadamardMatrix(phases=(np.zeros((0, 0), dtype=np.int64), 5))):
        assert h.n == 0 and h.is_exact
        assert h.turns == ()
        assert h.phase_order() == 1
        assert h.to_values().shape == (0, 0)
        assert dephase(h).n == 0
        assert verify_hadamard(h).passed
        assert tangent_system(h).matrix.shape == (0, 0)


def test_large_phase_orders():
    turn = Fraction(1, 100003)
    h = haagerup_matrix(turn)
    assert h.phase_order() == 4 * 100003
    expected = haagerup_matrix(np.exp(2j * np.pi * float(turn))).to_values()
    assert np.allclose(h.to_values(), expected, rtol=0, atol=1e-12)
    with pytest.raises(CapExceededError):
        HadamardMatrix.from_turns([[Fraction(1, 2**31)]])


def _pairwise_orthogonality_error(h):
    """Reference exact check: one pair of rows at a time."""
    q, nums = h.phase_order(), h.numerators
    worst = 0.0
    for i in range(h.n):
        for j in range(i + 1, h.n):
            diff = (nums[i] - nums[j]) % q
            if np.any(np.bincount(diff, minlength=q) @ power_reduction_table(q)):
                worst = max(worst, abs(np.sum(np.exp(2j * np.pi * diff / q))) / h.n)
    return worst


@PROPERTY
@given(st.one_of(phase_arrays(square=True), hadamard_with_equivalence()))
def test_exact_verify_matches_pairwise_check(drawn):
    h = apply_equivalence(drawn[0], *drawn[1]) if isinstance(drawn[0], HadamardMatrix) else HadamardMatrix(phases=drawn)
    report = verify_hadamard(h)
    assert report.max_orthogonality_error == _pairwise_orthogonality_error(h)
    assert report.passed == (report.max_orthogonality_error == 0.0)


def _peak_bytes(call):
    tracemalloc.start()
    try:
        call()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_exact_verify_memory_is_per_row():
    h = build_matrix(parse_matrix_spec("fourier:128"))
    power_reduction_table(128)
    # Counts for all 8128 pairs at once would take 8128 x 128 x 8 bytes, about 8.3 MB.
    assert _peak_bytes(lambda: verify_hadamard(h)) < 2**20


def test_float_tangent_system_refused_before_products():
    h = build_matrix(parse_matrix_spec("fourier:128"))
    h.to_values()

    def refused():
        with pytest.raises(CapExceededError):
            tangent_system(h)

    # The products H_ik conj(H_jk) alone would take 16256 x 128 x 16 bytes, about 33 MB.
    assert 128 * 127 * 128**2 * 8 > MAX_SYSTEM_BYTES
    assert _peak_bytes(refused) < 2**20
