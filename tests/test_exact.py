"""Exact rational systems: construction, modular and integer rank, the proof sandwich and the equality check."""

from fractions import Fraction
import json
import math
import random

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from hdefect import errors, exact
from hdefect.cli import build_matrix, parse_matrix_spec, run
from hdefect.cyclotomic import power_reduction_table
from hdefect.errors import CapExceededError, DefectMismatchError, NonExactError
from hdefect.exact import (
    LIFT_PRIMES,
    MODULAR_LIFT,
    REFUTED_AT_INSTANCE,
    SUPPORTED,
    CertifiedNullity,
    build_exact_system,
    conjecture_check,
    modular_prime,
    rational_nullity,
)
from hdefect.groups import fourier_defect, is_prime, make_group
from hdefect.matrices import (
    HadamardMatrix,
    apply_equivalence,
    fourier_matrix,
    haagerup_matrix,
    save_matrix,
    tao_matrix,
    tensor_product,
)
from hdefect.tangent import undephased_defect
from conftest import traced_peak
from pair_oracles import full_pair_system, scatter_pair_rows


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


def integer_matrix_rank(rows, ncols):
    # Rank oracle for whole pair systems: fraction-free (Bareiss) elimination with big integers.
    m = [list(r) for r in rows]
    for r in m:
        if len(r) != ncols:
            raise ValueError("ragged rows")
    nrows = len(m)
    rank = 0
    prev = 1
    r = 0
    for c in range(ncols):
        pivot_row = next((k for k in range(r, nrows) if m[k][c]), None)
        if pivot_row is None:
            continue
        m[r], m[pivot_row] = m[pivot_row], m[r]
        piv = m[r][c]
        for k in range(r + 1, nrows):
            rowk = m[k]
            rowr = m[r]
            factor = rowk[c]
            for col in range(c + 1, ncols):
                rowk[col] = (piv * rowk[col] - factor * rowr[col]) // prev
            rowk[c] = 0
        prev = piv
        rank += 1
        r += 1
        if r == nrows:
            break
    return rank


def integer_rows(h):
    # The phi(q) integer rows of each of the N(N-1) ordered pairs of h over the N^2 unknowns, by the scatter oracle.
    pairs, exponents = full_pair_system(h)
    blocks = power_reduction_table(h.phase_order())[exponents].transpose(0, 2, 1)
    return scatter_pair_rows(pairs, blocks, h.n).tolist()


def gauss_jordan_mod(a, p):
    # Rank oracle mod p: plain Gauss-Jordan elimination in place, pivot on the first nonzero row.
    nrows, ncols = a.shape
    pivots = []
    for c in range(ncols):
        r = len(pivots)
        if r == nrows:
            break
        candidates = np.flatnonzero(a[r:, c])
        if candidates.size == 0:
            continue
        k = r + int(candidates[0])
        if k != r:
            a[[r, k]] = a[[k, r]]
        a[r, c:] = a[r, c:] * pow(int(a[r, c]), -1, p) % p
        others = np.flatnonzero(a[:, c])
        others = others[others != r]
        if others.size:
            block = a[others, c:]
            block -= np.multiply.outer(block[:, 0], a[r, c:])
            block %= p
            a[others, c:] = block
        pivots.append(c)
    return pivots


def test_f2_system_shape_and_rows():
    h = fourier_matrix(make_group([2]))
    system = build_exact_system(h)
    assert system.root_order == 2
    assert system.degree == 1
    assert system.pairs.tolist() == [[0, 1]]
    for array in (system.pairs, system.exponents):
        assert array.dtype == np.int64 and not array.flags.writeable
    assert integer_rows(h) == [[1, -1, -1, 1], [-1, 1, 1, -1]]


def test_f3_rows_split_per_pair():
    h = fourier_matrix(make_group([3]))
    system = build_exact_system(h)
    assert system.root_order == 3
    assert system.degree == 2
    assert system.pairs.tolist() == [[0, 1], [0, 2], [1, 2]]
    assert len(integer_rows(h)) == 12


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


def test_high_degree_bracket_is_proved_at_the_modular_prime(capsys):
    # haagerup:1/97 has q = 388 and phi(q) = 192: no cap on the degree, only the byte caps, which it is far below.
    nullity = rational_nullity(build_exact_system(haagerup_matrix(Fraction(1, 97))))
    assert (int(nullity), nullity.upper_bound, nullity.prime) == (12, 15, modular_prime(388))
    assert run(["conjecture", "haagerup:1/97"]) == 0
    report = json.loads(capsys.readouterr().out)
    assert (report["q"], report["phi_q"], report["rational_nullity"], report["exact_upper_bound"]) == (388, 192, 12, 15)
    assert (report["numeric_defect"], report["verdict"]) == (15, REFUTED_AT_INSTANCE)
    assert report["certificate"] == {"method": MODULAR_LIFT, "prime": 2147479897}


# haagerup:1/97 (N = 6, q = 388, phi = 192): each exact array is larger than the one checked before it.
EXACT_ARRAYS = [
    ("pair system of 30 x 36 entries", 15 * 2 * 36 * 8),
    ("exact check of 15 x 6 x 192 coefficients", 15 * 6 * 192 * 8),
    ("reduction table of 388 x 192 entries", 388 * 192 * 8),
]


@pytest.mark.parametrize("subject, nbytes", EXACT_ARRAYS, ids=["lead-rows", "coefficients", "table"])
def test_exact_arrays_are_refused_in_order_before_the_pairs(monkeypatch, subject, nbytes):
    # At one byte under an array's size, the arrays checked before it fit and it is the one refused.
    power_reduction_table.cache_clear()
    monkeypatch.setattr(exact, "ordered_pairs", lambda n: pytest.fail("pairs listed before the check"))
    monkeypatch.setattr(errors, "MAX_SYSTEM_BYTES", nbytes - 1)
    with pytest.raises(CapExceededError, match=f"^{subject} needs {nbytes} bytes, above the cap {nbytes - 1}$"):
        build_exact_system(haagerup_matrix(Fraction(1, 97)))


def test_the_table_check_guards_the_prime_search():
    # No prime p = 1 (mod q) lies below 2^31 for this q; a 1 x 1 matrix has no pair, so only the table is checked.
    q = 4 * 268435457
    assert not any(map(is_prime, range((exact.MODULUS_LIMIT - 2) // q * q + 1, 1, -q)))
    with pytest.raises(CapExceededError, match=f"^reduction table of {q} x "):
        rational_nullity(build_exact_system(HadamardMatrix.from_turns([[Fraction(1, q)]])))
    # With pairs, the N(N-1)/2 x N x phi(q) coefficients of the exact check are already above the cap.
    with pytest.raises(CapExceededError, match="^exact check of 15 x 6 x 505290240 coefficients"):
        build_exact_system(haagerup_matrix(Fraction(1, 268435457)))
    # Called directly, the search names what it did not find.
    with pytest.raises(ValueError, match=f"^no prime p = 1 \\(mod {q}\\) below 2\\^31$"):
        modular_prime(q)


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


def bareiss_nullity(h):
    # The rational nullity of the full ordered-pair integer system of h.
    return h.n * h.n - integer_matrix_rank(integer_rows(h), h.n * h.n)


@pytest.mark.parametrize("spec", ORACLE_SPECS)
def test_modular_nullity_matches_bareiss(spec):
    h = _spec_matrix(spec)
    system = build_exact_system(h)
    nullity = rational_nullity(system)
    assert nullity == bareiss_nullity(h)
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
            equivalent = apply_equivalence(h, rows, cols, *phases)
            assert rational_nullity(build_exact_system(equivalent)) == bareiss_nullity(equivalent)


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
    nullity = rational_nullity(build_exact_system(equivalent))
    assert nullity == bareiss_nullity(equivalent)
    assert nullity == rational_nullity(build_exact_system(base))


def descending_primes(q, count):
    # Oracle for the retry sequence: scan p = 1 (mod q) down from 2^31.
    found = []
    p = (2**31 - 2) // q * q + 1
    while len(found) < count:
        if is_prime(p):
            found.append(p)
        p -= q
    return found


def half_rows_mod(h, p):
    # The power-basis rows of the pairs i < j of h, mod p.
    pairs, exponents = full_pair_system(h)
    half = pairs[:, 0] < pairs[:, 1]
    blocks = power_reduction_table(h.phase_order())[exponents[half]].transpose(0, 2, 1)
    return scatter_pair_rows(pairs[half], blocks, h.n) % p


def complex_rows_mod(h, p):
    # The complex ordered-pair system of h under zeta -> w, for w of order q in F_p.
    pairs, exponents = full_pair_system(h)
    w = exact._root_of_order(h.phase_order(), p)
    powers = np.array([pow(w, m, p) for m in range(h.phase_order())], dtype=np.int64)
    return scatter_pair_rows(pairs, powers[exponents][:, None, :], h.n) % p


def oracle_upper_bound(h):
    # N^2 minus the rank mod modular_prime(q) of the complex ordered-pair system.
    p = modular_prime(h.phase_order())
    return h.n**2 - len(gauss_jordan_mod(complex_rows_mod(h, p), p))


def assert_engine_matches_oracles(h):
    system = build_exact_system(h)
    p, lead = modular_prime(system.root_order), min(2, system.degree)
    rows = exact._conjugate_rows(system, p, 0, lead)
    rest = exact._conjugate_rows(system, p, lead, system.degree)
    half = half_rows_mod(h, p)
    assert len(rows) + len(rest) == len(half)
    # The lead rows span the complex system, so they share its echelon form.
    pivots = exact._echelon_mod(rows, p)
    complex_rows = complex_rows_mod(h, p)
    assert pivots == gauss_jordan_mod(complex_rows, p)
    assert np.array_equal(rows[: len(pivots)], complex_rows[: len(pivots)])
    assert not rows[len(pivots) :].any()
    # Stacked on the other units' rows and eliminated again, it gives the echelon form of the half system.
    stack = np.concatenate([rows[: len(pivots)], rest])
    extended = exact._echelon_mod(stack, p)
    assert extended == gauss_jordan_mod(half, p)
    assert np.array_equal(stack[: len(extended)], half[: len(extended)])
    assert rational_nullity(system).upper_bound == system.n**2 - len(pivots) == oracle_upper_bound(h)


@pytest.mark.parametrize("spec", SANDWICH_SPECS)
def test_engine_matches_the_separate_eliminations(spec):
    assert_engine_matches_oracles(_spec_matrix(spec))


def test_engine_matches_the_separate_eliminations_on_seeded_equivalents():
    rng = random.Random(20261019)
    for spec in EQUIVALENCE_BASES:
        h = _spec_matrix(spec)
        q = h.phase_order()
        for _ in range(2):
            rows, cols = list(range(h.n)), list(range(h.n))
            rng.shuffle(rows)
            rng.shuffle(cols)
            phases = [[Fraction(rng.randrange(q), q) for _ in range(h.n)] for _ in range(2)]
            assert_engine_matches_oracles(apply_equivalence(h, rows, cols, *phases))


@st.composite
def low_rank_matrices_mod(draw, p):
    # Products of random factors: rank deficient, so rows below the split often depend on rows above it.
    nrows, ncols, rank = draw(st.integers(0, 9)), draw(st.integers(1, 9)), draw(st.integers(0, 5))
    entries = st.integers(0, 100)
    left = draw(st.lists(st.lists(entries, min_size=rank, max_size=rank), min_size=nrows, max_size=nrows))
    right = draw(st.lists(st.lists(entries, min_size=ncols, max_size=ncols), min_size=rank, max_size=rank))
    a = np.array(left, dtype=np.int64).reshape(nrows, rank) @ np.array(right, dtype=np.int64).reshape(rank, ncols)
    return a % p, draw(st.integers(0, nrows))


@pytest.mark.parametrize("p", [101, modular_prime(16)])
@settings(max_examples=300, deadline=None, derandomize=True)
@given(data=st.data())
def test_extending_an_echelon_form_gives_that_of_the_stack(p, data):
    a, split = data.draw(low_rank_matrices_mod(p))
    lead = a[:split].copy()
    pivots = exact._echelon_mod(lead, p)
    assert not lead[len(pivots) :].any()
    stack = np.concatenate([lead[: len(pivots)], a[split:]])
    extended = exact._echelon_mod(stack, p)
    reference = a.copy()
    assert extended == gauss_jordan_mod(reference, p)
    assert np.array_equal(stack[: len(extended)], reference[: len(extended)])


@pytest.mark.parametrize("spec", SANDWICH_SPECS)
def test_half_system_mod_p_has_the_full_rational_rank(spec):
    # The premise of the retry: the rows of (j, i) add nothing over Q, and the first prime is lucky.
    h = _spec_matrix(spec)
    p = modular_prime(h.phase_order())
    rank_p = len(gauss_jordan_mod(half_rows_mod(h, p), p))
    assert rank_p == integer_matrix_rank(integer_rows(h), h.n * h.n)


def test_lift_primes_descend_from_the_modular_prime():
    for q in (1, 2, 8, 12, 16):
        assert list(exact._lift_primes(q)) == descending_primes(q, LIFT_PRIMES)


UNLIFTABLE_AT_17 = "tensor:(fourier:2,haagerup:1/8)"  # a kernel entry of height 19 > sqrt(17/2); 17 = 1 (mod 8)


def test_unlucky_first_prime_retries_the_next(monkeypatch):
    lift_primes = exact._lift_primes
    monkeypatch.setattr(exact, "_lift_primes", lambda q: iter([17, *lift_primes(q)]))
    nullity = rational_nullity(build_exact_system(_spec_matrix(UNLIFTABLE_AT_17)))
    assert (nullity.method, nullity.prime, int(nullity)) == (MODULAR_LIFT, modular_prime(8), 38)
    monkeypatch.setattr(exact, "_lift_primes", lift_primes)
    # A first failed exact check moves the lift to the second prime; the bound stays the first prime's. F8 (phi = 4)
    # has a continuation: it adds no pivot to the first prime's lead rows, so it moves on without a second lift.
    solves = exact._solves_full_system
    for spec in ("fourier:2", "fourier:4", "fourier:6", "fourier:8", "tao"):
        checks = []

        def fails_first(system, kernel, checks=checks):
            checks.append(kernel.shape)
            return len(checks) > 1 and solves(system, kernel)

        monkeypatch.setattr(exact, "_solves_full_system", fails_first)
        h = _spec_matrix(spec)
        nullity = rational_nullity(build_exact_system(h))
        assert (nullity.method, nullity.prime) == (MODULAR_LIFT, descending_primes(h.phase_order(), 2)[1])
        assert len(checks) == 2
        assert nullity == bareiss_nullity(h)
        assert nullity.upper_bound == oracle_upper_bound(h)


def test_no_lifting_prime_refuses(monkeypatch, capsys):
    monkeypatch.setattr(exact, "_lift_primes", lambda q: iter([17]))
    with pytest.raises(CapExceededError, match="primes 17 solves"):
        rational_nullity(build_exact_system(_spec_matrix(UNLIFTABLE_AT_17)))
    assert run(["conjecture", UNLIFTABLE_AT_17]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "error: rational nullity not proved" in captured.err and "primes 17 " in captured.err


def test_failed_check_refuses_after_lift_primes(monkeypatch):
    system = build_exact_system(fourier_matrix(make_group([6])))
    assert rational_nullity(system).method == MODULAR_LIFT
    checked = []

    def never_solves(system, kernel):
        checked.append(kernel.shape)
        return False

    monkeypatch.setattr(exact, "_solves_full_system", never_solves)
    with pytest.raises(CapExceededError) as refused:
        rational_nullity(system)
    primes = descending_primes(6, LIFT_PRIMES)
    assert checked == [(36, 15)] * LIFT_PRIMES
    assert f"primes {', '.join(map(str, primes))} solves" in str(refused.value)


@pytest.mark.parametrize(
    "nullity, message",
    [
        (CertifiedNullity(16, MODULAR_LIFT, 2, 36), "rational nullity 16 exceeds"),
        (CertifiedNullity(15, MODULAR_LIFT, 2, 14), "exact upper bound 14 is below"),
    ],
    ids=["nullity-above", "bound-below"],
)
def test_sandwich_violation_is_a_defect_mismatch(monkeypatch, capsys, nullity, message):
    monkeypatch.setattr(exact, "rational_nullity", lambda system: nullity)
    with pytest.raises(DefectMismatchError, match=message):
        conjecture_check(fourier_matrix(make_group([6])))
    assert run(["conjecture", "fourier:6"]) == 1
    assert capsys.readouterr().err == f"error: {message} certified defect 15; one of the two pipelines is wrong\n"


def test_one_elimination_per_conjecture_call(monkeypatch, capsys):
    inputs, outputs, units = [], [], []
    echelon_mod, conjugate_rows = exact._echelon_mod, exact._conjugate_rows

    def counted_echelon(a, p):
        inputs.append(a.copy())
        pivots = echelon_mod(a, p)
        outputs.append(a[: len(pivots)].copy())
        return pivots

    def counted_rows(system, p, start, stop, *args):
        units.append((start, stop))
        return conjugate_rows(system, p, start, stop, *args)

    monkeypatch.setattr(exact, "_echelon_mod", counted_echelon)
    monkeypatch.setattr(exact, "_conjugate_rows", counted_rows)
    # A closed bracket: the 240 lead rows of F16 alone have the full rank 208.
    assert run(["conjecture", "fourier:16"]) == 0
    report = json.loads(capsys.readouterr().out)
    assert (report["rational_nullity"], report["numeric_defect"], report["exact_upper_bound"]) == (48, 48, 48)
    assert (units, [a.shape for a in inputs]) == ([(0, 2)], [(240, 256)])
    for seen in (inputs, outputs, units):
        seen.clear()
    # An open bracket: the lead rows (rank 21 of 36), then their echelon form on top of the other two units' rows;
    # the lead rows are never built again.
    assert run(["conjecture", "haagerup:1/8"]) == 0
    report = json.loads(capsys.readouterr().out)
    assert (report["rational_nullity"], report["numeric_defect"], report["exact_upper_bound"]) == (12, 15, 15)
    assert (units, [a.shape for a in inputs]) == ([(0, 2), (2, 4)], [(30, 36), (51, 36)])
    assert outputs[0].shape == (21, 36) and np.array_equal(inputs[1][:21], outputs[0])


CONTINUATION_CASES = [
    ("deformed:(fourier:2,[[0,0],[0,0],[0,1/16],[0,1/16]],fourier:4)", 20, 24, 2147483489),
    ("deformed:(fourier:2,[[0,0],[0,0],[0,1/8],[0,1/8]],fourier:4)", 20, 24, 2147483497),
    (UNLIFTABLE_AT_17, 38, 50, 2147483497),
    ("haagerup:1/12", 12, 15, 2147483629),
    ("haagerup:7/16", 12, 15, 2147483489),
    ("tensor:(haagerup:3/16,fourier:2)", 38, 50, 2147483489),
    ("deformed:(fourier:2,[[0,0],[0,9/16],[0,2/16],[0,1/16]],fourier:4)", 22, 26, 2147483489),
]


@pytest.mark.parametrize("spec, nullity, upper, prime", CONTINUATION_CASES)
def test_open_brackets_are_proved_by_the_continuation(spec, nullity, upper, prime):
    # Values of the elimination of all units at once; the bracket is open, so the lead lift failed.
    result = rational_nullity(build_exact_system(_spec_matrix(spec)))
    assert (int(result), result.upper_bound, result.prime, result.method) == (nullity, upper, prime, MODULAR_LIFT)


def test_continuation_holds_no_float_copies():
    # The continuation eliminates its int64 stack in place and holds no float copy of it; it needs about 1.1 MiB.
    system = build_exact_system(_spec_matrix("tensor:(haagerup:3/16,fourier:2)"))
    rational_nullity(system)  # the first call also imports what numpy loads lazily
    result, peak = traced_peak(lambda: rational_nullity(system))
    assert (int(result), result.upper_bound) == (38, 50)
    assert peak < 2 * 2**20


def test_lifted_kernel_is_checked_exactly():
    # The check reads the pairs i < j only; on rational kernels it must agree with the full ordered-pair system.
    h = haagerup_matrix(Fraction(1, 8))
    system = build_exact_system(h)
    p = modular_prime(system.root_order)
    reduced = half_rows_mod(h, p)
    pivots = gauss_jordan_mod(reduced, p)
    kernel = exact._lift_kernel(reduced[: len(pivots)], pivots, p)
    assert kernel.shape == (36, 12) and kernel.dtype == np.int64
    full = np.array(integer_rows(h), dtype=object)
    broken = kernel.copy()
    broken[pivots[0], 0] += 1
    # Large entries take the Python-int path and are still checked exactly.
    for v, solves in ((kernel, True), (broken, False)):
        for scaled in (v, v.astype(object) * 2**62):
            assert exact._solves_full_system(system, scaled) == (not (full @ scaled.astype(object)).any()) == solves


@pytest.mark.parametrize(
    "denominators, dtype", [((1, 3, 5, 3, 9), np.int64), ((32749, 32719, 32717, 32713, 32707), object)]
)
def test_lifted_kernel_leaves_int64_only_when_it_could_overflow(denominators, dtype):
    p = modular_prime(1)
    fractions = [Fraction((-1) ** i * (i + 1), d) for i, d in enumerate(denominators)]
    # One free column, 5, whose kernel vector is f_i on pivot column i and 1 on column 5.
    reduced = np.zeros((5, 6), dtype=np.int64)
    reduced[:, 5] = [-f.numerator * pow(f.denominator, -1, p) % p for f in fractions]
    reduced[:, :5] = np.eye(5, dtype=np.int64)
    kernel = exact._lift_kernel(reduced, list(range(5)), p)
    scale = math.lcm(*denominators)  # above 2^63 for the five primes
    assert kernel.dtype == dtype and (scale < 2**63) == (dtype is np.int64)
    assert kernel[:, 0].tolist() == [int(f * scale) for f in fractions] + [scale]


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
    # The full system's rows evaluate to the entry products, and the exact system keeps its pairs i < j.
    system, (pairs, exponents) = build_exact_system(h), full_pair_system(h)
    half = pairs[:, 0] < pairs[:, 1]
    assert np.array_equal(system.pairs, pairs[half]) and np.array_equal(system.exponents, exponents[half])
    rows = np.array(integer_rows(h)).reshape(len(pairs), system.degree, -1)
    basis = np.exp(2j * np.pi * np.arange(system.degree) / system.root_order)
    values = h.to_values()
    for (i, j), row in zip(pairs, np.einsum("ptc,t->pc", rows, basis)):
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


def test_size_guard_raises_before_allocating(monkeypatch):
    h = fourier_matrix(make_group([4]))
    system = build_exact_system(h)
    # Lead rows, 6 pairs x the 2 units 1 and -1, by 16 columns of int64: 1536 bytes.
    monkeypatch.setattr(errors, "MAX_SYSTEM_BYTES", 1536)
    assert rational_nullity(system) == 8
    monkeypatch.setattr(errors, "MAX_SYSTEM_BYTES", 1535)
    with pytest.raises(CapExceededError):
        rational_nullity(system)


def test_size_guard_runs_before_the_blocks(monkeypatch):
    system = build_exact_system(fourier_matrix(make_group([4])))

    def unexpected(q):
        raise AssertionError("blocks built before the size check")

    monkeypatch.setattr(exact, "power_reduction_table", unexpected)
    monkeypatch.setattr(exact, "modular_prime", unexpected)
    monkeypatch.setattr(errors, "MAX_SYSTEM_BYTES", 1535)
    with pytest.raises(CapExceededError):
        rational_nullity(system)


def test_lead_rows_are_checked_before_the_exponents_are_made(monkeypatch, capsys):
    # F4's lead rows take 1536 bytes (6 pairs x 2 units by 16 columns), F2 x F2's 768 (one unit at q = 2). At N = 1024
    # the exponent table alone, 1047552 pairs x 1024 columns, would take 8 GiB.
    with monkeypatch.context() as patch:
        patch.setattr(exact, "ordered_pairs", lambda n: pytest.fail("pairs listed before the check"))
        for spec, cap, subject in (("fourier:4", 1535, "12 x 16"), ("fourier:2x2", 767, "6 x 16")):
            patch.setattr(errors, "MAX_SYSTEM_BYTES", cap)
            with pytest.raises(CapExceededError, match=f"^pair system of {subject} entries needs {cap + 1} bytes"):
                build_exact_system(_spec_matrix(spec))
    monkeypatch.setattr(errors, "MAX_SYSTEM_BYTES", 768)
    assert rational_nullity(build_exact_system(_spec_matrix("fourier:2x2"))) == fourier_defect(make_group([2, 2]))
    monkeypatch.undo()
    assert run(["conjecture", "tensor:(fourier:32,fourier:32)"]) == 1
    assert "error: pair system of 1047552 x 1048576 entries needs" in capsys.readouterr().err


def test_lead_rows_alone_are_held_to_the_cap(monkeypatch):
    # F8 lifts from its lead rows, 28 pairs x 2 units by 64 columns of int64: 28672 bytes, half of all 4 units' rows.
    system = build_exact_system(fourier_matrix(make_group([8])))
    monkeypatch.setattr(errors, "MAX_SYSTEM_BYTES", 28 * 2 * 64 * 8)
    assert rational_nullity(system) == fourier_defect(make_group([8])) == 20
    monkeypatch.setattr(errors, "MAX_SYSTEM_BYTES", 28 * 2 * 64 * 8 - 1)
    with pytest.raises(CapExceededError, match="^pair system of 56 x 64 entries needs 28672 bytes"):
        rational_nullity(system)


def test_continuation_stack_is_checked_before_it_is_built(monkeypatch):
    # haagerup:1/8: lead rows 15 pairs x 2 units by 36 columns, 8640 bytes; their 21 pivot rows on the other 30 rows
    # make the 51-row continuation stack, 14688 bytes.
    system = build_exact_system(haagerup_matrix(Fraction(1, 8)))
    monkeypatch.setattr(errors, "MAX_SYSTEM_BYTES", 8640)
    with pytest.raises(CapExceededError, match="^pair system of 51 x 36 entries needs 14688 bytes, above the cap 8640"):
        rational_nullity(system)
    monkeypatch.setattr(errors, "MAX_SYSTEM_BYTES", 14688)
    assert rational_nullity(system) == 12


def test_conjecture_verifies_before_it_eliminates(monkeypatch, tmp_path, capsys):
    path = tmp_path / "bad.json"
    save_matrix(HadamardMatrix.from_turns([[0, Fraction(1, 4)], [0, Fraction(1, 4)]]), str(path))
    monkeypatch.setattr(exact, "rational_nullity", lambda system: pytest.fail("eliminated before verifying"))
    assert run(["conjecture", f"file:{path}"]) == 1
    assert "matrix is not Hadamard" in capsys.readouterr().err


def test_cli_size_guard_exit_code(capsys):
    # F128: the float system, 16256 ordered pairs by 128^2 columns, and the lead rows, 8128 pairs x 2 units by 128^2
    # columns of int64, would each need about 2.1 GB. (F64 fits: its lead rows prove d = 256 in about 77 s.)
    assert run(["conjecture", "fourier:128"]) == 1
    assert "above the cap" in capsys.readouterr().err
