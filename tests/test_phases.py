"""Exact phases as integer numerators over one root order: round trips, order, and agreement with the floating path."""

import ast
import cmath
import inspect
import math
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import hdefect
from hdefect import charstats, cli, cyclotomic, errors, exact, groups, matrices, tangent
from hdefect.cli import build_matrix, parse_matrix_spec, run
from hdefect.cyclotomic import power_reduction_table
from hdefect.errors import MAX_SYSTEM_BYTES, CapExceededError
from hdefect.groups import FiniteAbelianGroup, factorize, make_group
from hdefect.matrices import (
    DeformationParameters,
    HadamardMatrix,
    UnimodularMatrix,
    apply_equivalence,
    deformed_tensor,
    dephase,
    fourier_matrix,
    haagerup_matrix,
    matrix_from_dict,
    matrix_to_dict,
    save_matrix,
    tensor_product,
    turn_to_complex,
    verify_hadamard,
)
from hdefect.tangent import (
    ScanGrid,
    deformation_scan,
    dephased_defect,
    tangent_basis,
    tangent_system,
    undephased_defect,
)

from conftest import traced_peak

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
    back = UnimodularMatrix.from_turns(m.turns)
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


PHASE_ENTRIES = st.one_of(
    st.tuples(st.integers(-(10**6), 10**6), st.integers(1, 64)),
    st.builds(lambda num, den, k: (num * k, den * k), st.integers(-64, 64), st.integers(1, 64), st.integers(1, 10**12)),
    st.sampled_from([(2, 4), (-3, 6), (0, 7), (2**70, 2**71), (-(2**70) - 2**68, 2**71), (3, 2**31), (5, 2**31 - 1),
                     (1, 65537), (1, 65539), (2**40, 2**40 * 12)]),
).map(list)


@PROPERTY
@given(st.integers(1, 4).flatmap(lambda n: st.lists(PHASE_ENTRIES, min_size=n * n, max_size=n * n)))
def test_phase_entries_read_as_their_fractions(entries):
    # Oracle: each entry as a Fraction of a turn, put over the lcm of the denominators; the same refusal at the cap.
    n = math.isqrt(len(entries))
    turns = [Fraction(num, den) for num, den in entries]
    try:
        expected = HadamardMatrix.from_turns([turns[i * n : (i + 1) * n] for i in range(n)])
    except CapExceededError as exc:
        with pytest.raises(CapExceededError) as refused:
            matrix_from_dict({"n": n, "repr": "phase", "entries": entries})
        assert str(refused.value) == str(exc)
        return
    assert _same_phases(matrix_from_dict({"n": n, "repr": "phase", "entries": entries}), expected)


def test_phase_entries_at_the_order_cap_are_refused():
    # 2^31 is the cap itself; 65537 * 65539 = 4,295,229,443 is an lcm beyond it; 2^31 - 1 is admitted.
    for den in (2**31, 2**71):
        with pytest.raises(CapExceededError, match=f"^phase order {den} is not below the cap"):
            matrix_from_dict({"n": 1, "repr": "phase", "entries": [[1, den]]})
    with pytest.raises(CapExceededError, match="^phase order 4295229443 is not below the cap"):
        matrix_from_dict({"n": 2, "repr": "phase", "entries": [[1, 65537], [1, 65539], [0, 1], [0, 1]]})
    h = matrix_from_dict({"n": 1, "repr": "phase", "entries": [[-5, 2**31 - 1]]})
    assert (h.phase_order(), h.numerators.tolist()) == (2**31 - 1, [[2**31 - 6]])
    h = matrix_from_dict({"n": 2, "repr": "phase", "entries": [[2**70, 2**71], [-3, 6], [2, 4], [0, 5]]})
    assert (h.phase_order(), h.numerators.tolist()) == (2, [[1, 1], [1, 0]])


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


def root_by_float(turn):
    """Oracle: e^(2 pi i turn) from the correctly rounded float of the turn; quarter turns as exact literals."""
    turn = turn % 1
    quarters = {Fraction(0): 1 + 0j, Fraction(1, 4): 1j, Fraction(1, 2): -1 + 0j, Fraction(3, 4): -1j}
    return quarters[turn] if turn in quarters else cmath.exp(2j * cmath.pi * float(turn))


def _same_bits(roots, q, nums):
    """Both `_roots` and `turn_to_complex` give the oracle's bits."""
    expected = np.array([root_by_float(Fraction(m, q)) for m in nums], dtype=complex)
    single = np.array([turn_to_complex(Fraction(m, q)) for m in nums], dtype=complex)
    return all(np.array_equal(v.view(np.uint64), expected.view(np.uint64)) for v in (roots, single))


def test_turn_to_complex_beyond_int64():
    for turn in (Fraction(2**70 + 1, 2**71), Fraction(-(2**65) - 3, 2**66 + 1), Fraction(2**64 + 1, 2**66)):
        expected = np.array([root_by_float(turn)])
        assert np.array_equal(np.array([turn_to_complex(turn)]).view(np.uint64), expected.view(np.uint64)), turn


@pytest.mark.parametrize("q", [1, 2, 4, 8, 12, 2**30, 2**31 - 4, 2**31 - 1])
def test_roots_equal_turn_to_complex_bit_for_bit(q):
    quarters = [j * q // 4 for j in range(4) if j * q % 4 == 0]
    nums = np.array(sorted({*quarters, q // 3, (q // 2 + 1) % q, q - 1, *range(min(q, 24))}), dtype=np.int64)
    assert _same_bits(matrices._roots(nums, q), q, nums.tolist())


@PROPERTY
@given(st.integers(1, 2**31 - 1).flatmap(lambda q: st.tuples(st.just(q), st.lists(st.integers(0, q - 1), min_size=1))))
def test_roots_equal_turn_to_complex_on_drawn_numerators(drawn):
    q, nums = drawn
    assert _same_bits(matrices._roots(np.array(nums, dtype=np.int64), q), q, nums)


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


def test_exact_verify_by_blocks_of_pairs_matches_the_per_pair_formula(monkeypatch):
    # The failing pairs' sums are taken by blocks of pairs, and give the per-pair float bit for bit.
    monkeypatch.setattr(matrices, "CHECK_BLOCK_BYTES", 2**14)  # 6 to 10 pairs a block
    rng = np.random.default_rng(30)
    for n, q in [(40, 7), (33, 24), (24, 1024), (24, 1031)]:
        h = HadamardMatrix(phases=(rng.integers(0, q, (n, n)), q))
        assert verify_hadamard(h).max_orthogonality_error == _pairwise_orthogonality_error(h) > 0
    assert verify_hadamard(fourier_matrix(make_group([4, 6]))).max_orthogonality_error == 0.0


def test_exact_verify_memory_is_per_row():
    h = build_matrix(parse_matrix_spec("fourier:128"))
    power_reduction_table(128)
    # Counts for all 8128 pairs at once would take 8128 x 128 x 8 bytes, about 8.3 MB.
    assert traced_peak(lambda: verify_hadamard(h))[1] < 2**20


def test_float_tangent_system_refused_before_products():
    h = build_matrix(parse_matrix_spec("fourier:128"))
    moved = apply_equivalence(h, [*range(1, 128), 0], range(128), [0] * 128, [0] * 128)
    h.to_values(), moved.to_values()

    def refused():
        with pytest.raises(CapExceededError):
            tangent_system(h)
        # A basis ranks the full system, whatever row group the matrix has: refused before the rank path's Helmert
        # matrix and before the group is looked for.
        with pytest.raises(CapExceededError, match="^pair system of 16256 x 16384"):
            tangent_basis(moved)

    power_reduction_table(128)
    # The products H_ik conj(H_jk) alone would take 16256 x 128 x 16 bytes, about 33 MB.
    assert 128 * 127 * 128**2 * 8 > MAX_SYSTEM_BYTES
    assert traced_peak(refused)[1] < 2**20
    # The dephased check of a matrix with a row group is ranked on its blocks, so it runs.
    assert dephased_defect(moved) == 576 - 255
    # That of a group-less one ranks its full system, refused once no group is found: before the products
    # (46440 x 216 x 16 bytes, about 160 MB), though after the 216 x 216 arrays that look for the group.
    big = build_matrix(parse_matrix_spec("tensor:(tao,tensor:(tao,tao))"))
    big.to_values()

    def refused_without_a_group():
        with pytest.raises(CapExceededError, match="^pair system of 46440 x 46656"):
            dephased_defect(big)

    assert traced_peak(refused_without_a_group)[1] < 2**23


def test_character_blocks_refused_before_products():
    h = build_matrix(parse_matrix_spec("fourier:512"))
    h.to_values()

    def refused():
        with pytest.raises(CapExceededError, match="^character blocks of 512 x 512 x 512 complex entries"):
            undephased_defect(h)

    assert traced_peak(refused)[1] < 2**20


def test_fourier_matrix_refused_before_its_elements(monkeypatch, capsys):
    monkeypatch.setattr(errors, "MAX_SYSTEM_BYTES", 64**2 * 8 - 1)  # one byte below the 64 x 64 phase array
    with monkeypatch.context() as patch:
        patch.setattr(FiniteAbelianGroup, "element_list", lambda group: pytest.fail("elements listed before the check"))
        with pytest.raises(CapExceededError, match="Fourier matrix of order 64 needs 32768 bytes"):
            fourier_matrix(make_group([8, 8]))
        assert run(["defect", "fourier:64"]) == 1
    assert "above the cap 32767" in capsys.readouterr().err
    monkeypatch.setattr(errors, "MAX_SYSTEM_BYTES", 64**2 * 8)
    assert verify_hadamard(fourier_matrix(make_group([64]))).passed


def test_constructor_products_refused_before_they_are_built(monkeypatch, capsys):
    # A tensor product, a deformed tensor and a circulant are held to N^2 x 8 bytes, as a Fourier matrix is.
    f1024 = fourier_matrix(make_group([1024]))
    floating = HadamardMatrix.from_values(f1024.to_values())
    flat = DeformationParameters(phases=(np.zeros((1024, 1024), dtype=np.int64), 1))
    products = [
        (lambda: tensor_product(f1024, f1024), "tensor product"),
        (lambda: tensor_product(floating, f1024), "tensor product"),
        (lambda: deformed_tensor(f1024, flat, f1024), "deformed tensor"),
        (lambda: deformed_tensor(floating, flat, f1024), "deformed tensor"),
    ]

    def refused():
        for build, subject in products:
            with pytest.raises(CapExceededError, match=f"^{subject} of order 1048576 needs 8796093022208 bytes, "):
                build()

    assert traced_peak(refused)[1] < 2**20  # each product would take 8 TiB of phases, or 16 TiB of values
    assert run(["defect", "tensor:(fourier:1024,fourier:1024)"]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "error: tensor product of order 1048576 needs 8796093022208 bytes, above the cap 536870912\n"
    # At one byte below an order-8 product each is refused, and at its size each is built.
    specs = ["tensor:(fourier:2,fourier:4)", "deformed:(fourier:2,[[0,0],[0,0],[0,0],[0,1/8]],fourier:4)"]
    specs.append("circulant:" + ",".join(["0"] * 7 + ["1/4"]))
    monkeypatch.setattr(errors, "MAX_SYSTEM_BYTES", 8**2 * 8 - 1)
    for spec in specs:
        with pytest.raises(CapExceededError, match="of order 8 needs 512 bytes, above the cap 511$"):
            build_matrix(parse_matrix_spec(spec))
    monkeypatch.setattr(errors, "MAX_SYSTEM_BYTES", 8**2 * 8)
    assert [build_matrix(parse_matrix_spec(spec)).n for spec in specs] == [8, 8, 8]


def test_product_spec_refused_before_its_factors_are_built(monkeypatch, capsys, tmp_path):
    # A product's order follows from its parse tree, so no factor is built to learn it: F4096 alone took 286 MB.
    monkeypatch.setattr(cli, "fourier_matrix", lambda group: pytest.fail("a factor was built before the check"))
    flat = "[" + ",".join(["[" + ",".join(["0"] * 4096) + "]"] * 4) + "]"
    absent = tmp_path / "absent.json"
    refusals = [
        ("tensor:(fourier:4096,fourier:4)", "tensor product of order 16384 needs 2147483648 bytes"),
        (f"deformed:(fourier:4096,{flat},fourier:4)", "deformed tensor of order 16384 needs 2147483648 bytes"),
        ("tensor:(circulant:0,1/2,fourier:8192)", "tensor product of order 16384 needs 2147483648 bytes"),
        # In build order, an oversized factor is named before the product that holds it, as when it was built.
        ("tensor:(tensor:(tao,tao),fourier:10000)", "Fourier matrix of order 10000 needs 800000000 bytes"),
        ("tensor:(fourier:10000,fourier:2)", "Fourier matrix of order 10000 needs 800000000 bytes"),
        (f"tensor:(file:{absent},fourier:10000)", "Fourier matrix of order 10000 needs 800000000 bytes"),
    ]
    with monkeypatch.context() as patch:
        patch.setattr(cli, "load_matrix", lambda path: pytest.fail("a file was read before the check"))
        for spec, subject in refusals:
            assert run(["defect", spec]) == 1
            assert capsys.readouterr() == ("", f"error: {subject}, above the cap 536870912\n"), spec
    # The whole tree is checked before any file is read, so a node after a file: leaf is refused first; the file's own
    # error comes only when no size is at fault.
    assert run(["defect", f"tensor:(file:{absent},fourier:100)"]) == 1
    assert capsys.readouterr() == ("", f"error: [Errno 2] No such file or directory: '{absent}'\n")


def test_build_matrix_walks_a_spec_once(monkeypatch, tmp_path):
    # Each Fourier factor and each product meets the byte cap once; the walk goes on past a file: leaf, and only a
    # product over the file is checked as it is built.
    checks = []
    monkeypatch.setattr(cli, "check_bytes", lambda what, nbytes: checks.append(what))
    assert build_matrix(parse_matrix_spec("tensor:(tensor:(tensor:(fourier:2,fourier:2),fourier:2),fourier:2)")).n == 16
    assert len(checks) == 7
    save_matrix(fourier_matrix(make_group([2])), tmp_path / "f2.json")
    checks.clear()
    assert build_matrix(parse_matrix_spec(f"tensor:(file:{tmp_path / 'f2.json'},tensor:(fourier:2,fourier:2))")).n == 8
    assert checks == ["Fourier matrix of order 2", "Fourier matrix of order 2", "tensor product of order 4"]
    # A file: leaf that is not leftmost: F2 and F3 are checked before the file is read, and neither again after it.
    checks.clear()
    assert build_matrix(parse_matrix_spec(f"tensor:(tensor:(fourier:2,file:{tmp_path / 'f2.json'}),fourier:3)")).n == 12
    assert checks == ["Fourier matrix of order 2", "Fourier matrix of order 3"]


def test_scan_parses_and_checks_both_specs_before_building_either(monkeypatch, capsys):
    # F2 comes first, yet the k-spec's F100000 is refused before F2 is built; a bad grid before either tree is walked.
    monkeypatch.setattr(cli, "fourier_matrix", lambda group: pytest.fail("a factor was built before the check"))
    assert run(["scan", "fourier:2", "fourier:100000", "--grid", "2"]) == 1
    refusal = "error: Fourier matrix of order 100000 needs 80000000000 bytes, above the cap 536870912\n"
    assert capsys.readouterr() == ("", refusal)
    monkeypatch.setattr(cli, "_checked_order", lambda spec: pytest.fail("a tree was walked before the grid was parsed"))
    assert run(["scan", "fourier:2", "fourier:100000", "--grid", "x"]) == 2
    assert capsys.readouterr().err.startswith("error: bad grid")


def test_defect_refuses_its_pair_system_before_verifying(monkeypatch, capsys):
    # F4's 12 x 16 system takes 1536 bytes; the size follows from N, so nothing is verified first.
    monkeypatch.setattr(errors, "MAX_SYSTEM_BYTES", 12 * 16 * 8 - 1)
    monkeypatch.setattr(tangent, "verify_hadamard", lambda *args, **kwargs: pytest.fail("verified before the check"))
    ones = HadamardMatrix.from_values(np.ones((4, 4)))  # not Hadamard: the size refusal still comes first
    for h in (fourier_matrix(make_group([4])), ones):
        with pytest.raises(CapExceededError, match="^pair system of 12 x 16 entries needs 1536 bytes"):
            undephased_defect(h)
    assert run(["defect", "fourier:4", "--dephased"]) == 1
    assert "pair system of 12 x 16 entries" in capsys.readouterr().err


def test_defect_refuses_its_character_blocks_before_verifying(monkeypatch, capsys):
    # F12's 12 blocks of 12 x 12 complex entries take 27648 bytes, less than its 132 x 144 system. No row group gives
    # fewer bytes than |T| = N, so that stack is refused from N alone, before the group is looked for.
    monkeypatch.setattr(errors, "MAX_SYSTEM_BYTES", 12 * 12 * 12 * 16 - 1)
    monkeypatch.setattr(tangent, "verify_hadamard", lambda *args, **kwargs: pytest.fail("verified before the check"))
    monkeypatch.setattr(tangent, "_row_translations", lambda h: pytest.fail("group looked for before the check"))
    with pytest.raises(CapExceededError, match="^character blocks of 12 x 12 x 12 complex entries needs 27648 bytes"):
        undephased_defect(fourier_matrix(make_group([12])))
    assert run(["defect", "fourier:12"]) == 1
    assert "character blocks of 12 x 12 x 12 complex entries" in capsys.readouterr().err


def test_defect_refuses_the_stack_its_row_group_selects_before_verifying(monkeypatch):
    monkeypatch.setattr(tangent, "verify_hadamard", lambda *args, **kwargs: pytest.fail("verified before the check"))
    # tensor:(tao,fourier:3) has |T| = 3: its 3 blocks of 108 x 108 take 559872 bytes, its |T| = N bound 93312.
    monkeypatch.setattr(errors, "MAX_SYSTEM_BYTES", 2**19)
    with pytest.raises(CapExceededError, match="^character blocks of 3 x 108 x 108 complex entries needs 559872 bytes"):
        undephased_defect(build_matrix(parse_matrix_spec("tensor:(tao,fourier:3)")))
    # tensor:(tao,tao) has no row group, so its 1260 x 1296 system is held to the cap, not its |T| = N bound 746496.
    monkeypatch.setattr(errors, "MAX_SYSTEM_BYTES", 2**20)
    with pytest.raises(CapExceededError, match="^pair system of 1260 x 1296 entries needs 13063680 bytes"):
        undephased_defect(build_matrix(parse_matrix_spec("tensor:(tao,tao)")))


def test_scan_refuses_one_cells_pair_system_before_any_cell(monkeypatch, capsys):
    # One F2 (x) F4 cell's 56 x 64 system takes 28672 bytes: refused before the Helmert matrix, cells or blocks.
    monkeypatch.setattr(errors, "MAX_SYSTEM_BYTES", 56 * 64 * 8 - 1)
    for name in ("verify_hadamard", "helmert_matrix", "_pair_blocks"):
        monkeypatch.setattr(tangent, name, lambda *args, name=name: pytest.fail(f"{name} ran before the check"))
    f2, f4 = fourier_matrix(make_group([2])), fourier_matrix(make_group([4]))
    with pytest.raises(CapExceededError, match="^pair system of 56 x 64 entries needs 28672 bytes"):
        deformation_scan(f2, f4, ScanGrid(2))
    assert run(["scan", "fourier:2", "fourier:4", "--grid", "2"]) == 1
    assert "pair system of 56 x 64 entries" in capsys.readouterr().err


def test_one_cap_governs_every_guard(monkeypatch):
    # Only errors binds the cap, so one setting reaches the four guards, each refusing with its own subject.
    assert not any(hasattr(module, "MAX_SYSTEM_BYTES") for module in (tangent, matrices, groups, cyclotomic))
    monkeypatch.setattr(errors, "MAX_SYSTEM_BYTES", 32767)
    f16 = fourier_matrix(make_group([16]))
    refusals = [
        (lambda: fourier_matrix(make_group([64])), "Fourier matrix of order 64 needs 32768"),
        (make_group([64]).index_tables, "addition table of order 64 needs 32768"),
        (lambda: power_reduction_table.__wrapped__(128), "reduction table of 128 x 64 entries needs 65536"),
        (lambda: tangent_system(f16), "pair system of 240 x 256 entries needs 491520"),
    ]
    for build, subject in refusals:
        with pytest.raises(CapExceededError, match=f"^{subject} bytes, above the cap 32767$"):
            build()


def test_one_element_cap_governs_every_sweep(monkeypatch):
    # Only errors binds the element cap, so one setting reaches a scan grid, group sweeps, a trial division and the
    # Galois conjugates of an exact check.
    modules = (charstats, cli, exact, groups, matrices, tangent)
    assert not any(hasattr(module, "MAX_ELEMENTS") for module in modules)
    monkeypatch.setattr(errors, "MAX_ELEMENTS", 16)
    f2 = fourier_matrix(make_group([2]))
    assert len(deformation_scan(f2, f2, ScanGrid(16))) == 16
    assert charstats.ds_defect_estimate(make_group([16]), 1, 16) == 48  # the defect of F_16
    assert factorize(2 * 331) == {2: 1, 331: 1}  # past the cap a prime cofactor ends the division
    assert charstats.regular_dihedral_group(2).order == 4  # the permutation sweep: 4^2 products
    assert verify_hadamard(haagerup_matrix(Fraction(1, 17))).passed  # phi(68) / 2 = 16 Galois conjugates
    refusals = [
        (lambda: deformation_scan(f2, f2, ScanGrid(17)), "deformation scan grid needs 17"),
        (lambda: charstats.ds_defect_estimate(make_group([17]), 1, 17), "ds_defect_estimate needs 17"),
        (lambda: factorize(17 * 19), "trial division of 323 needs 17"),
        (lambda: charstats.regular_dihedral_group(3), "regular_dihedral_group needs 36"),
        (lambda: verify_hadamard(haagerup_matrix(Fraction(1, 37))), "Galois conjugates of phase order 148 needs 36"),
    ]
    for sweep, subject in refusals:
        with pytest.raises(CapExceededError, match=f"^{subject} elements, above the cap 16$"):
            sweep()


def test_all_matches_what_the_package_binds():
    # A stale export would break `from hdefect import *`; a missing one would hide a public name from it.
    namespace = {}
    exec("from hdefect import *", namespace)
    assert set(hdefect.__all__) <= namespace.keys()
    assert hdefect.__all__ == sorted(hdefect.__all__)
    public = {name for name, value in vars(hdefect).items() if not name.startswith("_") and not inspect.ismodule(value)}
    assert set(hdefect.__all__) == public


def test_caps_are_refused_only_by_their_guards():
    # One rule per cap: every array and sweep refusal goes through errors.check_bytes or errors.check_elements. The
    # only other refusals are the root-order limit of exact phases and a rational nullity that no prime proves.
    raisers = []
    for source in sorted(Path(hdefect.__file__).parent.glob("*.py")):
        tree = ast.parse(source.read_text())
        functions = [f for f in ast.walk(tree) if isinstance(f, (ast.FunctionDef, ast.AsyncFunctionDef))]
        for node in ast.walk(tree):
            if isinstance(node, ast.Raise) and "CapExceededError" in ast.unparse(node):
                owners = [f for f in functions if f.lineno <= node.lineno <= f.end_lineno]
                raisers.append(f"{source.stem}.{max(owners, key=lambda f: f.lineno).name if owners else '<module>'}")
    assert sorted(raisers) == [
        "errors.check_bytes", "errors.check_elements", "exact.rational_nullity", "matrices._check_order"
    ]


def test_only_single_matrix_checks_read_reduction_tables():
    # `power_reduction_table` keeps one table, which serves the exact system of one matrix, a caller that meets one
    # order; exact verification decides on Galois conjugates and reads no table. A caller that meets several orders
    # would rebuild tables in turn.
    callers = []
    for source in sorted(Path(hdefect.__file__).parent.glob("*.py")):
        tree = ast.parse(source.read_text())
        functions = [f for f in ast.walk(tree) if isinstance(f, (ast.FunctionDef, ast.AsyncFunctionDef))]
        for node in ast.walk(tree):
            if isinstance(node, ast.Call) and ast.unparse(node.func).split(".")[-1] == "power_reduction_table":
                owners = [f for f in functions if f.lineno <= node.lineno <= f.end_lineno]
                callers.append(f"{source.stem}.{max(owners, key=lambda f: f.lineno).name if owners else '<module>'}")
    assert sorted(callers) == ["exact._solves_full_system", "exact.build_exact_system"]


def test_the_library_reads_no_environment():
    # Configuration stays in module constants: no source file reads an environment variable.
    for source in Path(hdefect.__file__).parent.glob("*.py"):
        text = source.read_text()
        assert "os.environ" not in text and "getenv" not in text, source.name
