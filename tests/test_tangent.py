"""Tangent systems, certified numeric defects, and deformation scans."""

import dataclasses
import hashlib
import json
import math
import os
import subprocess
import sys
import threading
import time
from fractions import Fraction
from itertools import product

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from hdefect import cyclotomic, exact, matrices, tangent
from hdefect.cli import build_matrix, parse_matrix_spec, run
from hdefect.errors import (
    AmbiguousRankError,
    CapExceededError,
    DefectMismatchError,
    NonHadamardError,
    ResidualError,
)
from hdefect.groups import abelian_group_types, fourier_defect, make_group
from hdefect.matrices import (
    DeformationParameters,
    HadamardMatrix,
    apply_equivalence,
    as_exact,
    circulant_from_eigenvalues,
    deformed_tensor,
    dephase,
    failing_pairs,
    fourier_matrix,
    haagerup_matrix,
    load_matrix,
    recombination_parameters,
    save_matrix,
    tao_matrix,
    tensor_product,
    turn_to_complex,
    verify_hadamard,
)
from hdefect.tangent import (
    ScanCell,
    ScanGrid,
    character_blocks,
    deformation_scan,
    dephased_defect,
    fourier_P_check,
    gauge_cut_blocks,
    helmert_matrix,
    numeric_rank,
    ordered_pairs,
    pair_rows,
    tangent_basis,
    tangent_system,
    undephased_defect,
)
from conftest import traced_peak
from pair_oracles import involutions, scatter_pair_rows, split_spectrum, table_failing_pairs

F = Fraction
SRC = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")


def circulant_tangent_system(eigenvalues) -> np.ndarray:
    """Oracle: the pair system of a circulant Hadamard matrix from its eigenvalue vector.

    Uses H_ik conj(H_jk) = D_{k-i} conj(D_{k-j}) / N with D the plain Fourier
    sum of the eigenvalues, in place of the matrix entries.
    """
    h = circulant_from_eigenvalues(eigenvalues)
    if not verify_hadamard(h).passed:
        raise NonHadamardError(f"{h.provenance} is not Hadamard")
    n = h.n
    qv = np.array([turn_to_complex(v) for v in eigenvalues])
    w = np.exp(2j * np.pi / n)
    d = np.array([np.sum(w ** (m * np.arange(n)) * qv) for m in range(n)])
    pairs = ordered_pairs(n)
    k = np.arange(n)
    prods = d[(k - pairs[:, :1]) % n] * np.conj(d[(k - pairs[:, 1:]) % n]) / n
    upper = (pairs[:, 0] < pairs[:, 1])[:, None]
    return scatter_pair_rows(pairs, np.where(upper, prods.real, prods.imag)[:, None, :], n)


def design_array(h: HadamardMatrix) -> np.ndarray:
    """eps[i, j, k] = H_ik H_jk for a matrix with entries +-1 only."""
    if h.is_exact and np.any(2 * h.numerators % h.phase_order()):
        raise ValueError("design array needs entries +-1, got other phases")
    v = h.to_values()
    if np.max(np.abs(v.imag)) > 1e-12 or np.max(np.abs(np.abs(v.real) - 1.0)) > 1e-12:
        raise ValueError("design array needs entries +-1, got non-real entries")
    s = np.where(v.real > 0, 1, -1).astype(np.int64)
    return np.einsum("ik,jk->ijk", s, s)


def real_design_system(h: HadamardMatrix) -> np.ndarray:
    """Oracle: unordered-pair system for a matrix with +-1 entries, whose imaginary rows vanish."""
    eps = design_array(h)
    i, j = np.triu_indices(h.n, 1)
    return scatter_pair_rows(np.stack([i, j], axis=1), eps[i, j][:, None, :].astype(float), h.n)


def f22(q):
    f2 = fourier_matrix(make_group([2]))
    return deformed_tensor(f2, DeformationParameters.from_turns([[0, 0], [0, q]]), f2)


def test_tangent_system_f2():
    system = tangent_system(fourier_matrix(make_group([2])))
    assert system.matrix.shape == (2, 4)
    assert np.array_equal(system.matrix[0], [1, -1, -1, 1])
    assert np.array_equal(system.matrix[1], [0, 0, 0, 0])
    # corank 3, matching the known tangent dimension of F_2
    assert numeric_rank(system.matrix).rank == 1


def test_numeric_rank_basics():
    assert numeric_rank(np.eye(3)) == (3, math.inf, (1.0, 1.0, 1.0))
    rank, gap, sigma = numeric_rank(np.zeros((2, 5)))
    assert rank == 0 and gap == math.inf
    assert numeric_rank(np.zeros((0, 4))).rank == 0
    rank, gap, _ = numeric_rank(np.diag([1.0, 1e-12]))
    assert rank == 1
    assert gap == pytest.approx(1e12, rel=1e-6)


def test_certification_failure_raises():
    # F4 has d' = 1, so a rounding-level singular value sits below its rank; a rigid F3 now has an infinite gap.
    with pytest.raises(AmbiguousRankError) as info:
        undephased_defect(fourier_matrix(make_group([4])), gap_threshold=1e300)
    assert info.value.singular_values
    assert undephased_defect(fourier_matrix(make_group([3])), gap_threshold=1e300).gap_ratio == math.inf


def test_undephased_defect_examples():
    assert undephased_defect(fourier_matrix(make_group([2]))).undephased_defect == 3
    assert undephased_defect(fourier_matrix(make_group([6]))).undephased_defect == 15
    report = undephased_defect(fourier_matrix(make_group([2, 2])))
    assert report.undephased_defect == 10
    assert report.gap_ratio >= 1e6
    assert report.certified


def test_undephased_defect_requires_hadamard():
    from hdefect.matrices import HadamardMatrix

    ones = HadamardMatrix.from_turns([[0, 0], [0, 0]])
    with pytest.raises(NonHadamardError):
        undephased_defect(ones)


def test_defect_matches_closed_form_up_to_24():
    for order in range(1, 25):
        for g in abelian_group_types(order):
            report = undephased_defect(fourier_matrix(g))
            assert report.undephased_defect == fourier_defect(g), g
    for orders in [(32,), (2, 16)]:
        g = make_group(orders)
        assert undephased_defect(fourier_matrix(g)).undephased_defect == fourier_defect(g)


def test_deformed_family_defects():
    assert undephased_defect(f22(F(0))).undephased_defect == 10
    assert undephased_defect(f22(F(1, 2))).undephased_defect == 10
    assert undephased_defect(f22(F(1, 8))).undephased_defect == 8
    assert undephased_defect(f22(F(1, 4))).undephased_defect == 8
    assert undephased_defect(f22(F(3, 16))).undephased_defect == 8


def test_tensor_defect_exceeds_factor_product():
    f2 = fourier_matrix(make_group([2]))
    d_tensor = undephased_defect(tensor_product(f2, f2)).undephased_defect
    d_factor = undephased_defect(f2).undephased_defect
    assert d_tensor == 10
    assert d_factor == 3
    assert d_tensor > d_factor**2


TENSOR_FACTORS = [
    "fourier:2", "fourier:3", "fourier:4", "fourier:5", "fourier:6", "fourier:2x2",
    "tao", "haagerup:0", "haagerup:1/8", "circulant:0,1/4",
]
SMALL_TENSORS = [
    (left, right)
    for left in TENSOR_FACTORS
    for right in TENSOR_FACTORS
    if build_matrix(parse_matrix_spec(left)).n * build_matrix(parse_matrix_spec(right)).n <= 12
]


# More examples than the 41 pairs, so that hypothesis runs every pair once.
@settings(max_examples=100, deadline=None, derandomize=True)
@given(st.sampled_from(SMALL_TENSORS))
def test_tensor_defect_at_least_factor_product(specs):
    h, k = (build_matrix(parse_matrix_spec(spec)) for spec in specs)
    d_tensor = undephased_defect(tensor_product(h, k)).undephased_defect
    assert d_tensor >= undephased_defect(h).undephased_defect * undephased_defect(k).undephased_defect


def test_one_tangent_pass_per_defect_call(monkeypatch, capsys):
    counts = {}
    # pair_rows counts the assemblies: every one goes through tangent_system, and none is added to the parent's.
    for name in ("verify_hadamard", "tangent_system", "numeric_rank", "pair_rows"):
        counts[name] = 0

        def counted(*args, _name=name, _original=getattr(tangent, name), **kwargs):
            counts[_name] += 1
            return _original(*args, **kwargs)

        monkeypatch.setattr(tangent, name, counted)

    def calls(action):
        counts.update(dict.fromkeys(counts, 0))
        action()
        return tuple(counts.values())

    assert calls(lambda: run(["defect", "fourier:6"])) == (1, 1, 1, 1)
    assert "dephased_defect" not in json.loads(capsys.readouterr().out)
    assert calls(lambda: run(["defect", "fourier:6", "--dephased"])) == (1, 2, 2, 2)
    assert json.loads(capsys.readouterr().out)["dephased_defect"] == 4
    f6 = fourier_matrix(make_group([6]))
    assert calls(lambda: dephased_defect(f6)) == (1, 2, 2, 2)
    assert calls(lambda: undephased_defect(f6)) == (1, 1, 1, 1)
    # The coordinate system is a check of its own: one that lost its imaginary rows (i > j) must not pass.
    assemble = tangent.tangent_system

    def real_rows_only(h, basis=None):
        system = assemble(h, basis)
        if basis is None:
            pairs = ordered_pairs(h.n)
            system.matrix[pairs[:, 0] > pairs[:, 1]] = 0.0
        return system

    monkeypatch.setattr(tangent, "tangent_system", real_rows_only)
    with pytest.raises(DefectMismatchError, match="restricted system gives 13, undephased relation gives 4$"):
        dephased_defect(f6)
    assert run(["defect", "fourier:6", "--dephased"]) == 1
    assert capsys.readouterr().out == ""
    assert undephased_defect(f6).dephased_defect == 4  # the Helmert system is not the one patched


def test_dephased_defect_examples():
    assert dephased_defect(f22(F(0))) == 3
    assert dephased_defect(fourier_matrix(make_group([2]))) == 0
    assert dephased_defect(tao_matrix()) == 0
    assert dephased_defect(fourier_matrix(make_group([6]))) > 0
    assert dephased_defect(haagerup_matrix(F(1, 7))) >= 1


def test_dephased_paths_agree_on_corpus():
    corpus = [fourier_matrix(g) for n in range(1, 33) for g in abelian_group_types(n)]
    corpus += [f22(F(k, 16)) for k in range(16)]
    corpus += [haagerup_matrix(F(k, 8)) for k in range(8)]
    corpus += [tao_matrix()]
    corpus += [
        circulant_from_eigenvalues([F(0), F(1, 4)]),
        circulant_from_eigenvalues([F(0), F(0), F(1, 2), F(0)]),
    ]
    for h in corpus:
        report = undephased_defect(h)
        # dephased_defect recomputes via the restricted system and cross-checks
        assert dephased_defect(h) == report.undephased_defect - (2 * h.n - 1), h.provenance


def test_recombination_defects():
    for n, m in [(2, 2), (2, 3), (3, 3)]:
        h = deformed_tensor(
            fourier_matrix(make_group([n])),
            recombination_parameters(n, m),
            fourier_matrix(make_group([m])),
        )
        assert undephased_defect(h).undephased_defect == fourier_defect(make_group([n * m])), (n, m)


def test_tangent_basis_f3():
    basis = tangent_basis(fourier_matrix(make_group([3])))
    assert len(basis) == 5
    flat = np.array([b.ravel() for b in basis])
    assert np.allclose(flat @ flat.T, np.eye(5), atol=1e-12)
    system = tangent_system(fourier_matrix(make_group([3]))).matrix
    for b in basis:
        assert np.max(np.abs(system @ b.ravel())) < 1e-12


def test_tangent_basis_runs_one_svd(monkeypatch):
    calls = []
    svd = np.linalg.svd

    def counting_svd(*args, **kwargs):
        calls.append(kwargs.get("compute_uv", True))
        return svd(*args, **kwargs)

    monkeypatch.setattr(np.linalg, "svd", counting_svd)
    assert len(tangent_basis(fourier_matrix(make_group([2, 2])))) == 10
    assert calls == [True]
    with pytest.raises(AmbiguousRankError):
        tangent_basis(fourier_matrix(make_group([4])), gap_threshold=1e300)


def test_tangent_basis_trivial_matrix():
    h = fourier_matrix(make_group([1]))
    basis = tangent_basis(h)
    assert len(basis) == 1
    assert basis[0].shape == (1, 1)


def test_fourier_P_check_small():
    report = fourier_P_check(make_group([2]))
    assert report.dimension_numeric == report.dimension_combinatorial == 3
    assert report.max_constraint_violation <= 1e-10
    assert report.max_membership_residual <= 1e-10
    report = fourier_P_check(make_group([2, 2]))
    assert report.closed_form == 10
    report = fourier_P_check(make_group([6]))
    assert report.dimension_numeric == 15


def test_basis_residual_above_its_bound_is_refused(monkeypatch, tmp_path, capsys):
    # The basis is checked against the full system over the entries A_ab; perturbing that system breaks the check.
    assemble = tangent.tangent_system

    def perturbed(h, basis=None):
        system = assemble(h, basis)
        return system if basis is not None else dataclasses.replace(system, matrix=system.matrix + 1e-3)

    monkeypatch.setattr(tangent, "tangent_system", perturbed)
    with pytest.raises(ResidualError, match="^basis residual .* above bound "):
        tangent_basis(fourier_matrix(make_group([4])))
    path = tmp_path / "basis.json"
    assert run(["defect", "fourier:4", "--basis", str(path)]) == 1
    captured = capsys.readouterr()
    assert captured.out == "" and captured.err.startswith("error: basis residual ") and not path.exists()


def test_fourier_P_check_refuses_residuals_above_its_tolerance(monkeypatch):
    # Rounding leaves residuals of about 1e-16 on Z_6, so a zero tolerance refuses them.
    monkeypatch.setattr(tangent, "P_CHECK_RESIDUAL_TOL", 0.0)
    with pytest.raises(ResidualError, match="^parameter-space correspondence residuals too large: constraint "):
        fourier_P_check(make_group([6]))


def test_fourier_P_check_refuses_dimensions_that_disagree(monkeypatch):
    monkeypatch.setattr(tangent, "fourier_defect", lambda group: fourier_defect(group) + 1)
    message = "^parameter-space dimensions disagree: numeric 15, combinatorial 15, closed form 16$"
    with pytest.raises(DefectMismatchError, match=message):
        fourier_P_check(make_group([6]))


def test_circulant_tangent_system_matches_generic():
    for q in ([F(0), F(1, 4)], [F(0), F(0), F(1, 2), F(0)]):
        special = circulant_tangent_system(q)
        generic = tangent_system(circulant_from_eigenvalues(q))
        assert np.allclose(special, generic.matrix, atol=1e-12)
        assert numeric_rank(special).rank == numeric_rank(generic.matrix).rank
    assert undephased_defect(circulant_from_eigenvalues([F(0), F(1, 4)])).undephased_defect == 3
    with pytest.raises(NonHadamardError):
        circulant_tangent_system([F(0), F(1, 4), F(0), F(1, 4)])


def test_design_array():
    klein = fourier_matrix(make_group([2, 2]))
    eps = design_array(klein)
    assert eps.shape == (4, 4, 4)
    v = klein.to_values().real.astype(np.int64)
    for i in range(4):
        for j in range(4):
            for k in range(4):
                assert eps[i, j, k] == v[i, k] * v[j, k]
    with pytest.raises(ValueError):
        design_array(tao_matrix())


def test_real_design_system_agrees():
    klein = tensor_product(fourier_matrix(make_group([2])), fourier_matrix(make_group([2])))
    design = real_design_system(klein)
    assert design.shape == (6, 16)
    nullity = 16 - numeric_rank(design).rank
    assert nullity == undephased_defect(klein).undephased_defect == 10


def test_defect_invariant_under_equivalence():
    rng = np.random.default_rng(20240817)
    targets = [
        (fourier_matrix(make_group([2])), 3),
        (fourier_matrix(make_group([3])), 5),
        (f22(F(1, 4)), 8),
        (tao_matrix(), 11),
    ]
    for h, expected in targets:
        assert undephased_defect(h).undephased_defect == expected
        for _ in range(20):
            rp = tuple(rng.permutation(h.n).tolist())
            cp = tuple(rng.permutation(h.n).tolist())
            rphase = np.exp(2j * np.pi * rng.random(h.n))
            cphase = np.exp(2j * np.pi * rng.random(h.n))
            other = apply_equivalence(h, rp, cp, rphase, cphase)
            assert verify_hadamard(other).passed
            assert undephased_defect(other).undephased_defect == expected


def test_scan_grid_turns():
    grid = ScanGrid(4)
    assert grid.turns() == [F(0), F(1, 4), F(1, 2), F(3, 4)]
    sub = ScanGrid(8, (1, 3, 10))
    assert sub.turns() == [F(1, 8), F(3, 8), F(1, 4)]
    with pytest.raises(ValueError):
        ScanGrid(0)
    with pytest.raises(ValueError, match=r"grid numerators \(1, 3, 9\) name one turn mod 1 twice"):
        ScanGrid(8, (1, 3, 9))


def test_deformation_scan_sixteenth_roots():
    f2 = fourier_matrix(make_group([2]))
    cells = deformation_scan(f2, f2, ScanGrid(16))
    assert len(cells) == 16
    by_id = {c.cell_id: c for c in cells}
    assert by_id["0"].defect == 10
    assert by_id["1/2"].defect == 10
    for cell in cells:
        assert cell.certified and cell.error is None
        expected = 10 if cell.cell_id in {"0", "1/2"} else 8
        assert cell.defect == expected
        assert cell.dephased_defect == cell.defect - 7


def test_deformation_scan_flat_inserted_and_parallel():
    f2 = fourier_matrix(make_group([2]))
    cells = deformation_scan(f2, f2, ScanGrid(8, (1, 3, 5, 7)))
    assert len(cells) == 5
    assert cells[0].cell_id == "0"
    assert cells[0].defect == 10
    # recombination point lives on the eighth-root grid
    cells8 = deformation_scan(f2, f2, ScanGrid(8))
    by_id = {c.cell_id: c for c in cells8}
    assert by_id["1/4"].defect == 8


def test_deformation_scan_two_parameters():
    f2 = fourier_matrix(make_group([2]))
    f3 = fourier_matrix(make_group([3]))
    cells = deformation_scan(f2, f3, ScanGrid(2))
    assert len(cells) == 4
    assert [c.cell_id for c in cells] == ["0;0", "0;1/2", "1/2;0", "1/2;1/2"]
    assert cells[0].defect == undephased_defect(tensor_product(f2, f3)).undephased_defect
    for cell in cells:
        assert cell.certified


def _scan_cell(h, k, assignment, free, rel_tol, gap_threshold) -> ScanCell:
    """Oracle: one scan cell built as a single matrix and put through a single defect call."""
    m, n = k.n, h.n
    turns = [[Fraction(0)] * n for _ in range(m)]
    for (a, j), t in zip(free, assignment):
        turns[a][j] = t
    params = DeformationParameters.from_turns(turns)
    cell_id = ";".join(str(t) for t in assignment)
    full = tuple(tuple(row) for row in turns)
    try:
        report = undephased_defect(deformed_tensor(h, params, k), rel_tol, gap_threshold)
    except (AmbiguousRankError, NonHadamardError) as exc:
        return ScanCell(cell_id, full, None, None, None, False, str(exc), type(exc).__name__)
    return ScanCell(
        cell_id, full, report.undephased_defect, report.dephased_defect, report.gap_ratio, True, None
    )


def per_cell_scan(h, k, grid, rel_tol=tangent.DEFAULT_REL_TOL, gap_threshold=tangent.DEFAULT_GAP_THRESHOLD):
    """Oracle: the scan cell by cell, over an enumerated list of assignments."""
    free = [(a, j) for a in range(1, k.n) for j in range(1, h.n)]
    assignments = [tuple(v) for v in product(grid.turns(), repeat=len(free))]
    flat = tuple(Fraction(0) for _ in free)
    if flat not in assignments:
        assignments.insert(0, flat)
    return [_scan_cell(h, k, a, free, rel_tol, gap_threshold) for a in assignments]


def scan_oracle(h, k, grid, rel_tol=tangent.DEFAULT_REL_TOL, gap_threshold=tangent.DEFAULT_GAP_THRESHOLD):
    """Oracle: `per_cell_scan`, but where H has an order-2 row translation, each cell that its single call certifies
    takes the gap ratio of its two halves ranked as one (`split_spectrum`) when that ratio clears the threshold and
    is finite or from a full rank; else the scan certifies the cell alone. So cells equal single calls but in gap."""
    cells = per_cell_scan(h, k, grid, rel_tol, gap_threshold)
    for c, cell in enumerate(cells if involutions(h) else []):
        if cell.certified:
            sigma = split_spectrum(h, DeformationParameters.from_turns(cell.parameter_turns), k)
            rank, gap = (float(a[0]) for a in tangent._ranks_and_gaps(sigma[None], rel_tol))
            if gap_threshold <= gap < math.inf or rank == len(sigma):
                cells[c] = dataclasses.replace(cell, gap_ratio=gap)
    return cells


def _spec(text):
    return build_matrix(parse_matrix_spec(text))


SCAN_CASES = [
    ("fourier:2", "fourier:2", ScanGrid(16)),
    ("fourier:2", "fourier:4", ScanGrid(4)),
    ("fourier:3", "fourier:2", ScanGrid(6)),
    ("fourier:2", "fourier:2", ScanGrid(8, (1, 3))),
    # Cells of orders 178 and 194, over a common order of 17266.
    ("fourier:2", "fourier:2", ScanGrid(8633, (89, 97))),
    # Cells of orders 2p for p = 181, 191, 193, 197, whose common order 2 * 181 * 191 * 193 * 197 is above 2^31.
    ("fourier:2", "fourier:2", ScanGrid(1314423991, (7262011, 6881801, 6810487, 6672203))),
    ("circulant:0,1/4", "fourier:2", ScanGrid(8)),
    ("fourier:2", "circulant:0,1/4", ScanGrid(8)),
]


@pytest.mark.parametrize("h_spec, k_spec, grid", SCAN_CASES)
def test_batched_scan_equals_per_cell_oracle(h_spec, k_spec, grid):
    h, k = _spec(h_spec), _spec(k_spec)
    cells = deformation_scan(h, k, grid)
    # Ids, turns, defects, bit-identical gap ratios and error strings: F2 and circulant:0,1/4 have an order-2 row
    # translation, so their cells take the gap ratios of their split halves, and F3's those of its single calls.
    assert cells == scan_oracle(h, k, grid)
    assert all(cell.certified for cell in cells)


@pytest.mark.parametrize("h_spec, k_spec, blocked, split", [
    ("fourier:3", "fourier:4", True, False),  # |T| = 3, 6 or 12 by cell
    ("fourier:2", "fourier:6", True, True),  # |T| = 12
    ("fourier:2", "tao", False, True),  # |T| = 2
])
def test_scan_cells_of_order_12_differ_from_single_calls_in_gap_only_on_character_blocks(
    h_spec, k_spec, blocked, split
):
    # The scan ranks each cell's full pair system, or its two halves where H has an order-2 row translation. A single
    # call of order >= BLOCK_MIN_ORDER with BLOCK_MIN_GROUP row translations or more ranks its character blocks, and
    # any other its full system: same defect and certification, and the same gap ratio only where both rank the full
    # system. Split cells equal the scan oracle.
    h, k = _spec(h_spec), _spec(k_spec)
    cells, singles = deformation_scan(h, k, ScanGrid(2)), per_cell_scan(h, k, ScanGrid(2))
    assert [(c.cell_id, c.defect, c.certified) for c in cells] == [(s.cell_id, s.defect, s.certified) for s in singles]
    for cell in cells:
        found = tangent._row_translations(deformed_tensor(h, DeformationParameters.from_turns(cell.parameter_turns), k))
        assert (found is not None and len(found[1]) >= tangent.BLOCK_MIN_GROUP) == blocked
    assert bool(involutions(h)) == split
    assert [c.gap_ratio == s.gap_ratio for c, s in zip(cells, singles)] == [not (blocked or split)] * len(cells)
    assert not split or cells == scan_oracle(h, k, ScanGrid(2))


def test_batched_scan_ambiguous_cells_carry_the_single_call_text():
    f2 = fourier_matrix(make_group([2]))
    cells = deformation_scan(f2, f2, ScanGrid(4), gap_threshold=1e300)
    assert cells == per_cell_scan(f2, f2, ScanGrid(4), gap_threshold=1e300)
    ambiguous = [cell for cell in cells if cell.error]
    assert ambiguous and all(cell.error_type == "AmbiguousRankError" for cell in ambiguous)
    assert ambiguous[0].error.startswith("ambiguous rank for defect of deformed:(fourier:2,fourier:2)")


@pytest.mark.parametrize("bad", [
    HadamardMatrix.from_turns([[0, 0], [0, 0]]),
    HadamardMatrix.from_values(np.ones((2, 2))),
    HadamardMatrix.from_values(np.array([[1, 1], [1, 1.5]])),
])
def test_batched_scan_non_hadamard_factor_fails_every_cell(tmp_path, bad):
    path = tmp_path / "bad.json"
    save_matrix(bad, str(path))
    h, f2 = _spec(f"file:{path}"), fourier_matrix(make_group([2]))
    for left, right in ((h, f2), (f2, h)):
        cells = deformation_scan(left, right, ScanGrid(4))
        assert cells == per_cell_scan(left, right, ScanGrid(4))
        assert all(cell.error_type == "NonHadamardError" for cell in cells)
        assert cells[0].error.startswith("matrix is not Hadamard")


def test_a_floating_split_scan_verifies_the_cells_of_its_left_factor_not_of_the_dephased_one():
    # |H_11| = 1 + 1.2e-9 fails the verify tolerance 1e-9. Dephasing multiplies entry (1, 1) by |H_01| |H_10| |H_00|,
    # so with |H_10| = 1 - 0.45e-9 the dephased F4 keeps its translation 2 and every cell of it would pass: the
    # cells of H are checked.
    v = fourier_matrix(make_group([4])).to_values()
    v[1, 1] *= 1 + 1.2e-9
    v[1, 0] *= 1 - 0.45e-9
    h, k, grid = HadamardMatrix.from_values(v), _spec("fourier:2"), ScanGrid(4)
    left, _ = tangent._left_split(h, k.n)
    assert not verify_hadamard(h).passed and verify_hadamard(left).passed
    cells = deformation_scan(h, k, grid)
    assert cells == per_cell_scan(h, k, grid)
    assert len(cells) == 64 and all(cell.error_type == "NonHadamardError" for cell in cells)


def test_scan_cell_flagged_by_the_stacked_check_is_rescued_by_its_single_call(monkeypatch):
    # A floating cell that fails the stacked verify is rebuilt and put through a single call; when that passes, the
    # cell takes the single call's rank and gap, and the other cells the scan oracle's split gaps.
    h, k, grid = _spec("circulant:0,1/4"), _spec("fourier:2"), ScanGrid(8)
    gram_errors, undephased, flagged, rebuilt = tangent.gram_errors, tangent.undephased_defect, [], []

    def flag_one_cell(values):
        modulus, ortho = gram_errors(values)
        if not flagged:
            modulus[3] = 1.0
            flagged.append(len(values))
        return modulus, ortho

    def counted_single(*args):
        rebuilt.append(args[0].provenance)
        return undephased(*args)

    monkeypatch.setattr(tangent, "gram_errors", flag_one_cell)
    monkeypatch.setattr(tangent, "undephased_defect", counted_single)
    cells = deformation_scan(h, k, grid)
    assert flagged == [8] and rebuilt == ["deformed:(circulant:0,1/4,fourier:2)"]
    monkeypatch.undo()
    expected, single = scan_oracle(h, k, grid), per_cell_scan(h, k, grid)[3]
    assert cells[:3] + cells[4:] == expected[:3] + expected[4:] and cells[3] == single != expected[3]
    assert cells[3].cell_id == "3/8" and cells[3].certified


SPLIT_LEFT = ["fourier:2", "fourier:4", "fourier:2x2", "fourier:6", "circulant:0,1/4", "tensor:(fourier:2,tao)"]


@pytest.mark.parametrize("spec", SPLIT_LEFT + ["fourier:1", "fourier:3", "fourier:5", "tao", "haagerup:1/8"])
def test_a_scan_splits_its_cells_exactly_when_its_left_factor_has_an_order_2_row_translation(spec):
    # The involution is the order-2 translation of least row in the dephased H, as found entry by entry.
    h = _spec(spec)
    found, chosen = involutions(h), tangent._left_split(h, 3)
    assert (chosen is None) == (not found) == (spec not in SPLIT_LEFT)
    if found:  # cell row (i, a) goes to (P i, a)
        expected = tangent.translation_split((found[0][:, None] * 3 + np.arange(3)).ravel())
        assert np.array_equal(chosen[0].to_values(), dephase(h).to_values())
        assert all(np.array_equal(a, b) for a, b in zip(chosen[1], expected))


@st.composite
def split_cells(draw):
    """(H, L, K): H a left factor of a split, or a drawn equivalent of F4 (rows and columns permuted and rephased by
    eighth roots, half the time a floating copy); K among F2, F3, F4 and tao with N = |H| |K| <= 24; L exact, over a
    drawn denominator up to 8, and not dephased."""
    spec = draw(st.sampled_from(SPLIT_LEFT + ["equivalent"]))
    if spec == "equivalent":
        rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
        row_phases, col_phases = ([F(int(x), 8) for x in rng.integers(0, 8, 4)] for _ in range(2))
        h = apply_equivalence(_spec("fourier:4"), rng.permutation(4), rng.permutation(4), row_phases, col_phases)
        h = HadamardMatrix.from_values(h.to_values()) if draw(st.booleans()) else h
    else:
        h = _spec(spec)
    right = [spec for spec in ("fourier:2", "fourier:3", "fourier:4", "tao") if h.n * _spec(spec).n <= 24]
    k = _spec(draw(st.sampled_from(right)))
    d = draw(st.integers(1, 8))
    params = DeformationParameters.from_turns(
        [[F(draw(st.integers(0, d - 1)), d) for _ in range(h.n)] for _ in range(k.n)]
    )
    return h, params, k


@settings(max_examples=60, deadline=None, derandomize=True)
@given(split_cells())
def test_split_halves_keep_the_rank_and_the_spectrum_of_the_full_system(drawn):
    # The merged halves of the cell of the dephased H against the Helmert-ranked full system of the cell of H: one
    # rank, and one spectrum to 1e-12 sigma_max. The halves have N(N-1)/2 rows each, and the even half the first
    # (N/2 - 1)(N - 1) of the (N - 1)^2 ranked columns.
    h, params, k = drawn
    n = h.n * k.n
    full = numeric_rank(tangent._rank_in_place(tangent_system(deformed_tensor(h, params, k), helmert_matrix(n)).matrix))
    left, split = tangent._left_split(h, k.n)
    halves = tangent.translation_halves(deformed_tensor(left, params, k).to_values()[None], split)
    assert [half.shape[2] for half in halves] == [(n // 2 - 1) * (n - 1), n // 2 * (n - 1)]
    assert [half.shape[:2] for half in halves] == [(1, n * (n - 1) // 2)] * 2
    sigma = tangent._merged_spectra(halves)[0]
    ranks, _ = tangent._ranks_and_gaps(sigma[None], tangent.DEFAULT_REL_TOL)
    assert len(sigma) == (n - 1) ** 2 and ranks[0] == full.rank
    np.testing.assert_allclose(sigma, full.singular_values, rtol=0, atol=1e-12 * full.singular_values[0])


LEMMA_FACTORS = ["fourier:2", "fourier:3", "fourier:4", "fourier:5", "fourier:6", "fourier:2x2", "tao"]


@st.composite
def deformed_factors(draw):
    """Exact Hadamard H and K of order at most 6, an exact M x N parameter matrix L, and one entry of H or K moved."""
    haagerup = st.builds("haagerup:{}/{}".format, st.integers(0, 5), st.integers(1, 6))
    factors = st.one_of(st.sampled_from(LEMMA_FACTORS), haagerup)
    h, k = _spec(draw(factors)), _spec(draw(factors))
    d = draw(st.integers(1, 8))
    params = DeformationParameters.from_turns(
        [[F(draw(st.integers(0, d - 1)), d) for _ in range(h.n)] for _ in range(k.n)]
    )
    moved = draw(st.sampled_from([h, k]))
    turns = [list(row) for row in moved.turns]
    turns[draw(st.integers(0, moved.n - 1))][draw(st.integers(0, moved.n - 1))] += F(draw(st.integers(1, 3)), 4)
    perturbed = HadamardMatrix.from_turns(turns)
    return h, params, k, (perturbed, k) if moved is h else (h, perturbed)


@settings(max_examples=150, deadline=None, derandomize=True)
@given(deformed_factors())
def test_deformed_tensor_is_hadamard_exactly_when_its_factors_are(drawn):
    # The lemma behind a scan's exact verification, with the exact verifier of the whole matrix as its oracle:
    # row (i, a) . row (i', a') = [sum_j H_ij conj(H_i'j) L_aj conj(L_a'j)] <K_a, K_a'>.
    h, params, k, (h_moved, k_moved) = drawn
    assert verify_hadamard(deformed_tensor(h, params, k)).passed
    assert not verify_hadamard(deformed_tensor(h_moved, params, k_moved)).passed


def test_exact_scan_reads_no_reduction_table(monkeypatch, capsys):
    # Exact verification decides on Galois conjugates, so a scan builds no cyclotomic reduction table at all.
    assert not hasattr(matrices, "power_reduction_table")
    for module in (cyclotomic, exact):
        monkeypatch.setattr(module, "power_reduction_table", lambda q: pytest.fail(f"reduction table of order {q}"))
    assert run(["scan", "fourier:2", "fourier:4", "--grid", "16"]) == 0
    capsys.readouterr()


def test_exact_scan_verifies_its_factors_dephased(monkeypatch):
    # F2 times e^(2 pi i / 9973) and times its inverse: each factor has order 19946, whose check sweeps 4986 Galois
    # conjugates, but every cell has order 4 or less, and the dephased factors have order 2, with one conjugate each.
    step = F(1, 9973)
    h = HadamardMatrix.from_turns([[step, step], [step, step + F(1, 2)]])
    k = HadamardMatrix.from_turns([[-step, -step], [-step, -step + F(1, 2)]])
    sweeps, check = [], matrices.check_elements
    monkeypatch.setattr(matrices, "check_elements", lambda *sweep: sweeps.append(sweep) or check(*sweep))
    cells = deformation_scan(h, k, ScanGrid(4))
    assert sweeps == [("Galois conjugates of phase order 2", 1)] * 2
    assert verify_hadamard(h).passed
    assert sweeps[2:] == [("Galois conjugates of phase order 19946", 4986)]
    assert cells == scan_oracle(h, k, ScanGrid(4))
    assert [cell.defect for cell in cells] == [10, 8, 10, 8]


@pytest.mark.parametrize("h_spec", ["fourier:2", "circulant:0,1/4"])
def test_batched_scan_refuses_a_cell_above_the_order_cap_as_a_single_call(h_spec):
    h, f2 = _spec(h_spec), fourier_matrix(make_group([2]))
    grid = ScanGrid(2**32 + 15, (1,))
    with pytest.raises(CapExceededError) as single:
        per_cell_scan(h, f2, grid)
    with pytest.raises(CapExceededError) as batched:
        deformation_scan(h, f2, grid)
    assert str(batched.value) == str(single.value) == "phase order 4294967311 is not below the cap 2147483648"


# 64 cells per chunk put each case's cells in one chunk.
@pytest.mark.parametrize("per_chunk", [1, 3, 64])
def test_batched_scan_chunk_boundaries(monkeypatch, per_chunk):
    f2, f4 = fourier_matrix(make_group([2])), fourier_matrix(make_group([4]))
    cases = [(f2, f4, ScanGrid(4)), (f2, f2, ScanGrid(8, (1, 3, 5))), (f2, f2, ScanGrid(8, (0, 3)))]
    expected = [deformation_scan(h, k, grid) for h, k, grid in cases]
    for (h, k, grid), cells in zip(cases, expected):
        size = h.n * k.n  # F2 splits each cell: N^2 / 2 rows of its system are assembled, over N^2 unknowns
        monkeypatch.setattr(tangent, "SCAN_CHUNK_BYTES", per_chunk * size**4 // 2 * 8)
        monkeypatch.setattr(tangent, "SCAN_CHUNK_VALUES", 1)
        assert deformation_scan(h, k, grid) == cells


@pytest.mark.parametrize("h_spec, k_spec, grid, shapes, chunks", [
    ("fourier:2", "fourier:4", 4, [(28, 21), (28, 28)], [32, 32]),
    ("fourier:2", "fourier:6", 2, [(66, 55), (66, 66)], [10, 10, 10, 2]),
    ("fourier:3", "fourier:2", 16, [(30, 25)], [87, 87, 82]),
])
def test_scan_chunks_hold_enough_singular_values_to_release_the_gil(h_spec, k_spec, grid, shapes, chunks, monkeypatch):
    # numpy runs a stacked SVD without the GIL only above 500 singular values. A cell whose left factor has an
    # order-2 row translation is ranked as two halves of N(N-1)/2 rows, with (N/2 - 1)(N - 1) and N/2 (N - 1)
    # columns, in one stack each, from N^2 / 2 assembled rows of N^2 entries: 0.5 MiB of those holds 32 cells of
    # F2 (x) F4, whose 21 even values a cell take 24 cells past 500, and 6 of F2 (x) F6, whose 55 take 10. F3 has
    # none, so F3 (x) F2 keeps one stack of full systems, sized by what it ranks: 0.5 MiB holds 87 of 30 x 25. Only a
    # scan's last chunk may hold fewer values.
    stacks, svd = [], np.linalg.svd

    def recording_svd(a, **kwargs):
        stacks.append(a.shape)
        return svd(a, **kwargs)

    monkeypatch.setattr(np.linalg, "svd", recording_svd)
    deformation_scan(_spec(h_spec), _spec(k_spec), ScanGrid(grid))
    assert stacks == [(count, *shape) for count in chunks for shape in shapes]
    assert all(count * min(rows, cols) > 500 for count, rows, cols in stacks[: -len(shapes)])


def test_scan_svd_error_propagates_unchanged_and_the_thread_is_joined(monkeypatch):
    f2, f4 = fourier_matrix(make_group([2])), fourier_matrix(make_group([4]))
    injected, svd, threads = np.linalg.LinAlgError("injected into the second chunk"), np.linalg.svd, []

    def failing_svd(*args, **kwargs):
        threads.append(threading.current_thread())
        if len(threads) == 3:  # the second chunk's even half
            raise injected
        return svd(*args, **kwargs)

    monkeypatch.setattr(np.linalg, "svd", failing_svd)
    before = threading.active_count()
    with pytest.raises(np.linalg.LinAlgError) as raised:
        deformation_scan(f2, f4, ScanGrid(4))  # 64 cells in chunks of 32, with one SVD per half
    assert raised.value is injected
    assert threading.main_thread() not in threads
    assert threading.active_count() == before


def test_scan_refuses_a_cell_above_the_order_cap_while_a_chunk_is_in_flight(monkeypatch):
    f2, grid = fourier_matrix(make_group([2])), ScanGrid(2**32 + 15, (0, 1))
    with pytest.raises(CapExceededError) as single:
        per_cell_scan(f2, f2, grid)
    finished, svd = [], np.linalg.svd

    def slow_svd(*args, **kwargs):
        time.sleep(0.2)  # still running when the second cell is refused
        finished.append(True)
        return svd(*args, **kwargs)

    monkeypatch.setattr(np.linalg, "svd", slow_svd)
    monkeypatch.setattr(tangent, "SCAN_CHUNK_BYTES", 1)  # one cell per chunk
    monkeypatch.setattr(tangent, "SCAN_CHUNK_VALUES", 1)
    before = threading.active_count()
    with pytest.raises(CapExceededError) as batched:
        deformation_scan(f2, f2, grid)
    assert str(batched.value) == str(single.value)
    assert finished == [True, True]  # both halves of the cell in flight
    assert threading.active_count() == before


def test_scan_counts_its_cells_before_making_the_grids_turns(monkeypatch):
    # A grid of 2,000,000 turns is refused from its denominator, and a scan with no free entry makes no turn.
    monkeypatch.setattr(ScanGrid, "turns", lambda self: pytest.fail("the grid's turns were made"))
    f1, f2, f4 = (fourier_matrix(make_group([n])) for n in (1, 2, 4))
    with pytest.raises(CapExceededError, match="^deformation scan grid needs 2000000 elements, above the cap 1000000$"):
        deformation_scan(f2, f2, ScanGrid(2000000))
    [cell] = deformation_scan(f1, f4, ScanGrid(2000000))
    assert (cell.cell_id, cell.parameter_turns, cell.defect) == ("", ((F(0),),) * 4, 8)


def test_closing_a_scan_after_one_cell_joins_its_svd_thread():
    f2, f4 = fourier_matrix(make_group([2])), fourier_matrix(make_group([4]))
    before = threading.active_count()
    cells = tangent._scan_cells(f2, f4, ScanGrid(4), tangent.DEFAULT_REL_TOL, tangent.DEFAULT_GAP_THRESHOLD)
    assert threading.active_count() == before  # the call refuses or verifies; no chunk is built yet
    first = next(cells)
    assert threading.active_count() == before + 1
    cells.close()
    assert threading.active_count() == before
    assert first == deformation_scan(f2, f4, ScanGrid(4))[0]


def test_scan_to_an_unwritable_out_exits_before_any_cell_is_built(monkeypatch, tmp_path, capsys):
    monkeypatch.setattr(tangent, "helmert_matrix", lambda *args: pytest.fail("a cell was built"))
    out = tmp_path / "missing" / "scan.csv"
    assert run(["scan", "fourier:2", "fourier:4", "--grid", "16", "--out", str(out)]) == 1
    assert capsys.readouterr().err.startswith("error: [Errno 2] No such file or directory")


def test_scan_refused_in_a_later_chunk_leaves_the_rows_written_before_it(monkeypatch, tmp_path, capsys):
    # Cells 0, 1/2 and 1/8589934622, one per chunk: the third is above the order cap. The pipeline has prepared
    # the second chunk when the third is refused, so the rows of every chunk before those two are written.
    flat = tmp_path / "flat.csv"
    assert run(["scan", "fourier:2", "fourier:2", "--grid", "2", "--out", str(flat)]) == 0
    capsys.readouterr()
    monkeypatch.setattr(tangent, "SCAN_CHUNK_BYTES", 1)
    monkeypatch.setattr(tangent, "SCAN_CHUNK_VALUES", 1)
    out = tmp_path / "scan.csv"
    assert run(["scan", "fourier:2", "fourier:2", "--grid", "8589934622:0,4294967311,1", "--out", str(out)]) == 1
    assert capsys.readouterr() == ("", "error: phase order 8589934622 is not below the cap 2147483648\n")
    assert out.read_bytes() == b"".join(flat.read_bytes().splitlines(keepends=True)[:2])  # the header and cell 0


def test_scan_memory_stays_flat_in_the_number_of_cells(monkeypatch, tmp_path, capsys):
    # 256 and 4,096 cells of F2 (x) F3: rows are written and the summary folded as the cells arrive. The peak
    # also holds a chunk's SVD on the other thread whenever it overlaps the next chunk's build, which varies
    # by as much as the chunk: chunks of the fewest cells that release the GIL (51, for 10 values a cell in the
    # even half) keep that within 0.3 MB.
    monkeypatch.setattr(tangent, "SCAN_CHUNK_BYTES", 1)

    def scan(grid):
        return run(["scan", "fourier:2", "fourier:3", "--grid", str(grid), "--out", str(tmp_path / "scan.csv")])

    peaks = {}
    for grid in (2, 16, 64):  # the grid of 2 takes the scan's one-time imports and set-up
        code, peaks[grid] = traced_peak(lambda: scan(grid))
        assert code == 0 and json.loads(capsys.readouterr().out)["cells"] == grid**2
    assert peaks[64] - peaks[16] <= 512 * 1024  # a scan that kept its cell list grew by 1.5 MB


def test_scan_csv_digest_with_gap_ratios(tmp_path):
    # Recorded on x86-64 with OpenBLAS 0.3.31 (Haswell kernels) at 1 thread; the CSV without its gap_ratio
    # column has the digest 6040ba6d... that perfbench checks (SCAN_DIGEST).
    out = tmp_path / "scan.csv"
    env = dict(os.environ, OPENBLAS_NUM_THREADS="1", OMP_NUM_THREADS="1", PYTHONPATH=SRC)
    code = "import sys; from hdefect.cli import run; raise SystemExit(run(sys.argv[1:]))"
    argv = ["scan", "fourier:2", "fourier:4", "--grid", "16", "--out", str(out)]
    subprocess.run([sys.executable, "-c", code, *argv], check=True, env=env, capture_output=True)
    digest = hashlib.sha256(out.read_bytes()).hexdigest()
    assert digest == "295fbd779ae3f909ce45626e2e6d93323548921740bfc5e387acbe02818d82d3"


def _scalar_rank_rule(sigma, rel_tol):
    """Oracle: rank and gap ratio of one spectrum, case by case."""
    top = sigma[0]
    rank = int(np.sum(sigma > rel_tol * top))
    if rank == len(sigma) or sigma[rank] == 0.0:
        return rank, math.inf
    if rank == 0:
        return rank, math.inf if top == 0.0 else 0.0
    return rank, float(sigma[rank - 1] / sigma[rank])


def test_stacked_ranks_and_gaps_match_the_scalar_rule():
    rng = np.random.default_rng(5)
    spectra = [rng.random(6) * 10.0 ** -rng.integers(0, 14, 6) for _ in range(40)]
    spectra += [np.array([2.0, 1.0, 1.0, 1.0, 0.0, 0.0]), np.zeros(6), np.array([1.0, 1e-12, 1e-13, 0, 0, 0])]
    stack = -np.sort(-np.array(spectra), axis=1)
    for rel_tol in (1e-9, 0.5, 2.0):
        ranks, gaps = tangent._ranks_and_gaps(stack, rel_tol)
        for sigma, rank, gap in zip(stack, ranks.tolist(), gaps.tolist()):
            assert (rank, gap) == _scalar_rank_rule(sigma, rel_tol)


def test_stacked_pair_rows_equal_single_systems():
    rng = np.random.default_rng(11)
    pairs = ordered_pairs(5)
    blocks = rng.standard_normal((3, len(pairs), 2, 5))
    for basis in (np.eye(5), helmert_matrix(5), helmert_matrix(5)[:, 1:]):
        stacked = pair_rows(pairs, blocks, basis)
        k = basis.shape[1]
        assert stacked.shape == (3, 2 * len(pairs), k * k)
        for system, block in zip(stacked, blocks):
            assert np.array_equal(system, pair_rows(pairs, block, basis))


def test_identity_basis_rows_equal_the_scatter():
    rng = np.random.default_rng(12)
    for n in (1, 2, 5, 8):
        pairs = ordered_pairs(n)
        floats = rng.standard_normal((3, len(pairs), 2, n))
        integers = rng.integers(-2**30, 2**30, (len(pairs), 4, n))
        assert np.array_equal(pair_rows(pairs, floats, np.eye(n)), scatter_pair_rows(pairs, floats, n))
        exact = pair_rows(pairs, integers, np.eye(n, dtype=np.int64))
        assert exact.dtype == np.int64 and np.array_equal(exact, scatter_pair_rows(pairs, integers, n))
        # Any basis B gives the full system times B (x) B.
        basis = rng.standard_normal((n, 3))
        expected = scatter_pair_rows(pairs, floats, n) @ np.kron(basis, basis)
        assert np.allclose(pair_rows(pairs, floats, basis), expected, rtol=1e-12, atol=1e-12)


def test_helmert_matrix_is_orthogonal_with_zero_sum_columns():
    assert helmert_matrix(0).shape == (0, 0)
    for n in range(1, 40):
        w = helmert_matrix(n)
        assert w.shape == (n, n)
        assert np.allclose(w.T @ w, np.eye(n), atol=1e-14)
        assert np.allclose(w[:, 1:].sum(axis=0), 0, atol=1e-14)
        assert np.allclose(w[:, :1], n ** -0.5)


def test_failing_pairs_decide_exact_verify():
    rng = np.random.default_rng(3)
    f6 = fourier_matrix(make_group([6])).numerators
    candidates = [f6, 2 * tao_matrix().numerators, rng.integers(0, 6, (6, 6))]
    for _ in range(5):
        changed = f6.copy()
        changed[rng.integers(6), rng.integers(6)] += rng.integers(1, 6)
        candidates.append(changed % 6)
    for index, nums in enumerate(candidates):
        pairs = failing_pairs(nums, 6)
        assert pairs.shape[1:] == (2,) and (pairs[:, 0] < pairs[:, 1]).all()
        assert (len(pairs) == 0) == (index < 2) == verify_hadamard(HadamardMatrix(phases=(nums, 6))).passed


def _nonorthogonal_pairs(nums, q):
    """Oracle: the rows i < j whose floating inner product is not 0."""
    roots = np.exp(2j * np.pi * nums / q)
    return np.argwhere(np.triu(np.abs(roots @ np.conj(roots).T) > 1e-6, 1))


@pytest.mark.parametrize("q", [2, 6, 8, 12])
def test_failing_pairs_match_floating_inner_products(monkeypatch, q):
    rng = np.random.default_rng(q)
    f2x2 = fourier_matrix(make_group([2, 2])).numerators * (q // 2)
    cases = [f2x2, *rng.integers(0, q, (40, 4, 4)), (f2x2 + rng.integers(0, 2, (4, 4))) % q, rng.integers(0, q, (9, 9))]
    found = [failing_pairs(nums, q) for nums in cases]
    for nums, pairs in zip(cases, found):
        assert np.array_equal(pairs, _nonorthogonal_pairs(nums, q))
    assert len(found[0]) == 0
    # One pair per block gives the same pairs.
    monkeypatch.setattr(matrices, "CHECK_BLOCK_BYTES", 1)
    for nums, pairs in zip(cases, found):
        assert np.array_equal(failing_pairs(nums, q), pairs)


def test_failing_pairs_work_in_blocks_of_bounded_size():
    # F64 over q = 1024 with one entry moved: the 63 pairs of its row fail, of 2016.
    q, nums = 1024, fourier_matrix(make_group([64])).numerators * 16
    nums[5, 7] += 1
    failing_pairs(nums[:2], q)  # warms up before tracing
    pairs, peak = traced_peak(lambda: failing_pairs(nums, q))
    assert np.array_equal(pairs, _nonorthogonal_pairs(nums, q)) and len(pairs) == 63
    # All 2016 pairs' phi(1024) = 512 sums at once would take 8.3 MB.
    assert peak < 2 * matrices.CHECK_BLOCK_BYTES


def test_failing_pairs_take_each_conjugate_in_bounded_blocks():
    # F256 with one entry moved: one conjugate's 256 x 256 values, their conjugates and Gram take 3 MiB whole.
    nums = fourier_matrix(make_group([256])).numerators.copy()
    nums[5, 7] += 1
    pairs, peak = traced_peak(lambda: failing_pairs(nums, 256))
    assert np.array_equal(pairs, _nonorthogonal_pairs(nums, 256)) and len(pairs) == 255
    assert peak < 2 * matrices.CHECK_BLOCK_BYTES


def test_unit_candidates_are_taken_in_blocks(monkeypatch):
    # haagerup:1/9973 has q = 39892: its 19947 unit candidates, listed at once with their gcds, would take 320 kB.
    monkeypatch.setattr(matrices, "CHECK_BLOCK_BYTES", 2**14)
    h = haagerup_matrix(F(1, 9973))
    pairs, peak = traced_peak(lambda: failing_pairs(h.numerators, h.phase_order()))
    assert len(pairs) == 0 and peak < 2 * matrices.CHECK_BLOCK_BYTES


@st.composite
def exact_rows(draw):
    """Numerators over q of a random N x N matrix, N <= 8, or half the time of F_n scaled to q (n | q) with one
    entry moved by a random amount, for q in a list that includes 1 and 105, 210 and 2310, where Phi_q has a
    coefficient -2 (105) or many prime factors."""
    q = draw(st.sampled_from([1, 2, 3, 4, 6, 8, 12, 16, 105, 210, 2310]))
    if draw(st.booleans()):
        n = draw(st.sampled_from([d for d in range(1, 9) if q % d == 0]))
        nums = fourier_matrix(make_group([n])).numerators * (q // n)
        nums[draw(st.integers(0, n - 1)), draw(st.integers(0, n - 1))] += draw(st.integers(0, q - 1))
        return nums % q, q
    n = draw(st.integers(0, 8))
    entries = draw(st.lists(st.integers(0, q - 1), min_size=n * n, max_size=n * n))
    return np.array(entries, dtype=np.int64).reshape(n, n), q


@settings(max_examples=150, deadline=None, derandomize=True)
@given(exact_rows())
def test_failing_pairs_equal_the_reduction_table_check(drawn):
    nums, q = drawn
    assert np.array_equal(failing_pairs(nums, q), table_failing_pairs(nums, q))


def test_near_miss_fails_on_a_conjugate_other_than_the_first():
    # Rows (0, 0) and (0, 9/16) have product s = 1 + x^7 over q = 16, of modulus 0.390 at u = 1, below 1/2, but
    # 1.11, 1.66 and 1.96 at u = 3, 5 and 7: a check of u = 1 alone would pass the matrix.
    moduli = [abs(1 + np.exp(2j * np.pi * 7 * u / 16)) for u in (1, 3, 5, 7)]
    assert moduli[0] < 0.5 < 1 < min(moduli[1:])
    h = HadamardMatrix.from_turns([[0, 0], [0, F(9, 16)]])
    assert np.array_equal(failing_pairs(h.numerators, 16), [[0, 1]])
    assert not verify_hadamard(h).passed


RANK_BASES = [
    "fourier:2", "fourier:3", "fourier:4", "fourier:5", "fourier:6", "fourier:7", "fourier:8", "fourier:9",
    "fourier:10", "fourier:11", "fourier:12", "fourier:2x2", "fourier:2x4", "fourier:3x3", "fourier:2x6",
    "tao", "haagerup:1/8", "haagerup:1/12", "fourier:2x2x2", "tensor:(fourier:2,tao)",
    "deformed:(fourier:2,[[0,0],[0,1/8]],fourier:2)", "deformed:(fourier:2,[[0,0],[0,0],[0,1/16]],fourier:3)",
]


@settings(max_examples=80, deadline=None, derandomize=True)
@given(st.sampled_from(RANK_BASES), st.integers(0, 2**32 - 1), st.booleans())
def test_ranked_columns_keep_the_rank_and_the_nonzero_spectrum(spec, seed, floating):
    h, rng = _spec(spec), np.random.default_rng(seed)
    n, q = h.n, h.phase_order()
    h = apply_equivalence(
        h, tuple(rng.permutation(n).tolist()), tuple(rng.permutation(n).tolist()),
        [F(int(e), q) for e in rng.integers(0, q, n)], [F(int(e), q) for e in rng.integers(0, q, n)],
    )
    if floating:
        h = HadamardMatrix.from_values(h.to_values())
    full = numeric_rank(tangent_system(h).matrix)
    report = undephased_defect(h)
    assert report.rank == full.rank
    assert len(report.singular_values) == (n - 1) ** 2
    top = np.array(full.singular_values[: full.rank])
    assert np.allclose(report.singular_values[: full.rank], top, rtol=0, atol=1e-12 * top[0])
    # The dephased check cuts the system over the entries A_ab the same way: it is the one over I[:, 1:], bit for bit.
    cut = tangent._rank_in_place(tangent_system(h).matrix)
    expected = tangent_system(h, np.eye(n)[:, 1:]).matrix
    assert np.array_equal(cut.view(np.uint64), expected.view(np.uint64))
    assert numeric_rank(cut).singular_values == numeric_rank(expected).singular_values


def test_defect_svds_run_on_the_ranked_columns(monkeypatch, capsys):
    systems, svd = [], np.linalg.svd

    def recording_svd(a, **kwargs):
        systems.append(np.array(a))
        return svd(a, **kwargs)

    monkeypatch.setattr(np.linalg, "svd", recording_svd)
    assert run(["defect", "fourier:6"]) == 0
    assert [a.shape for a in systems] == [(30, 25)]
    systems.clear()
    assert run(["defect", "fourier:6", "--dephased"]) == 0
    assert [a.shape for a in systems] == [(30, 25), (30, 25)]
    # The second is the full system's columns A_ab with a, b >= 1: the coordinate basis I[:, 1:].
    full = tangent_system(fourier_matrix(make_group([6]))).matrix
    assert np.array_equal(systems[1], full.reshape(30, 6, 6)[:, 1:, 1:].reshape(30, 25))
    capsys.readouterr()


def _found_group(h):
    """(V, X) of the row translation group found on H, or of the trivial group if none is."""
    return (tangent._row_translations(h) or (h.to_values(), np.ones((1, 1))))[:2]


def _found_blocks(h):
    """The character blocks, one per class {k, -k}, and their multiplicities, of the group `_found_group` gives."""
    return character_blocks(*_found_group(h))


def _all_character_blocks(v, x):
    """Oracle: all |T| character blocks, block k for every character k, from their rows: row (z, a, a') has c / sqrt(2)
    on Y_k[a] and -X[z, k] c / sqrt(2) on Y_k[a'], where c = conj X[z, y] V_a[y, b] conj V_a'[y, b] on column (y, b)."""
    order, m = len(x), len(v)
    v = v.reshape(m, order, m)
    c = np.einsum("zy,ayb,cyb->zacyb", np.conj(x), v, np.conj(v)).reshape(order, m, m, order * m) / math.sqrt(2)
    eye = np.eye(m)
    blocks = np.einsum("zacj,ad->zacdj", c, eye)[None] - np.einsum("zk,zacj,cd->kzacdj", x, c, eye)
    return blocks.reshape(order, order * m * m, order * m * m)


def _conjugate_characters(x):
    """Oracle: for each character k of X, the j whose column is conj X[:, k] entry by entry."""
    return np.array([np.flatnonzero(np.abs(x - np.conj(column)[:, None]).max(axis=0) < 1e-9)[0] for column in x.T])


def _restricted_system(h):
    """Oracle: the full pair system over the entries A_ab, sliced to a, b >= 1, the unknowns left by pinning row 0
    and column 0."""
    n = h.n
    return tangent_system(h).matrix.reshape(-1, n, n)[:, 1:, 1:].reshape(n * (n - 1), (n - 1) ** 2)


def _assert_blocks_agree(h, order):
    """Character blocks and the full Helmert-ranked system: one rank, one certification, and one spectrum to
    1e-12 sigma_max, on the (N-1)^2 largest merged block values. H has a row group of the given order, so the group
    found on it has a multiple of that order; only for order 1 may none be found, and the trivial group's blocks,
    the full system as one complex block, are compared. The gauge-cut blocks and the full restricted system give
    one dephased rank, that of d: d' = d - (2N - 1), certified on the blocks. Blocks k and -k share one spectrum."""
    found = tangent._row_translations(h)
    assert (found is None and order == 1) or (found is not None and len(found[1]) % order == 0)
    group = _found_group(h)
    stack, multiplicity = character_blocks(*group)
    blocks = numeric_rank(stack, count=(h.n - 1) ** 2, multiplicity=multiplicity)
    full = numeric_rank(tangent._rank_in_place(tangent_system(h, helmert_matrix(h.n)).matrix))
    assert blocks.rank == full.rank
    threshold = tangent.DEFAULT_GAP_THRESHOLD
    assert (blocks.gap_ratio >= threshold) == (full.gap_ratio >= threshold)
    assert len(blocks.singular_values) == len(full.singular_values) == (h.n - 1) ** 2
    top = max(full.singular_values, default=0.0)
    np.testing.assert_allclose(blocks.singular_values, full.singular_values, rtol=0, atol=1e-12 * top)
    cut = numeric_rank(gauge_cut_blocks(stack, multiplicity.sum()), count=(h.n - 1) ** 2, multiplicity=multiplicity)
    restricted = numeric_rank(_restricted_system(h))
    assert cut.rank == restricted.rank == full.rank
    assert len(cut.singular_values) == len(restricted.singular_values) == (h.n - 1) ** 2
    assert cut.gap_ratio >= threshold
    _assert_conjugate_blocks_share_spectra(*group)
    return blocks


def _assert_conjugate_blocks_share_spectra(v, x):
    """Blocks k and -k of the full stack, plain and gauge-cut, have one spectrum to 1e-12 sigma_max. `character_blocks`
    holds the least k of each class {k, -k} of the full stack, in order, (|T| + r) / 2 blocks for r real characters,
    with multiplicity 1 for a real character and 2 for a pair: the multiplicities sum to |T|."""
    order, partner = len(x), _conjugate_characters(x)
    assert np.array_equal(partner[partner], np.arange(order))
    keep, real = np.flatnonzero(np.arange(order) <= partner), np.sum(partner == np.arange(order))
    stack, multiplicity = character_blocks(v, x)
    assert len(stack) == len(keep) == (order + real) // 2 and multiplicity.sum() == order
    assert multiplicity.tolist() == [1 if partner[k] == k else 2 for k in keep]
    full = _all_character_blocks(v, x)
    np.testing.assert_allclose(stack, full[keep], rtol=0, atol=1e-14)
    for blocks in (full, gauge_cut_blocks(full.copy(), order)):
        sigma = np.linalg.svd(blocks, compute_uv=False)
        np.testing.assert_allclose(sigma[partner], sigma, rtol=0, atol=1e-12 * sigma.max(initial=0.0))


@pytest.mark.parametrize(
    "spec, classes",
    [("fourier:16", 9), ("fourier:32", 17), ("fourier:2x2x2x2x2", 32), ("fourier:4x8", 18),
     ("tensor:(fourier:3,tao)", 2)],
)
def test_one_block_is_built_per_class_of_conjugate_characters(spec, classes, monkeypatch):
    # Both SVDs of a blocked `--dephased` rank (|T| + r) / 2 blocks, r the number of real characters, counted to |T|.
    h, ranked = _spec(spec), []
    monkeypatch.setattr(tangent, "numeric_rank", lambda *args: ranked.append(args) or numeric_rank(*args))
    dephased_defect(h)
    assert [(len(args[0]), args[3].sum()) for args in ranked] == [(classes, len(tangent._row_translations(h)[1]))] * 2


def test_character_blocks_agree_with_the_full_system_on_every_fourier_matrix_to_order_32():
    groups = [g for order in range(2, 33) for g in abelian_group_types(order)]
    assert len(groups) == 54
    for group in groups:
        h = fourier_matrix(group)
        assert len(tangent._row_translations(h)[1]) == group.order
        assert h.n * h.n - _assert_blocks_agree(h, group.order).rank == fourier_defect(group)


BLOCK_TENSORS = [
    # Each with the order of its Fourier factor's group. The bench defect corpus:
    ("tensor:(fourier:2,tao)", 2),
    ("tensor:(tao,fourier:3)", 3),
    ("tensor:(fourier:4,haagerup:1/12)", 4),
    ("deformed:(fourier:4,[[0,0,0,0],[0,1/8,0,3/16],[0,0,1/4,0],[0,1/16,0,0]],fourier:4)", 4),
    ("deformed:(fourier:4,[[0,0,0,0],[0,1/2,0,0],[0,0,0,0],[0,0,0,1/4]],fourier:4)", 4),
    ("deformed:(fourier:4,[[0,0,0,0],[0,1/3,1/6,0],[0,0,0,0],[0,0,1/12,0]],fourier:4)", 4),
    # The acceptance corpus: the F2 (x) F2 family, the tensor square and the recombinations.
    *((f"deformed:(fourier:2,[[0,0],[0,{k}/16]],fourier:2)", 2) for k in range(16)),
    ("tensor:(fourier:2,fourier:2)", 4),
    ("deformed:(fourier:2,[[0,0],[0,1/4]],fourier:2)", 2),
    ("deformed:(fourier:2,[[0,0],[0,1/6],[0,1/3]],fourier:3)", 2),
    ("deformed:(fourier:3,[[0,0,0],[0,1/9,2/9],[0,2/9,4/9]],fourier:3)", 3),
    # |T| = 1 and N = 1: the only ones with no group to find.
    ("tao", 1),
    ("tensor:(fourier:1,tao)", 1),
    ("fourier:1", 1),
]


@pytest.mark.parametrize("spec, order", BLOCK_TENSORS, ids=[spec for spec, _ in BLOCK_TENSORS])
def test_character_blocks_agree_with_the_full_system_on_corpus_tensors(spec, order):
    _assert_blocks_agree(_spec(spec), order)


@st.composite
def fourier_left_tensors(draw):
    """(F_G (x)_L K, order) with |G| <= 8 and K among F2, F3 and tao, at most order 24; L on a 1/16 grid or random
    unimodular. H has a row group of that order: G, or for trivial G, as H is then K with its rows rephased, K's."""
    spec = draw(st.sampled_from(["fourier:2", "fourier:3", "tao"]))
    k = _spec(spec)
    group = draw(st.sampled_from([g for order in range(1, 9) for g in abelian_group_types(order) if order * k.n <= 24]))
    shape = (k.n, group.order)
    if draw(st.booleans()):
        params = DeformationParameters.from_turns(
            [[F(draw(st.integers(0, 15)), 16) for _ in range(shape[1])] for _ in range(shape[0])]
        )
    else:
        rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
        params = DeformationParameters.from_values(np.exp(2j * np.pi * rng.random(shape)))
    order = group.order if group.order > 1 or spec == "tao" else k.n
    return deformed_tensor(fourier_matrix(group), params, k), order


@settings(max_examples=40, deadline=None, derandomize=True)
@given(fourier_left_tensors())
def test_character_blocks_agree_with_the_full_system_on_drawn_tensors(drawn):
    _assert_blocks_agree(*drawn)


@st.composite
def fourier_equivalents(draw):
    """(H, H', order): H is F_G with |G| from 12 to 32, or a drawn F_G (x)_L K, with a row group of that order; H' is H
    with its rows and columns permuted and rephased by q-th roots (q the phase order of H, or 16 for floating H), and
    half the time a floating copy."""
    if draw(st.booleans()):
        group = draw(st.sampled_from([g for order in range(12, 33) for g in abelian_group_types(order)]))
        h, order = fourier_matrix(group), group.order
    else:
        h, order = draw(fourier_left_tensors())
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    q = h.phase_order() if h.is_exact else 16
    row_phases, col_phases = ([F(int(k), q) for k in rng.integers(0, q, h.n)] for _ in range(2))
    moved = apply_equivalence(h, rng.permutation(h.n), rng.permutation(h.n), row_phases, col_phases)
    return h, HadamardMatrix.from_values(moved.to_values()) if draw(st.booleans()) else moved, order


@settings(max_examples=30, deadline=None, derandomize=True)
@given(fourier_equivalents())
def test_character_blocks_of_equivalents_agree_with_the_full_system(drawn):
    h, moved, order = drawn
    # The equivalent has the same group as H; only an H with no group to find (tao, for trivial G) has none.
    found, moved_found = tangent._row_translations(h), tangent._row_translations(moved)
    assert (found is None) == (moved_found is None) == (order == 1)
    assert found is None or len(moved_found[1]) == len(found[1])
    _assert_blocks_agree(moved, order)


def _rephasings_in_block_coordinates(v, x):
    """The 2N - 1 rephasings e_i 1^T, for every row i, and 1 e_c^T, for columns c >= 1, in the coordinates of the
    character blocks: Y_k[a, c] = sum_x conj X[x, k] A[(x, a), c] / sqrt|T|, as a (2N - 1, |T|, M, N) array."""
    order, n = len(x), v.shape[1]
    eye = np.eye(n)
    rows = np.broadcast_to(eye[:, :, None], (n, n, n))  # A[i'] = 1 on row i' = i
    cols = np.broadcast_to(eye[1:, None, :], (n - 1, n, n))  # A[:, c'] = 1 on column c' = c
    a = np.concatenate([rows, cols]).reshape(2 * n - 1, order, n // order, n)
    return np.einsum("xk,rxac->rkac", np.conj(x), a) / math.sqrt(order)


@pytest.mark.parametrize(
    "spec, order, m",
    [
        ("fourier:16", 16, 1),
        ("tensor:(fourier:3,tao)", 3, 6),
        ("deformed:(fourier:4,[[0,0,0,0],[0,1/8,0,3/16],[0,0,1/4,0],[0,1/16,0,0]],fourier:4)", 4, 4),
    ],
)
def test_the_dephased_gauge_cuts_every_rephasing_and_keeps_the_dephased_unknowns(spec, order, m):
    # The gauge pins A[i, c0] = 0 and sum_x A[(x, a0), c] = 0: column (a, c0) of every block, (a0, c) of block 0.
    v, x, _ = tangent._row_translations(_spec(spec))
    n = v.shape[1]
    assert (len(x), n // len(x)) == (order, m)
    k, a, c = np.indices((order, m, n))
    dropped = (c == 0) | ((k == 0) & (a == 0))
    assert dropped.sum() == 2 * n - 1 and (~dropped).sum() == (n - 1) ** 2
    # The rephasings are independent on the dropped columns: no rephasing but 0 lies in the gauge.
    rephasings = _rephasings_in_block_coordinates(v, x)
    assert np.linalg.matrix_rank(rephasings[:, dropped]) == 2 * n - 1
    # The ranked stack keeps the other columns of each block, in order, and zeroes the rest of block 0.
    blocks = _all_character_blocks(v, x)
    cut = gauge_cut_blocks(blocks.copy(), order)
    assert cut.shape == (order, n * m, m * (n - 1))
    for block, full, kept in zip(cut, blocks, ~dropped):
        assert np.array_equal(block[:, np.abs(block).max(axis=0) > 0], full[:, kept.ravel()])
    assert not cut[0].reshape(n * m, m, n - 1)[:, 0].any()


def test_row_translations_are_found_whatever_the_construction(tmp_path):
    # Found on the entries: a product has either factor's group, and a copy, an equivalent or a file the original's.
    group = make_group([2, 3])
    f, tao = fourier_matrix(group), tao_matrix()
    floating = HadamardMatrix.from_values(tao.to_values())
    params = DeformationParameters.from_turns([[F(a * j, 12) for j in range(6)] for a in range(6)])
    path = tmp_path / "f.json"
    save_matrix(f, str(path))
    found = [
        f,
        tensor_product(f, tao),
        tensor_product(f, floating),
        deformed_tensor(f, params, tao),
        deformed_tensor(f, DeformationParameters.from_values(params.to_values()), floating),
        tensor_product(tao, f),
        dephase(f),
        apply_equivalence(f, [1, 0, 2, 3, 4, 5], range(6), [F(1, 6)] * 6, [0] * 6),
        as_exact(HadamardMatrix.from_values(f.to_values())),
        HadamardMatrix.from_values(f.to_values()),
        load_matrix(str(path)),
    ]
    assert [len(tangent._row_translations(h)[1]) for h in found] == [group.order] * len(found)
    assert tangent._row_translations(tao) is None and tangent._row_translations(floating) is None


def _former_forgeries():
    """F16 with rows 0 and 1 swapped, and F16 with row 3 turned by 1e-6: both equivalent to F16."""
    f16 = fourier_matrix(make_group([16]))
    swapped = HadamardMatrix(phases=(f16.numerators[[1, 0, *range(2, 16)]], 16))
    turned = f16.to_values() * np.exp(1e-6j * (np.arange(16) == 3))[:, None]  # row 3 turned by 1e-6: still Hadamard
    return [swapped, HadamardMatrix.from_values(turned)]


@pytest.mark.parametrize("moved", _former_forgeries())
def test_swapped_or_rephased_rows_keep_the_row_group_and_take_the_blocks(moved, monkeypatch):
    assert verify_hadamard(moved).passed and len(tangent._row_translations(moved)[1]) == 16
    built = []
    monkeypatch.setattr(tangent, "character_blocks", lambda *found: built.append(character_blocks(*found)) or built[-1])
    report = undephased_defect(moved)
    assert [b.shape for b, _ in built] == [(9, 16, 16)] and report.undephased_defect == 48
    assert report.rank == numeric_rank(tangent._rank_in_place(tangent_system(moved, helmert_matrix(16)).matrix)).rank


def test_row_translations_are_checked_exactly_or_within_the_verify_tolerance():
    f12 = fourier_matrix(make_group([2, 6]))
    for h in (f12, HadamardMatrix.from_values(f12.to_values())):
        assert len(tangent._row_translations(h)[1]) == 12
    # One entry turned by 2e-9 breaks every translation but the identity; turned by 5e-10 it is within VERIFY_TOL.
    for turn, found in ((2e-9, False), (5e-10, True)):
        values = f12.to_values().copy()
        values[5, 7] *= np.exp(1j * turn)
        h = HadamardMatrix.from_values(values)
        assert verify_hadamard(h).passed and (tangent._row_translations(h) is not None) == found


def test_the_verify_tolerance_separates_equal_and_distinct_roots_below_the_order_cap():
    # Distinct q-th roots, q < MAX_PHASE_ORDER, lie 2 sin(pi / MAX_PHASE_ORDER) apart or more: the one value test
    # that finds translations decides exact phases exactly.
    assert matrices.VERIFY_TOL + 1e-12 < 2 * math.sin(math.pi / matrices.MAX_PHASE_ORDER)
    q = 2_147_483_640  # 8 (2^28 - 1), a multiple of 12 just below the cap
    turns = [[F(0)] * 12, [F(0)] * 5 + [F(1, q)] + [F(0)] * 6]
    f12, f2 = fourier_matrix(make_group([12])), fourier_matrix(make_group([2]))
    h = deformed_tensor(f12, DeformationParameters.from_turns(turns), f2)
    assert dephase(h).phase_order() == q < matrices.MAX_PHASE_ORDER
    # Exact verification at this order meets the Galois-conjugate cap, so the group is looked for directly.
    assert len(tangent._row_translations(h)[1]) == 12
    nums = h.numerators.copy()
    nums[5, 7] += 1  # one entry a q-th of a turn off: 2.93e-9 away, beyond VERIFY_TOL
    assert tangent._row_translations(HadamardMatrix(phases=(nums, q))) is None


def _numerator_translations(h):
    """Oracle: the rows t of the dephased numerators e over q such that, for every row s, e_s + e_t is a row mod q."""
    dephased = dephase(h)
    e, q = dephased.numerators, dephased.phase_order()
    rows = {tuple(row) for row in e.tolist()}
    return [t for t in range(h.n) if all(tuple(row) in rows for row in ((e + e[t]) % q).tolist())]


@st.composite
def exact_row_group_matrices(draw):
    """F_G with |G| from 12 to 32 or F4 (x)_L F4 with L on a grid of 1/2, 1/3, 1/4 or 1/16 turns, half the time with
    its rows and columns permuted and rephased by q-th roots, q its phase order; all exact."""
    if draw(st.booleans()):
        h = fourier_matrix(draw(st.sampled_from([g for order in range(12, 33) for g in abelian_group_types(order)])))
    else:
        den = draw(st.sampled_from([2, 3, 4, 16]))
        turns, f4 = [[F(draw(st.integers(0, den - 1)), den) for _ in range(4)] for _ in range(4)], _spec("fourier:4")
        h = deformed_tensor(f4, DeformationParameters.from_turns(turns), f4)
    if draw(st.booleans()):
        rng, q = np.random.default_rng(draw(st.integers(0, 2**32 - 1))), h.phase_order()
        row_phases, col_phases = ([F(int(k), q) for k in rng.integers(0, q, h.n)] for _ in range(2))
        h = apply_equivalence(h, rng.permutation(h.n), rng.permutation(h.n), row_phases, col_phases)
    return h


@settings(max_examples=40, deadline=None, derandomize=True)
@given(exact_row_group_matrices())
def test_row_translations_agree_with_the_numerator_rule_on_exact_matrices(h):
    # X is the rows of T in D, sorted, on one column of each character: each of its columns is a column of the oracle's.
    oracle, found = _numerator_translations(h), tangent._row_translations(h)
    assert (found is None) == (len(oracle) < 2)
    if found is not None:
        rows = dephase(h).to_values()[oracle]
        assert len(found[1]) == len(oracle)
        assert all((rows == column[:, None]).all(axis=0).any() for column in found[1].T)


@pytest.mark.parametrize("spec", ["fourier:12", "fourier:2x6", "tensor:(fourier:3,tao)", "circulant:0,1/4"])
def test_row_translation_permutations_map_each_row_by_their_translation(spec):
    # P[x] sends row s of D to row s times row t = P[x][0]; the t are T's rows, sorted, identity first.
    h = _spec(spec)
    d, (_, x, perms) = dephase(h).to_values(), tangent._row_translations(h)
    assert len(perms) == len(x) and np.array_equal(perms[0], np.arange(h.n)) and np.all(np.diff(perms[:, 0]) > 0)
    for perm in perms:
        np.testing.assert_allclose(d[perm], d * d[perm[0]], rtol=0, atol=1e-12)
    assert not h.is_exact or perms[:, 0].tolist() == _numerator_translations(h)


def test_row_translations_of_non_hadamard_input_are_none():
    f16 = fourier_matrix(make_group([16]))
    nums, zeroed = f16.numerators.copy(), f16.to_values().copy()
    nums[5, 7] += 1  # one entry a 16th of a turn off
    zeroed[3] = 0
    inputs = [
        HadamardMatrix(phases=(nums, 16)),
        HadamardMatrix.from_values(np.ones((16, 16))),
        HadamardMatrix.from_values(zeroed),
        HadamardMatrix.from_values(np.exp(2j * np.pi * np.random.default_rng(5).random((16, 16)))),
        HadamardMatrix.from_values(np.full((16, 16), np.nan)),
    ]
    for h in inputs:
        assert not verify_hadamard(h).passed and tangent._row_translations(h) is None
        with pytest.raises(NonHadamardError):
            undephased_defect(h)
    # Infinite entries too, without a warning, as the verification that refuses them gives none either.
    assert tangent._row_translations(HadamardMatrix.from_values(np.where(np.eye(16), np.inf, f16.to_values()))) is None


def test_group_less_matrices_take_the_full_system(monkeypatch):
    monkeypatch.setattr(tangent, "character_blocks", lambda *found: pytest.fail("blocks built without a row group"))
    for spec in ("tao", "haagerup:1/8", "tensor:(tao,tao)"):
        h = _spec(spec)
        assert tangent._row_translations(h) is None
        report = undephased_defect(h)
        assert report.undephased_defect == h.n * h.n - report.rank
    # With |T| = 2 < BLOCK_MIN_GROUP, the dephased check ranks the full restricted system too.
    h = _spec("tensor:(fourier:2,tao)")
    assert len(tangent._row_translations(h)[1]) == 2
    assert dephased_defect(h) == undephased_defect(h).undephased_defect - 23
    # Order 216 has no translation: its 46440 x 46656 system is refused, where 216 x 216 x 216 blocks would fit.
    big = _spec("tensor:(tao,tensor:(tao,tao))")
    assert tangent._row_translations(big) is None
    with pytest.raises(CapExceededError, match="^pair system of 46440 x 46656 entries"):
        undephased_defect(big)


def test_a_file_round_trip_gives_the_blocks_defect(tmp_path, capsys):
    path = tmp_path / "f16.json"
    save_matrix(fourier_matrix(make_group([16])), str(path))
    assert run(["defect", "fourier:16"]) == 0
    blocked = json.loads(capsys.readouterr().out)
    assert run(["defect", f"file:{path}"]) == 0
    loaded = json.loads(capsys.readouterr().out)
    assert (loaded["defect"], loaded["rank"]) == (blocked["defect"], blocked["rank"]) == (48, 208)


def _recording_svds(monkeypatch):
    systems, svd = [], np.linalg.svd

    def recording_svd(a, **kwargs):
        systems.append(np.array(a))
        return svd(a, **kwargs)

    monkeypatch.setattr(np.linalg, "svd", recording_svd)
    return systems


def test_defect_svds_run_on_the_character_blocks(monkeypatch, capsys):
    systems = _recording_svds(monkeypatch)
    assert run(["defect", "fourier:16"]) == 0
    assert [a.shape for a in systems] == [(9, 16, 16)]
    assert np.array_equal(systems[0], _found_blocks(fourier_matrix(make_group([16])))[0])
    systems.clear()
    # The dephased check ranks the same blocks, cut by its gauge: M = 1, so block 0 keeps no column and is zero.
    assert run(["defect", "fourier:16", "--dephased"]) == 0
    assert [a.shape for a in systems] == [(9, 16, 16), (9, 16, 15)]
    assert np.array_equal(systems[1], gauge_cut_blocks(systems[0], 16))
    assert not systems[1][0].any()
    capsys.readouterr()


def test_a_drawn_equivalent_of_f32_from_a_file_is_ranked_on_blocks(tmp_path, monkeypatch, capsys):
    rng = np.random.default_rng(61)
    f32 = fourier_matrix(make_group([32]))
    phases = [[F(int(k), 32) for k in rng.integers(0, 32, 32)] for _ in range(2)]
    save_matrix(apply_equivalence(f32, rng.permutation(32), rng.permutation(32), *phases), str(tmp_path / "h.json"))
    systems = _recording_svds(monkeypatch)
    assert run(["defect", f"file:{tmp_path / 'h.json'}"]) == 0
    assert [(a.shape, a.dtype) for a in systems] == [((17, 32, 32), np.complex128)]
    assert json.loads(capsys.readouterr().out)["defect"] == fourier_defect(make_group([32]))


def _ranked_by_take(system: np.ndarray) -> np.ndarray:
    """Oracle: the columns of X_ab, a, b >= 1, of an N^2-column system, copied out by np.take."""
    n = math.isqrt(system.shape[-1])
    return np.take(system, (np.arange(1, n)[:, None] * n + np.arange(1, n)).ravel(), axis=-1)


@settings(max_examples=60, deadline=None, derandomize=True)
@given(st.integers(1, 12), st.lists(st.integers(0, 4), max_size=2), st.integers(0, 2**32 - 1), st.booleans())
def test_rank_in_place_equals_take_bit_for_bit(n, stack, seed, small_blocks):
    rng = np.random.default_rng(seed)
    system = rng.standard_normal((*stack, n * (n - 1), n * n)) * 10.0 ** rng.integers(-300, 300, n * n)
    expected = _ranked_by_take(system)
    with pytest.MonkeyPatch.context() as patch:
        if small_blocks:  # one row a block, so the most blocks; the early ones overlap their own source rows
            patch.setattr(tangent, "RANK_BLOCK_BYTES", 1)
        ranked = tangent._rank_in_place(system)
    assert ranked.shape == expected.shape == (*stack, n * (n - 1), (n - 1) ** 2)
    assert ranked.flags.c_contiguous and (ranked.size == 0 or np.shares_memory(ranked, system))
    assert np.array_equal(ranked.view(np.uint64), expected.view(np.uint64))


def test_rank_in_place_of_assembled_systems():
    for n in (1, 2, 5, 12):
        h = fourier_matrix(make_group([n]))
        system = tangent_system(h, helmert_matrix(n)).matrix
        expected = _ranked_by_take(system)
        assert np.array_equal(tangent._rank_in_place(system).view(np.uint64), expected.view(np.uint64))
    with pytest.raises(ValueError, match="C-contiguous"):
        tangent._rank_in_place(np.zeros((6, 9, 2)).transpose(0, 2, 1)[..., :4])


@pytest.mark.parametrize("defect_of", [undephased_defect, dephased_defect])
def test_defect_holds_one_system_sized_array(defect_of):
    h = fourier_matrix(make_group([16]))
    defect_of(h)  # values and LAPACK set-up before tracing
    full, ranked = 240 * 256 * 8, 240 * 225 * 8
    # A copy of the ranked columns next to the full system would take full + ranked bytes.
    assert traced_peak(lambda: defect_of(h))[1] < full + ranked
