"""Tangent systems, certified numeric defects, and deformation scans."""

import json
import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from hdefect import tangent
from hdefect.cli import build_matrix, parse_matrix_spec, run
from hdefect.errors import (
    AmbiguousRankError,
    DefectMismatchError,
    NonHadamardError,
)
from hdefect.groups import abelian_group_types, fourier_defect, make_group
from hdefect.matrices import (
    DeformationParameters,
    HadamardMatrix,
    apply_equivalence,
    circulant_from_eigenvalues,
    deformed_tensor,
    fourier_matrix,
    haagerup_matrix,
    recombination_parameters,
    tao_matrix,
    tensor_product,
    turn_to_complex,
    verify_hadamard,
)
from hdefect.tangent import (
    ScanGrid,
    deformation_scan,
    dephased_defect,
    fourier_P_check,
    numeric_rank,
    ordered_pairs,
    pair_rows,
    tangent_basis,
    tangent_system,
    undephased_defect,
)

F = Fraction


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
    return pair_rows(pairs, np.where(upper, prods.real, prods.imag)[:, None, :], n)


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
    return pair_rows(np.stack([i, j], axis=1), eps[i, j][:, None, :].astype(float), h.n)


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
    with pytest.raises(AmbiguousRankError) as info:
        undephased_defect(fourier_matrix(make_group([3])), gap_threshold=1e300)
    assert info.value.singular_values


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
    for name in ("verify_hadamard", "tangent_system", "numeric_rank"):
        counts[name] = 0

        def counted(*args, _name=name, _original=getattr(tangent, name), **kwargs):
            counts[_name] += 1
            return _original(*args, **kwargs)

        monkeypatch.setattr(tangent, name, counted)

    def calls(action):
        counts.update(dict.fromkeys(counts, 0))
        action()
        return tuple(counts.values())

    assert calls(lambda: run(["defect", "fourier:6"])) == (1, 1, 1)
    assert "dephased_defect" not in json.loads(capsys.readouterr().out)
    assert calls(lambda: run(["defect", "fourier:6", "--dephased"])) == (1, 1, 2)
    assert json.loads(capsys.readouterr().out)["dephased_defect"] == 4
    f6 = fourier_matrix(make_group([6]))
    assert calls(lambda: dephased_defect(f6)) == (1, 1, 2)
    assert calls(lambda: undephased_defect(f6)) == (1, 1, 1)
    # The dephased columns are a check of their own: a wrong set must not pass.
    monkeypatch.setattr(tangent, "_dephased_columns", lambda n: [])
    with pytest.raises(DefectMismatchError):
        dephased_defect(f6)
    assert run(["defect", "fourier:6", "--dephased"]) == 1


def test_dephased_defect_examples():
    assert dephased_defect(f22(F(0))) == 3
    assert dephased_defect(fourier_matrix(make_group([2]))) == 0
    assert dephased_defect(tao_matrix()) == 0
    assert dephased_defect(fourier_matrix(make_group([6]))) > 0
    assert dephased_defect(haagerup_matrix(F(1, 7))) >= 1


def test_dephased_paths_agree_on_corpus():
    corpus = [fourier_matrix(g) for n in range(1, 17) for g in abelian_group_types(n)]
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
        tangent_basis(fourier_matrix(make_group([3])), gap_threshold=1e300)


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
    sub = ScanGrid(8, (1, 3, 9))
    assert sub.turns() == [F(1, 8), F(3, 8), F(1, 8)]
    with pytest.raises(ValueError):
        ScanGrid(0)


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
