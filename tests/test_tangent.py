"""Tangent systems, certified numeric defects, and deformation scans."""

import math
from fractions import Fraction

import numpy as np
import pytest

from hdefect.errors import (
    AmbiguousRankError,
    DefectMismatchError,
    NonHadamardError,
)
from hdefect.groups import abelian_group_types, fourier_defect, make_group
from hdefect.matrices import (
    DeformationParameters,
    apply_equivalence,
    circulant_from_eigenvalues,
    deformed_tensor,
    fourier_matrix,
    haagerup_matrix,
    recombination_parameters,
    tao_matrix,
    tensor_product,
    verify_hadamard,
)
from hdefect.tangent import (
    ScanGrid,
    circulant_tangent_system,
    deformation_scan,
    dephased_defect,
    fourier_P_check,
    isolation_flag,
    numeric_rank,
    real_design_system,
    tangent_basis,
    tangent_system,
    undephased_defect,
)

F = Fraction


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


def test_dephased_defect_examples():
    assert dephased_defect(f22(F(0))) == 3
    assert dephased_defect(fourier_matrix(make_group([2]))) == 0
    assert dephased_defect(tao_matrix()) == 0
    assert isolation_flag(tao_matrix())
    assert not isolation_flag(fourier_matrix(make_group([6])))
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
        assert np.allclose(special.matrix, generic.matrix, atol=1e-12)
        assert numeric_rank(special.matrix).rank == numeric_rank(generic.matrix).rank
    assert undephased_defect(circulant_from_eigenvalues([F(0), F(1, 4)])).undephased_defect == 3
    with pytest.raises(NonHadamardError):
        circulant_tangent_system([F(0), F(1, 4), F(0), F(1, 4)])


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
