"""Numeric tangent systems, defects, and deformation scans.

The enveloping tangent space at a Hadamard matrix H is the real solution set
of, for all i != j, sum_k H_ik conj(H_jk) (A_ik - A_jk) = 0. It is encoded as
one real row per ordered pair (real part for i < j, imaginary part for i > j)
over the N^2 unknowns A_ab laid out row-major. Ranks come from singular
values only, and every reported rank must clear a spectral-gap certificate.
"""

from __future__ import annotations

import math
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from fractions import Fraction
from itertools import product
from typing import NamedTuple

import numpy as np

from .errors import AmbiguousRankError, DefectMismatchError, NonHadamardError, ResidualError
from .groups import FiniteAbelianGroup, fourier_defect, p_space_components
from .matrices import (
    DeformationParameters,
    HadamardMatrix,
    circulant_from_eigenvalues,
    deformed_tensor,
    design_array,
    fourier_matrix,
    turn_to_complex,
    verify_hadamard,
)

DEFAULT_REL_TOL = 1e-9
DEFAULT_GAP_THRESHOLD = 1e6


@dataclass(frozen=True)
class TangentSystem:
    """Real N(N-1) x N^2 coefficient matrix of the pair equations."""

    matrix: np.ndarray
    n: int
    provenance: str


def _pair_rows(values: np.ndarray) -> np.ndarray:
    n = values.shape[0]
    rows = np.zeros((n * (n - 1), n * n))
    r = 0
    for i in range(n):
        for j in range(n):
            if i == j:
                continue
            prods = values[i] * np.conj(values[j])
            coeff = prods.real if i < j else prods.imag
            rows[r, i * n : (i + 1) * n] = coeff
            rows[r, j * n : (j + 1) * n] -= coeff
            r += 1
    return rows


def tangent_system(h: HadamardMatrix) -> TangentSystem:
    """Assemble the pair-equation system for any unimodular square matrix."""
    return TangentSystem(matrix=_pair_rows(h.to_values()), n=h.n, provenance=h.provenance)


class RankResult(NamedTuple):
    rank: int
    gap_ratio: float
    singular_values: tuple[float, ...]


def numeric_rank(matrix: np.ndarray, rel_tol: float = DEFAULT_REL_TOL) -> RankResult:
    """Rank as the number of singular values above rel_tol times the largest."""
    matrix = np.asarray(matrix, dtype=float)
    if matrix.size == 0:
        return RankResult(0, math.inf, ())
    return _rank_from_spectrum(np.linalg.svd(matrix, compute_uv=False), rel_tol)


def _rank_from_spectrum(sigma: np.ndarray, rel_tol: float) -> RankResult:
    top = sigma[0]
    rank = int(np.sum(sigma > rel_tol * top))
    if rank == len(sigma) or sigma[rank] == 0.0:
        gap = math.inf
    elif rank == 0:
        gap = math.inf if top == 0.0 else 0.0
    else:
        gap = float(sigma[rank - 1] / sigma[rank])
    return RankResult(rank, gap, tuple(float(s) for s in sigma))


def _certified_rank(matrix, rel_tol, gap_threshold, label) -> RankResult:
    return _certify(numeric_rank(matrix, rel_tol), gap_threshold, label)


def _certify(result: RankResult, gap_threshold, label) -> RankResult:
    if result.gap_ratio < gap_threshold:
        raise AmbiguousRankError(
            f"ambiguous rank for {label}: gap ratio {result.gap_ratio:.3e} "
            f"below {gap_threshold:.1e}; spectrum {result.singular_values}",
            result.singular_values,
            result.gap_ratio,
        )
    return result


@dataclass(frozen=True)
class DefectReport:
    n: int
    undephased_defect: int
    dephased_defect: int
    rank: int
    gap_ratio: float
    singular_values: tuple[float, ...]
    rel_tol: float
    gap_threshold: float
    certified: bool
    provenance: str


def _require_hadamard(h: HadamardMatrix, verify_tol: float) -> None:
    report = verify_hadamard(h, tol=verify_tol)
    if not report.passed:
        raise NonHadamardError(
            f"matrix is not Hadamard within {verify_tol:.1e} "
            f"(modulus error {report.max_modulus_error:.3e}, "
            f"orthogonality error {report.max_orthogonality_error:.3e})"
        )


def undephased_defect(
    h: HadamardMatrix,
    rel_tol: float = DEFAULT_REL_TOL,
    gap_threshold: float = DEFAULT_GAP_THRESHOLD,
    verify_tol: float = 1e-9,
) -> DefectReport:
    """Dimension of the enveloping tangent space: N^2 minus the certified rank."""
    _require_hadamard(h, verify_tol)
    system = tangent_system(h)
    result = _certified_rank(system.matrix, rel_tol, gap_threshold, f"defect of {h.provenance or 'matrix'}")
    d = h.n * h.n - result.rank
    return DefectReport(
        n=h.n,
        undephased_defect=d,
        dephased_defect=d - (2 * h.n - 1),
        rank=result.rank,
        gap_ratio=result.gap_ratio,
        singular_values=result.singular_values,
        rel_tol=rel_tol,
        gap_threshold=gap_threshold,
        certified=True,
        provenance=h.provenance,
    )


def _dephased_columns(n: int) -> list[int]:
    return [a * n + b for a in range(1, n) for b in range(1, n)]


def dephased_defect(
    h: HadamardMatrix,
    rel_tol: float = DEFAULT_REL_TOL,
    gap_threshold: float = DEFAULT_GAP_THRESHOLD,
    verify_tol: float = 1e-9,
) -> int:
    """Defect with first row and column pinned; computed two ways, which must agree."""
    report = undephased_defect(h, rel_tol, gap_threshold, verify_tol)
    via_relation = report.undephased_defect - (2 * h.n - 1)
    restricted = tangent_system(h).matrix[:, _dephased_columns(h.n)]
    result = _certified_rank(restricted, rel_tol, gap_threshold, f"dephased defect of {h.provenance or 'matrix'}")
    direct = (h.n - 1) * (h.n - 1) - result.rank
    if direct != via_relation:
        raise DefectMismatchError(
            f"dephased defect paths disagree: restricted system gives {direct}, "
            f"undephased relation gives {via_relation}"
        )
    return direct


def isolation_flag(
    h: HadamardMatrix,
    rel_tol: float = DEFAULT_REL_TOL,
    gap_threshold: float = DEFAULT_GAP_THRESHOLD,
) -> bool:
    """True when the certified dephased defect vanishes."""
    return dephased_defect(h, rel_tol, gap_threshold) == 0


def tangent_basis(
    h: HadamardMatrix,
    rel_tol: float = DEFAULT_REL_TOL,
    gap_threshold: float = DEFAULT_GAP_THRESHOLD,
) -> list[np.ndarray]:
    """Orthonormal basis of the tangent space, as N x N real matrices."""
    _require_hadamard(h, verify_tol=1e-9)
    system = tangent_system(h)
    matrix = system.matrix
    if matrix.size == 0:
        return [np.ones((1, 1))] if h.n == 1 else []
    _, sigma, vh = np.linalg.svd(matrix)
    result = _certify(
        _rank_from_spectrum(sigma, rel_tol), gap_threshold, f"tangent basis of {h.provenance or 'matrix'}"
    )
    basis = [vh[r].reshape(h.n, h.n) for r in range(result.rank, vh.shape[0])]
    bound = 10 * rel_tol * sigma[0]
    for b in basis:
        residual = float(np.max(np.abs(matrix @ b.ravel())))
        if residual > bound:
            raise ResidualError(f"basis residual {residual:.3e} above bound {bound:.3e}")
    return basis


@dataclass(frozen=True)
class PCheckReport:
    dimension_numeric: int
    dimension_combinatorial: int
    closed_form: int
    max_constraint_violation: float
    max_membership_residual: float
    residual_tol: float


def _p_space_basis(group: FiniteAbelianGroup) -> list[np.ndarray]:
    n = group.order
    basis = []
    for members, forced in p_space_components(group):
        real = np.zeros((n, n), dtype=complex)
        for i, j, _ in members:
            real[i, j] = 1.0
        basis.append(real)
        if not forced:
            imag = np.zeros((n, n), dtype=complex)
            for i, j, par in members:
                imag[i, j] = -1j if par else 1j
            basis.append(imag)
    return basis


def fourier_P_check(
    group: FiniteAbelianGroup,
    rel_tol: float = DEFAULT_REL_TOL,
    residual_tol: float = 1e-8,
) -> PCheckReport:
    """Cross-check the tangent space against the group-indexed parameter space.

    Numeric direction: every tangent basis element A yields P = A F obeying the
    column translation and conjugation constraints. Constructive direction:
    every combinatorial class yields A = P F* / |G| inside the tangent space.
    Dimensions from both sides must match the closed form.
    """
    f = fourier_matrix(group)
    fv = f.to_values()
    n = group.order
    elems = group.element_list()
    index = {g: i for i, g in enumerate(elems)}
    add_index = [[index[group.add(gi, gj)] for gj in elems] for gi in elems]
    neg_index = [index[group.neg(g)] for g in elems]

    basis = tangent_basis(f, rel_tol)
    violation = 0.0
    for a in basis:
        p = a @ fv
        for j in range(n):
            for i in range(n):
                shifted = p[add_index[i][j], j]
                violation = max(violation, abs(p[i, j] - shifted))
                conjugated = np.conj(p[i, neg_index[j]])
                violation = max(violation, abs(p[i, j] - conjugated))

    system = tangent_system(f).matrix
    membership = 0.0
    combinatorial = _p_space_basis(group)
    for p in combinatorial:
        a = p @ np.conj(fv.T) / n
        membership = max(membership, float(np.max(np.abs(a.imag))))
        if system.size:
            membership = max(membership, float(np.max(np.abs(system @ a.real.ravel()))))

    report = PCheckReport(
        dimension_numeric=len(basis),
        dimension_combinatorial=len(combinatorial),
        closed_form=fourier_defect(group),
        max_constraint_violation=violation,
        max_membership_residual=membership,
        residual_tol=residual_tol,
    )
    if violation > residual_tol or membership > residual_tol:
        raise ResidualError(
            f"parameter-space correspondence residuals too large: "
            f"constraint {violation:.3e}, membership {membership:.3e}, tol {residual_tol:.1e}"
        )
    if not report.dimension_numeric == report.dimension_combinatorial == report.closed_form:
        raise DefectMismatchError(
            f"parameter-space dimensions disagree: numeric {report.dimension_numeric}, "
            f"combinatorial {report.dimension_combinatorial}, closed form {report.closed_form}"
        )
    return report


def circulant_tangent_system(eigenvalues) -> TangentSystem:
    """Pair system assembled from the eigenvalue vector of a circulant Hadamard.

    Uses H_ik conj(H_jk) = D_{k-i} conj(D_{k-j}) / N with D the plain Fourier
    sum of the eigenvalues. The input must define a valid Hadamard matrix.
    """
    h = circulant_from_eigenvalues(eigenvalues)
    _require_hadamard(h, verify_tol=1e-9)
    n = h.n
    qv = np.array(
        [turn_to_complex(v) if isinstance(v, (Fraction, int)) else complex(v) for v in eigenvalues]
    )
    w = np.exp(2j * np.pi / n)
    d = np.array([np.sum(w ** (m * np.arange(n)) * qv) for m in range(n)])
    rows = np.zeros((n * (n - 1), n * n))
    r = 0
    for i in range(n):
        for j in range(n):
            if i == j:
                continue
            coeffs = np.array([d[(k - i) % n] * np.conj(d[(k - j) % n]) for k in range(n)]) / n
            coeff = coeffs.real if i < j else coeffs.imag
            rows[r, i * n : (i + 1) * n] = coeff
            rows[r, j * n : (j + 1) * n] -= coeff
            r += 1
    return TangentSystem(matrix=rows, n=n, provenance=h.provenance)


def real_design_system(h: HadamardMatrix) -> np.ndarray:
    """Unordered-pair system for a matrix with +-1 entries; imaginary rows vanish."""
    eps = design_array(h)
    n = h.n
    rows = np.zeros((n * (n - 1) // 2, n * n))
    r = 0
    for i in range(n):
        for j in range(i + 1, n):
            rows[r, i * n : (i + 1) * n] = eps[i, j]
            rows[r, j * n : (j + 1) * n] = -eps[i, j]
            r += 1
    return rows


@dataclass(frozen=True)
class ScanGrid:
    """Turn-fraction grid: numerators over a common denominator."""

    denominator: int
    numerators: tuple[int, ...] | None = None

    def __post_init__(self):
        if self.denominator < 1:
            raise ValueError(f"grid denominator must be positive, got {self.denominator}")

    def turns(self) -> list[Fraction]:
        nums = range(self.denominator) if self.numerators is None else self.numerators
        return [Fraction(num, self.denominator) % 1 for num in nums]


@dataclass(frozen=True)
class ScanCell:
    cell_id: str
    parameter_turns: tuple[tuple[Fraction, ...], ...]
    defect: int | None
    dephased_defect: int | None
    gap_ratio: float | None
    certified: bool
    error: str | None


def _scan_cell(h, k, assignment, free, rel_tol, gap_threshold) -> ScanCell:
    m, n = k.n, h.n
    turns = [[Fraction(0)] * n for _ in range(m)]
    for (a, j), t in zip(free, assignment):
        turns[a][j] = t
    params = DeformationParameters.from_turns(turns)
    cell_id = ";".join(str(t) for t in assignment)
    full = tuple(tuple(row) for row in params.turns)
    try:
        matrix = deformed_tensor(h, params, k)
        report = undephased_defect(matrix, rel_tol, gap_threshold)
        return ScanCell(
            cell_id=cell_id,
            parameter_turns=full,
            defect=report.undephased_defect,
            dephased_defect=report.dephased_defect,
            gap_ratio=report.gap_ratio,
            certified=True,
            error=None,
        )
    except (AmbiguousRankError, NonHadamardError) as exc:
        return ScanCell(
            cell_id=cell_id,
            parameter_turns=full,
            defect=None,
            dephased_defect=None,
            gap_ratio=None,
            certified=False,
            error=str(exc),
        )


def deformation_scan(
    h: HadamardMatrix,
    k: HadamardMatrix,
    grid: ScanGrid,
    rel_tol: float = DEFAULT_REL_TOL,
    gap_threshold: float = DEFAULT_GAP_THRESHOLD,
    jobs: int = 1,
) -> list[ScanCell]:
    """Defects of H (x)_L K over all dephased parameter matrices on the grid.

    The free entries of L are positions (a, j) with a, j >= 1 in row-major
    order; each ranges over the grid turns. The flat cell is prepended when
    the grid does not contain it. Cells are independent and the result order
    is the deterministic grid order regardless of the job count.
    """
    free = [(a, j) for a in range(1, k.n) for j in range(1, h.n)]
    turns = grid.turns()
    assignments = [tuple(v) for v in product(turns, repeat=len(free))]
    flat = tuple(Fraction(0) for _ in free)
    if flat not in assignments:
        assignments.insert(0, flat)

    def run(assignment):
        return _scan_cell(h, k, assignment, free, rel_tol, gap_threshold)

    if jobs > 1:
        with ThreadPoolExecutor(max_workers=jobs) as pool:
            return list(pool.map(run, assignments))
    return [run(a) for a in assignments]
