"""Numeric tangent systems, defects, and deformation scans.

The enveloping tangent space at a Hadamard matrix H is the real solution set
of, for all i != j, sum_k H_ik conj(H_jk) (A_ik - A_jk) = 0. It is encoded as
one real row per ordered pair (real part for i < j, imaginary part for i > j)
over the N^2 unknowns A_ab laid out row-major. Ranks come from singular
values only, and every reported rank must clear a spectral-gap certificate.

Every pair system in the package, floating or exact, is built by one scatter,
`pair_rows`, from per-pair coefficient blocks; `check_system_size` refuses
any system above `MAX_SYSTEM_BYTES` before it or its blocks are allocated.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from itertools import product
from typing import NamedTuple

import numpy as np

from .errors import (
    MAX_SYSTEM_BYTES,
    AmbiguousRankError,
    CapExceededError,
    DefectMismatchError,
    NonHadamardError,
    ResidualError,
)
from .groups import FiniteAbelianGroup, fourier_defect, p_space_components
from .matrices import DeformationParameters, HadamardMatrix, deformed_tensor, fourier_matrix, verify_hadamard

DEFAULT_REL_TOL = 1e-9
DEFAULT_GAP_THRESHOLD = 1e6


@dataclass(frozen=True)
class TangentSystem:
    """Real N(N-1) x N^2 coefficient matrix of the pair equations."""

    matrix: np.ndarray
    n: int
    provenance: str


def ordered_pairs(n: int) -> np.ndarray:
    """All (i, j) with i != j in row-major order, as an n(n-1) x 2 array."""
    return np.argwhere(~np.eye(n, dtype=bool))


def check_system_size(nrows: int, n: int, byte_cap: int = MAX_SYSTEM_BYTES) -> None:
    """Raise CapExceededError when nrows pair rows over N^2 unknowns need more than byte_cap bytes."""
    ncols = n * n
    nbytes = nrows * ncols * 8
    if nbytes > byte_cap:
        raise CapExceededError(
            f"pair system of {nrows} x {ncols} entries needs {nbytes} bytes, above the cap {byte_cap}"
        )


def pair_rows(pairs: np.ndarray, blocks: np.ndarray, n: int, byte_cap: int = MAX_SYSTEM_BYTES) -> np.ndarray:
    """Rows of the pair equations over the N^2 unknowns A_ab, in the dtype of blocks.

    blocks[p] (rows per pair x N) holds the coefficients of pair (i, j) =
    pairs[p] on the unknowns A_ib; those on A_jb are their negatives. The
    size is checked by `check_system_size` before the rows are allocated;
    callers that build large blocks check it before building them.
    """
    npairs, per_pair, _ = blocks.shape
    nrows, ncols = npairs * per_pair, n * n
    check_system_size(nrows, n, byte_cap)
    rows = np.zeros((npairs, per_pair, n, n), dtype=blocks.dtype)
    index = np.arange(npairs)
    rows[index, :, pairs[:, 0], :] = blocks
    rows[index, :, pairs[:, 1], :] -= blocks
    return rows.reshape(nrows, ncols)


def tangent_system(h: HadamardMatrix) -> TangentSystem:
    """Assemble the pair-equation system for any unimodular square matrix.

    The row of pair (i, j) is the real part of H_ik conj(H_jk) for i < j and
    the imaginary part for i > j.
    """
    check_system_size(h.n * (h.n - 1), h.n)
    pairs = ordered_pairs(h.n)
    values = h.to_values()
    prods = values[pairs[:, 0]]
    prods *= np.conj(values)[pairs[:, 1]]
    upper = (pairs[:, 0] < pairs[:, 1])[:, None]
    blocks = np.where(upper, prods.real, prods.imag)[:, None, :]
    return TangentSystem(matrix=pair_rows(pairs, blocks, h.n), n=h.n, provenance=h.provenance)


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


def _dephased_columns(n: int) -> list[int]:
    return [a * n + b for a in range(1, n) for b in range(1, n)]


def _defect_pass(
    h: HadamardMatrix, rel_tol: float, gap_threshold: float, verify_tol: float = 1e-9, dephased: bool = False
) -> tuple[DefectReport, int | None]:
    """Verify once, assemble once and certify the rank; with `dephased`, also return the dephased defect.

    The dephased defect takes one more certified SVD, of the columns A_ab with
    a, b >= 1 (first row and column pinned), and is checked against the
    relation d' = d - (2N - 1); the full matrix is released before that SVD.
    """
    _require_hadamard(h, verify_tol)
    label = h.provenance or "matrix"
    matrix = tangent_system(h).matrix
    result = _certified_rank(matrix, rel_tol, gap_threshold, f"defect of {label}")
    d = h.n * h.n - result.rank
    report = DefectReport(
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
    if not dephased:
        return report, None
    restricted = matrix[:, _dephased_columns(h.n)]
    del matrix
    result = _certified_rank(restricted, rel_tol, gap_threshold, f"dephased defect of {label}")
    direct = (h.n - 1) * (h.n - 1) - result.rank
    if direct != report.dephased_defect:
        raise DefectMismatchError(
            f"dephased defect paths disagree: restricted system gives {direct}, "
            f"undephased relation gives {report.dephased_defect}"
        )
    return report, direct


def undephased_defect(
    h: HadamardMatrix,
    rel_tol: float = DEFAULT_REL_TOL,
    gap_threshold: float = DEFAULT_GAP_THRESHOLD,
    verify_tol: float = 1e-9,
) -> DefectReport:
    """Dimension of the enveloping tangent space: N^2 minus the certified rank."""
    return _defect_pass(h, rel_tol, gap_threshold, verify_tol)[0]


def dephased_defect(
    h: HadamardMatrix,
    rel_tol: float = DEFAULT_REL_TOL,
    gap_threshold: float = DEFAULT_GAP_THRESHOLD,
    verify_tol: float = 1e-9,
) -> int:
    """Defect with the first row and column pinned, from the certified rank of the restricted system.

    It is an independent check of the undephased defect d: the two SVDs
    must give d - (2N - 1), else DefectMismatchError.
    """
    return _defect_pass(h, rel_tol, gap_threshold, verify_tol, dephased=True)[1]


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
    full = tuple(tuple(row) for row in turns)
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
) -> list[ScanCell]:
    """Defects of H (x)_L K over all dephased parameter matrices on the grid.

    The free entries of L are positions (a, j) with a, j >= 1 in row-major
    order; each ranges over the grid turns. The flat cell is prepended when
    the grid does not contain it. Cells come in the deterministic grid order.
    """
    free = [(a, j) for a in range(1, k.n) for j in range(1, h.n)]
    turns = grid.turns()
    assignments = [tuple(v) for v in product(turns, repeat=len(free))]
    flat = tuple(Fraction(0) for _ in free)
    if flat not in assignments:
        assignments.insert(0, flat)
    return [_scan_cell(h, k, a, free, rel_tol, gap_threshold) for a in assignments]
