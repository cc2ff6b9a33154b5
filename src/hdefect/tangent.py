"""Numeric tangent systems, defects, and deformation scans.

The enveloping tangent space at a Hadamard matrix H is the real solution set
of, for all i != j, sum_k H_ik conj(H_jk) (A_ik - A_jk) = 0. It is encoded as
one real row per ordered pair (real part for i < j, imaginary part for i > j).
Ranks come from singular values only, and every reported rank must clear a
spectral-gap certificate.

Every pair system in the package, floating or exact, single or stacked, is
built by one assembly, `pair_rows`, from per-pair coefficient blocks over the
unknowns X of A = B X B^T for a column basis B; B = I gives the entries A_ab.
A defect call assembles each of its floating systems by `tangent_system`, but
for one: a matrix with a row translation group T, found on its entries, has its
defect ranked on `character_blocks`, the same system split by the characters of T,
and its dephased check on `gauge_cut_blocks`, those blocks cut by a gauge T keeps.
Block -k is block k under complex conjugation, which the real system commutes
with, so it has block k's spectrum: one block per class {k, -k} is built and
ranked, a real character's once and a pair's values counted twice.
Ranks are taken over the orthogonal `helmert_matrix` W: its unknowns X_0b and
X_a0 span the 2N - 1 rephasings a 1^T + 1 b^T, which solve the system exactly
for every Hadamard H, and are dropped. The SVD ranks the other (N-1)^2, which
span their orthogonal complement, so the rank and every nonzero singular
value are those of the full system, and d = N^2 - rank.
The ranked columns are moved to the front of the buffer the system was
assembled in, so no second system-sized array is made before the SVD.
`check_system_size` refuses any system above the `check_bytes` cap before it or
its blocks are allocated, and `check_block_size` any stack of character blocks;
a defect call or a scan checks the one it will rank from N and |T| alone,
before any verification. A deformation scan is streamed: it yields its cells
chunk by chunk, with one stack of cells, one assembly and one stacked SVD per
chunk, so its memory does not grow with the number of cells. Floating cells are
verified as a stack; exact cells by their two factors, once per scan. One
background thread per scan runs each chunk's SVD, a LAPACK call that releases
the GIL, while the next chunk is built; at most two chunks are held.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from itertools import chain, islice, pairwise, product
from typing import Iterator, NamedTuple

import numpy as np

from .errors import (
    AmbiguousRankError,
    DefectMismatchError,
    NonHadamardError,
    ResidualError,
    check_bytes,
    check_elements,
)
from .groups import FiniteAbelianGroup, _p_space_keys, fourier_defect
from .matrices import MAX_PHASE_ORDER, VERIFY_TOL, DeformationParameters, HadamardMatrix, _common_order, _roots
from .matrices import deformed_tensor, dephase, fourier_matrix, gram_errors, turn_to_complex, verify_hadamard

DEFAULT_REL_TOL = 1e-9
DEFAULT_GAP_THRESHOLD = 1e6
P_CHECK_RESIDUAL_TOL = 1e-8  # largest residual that `fourier_P_check` allows on either side
# Bytes of the stacked ranked pair systems of one scan chunk: 23 cells of F2 (x) F4, 56 x 49 each.
SCAN_CHUNK_BYTES = 2**19
SCAN_CHUNK_VALUES = 501  # fewest singular values per chunk: a stacked SVD releases the GIL above 500 only
RANK_BLOCK_BYTES = 2**16  # source bytes that `_rank_in_place` moves at once, and the most it buffers
# All |G| `character_blocks` would take about 4 / |G|^2 of the full SVD's flops, a complex flop counted as four, and one
# per pair {k, -k} (|G| + r) / 2|G| of that, r the real characters, so they save nothing below |G| = 3; below order 12
# their fixed cost outweighs the saving (F10 breaks even with all |G| blocks, 2 vCPUs, OpenBLAS at 1 thread).
BLOCK_MIN_GROUP, BLOCK_MIN_ORDER = 3, 12


@dataclass(frozen=True)
class TangentSystem:
    """Real N(N-1) x k^2 coefficient matrix of the pair equations over A = B X B^T, B an N x k basis."""

    matrix: np.ndarray


def ordered_pairs(n: int) -> np.ndarray:
    """All (i, j) with i != j in row-major order, as an n(n-1) x 2 array."""
    return np.argwhere(~np.eye(n, dtype=bool))


def helmert_matrix(n: int) -> np.ndarray:
    """Orthogonal N x N Helmert matrix: column 0 is 1/sqrt(N), column k > 0 is (1^k, -k, 0, ...)/sqrt(k(k+1))."""
    k, rows = np.arange(n), np.arange(n)[:, None]
    entries = np.where((rows < k) | (k == 0), 1.0, np.where(rows == k, -k, 0.0))
    return entries / np.sqrt(np.where(k > 0, k * (k + 1.0), n))


def _rank_in_place(system: np.ndarray) -> np.ndarray:
    """The columns X_ab, a, b >= 1, of a C-contiguous (..., rows, N^2) system, moved to the front of its own buffer.

    Over `helmert_matrix(N)` these are the ranked columns, the other 2N - 1 the
    rephasings; over the entries A_ab (B = I), the dephased system. They keep
    their row-major order. Rows are moved one block at a time, in order. A block's
    destination ends before the first row not yet read, so no source is
    overwritten; numpy buffers a block whose source and destination overlap.
    Returns a C-contiguous (..., rows, (N-1)^2) view of the same buffer,
    equal to those columns bit for bit; the system itself is spent. A plain
    copy of the columns left fresh `defect` peaks of F32, F48 and F64 as they
    were, but raised the bench `defect` workload's peak 54.5 -> 60.0 MB (+10%) in 4 of 4 paired runs.
    """
    if not system.flags.c_contiguous:
        raise ValueError("the system to rank in place must be C-contiguous")
    *stack, nrows, width = system.shape
    n = math.isqrt(width)
    square = system.reshape(-1, n, n)  # row r of the stack as the N x N matrix of its unknowns X_ab
    ranked = system.reshape(-1)[: len(square) * (n - 1) ** 2].reshape(len(square), n - 1, n - 1)
    step = max(1, RANK_BLOCK_BYTES // (8 * width))
    for start in range(0, len(square), step):
        ranked[start : start + step] = square[start : start + step, 1:, 1:]
    return ranked.reshape(*stack, nrows, (n - 1) ** 2)


def check_system_size(nrows: int, ncols: int) -> None:
    """Raise CapExceededError when an nrows x ncols pair system needs more than the `check_bytes` cap."""
    check_bytes(f"pair system of {nrows} x {ncols} entries", nrows * ncols * 8)


def pair_rows(pairs: np.ndarray, blocks: np.ndarray, basis: np.ndarray) -> np.ndarray:
    """Rows of the pair equations over the k^2 unknowns X of A = B X B^T, row-major, for an N x k basis B.

    blocks[..., p, :, :] (rows per pair x N) holds the coefficient rows c of
    pair (i, j) = pairs[p], whose equation is sum_b c_b (A_ib - A_jb) = 0; its
    row over X is (B_i - B_j) (x) (B^T c). B = I gives the full system over the
    N^2 entries A_ab, in integers for integer blocks and an integer I. Leading
    axes stack systems. The size of the whole stack is checked by
    `check_system_size` before the rows are allocated; callers that build
    large blocks check it before building them.
    """
    *stack, npairs, per_pair, n = blocks.shape
    count, k = math.prod(stack), basis.shape[1]
    check_system_size(count * npairs * per_pair, k * k)
    ends = basis[pairs[:, 0]] - basis[pairs[:, 1]]
    # One matrix product per system: its rounding depends on the product's shape, and a scan cell's rows must
    # equal those of a single defect call bit for bit.
    projected = (blocks.reshape(count, npairs * per_pair, n) @ basis).reshape(*stack, npairs, per_pair, 1, k)
    return (ends[:, None, :, None] * projected).reshape(*stack, npairs * per_pair, k * k)


def _pair_blocks(values: np.ndarray, pairs: np.ndarray) -> np.ndarray:
    """Pair-row blocks of one complex matrix or a stack: Re H_ik conj(H_jk) for i < j, Im for i > j."""
    prods = values[..., pairs[:, 0], :]
    prods *= np.conj(values)[..., pairs[:, 1], :]
    upper = (pairs[:, 0] < pairs[:, 1])[:, None]
    return np.where(upper, prods.real, prods.imag)[..., None, :]


def tangent_system(h: HadamardMatrix, basis: np.ndarray | None = None) -> TangentSystem:
    """Assemble the pair-equation system of any unimodular square matrix over basis B; the full one by default."""
    k = h.n if basis is None else basis.shape[1]
    check_system_size(h.n * (h.n - 1), k * k)
    pairs = ordered_pairs(h.n)
    matrix = pair_rows(pairs, _pair_blocks(h.to_values(), pairs), np.eye(h.n) if basis is None else basis)
    return TangentSystem(matrix=matrix)


@np.errstate(all="ignore")  # non-finite entries find no group; verification reports them
def _row_translations(h: HadamardMatrix) -> tuple[np.ndarray, np.ndarray] | None:
    """The row translation group T of H, found on its entries, as (V, X) for `character_blocks`; None if T is trivial.

    H is `dephase`d to D, 1 on row and column 0, which moves no singular value of its pair system. A translation is a row
    t of D that maps each row of D, times t entry by entry, onto a row of D within VERIFY_TOL, exactly so on exact
    phases: distinct q-th roots, q < MAX_PHASE_ORDER, lie over 2.9e-9 apart, and equal ones, as a product of two
    rounded roots or as one, about 1e-15. T must act freely, the rows of D being x V_a for x in T and one V_a per orbit,
    and its characters y must each take N / |T| columns c, x_c = X[x, y]; V's columns go in that order. Row keys
    propose every candidate's image of every row by one matrix product, row 1 prunes, and the entries decide.
    """
    n, d, same = h.n, dephase(h).to_values(), lambda a, b: np.abs(a - b) <= VERIFY_TOL
    # Row s has the key Re sum_c D_sc e^(ic): e^i is transcendental, so distinct rows of roots of unity never share one.
    w = np.exp(1j * np.arange(n))
    keys, images = (d @ w).real, ((d * w) @ d.T).real  # the key of row s, and of row s times row r at [s, r]
    order, rows = np.argsort(keys), np.arange(n)
    hi = np.clip(np.searchsorted(keys[order], images), 1, n - 1)  # the nearer of the sorted keys hi - 1 and hi
    sigma = order[hi - (np.abs(keys[order][hi - 1] - images) < np.abs(keys[order][hi] - images))]
    maps = lambda r, s: np.all(same(d[s] * d[r], d[sigma[s, r]]), axis=-1)  # row r maps rows s as proposed
    pruned = np.flatnonzero(np.all(np.sort(sigma, axis=0) == rows[:, None], axis=0) & maps(rows, min(1, n - 1)))
    perms = rows[None]  # each translation's row permutation, by its checked generators; row 0 goes to its own row
    for r in pruned:
        if r not in perms[:, 0] and maps(r, rows).all():  # T becomes T, T r, T r^2, ... until r^k is in T
            cosets, coset = perms, sigma[perms, r]
            while coset[0, 0] not in perms[:, 0]:
                cosets, coset = np.concatenate([cosets, coset]), sigma[coset, r]
            perms = cosets
    t, reps = np.sort(perms[:, 0]), np.flatnonzero(perms.min(axis=0) == rows)  # T's rows; the least row of each orbit
    first = np.argmax((np.conj(d[t]).T @ d[t]).real > len(t) / 2, axis=0)  # each column's first of its character
    classes, counts = np.unique(first, return_counts=True)
    if len(t) < 2 or len(reps) * len(t) != n or np.any(counts != len(reps)) or not same(d[t][:, first], d[t]).all():
        return None
    return d[reps][:, np.argsort(first, kind="stable")], d[t][:, classes]


def check_block_size(n: int, order: int) -> None:
    """Raise CapExceededError when the `character_blocks` of order n over a group of that order exceed the cap."""
    side = n * n // order
    check_bytes(f"character blocks of {order} x {side} x {side} complex entries", order * side * side * 16)


def character_blocks(v: np.ndarray, x: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The pair system of H with rows x V_a, x in a row translation group T and V_a the rows of V (M = N / |T|), split
    by the characters of T, one block per class {k, -k}: X[z, y] is character y at z, and V's columns (y, b) take
    character y.

    H_{(x,a),(y,b)} = X[x, y] V_a[y, b], so the coefficients of pair ((x, a), (xz, a')) are
    c_{z,a,a'} = conj X[z, y] V_a conj V_a' for every x. Under the unitary A[(x, a)] = sum_k X[x, k] Y_k[a] / sqrt|T|,
    the pair equations hold iff each block k does: row (z, a, a') has c / sqrt(2) on the unknowns Y_k[a] and
    -X[z, k] c / sqrt(2) on Y_k[a']; the rows (1, a, a) are zero, kept so that blocks are square. The rows of (i, j)
    and (j, i) are conjugates up to sign, so the complex system's Gram matrix is twice the real one's: the merged block
    spectra are the real system's nonzero spectrum, and zeros. The real system commutes with complex conjugation,
    which sends Y_k[a, c] to conj Y_{-k}[a, c], so B_{-k}^H B_{-k} = conj(B_k^H B_k) and block -k, the j with
    sum_x X[x, k] X[x, j] = |T|, needs no SVD. Returns the (classes, N M, N M) stack of the least k of each class
    {k, -k}, trivial first, and each block's multiplicity: 1 for a real character, 2 for a pair. The stack is held to
    `check_block_size` of all |T| blocks before it is allocated.
    """
    n, m = len(x), len(v)
    check_block_size(n * m, n)
    partner = np.argmax(np.abs(x.T @ x) > n / 2, axis=0)
    keep = np.flatnonzero(np.arange(n) <= partner)
    v = v.reshape(m, n, m)
    coeffs = (np.conj(x)[:, None, None, :, None] * (v[:, None] * np.conj(v)) / math.sqrt(2)).reshape(n, m, m, -1)
    blocks = np.zeros((len(keep), n, m, m, m, n * m), dtype=complex)  # k, row (z, a, a'), column (a'', (y, b))
    for a in range(m):
        blocks[:, :, a, :, a] = coeffs[:, a]
    diagonal = np.arange(m)
    for k, block in zip(keep, blocks):  # one block's temporary at a time
        block[:, :, diagonal, diagonal] -= x[:, k, None, None, None] * coeffs
    return blocks.reshape(len(keep), n * m * m, n * m * m), np.where(partner[keep] == keep, 1, 2)


def gauge_cut_blocks(blocks: np.ndarray, order: int) -> np.ndarray:
    """A stack of `character_blocks` of a group of that order, cut by a gauge that T keeps to the (N - 1)^2 unknowns of
    the dephased defect: a (classes, N M, M (N - 1)) stack, a view of the blocks where M = 1 and a copy otherwise; the
    blocks are spent.

    The gauge, A[i, c0] = 0 for every row i (c0 V's column 0) and sum_x A[(x, a0), c] = 0 for every column c (a0 orbit
    0), meets the rephasings a 1^T + 1 b^T only at 0, so the nullity it leaves is d' = d - (2N - 1). In block
    coordinates it cuts column (a, c0) of every block and zeroes column (a0, c) of block 0, the trivial character's:
    those N - 1 zero values keep the stack one array, even where M = 1 and block 0 keeps no column. Blocks k and -k
    are cut alike, and block 0 is its own partner, so each cut pair keeps one spectrum and the blocks' multiplicities.
    """
    count, side, _ = blocks.shape
    n = math.isqrt(order * side)
    m = side // n
    restricted = blocks.reshape(count, side, m, n)[..., 1:]
    restricted[0, :, 0] = 0
    return restricted.reshape(count, side, m * (n - 1))


class RankResult(NamedTuple):
    rank: int
    gap_ratio: float
    singular_values: tuple[float, ...]


def numeric_rank(
    matrix: np.ndarray,
    rel_tol: float = DEFAULT_REL_TOL,
    count: int | None = None,
    multiplicity: np.ndarray | int = 1,
) -> RankResult:
    """Rank as the number of singular values above rel_tol times the largest; a stack of real or complex blocks is
    ranked on its merged spectra, from one batched SVD, each block's values repeated by its `multiplicity`, and with
    `count` on the count largest merged values only."""
    sigma = np.linalg.svd(np.asarray(matrix, dtype=complex if np.iscomplexobj(matrix) else float), compute_uv=False)
    sigma = np.repeat(sigma, multiplicity, axis=0)
    return _rank_from_spectrum(np.sort(sigma, axis=None)[::-1][:count], rel_tol)


def _rank_from_spectrum(sigma: np.ndarray, rel_tol: float) -> RankResult:
    ranks, gaps = _ranks_and_gaps(sigma[None], rel_tol)
    return RankResult(int(ranks[0]), float(gaps[0]), tuple(sigma.tolist()))


def _ranks_and_gaps(sigma: np.ndarray, rel_tol: float) -> tuple[np.ndarray, np.ndarray]:
    """Rank (values above rel_tol sigma_max) and gap sigma[rank - 1] / sigma[rank] (inf over 0) of each row."""
    ranks = np.sum(sigma > rel_tol * sigma[:, :1], axis=1)
    padded = np.concatenate([sigma, np.zeros((len(sigma), 1))], axis=1)
    cells = np.arange(len(sigma))
    below = padded[cells, ranks]
    gaps = np.full(len(sigma), math.inf)
    # At rank 0 the index -1 picks the zero padding, so the ratio is 0.
    np.divide(padded[cells, ranks - 1], below, out=gaps, where=below != 0)
    return ranks, gaps


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


def _require_hadamard(h: HadamardMatrix) -> None:
    report = verify_hadamard(h, tol=VERIFY_TOL)
    if not report.passed:
        raise NonHadamardError(
            f"matrix is not Hadamard within {VERIFY_TOL:.1e} "
            f"(modulus error {report.max_modulus_error:.3e}, "
            f"orthogonality error {report.max_orthogonality_error:.3e})"
        )


def _defect_pass(
    h: HadamardMatrix, rel_tol: float, gap_threshold: float, dephased: bool = False, basis: bool = False
) -> tuple[DefectReport, list[np.ndarray] | None]:
    """Verify once, rank one assembly and certify it; optionally also check the dephased defect, and give a basis.

    Without `basis`, a matrix of order at least BLOCK_MIN_ORDER whose row
    translation group, by `_row_translations`, has BLOCK_MIN_GROUP elements or
    more is ranked on its `character_blocks`, on the (N-1)^2 largest merged
    values, as many as the Helmert-ranked system has. Any other is assembled
    over W = `helmert_matrix(N)` and ranked on the columns `_rank_in_place` keeps.
    With `basis` the one SVD also gives the right singular vectors past the
    rank; these and the unit vectors of the 2N - 1 rephasings map to W X W^T,
    an orthonormal basis of the tangent space, each checked to solve the full
    system over the entries A_ab within 10 rel_tol sigma_max.
    The dephased check takes one more certified SVD, checked against
    d' = d - (2N - 1): on blocks, of `gauge_cut_blocks`; else of the system
    over the entries A_ab, cut by `_rank_in_place`.
    Sizes are refused before verification: from N before T is looked for (the
    least stack of any T, |T| = N, if blocks may be taken, else the full
    system), then the stack T selects, or the full system if it selects none.
    The dephased check adds no size check: it cuts its restricted system in
    place, and its blocks too when M = N / |T| is 1; for M > 1 the cut is a
    copy of (N - 1) / N of the blocks, made next to them.
    """
    n, maybe_blocked = h.n, h.n >= BLOCK_MIN_ORDER and not basis
    check_block_size(n, n) if maybe_blocked else check_system_size(n * (n - 1), n * n)
    found = _row_translations(h) if maybe_blocked else None
    blocked = found is not None and len(found[1]) >= BLOCK_MIN_GROUP
    check_block_size(n, len(found[1])) if blocked else check_system_size(n * (n - 1), n * n)
    _require_hadamard(h)
    label = h.provenance or "matrix"
    w = helmert_matrix(n)
    matrix, multiplicity = character_blocks(*found) if blocked else (_rank_in_place(tangent_system(h, w).matrix), 1)
    elements = None
    if basis:
        _, sigma, vh = np.linalg.svd(matrix)
        result = _certify(_rank_from_spectrum(sigma, rel_tol), gap_threshold, f"defect of {label}")
        elements = [w[:, 1:] @ x.reshape(n - 1, n - 1) @ w[:, 1:].T for x in vh[result.rank:]]
        elements += [np.outer(w[:, a], w[:, b]) for a, b in product(range(n), repeat=2) if a * b == 0]
        full = tangent_system(h).matrix
        bound = 10 * rel_tol * sigma.max(initial=0.0)
        for b in elements:
            residual = float(np.abs(full @ b.ravel()).max(initial=0.0))
            if residual > bound:
                raise ResidualError(f"basis residual {residual:.3e} above bound {bound:.3e}")
    else:
        result = numeric_rank(matrix, rel_tol, (n - 1) ** 2, multiplicity)
        result = _certify(result, gap_threshold, f"defect of {label}")
    # A full system is freed before another is built.
    cut = gauge_cut_blocks(matrix, len(found[1])) if blocked and dephased else None
    del matrix
    d = n * n - result.rank
    report = DefectReport(
        n=n,
        undephased_defect=d,
        dephased_defect=d - (2 * n - 1),
        rank=result.rank,
        gap_ratio=result.gap_ratio,
        singular_values=result.singular_values,
        rel_tol=rel_tol,
        gap_threshold=gap_threshold,
        certified=True,
        provenance=h.provenance,
    )
    if dephased:
        restricted = _rank_in_place(tangent_system(h).matrix) if cut is None else cut
        result = numeric_rank(restricted, rel_tol, (n - 1) ** 2, multiplicity)
        result = _certify(result, gap_threshold, f"dephased defect of {label}")
        direct = (n - 1) * (n - 1) - result.rank
        if direct != report.dephased_defect:
            raise DefectMismatchError(
                f"dephased defect paths disagree: restricted system gives {direct}, "
                f"undephased relation gives {report.dephased_defect}"
            )
    return report, elements


def undephased_defect(
    h: HadamardMatrix,
    rel_tol: float = DEFAULT_REL_TOL,
    gap_threshold: float = DEFAULT_GAP_THRESHOLD,
) -> DefectReport:
    """Dimension of the enveloping tangent space: N^2 minus the certified rank."""
    return _defect_pass(h, rel_tol, gap_threshold)[0]


def dephased_defect(
    h: HadamardMatrix,
    rel_tol: float = DEFAULT_REL_TOL,
    gap_threshold: float = DEFAULT_GAP_THRESHOLD,
) -> int:
    """Defect with the rephasings pinned by a gauge, from the certified rank of the system the gauge leaves.

    It checks the undephased defect d: the two SVDs must give d - (2N - 1),
    else DefectMismatchError. Without character blocks, row and column 0 are
    pinned, and the check is independent of d's. On blocks it ranks the
    `gauge_cut_blocks` of the same `_row_translations` and `character_blocks`
    as d, so it checks the rephasing count and the rank over a second set of
    columns, not the block assembly; the tests that hold the blocks and their
    cut to the full systems check that. Blocks k and -k are cut alike, so
    both SVDs rank one block per pair, and a real character's once.
    """
    return _defect_pass(h, rel_tol, gap_threshold, dephased=True)[0].dephased_defect


def tangent_basis(
    h: HadamardMatrix,
    rel_tol: float = DEFAULT_REL_TOL,
    gap_threshold: float = DEFAULT_GAP_THRESHOLD,
) -> list[np.ndarray]:
    """Orthonormal basis of the tangent space, as N x N real matrices."""
    return _defect_pass(h, rel_tol, gap_threshold, basis=True)[1]


@dataclass(frozen=True)
class PCheckReport:
    dimension_numeric: int
    dimension_combinatorial: int
    closed_form: int
    max_constraint_violation: float
    max_membership_residual: float
    residual_tol: float


def _p_space_basis(group: FiniteAbelianGroup) -> np.ndarray:
    """Parameter-space class elements: 1 on the class and, unless it is forced real, i on column j and -i on -j > j."""
    n = group.order
    key, neg = _p_space_keys(group)
    classes, label = np.unique(key, return_inverse=True)
    members = label == np.arange(len(classes))[:, None]
    cols = np.tile(np.arange(n), n)
    forced = neg[classes % n] == classes % n
    imaginary = members[~forced] * np.where(cols > neg[cols], -1j, 1j)
    return np.concatenate([members, imaginary]).reshape(-1, n, n)


def fourier_P_check(group: FiniteAbelianGroup) -> PCheckReport:
    """Cross-check the tangent space against the group-indexed parameter space.

    Numeric direction: every tangent basis element A yields P = A F obeying the
    column translation and conjugation constraints. Constructive direction:
    every combinatorial class yields A = P F* / |G| inside the tangent space.
    Dimensions from both sides must match the closed form.
    """
    f = fourier_matrix(group)
    fv = f.to_values()
    n = group.order
    add_index, neg_index = group.index_tables()

    basis = tangent_basis(f)
    violation = 0.0
    for a in basis:  # P[i, j] = P[i + j, j] = conj(P[i, -j])
        p = a @ fv
        shifted, conjugated = p[add_index, np.arange(n)], np.conj(p[:, neg_index])
        violation = max(violation, float(np.abs(p - shifted).max()), float(np.abs(p - conjugated).max()))

    combinatorial = _p_space_basis(group)
    a = combinatorial @ np.conj(fv.T) / n
    residual = tangent_system(f).matrix @ a.real.reshape(len(a), -1).T
    membership = max(float(np.abs(a.imag).max(initial=0.0)), float(np.abs(residual).max(initial=0.0)))

    report = PCheckReport(
        dimension_numeric=len(basis),
        dimension_combinatorial=len(combinatorial),
        closed_form=fourier_defect(group),
        max_constraint_violation=violation,
        max_membership_residual=membership,
        residual_tol=P_CHECK_RESIDUAL_TOL,
    )
    if violation > P_CHECK_RESIDUAL_TOL or membership > P_CHECK_RESIDUAL_TOL:
        raise ResidualError(
            f"parameter-space correspondence residuals too large: "
            f"constraint {violation:.3e}, membership {membership:.3e}, tol {P_CHECK_RESIDUAL_TOL:.1e}"
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
        if self.numerators is not None and len(set(turns := self.turns())) < len(turns):
            raise ValueError(f"grid numerators {self.numerators} name one turn mod 1 twice")

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
    error_type: str | None = None


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
    A scan of more cells than `errors.MAX_ELEMENTS`, or whose cells' pair
    systems are above the `check_bytes` cap, is refused before any cell is
    built; a cell whose root order reaches MAX_PHASE_ORDER raises the
    CapExceededError of a single defect call. Each cell ranks its full pair
    system, so its gap ratio is a single call's bit for bit only where that
    call ranks the full system too; from BLOCK_MIN_ORDER with BLOCK_MIN_GROUP
    row translations or more it ranks `character_blocks`, whose gap differs.
    """
    return list(_scan_cells(h, k, grid, rel_tol, gap_threshold))


def _scan_cells(h, k, grid, rel_tol, gap_threshold) -> Iterator[ScanCell]:
    """The cells of `deformation_scan`: inputs refused or verified at the call, cells built chunk by chunk as drawn."""
    m, n = k.n, h.n
    size, nfree = n * m, max(m - 1, 0) * max(n - 1, 0)
    points = grid.denominator if grid.numerators is None else len(grid.numerators)  # counted before a turn is made
    add_flat = nfree > 0 and grid.numerators is not None and all(num % grid.denominator for num in grid.numerators)
    check_elements("deformation scan grid", points**nfree + add_flat)
    check_system_size(size * (size - 1), size * size)  # one cell's system, before any cell is built
    exact = h.is_exact and k.is_exact
    # H (x)_L K is Hadamard for every unimodular L iff H and K are, so exact cells are verified by their factors.
    # Dephased, each factor's order divides every cell's own order, so its check sweeps no more Galois conjugates.
    sound = exact and all(verify_hadamard(dephase(f)).passed for f in (h, k))
    rows, cols = size * (size - 1), (size - 1) ** 2
    per_chunk = max(1, SCAN_CHUNK_BYTES // max(1, rows * cols * 8), -(-SCAN_CHUNK_VALUES // max(1, min(rows, cols))))

    def cells():
        turns = grid.turns() if nfree else []  # a scan with no free entry has only the flat cell
        zero = len(turns)
        turns.append(Fraction(0))
        labels = [str(t) for t in turns]
        turn_objects = np.array(turns, dtype=object)
        assignments = chain([(zero,) * nfree] if add_flat else [], product(range(zero), repeat=nfree))
        w = helmert_matrix(size)
        if exact:  # a cell's root order is the lcm of the factor order hk and of its turns' denominators
            (hn, kn), hk = _common_order(h, k)
            base = hn[:, None, :, None] + kn[:, None, :]
        else:
            hv, kv, tv, hk = h.to_values(), k.to_values(), np.array([turn_to_complex(t) for t in turns]), 1
        # Clipped to the order cap, so the lcms stay in int64; a cell that reaches the cap is refused.
        tq, tn = np.array([(min(t.denominator, MAX_PHASE_ORDER), t.numerator % MAX_PHASE_ORDER) for t in turns]).T
        pairs = ordered_pairs(size)
        label = f"defect of deformed:({h.provenance},{k.provenance})"

        def single(l_row):  # one cell rebuilt and put through a single defect call, for its errors
            params = DeformationParameters.from_turns(turn_objects[l_row].tolist())
            return undephased_defect(deformed_tensor(h, params, k), rel_tol, gap_threshold)

        def prepare(chunk):  # build and verify a chunk of cells, then submit its stacked SVD
            l_index = np.full((len(chunk), m, n), zero)
            l_index[:, 1:, 1:] = np.reshape(chunk, l_index[:, 1:, 1:].shape)
            cell_q = np.full(len(chunk), hk)
            for column in tq[l_index].reshape(len(chunk), -1).T:
                cell_q = np.minimum(np.lcm(cell_q, column), MAX_PHASE_ORDER)
            if cell_q.max() == MAX_PHASE_ORDER:
                single(l_index[np.argmax(cell_q)])  # raises the CapExceededError of a single call
            if exact:  # at the cell's unreduced order: `_root` depends on m / q alone, so values equal a single call's
                lq = cell_q[:, None, None]
                nums = base * (lq // hk)[..., None, None] + (tn[l_index] * (lq // tq[l_index]))[:, None, :, :, None]
                nums, values = nums.reshape(-1, size, size) % lq, np.empty((len(chunk), size, size), dtype=complex)
                for order in dict.fromkeys(cell_q.tolist()):
                    group = cell_q == order
                    values[group] = _roots(nums[group], order)
                failed = np.full(len(chunk), not sound)
            else:  # checked within the verify tolerance of a single defect call
                values = np.einsum("ij,caj,ab->ciajb", hv, tv[l_index], kv).reshape(-1, size, size)
                modulus, ortho = gram_errors(values)
                failed = ~((modulus <= VERIFY_TOL) & (ortho <= VERIFY_TOL))
            systems = _rank_in_place(pair_rows(pairs, _pair_blocks(values[~failed], pairs), w))
            return chunk, l_index, failed, pool.submit(np.linalg.svd, systems, compute_uv=False)

        def emit(chunk, l_index, failed, svd):  # the chunk's cells, in order, from its SVD and single calls
            sigma = svd.result()
            solved = zip(*_ranks_and_gaps(sigma, rel_tol), sigma)
            for c, (assignment, rows) in enumerate(zip(chunk, turn_objects[l_index].tolist())):
                cell_id = ";".join(map(labels.__getitem__, assignment))
                full = tuple(map(tuple, rows))
                try:
                    if failed[c]:
                        report = single(l_index[c])
                        rank, gap = report.rank, report.gap_ratio
                    else:
                        rank, gap, spectrum = next(solved)
                        if gap < gap_threshold:
                            _certify(_rank_from_spectrum(spectrum, rel_tol), gap_threshold, label)
                except (AmbiguousRankError, NonHadamardError) as exc:
                    yield ScanCell(cell_id, full, None, None, None, False, str(exc), type(exc).__name__)
                    continue
                d = size * size - int(rank)
                yield ScanCell(cell_id, full, d, d - (2 * size - 1), float(gap), True, None)

        from concurrent.futures import ThreadPoolExecutor  # only a scan needs it: its import takes 10 ms and 0.7 MB
        chunks = iter(lambda: list(islice(assignments, per_chunk)), [])
        # It pays: inline SVDs lost 6 of 6 paired 8 s bench scans, 4,049 vs 5,537 cells/s (2 vCPUs, OpenBLAS 1 thread).
        with ThreadPoolExecutor(max_workers=1) as pool:  # shut down, so joined, on every exit
            # pairwise prepares chunk k + 1 before chunk k is emitted: at most two chunks are in flight.
            for ready, _ in pairwise(chain(map(prepare, chunks), [None])):
                yield from emit(*ready)

    return cells()
