"""Test oracles for the full pair system: the scatter that assembled it before the basis-aware `pair_rows`, the
N(N-1) ordered pairs of an exact matrix with their root powers, listed from the matrix alone, the exact row
orthogonality check by integer cyclotomic reduction that `failing_pairs` made before it tested Galois conjugates, the
order-2 row translations of a matrix found entry by entry, and a scan cell's two halves ranked as one."""

import math

import numpy as np

from hdefect import tangent
from hdefect.cyclotomic import power_reduction_table
from hdefect.matrices import deformed_tensor, dephase
from hdefect.tangent import ordered_pairs, translation_halves


def scatter_pair_rows(pairs: np.ndarray, blocks: np.ndarray, n: int) -> np.ndarray:
    """Rows of the pair equations over the N^2 unknowns A_ab, in the dtype of blocks.

    blocks[..., p, :, :] (rows per pair x N) holds the coefficients of pair
    (i, j) = pairs[p] on the unknowns A_ib; those on A_jb are their negatives.
    Leading axes stack systems.
    """
    *stack, npairs, per_pair, _ = blocks.shape
    count = math.prod(stack)
    flat = blocks.reshape(count, npairs, per_pair, n).swapaxes(0, 1)
    rows = np.zeros((count, npairs, per_pair, n, n), dtype=blocks.dtype)
    # The two index arrays are split by a slice, so their pair axis comes first.
    index = np.arange(npairs)
    rows[:, index, :, pairs[:, 0], :] = flat
    rows[:, index, :, pairs[:, 1], :] -= flat
    return rows.reshape(*stack, npairs * per_pair, n * n)


def full_pair_system(h) -> tuple[np.ndarray, np.ndarray]:
    """All N(N-1) ordered pairs (i, j), i != j, of an exact matrix, and the power of zeta_q in H_ib conj(H_jb) on each
    column b, q its phase order: the exact system in full, of which `build_exact_system` keeps the pairs i < j."""
    pairs = ordered_pairs(h.n)
    return pairs, (h.numerators[pairs[:, 0]] - h.numerators[pairs[:, 1]]) % h.phase_order()


def table_failing_pairs(nums: np.ndarray, q: int) -> np.ndarray:
    """The rows i < j, as a K x 2 array, that are not orthogonal in an N x M array of numerators over q, decided in
    integers: rows i < j are orthogonal iff sum_k x^(m_ik - m_jk), a sum of M rows of `power_reduction_table(q)`, is 0
    mod Phi_q."""
    table = power_reduction_table(q)
    pairs = np.stack(np.triu_indices(len(nums), 1), axis=1)
    diff = (nums[pairs[:, 0]] - nums[pairs[:, 1]]) % q
    return pairs[table[diff].sum(axis=1).any(axis=1)]


def involutions(h) -> list[np.ndarray]:
    """The row permutations of the order-2 row translations of H, by row: each row t > 0 of D = dephase(H) with
    D_t^2 = 1 such that every row of D times D_t is one row of D, within 1e-9, entry by entry."""
    d, found = dephase(h).to_values(), []
    for t in range(1, h.n):
        images = [np.flatnonzero(np.abs(d - d[s] * d[t]).max(axis=1) <= 1e-9) for s in range(h.n)]
        if np.abs(d[t] ** 2 - 1).max() <= 1e-9 and all(len(image) == 1 for image in images):
            found.append(np.concatenate(images))
    return found


def split_spectrum(h, params, k) -> np.ndarray:
    """The merged singular values, in descending order, of the two halves of one cell of a scan: H (x)_L K of the
    dephased H, built as a single matrix and split by the scan's `_left_split`."""
    left, split = tangent._left_split(h, k.n)
    return tangent._merged_spectra(translation_halves(deformed_tensor(left, params, k).to_values()[None], split))[0]
