"""Test oracles for the full pair system: the scatter that assembled it before the basis-aware `pair_rows`, the
N(N-1) ordered pairs of an exact matrix with their root powers, listed from the matrix alone, and the exact row
orthogonality check by integer cyclotomic reduction that `failing_pairs` made before it tested Galois conjugates."""

import math

import numpy as np

from hdefect.cyclotomic import power_reduction_table
from hdefect.tangent import ordered_pairs


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
