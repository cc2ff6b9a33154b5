"""Complex Hadamard matrices: representations, constructors, validity checks.

A matrix carries either exact phases, int64 numerators m_ij in [0, q) over
the smallest root order q (entry e^(2 pi i m_ij / q); `turns` derives them as
Fractions of a turn), or a complex128 array. Exact to floating conversion is
explicit and one-way; all named constructors that can stay exact do, and
operations on exact matrices are integer array arithmetic. Verification of an
exact matrix decides on floating Galois conjugates, with a proved margin.
"""

from __future__ import annotations

import cmath
import json
import math
import sys
from dataclasses import dataclass
from fractions import Fraction
from itertools import combinations_with_replacement

import numpy as np

from .cyclotomic import euler_phi
from .errors import CapExceededError, NonExactError, NonHadamardError, check_bytes, check_elements
from .groups import FiniteAbelianGroup

_QUARTER_TURNS = (1 + 0j, 1j, -1 + 0j, -1j)  # e^(2 pi i k / 4) for k = 0..3, as exact literals
# Root orders stay below this, so sums of a few numerators fit in int64.
MAX_PHASE_ORDER = 2**31
# Bytes of the working arrays that the exact orthogonality check holds at once.
CHECK_BLOCK_BYTES = 2**19
# Modulus and orthogonality tolerance of the floating Hadamard check, single calls and scan cells alike.
VERIFY_TOL = 1e-9
# Largest | |z| - 1 | that floating deformation parameters, haagerup parameters and circulant eigenvalues may have.
UNIMODULAR_TOL = 1e-10
# `as_exact` rounds each phase to a turn with at most this denominator, which must reproduce the entry to AS_EXACT_TOL.
AS_EXACT_MAX_DENOMINATOR = 64
AS_EXACT_TOL = 1e-12


def _root(m: int, q: int) -> complex:
    """e^(2 pi i m / q) for an int m in [0, q); quarter turns map to exact literals."""
    # m / q is correctly rounded, as float(Fraction(m, q)) is, also for ints beyond int64.
    return cmath.exp(2j * cmath.pi * (m / q)) if 4 * m % q else _QUARTER_TURNS[4 * m // q]


def turn_to_complex(turn: Fraction) -> complex:
    """e^(2 pi i turn) by `_root`; quarter turns map to exact literals."""
    turn = turn if isinstance(turn, Fraction) else Fraction(turn)
    return _root(turn.numerator % turn.denominator, turn.denominator)  # turn % 1, still in lowest terms


def _roots(nums: np.ndarray, q: int) -> np.ndarray:
    """`_root` of each numerator m in [0, q), once per distinct m; object arrays of ints beyond int64 too."""
    unique, inverse = np.unique(nums, return_inverse=True)
    roots = [_root(m, q) for m in unique.tolist()]
    return np.array(roots, dtype=complex)[inverse].reshape(nums.shape)


def _check_order(q: int) -> None:
    if q >= MAX_PHASE_ORDER:
        raise CapExceededError(f"phase order {q} is not below the cap {MAX_PHASE_ORDER}")


def _phases_from_turns(rows) -> tuple[np.ndarray, int]:
    """Numerators over the lcm q of the denominators, for rows of turns (Fractions or ints)."""
    turns = [[Fraction(t) for t in row] for row in rows]
    if len({len(row) for row in turns}) > 1:
        raise ValueError("ragged phase rows")
    q = math.lcm(1, *(t.denominator for row in turns for t in row))
    _check_order(q)
    nums = [[t.numerator * (q // t.denominator) % q for t in row] for row in turns]
    return np.array(nums, dtype=np.int64).reshape(len(turns), len(turns[0]) if turns else 0), q


class UnimodularMatrix:
    """Rectangular matrix of unimodular entries, exact-phase or floating.

    Built from exactly one of `phases` (integer numerators and their root order
    q) or `values` (a complex array); `from_turns(rows, **kwargs)` builds any
    subclass from rows of turns. `numerators` is None for floating matrices.
    """

    def __init__(self, *, phases=None, values=None):
        if (phases is None) == (values is None):
            raise ValueError("exactly one of phases or values must be given")
        self._values = None
        self.numerators = None
        if phases is not None:
            nums, q = phases
            _check_order(q)
            nums = np.asarray(nums, dtype=np.int64) % q
            if nums.ndim != 2:
                raise ValueError(f"expected 2-d numerators, got shape {nums.shape}")
            common = math.gcd(q, int(np.gcd.reduce(nums, axis=None)))
            nums //= common
            nums.flags.writeable = False
            self.numerators = nums
            self._order = q // common
            self.rows, self.cols = nums.shape
        else:
            arr = np.asarray(values, dtype=complex)
            if arr.ndim != 2:
                raise ValueError(f"expected a 2-d array, got shape {arr.shape}")
            self.rows, self.cols = arr.shape
            self._values = arr

    @classmethod
    def from_turns(cls, rows, **kwargs):
        return cls(phases=_phases_from_turns(rows), **kwargs)

    @classmethod
    def from_values(cls, values, **kwargs):
        return cls(values=values, **kwargs)

    @property
    def is_exact(self) -> bool:
        return self.numerators is not None

    @property
    def turns(self) -> tuple[tuple[Fraction, ...], ...] | None:
        """Exact phases as Fractions of a turn in [0, 1); None for floating matrices."""
        if not self.is_exact:
            return None
        q = self._order
        return tuple(tuple(Fraction(m, q) for m in row) for row in self.numerators.tolist())

    def phase_order(self) -> int:
        """Smallest q with every entry a q-th root of unity; exact matrices only."""
        if not self.is_exact:
            raise NonExactError("phase order requires exact phases")
        return self._order

    def to_values(self) -> np.ndarray:
        """Complex entries; computed once for exact matrices."""
        if self._values is None:
            self._values = _roots(self.numerators, self._order)
        return self._values

    def max_modulus_error(self) -> float:
        if self.is_exact:
            return 0.0
        return float(np.max(np.abs(np.abs(self.to_values()) - 1.0))) if self.rows else 0.0


def _common_order(*matrices: UnimodularMatrix) -> tuple[list[np.ndarray], int]:
    """Numerators of exact matrices rescaled to one common root order, and that order."""
    q = math.lcm(*(m.phase_order() for m in matrices))
    _check_order(q)
    return [m.numerators * (q // m.phase_order()) for m in matrices], q


class DeformationParameters(UnimodularMatrix):
    """The M x N parameter matrix of a deformed tensor product."""

    def __init__(self, *, phases=None, values=None):
        super().__init__(phases=phases, values=values)
        if not self.is_exact and self.max_modulus_error() > UNIMODULAR_TOL:
            raise NonHadamardError(
                f"deformation parameters must be unimodular (error {self.max_modulus_error():.3e})"
            )


class HadamardMatrix(UnimodularMatrix):
    """Square candidate matrix with a provenance label; validity is a separate check."""

    def __init__(self, *, phases=None, values=None, provenance: str = ""):
        super().__init__(phases=phases, values=values)
        if self.rows != self.cols:
            raise ValueError(f"matrix must be square, got {self.rows} x {self.cols}")
        self.n = self.rows
        self.provenance = provenance


@dataclass(frozen=True)
class ValidationReport:
    passed: bool
    max_modulus_error: float
    max_orthogonality_error: float
    tolerance: float
    exact: bool


def fourier_matrix(group: FiniteAbelianGroup) -> HadamardMatrix:
    """Character table of the group: entry (g, h) has phase sum_t g_t h_t / N_t."""
    orders = group.cycle_orders
    check_bytes(f"Fourier matrix of order {group.order}", group.order**2 * 8)
    q = group.exponent
    elems = np.array(group.element_list(), dtype=np.int64).reshape(group.order, len(orders))
    weights = np.array([q // n for n in orders], dtype=np.int64)
    label = "x".join(str(n) for n in orders) if orders else "1"
    return HadamardMatrix(phases=((elems * weights) @ elems.T, q), provenance=f"fourier:{label}")


def tensor_product(h: HadamardMatrix, k: HadamardMatrix) -> HadamardMatrix:
    """(H (x) K)_{ia,jb} = H_ij K_ab, left factor outermost."""
    prov, size = f"tensor:({h.provenance},{k.provenance})", h.n * k.n
    check_bytes(f"tensor product of order {size}", size**2 * 8)
    if h.is_exact and k.is_exact:
        (hn, kn), q = _common_order(h, k)
        nums = hn[:, None, :, None] + kn[None, :, None, :]
        return HadamardMatrix(phases=(nums.reshape(size, size), q), provenance=prov)
    return HadamardMatrix.from_values(np.kron(h.to_values(), k.to_values()), provenance=prov)


def deformed_tensor(
    h: HadamardMatrix, params: DeformationParameters, k: HadamardMatrix
) -> HadamardMatrix:
    """Entry (ia, jb) = H_ij L_aj K_ab; flat parameters recover the plain tensor."""
    if params.rows != k.n or params.cols != h.n:
        raise ValueError(
            f"parameter shape {params.rows} x {params.cols} does not match K order {k.n}, H order {h.n}"
        )
    prov, size = f"deformed:({h.provenance},{k.provenance})", h.n * k.n
    check_bytes(f"deformed tensor of order {size}", size**2 * 8)
    if h.is_exact and k.is_exact and params.is_exact:
        (hn, ln, kn), q = _common_order(h, params, k)
        nums = hn[:, None, :, None] + ln[None, :, :, None] + kn[None, :, None, :]
        return HadamardMatrix(phases=(nums.reshape(size, size), q), provenance=prov)
    hv, lv, kv = h.to_values(), params.to_values(), k.to_values()
    out = np.einsum("ij,aj,ab->iajb", hv, lv, kv).reshape(size, size)
    return HadamardMatrix.from_values(out, provenance=prov)


def recombination_parameters(n: int, m: int) -> DeformationParameters:
    """L_aj = w^(aj) with w the primitive (nm)-th root; rethreads F_n, F_m into F_nm."""
    if n < 1 or m < 1:
        raise ValueError("orders must be positive")
    return DeformationParameters(phases=(np.outer(range(m), range(n)), n * m))


def haagerup_matrix(q) -> HadamardMatrix:
    """The 6 x 6 one-parameter family; q is a Fraction of a turn or a unimodular complex."""
    half = Fraction(1, 2)
    quarter = Fraction(1, 4)
    # (base turn, power of q): entries are e^(2 pi i base) * q^power
    template = [
        [(0, 0)] * 6,
        [(0, 0), (half, 0), (quarter, 0), (quarter, 0), (-quarter, 0), (-quarter, 0)],
        [(0, 0), (quarter, 0), (half, 0), (-quarter, 0), (0, 1), (half, 1)],
        [(0, 0), (quarter, 0), (-quarter, 0), (half, 0), (half, 1), (0, 1)],
        [(0, 0), (-quarter, 0), (0, -1), (half, -1), (quarter, 0), (half, 0)],
        [(0, 0), (-quarter, 0), (half, -1), (0, -1), (half, 0), (quarter, 0)],
    ]
    if isinstance(q, Fraction) or isinstance(q, int):
        tq = Fraction(q)
        rows = [[Fraction(base) + power * tq for base, power in row] for row in template]
        return HadamardMatrix.from_turns(rows, provenance=f"haagerup:{tq % 1}")
    qc = complex(q)
    if abs(abs(qc) - 1.0) > UNIMODULAR_TOL:
        raise NonHadamardError(f"parameter must be unimodular, got |q| = {abs(qc)}")
    values = [
        [turn_to_complex(Fraction(base)) * qc**power for base, power in row] for row in template
    ]
    return HadamardMatrix.from_values(np.array(values), provenance="haagerup:numeric")


def tao_matrix() -> HadamardMatrix:
    """The 6 x 6 matrix over cube roots of unity."""
    t = [
        [0, 0, 0, 0, 0, 0],
        [0, 0, 1, 1, 2, 2],
        [0, 1, 0, 2, 2, 1],
        [0, 1, 2, 0, 1, 2],
        [0, 2, 2, 1, 0, 1],
        [0, 2, 1, 2, 1, 0],
    ]
    return HadamardMatrix(phases=(t, 3), provenance="tao")


def circulant_from_eigenvalues(eigenvalues) -> HadamardMatrix:
    """Circulant matrix H_ij = C_{j-i} with C the Fourier transform of the eigenvalue vector.

    C_k = (1/sqrt(N)) sum_l w^(kl) Q_l. Validity is not guaranteed; run
    verify_hadamard on the result.
    """
    q = [turn_to_complex(v) if isinstance(v, (Fraction, int)) else complex(v) for v in eigenvalues]
    n = len(q)
    if n < 1:
        raise ValueError("eigenvalue vector must be nonempty")
    check_bytes(f"circulant matrix of order {n}", n * n * 8)
    qv = np.asarray(q)
    if np.max(np.abs(np.abs(qv) - 1.0)) > UNIMODULAR_TOL:
        raise NonHadamardError("eigenvalues must be unimodular")
    c = np.fft.ifft(qv, norm="ortho")  # C_k = N^(-1/2) sum_l w^(kl) Q_l, w = e^(2 pi i / N)
    values = c[(np.arange(n) - np.arange(n)[:, None]) % n]
    label = ",".join(str(v) for v in eigenvalues)
    return HadamardMatrix.from_values(values, provenance=f"circulant:{label}")


def as_exact(h: HadamardMatrix) -> HadamardMatrix:
    """Recover rational turn phases from a floating matrix, with verification.

    Each entry's angle is rounded to the nearest fraction with denominator at
    most AS_EXACT_MAX_DENOMINATOR; the rounded phase must reproduce the entry
    to within AS_EXACT_TOL or the recovery is refused. Exact inputs pass
    through unchanged.
    """
    if h.is_exact:
        return h
    turns = []
    for z in h.to_values().ravel():
        turn = Fraction(float(np.angle(z)) / (2 * np.pi)).limit_denominator(AS_EXACT_MAX_DENOMINATOR) % 1
        if abs(z - turn_to_complex(turn)) > AS_EXACT_TOL:
            raise NonExactError(
                f"entry {z} is not within {AS_EXACT_TOL} of a root of unity with "
                f"denominator <= {AS_EXACT_MAX_DENOMINATOR}"
            )
        turns.append(turn)
    return HadamardMatrix.from_turns([turns[i * h.n : (i + 1) * h.n] for i in range(h.n)], provenance=h.provenance)


def dephase(h: HadamardMatrix) -> HadamardMatrix:
    """Scale columns then rows so the first row and column are all ones. Idempotent."""
    prov = h.provenance
    if h.is_exact:
        t = h.numerators
        return HadamardMatrix(phases=(t - t[:1] - t[:, :1] + t[:1, :1], h.phase_order()), provenance=prov)
    v = h.to_values()
    col = np.conj(v[0, :])
    step = v * col[None, :]
    row = np.conj(step[:, 0])
    return HadamardMatrix.from_values(step * row[:, None], provenance=prov)


def _check_permutation(perm, n: int) -> tuple[int, ...]:
    perm = tuple(perm)
    if sorted(perm) != list(range(n)):
        raise ValueError(f"not a permutation of 0..{n - 1}: {perm}")
    return perm


def apply_equivalence(
    h: HadamardMatrix, row_perm, col_perm, row_phases, col_phases
) -> HadamardMatrix:
    """H'_{ij} = r_i c_j H[rp(i), cp(j)]; phases are turn Fractions or unimodular complexes."""
    rp = _check_permutation(row_perm, h.n)
    cp = _check_permutation(col_perm, h.n)
    row_phases = list(row_phases)
    col_phases = list(col_phases)
    if len(row_phases) != h.n or len(col_phases) != h.n:
        raise ValueError("phase vectors must have length n")
    all_exact = all(isinstance(p, (Fraction, int)) for p in row_phases + col_phases)
    prov = f"equivalent:({h.provenance})"
    if h.is_exact and all_exact:
        (hn, (rn, cn)), q = _common_order(h, UnimodularMatrix.from_turns([row_phases, col_phases]))
        return HadamardMatrix(phases=(rn[:, None] + cn[None, :] + hn[np.ix_(rp, cp)], q), provenance=prov)
    v = h.to_values()
    rvals = np.array([turn_to_complex(p) if isinstance(p, (Fraction, int)) else complex(p) for p in row_phases])
    cvals = np.array([turn_to_complex(p) if isinstance(p, (Fraction, int)) else complex(p) for p in col_phases])
    out = rvals[:, None] * cvals[None, :] * v[np.ix_(rp, cp)]
    return HadamardMatrix.from_values(out, provenance=prov)


def failing_pairs(nums: np.ndarray, q: int) -> np.ndarray:
    """The rows i < j, as a K x 2 array, that are not orthogonal in an N x M array of numerators over q.

    Rows i < j are orthogonal iff s = sum_k x^(m_ik - m_jk) is 0 in Z[x]/Phi_q. If s != 0, the product |N(s)| of the
    |sigma_u(s)| over the units u mod q is a nonzero integer, so some |sigma_u(s)| >= 1; as sigma_-u = conj sigma_u, the
    units u <= q/2 suffice (u = 1 if q <= 2). sigma_u(s) is the product of rows i and j of x^(u m), off in floats by
    about N^2 2^-53 < 1e-8 for every N the byte caps admit (N <= 8192), so a pair fails iff some conjugate's product
    has modulus >= 1/2. The conjugate count meets the element cap first. Beside the N x N flags, a stack of units, its
    roots over all k < q if they fit, and its Gram products by blocks of rows and columns stay in CHECK_BLOCK_BYTES."""
    check_elements(f"Galois conjugates of phase order {q}", max(1, euler_phi(q) // 2))
    table = 192 * q <= CHECK_BLOCK_BYTES  # one unit's roots over all k < q take at most a quarter of a block
    side = math.isqrt((CHECK_BLOCK_BYTES - 48 * q * table) // 96)  # about 48 bytes per root, value and Gram entry
    rows, cols = (max(1, min(k, side)) for k in nums.shape)
    span = max(1, CHECK_BLOCK_BYTES // (48 * (q * table + rows * rows + rows * cols) + 32))
    columns = np.split(nums, range(cols, nums.shape[1], cols), axis=1)  # one N x 0 block if M = 0
    flags = np.zeros((len(nums), len(nums)), dtype=bool)
    for s in range(0, q // 2 + 1, span):
        units = np.arange(s, min(s + span, q // 2 + 1))
        units = units[np.gcd(units, q) == 1]  # [0] when q = 1, where every power is 1
        roots = np.exp(2j * np.pi / q * (units[:, None] * np.arange(q) % q)) if table else None

        def conjugate(block):  # x^(u m) for the stack's units u over a block of numerators m
            if table:
                return roots[:, block]
            keys, index = np.unique(block, return_inverse=True)
            return np.exp(2j * np.pi / q * (units[:, None] * keys % q))[:, index.reshape(block.shape)]

        for a, b in combinations_with_replacement(range(0, len(nums), rows), 2):
            gram = sum(conjugate(c[a : a + rows]) @ np.conj(conjugate(c[b : b + rows])).swapaxes(1, 2) for c in columns)
            flags[a : a + rows, b : b + rows] |= (np.abs(gram) >= 0.5).any(axis=0)
    return np.argwhere(np.triu(flags, 1))


def _verify_exact(h: HadamardMatrix) -> ValidationReport:
    q, nums = h.phase_order(), h.numerators
    pairs = failing_pairs(nums, q)
    # The largest |sum_k e^(2 pi i (m_ik - m_jk) / q)| / N of a failing pair, by blocks of pairs in CHECK_BLOCK_BYTES at
    # about 64 bytes an entry.
    span, worst = max(1, CHECK_BLOCK_BYTES // (64 * max(h.n, 1))), 0.0
    for s in range(0, len(pairs), span):
        i, j = pairs[s : s + span].T
        sums = np.exp(2j * np.pi * ((nums[i] - nums[j]) % q) / q).sum(axis=1)
        worst = max(worst, np.hypot(sums.real, sums.imag).max() / h.n)  # np.abs of a complex array rounds otherwise
    return ValidationReport(
        passed=len(pairs) == 0, max_modulus_error=0.0, max_orthogonality_error=worst, tolerance=0.0, exact=True
    )


@np.errstate(all="ignore")  # an infinite or huge entry makes an error inf or nan, and the check fails
def gram_errors(values: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Modulus and row-orthogonality errors of each matrix in a (C, N, N) stack of complex values."""
    n = values.shape[-1]
    modulus = np.abs(np.abs(values) - 1.0).max(axis=(1, 2), initial=0.0)
    gram = values @ np.conj(values).swapaxes(1, 2)
    gram[:, range(n), range(n)] = 0.0
    return modulus, np.abs(gram).max(axis=(1, 2), initial=0.0) / max(n, 1)


def verify_hadamard(h: HadamardMatrix, tol: float = VERIFY_TOL) -> ValidationReport:
    """Unimodularity plus pairwise row orthogonality; exact matrices are checked exactly."""
    if h.is_exact:
        return _verify_exact(h)
    modulus, ortho = (float(error[0]) for error in gram_errors(h.to_values()[None]))
    return ValidationReport(
        passed=modulus <= tol and ortho <= tol,
        max_modulus_error=modulus,
        max_orthogonality_error=ortho,
        tolerance=tol,
        exact=False,
    )


def matrix_to_dict(h: HadamardMatrix) -> dict:
    if h.is_exact:
        q = h.phase_order()
        common = np.gcd(h.numerators, q)
        entries = np.stack([h.numerators // common, q // common], axis=-1).reshape(-1, 2).tolist()
        repr_tag = "phase"
    else:
        v = h.to_values()
        entries = [[float(z.real), float(z.imag)] for z in v.ravel()]
        repr_tag = "complex"
    return {"n": h.n, "repr": repr_tag, "entries": entries, "provenance": h.provenance}


def matrix_from_dict(obj: dict) -> HadamardMatrix:
    try:
        n, repr_tag, entries = obj["n"], obj["repr"], obj["entries"]
    except (KeyError, TypeError) as exc:
        raise ValueError(f"matrix object must have n, repr, entries: {exc}") from exc
    provenance = obj.get("provenance", "")
    if type(n) is not int or n < 1:  # exact types here: a JSON boolean is a bool, an int subclass
        raise ValueError(f"matrix order must be a positive integer, got {n!r}")
    if repr_tag not in ("phase", "complex"):
        raise ValueError(f"unknown repr {repr_tag!r}, expected 'phase' or 'complex'")
    if not isinstance(entries, list) or len(entries) != n * n:
        count = len(entries) if isinstance(entries, list) else type(entries).__name__
        raise ValueError(f"expected a list of {n * n} entries, got {count}")
    phase = repr_tag == "phase"
    types, form = ((int,), "[numerator, denominator >= 1] ints") if phase else ((int, float), "[re, im] finite numbers")
    for pair in entries:
        shaped = isinstance(pair, list) and len(pair) == 2 and all(type(x) in types for x in pair)
        # Refuses Infinity, NaN (no comparison holds) and ints beyond any float, all of which Python's json reads.
        if not shaped or (pair[1] < 1 if phase else not all(abs(x) <= sys.float_info.max for x in pair)):
            raise ValueError(f"{repr_tag} entries are {form}, got {pair!r}")
    if phase:  # each entry in lowest terms by one gcd, as Fraction(num, den) would put it, then over their lcm q
        reduced = [(num // (g := math.gcd(num, den)), den // g) for num, den in entries]
        q = math.lcm(1, *(den for _, den in reduced))
        _check_order(q)
        nums = np.array([num * (q // den) % q for num, den in reduced], dtype=np.int64).reshape(n, n)
        return HadamardMatrix(phases=(nums, q), provenance=provenance)
    arr = np.array([complex(re, im) for re, im in entries], dtype=complex).reshape(n, n)
    return HadamardMatrix.from_values(arr, provenance=provenance)


def save_matrix(h: HadamardMatrix, path) -> None:
    with open(path, "w") as fh:
        json.dump(matrix_to_dict(h), fh)
        fh.write("\n")


def load_matrix(path) -> HadamardMatrix:
    with open(path) as fh:
        return matrix_from_dict(json.load(fh))
