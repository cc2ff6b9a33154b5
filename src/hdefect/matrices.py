"""Complex Hadamard matrices: representations, constructors, validity checks.

A matrix carries either exact phases, int64 numerators m_ij in [0, q) over
the smallest root order q (entry e^(2 pi i m_ij / q); `turns` derives them as
Fractions of a turn), or a complex128 array. Exact to floating conversion is
explicit and one-way; all named constructors that can stay exact do, and
operations on exact matrices are integer array arithmetic.
"""

from __future__ import annotations

import cmath
import json
import math
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from .cyclotomic import power_reduction_table
from .errors import CapExceededError, NonExactError, NonHadamardError
from .groups import FiniteAbelianGroup

_QUARTER_TURNS = {
    Fraction(0): 1 + 0j,
    Fraction(1, 4): 1j,
    Fraction(1, 2): -1 + 0j,
    Fraction(3, 4): -1j,
}
# Root orders stay below this, so sums of a few numerators fit in int64.
MAX_PHASE_ORDER = 2**31


def turn_to_complex(turn: Fraction) -> complex:
    """e^(2 pi i turn); quarter turns map to exact literals."""
    turn = turn % 1
    exact = _QUARTER_TURNS.get(turn)
    if exact is not None:
        return exact
    return cmath.exp(2j * cmath.pi * float(turn))


def _roots(nums: np.ndarray, q: int) -> np.ndarray:
    """e^(2 pi i m / q) for every numerator m, computed once per distinct m."""
    unique, inverse = np.unique(nums, return_inverse=True)
    roots = np.array([turn_to_complex(Fraction(int(m), q)) for m in unique], dtype=complex)
    return roots[inverse].reshape(nums.shape)


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

    Built from exactly one of `turns` (rows of turn Fractions or ints),
    `phases` (integer numerators and their root order q) or `values` (a
    complex array). `numerators` is None for floating matrices.
    """

    def __init__(self, *, turns=None, values=None, phases=None):
        if sum(x is not None for x in (turns, values, phases)) != 1:
            raise ValueError("exactly one of turns, phases or values must be given")
        self._values = None
        self.numerators = None
        if turns is not None:
            phases = _phases_from_turns(turns)
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

    def __init__(self, *, turns=None, values=None, phases=None, unimodular_tol=1e-10):
        super().__init__(turns=turns, values=values, phases=phases)
        if not self.is_exact and self.max_modulus_error() > unimodular_tol:
            raise NonHadamardError(
                f"deformation parameters must be unimodular (error {self.max_modulus_error():.3e})"
            )

    @classmethod
    def from_turns(cls, rows) -> "DeformationParameters":
        return cls(turns=rows)

    @classmethod
    def flat(cls, rows: int, cols: int) -> "DeformationParameters":
        return cls(phases=(np.zeros((rows, cols), dtype=np.int64), 1))


class HadamardMatrix(UnimodularMatrix):
    """Square candidate matrix with a provenance label; validity is a separate check."""

    def __init__(self, *, turns=None, values=None, phases=None, provenance: str = ""):
        super().__init__(turns=turns, values=values, phases=phases)
        if self.rows != self.cols:
            raise ValueError(f"matrix must be square, got {self.rows} x {self.cols}")
        self.n = self.rows
        self.provenance = provenance

    @classmethod
    def from_turns(cls, rows, provenance: str = "") -> "HadamardMatrix":
        return cls(turns=rows, provenance=provenance)

    @classmethod
    def from_values(cls, values, provenance: str = "") -> "HadamardMatrix":
        return cls(values=values, provenance=provenance)


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
    q = group.exponent
    elems = np.array(group.element_list(), dtype=np.int64).reshape(group.order, len(orders))
    weights = np.array([q // n for n in orders], dtype=np.int64)
    label = "x".join(str(n) for n in orders) if orders else "1"
    return HadamardMatrix(phases=((elems * weights) @ elems.T, q), provenance=f"fourier:{label}")


def tensor_product(h: HadamardMatrix, k: HadamardMatrix) -> HadamardMatrix:
    """(H (x) K)_{ia,jb} = H_ij K_ab, left factor outermost."""
    prov = f"tensor:({h.provenance},{k.provenance})"
    if h.is_exact and k.is_exact:
        (hn, kn), q = _common_order(h, k)
        size = h.n * k.n
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
    prov = f"deformed:({h.provenance},{k.provenance})"
    if h.is_exact and k.is_exact and params.is_exact:
        (hn, ln, kn), q = _common_order(h, params, k)
        size = h.n * k.n
        nums = hn[:, None, :, None] + ln[None, :, :, None] + kn[None, :, None, :]
        return HadamardMatrix(phases=(nums.reshape(size, size), q), provenance=prov)
    hv, lv, kv = h.to_values(), params.to_values(), k.to_values()
    out = np.einsum("ij,aj,ab->iajb", hv, lv, kv).reshape(h.n * k.n, h.n * k.n)
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
    if abs(abs(qc) - 1.0) > 1e-10:
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
    qv = np.asarray(q)
    if np.max(np.abs(np.abs(qv) - 1.0)) > 1e-10:
        raise NonHadamardError("eigenvalues must be unimodular")
    w = np.exp(2j * np.pi / n)
    c = np.array([np.sum(w ** (k * np.arange(n)) * qv) for k in range(n)]) / math.sqrt(n)
    values = np.array([[c[(j - i) % n] for j in range(n)] for i in range(n)])
    label = ",".join(str(v) for v in eigenvalues)
    return HadamardMatrix.from_values(values, provenance=f"circulant:{label}")


def as_exact(h: HadamardMatrix, max_denominator: int = 64, tol: float = 1e-12) -> HadamardMatrix:
    """Recover rational turn phases from a floating matrix, with verification.

    Each entry's angle is rounded to the nearest fraction with denominator at
    most max_denominator; the rounded phase must reproduce the entry to within
    tol or the recovery is refused. Exact inputs pass through unchanged.
    """
    if h.is_exact:
        return h
    values = h.to_values()
    rows = []
    for row in values:
        out = []
        for z in row:
            turn = Fraction(float(np.angle(z)) / (2 * np.pi)).limit_denominator(max_denominator) % 1
            if abs(z - turn_to_complex(turn)) > tol:
                raise NonExactError(
                    f"entry {z} is not within {tol} of a root of unity with "
                    f"denominator <= {max_denominator}"
                )
            out.append(turn)
        rows.append(out)
    return HadamardMatrix.from_turns(rows, provenance=h.provenance)


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
        (hn, (rn, cn)), q = _common_order(h, UnimodularMatrix(turns=[row_phases, col_phases]))
        return HadamardMatrix(phases=(rn[:, None] + cn[None, :] + hn[np.ix_(rp, cp)], q), provenance=prov)
    v = h.to_values()
    rvals = np.array([turn_to_complex(p) if isinstance(p, (Fraction, int)) else complex(p) for p in row_phases])
    cvals = np.array([turn_to_complex(p) if isinstance(p, (Fraction, int)) else complex(p) for p in col_phases])
    out = rvals[:, None] * cvals[None, :] * v[np.ix_(rp, cp)]
    return HadamardMatrix.from_values(out, provenance=prov)


def _verify_exact(h: HadamardMatrix) -> ValidationReport:
    """Rows i < j are orthogonal iff the counts of their phase differences reduce to 0 mod Phi_q.

    Row i is checked against all rows j > i at once, so the counts take
    (N - 1) x q entries at most.
    """
    q = h.phase_order()
    table = power_reduction_table(q)
    nums = h.numerators
    worst = 0.0
    for i in range(h.n - 1):
        diff = (nums[i] - nums[i + 1 :]) % q
        offsets = q * np.arange(len(diff))[:, None]
        counts = np.bincount((diff + offsets).ravel(), minlength=len(diff) * q).reshape(-1, q)
        for d in diff[(counts @ table).any(axis=1)]:
            worst = max(worst, abs(np.sum(np.exp(2j * np.pi * d / q))) / h.n)
    return ValidationReport(
        passed=worst == 0.0,
        max_modulus_error=0.0,
        max_orthogonality_error=worst,
        tolerance=0.0,
        exact=True,
    )


def verify_hadamard(h: HadamardMatrix, tol: float = 1e-9) -> ValidationReport:
    """Unimodularity plus pairwise row orthogonality; exact matrices are checked exactly."""
    if h.is_exact:
        return _verify_exact(h)
    v = h.to_values()
    modulus = h.max_modulus_error()
    gram = v @ v.conj().T
    off = gram - np.diag(np.diag(gram))
    ortho = float(np.max(np.abs(off))) / h.n if h.n > 1 else 0.0
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
        n = obj["n"]
        repr_tag = obj["repr"]
        entries = obj["entries"]
    except (KeyError, TypeError) as exc:
        raise ValueError(f"matrix object must have n, repr, entries: {exc}") from exc
    provenance = obj.get("provenance", "")
    if not isinstance(n, int) or n < 1:
        raise ValueError(f"matrix order must be a positive integer, got {n!r}")
    if len(entries) != n * n:
        raise ValueError(f"expected {n * n} entries, got {len(entries)}")
    if repr_tag == "phase":
        turns = []
        for pair in entries:
            num, den = pair
            if not isinstance(num, int) or not isinstance(den, int) or den < 1:
                raise ValueError(f"phase entries are [numerator, denominator] ints, got {pair}")
            turns.append(Fraction(num, den))
        rows = [turns[i * n : (i + 1) * n] for i in range(n)]
        return HadamardMatrix.from_turns(rows, provenance=provenance)
    if repr_tag == "complex":
        vals = [complex(re, im) for re, im in entries]
        arr = np.array(vals, dtype=complex).reshape(n, n)
        return HadamardMatrix.from_values(arr, provenance=provenance)
    raise ValueError(f"unknown repr {repr_tag!r}, expected 'phase' or 'complex'")


def save_matrix(h: HadamardMatrix, path) -> None:
    with open(path, "w") as fh:
        json.dump(matrix_to_dict(h), fh)
        fh.write("\n")


def load_matrix(path) -> HadamardMatrix:
    with open(path) as fh:
        return matrix_from_dict(json.load(fh))
