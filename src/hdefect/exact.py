"""Exact rational tangent systems over a cyclotomic integer ring.

For a matrix whose phases are q-th roots of unity, each ordered pair equation
(i, j) has coefficients in Z[x]/Phi_q(x). Expanding over the power basis turns
it into phi(q) integer rows over the N^2 unknowns A_ab; the rational nullity of
the stacked system is the dimension of the rational part of the tangent space.
Comparing it with the certified numeric defect d tests whether the tangent
space has a rational basis at this instance.

The rational nullity is computed modulo a prime p < 2^31, so that products of
two residues fit in int64, and then proved exactly:

- Upper bound. Gauss-Jordan elimination over F_p of the rows of the pairs
  i < j gives k = N^2 - rank_p. Reduction mod p can only lower a rank, and
  those rows are a subset of the full system, so rank_p(half) <= rank_Q(half)
  <= rank_Q(full) and the nullity is at most k, for any prime.
- Lower bound. Each of the k free-column kernel vectors mod p is lifted to a
  rational vector by rational reconstruction, scaled to integers and checked
  exactly against the full ordered-pair system. The checked vectors are
  independent, since each one is nonzero on its own free column and zero on
  the others, so the nullity is at least k.

The rows of (j, i) are the Galois conjugates of those of (i, j), which is why
the half system usually has the full rational rank and the lift succeeds; the
proof does not depend on it. When reconstruction or the check fails (an
unlucky prime), the nullity comes from fraction-free elimination of the full
rows (`integer_matrix_rank`) instead.

The prime is the largest p < 2^31 with p = 1 (mod q), so that sending zeta_q
to an element w of order q in F_p is a ring map Z[zeta_q] -> F_p. Reducing
the complex ordered-pair system this way gives the float-free bound
d <= N^2 - rank_p (`exact_upper_bound`). Hence rational nullity <= d <=
exact_upper_bound, and when the two ends meet, d is proved without floating
point.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .cyclotomic import euler_phi, power_reduction_table
from .errors import MAX_SYSTEM_BYTES, CapExceededError, NonExactError
from .groups import factorize, is_prime
from .matrices import HadamardMatrix
from .tangent import DEFAULT_GAP_THRESHOLD, DEFAULT_REL_TOL, undephased_defect
from .tangent import check_system_size, ordered_pairs, pair_rows

DEFAULT_DEGREE_CAP = 64
# Moduli stay below this, so the product of two residues fits in int64.
MODULUS_LIMIT = 2**31

SUPPORTED = "SUPPORTED"
REFUTED_AT_INSTANCE = "REFUTED-at-this-instance"
MODULAR_LIFT = "modular-lift"
BAREISS = "bareiss"


@dataclass(frozen=True)
class ExactSystem:
    """Pair equations with coefficients stored as power-basis integer vectors.

    `pairs` (P x 2) are the ordered pairs and `exponents` (P x N) the root
    power of each pair's coefficient on column b; both are read-only int64.
    """

    root_order: int
    degree: int
    n: int
    pairs: np.ndarray
    exponents: np.ndarray
    provenance: str

    def integer_rows(self) -> list[list[int]]:
        """The phi(q) * len(pairs) integer rows over the N^2 unknowns."""
        blocks = power_reduction_table(self.root_order)[self.exponents].transpose(0, 2, 1)
        return pair_rows(self.pairs, blocks, self.n).tolist()


def build_exact_system(h: HadamardMatrix, degree_cap: int = DEFAULT_DEGREE_CAP) -> ExactSystem:
    """Exact pair system of an exact-phase matrix; q is the common phase order."""
    if not h.is_exact:
        raise NonExactError("exact system needs exact phases")
    q = h.phase_order()
    degree = euler_phi(q)
    if degree > degree_cap:
        raise CapExceededError(f"cyclotomic degree {degree} exceeds cap {degree_cap} (q = {q})")
    pairs = ordered_pairs(h.n)
    exponents = (h.numerators[pairs[:, 0]] - h.numerators[pairs[:, 1]]) % q
    pairs.flags.writeable = False
    exponents.flags.writeable = False
    return ExactSystem(
        root_order=q, degree=degree, n=h.n, pairs=pairs, exponents=exponents, provenance=h.provenance
    )


@lru_cache(maxsize=None)
def modular_prime(q: int) -> int:
    """Largest prime p < 2^31 with p = 1 (mod q)."""
    p = (MODULUS_LIMIT - 2) // q * q + 1
    while not is_prime(p):
        p -= q
    return p


def _root_of_order(q: int, p: int) -> int:
    """An element of multiplicative order exactly q in F_p, for p = 1 (mod q)."""
    for g in range(2, p):
        w = pow(g, (p - 1) // q, p)
        if all(pow(w, q // r, p) != 1 for r in factorize(q)):
            return w
    raise ValueError(f"no element of order {q} modulo {p}")


def _row_reduce_mod(a: np.ndarray, p: int) -> list[int]:
    """Reduce a (residues in [0, p)) in place to reduced row echelon form over F_p.

    Returns the pivot columns; the first len(pivots) rows of a are then the
    nonzero rows of the echelon form.
    """
    nrows, ncols = a.shape
    pivots = []
    for c in range(ncols):
        r = len(pivots)
        if r == nrows:
            break
        candidates = np.flatnonzero(a[r:, c])
        if candidates.size == 0:
            continue
        k = r + int(candidates[0])
        if k != r:
            a[[r, k]] = a[[k, r]]
        a[r, c:] = a[r, c:] * pow(int(a[r, c]), -1, p) % p
        others = np.flatnonzero(a[:, c])
        others = others[others != r]
        if others.size:
            block = a[others, c:]
            block -= np.multiply.outer(block[:, 0], a[r, c:])
            block %= p
            a[others, c:] = block
        pivots.append(c)
    return pivots


def _rational_reconstruction(residues: np.ndarray, p: int):
    """Entrywise n/d = residue (mod p) with |n|, d <= sqrt(p/2), as (n, d); None if one has none.

    Runs the extended Euclidean algorithm on (p, residue) for all entries at
    once, stopping each entry at the first remainder within the bound.
    """
    bound = math.isqrt(p // 2)
    r1 = residues.astype(np.int64).ravel()
    r0 = np.full_like(r1, p)
    s0 = np.zeros_like(r1)
    s1 = np.ones_like(r1)
    active = np.flatnonzero(r1 > bound)
    while active.size:
        quot = r0[active] // r1[active]
        r0[active], r1[active] = r1[active], r0[active] - quot * r1[active]
        s0[active], s1[active] = s1[active], s0[active] - quot * s1[active]
        active = active[r1[active] > bound]
    if np.any(np.abs(s1) > bound):
        return None
    sign = np.where(s1 < 0, -1, 1)
    return (r1 * sign).reshape(residues.shape), (s1 * sign).reshape(residues.shape)


def _lift_kernel(reduced: np.ndarray, pivots: list[int], p: int):
    """Integer N^2 x k matrix whose columns lift the free-column kernel basis of an echelon form mod p.

    Column f of the basis is 1 on free column f, 0 on the other free columns
    and -reduced[i, f] on pivot column i; each lifted column is scaled by the
    lcm of its denominators. Entries are Python ints (object dtype). Returns
    None when reconstruction fails.
    """
    ncols = reduced.shape[1]
    free = np.setdiff1d(np.arange(ncols), pivots)
    fractions = _rational_reconstruction((-reduced[:, free]) % p, p)
    if fractions is None:
        return None
    num, den = fractions
    scale = np.array([math.lcm(*np.unique(den[:, f]).tolist()) for f in range(len(free))], dtype=object)
    kernel = np.zeros((ncols, len(free)), dtype=object)
    kernel[free, np.arange(len(free))] = scale
    kernel[pivots, :] = num.astype(object) * (scale // den.astype(object))
    return kernel


def _solves_full_system(system: ExactSystem, kernel: np.ndarray) -> bool:
    """Whether M V = 0 exactly, for M the full ordered-pair integer system.

    Row (i, j, t) of M applied to a vector v is
    sum_b table[e_ij(b), t] (v_ib - v_jb), so the product is taken for the
    pairs of one row i at a time, without building M. Every partial sum has
    at most 2N terms of size at most max|M| max|V|, so the product runs in
    int64 when max|M| max|V| N^2 < 2^63 and in Python ints otherwise.
    """
    n, pairs = system.n, system.pairs
    table = power_reduction_table(system.root_order)
    biggest = int(np.abs(table).max()) * int(np.abs(kernel).max(initial=0))
    dtype = np.int64 if biggest * n * n < 2**63 else object
    blocks = table[system.exponents].astype(dtype).transpose(0, 2, 1)
    v = kernel.astype(dtype).reshape(n, n, kernel.shape[1])
    for i in range(n):
        mine = pairs[:, 0] == i
        if (blocks[mine] @ (v[i] - v[pairs[mine, 1]])).any():
            return False
    return True


def integer_matrix_rank(rows, ncols: int) -> int:
    """Exact rank by fraction-free elimination with big integers.

    This is the fallback of `rational_nullity` when the modular kernel does
    not lift, and the oracle the tests compare the modular path with.
    """
    m = [list(r) for r in rows]
    for r in m:
        if len(r) != ncols:
            raise ValueError("ragged rows")
    nrows = len(m)
    rank = 0
    prev = 1
    r = 0
    for c in range(ncols):
        pivot_row = next((k for k in range(r, nrows) if m[k][c]), None)
        if pivot_row is None:
            continue
        m[r], m[pivot_row] = m[pivot_row], m[r]
        piv = m[r][c]
        for k in range(r + 1, nrows):
            rowk = m[k]
            rowr = m[r]
            factor = rowk[c]
            for col in range(c + 1, ncols):
                rowk[col] = (piv * rowk[col] - factor * rowr[col]) // prev
            rowk[c] = 0
        prev = piv
        rank += 1
        r += 1
        if r == nrows:
            break
    return rank


class CertifiedNullity(int):
    """A rational nullity that records how it was proved: `method` and the `prime` tried.

    It compares, computes and serialises as the plain int, so callers that
    need only the number are unaffected.
    """

    def __new__(cls, value: int, method: str, prime: int):
        self = super().__new__(cls, value)
        self.method = method
        self.prime = prime
        return self


def rational_nullity(system: ExactSystem, byte_cap: int = MAX_SYSTEM_BYTES) -> CertifiedNullity:
    """Dimension over Q of the rational solutions of the exact system.

    The value is either k = N^2 - rank_p, p = `modular_prime(q)`, with k
    lifted kernel vectors checked exactly (method "modular-lift"), or the
    fraction-free rank of the full rows (method "bareiss"); see the module
    docstring.
    """
    n = system.n
    check_system_size(n * (n - 1) // 2 * system.degree, n, byte_cap)
    p = modular_prime(system.root_order)
    pairs = system.pairs
    half = pairs[:, 0] < pairs[:, 1]
    blocks = power_reduction_table(system.root_order)[system.exponents[half]].transpose(0, 2, 1)
    reduced = pair_rows(pairs[half], blocks, n, byte_cap)
    reduced %= p
    pivots = _row_reduce_mod(reduced, p)
    kernel = _lift_kernel(reduced[: len(pivots)], pivots, p)
    if kernel is not None and _solves_full_system(system, kernel):
        return CertifiedNullity(kernel.shape[1], MODULAR_LIFT, p)
    rank = integer_matrix_rank(system.integer_rows(), n * n)
    return CertifiedNullity(n * n - rank, BAREISS, p)


def exact_upper_bound(system: ExactSystem, byte_cap: int = MAX_SYSTEM_BYTES) -> int:
    """Float-free upper bound on the undephased defect, N^2 - rank_p of the complex pair system.

    The complex ordered-pair system has entries zeta_q^e; with p =
    `modular_prime(q)` they are sent to w^e for an element w of order q in
    F_p. This ring map can only lower the rank, and the real solution space
    of the complex system has dimension N^2 minus its complex rank, which is
    the defect.
    """
    q = system.root_order
    n = system.n
    check_system_size(len(system.pairs), n, byte_cap)
    p = modular_prime(q)
    w = _root_of_order(q, p)
    powers = np.array([pow(w, m, p) for m in range(q)], dtype=np.int64)
    rows = pair_rows(system.pairs, powers[system.exponents][:, None, :], n, byte_cap)
    rows %= p
    return n * n - len(_row_reduce_mod(rows, p))


@dataclass(frozen=True)
class ConjectureReport:
    provenance: str
    root_order: int
    degree: int
    rational_nullity: int
    numeric_defect: int
    gap_ratio: float
    verdict: str
    exact_upper_bound: int
    method: str
    prime: int


def conjecture_check(
    h: HadamardMatrix,
    rel_tol: float = DEFAULT_REL_TOL,
    gap_threshold: float = DEFAULT_GAP_THRESHOLD,
    degree_cap: int = DEFAULT_DEGREE_CAP,
) -> ConjectureReport:
    """Compare the rational nullity with the certified numeric defect.

    The rational solution space embeds in the real one, so the nullity can
    never exceed the defect; a strict gap is a genuine counterexample at this
    instance, while equality supports the rational-basis conjecture. The
    modular upper bound must in turn be at least the defect.
    """
    system = build_exact_system(h, degree_cap)
    nullity = rational_nullity(system)
    upper = exact_upper_bound(system)
    report = undephased_defect(h, rel_tol, gap_threshold)
    if nullity > report.undephased_defect:
        raise RuntimeError(
            f"rational nullity {nullity} exceeds certified defect {report.undephased_defect}; "
            "one of the two pipelines is wrong"
        )
    if upper < report.undephased_defect:
        raise RuntimeError(
            f"exact upper bound {upper} is below certified defect {report.undephased_defect}; "
            "one of the two pipelines is wrong"
        )
    verdict = SUPPORTED if nullity == report.undephased_defect else REFUTED_AT_INSTANCE
    return ConjectureReport(
        provenance=h.provenance,
        root_order=system.root_order,
        degree=system.degree,
        rational_nullity=int(nullity),
        numeric_defect=report.undephased_defect,
        gap_ratio=report.gap_ratio,
        verdict=verdict,
        exact_upper_bound=upper,
        method=nullity.method,
        prime=nullity.prime,
    )
