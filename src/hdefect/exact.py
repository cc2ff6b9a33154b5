"""Exact rational tangent systems over a cyclotomic integer ring.

For a matrix whose phases are q-th roots of unity, each ordered pair equation
(i, j) has coefficients in Z[x]/Phi_q(x). Expanding over the power basis turns
it into phi(q) integer rows over the N^2 unknowns A_ab; the rational nullity of
the stacked system is the dimension of the rational part of the tangent space.
Comparing it with the certified numeric defect d tests whether the tangent
space has a rational basis at this instance.

Both bounds come from eliminations over F_p, for a prime p < 2^31 with
p = 1 (mod q) so that products of two residues fit in int64. The rows are those
of the pairs i < j under zeta -> w^u, w of order q in F_p, a block per unit u
mod q. Phi_q splits mod p into the distinct factors x - w^u, so the blocks
together have the row space mod p of the power-basis half system.

- Lead rows. The u = 1 and u = -1 rows alone span the complex ordered-pair
  system under zeta -> w, the rows of (j, i) being minus the u = -1 rows of
  (i, j). Their elimination gives k = N^2 - rank_p; reduction mod p can only
  lower a rank, so d <= k and nullity <= k. Their k free-column kernel vectors
  are lifted by rational reconstruction, scaled to integers and checked exactly
  against the half system, whose rational kernel is that of the full system
  (see below). Each is nonzero on its own free column only, so a passing check
  proves nullity = d = k.
- Continuation. When the lift fails and phi(q) > 2, the lead echelon form is
  stacked on the other units' rows and the stack eliminated by the same
  Gauss-Jordan engine: each lead pivot row, first in its column, clears that
  column below, and the new pivots are cleared from the lead rows. This is the
  reduced echelon form of the whole stack, whose kernel is lifted and checked
  in the same way.

The rows of (j, i) are also minus the complex conjugates of those of (i, j),
so the half system always has the full rational rank. A lift then fails only
at one of finitely many unlucky primes, cured by the next prime p = 1 (mod q),
or when a kernel entry's numerator or denominator exceeds sqrt(p/2), cured by
none; after `LIFT_PRIMES` primes the nullity is refused. Hence nullity <= d <= k
of the first prime, and when the two ends meet d is proved without floats.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache
from itertools import chain, islice

import numpy as np

from .cyclotomic import euler_phi, power_reduction_table
from .errors import CapExceededError, DefectMismatchError, NonExactError, check_bytes
from .groups import factorize, is_prime
from .matrices import HadamardMatrix
from .tangent import DEFAULT_GAP_THRESHOLD, DEFAULT_REL_TOL, undephased_defect
from .tangent import check_system_size, ordered_pairs, pair_rows

# Moduli stay below this, so the product of two residues fits in int64.
MODULUS_LIMIT = 2**31

SUPPORTED = "SUPPORTED"
REFUTED_AT_INSTANCE = "REFUTED-at-this-instance"
MODULAR_LIFT = "modular-lift"
LIFT_PRIMES = 3


@dataclass(frozen=True)
class ExactSystem:
    """Pair equations with coefficients stored as power-basis integer vectors.

    `pairs` (P x 2) are the pairs i < j, row-major, and `exponents` (P x N)
    the root power of each pair's coefficient on column b; read-only int64.
    """

    root_order: int
    degree: int
    n: int
    pairs: np.ndarray
    exponents: np.ndarray


def build_exact_system(h: HadamardMatrix) -> ExactSystem:
    """Exact pair system of an exact-phase matrix, q the common phase order. Before listing a pair it holds to the
    `check_bytes` cap the lead rows that `rational_nullity` eliminates, the N(N-1)/2 x N x phi(q) coefficients that
    `_solves_full_system` gathers and the q x phi(q) reduction table that it reads, then builds and caches the table."""
    if not h.is_exact:
        raise NonExactError("exact system needs exact phases")
    q, n, half = h.phase_order(), h.n, h.n * (h.n - 1) // 2
    degree = euler_phi(q)
    check_system_size(half * min(2, degree), n * n)
    check_bytes(f"exact check of {half} x {n} x {degree} coefficients", half * n * degree * 8)
    power_reduction_table(q)
    pairs = ordered_pairs(n)
    pairs = pairs[pairs[:, 0] < pairs[:, 1]]
    exponents = (h.numerators[pairs[:, 0]] - h.numerators[pairs[:, 1]]) % q
    pairs.flags.writeable = False
    exponents.flags.writeable = False
    return ExactSystem(root_order=q, degree=degree, n=n, pairs=pairs, exponents=exponents)


@lru_cache(maxsize=None)
def modular_prime(q: int) -> int:
    """Largest prime p < 2^31 with p = 1 (mod q)."""
    for p in filter(is_prime, range((MODULUS_LIMIT - 2) // q * q + 1, 1, -q)):
        return p
    raise ValueError(f"no prime p = 1 (mod {q}) below 2^31")


def _lift_primes(q: int):
    """The LIFT_PRIMES largest primes p < 2^31 with p = 1 (mod q): `modular_prime(q)`, then the descent below it."""
    p = modular_prime(q)
    return islice(chain([p], filter(is_prime, range(p - q, 1, -q))), LIFT_PRIMES)


@lru_cache(maxsize=None)
def _root_of_order(q: int, p: int) -> int:
    """An element of multiplicative order exactly q in F_p, for p = 1 (mod q)."""
    for g in range(2, p):
        w = pow(g, (p - 1) // q, p)
        if all(pow(w, q // r, p) != 1 for r in factorize(q)):
            return w
    raise ValueError(f"no element of order {q} modulo {p}")


def _conjugate_rows(system: ExactSystem, p: int, start: int, stop: int) -> np.ndarray:
    """Rows mod p of the pairs i < j under zeta -> w^u, a block per unit u: units start..stop-1, 1 and -1 first."""
    q = system.root_order
    units = list(dict.fromkeys([1 % q, -1 % q, *(u for u in range(q) if math.gcd(u, q) == 1)]))[start:stop]
    w = _root_of_order(q, p)
    powers = np.array([pow(w, m, p) for m in range(q)], dtype=np.int64)
    blocks = powers[np.multiply.outer(np.array(units, dtype=np.int64), system.exponents) % q][:, :, None, :]
    rows = pair_rows(system.pairs, blocks, np.eye(system.n, dtype=np.int64)).reshape(-1, system.n**2)
    rows %= p
    return rows


def _echelon_mod(a: np.ndarray, p: int) -> list[int]:
    """Reduce a (residues in [0, p)) in place to reduced row echelon form over F_p by Gauss-Jordan elimination;
    returns the pivot columns, whose rows are then the first len(pivots) rows of a."""
    pivots, order = [], np.full(len(a), len(a))  # order: each pivot row's place in the result, len(a) if unused
    for c in range(a.shape[1]):
        nonzero = a[:, c].nonzero()[0]
        candidates = nonzero[order[nonzero] == len(a)]
        if candidates.size == 0:
            continue
        k = int(candidates[0])
        a[k, c:] = a[k, c:] * pow(int(a[k, c]), -1, p) % p
        others = nonzero[nonzero != k]
        block = a[others, c:]
        block -= np.multiply.outer(block[:, 0], a[k, c:])
        block -= block // p * p  # block %= p, faster for int64
        a[others, c:] = block
        order[k] = len(pivots)
        pivots.append(c)
    a[:] = a[np.argsort(order)]
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
        if np.abs(s1[active]).max() > bound:  # |s1| never falls along the sequence, so this entry has no n/d
            return None
        active = active[r1[active] > bound]
    sign = np.where(s1 < 0, -1, 1)
    return (r1 * sign).reshape(residues.shape), (s1 * sign).reshape(residues.shape)


def _lift_kernel(reduced: np.ndarray, pivots: list[int], p: int):
    """Integer N^2 x k matrix whose columns lift the free-column kernel basis of an echelon form mod p.

    Column f of the basis is 1 on free column f, 0 on the other free columns
    and -reduced[i, f] on pivot column i; each lifted column is scaled by the
    lcm of its denominators. Every such lcm divides the lcm L of all the
    denominators, so no entry exceeds max(1, max|numerator|) L: the entries
    are int64 when that is below 2^63 and Python ints (object dtype) when it
    is not. Returns None when reconstruction fails.
    """
    ncols = reduced.shape[1]
    free = np.delete(np.arange(ncols), pivots)
    fractions = _rational_reconstruction((-reduced[:, free]) % p, p)
    if fractions is None:
        return None
    num, den = fractions
    if int(np.abs(num).max(initial=1)) * math.lcm(*set(den.ravel().tolist())) >= 2**63:
        num, den = num.astype(object), den.astype(object)
    scale = np.lcm.reduce(den, axis=0, initial=1)
    kernel = np.zeros((ncols, len(free)), dtype=num.dtype)
    kernel[free, np.arange(len(free))] = scale
    kernel[pivots, :] = num * (scale // den)
    return kernel


def _solves_full_system(system: ExactSystem, kernel: np.ndarray) -> bool:
    """Whether M V = 0 exactly, for M the full ordered-pair integer system and V an integer matrix.

    The phi(q) rows of pair (i, j) are the power-basis coordinates of its
    complex equation, which for a real v is minus the conjugate of that of
    (j, i); so the rows of the pairs i < j decide M V = 0, and only they are
    checked. Row (i, j, t) of M applied to v is
    sum_b table[e_ij(b), t] (v_ib - v_jb), so the product is taken for the
    pairs of one row i at a time, without building M. Every partial sum has
    at most 2N terms of size at most max|M| max|V|, so the product runs in
    int64 when max|M| max|V| N^2 < 2^63 and in Python ints otherwise.
    """
    n, pairs = system.n, system.pairs
    table = power_reduction_table(system.root_order)
    biggest = max(int(table.max()), -int(table.min())) * int(np.abs(kernel).max(initial=0))  # no |table| copy
    dtype = np.int64 if biggest * n * n < 2**63 else object
    blocks = table[system.exponents].astype(dtype, copy=False).transpose(0, 2, 1)
    v = kernel.astype(dtype, copy=False).reshape(n, n, kernel.shape[1])
    for i in range(n):
        mine = pairs[:, 0] == i
        if (blocks[mine] @ (v[i] - v[pairs[mine, 1]])).any():
            return False
    return True


class CertifiedNullity(int):
    """A rational nullity that records how it was proved, `method` and `prime`, and the `upper_bound` on d.

    It compares, computes and serialises as the plain int, so callers that
    need only the number are unaffected.
    """

    def __new__(cls, value: int, method: str, prime: int, upper_bound: int):
        self = super().__new__(cls, value)
        self.method, self.prime, self.upper_bound = method, prime, upper_bound
        return self


def rational_nullity(system: ExactSystem) -> CertifiedNullity:
    """Dimension over Q of the rational solutions of the exact system, proved as the module docstring says.

    Per prime of `_lift_primes(q)`, the lead rows are eliminated and lifted; when that fails, the lead echelon form
    on top of the other units' rows is. CapExceededError if no kernel lifts, or if the rows a stage eliminates are
    above the `check_bytes` cap: the lead rows are checked before any prime is sought, each stack before it is made.
    """
    n, q, half = system.n, system.root_order, len(system.pairs)
    lead = min(2, system.degree)  # the units 1 and -1, one unit when q <= 2
    stages = [(0, lead), (lead, system.degree)][: 1 + (system.degree > lead)]
    check_system_size(half * lead, n * n)
    tried = []
    for p in _lift_primes(q):
        tried.append(p)
        reduced, rank = np.empty((0, n * n), dtype=np.int64), -1
        for start, stop in stages:
            check_system_size(len(reduced) + half * (stop - start), n * n)
            reduced = np.concatenate([reduced, _conjugate_rows(system, p, start, stop)])
            pivots = _echelon_mod(reduced, p)
            if len(pivots) == rank:  # the other units added no pivot, so this kernel was lifted already
                break
            reduced, rank = reduced[: len(pivots)], len(pivots)
            if len(tried) == 1 and start == 0:  # the bound on d is the lead rank at `modular_prime(q)`
                upper = n * n - rank
            kernel = _lift_kernel(reduced, pivots, p)
            if kernel is not None and _solves_full_system(system, kernel):
                return CertifiedNullity(kernel.shape[1], MODULAR_LIFT, p, upper)
    raise CapExceededError(
        f"rational nullity not proved: no kernel lifted modulo the primes {', '.join(map(str, tried))} solves "
        f"the full system (rational reconstruction bound sqrt(p/2) <= {math.isqrt(max(tried) // 2)})"
    )


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
) -> ConjectureReport:
    """Compare the rational nullity with the certified numeric defect.

    The rational solution space embeds in the real one, so the nullity can
    never exceed the defect; a strict gap is a genuine counterexample at this
    instance, while equality supports the rational-basis conjecture. The
    modular upper bound, read off the same elimination, must in turn be at
    least the defect.
    """
    system = build_exact_system(h)
    report = undephased_defect(h, rel_tol, gap_threshold)  # verifies h before any elimination
    nullity = rational_nullity(system)
    if nullity > report.undephased_defect:
        raise DefectMismatchError(
            f"rational nullity {nullity} exceeds certified defect {report.undephased_defect}; "
            "one of the two pipelines is wrong"
        )
    if nullity.upper_bound < report.undephased_defect:
        raise DefectMismatchError(
            f"exact upper bound {nullity.upper_bound} is below certified defect {report.undephased_defect}; "
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
        exact_upper_bound=nullity.upper_bound,
        method=nullity.method,
        prime=nullity.prime,
    )
