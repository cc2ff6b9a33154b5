"""Seeded inputs for the three benchmark workloads.

Each entry is one in-process CLI call. The seed only draws equivalence
transforms: a row and a column permutation plus row and column phases among
the matrix's own q-th roots of unity. These leave the defect, the rational
nullity and the phase order unchanged, so the expected answers, keyed by the
untransformed spec, hold for every seed. Transformed and floating inputs are
written as matrix JSON during set-up and passed as ``file:`` specs.
"""

from __future__ import annotations

import math
import os
import random
from dataclasses import dataclass
from fractions import Fraction

from hdefect.cli import build_matrix, parse_matrix_spec
from hdefect.groups import abelian_group_types
from hdefect.matrices import HadamardMatrix, apply_equivalence, save_matrix

# Every third transformable entry gets a seed-drawn equivalent. The share is
# fixed by position so that each seed runs the same mix of direct and file:
# inputs.
TRANSFORM_EVERY = 3

SCAN_ARGS = ("fourier:2", "fourier:4", "--grid", "16")
SCAN_CELLS = 16**3

DEFORMED_F4F4 = (
    "deformed:(fourier:4,[[0,0,0,0],[0,1/8,0,3/16],[0,0,1/4,0],[0,1/16,0,0]],fourier:4)",
    "deformed:(fourier:4,[[0,0,0,0],[0,1/2,0,0],[0,0,0,0],[0,0,0,1/4]],fourier:4)",
    "deformed:(fourier:4,[[0,0,0,0],[0,1/3,1/6,0],[0,0,0,0],[0,0,1/12,0]],fourier:4)",
)

CIRCULANTS = (
    "circulant:0,1/4",
    "circulant:0,0,1/3",
    "circulant:0,1/8,0,5/8",
    "circulant:0,0,1/5,3/5,1/5",
    "circulant:0,1/12,0,3/4,1/3,3/4",
    "circulant:0,0,0,1/4,1/2,0,1/2,1/4",
)

# Exact matrices also passed as "repr": "complex" files, which take the
# floating (Gram matrix) verify path.
FLOAT_COPIES = ("fourier:6", "fourier:2x4", "fourier:2x2x2x2", "tao", "haagerup:1/8", DEFORMED_F4F4[0])

# Warm-up calls for the scan run the same per-cell path (deformed tensor of
# F2 and F4, exact verify, 56 x 64 SVD) on single matrices.
SCAN_WARMUP = ("fourier:2x4", "deformed:(fourier:2,[[0,0],[0,0],[0,0],[0,1/16]],fourier:4)")
WARMUP_CALLS = 6

# Fraction-free elimination time depends on the row and column order: over
# three equivalents it varied by about 15% for F16 and 20% for F12. So only
# conjecture entries with N <= 6, whose calls take a few milliseconds, are
# transformed, and the cost of a pass does not depend on the seed.
CONJECTURE_TRANSFORM_MAX_N = 6


def fourier_specs(lowest: int, highest: int) -> list[str]:
    """Fourier specs of every abelian group type with order in [lowest, highest]."""
    return [
        "fourier:" + "x".join(str(n) for n in group.cycle_orders)
        for order in range(lowest, highest + 1)
        for group in abelian_group_types(order)
    ]


def defect_bases() -> list[str]:
    return (
        fourier_specs(2, 32)
        + [f"haagerup:{k}/12" for k in range(12)]
        + [
            "tao",
            "tensor:(fourier:2,tao)",
            "tensor:(tao,fourier:3)",
            "tensor:(haagerup:1/8,fourier:2)",
            "tensor:(fourier:4,haagerup:1/12)",
        ]
        + list(DEFORMED_F4F4)
        + list(CIRCULANTS)
    )


def conjecture_bases() -> list[str]:
    return (
        fourier_specs(2, 12)
        + ["tao"]
        + [f"haagerup:{k}/8" for k in range(8)]
        + [f"deformed:(fourier:2,[[0,0],[0,{k}/16]],fourier:2)" for k in range(16)]
        + ["tensor:(fourier:2,fourier:4)", "fourier:16", "tensor:(fourier:4,fourier:4)"]
    )


@dataclass(frozen=True)
class Entry:
    """One CLI call and what its oracle needs to know about the input."""

    command: str
    base: str  # spec of the untransformed matrix; keys the expected answers
    argv: tuple[str, ...]
    n: int
    items: int = 1
    transformed: bool = False
    floating: bool = False
    base_q: int | None = None  # phase order of the base matrix; None when it is floating


def draw_equivalent(h: HadamardMatrix, rng: random.Random) -> HadamardMatrix:
    """A random equivalent of an exact matrix, with phases among its own q-th roots."""
    q = h.phase_order()
    row_perm = list(range(h.n))
    col_perm = list(range(h.n))
    rng.shuffle(row_perm)
    rng.shuffle(col_perm)
    row_phases = [Fraction(rng.randrange(q), q) for _ in range(h.n)]
    col_phases = [Fraction(rng.randrange(q), q) for _ in range(h.n)]
    return apply_equivalence(h, row_perm, col_perm, row_phases, col_phases)


def _file_spec(path: str) -> str:
    # Spec paths end at ',' or ')', so the file must be reachable without them.
    if "," in path or ")" in path:
        raise ValueError(f"input path {path!r} contains ',' or ')'")
    return "file:" + path


def _matrix_entries(command, specs, seed, workdir, extra_args) -> list[Entry]:
    """Entries for (base spec, floating) pairs; every TRANSFORM_EVERY-th exact one is transformed."""
    rng = random.Random(f"{command}:{seed}")
    entries = []
    transformable = 0
    for index, (base, floating) in enumerate(specs):
        h = build_matrix(parse_matrix_spec(base))
        base_q = h.phase_order() if h.is_exact else None
        transformed = False
        if h.is_exact and not (command == "conjecture" and h.n > CONJECTURE_TRANSFORM_MAX_N):
            transformable += 1
            transformed = transformable % TRANSFORM_EVERY == 0
        matrix = draw_equivalent(h, rng) if transformed else h
        if floating:
            matrix = HadamardMatrix.from_values(matrix.to_values(), provenance=matrix.provenance)
        if transformed or floating:
            path = os.path.join(workdir, f"{command}-{index:03d}.json")
            save_matrix(matrix, path)
            spec = _file_spec(path)
        else:
            spec = base
        entries.append(
            Entry(
                command=command,
                base=base,
                argv=(command, spec, *extra_args(index)),
                n=h.n,
                transformed=transformed,
                floating=floating,
                base_q=base_q,
            )
        )
    return entries


def build_corpus(workload: str, seed: int, workdir: str) -> list[Entry]:
    """The calls of one pass of a workload; input files go to workdir (relative to the cwd)."""
    if workload == "scan":
        return [
            Entry(
                command="scan",
                base=" ".join(SCAN_ARGS),
                argv=("scan", *SCAN_ARGS, "--out", os.path.join(workdir, "scan.csv")),
                n=8,
                items=SCAN_CELLS,
            )
        ]
    if workload == "defect":
        specs = [(base, False) for base in defect_bases()] + [(base, True) for base in FLOAT_COPIES]
        return _matrix_entries(
            "defect", specs, seed, workdir, lambda index: ("--dephased",) if index % 2 else ()
        )
    if workload == "conjecture":
        specs = [(base, False) for base in conjecture_bases()]
        return _matrix_entries("conjecture", specs, seed, workdir, lambda index: ())
    raise ValueError(f"unknown workload {workload!r}; expected scan, defect or conjecture")


def warmup_entries(workload: str, entries: list[Entry]) -> list[Entry]:
    """Checked calls run before timing, so that imports and LAPACK set-up are done."""
    if workload == "scan":
        return [Entry(command="defect", base=base, argv=("defect", base), n=8) for base in SCAN_WARMUP]
    return entries[:WARMUP_CALLS]


def phase_orders(workload: str, entries: list[Entry]) -> list[int]:
    """Distinct phase orders of the exact matrices a pass verifies."""
    if workload == "scan":
        base = math.lcm(*(build_matrix(parse_matrix_spec(spec)).phase_order() for spec in SCAN_ARGS[:2]))
        grid = int(SCAN_ARGS[3])
        return sorted({math.lcm(base, Fraction(k, grid).denominator) for k in range(grid)})
    return sorted({e.base_q for e in entries if e.base_q is not None and not e.floating})
