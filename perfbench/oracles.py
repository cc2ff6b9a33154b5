"""Expected answers and the checks that decide whether a CLI call failed.

Fourier matrices, and tensor products of two Fourier matrices (the Fourier
matrix of the product group), are checked against the closed form
``groups.fourier_defect``. Every other defect, and every conjecture verdict,
was recorded from this library before the benchmark existed; equivalents and
floating copies must reproduce the value of their base matrix.
"""

from __future__ import annotations

import csv
import hashlib
import json

from hdefect.cli import FourierSpec, TensorSpec, parse_matrix_spec
from hdefect.groups import fourier_defect, make_group
from hdefect.tangent import DEFAULT_GAP_THRESHOLD

from corpus import CIRCULANTS, DEFORMED_F4F4, SCAN_CELLS, SCAN_WARMUP, Entry

RECORDED_DEFECTS = {
    **{f"haagerup:{k}/12": 15 for k in range(12)},
    **{f"haagerup:{k}/8": 15 for k in range(8)},
    "tao": 11,
    "tensor:(fourier:2,tao)": 42,
    "tensor:(tao,fourier:3)": 55,
    "tensor:(haagerup:1/8,fourier:2)": 50,
    "tensor:(fourier:4,haagerup:1/12)": 160,
    **dict(zip(DEFORMED_F4F4, (58, 66, 60))),
    **dict(zip(CIRCULANTS, (3, 5, 8, 9, 15, 24))),
    SCAN_WARMUP[1]: 22,
    **{
        f"deformed:(fourier:2,[[0,0],[0,{k}/16]],fourier:2)": 10 if k in (0, 8) else 8
        for k in range(16)
    },
}

# Conjecture instances whose rational nullity is strictly below the defect;
# every other conjecture entry is SUPPORTED with nullity equal to the defect.
RECORDED_REFUTED = {f"haagerup:{k}/8": 12 for k in (1, 3, 5, 7)}

SUPPORTED = "SUPPORTED"
REFUTED = "REFUTED-at-this-instance"

SCAN_DEFECT_VALUES = [20, 22, 24, 26, 28]
SCAN_FLAT_CELL = "0;0;0"
SCAN_HEADER = ["cell_id", "l_turns", "defect", "dephased_defect", "gap_ratio", "certified", "error"]
# sha256 of the scan CSV without its gap_ratio column. The gap ratios are
# floats whose last digits depend on the BLAS build and on summation order, so
# they are checked against the certificate threshold instead of by digest.
SCAN_DIGEST = "6040ba6d59b5b3cc87605c59fa3812a1c30df7d6ac77865f09e053ae62b3d9ad"


def expected_defect(base: str) -> int:
    spec = parse_matrix_spec(base)
    if isinstance(spec, FourierSpec):
        return fourier_defect(make_group(spec.orders))
    if isinstance(spec, TensorSpec) and all(isinstance(s, FourierSpec) for s in (spec.left, spec.right)):
        return fourier_defect(make_group(spec.left.orders + spec.right.orders))
    return RECORDED_DEFECTS[base]


def _check_certificate(payload: dict, problems: list[str]) -> None:
    gap = payload.get("gap_ratio")
    if not isinstance(gap, (int, float)) or not gap >= DEFAULT_GAP_THRESHOLD:
        problems.append(f"gap_ratio {gap!r} below the certificate threshold {DEFAULT_GAP_THRESHOLD:g}")


def check_defect(entry: Entry, payload: dict, problems: list[str]) -> None:
    n = entry.n
    want = expected_defect(entry.base)
    if payload.get("n") != n:
        problems.append(f"n is {payload.get('n')!r}, expected {n}")
    if payload.get("defect") != want:
        problems.append(f"defect is {payload.get('defect')!r}, expected {want}")
    if payload.get("rank") != n * n - want:
        problems.append(f"rank is {payload.get('rank')!r}, expected {n * n - want}")
    if payload.get("certified") is not True:
        problems.append("defect is not certified")
    _check_certificate(payload, problems)
    if "--dephased" in entry.argv and payload.get("dephased_defect") != want - 2 * n + 1:
        problems.append(
            f"dephased_defect is {payload.get('dephased_defect')!r}, expected {want - 2 * n + 1}"
        )


def check_conjecture(entry: Entry, payload: dict, problems: list[str]) -> None:
    defect = expected_defect(entry.base)
    nullity = RECORDED_REFUTED.get(entry.base, defect)
    verdict = REFUTED if entry.base in RECORDED_REFUTED else SUPPORTED
    got_nullity = payload.get("rational_nullity")
    got_defect = payload.get("numeric_defect")
    if not (isinstance(got_nullity, int) and isinstance(got_defect, int) and got_nullity <= got_defect):
        problems.append(f"rational_nullity {got_nullity!r} is not at most numeric_defect {got_defect!r}")
    if got_defect != defect:
        problems.append(f"numeric_defect is {got_defect!r}, expected {defect}")
    if got_nullity != nullity:
        problems.append(f"rational_nullity is {got_nullity!r}, expected {nullity}")
    if payload.get("verdict") != verdict:
        problems.append(f"verdict is {payload.get('verdict')!r}, expected {verdict}")
    if payload.get("q") != entry.base_q:
        problems.append(f"q is {payload.get('q')!r}, expected the base phase order {entry.base_q}")
    _check_certificate(payload, problems)


def scan_digest(path: str) -> tuple[str, list[list[str]]]:
    """(sha256 without the gap_ratio column, rows) of a scan CSV."""
    with open(path, newline="") as handle:
        rows = list(csv.reader(handle))
    gap = SCAN_HEADER.index("gap_ratio")
    digest = hashlib.sha256()
    for row in rows:
        digest.update(("\t".join(row[:gap] + row[gap + 1 :]) + "\n").encode())
    return digest.hexdigest(), rows


def check_scan(entry: Entry, payload: dict, problems: list[str]) -> None:
    if payload.get("cells") != SCAN_CELLS:
        problems.append(f"cells is {payload.get('cells')!r}, expected {SCAN_CELLS}")
    if payload.get("errors") != 0:
        problems.append(f"errors is {payload.get('errors')!r}, expected 0")
    if payload.get("defect_values") != SCAN_DEFECT_VALUES:
        problems.append(f"defect_values is {payload.get('defect_values')!r}, expected {SCAN_DEFECT_VALUES}")
    out = entry.argv[entry.argv.index("--out") + 1]
    try:
        digest, rows = scan_digest(out)
    except (OSError, UnicodeDecodeError, csv.Error) as exc:
        problems.append(f"cannot read scan CSV: {exc}")
        return
    if not rows or rows[0] != SCAN_HEADER:
        problems.append("scan CSV header differs")
        return
    body = rows[1:]
    if len(body) != SCAN_CELLS:
        problems.append(f"scan CSV has {len(body)} cells, expected {SCAN_CELLS}")
    flat_defect = fourier_defect(make_group([2, 4]))
    flat = [row for row in body if row[0] == SCAN_FLAT_CELL]
    if len(flat) != 1 or flat[0][2] != str(flat_defect):
        problems.append(f"flat cell is {flat!r}, expected defect {flat_defect}")
    for row in body:
        try:
            gap = float(row[4])
            defect, dephased = int(row[2]), int(row[3])
        except (ValueError, IndexError):
            problems.append(f"malformed scan row {row!r}")
            break
        if row[5] != "true" or row[6] or not gap >= DEFAULT_GAP_THRESHOLD or dephased != defect - 2 * entry.n + 1:
            problems.append(f"uncertified or inconsistent scan row {row!r}")
            break
    if digest != SCAN_DIGEST:
        problems.append(f"scan CSV digest {digest} differs from the recorded {SCAN_DIGEST}")


CHECKS = {"defect": check_defect, "conjecture": check_conjecture, "scan": check_scan}


def check_call(entry: Entry, rc, stdout: str, stderr: str) -> list[str]:
    """Problems with one call's result; empty when it passed."""
    if rc != 0:
        return [f"exit code {rc!r}: {stderr.strip()[:300]}"]
    try:
        payload = json.loads(stdout)
    except json.JSONDecodeError as exc:
        return [f"stdout is not JSON: {exc}"]
    if not isinstance(payload, dict):
        return ["stdout is not a JSON object"]
    problems: list[str] = []
    CHECKS[entry.command](entry, payload, problems)
    return problems
