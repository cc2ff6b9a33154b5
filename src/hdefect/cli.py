"""Command-line front end.

Matrices are addressed by a small constructor grammar:

    fourier:<N1xN2x...>
    tensor:(<spec>,<spec>)
    deformed:(<spec>,<inline-turns-or-path>,<spec>)
    haagerup:<turn>
    tao
    circulant:<t1,t2,...>
    file:<path>

Turns are fractions of a full rotation, written a/b or as an integer, with an
optional literal "turn" suffix. Inline deformation parameters use bracket
syntax, e.g. [[0,0],[0,1/8]]; a parameter file contains the same bracket text.
Machine output is JSON on stdout; scan tables are CSV. Exit status is 0 on
success, 1 on a domain error (non-Hadamard input, ambiguous rank, bad file),
and 2 on a usage error.
"""

from __future__ import annotations

import argparse
import contextlib
import csv
import functools
import json
import math
import sys
from collections import Counter
from dataclasses import dataclass
from fractions import Fraction
from typing import Callable, Union

from .charstats import ds_defect_estimate
from .errors import DomainError, SpecParseError, check_bytes
from .exact import conjecture_check
from .groups import fourier_defect, make_group
from .matrices import (
    VERIFY_TOL,
    DeformationParameters,
    HadamardMatrix,
    circulant_from_eigenvalues,
    deformed_tensor,
    fourier_matrix,
    haagerup_matrix,
    load_matrix,
    matrix_to_dict,
    save_matrix,
    tao_matrix,
    tensor_product,
    verify_hadamard,
)
from .tangent import (
    DEFAULT_GAP_THRESHOLD,
    DEFAULT_REL_TOL,
    ScanGrid,
    _defect_pass,
    _scan_cells,
)

MatrixSpec = Union[
    "FourierSpec", "TensorSpec", "DeformedSpec", "HaagerupSpec", "TaoSpec", "CirculantSpec", "FileSpec"
]


@dataclass(frozen=True)
class FourierSpec:
    orders: tuple[int, ...]

    def canonical(self) -> str:
        return "fourier:" + "x".join(str(n) for n in self.orders)


@dataclass(frozen=True)
class TensorSpec:
    left: MatrixSpec
    right: MatrixSpec

    def canonical(self) -> str:
        return f"tensor:({self.left.canonical()},{self.right.canonical()})"


@dataclass(frozen=True)
class DeformedSpec:
    left: MatrixSpec
    parameters: Union[tuple, str]  # inline turn rows, or a file path
    right: MatrixSpec

    def canonical(self) -> str:
        if isinstance(self.parameters, str):
            middle = self.parameters
        else:
            rows = ("[" + ",".join(str(t) for t in row) + "]" for row in self.parameters)
            middle = "[" + ",".join(rows) + "]"
        return f"deformed:({self.left.canonical()},{middle},{self.right.canonical()})"


@dataclass(frozen=True)
class HaagerupSpec:
    turn: Fraction

    def canonical(self) -> str:
        return f"haagerup:{self.turn}"


@dataclass(frozen=True)
class TaoSpec:
    def canonical(self) -> str:
        return "tao"


@dataclass(frozen=True)
class CirculantSpec:
    turns: tuple[Fraction, ...]

    def canonical(self) -> str:
        return "circulant:" + ",".join(str(t) for t in self.turns)


@dataclass(frozen=True)
class FileSpec:
    path: str

    def canonical(self) -> str:
        return f"file:{self.path}"


class _SpecParser:
    def __init__(self, text: str):
        self.text = text
        self.pos = 0

    def fail(self, message: str):
        raise SpecParseError(message, self.text, self.pos)

    def peek(self) -> str:
        return self.text[self.pos] if self.pos < len(self.text) else ""

    def expect(self, ch: str):
        if self.peek() != ch:
            self.fail(f"expected {ch!r}")
        self.pos += 1

    def literal(self, word: str) -> bool:
        if self.text.startswith(word, self.pos):
            self.pos += len(word)
            return True
        return False

    def parse_spec(self) -> MatrixSpec:
        if self.literal("fourier:"):
            return FourierSpec(self.parse_orders())
        if self.literal("tensor:("):
            left = self.parse_spec()
            self.expect(",")
            right = self.parse_spec()
            self.expect(")")
            return TensorSpec(left, right)
        if self.literal("deformed:("):
            start = self.pos
            left = self.parse_spec()
            if isinstance(left, CirculantSpec) and len(left.turns) > 1:
                # A parameter path that reads as a turn was taken as one more eigenvalue: give it back first,
                # the only split with which a nested right spec such as tensor:(...) parses.
                end, self.pos = self.pos, self.text.rindex(",", start, self.pos)
                try:
                    return self.parse_deformed_rest(CirculantSpec(left.turns[:-1]))
                except SpecParseError:
                    self.pos = end
            return self.parse_deformed_rest(left)
        if self.literal("haagerup:"):
            return HaagerupSpec(self.parse_turn())
        if self.literal("tensor") or self.literal("deformed"):
            self.fail("expected ':(' after constructor name")
        if self.literal("tao"):
            return TaoSpec()
        if self.literal("circulant:"):
            turns = [self.parse_turn()]
            while self.peek() == ",":
                saved = self.pos
                self.pos += 1
                try:
                    turns.append(self.parse_turn())
                except SpecParseError:
                    self.pos = saved
                    break
            return CirculantSpec(tuple(turns))
        if self.literal("file:"):
            return FileSpec(self.parse_path())
        self.fail("unknown constructor")

    def parse_deformed_rest(self, left: MatrixSpec) -> DeformedSpec:
        """The parameters and the right spec of a deformed product after its left spec, through ')'."""
        self.expect(",")
        parameters = self.parse_inline_turns() if self.peek() == "[" else self.parse_path()
        self.expect(",")
        right = self.parse_spec()
        self.expect(")")
        return DeformedSpec(left, parameters, right)

    def parse_orders(self) -> tuple[int, ...]:
        orders = [self.parse_int()]
        while self.peek() == "x":
            self.pos += 1
            orders.append(self.parse_int())
        for n in orders:
            if n < 1:
                self.fail(f"cycle order must be >= 1, got {n}")
        return tuple(orders)

    def parse_int(self) -> int:
        start = self.pos
        while self.peek().isdigit():
            self.pos += 1
        if self.pos == start:
            self.fail("expected an integer")
        return int(self.text[start : self.pos])

    def parse_turn(self) -> Fraction:
        negative = self.literal("-")
        numerator = self.parse_int()
        denominator = 1
        if self.peek() == "/":
            self.pos += 1
            denominator = self.parse_int()
            if denominator == 0:
                self.fail("turn denominator is zero")
        self.literal("turn")
        value = Fraction(numerator, denominator)
        return (-value if negative else value) % 1

    def parse_inline_turns(self) -> tuple:
        return self.parse_bracketed(lambda: self.parse_bracketed(self.parse_turn))

    def parse_bracketed(self, parse_item) -> tuple:
        self.expect("[")
        items = [parse_item()]
        while self.peek() == ",":
            self.pos += 1
            items.append(parse_item())
        self.expect("]")
        return tuple(items)

    def parse_path(self) -> str:
        # Paths may not contain ',' or ')': those end the path in nested specs.
        start = self.pos
        while self.pos < len(self.text) and self.text[self.pos] not in ",)":
            self.pos += 1
        if self.pos == start:
            self.fail("empty path")
        return self.text[start : self.pos]


def _parse_whole(text: str, rule):
    """`rule` of a parser over the stripped text, which must consume all of it."""
    parser = _SpecParser(text.strip())
    result = rule(parser)
    if parser.pos != len(parser.text):
        parser.fail("unexpected trailing text")
    return result


def parse_matrix_spec(text: str) -> MatrixSpec:
    return _parse_whole(text, _SpecParser.parse_spec)


def parse_parameter_turns(text: str) -> tuple:
    """Parse bracket syntax [[t,...],[t,...]] from a string or parameter file."""
    return _parse_whole(text, _SpecParser.parse_inline_turns)


def _checked_order(spec: MatrixSpec) -> int | None:
    """Order of the matrix a spec builds, from its parse tree, or None where a file must be read to learn it. Walked in
    build order, each Fourier or circulant factor and each product of known order meets the library's N^2 byte cap in
    the library's words before any factor is built or file read; a product over a file is checked as it is built."""
    if isinstance(spec, (TensorSpec, DeformedSpec)):
        left, right = _checked_order(spec.left), _checked_order(spec.right)
        if left is None or right is None:
            return None
        what, order = ("tensor product" if isinstance(spec, TensorSpec) else "deformed tensor"), left * right
    elif isinstance(spec, FourierSpec):
        what, order = "Fourier matrix", math.prod(spec.orders)
    elif isinstance(spec, CirculantSpec):
        what, order = "circulant matrix", len(spec.turns)
    else:  # haagerup and tao have order 6
        return None if isinstance(spec, FileSpec) else 6
    check_bytes(f"{what} of order {order}", order**2 * 8)
    return order


def build_matrix(*specs: MatrixSpec) -> HadamardMatrix | tuple[HadamardMatrix, ...]:
    """The matrix of one spec, or a tuple of the matrices of several; every tree is checked before any is built."""
    for spec in specs:
        _checked_order(spec)
    built = tuple(map(_build, specs))
    return built[0] if len(built) == 1 else built


def _build(spec: MatrixSpec) -> HadamardMatrix:
    """The matrix of a spec whose tree `_checked_order` has passed."""
    if isinstance(spec, FourierSpec):
        return fourier_matrix(make_group(list(spec.orders)))
    if isinstance(spec, (TensorSpec, DeformedSpec)):
        left, right = _build(spec.left), _build(spec.right)
    if isinstance(spec, TensorSpec):
        return tensor_product(left, right)
    if isinstance(spec, DeformedSpec):
        if isinstance(spec.parameters, str):
            with open(spec.parameters) as handle:
                turns = parse_parameter_turns(handle.read())
        else:
            turns = spec.parameters
        params = DeformationParameters.from_turns([list(row) for row in turns])
        return deformed_tensor(left, params, right)
    if isinstance(spec, HaagerupSpec):
        return haagerup_matrix(spec.turn)
    if isinstance(spec, TaoSpec):
        return tao_matrix()
    if isinstance(spec, CirculantSpec):
        return circulant_from_eigenvalues(list(spec.turns))
    if isinstance(spec, FileSpec):
        return load_matrix(spec.path)
    raise TypeError(f"not a matrix spec: {spec!r}")


def _parse_grid(text: str) -> ScanGrid:
    head, sep, tail = text.partition(":")
    try:
        return ScanGrid(int(head), tuple(int(part) for part in tail.split(",")) if sep else None)
    except ValueError as exc:
        raise SpecParseError(f"bad grid: {exc}", text, 0) from None


def _parse_orders_arg(text: str):
    spec = parse_matrix_spec(f"fourier:{text}")
    return make_group(list(spec.orders))


def _emit(payload: dict, out_path=None):
    text = json.dumps(payload, indent=2)
    if out_path:
        with open(out_path, "w") as handle:
            handle.write(text + "\n")
    else:
        print(text)


def _cmd_gen(args) -> int:
    matrix = build_matrix(parse_matrix_spec(args.spec))
    if args.out:
        save_matrix(matrix, args.out)
    else:
        print(json.dumps(matrix_to_dict(matrix), indent=2))
    return 0


def _cmd_verify(args) -> int:
    matrix = build_matrix(parse_matrix_spec(args.spec))
    report = verify_hadamard(matrix, tol=args.tol)
    _emit(
        {
            "passed": bool(report.passed),
            "max_modulus_error": float(report.max_modulus_error),
            "max_orthogonality_error": float(report.max_orthogonality_error),
            "tolerance": float(report.tolerance),
            "exact": bool(report.exact),
        }
    )
    return 0 if report.passed else 1


def _cmd_defect(args) -> int:
    matrix = build_matrix(parse_matrix_spec(args.spec))
    report, basis = _defect_pass(matrix, args.tol, args.gap, dephased=args.dephased, basis=bool(args.basis))
    payload = {
        "provenance": report.provenance,
        "n": report.n,
        "defect": report.undephased_defect,
        "rank": report.rank,
        "gap_ratio": report.gap_ratio,
        "certified": report.certified,
        "rel_tol": report.rel_tol,
        "gap_threshold": report.gap_threshold,
    }
    if args.dephased:
        payload["dephased_defect"] = report.dephased_defect
    if args.basis:
        elements = [[float(x) for x in element.ravel()] for element in basis]
        _emit({"n": matrix.n, "dimension": len(basis), "basis": elements}, args.basis)
    _emit(payload)
    return 0


def _cmd_formula(args) -> int:
    print(fourier_defect(_parse_orders_arg(args.group)))
    return 0


def _cmd_scan(args) -> int:
    specs, grid = [parse_matrix_spec(args.h_spec), parse_matrix_spec(args.k_spec)], _parse_grid(args.grid)
    h, k = build_matrix(*specs)  # both trees are checked before either matrix is built
    cells = _scan_cells(h, k, grid, args.tol, args.gap)  # refuses before the CSV is opened
    count, defects, error_types, worst = 0, set(), Counter(), None
    with open(args.out, "w", newline="") if args.out else contextlib.nullcontext(sys.stdout) as handle:
        writer = csv.writer(handle)
        writer.writerow(["cell_id", "l_turns", "defect", "dephased_defect", "gap_ratio", "certified", "error"])
        for count, cell in enumerate(cells, 1):  # each row written, and the summary folded, as its cell arrives
            writer.writerow(
                [
                    cell.cell_id,
                    ";".join([",".join(map(str, row)) for row in cell.parameter_turns]),
                    "" if cell.defect is None else cell.defect,
                    "" if cell.dephased_defect is None else cell.dephased_defect,
                    "" if cell.gap_ratio is None else repr(cell.gap_ratio),
                    "true" if cell.certified else "false",
                    cell.error or "",
                ]
            )
            defects.add(cell.defect)
            error_types.update([cell.error_type] if cell.error else [])
            if cell.certified and (worst is None or cell.gap_ratio < worst.gap_ratio):  # the first smallest, as min
                worst = cell
    if args.out:
        _emit(
            {
                "cells": count,
                "defect_values": sorted(defects - {None}),
                "errors": error_types.total(),
                "out": args.out,
                "min_gap_ratio": None if worst is None else worst.gap_ratio,
                "worst_cell": None if worst is None else worst.cell_id,
                "errors_by_type": dict(sorted(error_types.items())),
            }
        )
    return 0


def _cmd_conjecture(args) -> int:
    matrix = build_matrix(parse_matrix_spec(args.spec))
    report = conjecture_check(matrix, rel_tol=args.tol, gap_threshold=args.gap)
    payload = {
        "provenance": report.provenance,
        "q": report.root_order,
        "phi_q": report.degree,
        "rational_nullity": report.rational_nullity,
        "numeric_defect": report.numeric_defect,
        "gap_ratio": report.gap_ratio,
        "verdict": report.verdict,
        "exact_upper_bound": report.exact_upper_bound,
        "certificate": {"method": report.method, "prime": report.prime},
    }
    if args.report:  # written first, so a failed write leaves stdout empty
        _emit(payload, args.report)
    _emit(payload)
    return 0


def _cmd_ds(args) -> int:
    group = _parse_orders_arg(args.group)
    window = group.exponent if args.window is None else args.window
    estimate = ds_defect_estimate(group, args.k, window)
    _emit(
        {
            "group": args.group,
            "k": args.k,
            "window": window,
            "estimate": str(estimate),
            "exact": window % group.exponent == 0,
            "reference_defect": fourier_defect(group),
        }
    )
    return 0


def _float_type(rule: str, accepts: Callable[[float], bool]) -> Callable[[str], float]:
    """An argparse type: the float of the text, or a usage error naming the text if it is no number or breaks `rule`."""

    def parse(text: str) -> float:
        try:
            value = float(text)
        except ValueError:
            raise argparse.ArgumentTypeError(f"not a number: {text!r}") from None
        if not accepts(value):
            raise argparse.ArgumentTypeError(f"{rule}, got {text}")
        return value

    return parse


# A --tol: below machine epsilon rounding noise counts toward the rank, and from 1 no singular value does.
_rel_tol = _float_type(f"must lie in [{sys.float_info.epsilon:.4g}, 1)", lambda v: sys.float_info.epsilon <= v < 1)
# A verify --tol bounds an error and a --gap ratio is at least 1; both allow inf and refuse NaN, which nothing is below.
_verify_tol = _float_type("must be at least 0", lambda v: v >= 0)
_gap_threshold = _float_type("must be at least 1", lambda v: v >= 1)


def _add_rank_options(p: argparse.ArgumentParser) -> None:
    p.add_argument("--tol", type=_rel_tol, default=DEFAULT_REL_TOL, help="relative singular value cutoff, in [eps, 1)")
    p.add_argument("--gap", type=_gap_threshold, default=DEFAULT_GAP_THRESHOLD, help="gap ratio that certifies, >= 1")


def build_arg_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="hdefect",
        description="Construct complex Hadamard matrices and compute tangent-space defects.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("gen", help="build a matrix and write it as JSON")
    p.add_argument("spec", help="matrix spec, e.g. fourier:2x3 or haagerup:1/8")
    p.add_argument("--out", default=None, help="output file (default: stdout)")
    p.set_defaults(handler=_cmd_gen)

    p = sub.add_parser("verify", help="check unimodularity and row orthogonality")
    p.add_argument("spec")
    p.add_argument("--tol", type=_verify_tol, default=VERIFY_TOL)
    p.set_defaults(handler=_cmd_verify)

    p = sub.add_parser("defect", help="undephased defect with rank certification")
    p.add_argument("spec")
    _add_rank_options(p)
    p.add_argument("--dephased", action="store_true", help="also run the cross-checked dephased path")
    p.add_argument("--basis", default=None, help="write an orthonormal tangent basis to this file")
    p.set_defaults(handler=_cmd_defect)

    p = sub.add_parser("formula", help="closed-form defect of a Fourier matrix")
    p.add_argument("--group", required=True, help="cycle orders, e.g. 2x2 or 12")
    p.set_defaults(handler=_cmd_formula)

    p = sub.add_parser("scan", help="defect over a grid of deformation parameters")
    p.add_argument("h_spec", metavar="h-spec")
    p.add_argument("k_spec", metavar="k-spec")
    p.add_argument("--grid", required=True, help="denominator, optionally m:n1,n2,...")
    p.add_argument("--out", default=None, help="CSV file (default: stdout)")
    _add_rank_options(p)
    p.set_defaults(handler=_cmd_scan)

    p = sub.add_parser("conjecture", help="rational nullity versus numeric defect")
    p.add_argument("spec")
    _add_rank_options(p)
    p.add_argument("--report", default=None, help="also write the JSON report here")
    p.set_defaults(handler=_cmd_conjecture)

    p = sub.add_parser("ds", help="fixed-point statistic estimate of the Fourier defect")
    p.add_argument("--group", required=True, help="cycle orders, e.g. 2x3x4")
    p.add_argument("--k", type=int, default=1, help="moment index")
    p.add_argument("--l", dest="window", type=int, default=None, help="window length (default: the group exponent)")
    p.set_defaults(handler=_cmd_ds)

    return parser


@functools.cache
def _arg_parser() -> argparse.ArgumentParser:
    """The parser of `run`, built by its first call and reused by the later ones."""
    return build_arg_parser()


def run(argv=None) -> int:
    try:
        args = _arg_parser().parse_args(argv)
    except SystemExit as exc:
        return exc.code if isinstance(exc.code, int) else 2
    try:
        return args.handler(args)
    except (DomainError, ValueError, OSError, RuntimeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2 if isinstance(exc, SpecParseError) else 1


def main() -> None:
    raise SystemExit(run())
