"""CLI surface: spec grammar, subcommands, file formats, exit codes."""

import csv
import json
import math
import os
import subprocess
import sys
import time
from pathlib import Path
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import hdefect
from hdefect import charstats, cli, errors, groups, matrices, tangent
from hdefect.cli import (
    CirculantSpec,
    DeformedSpec,
    FileSpec,
    FourierSpec,
    HaagerupSpec,
    TaoSpec,
    TensorSpec,
    build_matrix,
    parse_matrix_spec,
    run,
)
from hdefect.errors import SpecParseError
from hdefect.groups import abelian_group_types, fourier_defect, make_group
from hdefect.matrices import (
    DeformationParameters,
    deformed_tensor,
    fourier_matrix,
    save_matrix,
)
from hdefect.matrices import HadamardMatrix


def test_parse_basic_constructors():
    assert parse_matrix_spec("fourier:2x2") == FourierSpec((2, 2))
    assert parse_matrix_spec("haagerup:1/8") == HaagerupSpec(Fraction(1, 8))
    assert parse_matrix_spec("tao") == TaoSpec()
    assert parse_matrix_spec("circulant:0,1/4") == CirculantSpec((Fraction(0), Fraction(1, 4)))
    assert parse_matrix_spec("tensor:(fourier:2,fourier:3)") == TensorSpec(
        FourierSpec((2,)), FourierSpec((3,))
    )
    assert parse_matrix_spec("file:out/m.json") == FileSpec("out/m.json")


def test_parse_deformed_inline():
    spec = parse_matrix_spec("deformed:(fourier:2,[[0,0],[0,1/8]],fourier:2)")
    assert spec == DeformedSpec(
        FourierSpec((2,)),
        ((Fraction(0), Fraction(0)), (Fraction(0), Fraction(1, 8))),
        FourierSpec((2,)),
    )
    built = build_matrix(spec)
    params = DeformationParameters.from_turns([[0, 0], [0, Fraction(1, 8)]])
    expected = deformed_tensor(fourier_matrix(make_group([2])), params, fourier_matrix(make_group([2])))
    assert built.turns == expected.turns


def test_parse_handles_nesting_and_suffix():
    spec = parse_matrix_spec("tensor:(circulant:0,1/4,tao)")
    assert spec == TensorSpec(CirculantSpec((Fraction(0), Fraction(1, 4))), TaoSpec())
    assert parse_matrix_spec("tensor:(file:a.json,tao)") == TensorSpec(FileSpec("a.json"), TaoSpec())
    assert parse_matrix_spec("haagerup:1/8turn") == HaagerupSpec(Fraction(1, 8))
    assert parse_matrix_spec("haagerup:-1/8") == HaagerupSpec(Fraction(7, 8))


def test_canonical_round_trip():
    specs = [
        FourierSpec((2, 3, 4)),
        TensorSpec(TensorSpec(TaoSpec(), FourierSpec((2,))), HaagerupSpec(Fraction(5, 7))),
        DeformedSpec(FourierSpec((2,)), ((Fraction(0), Fraction(0)), (Fraction(0), Fraction(1, 8))), FourierSpec((2,))),
        DeformedSpec(FourierSpec((3,)), "params.turns", FourierSpec((2,))),
        CirculantSpec((Fraction(0), Fraction(1, 4), Fraction(1, 2))),
        FileSpec("m.json"),
    ]
    for spec in specs:
        assert parse_matrix_spec(spec.canonical()) == spec
    assert parse_matrix_spec("haagerup:-1/8").canonical() == "haagerup:7/8"


TURNS = st.builds(Fraction, st.integers(0, 30), st.integers(1, 24)).map(lambda t: t % 1)
# Paths of digits, '/' and '.' read as turns, also after a circulant's eigenvalues.
PATHS = st.one_of(
    st.builds(str.__add__, st.sampled_from("abz"), st.text(alphabet="abz09._-/", max_size=7)),
    st.text(alphabet="0123456789/.", min_size=1, max_size=6),
)
TURN_ROWS = st.lists(st.lists(TURNS, min_size=1, max_size=3).map(tuple), min_size=1, max_size=3).map(tuple)
LEAF_SPECS = st.one_of(
    st.lists(st.integers(1, 12), min_size=1, max_size=3).map(lambda orders: FourierSpec(tuple(orders))),
    st.builds(HaagerupSpec, TURNS),
    st.just(TaoSpec()),
    st.lists(TURNS, min_size=1, max_size=4).map(lambda turns: CirculantSpec(tuple(turns))),
    st.builds(FileSpec, PATHS),
)
SPECS = st.recursive(
    LEAF_SPECS,
    lambda inner: st.one_of(
        st.builds(TensorSpec, inner, inner),
        st.builds(DeformedSpec, inner, st.one_of(TURN_ROWS, PATHS), inner),
    ),
    max_leaves=6,
)


@settings(max_examples=100, deadline=None, derandomize=True)
@given(SPECS)
def test_canonical_round_trip_of_generated_specs(spec):
    assert parse_matrix_spec(spec.canonical()) == spec


def test_parameter_path_that_reads_as_a_turn_after_a_circulant():
    spec = DeformedSpec(CirculantSpec((Fraction(0),)), "0", TaoSpec())
    assert spec.canonical() == "deformed:(circulant:0,0,tao)"
    assert parse_matrix_spec(spec.canonical()) == spec
    # Taking the greedy split first would read "tensor:(tao" as the path here.
    nested = DeformedSpec(CirculantSpec((Fraction(0),)), "0", TensorSpec(TaoSpec(), FourierSpec((2,))))
    assert parse_matrix_spec(nested.canonical()) == nested
    partial = DeformedSpec(CirculantSpec((Fraction(0), Fraction(1, 4))), "1/2/3", TaoSpec())
    assert parse_matrix_spec(partial.canonical()) == partial
    # A path that does not read as a turn stays a path.
    assert parse_matrix_spec("deformed:(circulant:0,1/4,tao.json,tao)") == DeformedSpec(
        CirculantSpec((Fraction(0), Fraction(1, 4))), "tao.json", TaoSpec()
    )


def test_parse_errors_carry_positions():
    with pytest.raises(SpecParseError) as info:
        parse_matrix_spec("bogus:3")
    assert info.value.position == 0
    with pytest.raises(SpecParseError) as info:
        parse_matrix_spec("fourier:")
    assert info.value.position == 8
    with pytest.raises(SpecParseError):
        parse_matrix_spec("tensor:(fourier:2)")
    with pytest.raises(SpecParseError):
        parse_matrix_spec("haagerup:1/0")
    with pytest.raises(SpecParseError):
        parse_matrix_spec("taox")
    with pytest.raises(SpecParseError):
        parse_matrix_spec("fourier:2x0")


def test_gen_defect_file_round_trip(tmp_path, capsys):
    out = tmp_path / "f6.json"
    assert run(["gen", "fourier:6", "--out", str(out)]) == 0
    capsys.readouterr()
    assert run(["defect", f"file:{out}"]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["defect"] == 15
    assert payload["certified"] is True
    assert payload["gap_ratio"] >= 1e6
    assert payload["n"] == 6
    capsys.readouterr()
    assert run(["defect", "fourier:6"]) == 0
    direct = json.loads(capsys.readouterr().out)
    assert direct["defect"] == payload["defect"]


def test_gen_stdout_json(capsys):
    assert run(["gen", "tao"]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["n"] == 6
    assert payload["repr"] == "phase"


def test_verify_pass_and_fail(tmp_path, capsys):
    assert run(["verify", "tao"]) == 0
    report = json.loads(capsys.readouterr().out)
    assert report["passed"] is True
    assert report["exact"] is True

    flat = HadamardMatrix.from_turns([[0, 0], [0, 0]])
    path = tmp_path / "bad.json"
    save_matrix(flat, str(path))
    assert run(["verify", f"file:{path}"]) == 1
    report = json.loads(capsys.readouterr().out)
    assert report["passed"] is False


def test_formula_prints_bare_integer(capsys):
    assert run(["formula", "--group", "2x2"]) == 0
    assert capsys.readouterr().out.strip() == "10"
    # A prime past the 10^6 trial divisors is decided by Miller-Rabin at once; its defect is 2n - 1.
    start = time.perf_counter()
    assert run(["formula", "--group", "1000000000000000003"]) == 0
    assert capsys.readouterr().out == "2000000000000000005\n"
    assert time.perf_counter() - start < 5.0


def test_formula_agrees_with_defect_for_small_groups(capsys):
    for order in range(1, 25):
        for group in abelian_group_types(order):
            arg = "x".join(str(n) for n in group.cycle_orders) or "1"
            assert run(["formula", "--group", arg]) == 0
            formula_out = int(capsys.readouterr().out.strip())
            assert run(["defect", f"fourier:{arg}"]) == 0
            defect_out = json.loads(capsys.readouterr().out)["defect"]
            assert formula_out == defect_out == fourier_defect(group)


def test_defect_dephased_and_basis(tmp_path, capsys):
    basis_path = tmp_path / "basis.json"
    assert run(["defect", "fourier:3", "--dephased", "--basis", str(basis_path)]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["defect"] == 5
    assert payload["dephased_defect"] == 0
    stored = json.loads(basis_path.read_text())
    assert stored["n"] == 3
    assert stored["dimension"] == 5
    assert len(stored["basis"]) == 5
    assert all(len(row) == 9 for row in stored["basis"])


def test_defect_basis_honours_gap(tmp_path, capsys):
    # At --tol 0.6 the rank of F6 is certified at gap 1.73, below the default 1e6.
    basis_path = tmp_path / "basis.json"
    assert run(["defect", "fourier:6", "--tol", "0.6", "--gap", "1.01", "--basis", str(basis_path)]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert json.loads(basis_path.read_text())["dimension"] == payload["defect"]


def test_scan_csv_and_summary(tmp_path, capsys):
    out = tmp_path / "table.csv"
    assert run(["scan", "fourier:2", "fourier:2", "--grid", "16", "--out", str(out)]) == 0
    summary = json.loads(capsys.readouterr().out)
    assert summary["cells"] == 16
    assert summary["defect_values"] == [8, 10]
    assert summary["errors"] == 0
    with open(out, newline="") as handle:
        rows = list(csv.DictReader(handle))
    assert len(rows) == 16
    assert set(rows[0]) == {"cell_id", "l_turns", "defect", "dephased_defect", "gap_ratio", "certified", "error"}
    for row in rows:
        expected = 10 if row["cell_id"] in ("0", "1/2") else 8
        assert int(row["defect"]) == expected
        assert row["certified"] == "true"
        assert row["error"] == ""
    assert rows[1]["l_turns"] == "0,0;0,1/16"


def test_scan_summary_explains_itself(tmp_path, capsys):
    out = tmp_path / "table.csv"
    assert run(["scan", "fourier:2", "fourier:4", "--grid", "4", "--out", str(out)]) == 0
    summary = json.loads(capsys.readouterr().out)
    with open(out, newline="") as handle:
        rows = list(csv.DictReader(handle))
    worst = min(rows, key=lambda row: float(row["gap_ratio"]))
    assert summary["min_gap_ratio"] == float(worst["gap_ratio"])
    assert summary["worst_cell"] == worst["cell_id"]
    assert summary["errors_by_type"] == {}
    assert list(summary)[:4] == ["cells", "defect_values", "errors", "out"]

    assert run(["scan", "fourier:2", "fourier:2", "--grid", "4", "--gap", "1e300", "--out", str(out)]) == 0
    summary = json.loads(capsys.readouterr().out)
    assert summary["errors_by_type"] == {"AmbiguousRankError": summary["errors"]}
    # Over the ranked columns no cell of F2 (x) F2 has d' = 0, so no gap is infinite and none is certified.
    assert summary["errors"] == summary["cells"] == 4
    assert (summary["min_gap_ratio"], summary["worst_cell"]) == (None, None)

    bad = tmp_path / "bad.json"
    save_matrix(HadamardMatrix.from_turns([[0, 0], [0, 0]]), str(bad))
    assert run(["scan", f"file:{bad}", "fourier:2", "--grid", "2", "--out", str(out)]) == 0
    summary = json.loads(capsys.readouterr().out)
    assert summary["errors_by_type"] == {"NonHadamardError": 2}
    assert (summary["min_gap_ratio"], summary["worst_cell"]) == (None, None)


def test_scan_cell_cap_before_enumeration(monkeypatch, capsys):
    # 16^9 cells, about 6.9e10: refused from the count alone.
    start = time.perf_counter()
    assert run(["scan", "fourier:4", "fourier:4", "--grid", "16"]) == 1
    assert time.perf_counter() - start < 1.0
    assert "deformation scan grid needs 68719476736 elements" in capsys.readouterr().err
    monkeypatch.setattr(errors, "MAX_ELEMENTS", 16)
    assert run(["scan", "fourier:2", "fourier:2", "--grid", "16"]) == 0
    assert run(["scan", "fourier:2", "fourier:2", "--grid", "8:1,3,5"]) == 0
    capsys.readouterr()
    # With the flat cell prepended, 16 grid cells make 17.
    assert run(["scan", "fourier:2", "fourier:2", "--grid", "32:1,2,3,4,5,6,7,8,9,10,11,12,13,14,15,16"]) == 1
    assert "deformation scan grid needs 17 elements, above the cap 16" in capsys.readouterr().err


def test_scan_computes_each_cell_at_its_own_order(tmp_path, capsys):
    # A cell of order 2000000014, whose own check would sweep 500000003 Galois conjugates: exact cells are verified
    # by their factors, so the scan runs, and the cell's gap ratio is that of a single call on its floating copy.
    out = tmp_path / "scan.csv"
    assert run(["scan", "fourier:2", "fourier:2", "--grid", "1000000007:1", "--out", str(out)]) == 0
    with open(out, newline="") as handle:
        rows = list(csv.DictReader(handle))
    assert [(row["cell_id"], row["defect"]) for row in rows] == [("0", "10"), ("1/1000000007", "8")]
    f2 = fourier_matrix(make_group([2]))
    cell = deformed_tensor(f2, DeformationParameters.from_turns([[0, 0], [0, Fraction(1, 1000000007)]]), f2)
    floating = HadamardMatrix.from_values(cell.to_values())
    assert float(rows[1]["gap_ratio"]) == tangent.undephased_defect(floating).gap_ratio
    capsys.readouterr()
    # Cells of orders 178 and 194 are computed at their own orders, not over their common order 17266.
    assert run(["scan", "fourier:2", "fourier:2", "--grid", "8633:89,97", "--out", str(out)]) == 0
    with open(out, newline="") as handle:
        rows = list(csv.DictReader(handle))
    assert [(row["cell_id"], row["defect"]) for row in rows] == [("0", "10"), ("1/97", "8"), ("1/89", "8")]
    assert json.loads(capsys.readouterr().out)["errors"] == 0


@pytest.mark.parametrize("grid", ["4:0,4", "4:1,5", "8:2,1,-6"])
def test_scan_refuses_grid_numerators_that_name_one_turn_twice(grid, capsys):
    # Each would make two cells with one cell_id.
    assert run(["scan", "fourier:2", "fourier:2", "--grid", grid]) == 2
    assert "bad grid: grid numerators" in capsys.readouterr().err


def test_defect_basis_is_one_pass(monkeypatch, tmp_path, capsys):
    counts = {"verify_hadamard": 0, "tangent_system": 0, "pair_rows": 0}
    for name in counts:
        def counted(*args, _name=name, _original=getattr(tangent, name), **kwargs):
            counts[_name] += 1
            return _original(*args, **kwargs)

        monkeypatch.setattr(tangent, name, counted)
    svd_calls = []
    svd = np.linalg.svd

    def counting_svd(*args, **kwargs):
        svd_calls.append(kwargs.get("compute_uv", True))
        return svd(*args, **kwargs)

    monkeypatch.setattr(np.linalg, "svd", counting_svd)
    basis = tmp_path / "b.json"
    assert run(["defect", "fourier:6", "--dephased", "--basis", str(basis)]) == 0
    # The ranked, residual and dephased systems: three assemblies, each by tangent_system.
    assert tuple(counts.values()) == (1, 3, 3) and svd_calls == [True, False]
    payload = json.loads(capsys.readouterr().out)
    assert json.loads(basis.read_text())["dimension"] == payload["defect"] == 15
    svd_calls.clear()
    assert run(["defect", "fourier:6", "--dephased"]) == 0
    assert svd_calls == [False, False]
    capsys.readouterr()


def test_scan_jobs_deterministic(tmp_path, capsys):
    serial = tmp_path / "serial.csv"
    assert run(["scan", "fourier:2", "fourier:2", "--grid", "8:1,3", "--out", str(serial)]) == 0
    capsys.readouterr()
    with open(serial, newline="") as handle:
        rows = list(csv.DictReader(handle))
    assert [row["cell_id"] for row in rows] == ["0", "1/8", "3/8"]


def test_scan_stdout_when_no_out(capsys):
    assert run(["scan", "fourier:2", "fourier:2", "--grid", "2"]) == 0
    lines = capsys.readouterr().out.strip().splitlines()
    assert lines[0].startswith("cell_id,")
    assert len(lines) == 3


def test_conjecture_command(tmp_path, capsys):
    report_path = tmp_path / "report.json"
    assert run(["conjecture", "fourier:3", "--report", str(report_path)]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["q"] == 3
    assert payload["phi_q"] == 2
    assert payload["rational_nullity"] == payload["numeric_defect"] == 5
    assert payload["verdict"] == "SUPPORTED"
    assert json.loads(report_path.read_text()) == payload


def test_conjecture_report_to_an_unwritable_path_prints_nothing(tmp_path, capsys):
    # The report file is written before stdout, as `defect --basis` is, so a failed write leaves stdout empty.
    report_path = tmp_path / "missing" / "report.json"
    assert run(["conjecture", "fourier:4", "--report", str(report_path)]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"error: [Errno 2] No such file or directory: '{report_path}'\n"


def test_conjecture_reports_upper_bound_and_certificate(capsys):
    assert run(["conjecture", "haagerup:1/8"]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert (payload["rational_nullity"], payload["numeric_defect"], payload["exact_upper_bound"]) == (12, 15, 15)
    assert payload["verdict"] == "REFUTED-at-this-instance"
    assert payload["certificate"] == {"method": "modular-lift", "prime": 2147483497}
    assert (payload["certificate"]["prime"] - 1) % payload["q"] == 0


def test_ds_command(capsys):
    group = make_group([2, 3, 4])
    assert run(["ds", "--group", "2x3x4"]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["window"] == group.exponent == 12
    assert payload["estimate"] == str(fourier_defect(group))
    assert payload["exact"] is True
    assert payload["reference_defect"] == fourier_defect(group)

    assert run(["ds", "--group", "2", "--l", "1"]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["estimate"] == "2"
    assert payload["exact"] is False


def test_ds_long_window(capsys):
    # 1000000007 = 12 * 83333333 + 11: whole periods of the exponent 12, then a window of 11
    start = time.perf_counter()
    assert run(["ds", "--group", "2x3x4", "--l", "1000000007"]) == 0
    assert time.perf_counter() - start < 1.0
    payload = json.loads(capsys.readouterr().out)
    assert run(["ds", "--group", "2x3x4", "--l", "11"]) == 0
    tail = Fraction(json.loads(capsys.readouterr().out)["estimate"])
    periods = 83333333 * 12 * fourier_defect(make_group([2, 3, 4]))
    assert Fraction(payload["estimate"]) == (periods + 11 * tail) / 1000000007
    assert payload["exact"] is False


def test_ds_window_error(capsys):
    assert run(["ds", "--group", "2", "--l", "0"]) == 1
    assert capsys.readouterr().err.splitlines() == ["error: window length must be >= 1"]


def test_ds_group_cap_before_the_sweep(monkeypatch, capsys):
    def unexpected(group):
        raise AssertionError("group elements swept before the cap check")

    monkeypatch.setattr(charstats, "element_orders", unexpected)
    assert run(["ds", "--group", "3000000"]) == 1
    assert capsys.readouterr().err.splitlines() == [
        "error: ds_defect_estimate needs 3000000 elements, above the cap 1000000"
    ]
    monkeypatch.setattr(errors, "MAX_ELEMENTS", 1000)
    assert run(["ds", "--group", "2000"]) == 1
    assert capsys.readouterr().err.splitlines() == ["error: ds_defect_estimate needs 2000 elements, above the cap 1000"]


def run_python(*args):
    # A fresh interpreter that imports this checkout's hdefect.
    src = str(Path(hdefect.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
    result = subprocess.run([sys.executable, *args], env=env, capture_output=True, text=True)
    return result.returncode, result.stdout, result.stderr


def test_python_m_runs_the_cli():
    assert run_python("-m", "hdefect", "formula", "--group", "2x2") == (0, "10\n", "")


def test_cli_import_loads_no_heavy_modules():
    # A scan imports concurrent.futures itself; scipy and hypothesis are never needed.
    heavy = "('concurrent', 'scipy', 'hypothesis')"
    code = f"import sys, hdefect.cli; print(*sorted(m for m in sys.modules if m.split('.')[0] in {heavy}))"
    assert run_python("-c", code) == (0, "\n", "")


def test_one_shot_conjecture_does_not_import_numpy_ma():
    # Under numpy 2.4 np.setdiff1d, and np.unique unless asked for indices or counts, import numpy.ma: 16 ms.
    # The library call p_space_dimension takes an np.unique too.
    specs = ["fourier:4", "haagerup:1/8", "tensor:(haagerup:3/16,fourier:2)"]
    runs = f"[hdefect.cli.run(['conjecture', s]) for s in {specs}]"
    dimension = "hdefect.groups.p_space_dimension(hdefect.groups.make_group([4]))"
    code = f"import sys, hdefect.cli; print({runs}, {dimension}, 'numpy.ma' in sys.modules)"
    status, out, err = run_python("-c", code)
    assert (status, out.splitlines()[-1], err) == (0, "[0, 0, 0] 8 False", "")


def test_one_parser_per_process(monkeypatch, capsys):
    built = []
    build = cli.build_arg_parser
    monkeypatch.setattr(cli, "build_arg_parser", lambda: built.append(1) or build())
    cli._arg_parser.cache_clear()
    try:
        calls = (["defect", "fourier:2", "--dephased"], ["defect", "fourier:2"], ["nope"])
        assert [run(argv) for argv in calls] == [0, 0, 2]
    finally:
        cli._arg_parser.cache_clear()
    assert len(built) == 1
    first, second, _ = capsys.readouterr().out.split("}\n")
    # Options do not carry over from one call to the next.
    assert "dephased_defect" in first and "dephased_defect" not in second


@pytest.mark.parametrize("matrix", [
    {"n": 1, "repr": "phase", "entries": 5},
    {"n": 1, "repr": "complex", "entries": [5]},
    {"n": 1, "repr": "complex", "entries": [["1", "0"]]},
    {"n": 1, "repr": "complex", "entries": [[None, 0]]},
    {"n": 1, "repr": "phase", "entries": [[0]]},
    {"n": True, "repr": "phase", "entries": [[True, True]]},
    {"n": 1, "repr": "phase", "entries": [[True, True]]},
    {"n": 1, "repr": "phase", "entries": [[0, 0]]},
    # Python's json writes and reads these, and numpy would warn on the first two in a Gram product.
    {"n": 2, "repr": "complex", "entries": [[1, 0], [1, 0], [1, 0], [math.inf, 0]]},
    {"n": 2, "repr": "complex", "entries": [[1, 0], [1, 0], [1, 0], [math.nan, 0]]},
    {"n": 1, "repr": "complex", "entries": [[10**400, 0]]},
], ids=["not-a-list", "bare-number", "strings", "null", "short", "boolean-order", "boolean-entry", "zero-denominator",
        "Infinity", "NaN", "int-beyond-float"])
def test_malformed_matrix_file_is_an_error_line(tmp_path, capsys, matrix):
    path = tmp_path / "matrix.json"
    path.write_text(json.dumps(matrix))
    for command in ("verify", "defect"):
        assert run([command, f"file:{path}"]) == 1
        captured = capsys.readouterr()
        assert captured.out == "" and captured.err.startswith("error: ") and captured.err.count("\n") == 1


def test_a_file_with_a_huge_entry_fails_verification_without_a_warning(tmp_path, capsys):
    # The reader admits any finite number; 1e300 overflows the Gram product, where numpy would warn.
    path = tmp_path / "matrix.json"
    path.write_text(json.dumps({"n": 2, "repr": "complex", "entries": [[1e300, 0], [1, 0], [1, 0], [-1, 0]]}))
    assert run(["verify", f"file:{path}"]) == 1
    captured = capsys.readouterr()
    assert json.loads(captured.out)["passed"] is False and captured.err == ""
    assert run(["defect", f"file:{path}"]) == 1
    captured = capsys.readouterr()
    assert captured.out == "" and captured.err.startswith("error: matrix is not Hadamard")
    assert captured.err.count("\n") == 1


def test_exit_codes(tmp_path, capsys):
    assert run(["defect", "bogus:1"]) == 2
    assert run(["defect", "circulant:0,1/4,0,1/4"]) == 1
    assert run(["defect", f"file:{tmp_path / 'missing.json'}"]) == 1
    assert run(["ds", "--group", "2", "--l", "0"]) == 1
    assert run(["ds", "--group", "2", "--l", "2", "--exact"]) == 2
    assert run([]) == 2
    assert run(["defect"]) == 2
    assert run(["--seed", "7", "formula", "--group", "2"]) == 2
    capsys.readouterr()


@pytest.mark.parametrize(
    "command",
    [["defect", "fourier:4"], ["scan", "fourier:2", "fourier:2", "--grid", "2"], ["conjecture", "fourier:4"]],
    ids=["defect", "scan", "conjecture"],
)
@pytest.mark.parametrize(
    "option, value",
    [("--tol", "0"), ("--tol", "1e-17"), ("--tol", "1"), ("--tol", "nan"), ("--gap", "nan"), ("--gap", "0.99")],
)
def test_out_of_range_rank_options_are_usage_errors(capsys, command, option, value):
    # Below machine epsilon rounding noise counts toward the rank (F4 would certify 7, not 8), and no gap ratio is
    # below a NaN --gap, so every rank would be certified.
    assert run([*command, option, value]) == 2
    captured = capsys.readouterr()
    assert captured.out == "" and f"error: argument {option}: must " in captured.err


def test_rank_options_in_range_are_accepted(capsys):
    parse = cli._arg_parser().parse_args
    for command in ("defect", "scan", "conjecture"):
        spec = ["fourier:2", "fourier:2", "--grid", "2"] if command == "scan" else ["fourier:4"]
        defaults = parse([command, *spec])
        assert (defaults.tol, defaults.gap) == (tangent.DEFAULT_REL_TOL, tangent.DEFAULT_GAP_THRESHOLD)
        given = parse([command, *spec, "--tol", "0.6", "--gap", "1.01"])
        assert (given.tol, given.gap) == (0.6, 1.01)
        edges = parse([command, *spec, "--tol", repr(sys.float_info.epsilon), "--gap", "inf"])
        assert (edges.tol, edges.gap) == (sys.float_info.epsilon, float("inf"))
    assert run(["defect", "fourier:4", "--tol", "0.6", "--gap", "1.01"]) == 0
    assert json.loads(capsys.readouterr().out)["defect"] == 8
    assert run(["conjecture", "fourier:4"]) == 0
    assert json.loads(capsys.readouterr().out)["verdict"] == "SUPPORTED"


@pytest.mark.parametrize("value", ["-1", "-0.5", "nan"])
def test_negative_or_nan_verify_tolerance_is_a_usage_error(capsys, value):
    # Either would fail every floating matrix, and NaN would print "tolerance": NaN, which is not JSON.
    assert run(["verify", "circulant:0,1/4", "--tol", value]) == 2
    captured = capsys.readouterr()
    assert captured.out == "" and "error: argument --tol: must be at least 0, got " in captured.err


NON_NUMERIC = [
    ["verify", "circulant:0,1/4", "--tol", "abc"],
    ["defect", "fourier:4", "--tol", "1e"],
    ["defect", "fourier:4", "--gap", "x"],
]


@pytest.mark.parametrize("argv", NON_NUMERIC)
def test_non_numeric_option_names_its_text(capsys, argv):
    # The usage error names the option and the text, not the function that parses it.
    assert run(argv) == 2
    captured = capsys.readouterr()
    assert captured.out == "" and f"error: argument {argv[2]}: not a number: '{argv[3]}'" in captured.err
    assert "invalid" not in captured.err


def test_verify_tolerances_from_zero_to_inf_are_accepted(capsys):
    cases = (([], 1e-9, True), (["--tol", "0"], 0.0, False), (["--tol", "inf"], math.inf, True))
    for options, tolerance, passed in cases:
        assert run(["verify", "circulant:0,1/4", *options]) == (0 if passed else 1)
        report = json.loads(capsys.readouterr().out)
        assert (report["tolerance"], report["passed"]) == (tolerance, passed)


def test_float_tangent_system_size_guard(capsys):
    # F128's dephased check is ranked on its gauge-cut character blocks, not on its 128 * 127 x 128^2 system (2.1 GB).
    assert run(["defect", "fourier:128", "--dephased"]) == 0
    assert json.loads(capsys.readouterr().out)["dephased_defect"] == 576 - 255
    # A group-less input of order 216 has no blocks: its 46440 x 46656 system (17 GB) is refused, and fast.
    start = time.perf_counter()
    assert run(["defect", "tensor:(tao,tensor:(tao,tao))", "--dephased"]) == 1
    assert time.perf_counter() - start < 1.0
    assert "pair system of 46440 x 46656 entries needs 17333637120 bytes, above the cap" in capsys.readouterr().err


def test_character_block_size_guard(capsys):
    # F128's character blocks take 128 x 128 x 128 complex entries, 32 MiB, so its defect is ranked; F512's take 2 GiB.
    assert run(["defect", "fourier:128"]) == 0
    assert json.loads(capsys.readouterr().out)["defect"] == 576
    start = time.perf_counter()
    assert run(["defect", "fourier:512"]) == 1
    assert time.perf_counter() - start < 1.0
    assert "character blocks of 512 x 512 x 512 complex entries needs 2147483648 bytes" in capsys.readouterr().err


def test_verify_refuses_too_many_conjugates_at_once(capsys):
    # Exact verification sweeps phi(q)/2 Galois conjugates: 9972 for haagerup:1/9973 (q = 39892), and 1000002, one
    # above the element cap, for haagerup:1/1000003 (q = 4000012), refused before any conjugate is built.
    start = time.perf_counter()
    assert run(["verify", "haagerup:1/9973"]) == 0
    assert time.perf_counter() - start < 1.0
    assert json.loads(capsys.readouterr().out)["passed"] is True
    start = time.perf_counter()
    assert run(["verify", "haagerup:1/1000003"]) == 1
    assert time.perf_counter() - start < 1.0
    assert "Galois conjugates of phase order 4000012 needs 1000002 elements" in capsys.readouterr().err
    assert run(["verify", "haagerup:1/997"]) == 0
    assert json.loads(capsys.readouterr().out)["passed"] is True


def test_deformed_parameter_file(tmp_path):
    path = tmp_path / "l.turns"
    path.write_text("[[0,0],[0,1/8]]\n")
    spec = parse_matrix_spec(f"deformed:(fourier:2,{path},fourier:2)")
    assert spec.parameters == str(path)
    built = build_matrix(spec)
    inline = build_matrix(parse_matrix_spec("deformed:(fourier:2,[[0,0],[0,1/8]],fourier:2)"))
    assert built.turns == inline.turns


@pytest.mark.parametrize("call, message", [
    (lambda: charstats.ds_defect_estimate(make_group([4]), 1, 0), "window length must be >= 1"),
    (lambda: charstats.ds_defect_estimate(make_group([4]), 0, 4), "moment index must be >= 1"),
    (lambda: charstats.regular_dihedral_group(0), "need n >= 1"),
    (lambda: groups.delta_isotypic(2, ()), "exponent list must be nonempty"),
    (lambda: groups.delta_isotypic(2, (0,)), r"exponents must be integers >= 1, got \(0,\)"),
    (lambda: groups.delta_isotypic(2, (2, 1)), r"exponents must be nondecreasing, got \(2, 1\)"),
    (lambda: abelian_group_types(0), "order must be positive, got 0"),
    (lambda: HadamardMatrix.from_turns([[0, 0], [0]]), "ragged phase rows"),
    (lambda: HadamardMatrix(phases=(np.zeros((2, 2), dtype=int), 2), values=np.ones((2, 2))), "exactly one of"),
    (lambda: HadamardMatrix(), "exactly one of phases or values must be given"),
    (lambda: HadamardMatrix(phases=(np.zeros((2, 2, 2), dtype=int), 2)), r"expected 2-d numerators, got shape"),
    (lambda: HadamardMatrix(values=np.ones((2, 2, 2))), r"expected a 2-d array, got shape \(2, 2, 2\)"),
    (lambda: HadamardMatrix.from_turns([[0, 0]]), "matrix must be square, got 1 x 2"),
    (lambda: matrices.recombination_parameters(0, 1), "orders must be positive"),
    (lambda: matrices.circulant_from_eigenvalues([]), "eigenvalue vector must be nonempty"),
    (lambda: matrices.matrix_from_dict({}), "matrix object must have n, repr, entries"),
    (lambda: parse_matrix_spec("tensor"), "expected ':\\(' after constructor name"),
    (lambda: parse_matrix_spec("file:"), "empty path"),
    (lambda: cli._parse_grid("x"), "bad grid"),
])
def test_outside_input_is_refused_where_it_enters(call, message):
    with pytest.raises(ValueError, match=f"^{message}"):
        call()


def test_readme_subcommand_examples_run(tmp_path, monkeypatch, capsys):
    text = (Path(__file__).parents[1] / "README.md").read_text()
    block = text.split("Subcommands:\n\n```\n", 1)[1].split("```", 1)[0]
    lines = [line.split("#", 1)[0].split() for line in block.splitlines()]
    assert len(lines) == 8 and all(line[0] == "hdefect" for line in lines)
    monkeypatch.chdir(tmp_path)
    for line in lines:
        assert run(line[1:]) == 0, line
    capsys.readouterr()
