"""CLI surface: spec grammar, subcommands, file formats, exit codes."""

import csv
import json
from fractions import Fraction

import pytest

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


def test_scan_jobs_deterministic(tmp_path, capsys):
    serial = tmp_path / "serial.csv"
    threaded = tmp_path / "threaded.csv"
    assert run(["scan", "fourier:2", "fourier:2", "--grid", "8:1,3", "--out", str(serial)]) == 0
    capsys.readouterr()
    assert run(["scan", "fourier:2", "fourier:2", "--grid", "8:1,3", "--out", str(threaded), "--jobs", "3"]) == 0
    capsys.readouterr()
    assert serial.read_text() == threaded.read_text()
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


def test_exit_codes(tmp_path, capsys):
    assert run(["defect", "bogus:1"]) == 2
    assert run(["defect", "circulant:0,1/4,0,1/4"]) == 1
    assert run(["defect", f"file:{tmp_path / 'missing.json'}"]) == 1
    assert run(["ds", "--group", "2", "--l", "0"]) == 1
    assert run(["ds", "--group", "2", "--l", "2", "--exact"]) == 2
    assert run([]) == 2
    assert run(["defect"]) == 2
    assert run(["--seed", "7", "formula", "--group", "2"]) == 0
    capsys.readouterr()


def test_deformed_parameter_file(tmp_path):
    path = tmp_path / "l.turns"
    path.write_text("[[0,0],[0,1/8]]\n")
    spec = parse_matrix_spec(f"deformed:(fourier:2,{path},fourier:2)")
    assert spec.parameters == str(path)
    built = build_matrix(spec)
    inline = build_matrix(parse_matrix_spec("deformed:(fourier:2,[[0,0],[0,1/8]],fourier:2)"))
    assert built.turns == inline.turns
