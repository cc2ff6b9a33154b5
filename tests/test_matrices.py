"""Constructors, verification, and serialization for Hadamard matrices."""

import json
import math
from fractions import Fraction

import numpy as np
import pytest

from hdefect.errors import NonExactError, NonHadamardError
from hdefect.groups import abelian_group_types, make_group
from hdefect.matrices import (
    DeformationParameters,
    HadamardMatrix,
    apply_equivalence,
    as_exact,
    circulant_from_eigenvalues,
    deformed_tensor,
    dephase,
    fourier_matrix,
    haagerup_matrix,
    load_matrix,
    matrix_from_dict,
    matrix_to_dict,
    recombination_parameters,
    save_matrix,
    tao_matrix,
    tensor_product,
    turn_to_complex,
    verify_hadamard,
)

F = Fraction


def brute_force_verify(h, tol=1e-12):
    """Oracle: dense Gram check in floating point."""
    v = h.to_values()
    n = v.shape[0]
    ok_mod = np.max(np.abs(np.abs(v) - 1)) <= tol
    ok_orth = np.allclose(v @ v.conj().T, n * np.eye(n), atol=n * tol)
    return ok_mod and ok_orth


def test_turn_to_complex_quarters_exact():
    assert turn_to_complex(F(0)) == 1
    assert turn_to_complex(F(1, 2)) == -1
    assert turn_to_complex(F(1, 4)) == 1j
    assert turn_to_complex(F(-1, 4)) == -1j
    assert abs(turn_to_complex(F(1, 3)) - complex(-0.5, math.sqrt(3) / 2)) < 1e-15


def test_fourier_f2():
    h = fourier_matrix(make_group([2]))
    assert h.turns == ((F(0), F(0)), (F(0), F(1, 2)))
    assert np.array_equal(h.to_values(), np.array([[1, 1], [1, -1]]))
    assert h.phase_order() == 2


def test_fourier_klein_is_tensor_square():
    klein = fourier_matrix(make_group([2, 2]))
    f2 = fourier_matrix(make_group([2]))
    assert klein.turns == tensor_product(f2, f2).turns
    expected = np.array(
        [[1, 1, 1, 1], [1, -1, 1, -1], [1, 1, -1, -1], [1, -1, -1, 1]], dtype=complex
    )
    assert np.array_equal(klein.to_values(), expected)


def test_fourier_matches_dft():
    for n in (2, 3, 5, 8):
        h = fourier_matrix(make_group([n]))
        jk = np.outer(np.arange(n), np.arange(n))
        assert np.allclose(h.to_values(), np.exp(2j * np.pi * jk / n), atol=1e-12)


def test_fourier_verifies_exactly_up_to_64():
    for order in range(1, 65):
        for g in abelian_group_types(order):
            report = verify_hadamard(fourier_matrix(g))
            assert report.exact and report.passed, g
            assert report.max_orthogonality_error == 0.0


def test_verify_rejects_non_hadamard():
    ones = HadamardMatrix.from_turns([[F(0), F(0)], [F(0), F(0)]])
    report = verify_hadamard(ones)
    assert not report.passed
    assert report.max_orthogonality_error > 0
    bad = HadamardMatrix.from_values(np.array([[1, 1], [1, -1]]) * 1.001)
    assert not verify_hadamard(bad).passed
    almost = np.array([[1, 1], [1, -1]], dtype=complex)
    almost[1, 1] *= np.exp(1e-6j)
    assert not verify_hadamard(HadamardMatrix.from_values(almost), tol=1e-9).passed
    assert verify_hadamard(HadamardMatrix.from_values(almost), tol=1e-3).passed


def test_deformed_tensor_display():
    f2 = fourier_matrix(make_group([2]))
    q = F(1, 8)
    params = DeformationParameters.from_turns([[0, 0], [0, q]])
    h = deformed_tensor(f2, params, f2)
    qc = turn_to_complex(q)
    expected = np.array(
        [[1, 1, 1, 1], [1, -1, qc, -qc], [1, 1, -1, -1], [1, -1, -qc, qc]]
    )
    assert np.allclose(h.to_values(), expected, atol=1e-15)
    assert verify_hadamard(h).passed
    assert brute_force_verify(h)


def test_deformed_flat_is_tensor():
    f2 = fourier_matrix(make_group([2]))
    f3 = fourier_matrix(make_group([3]))
    flat = DeformationParameters.flat(3, 2)
    assert deformed_tensor(f2, flat, f3).turns == tensor_product(f2, f3).turns


def test_deformed_shape_and_unimodularity_errors():
    f2 = fourier_matrix(make_group([2]))
    f3 = fourier_matrix(make_group([3]))
    with pytest.raises(ValueError):
        deformed_tensor(f2, DeformationParameters.flat(2, 2), f3)
    with pytest.raises(NonHadamardError):
        DeformationParameters(values=np.array([[1.0, 2.0], [1.0, 1.0]]))


def test_recombination_parameters():
    assert recombination_parameters(2, 2).turns == ((F(0), F(0)), (F(0), F(1, 4)))
    assert recombination_parameters(2, 3).turns == (
        (F(0), F(0)),
        (F(0), F(1, 6)),
        (F(0), F(1, 3)),
    )
    f2 = fourier_matrix(make_group([2]))
    f3 = fourier_matrix(make_group([3]))
    h = deformed_tensor(f2, recombination_parameters(2, 3), f3)
    assert verify_hadamard(h).passed
    assert h.phase_order() == 6


def test_haagerup_entries_and_validity():
    q = F(1, 8)
    h = haagerup_matrix(q)
    assert h.turns[2][4] == q
    assert h.turns[4][2] == (-q) % 1
    assert h.turns[4][3] == (F(1, 2) - q) % 1
    assert h.turns[1][1] == F(1, 2)
    for turn in (F(0), F(1, 8), F(1, 3), F(5, 7)):
        assert verify_hadamard(haagerup_matrix(turn)).passed, turn
    rng = np.random.default_rng(7)
    for _ in range(5):
        qc = np.exp(2j * np.pi * rng.random())
        report = verify_hadamard(haagerup_matrix(qc))
        assert not report.exact and report.passed
    with pytest.raises(NonHadamardError):
        haagerup_matrix(1.5 + 0j)


def test_tao_matrix():
    t = tao_matrix()
    assert t.phase_order() == 3
    assert t.turns[1][2] == F(1, 3)
    assert t.turns[5][2] == F(1, 3)
    assert t.turns[4][1] == F(2, 3)
    report = verify_hadamard(t)
    assert report.passed and report.exact
    assert dephase(t).turns == t.turns


def test_circulant_from_eigenvalues():
    h = circulant_from_eigenvalues([F(0), F(1, 4)])
    root = 1 / math.sqrt(2)
    expected = np.array([[(1 + 1j), (1 - 1j)], [(1 - 1j), (1 + 1j)]]) * root
    assert np.allclose(h.to_values(), expected, atol=1e-15)
    assert verify_hadamard(h).passed
    # fourth-order example whose transform is again unimodular
    h4 = circulant_from_eigenvalues([F(0), F(0), F(1, 2), F(0)])
    assert verify_hadamard(h4).passed
    v = h4.to_values()
    assert np.allclose(v[0], [1, 1, -1, 1], atol=1e-12)
    for i in range(4):
        for j in range(4):
            assert np.isclose(v[i, j], v[0][(j - i) % 4], atol=1e-12)
    # this one is not Hadamard: its transform is not unimodular
    report = verify_hadamard(circulant_from_eigenvalues([F(0), F(1, 4), F(0), F(1, 4)]))
    assert not report.passed
    with pytest.raises(NonHadamardError):
        circulant_from_eigenvalues([0.5 + 0j, 1 + 0j])


def test_dephase():
    f3 = fourier_matrix(make_group([3]))
    scrambled = apply_equivalence(
        f3, (2, 0, 1), (1, 2, 0), [F(1, 3), F(1, 2), F(5, 6)], [F(0), F(1, 6), F(2, 3)]
    )
    d = dephase(scrambled)
    assert all(t == 0 for t in d.turns[0])
    assert all(row[0] == 0 for row in d.turns)
    assert dephase(d).turns == d.turns
    assert verify_hadamard(d).passed
    # floating path
    rng = np.random.default_rng(3)
    phases = np.exp(2j * np.pi * rng.random(3))
    scrambled_f = apply_equivalence(f3, (0, 1, 2), (0, 1, 2), phases, np.conj(phases))
    df = dephase(scrambled_f)
    assert np.allclose(df.to_values()[0], 1, atol=1e-12)
    assert np.allclose(df.to_values()[:, 0], 1, atol=1e-12)
    assert np.allclose(dephase(df).to_values(), df.to_values(), atol=1e-12)


def test_apply_equivalence_preserves_validity():
    t = tao_matrix()
    h = apply_equivalence(
        t, (3, 1, 4, 0, 5, 2), (0, 2, 1, 5, 4, 3),
        [F(k, 6) for k in range(6)], [F(k, 3) for k in range(6)],
    )
    assert h.is_exact
    assert verify_hadamard(h).passed
    with pytest.raises(ValueError):
        apply_equivalence(t, (0, 0, 1, 2, 3, 4), tuple(range(6)), [F(0)] * 6, [F(0)] * 6)
    with pytest.raises(ValueError):
        apply_equivalence(t, tuple(range(6)), tuple(range(6)), [F(0)] * 5, [F(0)] * 6)


def test_matrix_json_roundtrip_exact(tmp_path):
    h = haagerup_matrix(F(3, 16))
    path = tmp_path / "h.json"
    save_matrix(h, path)
    back = load_matrix(path)
    assert back.is_exact
    assert back.turns == h.turns
    assert back.provenance == h.provenance
    obj = json.loads(path.read_text())
    assert obj["repr"] == "phase"
    assert len(obj["entries"]) == 36


def test_matrix_json_roundtrip_complex(tmp_path):
    h = circulant_from_eigenvalues([F(0), F(1, 4)])
    path = tmp_path / "c.json"
    save_matrix(h, path)
    back = load_matrix(path)
    assert not back.is_exact
    assert np.array_equal(back.to_values(), h.to_values())


def test_matrix_from_dict_errors():
    with pytest.raises(ValueError):
        matrix_from_dict({"n": 2, "repr": "phase", "entries": [[0, 1]] * 3})
    with pytest.raises(ValueError):
        matrix_from_dict({"n": 0, "repr": "phase", "entries": []})
    with pytest.raises(ValueError):
        matrix_from_dict({"n": 1, "repr": "octonion", "entries": [[0, 1]]})
    with pytest.raises(ValueError):
        matrix_from_dict({"n": 1, "repr": "phase", "entries": [[0.5, 1]]})
    good = matrix_to_dict(fourier_matrix(make_group([2])))
    assert matrix_from_dict(good).turns == fourier_matrix(make_group([2])).turns


def test_phase_order_requires_exact():
    h = circulant_from_eigenvalues([F(0), F(1, 4)])
    with pytest.raises(NonExactError):
        h.phase_order()


def test_tensor_float_path():
    f2 = fourier_matrix(make_group([2]))
    f3 = fourier_matrix(make_group([3]))
    float_f3 = HadamardMatrix.from_values(f3.to_values())
    out = tensor_product(f2, float_f3)
    assert not out.is_exact
    assert np.allclose(out.to_values(), tensor_product(f2, f3).to_values(), atol=1e-14)


def test_as_exact_recovers_rational_phases():
    circ = circulant_from_eigenvalues([F(0), F(1, 4)])
    assert not circ.is_exact
    exact = as_exact(circ)
    assert exact.is_exact
    assert exact.turns == ((F(1, 8), F(7, 8)), (F(7, 8), F(1, 8)))
    assert np.allclose(exact.to_values(), circ.to_values(), atol=1e-12)
    assert exact.provenance == circ.provenance

    f3 = fourier_matrix(make_group([3]))
    assert as_exact(f3) is f3

    generic = haagerup_matrix(np.exp(2j * np.pi * 0.123))
    with pytest.raises(NonExactError):
        as_exact(generic)
