"""End-to-end acceptance checks, one per shipped claim.

Run with -s to see one PASS line per criterion. Each line prints only after
every assertion in that criterion has held.
"""

import time
from fractions import Fraction

from hdefect.charstats import ds_defect_estimate, ds_delta_exact, regular_dihedral_group
from hdefect.exact import SUPPORTED, build_exact_system, conjecture_check, rational_nullity
from hdefect.groups import (
    abelian_group_types,
    delta_closed,
    element_order,
    fourier_defect,
    fourier_defect_cyclic,
    make_group,
    p_space_dimension,
)
from hdefect.matrices import (
    DeformationParameters,
    apply_equivalence,
    as_exact,
    circulant_from_eigenvalues,
    deformed_tensor,
    fourier_matrix,
    haagerup_matrix,
    recombination_parameters,
    tao_matrix,
    tensor_product,
)
from hdefect.tangent import (
    ScanGrid,
    _rank_in_place,
    deformation_scan,
    dephased_defect,
    fourier_P_check,
    helmert_matrix,
    numeric_rank,
    tangent_system,
    undephased_defect,
)


def _f22(turn) -> object:
    f2 = fourier_matrix(make_group([2]))
    params = DeformationParameters.from_turns([[0, 0], [0, Fraction(turn)]])
    return deformed_tensor(f2, params, f2)


def _moved(h):
    """H with its rows turned by one place: equivalent, and ranked on the blocks of the row group found on it."""
    return apply_equivalence(h, [*range(1, h.n), 0], range(h.n), [0] * h.n, [0] * h.n)


def _full_defect(h) -> int:
    """d(H) from the full Helmert-ranked system, certified: the path a defect call takes only without a row group."""
    result = numeric_rank(_rank_in_place(tangent_system(h, helmert_matrix(h.n)).matrix))
    assert result.gap_ratio >= 1e6
    return h.n * h.n - result.rank


def _corpus():
    matrices = []
    for order in range(1, 17):
        for group in abelian_group_types(order):
            matrices.append(fourier_matrix(group))
    for num in range(16):
        matrices.append(_f22(Fraction(num, 16)))
    for num in range(8):
        matrices.append(haagerup_matrix(Fraction(num, 8)))
    matrices.append(tao_matrix())
    matrices.append(circulant_from_eigenvalues([0, Fraction(1, 4)]))
    matrices.append(circulant_from_eigenvalues([0, 0, Fraction(1, 2), 0]))
    return matrices


def test_acceptance_1_cyclic_defect_concordance():
    start = time.perf_counter()
    for n in range(2, 21):
        report = undephased_defect(fourier_matrix(make_group([n])))
        assert report.undephased_defect == fourier_defect_cyclic(n)
        assert report.certified
        assert report.gap_ratio >= 1e6
    # From order 12 the character blocks rank F_n, and a moved copy by the same row group, found on its entries;
    # the full system, which ranks matrices with no row group, gives the same defect.
    moved = _moved(fourier_matrix(make_group([20])))
    assert undephased_defect(moved).undephased_defect == _full_defect(moved) == fourier_defect_cyclic(20)
    elapsed = time.perf_counter() - start
    assert elapsed < 30.0
    print(f"ACCEPTANCE 1 (cyclic Fourier defects, {elapsed:.2f}s): PASS")


def test_acceptance_2_abelian_defect_concordance():
    groups = [g for order in range(1, 17) for g in abelian_group_types(order)]
    groups += [make_group([2, 12]), make_group([3, 9]), make_group([2, 2, 6])]
    for group in groups:
        numeric = undephased_defect(fourier_matrix(group)).undephased_defect
        closed = fourier_defect(group)
        brute = sum(group.order // element_order(group, g) for g in group.elements())
        assert numeric == closed == brute == p_space_dimension(group)
    z2z12 = make_group([2, 12])
    moved = _moved(fourier_matrix(z2z12))
    assert undephased_defect(moved).undephased_defect == _full_defect(moved) == fourier_defect(z2z12)
    print("ACCEPTANCE 2 (abelian group defects): PASS")


def test_acceptance_3_two_parameter_family_scan():
    f2 = fourier_matrix(make_group([2]))
    cells = deformation_scan(f2, f2, ScanGrid(16))
    assert len(cells) == 16
    for cell in cells:
        assert cell.certified
        expected = 10 if cell.cell_id in ("0", "1/2") else 8
        assert cell.defect == expected
    print("ACCEPTANCE 3 (4x4 family grid scan): PASS")


def test_acceptance_4_tensor_square_excess():
    f2 = fourier_matrix(make_group([2]))
    square = undephased_defect(tensor_product(f2, f2)).undephased_defect
    single = undephased_defect(f2).undephased_defect
    assert square == 10
    assert single == 3
    assert square > single**2
    print("ACCEPTANCE 4 (tensor square exceeds product): PASS")


def test_acceptance_5_dephased_relation_on_corpus():
    for matrix in _corpus():
        report = undephased_defect(matrix)
        dephased = dephased_defect(matrix)  # cross-checks two restriction paths
        assert dephased == report.undephased_defect - 2 * matrix.n + 1
    print("ACCEPTANCE 5 (dephased defect relation): PASS")


def test_acceptance_6_recombination():
    for n, m in ((2, 2), (2, 3), (3, 3)):
        left = fourier_matrix(make_group([n]))
        right = fourier_matrix(make_group([m]))
        matrix = deformed_tensor(left, recombination_parameters(n, m), right)
        assert undephased_defect(matrix).undephased_defect == fourier_defect_cyclic(n * m)
    print("ACCEPTANCE 6 (recombination to one cyclic factor): PASS")


def test_acceptance_7_group_indexed_correspondence():
    for order in range(1, 13):
        for group in abelian_group_types(order):
            report = fourier_P_check(group)
            assert report.max_constraint_violation <= 1e-8
            assert report.max_membership_residual <= 1e-8
            assert report.dimension_numeric == report.dimension_combinatorial
            assert report.dimension_numeric == report.closed_form == fourier_defect(group)
    print("ACCEPTANCE 7 (index-pair correspondence): PASS")


def test_acceptance_8_fixed_point_statistics():
    for order in range(1, 25):
        for group in abelian_group_types(order):
            target = fourier_defect(group)
            for k in (1, 2, 3):
                assert ds_defect_estimate(group, k, group.exponent) == target
    for n in range(1, 11):
        delta = ds_delta_exact(regular_dihedral_group(n))
        assert delta == Fraction(n, 2) + delta_closed(make_group([n]))
    print("ACCEPTANCE 8 (fixed-point statistic concordance): PASS")


def test_acceptance_9_rational_nullity_evidence():
    named = [fourier_matrix(make_group([n])) for n in range(2, 10)]
    named += [
        fourier_matrix(make_group([2, 2])),
        fourier_matrix(make_group([2, 4])),
        tao_matrix(),
    ]
    for matrix in named:
        report = conjecture_check(matrix)
        assert report.verdict == SUPPORTED
        assert report.rational_nullity == report.numeric_defect
    counterexamples = []
    for matrix in _corpus():
        # float-valued corpus members carry root-of-unity phases, recoverable exactly
        report = conjecture_check(as_exact(matrix))  # raises if nullity ever exceeds the defect
        assert report.rational_nullity <= report.numeric_defect
        if report.verdict != SUPPORTED:
            counterexamples.append((matrix.provenance, report.rational_nullity, report.numeric_defect))
    for provenance, nullity, defect in counterexamples:
        print(f"  note: rational gap at {provenance}: {nullity} < {defect}")
    print("ACCEPTANCE 9 (rational nullity equality and soundness): PASS")


def test_acceptance_10_isolation():
    assert dephased_defect(tao_matrix()) == 0
    for turn in (Fraction(1, 7), Fraction(1, 5)):
        assert dephased_defect(haagerup_matrix(turn)) >= 1
    print("ACCEPTANCE 10 (isolated point and free directions): PASS")


def test_acceptance_11_fourier_defects_proved_without_floats():
    # rational nullity <= d <= upper bound, so where both ends equal the closed form d(F_G) is proved exactly.
    groups = [g for order in range(1, 33) for g in abelian_group_types(order)]
    assert len(groups) == 55
    for group in groups:
        nullity = rational_nullity(build_exact_system(fourier_matrix(group)))
        assert nullity == nullity.upper_bound == fourier_defect(group)
    print("ACCEPTANCE 11 (Fourier defects of the abelian groups of order <= 32, without floats): PASS")
