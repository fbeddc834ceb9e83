from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from lagfib.complexes import twisted_cohomology, untwisted_cohomology_Q
from lagfib.intlinalg import AbelianGroup
from lagfib.obstruction import ObstructionMap, cup_matrix, dd_matrix
from lagfib.realizable import (
    RealizableError,
    find_fake_witness,
    realizable_subgroup,
)

from helpers import (
    dd_evaluate,
    fraction_matrix,
    fraction_values,
    heisenberg,
    mapping_torus,
    obstruction_map,
    rat_rank,
    torus3,
)


def _pipeline(data):
    H2 = twisted_cohomology(data["complex"], data["rho"], 2)
    cup = cup_matrix(data["complex"], data["diagonal"], data["rho"],
                     data["ell"], data["periods"])
    D = dd_matrix(H2, cup, untwisted_cohomology_Q(data["complex"], 3))
    return H2, D


def test_t3_realizable_is_z8():
    data = torus3()
    H2, D = _pipeline(data)
    R = realizable_subgroup(D, H2)
    assert R.group == AbelianGroup(8)
    for coords in R.coordinate_generators:
        assert sum(c * v for c, v in zip(coords, D.scaled_matrix[0])) == 0


def test_heisenberg_realizable_is_z4():
    data = heisenberg()
    H2, D = _pipeline(data)
    R = realizable_subgroup(D, H2)
    assert R.group == AbelianGroup(4)
    # defining relation: the two trace coordinates cancel
    for coords in R.coordinate_generators:
        assert coords[1] + coords[4] == 0


def test_mapping_torus_realizable_structure():
    data = mapping_torus()
    H2, D = _pipeline(data)
    R = realizable_subgroup(D, H2)
    assert R.group == AbelianGroup(4, (2, 2))
    # torsion generators are carried over untouched
    assert R.coordinate_generators[-2] == (0, 0, 0, 0, 0, 1, 0)
    assert R.coordinate_generators[-1] == (0, 0, 0, 0, 0, 0, 1)
    for coords in R.coordinate_generators:
        assert coords[0] + coords[2] + coords[4] == 0


@pytest.mark.parametrize("build", [torus3, heisenberg, mapping_torus])
def test_rank_accounting(build):
    data = build()
    H2, D = _pipeline(data)
    R = realizable_subgroup(D, H2)
    d_rank = rat_rank(D.scaled_matrix) if D.scaled_matrix is not None else 0
    assert R.group.free_rank == H2.group.free_rank - d_rank
    assert R.group.torsion == H2.group.torsion


@pytest.mark.parametrize("build", [torus3, heisenberg, mapping_torus])
def test_generators_map_to_zero(build):
    data = build()
    H2, D = _pipeline(data)
    R = realizable_subgroup(D, H2)
    for coords in R.coordinate_generators:
        image = [sum(Fraction(c) * row[j] for j, c in enumerate(coords))
                 for row in fraction_matrix(D)]
        assert all(x == 0 for x in image)


def test_witness_selection():
    data = torus3()
    H2, D = _pipeline(data)
    witness = find_fake_witness(D)
    assert witness is not None
    assert witness.generator_index == 0  # first trace coordinate
    assert fraction_values(D)[0] == (1,)
    assert (witness.scaled_value, witness.denominator) == (
        D.scaled_values[0], D.denominator)

    data = heisenberg()
    H2, D = _pipeline(data)
    witness = find_fake_witness(D)
    assert witness.generator_index == 1
    assert witness.scaled_value == D.scaled_values[1]
    assert fraction_values(D)[1] == (1,)


def test_zero_map_has_no_witness_and_full_kernel():
    data = mapping_torus()
    H2, _ = _pipeline(data)
    zero = ObstructionMap(None, 1, H2.orders, [(0,)] * len(H2.generators))
    assert find_fake_witness(zero) is None
    R = realizable_subgroup(zero, H2)
    assert R.group == H2.group


def test_witness_cochain_lift():
    data = mapping_torus()
    H2, D = _pipeline(data)
    witness = find_fake_witness(D)
    assert witness is not None
    gen = H2.generators[witness.generator_index]
    values = dd_evaluate(data["complex"], data["diagonal"], data["rho"],
                         data["ell"], data["periods"], gen)
    h3 = untwisted_cohomology_Q(data["complex"], 3)
    # dd_evaluate gives L times the cochain; the witness is over M.L
    L = data["periods"].denominator
    assert tuple(x / L for x in h3.coordinates(values)) == tuple(
        Fraction(x, witness.denominator) for x in witness.scaled_value)


# ---------------------------------------------------------------------------
# hand-built obstruction maps; the mapping torus has H^2 = Z^5 + Z/2 + Z/2


def _units(count, size, start=0):
    return [tuple(int(i == j) for i in range(size))
            for j in range(start, start + count)]


def _mapping_torus_h2():
    data = mapping_torus()
    H2 = twisted_cohomology(data["complex"], data["rho"], 2)
    assert H2.orders == (0, 0, 0, 0, 0, 2, 2)
    return H2


def test_realizable_free_only():
    data = torus3()
    H2 = twisted_cohomology(data["complex"], data["rho"], 2)
    R = realizable_subgroup(obstruction_map(H2, [[1, 1, 1] + [0] * 6]), H2)
    assert R.group == AbelianGroup(8)
    assert R.coordinate_generators[0] == (1, 0, -1, 0, 0, 0, 0, 0, 0)
    assert R.coordinate_generators[2:] == tuple(_units(6, 9, 3))
    for g in R.coordinate_generators:
        assert g[0] + g[1] + g[2] == 0


def test_realizable_zero_map_keeps_torsion():
    H2 = _mapping_torus_h2()
    R = realizable_subgroup(obstruction_map(H2, [[0] * 7]), H2)
    assert R.group == AbelianGroup(5, (2, 2))
    assert R.coordinate_generators == tuple(_units(7, 7))
    assert R.cochain_generators == H2.generators


def test_realizable_mixed():
    H2 = _mapping_torus_h2()
    R = realizable_subgroup(obstruction_map(H2, [[1, 1, 1, 0, 0, 0, 0]]), H2)
    assert R.group == AbelianGroup(4, (2, 2))
    assert R.coordinate_generators[-2:] == tuple(_units(2, 7, 5))
    for g in R.coordinate_generators[:-2]:
        assert g[0] + g[1] + g[2] == 0


def test_realizable_rejects_nonzero_torsion_column():
    H2 = _mapping_torus_h2()
    with pytest.raises(RealizableError, match="column 5 maps the order-2 "
                                              "torsion generator"):
        realizable_subgroup(
            obstruction_map(H2, [[1, 1, 1, 0, 0, Fraction(1, 2), 0]]), H2)


def test_realizable_rational_rows_match_integer_multiples():
    H2 = _mapping_torus_h2()
    rational = [[Fraction(1, 2), Fraction(1, 3), 0, 0, 1, 0, 0],
                [1, Fraction(2, 3), 0, Fraction(1, 4), 0, 0, 0]]
    integral = [[3, 2, 0, 0, 6, 0, 0], [12, 8, 0, 3, 0, 0, 0]]
    R = realizable_subgroup(obstruction_map(H2, rational), H2)
    assert R.group == AbelianGroup(3, (2, 2))
    assert R.coordinate_generators == realizable_subgroup(
        obstruction_map(H2, integral), H2).coordinate_generators


@settings(max_examples=60, deadline=None)
@given(st.lists(st.lists(st.integers(-3, 3), min_size=5, max_size=5),
                min_size=1, max_size=3),
       st.lists(st.fractions(min_value=Fraction(1, 9), max_value=9,
                             max_denominator=9), min_size=3, max_size=3))
def test_scaling_rows_by_positive_rationals_keeps_r(rows, scales):
    H2 = _mapping_torus_h2()
    rows = [row + [0, 0] for row in rows]
    R = realizable_subgroup(obstruction_map(H2, rows), H2)
    scaled = realizable_subgroup(
        obstruction_map(H2, [[s * x for x in row]
                         for s, row in zip(scales, rows)]), H2)
    assert R.coordinate_generators == scaled.coordinate_generators
    assert R.group == scaled.group == AbelianGroup(5 - rat_rank(rows), (2, 2))
