from fractions import Fraction

import pytest

from lagfib.complexes import twisted_cohomology, untwisted_cohomology_Q
from lagfib.intlinalg import AbelianGroup, RatMatrix
from lagfib.obstruction import ObstructionMap, cup_matrix, dd_matrix
from lagfib.realizable import find_fake_witness, realizable_subgroup

from helpers import heisenberg, mapping_torus, rat_rank, torus3


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
        assert sum(c * v for c, v in zip(coords, D.matrix.data[0])) == 0


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
    d_rank = rat_rank(D.matrix) if D.matrix is not None else 0
    assert R.group.free_rank == H2.free_rank - d_rank
    assert R.group.torsion == H2.torsion


@pytest.mark.parametrize("build", [torus3, heisenberg, mapping_torus])
def test_generators_map_to_zero(build):
    data = build()
    H2, D = _pipeline(data)
    R = realizable_subgroup(D, H2)
    for coords in R.coordinate_generators:
        image = [sum(Fraction(c) * row[j] for j, c in enumerate(coords))
                 for row in D.matrix.data]
        assert all(x == 0 for x in image)


def test_witness_selection():
    data = torus3()
    H2, D = _pipeline(data)
    witness = find_fake_witness(D, H2)
    assert witness is not None
    assert witness.generator_index == 0  # first trace coordinate
    assert witness.value == (1,)

    data = heisenberg()
    H2, D = _pipeline(data)
    witness = find_fake_witness(D, H2)
    assert witness.generator_index == 1
    assert witness.value == (1,)


def test_zero_map_has_no_witness_and_full_kernel():
    data = mapping_torus()
    H2, _ = _pipeline(data)
    zero = ObstructionMap(None, H2.orders, 1, ("dual(e3)",),
                          [(Fraction(0),)] * len(H2.generators))
    assert find_fake_witness(zero, H2) is None
    R = realizable_subgroup(zero, H2)
    assert R.group == H2.group


def test_witness_cochain_lift():
    data = mapping_torus()
    H2, D = _pipeline(data)
    witness = find_fake_witness(D, H2)
    assert witness is not None
    gen = H2.generators[witness.generator_index]
    from lagfib.obstruction import dd_evaluate
    values = dd_evaluate(data["complex"], data["diagonal"], data["rho"],
                         data["ell"], data["periods"], gen)
    h3 = untwisted_cohomology_Q(data["complex"], 3)
    assert h3.coordinates(values) == witness.value
