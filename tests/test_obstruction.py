import random
from fractions import Fraction

import pytest

from lagfib.complexes import (
    TwistedCochain,
    coboundary_matrix,
    twisted_cohomology,
    untwisted_cohomology_Q,
)
from lagfib.groupring import Representation, check_duality
from lagfib.intlinalg import IntMatrix
from lagfib.obstruction import (
    DiagonalApproximation,
    ObstructionError,
    PeriodAssignment,
    check_periods_closed,
    cup_matrix,
    dd_evaluate,
    dd_matrix,
    validate_diagonal,
)

from helpers import heisenberg, mapping_torus, torus3


def _dd(data, cochain):
    return dd_evaluate(data["complex"], data["diagonal"], data["rho"],
                       data["ell"], data["periods"], cochain)


def _dd_matrix(data, diagonal, periods):
    cx = data["complex"]
    H2 = twisted_cohomology(cx, data["rho"], 2)
    cup = cup_matrix(cx, diagonal, data["rho"], data["ell"], periods)
    return dd_matrix(H2, cup, untwisted_cohomology_Q(cx, 3))


def _validate(data, diagonal, seed=None):
    cx = data["complex"]
    return validate_diagonal(cx, diagonal, data["rho"], data["ell"],
                             data["periods"],
                             twisted_cohomology(cx, data["rho"], 2),
                             untwisted_cohomology_Q(cx, 3), seed)


def _unit(data, cell, comp):
    vec = {cell: tuple(1 if i == comp else 0 for i in range(3))}
    return TwistedCochain.from_dict(data["complex"], 2, 3, vec)


@pytest.mark.parametrize("build", [torus3, heisenberg, mapping_torus])
def test_duality_and_periods_consistent(build):
    data = build()
    assert check_duality(data["ell"], data["rho"]) == []
    assert check_periods_closed(data["complex"], data["ell"], data["periods"]) == []


def test_dd_zero_cochain():
    data = torus3()
    zero = TwistedCochain.zero(data["complex"], 2, 3)
    assert _dd(data, zero) == (Fraction(0),)


def test_t3_diagonal_blocks_sum_to_trace():
    data = torus3()
    # single-block cochains: value on the 3-cell is delta_{lr}
    for l, cell in enumerate(("e2_1", "e2_2", "e2_3")):
        for r in range(3):
            value = _dd(data, _unit(data, cell, r))
            assert value == ((1 if l == r else 0),)
    # trace: c_11 + c_22 + c_33 on the fundamental cell
    c = TwistedCochain.from_dict(data["complex"], 2, 3,
                                 {"e2_1": (1, 0, 0),
                                  "e2_2": (0, 1, 0),
                                  "e2_3": (0, 0, 1)})
    assert _dd(data, c) == (3,)


def test_heisenberg_generator_value():
    data = heisenberg()
    assert _dd(data, _unit(data, "e2_2", 1)) == (1,)
    assert _dd(data, _unit(data, "e2_3", 2)) == (1,)
    assert _dd(data, _unit(data, "e2_2", 0)) == (0,)


@pytest.mark.parametrize("build", [torus3, heisenberg, mapping_torus])
def test_cup_matrix_matches_dd_evaluate_on_basis_cochains(build):
    data = build()
    cx = data["complex"]
    cup = cup_matrix(cx, data["diagonal"], data["rho"], data["ell"],
                     data["periods"])
    width = 3 * len(cx.cells[2])
    for idx in range(width):
        flat = [1 if i == idx else 0 for i in range(width)]
        assembled = tuple(sum(a * b for a, b in zip(row, flat)) for row in cup)
        assert assembled == _dd(data, TwistedCochain.from_flat(cx, 2, 3, flat))


def test_h3_class_examples():
    for build in (torus3, mapping_torus):
        data = build()
        h3 = untwisted_cohomology_Q(data["complex"], 3)
        assert h3.coordinates([Fraction(1)]) == (1,)
    data = heisenberg()
    h3 = untwisted_cohomology_Q(data["complex"], 3)
    rng = random.Random(5)
    one = Representation.trivial(data["presentation"], 1)
    delta2 = coboundary_matrix(data["complex"], one, 2).to_rational()
    for _ in range(10):
        w = delta2.apply([Fraction(rng.randint(-9, 9), rng.randint(1, 5))
                          for _ in range(3)])
        assert h3.coordinates(w) == (0,)


def test_dd_linearity_random():
    data = mapping_torus()
    cx = data["complex"]
    rng = random.Random(41)
    for _ in range(30):
        c1 = TwistedCochain.from_flat(cx, 2, 3,
                                      [rng.randint(-5, 5) for _ in range(9)])
        c2 = TwistedCochain.from_flat(cx, 2, 3,
                                      [rng.randint(-5, 5) for _ in range(9)])
        lhs = _dd(data, c1 + c2)
        rhs = tuple(a + b for a, b in zip(_dd(data, c1), _dd(data, c2)))
        assert lhs == rhs
        k = rng.randint(-4, 4)
        assert _dd(data, c1.scaled(k)) == tuple(k * v for v in _dd(data, c1))


def test_dd_matrix_t3():
    data = torus3()
    D = _dd_matrix(data, data["diagonal"], data["periods"])
    assert D.matrix.rows == 1 and D.matrix.cols == 9
    assert [x for x in D.matrix.data[0]] == [1, 0, 0, 0, 1, 0, 0, 0, 1]


def test_dd_matrix_heisenberg():
    data = heisenberg()
    D = _dd_matrix(data, data["diagonal"], data["periods"])
    assert list(D.matrix.data[0]) == [0, 1, 0, 0, 1]


def test_dd_matrix_mapping_torus():
    data = mapping_torus()
    D = _dd_matrix(data, data["diagonal"], data["periods"])
    assert list(D.matrix.data[0]) == [1, 0, 1, 0, 1, 0, 0]
    # torsion columns are exactly zero
    assert D.matrix.data[0][5] == 0 and D.matrix.data[0][6] == 0


@pytest.mark.parametrize("build", [torus3, heisenberg, mapping_torus])
def test_validate_diagonal_bundled(build):
    data = build()
    report = _validate(data, data["diagonal"], seed=2024)
    assert report.ok, report.failures


@pytest.mark.parametrize("build", [torus3, heisenberg, mapping_torus])
def test_coboundaries_pair_to_zero_class(build):
    data = build()
    cx = data["complex"]
    delta1 = coboundary_matrix(cx, data["rho"], 1)
    h3 = untwisted_cohomology_Q(cx, 3)
    rng = random.Random(9)
    for _ in range(50):
        psi = [rng.randint(-5, 5) for _ in range(9)]
        image = TwistedCochain.from_flat(cx, 2, 3, delta1.apply(psi))
        values = _dd(data, image)
        assert all(x == 0 for x in h3.coordinates(values))


@pytest.mark.parametrize("build", [torus3, heisenberg, mapping_torus])
def test_relift_invariance_random_words(build):
    data = build()
    cx = data["complex"]
    H2 = twisted_cohomology(cx, data["rho"], 2)
    h3 = untwisted_cohomology_Q(cx, 3)
    base = [h3.coordinates(_dd(data, g)) for g in H2.generators]
    rng = random.Random(31337)
    from lagfib.groupring import Word
    for _ in range(20):
        length = rng.randint(1, 3)
        word = Word(tuple((rng.randrange(3), rng.choice((1, -1)))
                          for _ in range(length)))
        shifted = dict(data)
        shifted_diag = data["diagonal"].relifted("e3", word)
        for gen, expected in zip(H2.generators, base):
            values = dd_evaluate(cx, shifted_diag, data["rho"], data["ell"],
                                 data["periods"], gen)
            assert h3.coordinates(values) == expected


def test_relift_is_exactly_invariant_per_value():
    # with the duality in force each term's value is itself unchanged
    data = heisenberg()
    word = data["presentation"].word("a*b^-1*c")
    shifted = data["diagonal"].relifted("e3", word)
    for cell, comp in [("e2_2", 0), ("e2_2", 1), ("e2_3", 2)]:
        c = _unit(data, cell, comp)
        assert dd_evaluate(data["complex"], shifted, data["rho"], data["ell"],
                           data["periods"], c) == _dd(data, c)


def test_frame_permutation_covariance():
    data = heisenberg()
    perm = (2, 0, 1)  # new index i takes old index perm[i]

    def permute_matrix(m):
        return IntMatrix([[m.data[perm[i]][perm[j]] for j in range(3)]
                          for i in range(3)])

    pres = data["presentation"]
    ell_p = Representation("ell", pres,
                           [permute_matrix(m) for m in data["ell"].matrices])
    rho_p = Representation("rho", pres,
                           [permute_matrix(m) for m in data["rho"].matrices])
    periods_p = PeriodAssignment(3, {
        cell: tuple(vec[perm[i]] for i in range(3))
        for cell, vec in data["periods"].values.items()})
    rng = random.Random(8)
    for _ in range(20):
        flat = [rng.randint(-5, 5) for _ in range(9)]
        c = TwistedCochain.from_flat(data["complex"], 2, 3, flat)
        c_p = TwistedCochain(2, 3, c.cells,
                             [tuple(row[perm[i]] for i in range(3))
                              for row in c.values])
        lhs = dd_evaluate(data["complex"], data["diagonal"], rho_p, ell_p,
                          periods_p, c_p)
        assert lhs == _dd(data, c)


def test_torsion_annihilation():
    data = mapping_torus()
    cx = data["complex"]
    H2 = twisted_cohomology(cx, data["rho"], 2)
    h3 = untwisted_cohomology_Q(cx, 3)
    for gen, order in zip(H2.generators, H2.orders):
        if order:
            values = _dd(data, gen)
            assert all(x == 0 for x in h3.coordinates(values))


def test_certification_catches_sign_flip():
    # a table with cancelling front/back word pairs: flipping one term
    # breaks the coboundary-vanishing check
    data = mapping_torus()
    pres = data["presentation"]
    w = pres.word
    rich = DiagonalApproximation({
        "e3": [(1, "e1_1", w("1"), "e2_1", w("a")),
               (-1, "e1_1", w("1"), "e2_1", w("1")),
               (-1, "e1_3", w("1"), "e2_1", w("1")),
               (-1, "e1_2", w("1"), "e2_1", w("1")),
               (1, "e1_2", w("1"), "e2_1", w("a")),
               (1, "e1_1", w("1"), "e2_2", w("1")),
               (1, "e1_1", w("1"), "e2_2", w("a")),
               (1, "e1_2", w("1"), "e2_3", w("1"))],
    })
    good = _validate(data, rich)
    assert good.ok, good.failures
    D = _dd_matrix(data, rich, data["periods"])
    assert list(D.matrix.data[0]) == [1, 0, 1, 0, 1, 0, 0]

    flipped_terms = [(-s if i == 0 else s, fc, fw, bc, bw)
                     for i, (s, fc, fw, bc, bw) in enumerate(rich.terms["e3"])]
    flipped = DiagonalApproximation({"e3": flipped_terms})
    report = _validate(data, flipped)
    assert not report.ok
    assert any("coboundary" in f for f in report.failures)


def test_t3_sign_flip_changes_obstruction_values():
    # the flat torus has no nonzero twisted coboundaries, so a flipped
    # table still certifies; the corruption surfaces in the map itself
    data = torus3()
    terms = data["diagonal"].terms["e3"]
    flipped = DiagonalApproximation(
        {"e3": [(-s if i == 1 else s, fc, fw, bc, bw)
                for i, (s, fc, fw, bc, bw) in enumerate(terms)]})
    report = _validate(data, flipped)
    assert report.ok
    D = _dd_matrix(data, flipped, data["periods"])
    assert list(D.matrix.data[0]) != [1, 0, 0, 0, 1, 0, 0, 0, 1]


def test_missing_diagonal_cell_rejected():
    data = torus3()
    empty = DiagonalApproximation({})
    with pytest.raises(ObstructionError):
        _ = dd_evaluate(data["complex"], empty, data["rho"], data["ell"],
                        data["periods"], TwistedCochain.zero(data["complex"], 2, 3))


def test_validate_diagonal_reports_broken_data():
    data = torus3()
    report = _validate(data, DiagonalApproximation({}))
    assert not report.ok
    assert any("unusable" in f for f in report.failures)


def test_dimension_mismatch_rejected():
    data = torus3()
    short = PeriodAssignment(2, {"e1_1": (0, 1), "e1_2": (0, 0), "e1_3": (1, 0)})
    with pytest.raises(ObstructionError):
        dd_evaluate(data["complex"], data["diagonal"], data["rho"],
                    data["ell"], short, TwistedCochain.zero(data["complex"], 2, 3))


def test_torsion_column_violation_raises():
    # inconsistent periods make the obstruction of a torsion class nonzero
    data = mapping_torus()
    bad_periods = PeriodAssignment(3, {
        "e1_1": (-1, Fraction(1, 2), -1),
        "e1_2": (0, 0, 1),
        "e1_3": (1, Fraction(1, 3), 0)})
    cx = data["complex"]
    H2 = twisted_cohomology(cx, data["rho"], 2)
    h3 = untwisted_cohomology_Q(cx, 3)
    cup = cup_matrix(cx, data["diagonal"], data["rho"], data["ell"],
                     bad_periods)
    with pytest.raises(ObstructionError):
        dd_matrix(H2, cup, h3)
