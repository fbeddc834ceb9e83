import random
from fractions import Fraction
from types import SimpleNamespace

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from lagfib.complexes import (
    TwistedCochain,
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

from helpers import dense_coboundary, heisenberg, mapping_torus, torus3


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


def _assert_cup_matches_dd_evaluate(data, periods, rng):
    # L.DD is integral, and DD = L.DD / L agrees with the term-by-term
    # Fractions on every basis 2-cochain and on random ones
    cx = data["complex"]
    data = dict(data, periods=periods)
    cup = cup_matrix(cx, data["diagonal"], data["rho"], data["ell"], periods)
    width = 3 * len(cx.cells[2])
    flats = [[1 if i == idx else 0 for i in range(width)]
             for idx in range(width)]
    flats += [[rng.randint(-5, 5) for _ in range(width)] for _ in range(5)]
    for flat in flats:
        expected = _dd(data, TwistedCochain.from_flat(cx, 2, 3, flat))
        scaled = cup.apply(flat)
        assert all(type(x) is int for x in scaled)
        assert scaled == tuple(cup.denominator * v for v in expected)
    return cup


@pytest.mark.parametrize("build", [torus3, heisenberg, mapping_torus])
def test_cup_matrix_matches_dd_evaluate_on_basis_cochains(build):
    data = build()
    _assert_cup_matches_dd_evaluate(data, data["periods"], random.Random(4))


def _periods(*vectors):
    return PeriodAssignment(3, dict(zip(("e1_1", "e1_2", "e1_3"), vectors)))


@pytest.mark.parametrize("vectors, denominator", [
    (((0, Fraction(1, 2), 0), (0, 0, Fraction(1, 3)), (Fraction(1, 6), 0, 0)),
     6),
    (((Fraction(1, 4), 0, Fraction(-1, 6)), (0, Fraction(2, 9), 0),
      (1, 0, Fraction(3, 4))), 36),
])
def test_cup_matrix_over_a_common_denominator(vectors, denominator):
    periods = _periods(*vectors)
    cup = _assert_cup_matches_dd_evaluate(torus3(), periods, random.Random(6))
    assert cup.denominator == periods.denominator == denominator
    for cell, vec in periods.values.items():
        assert periods.scaled_vector(cell) == tuple(denominator * x
                                                    for x in vec)


_PERIOD = st.builds(Fraction, st.integers(-12, 12), st.integers(1, 12))


@settings(max_examples=40, deadline=None)
@given(build=st.sampled_from([torus3, heisenberg, mapping_torus]),
       entries=st.lists(_PERIOD, min_size=9, max_size=9),
       seed=st.integers(0, 2 ** 16))
def test_cup_matrix_matches_dd_evaluate_on_random_periods(build, entries,
                                                          seed):
    # the identity needs neither closed periods nor a certified table
    periods = _periods(entries[0:3], entries[3:6], entries[6:9])
    _assert_cup_matches_dd_evaluate(build(), periods, random.Random(seed))


def test_h3_class_examples():
    for build in (torus3, mapping_torus):
        data = build()
        h3 = untwisted_cohomology_Q(data["complex"], 3)
        assert h3.coordinates([Fraction(1)]) == (1,)
    data = heisenberg()
    h3 = untwisted_cohomology_Q(data["complex"], 3)
    rng = random.Random(5)
    one = Representation.trivial(data["presentation"], 1)
    delta2 = dense_coboundary(data["complex"], one, 2).to_rational()
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
    delta1 = dense_coboundary(cx, data["rho"], 1)
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


def _mapping_torus_tables(data):
    """A table with cancelling front/back word pairs, and the same table
    with its first sign flipped."""
    w = data["presentation"].word
    terms = [(1, "e1_1", w("1"), "e2_1", w("a")),
             (-1, "e1_1", w("1"), "e2_1", w("1")),
             (-1, "e1_3", w("1"), "e2_1", w("1")),
             (-1, "e1_2", w("1"), "e2_1", w("1")),
             (1, "e1_2", w("1"), "e2_1", w("a")),
             (1, "e1_1", w("1"), "e2_2", w("1")),
             (1, "e1_1", w("1"), "e2_2", w("a")),
             (1, "e1_2", w("1"), "e2_3", w("1"))]
    flipped = [(-terms[0][0],) + terms[0][1:]] + terms[1:]
    return (DiagonalApproximation({"e3": terms}),
            DiagonalApproximation({"e3": flipped}))


def test_certification_catches_sign_flip():
    # flipping one term breaks the coboundary-vanishing check
    data = mapping_torus()
    rich, flipped = _mapping_torus_tables(data)
    good = _validate(data, rich)
    assert good.ok, good.failures
    D = _dd_matrix(data, rich, data["periods"])
    assert list(D.matrix.data[0]) == [1, 0, 1, 0, 1, 0, 0]

    report = _validate(data, flipped)
    assert not report.ok
    assert any("coboundary" in f for f in report.failures)


def test_relift_failure_text():
    # rho as the form representation breaks the duality, so re-lifting
    # by a changes a class
    data = heisenberg()
    cx = data["complex"]
    report = validate_diagonal(cx, data["diagonal"], data["rho"], data["rho"],
                               data["periods"],
                               twisted_cohomology(cx, data["rho"], 2),
                               untwisted_cohomology_Q(cx, 3))
    assert report.checks_run == 45
    assert report.failures == (
        "re-lifting 'e3' by a changes the class of a generator",) * 2 + (
        "re-lifting 'e3' by a^-1 changes the class of a generator",) * 2


def test_failing_class_is_divided_by_both_denominators():
    # the sign-flipped table with periods over 6 fails (a) on dual(e1_2, 2)
    # with class 2/3; a projection over 2 halves it to 1/3
    data = mapping_torus()
    cx = data["complex"]
    _, flipped = _mapping_torus_tables(data)
    periods = PeriodAssignment(3, dict(
        data["periods"].values,
        e1_1=(Fraction(-1, 3), Fraction(1, 6), Fraction(-1, 3))))
    h3 = untwisted_cohomology_Q(cx, 3)
    halved = SimpleNamespace(denominator=2 * h3.denominator,
                             scaled_projection=h3.scaled_projection)
    for projection, value in ((h3, "Fraction(2, 3)"),
                              (halved, "Fraction(1, 3)")):
        report = validate_diagonal(cx, flipped, data["rho"], data["ell"],
                                   periods,
                                   twisted_cohomology(cx, data["rho"], 2),
                                   projection)
        assert report.failures == (
            "coboundary of the twisted 1-cochain TwistedCochain(deg=1, "
            "{'e1_2': (0, 1, 0)}) pairs to a nonzero class (%s,)" % value,)


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
