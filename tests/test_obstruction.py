import random
import re
from fractions import Fraction
from types import SimpleNamespace

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from lagfib.complexes import (
    twisted_cohomology,
    untwisted_cohomology_Q,
)
from lagfib.groupring import Representation, Word, check_duality
from lagfib.intlinalg import IntMatrix
from lagfib.obstruction import (
    DiagonalApproximation,
    ObstructionError,
    PeriodAssignment,
    check_periods_closed,
    cup_matrix,
    dd_matrix,
    validate_diagonal,
)
from lagfib.problemfile import parse_word
from lagfib.realizable import realizable_subgroup

from helpers import (
    NOT_INTEGERS,
    LetterWord,
    apply,
    cochain_from_dict,
    dd_evaluate,
    dd_evaluate_fractions,
    dense_coboundary,
    eager_diagonal_checks,
    flat_cochain,
    fraction_matrix,
    fraction_values,
    heisenberg,
    mapping_torus,
    period_vector,
    random_pair,
    relifted,
    scaled,
    torus3,
)


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
    return cochain_from_dict(data["complex"], 2, 3, vec)


@pytest.mark.parametrize("build", [torus3, heisenberg, mapping_torus])
def test_duality_and_periods_consistent(build):
    data = build()
    assert check_duality(data["ell"], data["rho"]) == []
    assert check_periods_closed(data["complex"], data["ell"], data["periods"]) == []


def test_dd_zero_cochain():
    data = torus3()
    zero = cochain_from_dict(data["complex"], 2, 3, {})
    assert _dd(data, zero) == (Fraction(0),)


def test_t3_diagonal_blocks_sum_to_trace():
    data = torus3()
    # single-block cochains: value on the 3-cell is delta_{lr}
    for l, cell in enumerate(("e2_1", "e2_2", "e2_3")):
        for r in range(3):
            value = _dd(data, _unit(data, cell, r))
            assert value == ((1 if l == r else 0),)
    # trace: c_11 + c_22 + c_33 on the fundamental cell
    c = cochain_from_dict(data["complex"], 2, 3,
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
    # L.DD is integral, and agrees with the term-by-term integers L times
    # the pairing on every basis 2-cochain and on random ones
    cx = data["complex"]
    data = dict(data, periods=periods)
    cup = cup_matrix(cx, data["diagonal"], data["rho"], data["ell"], periods)
    width = 3 * len(cx.cells[2])
    flats = [[1 if i == idx else 0 for i in range(width)]
             for idx in range(width)]
    flats += [[rng.randint(-5, 5) for _ in range(width)] for _ in range(5)]
    for flat in flats:
        cochain = flat_cochain(cx, 2, 3, flat)
        expected = _dd(data, cochain)
        scaled = cup.apply(cochain.entries)
        assert all(type(x) is int for x in scaled + expected)
        assert scaled == expected
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
    for cell, vec in zip(("e1_1", "e1_2", "e1_3"), vectors):
        assert period_vector(periods, cell) == vec
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


@settings(max_examples=40, deadline=None)
@given(build=st.sampled_from([torus3, heisenberg, mapping_torus]),
       entries=st.lists(_PERIOD, min_size=9, max_size=9),
       flat=st.lists(st.integers(-5, 5), min_size=9, max_size=9))
def test_dd_evaluate_matches_the_rational_reference(build, entries, flat):
    data = build()
    cx = data["complex"]
    periods = _periods(entries[0:3], entries[3:6], entries[6:9])
    cochain = flat_cochain(cx, 2, 3, flat)
    args = (cx, data["diagonal"], data["rho"], data["ell"], periods, cochain)
    # dd_evaluate gives the pairing times L, as integers
    assert dd_evaluate(*args) == tuple(
        periods.denominator * v for v in dd_evaluate_fractions(*args))


# Duality oracle.  B is closed and orientable and rho = ell^-T, so the cup
# pairing H^2(B; Q^n_rho) x H^1(B; Q^n_ell) -> H^3(B; Q) = Q is perfect
# and D(c) depends only on the class of the periods, the radiance
# obstruction of Goldman and Hirsch (Trans. AMS 1984).  Adding the exact
# 1-cochain delta^0_ell x to the periods, for a rational 0-cochain x,
# must leave every D(g_i) alone, and exact periods must give D = 0 and
# R = H^2.  Neither reads the diagonal table's values.


def _exact_periods(data, x):
    """delta^0_ell x on each basis 1-cell, x a rational 0-cochain."""
    cx = data["complex"]
    values = [sum(a * x[j] for j, a in row.items())
              for row in cx.coboundary(data["ell"], 0)]
    return {cell: tuple(values[3 * i:3 * i + 3])
            for i, cell in enumerate(cx.cells[1])}


@pytest.mark.parametrize("build", [torus3, heisenberg, mapping_torus])
@settings(max_examples=5, deadline=None)
@given(x=st.lists(_PERIOD, min_size=3, max_size=3))
def test_exact_periods_keep_every_obstruction_value(build, x):
    data = build()
    exact = _exact_periods(data, x)
    periods = PeriodAssignment(3, {
        cell: tuple(p + e for p, e in zip(period_vector(data["periods"], cell),
                                          vec))
        for cell, vec in exact.items()})
    assert check_periods_closed(data["complex"], data["ell"], periods) == []
    D = _dd_matrix(data, data["diagonal"], periods)
    expected = _dd_matrix(data, data["diagonal"], data["periods"])
    assert fraction_values(D) == fraction_values(expected)
    assert fraction_matrix(D) == fraction_matrix(expected)


@pytest.mark.parametrize("build", [torus3, heisenberg, mapping_torus])
@settings(max_examples=5, deadline=None)
@given(x=st.lists(_PERIOD, min_size=3, max_size=3))
def test_exact_periods_give_zero_obstruction(build, x):
    data = build()
    data["periods"] = PeriodAssignment(3, _exact_periods(data, x))
    cx = data["complex"]
    assert check_periods_closed(cx, data["ell"], data["periods"]) == []
    assert _validate(data, data["diagonal"]).ok
    D = _dd_matrix(data, data["diagonal"], data["periods"])
    assert all(v == 0 for values in D.scaled_values for v in values)
    H2 = twisted_cohomology(cx, data["rho"], 2)
    R = realizable_subgroup(D, H2)
    assert R.group == H2.group
    size = len(H2.generators)
    assert R.coordinate_generators == tuple(
        tuple(int(i == j) for i in range(size)) for j in range(size))


def test_h3_class_examples():
    for build in (torus3, mapping_torus):
        data = build()
        h3 = untwisted_cohomology_Q(data["complex"], 3)
        assert h3.coordinates([Fraction(1)]) == (1,)
    data = heisenberg()
    h3 = untwisted_cohomology_Q(data["complex"], 3)
    rng = random.Random(5)
    one = Representation.trivial(data["presentation"], 1)
    delta2 = dense_coboundary(data["complex"], one, 2)
    for _ in range(10):
        w = apply(delta2, [Fraction(rng.randint(-9, 9), rng.randint(1, 5))
                           for _ in range(3)])
        assert h3.coordinates(w) == (0,)


def test_dd_linearity_random():
    data = mapping_torus()
    cx = data["complex"]
    rng = random.Random(41)
    for _ in range(30):
        v1 = [rng.randint(-5, 5) for _ in range(9)]
        v2 = [rng.randint(-5, 5) for _ in range(9)]
        c1 = flat_cochain(cx, 2, 3, v1)
        c2 = flat_cochain(cx, 2, 3, v2)
        lhs = _dd(data, flat_cochain(
            cx, 2, 3, [a + b for a, b in zip(v1, v2)]))
        rhs = tuple(a + b for a, b in zip(_dd(data, c1), _dd(data, c2)))
        assert lhs == rhs
        k = rng.randint(-4, 4)
        assert _dd(data, scaled(c1, k)) == tuple(k * v for v in _dd(data, c1))


def test_dd_matrix_t3():
    data = torus3()
    D = _dd_matrix(data, data["diagonal"], data["periods"])
    row, = fraction_matrix(D)
    assert list(row) == [1, 0, 0, 0, 1, 0, 0, 0, 1]


def test_dd_matrix_heisenberg():
    data = heisenberg()
    D = _dd_matrix(data, data["diagonal"], data["periods"])
    assert list(fraction_matrix(D)[0]) == [0, 1, 0, 0, 1]


def test_dd_matrix_mapping_torus():
    data = mapping_torus()
    D = _dd_matrix(data, data["diagonal"], data["periods"])
    assert list(fraction_matrix(D)[0]) == [1, 0, 1, 0, 1, 0, 0]
    # torsion columns are exactly zero
    assert D.scaled_matrix[0][5] == 0 and D.scaled_matrix[0][6] == 0


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
        image = flat_cochain(cx, 2, 3, apply(delta1, psi))
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
        shifted_diag = relifted(data["diagonal"], "e3", word)
        for gen, expected in zip(H2.generators, base):
            values = dd_evaluate(cx, shifted_diag, data["rho"], data["ell"],
                                 data["periods"], gen)
            assert h3.coordinates(values) == expected


def test_relift_is_exactly_invariant_per_value():
    # with the duality in force each term's value is itself unchanged
    data = heisenberg()
    word = parse_word(data["presentation"], "a*b^-1*c")
    shifted = relifted(data["diagonal"], "e3", word)
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
        cell: tuple(period_vector(data["periods"], cell)[perm[i]]
                    for i in range(3))
        for cell in data["complex"].cells_in(1)})
    rng = random.Random(8)
    for _ in range(20):
        flat = [rng.randint(-5, 5) for _ in range(9)]
        c = flat_cochain(data["complex"], 2, 3, flat)
        c_p = flat_cochain(data["complex"], 2, 3, [
            flat[j + perm[i]] for j in range(0, 9, 3) for i in range(3)])
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
    def w(text):
        return parse_word(data["presentation"], text)

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
    assert list(fraction_matrix(D)[0]) == [1, 0, 1, 0, 1, 0, 0]

    report = _validate(data, flipped)
    assert not report.ok
    assert any("coboundary" in f for f in report.failures)


def test_relift_failure_text():
    # rho as the form representation breaks the duality, so
    # rho(w)^T ell(w) is not the identity for w = a and a^-1; a direct
    # call lists check (b) as the duality check's one line, for a, which
    # the command line prints before it skips certification
    data = heisenberg()
    cx = data["complex"]
    report = validate_diagonal(cx, data["diagonal"], data["rho"], data["rho"],
                               data["periods"],
                               twisted_cohomology(cx, data["rho"], 2),
                               untwisted_cohomology_Q(cx, 3))
    assert report.checks_run == 45
    assert report.failures == tuple(check_duality(data["rho"], data["rho"]))
    assert report.failures == (
        "duality: generator a: rho(a) is not the inverse-transpose of "
        "rho(a)",)


def _periods_over_6(data):
    """The mapping torus periods with e1_1's divided by 3."""
    periods = {cell: period_vector(data["periods"], cell)
               for cell in data["complex"].cells_in(1)}
    periods["e1_1"] = (Fraction(-1, 3), Fraction(1, 6), Fraction(-1, 3))
    return PeriodAssignment(3, periods)


def test_failing_class_is_divided_by_both_denominators():
    # the sign-flipped table with periods over 6 fails (a) on dual(e1_2, 2)
    # with class 2/3; a projection over 2 halves it to 1/3
    data = mapping_torus()
    cx = data["complex"]
    _, flipped = _mapping_torus_tables(data)
    periods = _periods_over_6(data)
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


def _certification_args(data, diagonal=None, rep_form=None, periods=None):
    """``validate_diagonal``'s arguments but the seed, on ``data`` with
    any of its table, form representation and periods replaced."""
    cx = data["complex"]
    return (cx, diagonal or data["diagonal"], data["rho"],
            rep_form or data["ell"], periods or data["periods"],
            twisted_cohomology(cx, data["rho"], 2),
            untwisted_cohomology_Q(cx, 3))


def _seeded_case(name):
    """The arguments of a certification case."""
    if name in ("t3", "heisenberg", "mapping_torus"):
        builder = {"t3": torus3, "heisenberg": heisenberg,
                   "mapping_torus": mapping_torus}[name]
        return _certification_args(builder())
    if name == "(a) fails":
        data = mapping_torus()
        return _certification_args(data, _mapping_torus_tables(data)[1],
                                   periods=_periods_over_6(data))
    data = heisenberg()
    return _certification_args(data, rep_form=data["rho"])


@pytest.mark.parametrize("name", ["t3", "heisenberg", "mapping_torus",
                                  "(a) fails", "(b) fails"])
@settings(max_examples=10, deadline=None)
@given(seed=st.integers(0, 2 ** 32 - 1))
def test_seeded_certification_matches_the_eager_suite(name, seed):
    # the library counts the random checks of (a) and (b) without drawing
    # them; the reference draws and evaluates every one of them
    args = _seeded_case(name)
    report = validate_diagonal(*args, seed)
    eager = eager_diagonal_checks(*args, seed)
    assert report.checks_run == eager.checks_run
    assert bool(eager.failed) == name.endswith("fails")
    assert report.failures == validate_diagonal(*args).failures


@pytest.mark.parametrize("build", [torus3, heisenberg, mapping_torus])
@settings(max_examples=20, deadline=None)
@given(seed=st.integers(0, 2 ** 32 - 1), dual=st.booleans())
def test_relift_failures_are_the_basis_words_that_move(build, seed, dual):
    # the re-lifts fail, as the duality check's lines, exactly when
    # rho(w)^T ell(w) = 1 fails on a basis word, multiplied out letter by
    # letter
    data = build()
    cx = data["complex"]
    rho, ell = random_pair(random.Random(seed), data["presentation"], dual)
    gens = data["presentation"].generators
    words = [Word.generator(g, e) for g in range(len(gens))
             for e in (1, -1)] + [Word()]
    report = validate_diagonal(cx, data["diagonal"], rho, ell,
                               data["periods"],
                               twisted_cohomology(cx, data["rho"], 2),
                               untwisted_cohomology_Q(cx, 3))
    moved = [word.text(gens) for word in words
             if not (LetterWord.spelled(word).value(rho).transpose()
                     * LetterWord.spelled(word).value(ell)).is_identity()]
    assert bool(moved) != dual
    assert [line for line in report.failures
            if not line.startswith("coboundary of")] == check_duality(ell,
                                                                      rho)


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
    assert list(fraction_matrix(D)[0]) != [1, 0, 0, 0, 1, 0, 0, 0, 1]


def test_missing_diagonal_cell_rejected():
    data = torus3()
    empty = DiagonalApproximation({})
    with pytest.raises(ObstructionError):
        cup_matrix(data["complex"], empty, data["rho"], data["ell"],
                   data["periods"])


def test_validate_diagonal_reports_broken_data():
    data = torus3()
    report = _validate(data, DiagonalApproximation({}))
    assert not report.ok
    assert any("unusable" in f for f in report.failures)


@pytest.mark.parametrize("seed", [None, 7])
def test_validate_diagonal_reports_a_singular_generator(seed):
    # ell(a) = diag(2, 1, 1) has no inverse over Z, which the duality
    # check names: a failure, not a LinAlgError
    data = torus3()
    I = IntMatrix.identity(3)
    singular = Representation("ell", data["rho"].presentation, [
        IntMatrix([[2, 0, 0], [0, 1, 0], [0, 0, 1]]), I, I])
    report = validate_diagonal(*_certification_args(data, rep_form=singular),
                               seed)
    assert report.failures == (
        "duality: generator a of 'ell' is not invertible over Z",)


def test_dimension_mismatch_rejected():
    data = torus3()
    short = PeriodAssignment(2, {"e1_1": (0, 1), "e1_2": (0, 0), "e1_3": (1, 0)})
    with pytest.raises(ObstructionError):
        cup_matrix(data["complex"], data["diagonal"], data["rho"],
                   data["ell"], short)


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


def test_periods_are_held_over_one_denominator():
    # L and L.P are the one stored form: equality reads them, and P over
    # Fractions is read from them, an integer period included
    periods = _periods((0, Fraction(1, 2), 0), (Fraction(2, 2), 0, 0),
                       (0, 0, Fraction(-1, 3)))
    assert (periods.denominator, periods.scaled_vector("e1_2")) == (6, (6, 0, 0))
    assert periods.scaled_vector("e1_3") == (0, 0, -2)
    assert period_vector(periods, "e1_3") == (0, 0, Fraction(-1, 3))
    assert periods == PeriodAssignment(3, {
        "e1_3": (0, 0, Fraction(-2, 6)), "e1_2": (1, 0, 0),
        "e1_1": (0, Fraction(1, 2), 0)})
    assert periods != _periods((0, Fraction(1, 2), 0), (1, 0, 0),
                               (0, 0, Fraction(-1, 6)))
    assert periods != PeriodAssignment(3, {"e1_1": (0, Fraction(1, 2), 0)})
    with pytest.raises(ObstructionError, match="no period vector for "
                                               "1-cell 'e9'"):
        periods.scaled_vector("e9")


def test_periods_over_a_given_denominator():
    # integer vectors over a denominator, as the reader passes L.P over
    # L, are held over the least common denominator of all periods
    expected = _periods((0, Fraction(1, 2), 0), (1, 0, 0),
                        (0, 0, Fraction(-1, 3)))
    scaled = {"e1_1": (0, 3, 0), "e1_2": (6, 0, 0), "e1_3": (0, 0, -2)}
    assert PeriodAssignment(3, scaled, 6) == expected
    assert PeriodAssignment(3, {cell: tuple(5 * x for x in vec)
                                for cell, vec in scaled.items()},
                            30) == expected
    # a Fraction entry is over the given denominator too
    assert PeriodAssignment(3, {"e1_1": (0, Fraction(3, 2), 0),
                                "e1_2": (3, 0, 0), "e1_3": (0, 0, -1)},
                            3) == expected
    even = PeriodAssignment(3, {"e1_1": (2, 4, 0)}, 2)
    assert (even.denominator, even.scaled_vector("e1_1")) == (1, (1, 2, 0))


@pytest.mark.parametrize("value", NOT_INTEGERS + [0, -2])
def test_period_denominator_is_a_positive_integer(value):
    with pytest.raises(ObstructionError, match=re.escape(repr(value))):
        PeriodAssignment(3, {"e1_1": (0, 1, 0)}, value)


@pytest.mark.parametrize("value", NOT_INTEGERS)
def test_period_dimension_refuses_non_integers(value):
    with pytest.raises(ObstructionError, match=re.escape(repr(value))):
        PeriodAssignment(value, {})


@pytest.mark.parametrize("value", NOT_INTEGERS + [1.0, -1.0])
def test_diagonal_sign_refuses_non_integers(value):
    # a float sign of 1.0 is refused here, not later in the exact pairing
    with pytest.raises(ObstructionError, match=re.escape(repr(value))):
        DiagonalApproximation({"e3": [(value, "e1_1", Word(), "e2_1",
                                       Word())]})


@pytest.mark.parametrize("value", [0.1, "0.5"])
def test_periods_refuse_floats_and_strings(value):
    # 0.1 would be 3602879701896397/36028797018963968 and scale every
    # period by 2^55; "0.5" would be parsed
    with pytest.raises(ObstructionError, match=re.escape(repr(value))):
        PeriodAssignment(3, {"e1_1": (0, value, 0)})


def test_unknown_back_cell_is_an_obstruction_error():
    data = torus3()
    diagonal = DiagonalApproximation({"e3": [
        (1, "e1_3", Word(), "nope", parse_word(data["presentation"], "c"))]})
    report = _validate(data, diagonal)
    assert report.failures == (
        "diagonal data unusable: back cell 'nope' is not a 2-cell",)
    with pytest.raises(ObstructionError,
                       match="back cell 'nope' is not a 2-cell"):
        cup_matrix(data["complex"], diagonal, data["rho"], data["ell"],
                   data["periods"])


def test_generator_index_past_the_presentation_is_unusable_data():
    # t3 has three generators; index 5 names none of them
    data = torus3()
    diagonal = DiagonalApproximation({"e3": [
        (1, "e1_3", Word(((5, 1),)), "e2_1", Word())]})
    report = _validate(data, diagonal)
    assert report.failures == (
        "diagonal data unusable: generator index 5 is out of range for 3 "
        "generators",)
