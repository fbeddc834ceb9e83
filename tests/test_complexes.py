import random
import re
import sys
from fractions import Fraction
from math import gcd, lcm
from pathlib import Path
from unittest import mock

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from sympy import Matrix, primefactors
from sympy.matrices.normalforms import smith_normal_form
from sympy.polys.domains import ZZ

from lagfib import complexes, problemfile
from lagfib.complexes import (
    ComplexError,
    EquivariantComplex,
    NotACocycleError,
    Quotient,
    TwistedCochain,
    cochain_from_coordinates,
    cocycle_coordinates,
    twisted_cohomology,
    untwisted_cohomology_Q,
    validate_complex,
)
from lagfib.cli import bundled_text, load_bundled, run
from lagfib.groupring import (
    Presentation,
    PresentationMismatch,
    Representation,
    Word,
)
from lagfib.intlinalg import AbelianGroup, IntMatrix, LinAlgError, hnf_columns

from lagfib.obstruction import check_periods_closed
from lagfib.problemfile import parse_problem_text, parse_word

from helpers import (
    NOT_INTEGERS,
    apply,
    boundary_dict_rows,
    boundary_dicts,
    boundary_terms,
    coboundary_reference,
    cochain_from_dict,
    combination,
    dense_coboundary,
    double_boundary_dicts,
    flat,
    flat_cochain,
    heisenberg,
    mapping_torus,
    named_problem,
    periods_closed_reference,
    rat_rank,
    rational_basis,
    rational_projection_reference,
    scaled,
    sparse,
    torus3,
)

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "perfbench"))

from t3grid import cubical_t3  # noqa: E402


def _unit(complex_, degree, dim, cell, comp):
    vec = {cell: tuple(1 if i == comp else 0 for i in range(dim))}
    return cochain_from_dict(complex_, degree, dim, vec)


# ---------------------------------------------------------------------------
# validation


@pytest.mark.parametrize("build", [torus3, heisenberg, mapping_torus])
def test_boundary_squares_to_zero(build):
    data = build()
    assert validate_complex(data["complex"], [data["rho"], data["ell"]]) == []


def test_corrupted_boundary_detected():
    data = mapping_torus()
    cx = data["complex"]
    pres = data["presentation"]
    bad_boundaries = boundary_dicts(cx)
    # flip one sign in the top boundary: (1 - c) becomes (1 + c)
    bad_boundaries["e3"]["e2_1"] = {Word(): 1, parse_word(pres, "c"): 1}
    bad = EquivariantComplex(pres, cx.cells, bad_boundaries)
    failures = validate_complex(bad, [data["rho"]])
    assert any("double boundary of 'e3'" in f for f in failures)


def test_complex_structure_errors():
    pres = Presentation(["a"])
    with pytest.raises(ComplexError):
        EquivariantComplex(pres, [("v",), ("e",)],
                           {"e": {"w": {Word(): 1}}})
    with pytest.raises(ComplexError):
        EquivariantComplex(pres, [("v",), ("v",)], {})
    with pytest.raises(ComplexError, match="must be a dict"):
        EquivariantComplex(pres, [("v",), ("e",)], {"e": {"v": 1}})
    with pytest.raises(ComplexError, match="term 'a' that is not a Word"):
        EquivariantComplex(pres, [("v",), ("e",)], {"e": {"v": {"a": 1}}})


def test_complex_refuses_a_word_past_its_generators():
    # a Word does not know its presentation, so the complex checks every
    # boundary word: one past the generators reached validate_complex and
    # twisted_cohomology, which raised GeneratorIndexError from inside
    with pytest.raises(ComplexError, match=re.escape(
            "boundary entry of 'e' on 'v': generator index 5 is out of "
            "range for 1 generators")):
        EquivariantComplex(Presentation(["a"]), [("v",), ("e",), ("f",)],
                           {"e": {"v": {Word(((5, 1),)): 1, Word(): -1}},
                            "f": {"e": {Word(): 1}}})


def test_complex_keeps_clean_entries_and_cleans_the_rest():
    # zero coefficients and zero entries are dropped, and an int subclass
    # is read as an int; the table holds each distinct word once, the
    # identity at id 0, and the terms (target, word id, coefficient) in
    # the order of the dicts; equality is by content, not by that order
    pres = Presentation(["a"])
    a = parse_word(pres, "a")
    cx = EquivariantComplex(
        pres, [("v1", "v2", "v3"), ("e",)],
        {"e": {"v1": {a: 1, Word(): -1}, "v2": {a: True, Word(): 0},
               "v3": {a: 0}}})
    assert cx.words == (Word(), a)
    assert cx.terms == (((), (), ()), (((0, 1, 1), (0, 0, -1), (1, 1, 1)),))
    assert all(type(c) is int for _, _, c in cx.terms[1][0])
    assert boundary_terms(cx) == {"e": [("v1", a, 1), ("v1", Word(), -1),
                                        ("v2", a, 1)]}
    assert not hasattr(cx, "boundaries")
    assert EquivariantComplex(pres, cx.cells, boundary_dicts(cx)) == cx
    assert EquivariantComplex(pres, cx.cells, {"e": {
        "v2": {a: 1}, "v1": {Word(): -1, a: 1}}}) == cx
    assert EquivariantComplex(pres, cx.cells, {"e": {
        "v1": {a: 1, Word(): -1}, "v3": {a: 1}}}) != cx


# ---------------------------------------------------------------------------
# coboundary matrices


def _z4_complex():
    """e1 = (1 + a) v1 and e2 = v1 + (1 + a) v2: under the augmentation
    delta^0 = [[2, 0], [1, 2]], so H^1 = Z/4."""
    pres = Presentation(["a"])
    one_plus_a = {Word(): 1, parse_word(pres, "a"): 1}
    return EquivariantComplex(
        pres, [("v1", "v2"), ("e1", "e2")],
        {"e1": {"v1": one_plus_a},
         "e2": {"v1": {Word(): 1}, "v2": one_plus_a}})


def _cancelling_complex():
    """e = (a - b) v1 + (1 + a) v2, with rho(a) = rho(b): the entry on v1
    cancels under rho and under the augmentation, but not under ell."""
    pres = Presentation(["a", "b"])
    a, b = parse_word(pres, "a"), parse_word(pres, "b")
    shear = IntMatrix([[1, 1], [0, 1]])
    reps = [Representation("rho", pres, [shear, shear]),
            Representation("ell", pres, [shear, IntMatrix.identity(2)])]
    return EquivariantComplex(
        pres, [("v1", "v2"), ("e",)],
        {"e": {"v1": {a: 1, b: -1}, "v2": {Word(): 1, a: 1}}}), reps


GRIDS = ["%s %dx%dx%d" % ((holonomy,) + size)
         for holonomy in ("flat", "sheared")
         for size in ((1, 1, 1), (2, 1, 1), (2, 2, 1), (2, 2, 2), (3, 2, 2))]


@pytest.mark.parametrize("name", ["t3", "heisenberg", "mapping_torus", "Z/4",
                                  "cancelling"] + GRIDS)
def test_sparse_coboundary_rows_match_the_dense_assembly(name):
    # every representation and the augmentation, in every degree from -1
    # to the top, where delta^k is None for want of k- or (k+1)-cells;
    # the reference evaluates each boundary entry with ``ring_value``
    if name == "Z/4":
        cx, reps = _z4_complex(), []
    elif name == "cancelling":
        cx, reps = _cancelling_complex()
    elif name in GRIDS:
        holonomy, size = name.split()
        problem = parse_problem_text(cubical_t3(
            *map(int, size.split("x")), holonomy=holonomy))
        cx, reps = problem.complex, list(problem.representations.values())
    else:
        problem = load_bundled(name)
        cx, reps = problem.complex, list(problem.representations.values())
    for rep in reps + [cx.augmentation]:
        for k in range(-1, cx.top + 1):
            rows = cx.coboundary(rep, k)
            if not (cx.n_cells(k) and cx.n_cells(k + 1)):
                assert rows is None, (rep.name, k)
                continue
            assert all(x for row in rows for x in row.values())
            reference = coboundary_reference(cx, rep, k)
            assert rows == tuple(sparse(row) for row in reference.data), (
                rep.name, k)


def test_assembly_needs_the_complex_presentation():
    cx, _ = _cancelling_complex()
    other = Representation.trivial(Presentation(["a", "b", "c"]), 1)
    with pytest.raises(PresentationMismatch):
        cx.coboundary(other, 0)


def test_cancelling_boundary_entries_store_nothing():
    cx, (rho, ell) = _cancelling_complex()
    # rho(1 + a) = [[2, 1], [0, 2]] and ell(a - b) = [[0, 1], [0, 0]]
    assert cx.coboundary(rho, 0) == ({2: 2, 3: 1}, {3: 2})
    assert cx.coboundary(cx.augmentation, 0) == ({1: 2},)
    assert cx.coboundary(ell, 0) == ({1: 1, 2: 2, 3: 1}, {3: 2})


def test_heisenberg_top_coboundary_block():
    data = heisenberg()
    delta2 = dense_coboundary(data["complex"], data["rho"], 2)
    # rows: one 3-cell (3 rows); columns blocked by e2_1, e2_2, e2_3
    assert delta2.rows == 3 and delta2.cols == 9
    block = [list(row[3:6]) for row in delta2.data]
    assert block == [[0, 0, -1], [0, 0, 0], [0, 0, 0]]
    assert all(delta2.data[r][c] == 0 for r in range(3) for c in range(9)
               if not (3 <= c < 6))


def test_mapping_torus_cocycle_and_coboundary_conditions():
    data = mapping_torus()
    cx = data["complex"]
    delta2 = dense_coboundary(cx, data["rho"], 2)
    block = [list(row[3:6]) for row in delta2.data]
    assert block == [[-2, 0, 0], [0, 0, 0], [0, 0, -2]]
    # the image of delta^1 is exactly the lattice 2Z at slots
    # (e2_1, comp 2) and (e2_3, comp 2)
    delta1 = dense_coboundary(cx, data["rho"], 1)
    from lagfib.intlinalg import hnf_columns
    basis, pivots = hnf_columns([sparse(c) for c in zip(*delta1.data)])
    assert (basis, pivots) == ([{1: 2}, {7: 2}], [1, 7])


def test_t3_trivial_rep_coboundaries_vanish():
    data = torus3()
    cx = data["complex"]
    one = Representation.trivial(data["presentation"], 3)
    for k in range(3):
        assert not any(cx.coboundary(one, k))


# t3 with e1_1 = (a + 1)*e0 and (1 + b)*e1_1 in e2_1: the boundary of e2_1
# no longer squares to zero, under every representation
T3_TWO_EDITS = bundled_text("t3").replace(
    "boundary e1_1 = (a - 1)*e0", "boundary e1_1 = (a + 1)*e0").replace(
    "boundary e2_1 = (1 - b)*e1_1", "boundary e2_1 = (1 + b)*e1_1")

# one (x - 1) -> (x + 1) boundary edit per non-trivial holonomy, after
# which the boundary of a 2-cell does not square to zero under rho
EDITED = {
    "heisenberg": ("boundary e1_2 = (b - 1)*e0", "boundary e1_2 = (b + 1)*e0"),
    "mapping_torus": ("boundary e1_2 = (b - 1)*e0",
                      "boundary e1_2 = (b + 1)*e0"),
    "sheared 2x1x1": ("boundary e1_2_0_0_0 = + b*e0_0_0_0 - e0_0_0_0",
                      "boundary e1_2_0_0_0 = + b*e0_0_0_0 + e0_0_0_0"),
}


def _edited(name):
    text = (bundled_text(name) if name in ("heisenberg", "mapping_torus")
            else cubical_t3(2, 1, 1, "sheared"))
    old, new = EDITED[name]
    assert old in text
    return parse_problem_text(text.replace(old, new))


def _checked_tables(cx, rep):
    """The double-boundary tables of ``rep`` by degree, each checked
    against the (row block, column block) pairs on which the product of
    the dense coboundaries, assembled block by block, does not vanish."""
    n = rep.dim
    tables = []
    for k in range(cx.top - 1):
        product = (coboundary_reference(cx, rep, k + 1)
                   * coboundary_reference(cx, rep, k))
        want = {(r // n, c // n) for r, row in enumerate(product.data)
                for c, x in enumerate(row) if x}
        table = cx.double_boundary_table(rep, k)
        assert all(table.values())
        assert {(i, j) for i, cols in table.items() for j in cols} == want, (
            rep.name, k)
        tables.append(table)
    return tables


@pytest.mark.parametrize("name", ["t3", "t3 two edits"] + [
    "flat %dx%dx%d" % size for size in ((1, 1, 1), (2, 1, 1), (2, 2, 1),
                                        (2, 2, 2), (3, 2, 2))])
def test_trivial_holonomy_double_coboundary_is_the_dense_product(name):
    # read from the augmentation's table under the identity holonomy
    problem = (parse_problem_text(T3_TWO_EDITS) if name == "t3 two edits"
               else named_problem(name))
    cx = problem.complex
    for rep in (problem.rho, problem.ell,
                Representation.trivial(cx.presentation, 2, "two")):
        assert rep.is_trivial
        assert any(_checked_tables(cx, rep)) == (name == "t3 two edits")


@pytest.mark.parametrize("name, edited", [
    (name, edited) for name in EDITED for edited in (False, True)])
def test_double_boundary_table_is_the_dense_product(name, edited):
    problem = _edited(name) if edited else named_problem(name)
    cx = problem.complex
    assert not problem.rho.is_trivial
    assert any(_checked_tables(cx, problem.rho)) == edited
    _checked_tables(cx, problem.ell)
    _checked_tables(cx, cx.augmentation)


HEISENBERG_E2_2 = bundled_text("heisenberg").replace(
    "boundary e2_2 = (1 - c)*e1_2", "boundary e2_2 = (1 + c)*e1_2")

# t3 with rho(a) of determinant 2, and then rho(b) too, read as a^-1 and
# b^-1 by the boundary: (edits, the generator the check names)
T3_DETERMINANT_2 = {
    "a^-1 in e1_1": ([("a = [[1,0,0],[0,1,0],[0,0,1]]\nb",
                       "a = [[2,0,0],[0,1,0],[0,0,1]]\nb"),
                      ("(a - 1)*e0", "(a^-1 - 1)*e0")], "a"),
    # a 1-cell's b^-1 comes before a 2-cell's a^-1 in assembly order
    "b^-1 in e1_2, a^-1 in e2_1": ([
        ("a = [[1,0,0],[0,1,0],[0,0,1]]\nb = [[1,0,0],[0,1,0],[0,0,1]]\nc",
         "a = [[2,0,0],[0,1,0],[0,0,1]]\nb = [[1,0,0],[0,2,0],[0,0,1]]\nc"),
        ("(b - 1)*e0", "(b^-1 - 1)*e0"),
        ("(a - 1)*e1_2", "(a^-1 - 1)*e1_2")], "b"),
}


def _t3_determinant_2(name):
    """t3 with the rho edits of ``T3_DETERMINANT_2[name]``, each made in
    rho's section (ell is listed first) and checked to apply."""
    edits, _ = T3_DETERMINANT_2[name]
    head, sep, rho = bundled_text("t3").partition("[representation rho]")
    for old, new in edits:
        assert rho.count(old) == 1, old
        rho = rho.replace(old, new)
    return parse_problem_text(head + sep + rho)


def _free_cancellation_input(name):
    """The inputs on which the free group ring's double boundary is
    checked against the dense product, as (problem, the representations
    expected to fail)."""
    if name == "heisenberg e2_2":
        # the boundary of e3 no longer squares to zero under ell and rho;
        # the augmentation sends e3's coefficient a - c on e2_2 to 0
        return parse_problem_text(HEISENBERG_E2_2), {"ell", "rho"}
    if name == "t3 a*a^-1*a":
        text = bundled_text("t3").replace("boundary e1_1 = (a - 1)*e0",
                                          "boundary e1_1 = (a*a^-1*a - 1)*e0")
        problem = parse_problem_text(text)
        assert problem.complex == load_bundled("t3").complex
        return problem, set()
    # sheared 2x2x1 with rho(b) not commuting with rho(a): the words a*b and
    # b*a of a square's double boundary do not cancel freely, and their
    # matrices differ
    text = cubical_t3(2, 2, 1, "sheared")
    old = "a = [[1,0,-1],[0,1,0],[0,0,1]]\nb = [[1,0,0],[0,1,0],[0,0,1]]"
    assert text.count(old) == 1
    problem = parse_problem_text(text.replace(
        old, "a = [[1,0,-1],[0,1,0],[0,0,1]]\nb = [[1,0,0],[1,1,0],[0,0,1]]"))
    rho = problem.rho.matrices
    assert rho[0] * rho[1] != rho[1] * rho[0]
    return problem, {"rho"}


@pytest.mark.parametrize("name", ["heisenberg e2_2", "t3 a*a^-1*a",
                                  "sheared 2x2x1 noncommuting"])
def test_free_cancellation_keeps_the_dense_product(name):
    problem, failing = _free_cancellation_input(name)
    cx = problem.complex
    for rep in (problem.rho, problem.ell, cx.augmentation):
        assert any(_checked_tables(cx, rep)) == (rep.name in failing), (
            rep.name)


def test_heisenberg_e2_2_edit_fails_under_ell_and_rho_alone():
    status, out = run("validate", parse_problem_text(HEISENBERG_E2_2))
    assert status == 1
    lines = [line for line in out.splitlines() if "double boundary" in line]
    assert lines == ["    - double boundary of 'e3' is nonzero on e1_2 under "
                     "representation '%s'" % name for name in ("ell", "rho")]


@pytest.mark.parametrize("name", sorted(T3_DETERMINANT_2))
def test_an_inverse_outside_gl_is_named_before_free_cancellation(name):
    # rho has a generator of determinant 2 that the boundary reads as an
    # inverse: the check evaluates every boundary word first, so it names
    # the generator that dense assembly names, and caches nothing
    problem = _t3_determinant_2(name)
    cx = problem.complex
    generator = T3_DETERMINANT_2[name][1]
    assert problem.rho.inverses["abc".index(generator)] is None
    message = ("representation 'rho': generator '%s' is not invertible "
               "over Z" % generator)
    with pytest.raises(LinAlgError, match=re.escape(message)):
        coboundary_reference(cx, problem.rho, 0)
    for _ in range(2):  # nothing is cached, so it raises again
        with pytest.raises(LinAlgError, match=re.escape(message)):
            cx.double_boundary_table(problem.rho, 0)
    assert validate_complex(cx, problem.representations.values()) == [
        "cannot evaluate the boundary: " + message]
    status, out = run("validate", problem)
    assert status == 1
    assert "    - cannot evaluate the boundary: %s\n" % message in out


def test_free_cancellation_leaves_few_terms_on_a_sheared_grid():
    # a work guard in place of a timer: of the 1536 word products in each
    # degree of sheared 4x4x4, only 24 terms on 12 (cell, face) pairs
    # survive free cancellation, on the six words x*y of the commutation
    # relations, each evaluated once per holonomy
    cx = named_problem("sheared 4x4x4").complex
    names = cx.presentation.generators
    for k in (0, 1):
        words, terms = cx._double_boundary(k)
        kept = {w for row in terms.values() for kept in row.values()
                for _, w in kept}
        assert sorted(words[w].text(names) for w in kept) == [
            "a*b", "a*c", "b*a", "b*c", "c*a", "c*b"]
        assert sum(len(row) for row in terms.values()) == 12
        assert sum(len(kept) for row in terms.values()
                   for kept in row.values()) == 24


def test_trivial_holonomy_double_boundary_failures_are_pinned():
    status, out = run("validate", parse_problem_text(T3_TWO_EDITS))
    assert status == 1
    lines = [line for line in out.splitlines() if "double boundary" in line]
    assert lines == ["    - double boundary of 'e2_1' is nonzero on e0 under "
                     "representation '%s'" % name
                     for name in ("ell", "rho", "augmentation")]


def test_a_foreign_representation_misses_the_holonomy_caches():
    # rho's matrices are cached, but over another presentation they name
    # another local system
    problem = load_bundled("heisenberg")
    cx, rho = problem.complex, problem.rho
    cx.double_boundary_table(rho, 0)
    for matrices in (rho.matrices, cx.augmentation.matrices):
        foreign = Representation("rho", Presentation(["a", "b", "c"]),
                                 matrices)
        with pytest.raises(PresentationMismatch):
            cx.coboundary(foreign, 0)
        with pytest.raises(PresentationMismatch):
            cx.double_boundary_table(foreign, 0)


@pytest.mark.parametrize("name", ["t3"] + ["flat %dx%dx%d" % size for size in (
    (1, 1, 1), (2, 1, 1), (2, 2, 1), (2, 2, 2), (3, 2, 2), (3, 3, 3),
    (4, 3, 3))])
def test_trivial_holonomy_cohomology_is_n_copies_of_the_base(name):
    # a constant local system Z^n: twisted H^k is n copies of H^k(B; Z)
    problem = named_problem(name)
    cx = problem.complex
    for rep in (problem.rho, Representation.trivial(cx.presentation, 2)):
        assert rep.is_trivial
        n = rep.dim
        for k in range(cx.top + 1):
            base = twisted_cohomology(cx, cx.augmentation, k).group
            assert twisted_cohomology(cx, rep, k).group == AbelianGroup(
                n * base.free_rank,
                sorted(base.torsion * n)), (rep.name, k)


def test_k0_coboundary_definition():
    data = heisenberg()
    cx = data["complex"]
    rho = data["rho"]
    delta0 = dense_coboundary(cx, rho, 0)
    # block for e1_1 is rho(a) - I
    expected = combination((1, rho.matrices[0]),
                           (-1, IntMatrix.identity(3)))
    block = [list(row[0:3]) for row in delta0.data[0:3]]
    assert IntMatrix(block) == expected


# ---------------------------------------------------------------------------
# the word table against the dict entries it replaced


_E3 = "boundary e3 = (c - 1)*e2_1 + (a - 1)*e2_2 + (b - 1)*e2_3"
_E2_1 = "boundary e2_1 = (1 - b)*e1_1 + (a - 1)*e1_2"
_SHEARED_E3 = "boundary e3_0_0_1 = + c*e2_1_0_0_0 - e2_1_0_0_1"
_DOUBLED_A = ("[representation ell]\ndim = 3\na = [[1,0,0],[0,1,0],[0,0,1]]",
              "[representation ell]\ndim = 3\na = [[2,0,0],[0,1,0],[0,0,1]]")
_T3 = "4a86412bfbd65ab2c545e86c671ae1cd62b2511a4e91f30d44d42d03493bc15c"
_SHEARED_222 = ("829ac7ec0dd3149f8eda22c02ad10a6f48e7b07ddf8227c171e2e6a927c453e3")

# Edited files, as (base, edits, digest at the reader that built dict
# entries): summands that repeat or cancel on one target, words that
# cancel and come back, an entry that cancels, and checks that fail
WORD_TABLE_EDITS = {
    "t3, c*e2_1 - c*e2_1": (
        "t3", [(_E3, _E3 + " + c*e2_1 - c*e2_1")], _T3),
    "t3, (a - 1)*e0 + e0": (
        "t3", [("(a - 1)*e0", "(a - 1)*e0 + e0")],
        "f805e773937bb7cb7a2c115cd1a90f95d497f214d173f5b0b284e0c60dd500ac"),
    "t3, words come back": (
        "t3", [(_E2_1, "boundary e2_1 = (a - 1)*e1_2 + (1 - b)*e1_1 - a*e1_2"
                       " + b*e1_1 + a*e1_2 - b*e1_1")], _T3),
    "t3, an entry cancels": (
        "t3", [(_E2_1, _E2_1 + " + (b - b)*e1_3 - e1_3 + e1_3")], _T3),
    "sheared 2x2x2, a cancels": (
        "sheared 2x2x2", [(_SHEARED_E3, _SHEARED_E3
                           + " + a*e2_1_0_0_0 - a*e2_1_0_0_0")], _SHEARED_222),
    "sheared 2x2x2, c comes back": (
        "sheared 2x2x2", [(_SHEARED_E3, _SHEARED_E3 + " - c*e2_1_0_0_0"
                           " + (c - 1 + 1)*e2_1_0_0_0")], _SHEARED_222),
    "flat 2x2x1, periods open": (
        "flat 2x2x1", [("e1_1_0_0_0 = [0, 1/2, 0]", "e1_1_0_0_0 = [0, 1, 0]")],
        "a102d10c5d6712537fbbf4618bb60060292d1663eedbe5027ac4daf54efd97a7"),
    "t3, ell(a) doubled and a^-1 in e2_1": (
        "t3", [_DOUBLED_A, ("(a - 1)*e1_2", "(1 - a^-1)*e1_2")],
        "63fda61ba8eeb8e6b84c5636f890b77f20a12b468253455cf7f3956cf54bf81d"),
    # the words of e2_2's line come first in the table, but a coboundary
    # reads e2_1's first, and so do the checks that name a failing word
    "t3, ell(a) and ell(b) doubled, b^-1 read last": (
        "t3", [(_DOUBLED_A[0] + "\nb = [[1,0,0],[0,1,0],[0,0,1]]",
                _DOUBLED_A[1] + "\nb = [[1,0,0],[0,2,0],[0,0,1]]"),
               (_E2_1 + "\nboundary e2_2 = (1 - c)*e1_2 + (b - 1)*e1_3",
                "boundary e2_2 = (1 - c)*e1_2 + (b^-1 - 1)*e1_3\n"
                "boundary e2_1 = (1 - b)*e1_1 + (a^-1 - 1)*e1_2")],
        "27c904e25acf1e4f16a24b72f01fd99b89e4db12aab1443f0cecc85cd76712e7"),
    "mapping_torus, periods open": (
        "mapping_torus", [("e1_2 = [0, 0, 1]", "e1_2 = [0, 1, 1]")],
        "6bdcacfd136b533dc4c3da449f37389de07d9638ea54aff884a9b083352f58c6"),
}

WORD_TABLE_CASES = (["t3", "heisenberg", "mapping_torus"]
                    + ["%s %dx%dx%d" % (holonomy, a, b, c)
                       for holonomy in ("flat", "sheared")
                       for a in range(1, 5) for b in range(1, 4)
                       for c in range(1, 3)]
                    + ["%s, read by %s" % (name, reader)
                       for name in WORD_TABLE_EDITS
                       for reader in ("patterns", "tokens")])


def _word_table_problem(name):
    """The parsed problem of a ``WORD_TABLE_CASES`` name; an edited file
    is read by the line patterns or by the token reader alone, and its
    digest checked against the one pinned."""
    if "," not in name:
        return named_problem(name)
    name, _, reader = name.rpartition(", read by ")
    base, edits, digest = WORD_TABLE_EDITS[name]
    text = (bundled_text(base) if base in ("t3", "mapping_torus")
            else cubical_t3(*map(int, base[-5:].split("x")), base[:-6]))
    for old, new in edits:
        assert text.count(old) == 1, old
        text = text.replace(old, new)
    with mock.patch.object(problemfile, "_shape", (
            problemfile._shape if reader == "patterns"
            else lambda pattern, line: None)):
        problem = parse_problem_text(text)
    assert problem.digest() == digest
    return problem


def _outcome(read, *args):
    """What ``read(*args)`` gives, or the text of the LinAlgError it
    raises."""
    try:
        return read(*args)
    except LinAlgError as exc:
        return "LinAlgError: %s" % exc


def _double_boundary_failures(complex_, rep, k):
    """{index of a (k+2)-cell: indices of the k-cells where its block of
    delta^{k+1} . delta^k is nonzero}, from the product of the rows that
    ``boundary_dict_rows`` assembles."""
    n, lower = rep.dim, boundary_dict_rows(complex_, rep, k)
    failing = {}
    for i, row in enumerate(boundary_dict_rows(complex_, rep, k + 1)):
        product = {}
        for j, x in row.items():
            for col, y in lower[j].items():
                product[col] = product.get(col, 0) + x * y
        failing.setdefault(i // n, set()).update(
            col // n for col, v in product.items() if v)
    return {e: cols for e, cols in failing.items() if cols}


@pytest.mark.parametrize("name", WORD_TABLE_CASES)
def test_the_word_table_reads_as_the_dict_entries(name):
    # the double boundary, its failure tables, every coboundary and the
    # periods check read the triples (target, word id, coefficient); the
    # references read the dict entries derived from them, as every reader
    # did before, and give the same terms, rows, verdicts and errors, in
    # the same order; the public constructor, given those entries, builds
    # the same triples
    problem = _word_table_problem(name)
    cx = problem.complex
    rebuilt = EquivariantComplex(cx.presentation, cx.cells, boundary_dicts(cx))
    assert rebuilt == cx and boundary_terms(rebuilt) == boundary_terms(cx)
    reps = list(problem.representations.values()) + [cx.augmentation]
    for k in range(cx.top - 1):
        words, table = cx._double_boundary(k)
        assert [(e, [(f, [(c, words[w].letters) for c, w in kept])
                     for f, kept in row.items()])
                for e, row in table.items()] == [
            (e, list(row.items()))
            for e, row in double_boundary_dicts(cx, k).items()]
        for rep in reps:
            assert _outcome(cx.double_boundary_table, rep, k) == _outcome(
                _double_boundary_failures, cx, rep, k)
    for rep in reps:
        for k in range(cx.top):
            assert _outcome(lambda: [list(row.items()) for row in
                                     complexes.coboundary_rows(cx, rep, k)]) \
                == _outcome(lambda: [list(row.items()) for row in
                                     boundary_dict_rows(cx, rep, k)])
        assert check_periods_closed(cx, rep, problem.periods) == \
            periods_closed_reference(cx, rep, problem.periods)


def test_the_word_table_differential_cases_fail_where_pinned():
    # the edited files reach every failure text of the periods check, and
    # name the first word that cannot be evaluated in the order a
    # coboundary reads them
    expected = {
        "flat 2x2x1, periods open": [
            "periods are not closed around the boundary of 'e2_1_0_0_0'",
            "periods are not closed around the boundary of 'e2_1_0_1_0'"],
        "t3, ell(a) doubled and a^-1 in e2_1": [
            "periods cannot be checked: representation 'ell': generator "
            "'a' is not invertible over Z"],
        "t3, ell(a) and ell(b) doubled, b^-1 read last": [
            "periods cannot be checked: representation 'ell': generator "
            "'a' is not invertible over Z"],
        "mapping_torus, periods open": [
            "periods are not closed around the boundary of 'e2_1'"],
    }
    for name, failures in expected.items():
        for reader in ("patterns", "tokens"):
            problem = _word_table_problem("%s, read by %s" % (name, reader))
            assert check_periods_closed(problem.complex, problem.ell,
                                        problem.periods) == failures
    problem = _word_table_problem(
        "t3, ell(a) and ell(b) doubled, b^-1 read last, read by patterns")
    assert validate_complex(problem.complex, [problem.ell]) == [
        "cannot evaluate the boundary: representation 'ell': generator 'a' "
        "is not invertible over Z"]
    problem = load_bundled("t3")
    assert check_periods_closed(problem.complex, problem.complex.augmentation,
                                problem.periods) == [
        "periods have 3 components but representation 'augmentation' has "
        "dimension 1"]


# ---------------------------------------------------------------------------
# twisted cohomology of the bundled geometries


def test_t3_h2_is_z9():
    data = torus3()
    H = twisted_cohomology(data["complex"], data["rho"], 2)
    assert H.group == AbelianGroup(9)
    assert H.per_cell_shape == ((0, 0, 0), (0, 0, 0), (0, 0, 0))
    # generators are the dual cochains in (cell, component) order
    expected = [_unit(data["complex"], 2, 3, cell, comp)
                for cell in ("e2_1", "e2_2", "e2_3") for comp in range(3)]
    assert list(H.generators) == expected


def test_heisenberg_h2_shape():
    data = heisenberg()
    H = twisted_cohomology(data["complex"], data["rho"], 2)
    assert H.group == AbelianGroup(5)
    assert H.per_cell_shape == ((1, 1, 1), (0, 0, 1), (0, 0, 0))
    expected = [_unit(data["complex"], 2, 3, cell, comp)
                for cell, comp in [("e2_2", 0), ("e2_2", 1), ("e2_3", 0),
                                   ("e2_3", 1), ("e2_3", 2)]]
    assert list(H.generators) == expected


def test_mapping_torus_h2_shape():
    data = mapping_torus()
    H = twisted_cohomology(data["complex"], data["rho"], 2)
    assert H.group == AbelianGroup(5, (2, 2))
    assert H.per_cell_shape == ((0, 2, 0), (1, 0, 1), (0, 2, 0))
    assert H.orders == (0, 0, 0, 0, 0, 2, 2)
    free_expected = [_unit(data["complex"], 2, 3, cell, comp)
                     for cell, comp in [("e2_1", 0), ("e2_1", 2), ("e2_2", 1),
                                        ("e2_3", 0), ("e2_3", 2)]]
    torsion_expected = [_unit(data["complex"], 2, 3, cell, 1)
                        for cell in ("e2_1", "e2_3")]
    assert list(H.generators) == free_expected + torsion_expected


def test_t3_betti_numbers_rank_one_coefficients():
    data = torus3()
    one = Representation.trivial(data["presentation"], 1)
    betti = [twisted_cohomology(data["complex"], one, k).group
             for k in range(4)]
    assert betti == [AbelianGroup(1), AbelianGroup(3),
                     AbelianGroup(3), AbelianGroup(1)]


@pytest.mark.parametrize("build", [torus3, heisenberg, mapping_torus])
def test_generators_are_cocycles_and_torsion_realisable(build):
    data = build()
    cx = data["complex"]
    rho = data["rho"]
    H = twisted_cohomology(cx, rho, 2)
    delta2 = dense_coboundary(cx, rho, 2)
    delta1 = dense_coboundary(cx, rho, 1)
    image = [list(col) for col in zip(*delta1.data)]
    group = _sympy_quotient(image, delta1.rows)
    for gen, order in zip(H.generators, H.orders):
        assert all(x == 0 for x in apply(delta2, flat(gen)))
        if order:
            # order * gen is a coboundary: adding it to the image of
            # delta^1 leaves the invariants of the quotient unchanged
            target = [order * x for x in flat(gen)]
            assert _sympy_quotient(image + [target], delta1.rows) == group


@pytest.mark.parametrize("build", [torus3, heisenberg, mapping_torus])
def test_rank_nullity_per_degree(build):
    data = build()
    cx = data["complex"]
    for rep in (data["rho"], data["ell"]):
        n = rep.dim
        for k in range(cx.top):
            delta = dense_coboundary(cx, rep, k)
            rank = rat_rank(delta.data)
            H = twisted_cohomology(cx, rep, k)
            assert len(H._kernel_pivots) + rank == n * cx.n_cells(k)


@pytest.mark.parametrize("build", [torus3, heisenberg, mapping_torus])
def test_twisted_euler_characteristic_vanishes(build):
    # independent oracles: for a closed 3-manifold B and a rank-n local
    # system, sum (-1)^k rank H^k(B; rho) = n * chi(B) = 0; B is
    # orientable, so Poincare duality gives rank H^k(rho) = rank H^{3-k}
    # of the dual system ell = rho^-T
    data = build()
    cx = data["complex"]
    ranks = {}
    for rep in (data["rho"], data["ell"]):
        ranks[rep.name] = [twisted_cohomology(cx, rep, k).group.free_rank
                           for k in range(4)]
        r = ranks[rep.name]
        assert r[0] - r[1] + r[2] - r[3] == 0, (rep.name, r)
    assert ranks["rho"] == ranks["ell"][::-1]


def _assembled(monkeypatch, name):
    """The (representation, degree) of every coboundary that a report on
    a bundled file assembles."""
    import lagfib.complexes as complexes
    from lagfib.cli import load_bundled, run
    calls = []
    original = complexes.coboundary_rows

    def counting(complex_, rep, k):
        calls.append((rep.name, k))
        return original(complex_, rep, k)

    monkeypatch.setattr(complexes, "coboundary_rows", counting)
    status, _ = run("report", load_bundled(name))
    assert status == 0
    return sorted(calls)


def test_coboundaries_are_assembled_once(monkeypatch):
    # neither the double-boundary check nor the periods check assembles
    # a coboundary, so a report assembles only what later stages read:
    # delta^1 and delta^2 under rho for H^2 and certification, and
    # delta^2 under the augmentation for H^3(B;Q)
    for name in ("heisenberg", "mapping_torus", "t3"):
        assert _assembled(monkeypatch, name) == [
            ("augmentation", 2), ("rho", 1), ("rho", 2)], name


def test_equal_holonomies_share_their_coboundaries():
    # rho = ell on mapping_torus, and on t3 both are the identity: ell
    # reads the coboundaries assembled under rho
    for name in ("mapping_torus", "t3"):
        problem = load_bundled(name)
        cx = problem.complex
        for k in (1, 2):
            assert cx.coboundary(problem.ell, k) is cx.coboundary(
                problem.rho, k)


@pytest.mark.parametrize("name", ["t3", "flat 2x1x1", "sheared 2x2x1",
                                  "heisenberg"])
def test_double_boundary_check_multiplies_no_rows(monkeypatch, name):
    # the check reads the free group ring's double boundary: it assembles
    # no coboundary and multiplies no sparse rows, under any holonomy
    def refused(*args):
        raise AssertionError("called by the double-boundary check")

    problem = named_problem(name)
    cx = problem.complex
    monkeypatch.setattr(complexes, "_times", refused)
    monkeypatch.setattr(complexes, "coboundary_rows", refused)
    assert validate_complex(cx, problem.representations.values()) == []
    monkeypatch.undo()
    assert run("report", problem)[0] == 0


def test_non_invertible_generator_is_a_validation_failure():
    data = torus3()
    pres = data["presentation"]
    cx = data["complex"]
    boundaries = boundary_dicts(cx)
    boundaries["e1_1"]["e0"] = {parse_word(pres, "a^-1"): 1, Word(): -1}
    bad = EquivariantComplex(pres, cx.cells, boundaries)
    doubling = Representation("ell", pres, [IntMatrix([[2, 0, 0], [0, 1, 0],
                                                       [0, 0, 1]]),
                                            IntMatrix.identity(3),
                                            IntMatrix.identity(3)])
    assert validate_complex(bad, [data["rho"], doubling]) == [
        "cannot evaluate the boundary: representation 'ell': generator 'a' "
        "is not invertible over Z"]


# ---------------------------------------------------------------------------
# coordinates


def test_coordinates_of_generators_are_units():
    data = mapping_torus()
    H = twisted_cohomology(data["complex"], data["rho"], 2)
    for j, gen in enumerate(H.generators):
        coords = cocycle_coordinates(H, gen)
        assert coords == tuple(1 if i == j else 0 for i in range(len(H.generators)))


def test_coordinates_of_coboundary_vanish():
    data = heisenberg()
    cx = data["complex"]
    rho = data["rho"]
    H = twisted_cohomology(cx, rho, 2)
    delta1 = dense_coboundary(cx, rho, 1)
    rng = random.Random(12)
    for _ in range(20):
        psi = [rng.randint(-4, 4) for _ in range(delta1.cols)]
        image = flat_cochain(cx, 2, 3, apply(delta1, psi))
        assert cocycle_coordinates(H, image) == (0,) * len(H.generators)


def test_torsion_annihilation_in_coordinates():
    data = mapping_torus()
    H = twisted_cohomology(data["complex"], data["rho"], 2)
    torsion_gen = H.generators[5]
    assert H.orders[5] == 2
    doubled = scaled(torsion_gen, 2)
    assert cocycle_coordinates(H, doubled) == (0,) * 7


def test_non_cocycle_rejected():
    data = mapping_torus()
    cx = data["complex"]
    H = twisted_cohomology(cx, data["rho"], 2)
    bad = _unit(cx, 2, 3, "e2_2", 0)  # killed slot: not a cocycle
    with pytest.raises(NotACocycleError):
        cocycle_coordinates(H, bad)


def test_cochain_from_coordinates_roundtrip():
    data = mapping_torus()
    H = twisted_cohomology(data["complex"], data["rho"], 2)
    coords = (1, 0, -2, 0, 3, 1, 0)
    cochain = cochain_from_coordinates(H, coords)
    back = cocycle_coordinates(H, cochain)
    assert back == (1, 0, -2, 0, 3, 1, 0)
    # random coordinates on the torsion of the mapping torus and on grid
    # generators that span several cells: the cochain is the sum of
    # c_i g_i, slot by slot, stores no zero, and reads back its
    # coordinates
    grids = [parse_problem_text(cubical_t3(2, 1, 1, "flat")),
             parse_problem_text(cubical_t3(2, 2, 1, "sheared"))]
    rng = random.Random(23)
    for H in [H] + [twisted_cohomology(p.complex, p.rho, 2) for p in grids]:
        for _ in range(5):
            coords = tuple(rng.randint(-3, 3) % m if m else rng.randint(-3, 3)
                           for m in H.orders)
            cochain = cochain_from_coordinates(H, coords)
            assert flat(cochain) == tuple(
                sum(c * x for c, x in zip(coords, column))
                for column in zip(*map(flat, H.generators)))
            assert all(cochain.entries.values())
            assert cocycle_coordinates(H, cochain) == coords


def _cochain(entries, cells=("a", "b", "c")):
    return TwistedCochain(2, 3, cells, entries)


@pytest.mark.parametrize("index", [-1, 9, 100])
def test_cochain_index_out_of_range(index):
    with pytest.raises(ComplexError, match="out of range 0..8"):
        _cochain({index: 1})


def test_cochain_drops_zero_entries():
    cochain = _cochain({4: 0, 2: 3, 7: 0})
    assert dict(cochain.entries) == {2: 3}
    assert cochain == _cochain({2: 3})
    assert _cochain({0: 0}).entries == {}
    assert repr(_cochain({})) == "TwistedCochain(deg=2, {})"


def test_cochain_equality_ignores_insertion_order():
    one, two = _cochain({8: -1, 0: 2, 4: 5}), _cochain({4: 5, 8: -1, 0: 2})
    assert one == two and hash(one) == hash(two)
    assert list(two.entries) == [0, 4, 8]
    assert one != _cochain({0: 2, 4: 5})
    assert one != TwistedCochain(2, 3, ("a", "b", "d"), {0: 2, 4: 5, 8: -1})


def test_cochain_entries_are_read_only():
    source = {1: 1}
    cochain = _cochain(source)
    source[2] = 5
    assert dict(cochain.entries) == {1: 1}
    with pytest.raises(TypeError):
        cochain.entries[1] = 2
    with pytest.raises(AttributeError):
        cochain.entries.update({3: 1})
    assert dict(cochain.entries) == {1: 1}


def test_cochain_repr_is_the_per_cell_table():
    cochain = _cochain({7: 2, 0: 1, 2: -1})
    assert cochain.nonzero_cells() == [("a", (1, 0, -1)), ("c", (0, 2, 0))]
    assert repr(cochain) == (
        "TwistedCochain(deg=2, {'a': (1, 0, -1), 'c': (0, 2, 0)})")


@pytest.mark.parametrize("value", NOT_INTEGERS)
def test_cochain_refuses_non_integer_entries(value):
    with pytest.raises(ComplexError, match=re.escape(repr(value))):
        _cochain({0: value})
    with pytest.raises(ComplexError, match=re.escape(repr(value))):
        _cochain({value: 1})


@pytest.mark.parametrize("value", NOT_INTEGERS)
def test_cochain_from_coordinates_refuses_non_integers(value):
    data = mapping_torus()
    H = twisted_cohomology(data["complex"], data["rho"], 2)
    with pytest.raises(ComplexError, match=re.escape(repr(value))):
        cochain_from_coordinates(H, (value,) + (0,) * 6)


def test_smith_generators_when_the_pivot_readout_fails():
    # H^1 = Z/4, but the Hermite pivots of the image are 2 and 2: the
    # unit vectors of their rows do not present the group, and the
    # generator comes from the Smith transform of that torsion block
    cx = _z4_complex()
    rep = Representation.trivial(cx.presentation, 1)
    assert dense_coboundary(cx, rep, 0) == IntMatrix([[2, 0], [1, 2]])
    H = twisted_cohomology(cx, rep, 1)
    assert not H._quotient.diagonal
    assert H.group == AbelianGroup(0, (4,))
    assert H.orders == (4,)
    assert [flat(g) for g in H.generators] == [(1, 1)]
    assert H.per_cell_shape is None
    for m in range(-5, 9):
        assert cocycle_coordinates(H, scaled(H.generators[0], m)) == (m % 4,)


# ---------------------------------------------------------------------------
# the unit-pivot kernel reader against the Hermite one


GRID_SIZES = ((1, 1, 1), (2, 1, 1), (2, 2, 1), (2, 2, 2), (3, 2, 2),
              (4, 3, 2))


def _problem_case(problem):
    cx = problem.complex
    return cx, (problem.rho, problem.ell, cx.augmentation)


def _four_cell_case():
    data = torus3()
    cx = _with_four_cell()
    return cx, (data["rho"], data["ell"], cx.augmentation)


READER_CASES = {name: (lambda name=name: _problem_case(load_bundled(name)))
                for name in ("t3", "heisenberg", "mapping_torus")}
READER_CASES.update({
    "%s %dx%dx%d" % ((holonomy,) + size):
    (lambda size=size, holonomy=holonomy: _problem_case(parse_problem_text(
        cubical_t3(*size, holonomy=holonomy))))
    for holonomy in ("flat", "sheared") for size in GRID_SIZES})
READER_CASES["t3 with a 4-cell"] = _four_cell_case


def _reading(cx, rep, k):
    """What twisted_cohomology reports, or the text of its error."""
    try:
        H = twisted_cohomology(cx, rep, k)
    except ComplexError as exc:
        return str(exc)
    return (H.group, H.orders, H.generators, H.per_cell_shape,
            H._kernel_pivots, H._quotient.basis, H._quotient.generators)


def _hermite_only(monkeypatch):
    """Force every kernel with a free column through ``kernel_hnf``: the
    elimination reports its free columns as skipped, which leaves them
    to the kernel as unit seeds."""
    import lagfib.complexes as complexes
    echelon = complexes.unit_echelon
    monkeypatch.setattr(complexes, "unit_echelon",
                        lambda rows, width: ([],) + echelon(rows, width)[1:])


@pytest.mark.parametrize("name", READER_CASES)
def test_unit_reader_matches_the_hermite_reader(monkeypatch, name):
    cx, reps = READER_CASES[name]()
    degrees = range(cx.top + 1)
    unit = [_reading(cx, rep, k) for rep in reps for k in degrees]
    _hermite_only(monkeypatch)
    assert unit == [_reading(cx, rep, k) for rep in reps for k in degrees]


def _refuse(*args):
    raise AssertionError("the Hermite kernel reader ran")


@pytest.mark.parametrize("holonomy", ["flat", "sheared"])
def test_grids_never_reach_the_hermite_reader(monkeypatch, holonomy):
    import lagfib.complexes as complexes
    cx, reps = _problem_case(parse_problem_text(
        cubical_t3(2, 2, 2, holonomy=holonomy)))
    monkeypatch.setattr(complexes, "kernel_hnf", _refuse)
    for rep in reps:
        for k in range(cx.top + 1):
            H = twisted_cohomology(cx, rep, k)
            assert H.group is not None
            assert H._kernel_basis is None


def test_mapping_torus_h2_reaches_the_hermite_reader(monkeypatch):
    # rho(t) = -I puts entries 2 in delta^2
    import lagfib.complexes as complexes
    data = mapping_torus()
    calls = []
    original = complexes.kernel_hnf

    def counting(*args):
        calls.append(args)
        return original(*args)

    monkeypatch.setattr(complexes, "kernel_hnf", counting)
    H = twisted_cohomology(data["complex"], data["rho"], 2)
    assert len(calls) == 1
    assert H._kernel_basis is not None


def test_hermite_kernel_reuses_the_elimination(monkeypatch):
    # the elimination that chooses the Hermite kernel reader is the one
    # that kernel_hnf builds the kernel on
    import lagfib.complexes as complexes
    import lagfib.intlinalg as intlinalg
    problem = load_bundled("mapping_torus")
    calls = []
    original = intlinalg.unit_echelon

    def counting(rows, width):
        calls.append(width)
        return original(rows, width)

    monkeypatch.setattr(complexes, "unit_echelon", counting)
    monkeypatch.setattr(intlinalg, "unit_echelon", counting)
    H = twisted_cohomology(problem.complex, problem.rho, 2)
    assert H._kernel_basis is not None
    assert calls == [9]


def _unsquared_complex(coefficient):
    """v; e1, e2; f with boundary e1 -> v and f -> coefficient * e1:
    delta^1 . delta^0 = coefficient, and ker delta^1 is spanned by e2."""
    pres = Presentation(["a"])
    one = {Word(): 1}
    return EquivariantComplex(
        pres, [("v",), ("e1", "e2"), ("f",)],
        {"e1": {"v": one}, "e2": {},
         "f": {"e1": {Word(): coefficient}}})


@pytest.mark.parametrize("coefficient", [1, 2])
def test_image_outside_the_kernel_is_an_error(monkeypatch, coefficient):
    # a unit delta^1 is read by elimination, delta^1 = [2, 0] by the
    # Hermite reader; both refuse the image with the same text
    import lagfib.complexes as complexes
    cx = _unsquared_complex(coefficient)
    rep = Representation.trivial(cx.presentation, 1, "rho")
    calls = []
    original = complexes.kernel_hnf

    def counting(*args):
        calls.append(args)
        return original(*args)

    monkeypatch.setattr(complexes, "kernel_hnf", counting)
    with pytest.raises(ComplexError) as exc:
        twisted_cohomology(cx, rep, 1)
    assert str(exc.value) == (
        "image of delta^0 does not lie in the kernel of delta^1; the "
        "boundary does not square to zero under 'rho'")
    assert len(calls) == (coefficient != 1)


@pytest.mark.parametrize("name", ["heisenberg", "mapping_torus",
                                  "sheared 1x1x1"])
def test_cocycle_coordinates_on_both_readers(monkeypatch, name):
    cx, (rho, _, _) = READER_CASES[name]()
    H = twisted_cohomology(cx, rho, 2)
    _hermite_only(monkeypatch)
    H_hermite = twisted_cohomology(cx, rho, 2)
    assert (H._kernel_basis is None) == (name != "mapping_torus")
    assert H_hermite._kernel_basis is not None
    delta1 = dense_coboundary(cx, rho, 1)
    rng = random.Random(16)
    for _ in range(5):
        coords = [rng.randint(-3, 3) for _ in H.generators]
        psi = [rng.randint(-2, 2) for _ in range(delta1.cols)]
        cochain = flat_cochain(cx, 2, rho.dim, [a + b for a, b in zip(
            flat(cochain_from_coordinates(H, coords)), apply(delta1, psi))])
        expected = tuple(c % m if m else c for c, m in zip(coords, H.orders))
        assert cocycle_coordinates(H, cochain) == expected
        assert cocycle_coordinates(H_hermite, cochain) == expected
    delta2 = dense_coboundary(cx, rho, 2)
    i = next(j for j in range(delta2.cols)
             if any(row[j] for row in delta2.data))
    unit = flat_cochain(cx, 2, rho.dim, [
        int(j == i) for j in range(delta2.cols)])
    for group in (H, H_hermite):
        with pytest.raises(NotACocycleError, match="cochain is not a cocycle"):
            cocycle_coordinates(group, unit)


def _faces_complex(matrix):
    """Edges e1.. with boundary (a - 1) v and faces f1.. with boundary
    sum_i matrix[f][i] e_i: under the augmentation delta^0 = 0 and
    delta^1 = matrix, so H^2 is Z^faces modulo the columns of matrix."""
    pres = Presentation(["a"])
    loop = {parse_word(pres, "a"): 1, Word(): -1}
    edges = ["e%d" % (i + 1) for i in range(len(matrix[0]))]
    faces = ["f%d" % (i + 1) for i in range(len(matrix))]
    boundaries = {e: {"v": loop} for e in edges}
    for face, row in zip(faces, matrix):
        boundaries[face] = {e: {Word(): x} for e, x in zip(edges, row)}
    return EquivariantComplex(pres, [("v",), edges, faces], boundaries)


def _sympy_quotient(columns, size):
    """Z^size modulo the span of ``columns``, as (free rank, torsion),
    from sympy's Smith form."""
    S = smith_normal_form(Matrix(size, len(columns),
                                 lambda i, j: columns[j][i]), domain=ZZ)
    factors = [abs(int(S[i, i])) for i in range(min(S.shape)) if S[i, i]]
    return size - len(factors), tuple(sorted(d for d in factors if d > 1))


@st.composite
def face_matrices(draw):
    edges = draw(st.integers(1, 3))
    return draw(st.lists(st.lists(st.integers(-3, 3), min_size=edges,
                                  max_size=edges), min_size=1, max_size=4))


@settings(max_examples=150, deadline=None)
@given(face_matrices())
@example([[2], [2]])
@example([[2, 0], [1, 2]])
def test_generator_orders_against_the_image_lattice(matrix):
    # each generator has its order modulo the image lattice L, and the
    # generators with L span Z^faces: then they present the group, which
    # sympy's Smith form gives independently
    cx = _faces_complex(matrix)
    H = twisted_cohomology(cx, cx.augmentation, 2)
    size = len(matrix)
    image = [list(col) for col in zip(*matrix)]
    group = _sympy_quotient(image, size)
    assert (H.group.free_rank, H.group.torsion) == group

    def member(vector):
        # adding a vector to L leaves the quotient's invariants unchanged
        # exactly when it lies in L
        return _sympy_quotient(image + [vector], size) == group

    for gen, order in zip(H.generators, H.orders):
        g = flat(gen)
        if order == 0:
            assert Matrix(image + [g]).rank() > Matrix(image).rank()
        else:
            assert member([order * x for x in g])
            for p in primefactors(order):
                assert not member([order // p * x for x in g])
    assert _sympy_quotient(image + [flat(g) for g in H.generators],
                           size) == (0, ())


def _readout(basis, pivot_rows, m, torsion_of_quotient, member):
    """The unit vectors that the pivots of a Hermite form give, with their
    orders, when they present Z^m / L, else None: e_r free for each row
    r without a pivot, then e_r of order d for each pivot d >= 2 in row r,
    by d and then by r.  They do when those pivots are the torsion of the
    quotient and d e_r lies in L for each."""
    rows = set(pivot_rows)
    free = [r for r in range(m) if r not in rows]
    torsion = sorted((col[r], r) for col, r in zip(basis, pivot_rows)
                     if col[r] >= 2)
    if (tuple(d for d, _ in torsion) != torsion_of_quotient
            or not all(member({r: d}) for d, r in torsion)):
        return None
    return ([{r: 1} for r in free] + [{r: 1} for _, r in torsion],
            (0,) * len(free) + tuple(d for d, _ in torsion))


@st.composite
def lattices(draw):
    m = draw(st.integers(1, 5))
    entry = st.one_of(st.just(0), st.sampled_from((1, -1, 2, -2, 3, 4, 6)))
    columns = draw(st.lists(st.lists(entry, min_size=m, max_size=m),
                            max_size=5))
    return m, columns


@settings(max_examples=150, deadline=None)
@given(lattices(), st.randoms(use_true_random=False))
@example((2, [[2, 1], [0, 2]]), random.Random(0))
@example((3, [[4, 0, 0], [0, 4, 0], [0, 0, 2]]), random.Random(0))
@example((2, [[2, 0], [0, 3]]), random.Random(0))
@example((3, [[2, 0, 2], [0, 2, 0]]), random.Random(0))
@example((4, [[0, 1, 3, 0], [0, 0, 2, 0], [0, 0, 0, 0]]), random.Random(0))
def test_quotient_against_the_sympy_smith_form(lattice, rng):
    # Z^m / L from one Smith form of the torsion block, checked against
    # sympy: the group, generators that span with L, exact orders, the
    # diagonal case against the unit-vector readout, and coordinates
    m, columns = lattice
    basis, pivot_rows = hnf_columns(
        [{i: x for i, x in enumerate(col) if x} for col in columns])
    q = Quotient(basis, pivot_rows, m)
    group = _sympy_quotient(columns, m)
    assert (q.group.free_rank, q.group.torsion) == group
    assert q.orders == (0,) * group[0] + group[1]

    def dense(vector):
        return [vector.get(i, 0) for i in range(m)]

    def member(vector):
        return _sympy_quotient(columns + [dense(vector)], m) == group

    gens = [dense(g) for g in q.generators]
    assert _sympy_quotient(columns + gens, m) == (0, ())
    free = [g for g, order in zip(gens, q.orders) if not order]
    assert Matrix(columns + free).rank() == \
        Matrix(columns).rank() + len(free)
    for g, order in zip(q.generators, q.orders):
        if order:
            assert member({i: order * x for i, x in g.items()})
            for p in primefactors(order):
                assert not member({i: order // p * x for i, x in g.items()})

    readout = _readout(basis, pivot_rows, m, group[1], member)
    assert q.diagonal == (readout is not None)
    if q.diagonal:
        assert (q.generators, q.orders) == readout

    coords = [rng.randint(-5, 5) for _ in q.orders]
    vector = [sum(c * g[i] for c, g in zip(coords, gens)) for i in range(m)]
    for col in columns:
        c = rng.randint(-3, 3)
        vector = [a + c * b for a, b in zip(vector, col)]
    assert q.class_coordinates({i: x for i, x in enumerate(vector) if x}) \
        == tuple(c % d if d else c for c, d in zip(coords, q.orders))
    # each coordinate row kills L: exactly for a free generator, modulo
    # its order for a torsion one
    rows = q.coordinate_rows()
    assert len(rows) == len(q.orders)
    for row, d in zip(rows, q.orders):
        for col in basis:
            value = sum(x * col.get(i, 0) for i, x in row.items())
            assert (value % d if d else value) == 0


def test_only_the_torsion_block_reaches_the_smith_form(monkeypatch):
    # H^2 = Z^32 modulo 30 columns with pivot 1 and a Z/4 block whose
    # Hermite pivots are 2 and 2: group, generator and coordinates come
    # from one Smith form of that 2 x 2 block
    import lagfib.complexes as complexes
    n = 30
    matrix = [[0] * (n + 2) for _ in range(n + 2)]
    matrix[0][0], matrix[1][0], matrix[1][1] = 2, 1, 2
    for j in range(2, n + 2):
        matrix[j][j] = 1
        if j + 1 < n + 2:
            matrix[j + 1][j] = 3
    cx = _faces_complex(matrix)
    shapes = []
    original = complexes.snf

    def recording(A):
        shapes.append((A.rows, A.cols))
        return original(A)

    monkeypatch.setattr(complexes, "snf", recording)
    H = twisted_cohomology(cx, cx.augmentation, 2)
    assert H.group == AbelianGroup(0, (4,))
    assert not H._quotient.diagonal
    for m in range(-3, 5):
        assert cocycle_coordinates(H, scaled(H.generators[0], m)) == (m % 4,)
    assert shapes == [(2, 2)]


# ---------------------------------------------------------------------------
# rational cohomology of the base


@pytest.mark.parametrize("build", [torus3, heisenberg, mapping_torus])
def test_h3_rational_dimension_one(build):
    data = build()
    h3 = untwisted_cohomology_Q(data["complex"], 3)
    assert h3.dimension == 1
    assert h3.coordinates([1]) == (1,)
    assert h3.coordinates([0]) == (0,)
    assert h3.basis_labels == ("dual(e3)",)


def test_h3_kills_coboundaries():
    data = heisenberg()
    cx = data["complex"]
    h3 = untwisted_cohomology_Q(cx, 3)
    one = Representation.trivial(data["presentation"], 1)
    delta2 = dense_coboundary(cx, one, 2)
    rng = random.Random(77)
    for _ in range(20):
        w = apply(delta2, [Fraction(rng.randint(-6, 6), rng.randint(1, 4))
                           for _ in range(3)])
        assert h3.coordinates(w) == (0,)


def test_t3_rational_betti():
    data = torus3()
    dims = [untwisted_cohomology_Q(data["complex"], k).dimension
            for k in range(4)]
    assert dims == [1, 3, 3, 1]


def test_degenerate_degrees():
    pres = Presentation(["a"])
    cx = EquivariantComplex(
        pres, [("v",), ("e",), ()],
        {"e": {"v": {parse_word(pres, "a"): 1, Word(): -1}}})
    one = Representation.trivial(pres, 1)
    H2 = twisted_cohomology(cx, one, 2)
    assert H2.group == AbelianGroup(0)
    assert H2.generators == ()


@pytest.mark.parametrize("build", [torus3, heisenberg, mapping_torus])
def test_rational_projection_matches_coordinates(build):
    data = build()
    cx = data["complex"]
    one = Representation.trivial(data["presentation"], 1)
    rng = random.Random(3)
    for k in range(cx.top + 1):
        # a basis cocycle plus a coboundary has a unit class, and a
        # coboundary has class zero
        h = untwisted_cohomology_Q(cx, k)
        units = [tuple(int(i == j) for j in range(h.dimension))
                 for i in range(h.dimension)]
        zero = (0,) * len(h.cells)
        if k > 0:
            delta = dense_coboundary(cx, one, k - 1)
            zero = apply(delta, [rng.randint(-4, 4)
                                 for _ in range(delta.cols)])
        assert h.coordinates(zero) == (0,) * h.dimension
        for basis, unit in zip(rational_basis(h), units):
            assert h.coordinates([x + y for x, y in zip(basis, zero)]) == unit


def _with_four_cell():
    """t3 with a 4-cell f4, boundary (a - 1) e3: the augmentation kills
    delta^3, so H^3(B;Q) is read below the top degree."""
    data = torus3()
    cx = data["complex"]
    pres = cx.presentation
    boundaries = boundary_dicts(cx)
    boundaries["f4"] = {
        "e3": {parse_word(pres, "a"): 1, Word(): -1}}
    return EquivariantComplex(pres, cx.cells + (("f4",),), boundaries)


def _non_unit_kernel_pivots():
    """delta^1 = [1, -1, 2] under the augmentation: ker delta^1 has the
    Hermite basis (1, 1, 0), (0, 2, 1), whose second pivot is 2."""
    pres = Presentation(["a"])
    loop = {parse_word(pres, "a"): 1, Word(): -1}
    return EquivariantComplex(
        pres, [("v",), ("e1", "e2", "e3"), ("f",)],
        {"e1": {"v": loop}, "e2": {"v": loop},
         "f": {"e1": {Word(): 1}, "e2": {Word(): -1}, "e3": {Word(): 2}}})


def _two_cells_on_one_face():
    """3-cells A and B on one 2-cell f, boundaries 2 f and 3 f: H^3(B;Q)
    = Q, and its integral generator comes out of the quotient's Smith
    block, so no unit cochain represents it exactly."""
    pres = Presentation(["a"])
    return EquivariantComplex(
        pres, [("v",), ("e",), ("f",), ("A", "B")],
        {"A": {"f": {Word(): 2}}, "B": {"f": {Word(): 3}}})


def _two_pairs_of_three_cells():
    """3-cells c0 to c3 with boundaries f0, f1, -f1 and -f0: the integral
    generators are the classes of c2 and c3, listed in that order, and
    the earliest cochains in them are c1 and c0, listed by index."""
    pres = Presentation(["a"])
    unit = {Word(): 1}
    minus = {Word(): -1}
    return EquivariantComplex(
        pres, [("v",), ("e",), ("f0", "f1"), ("c0", "c1", "c2", "c3")],
        {"c0": {"f0": unit}, "c1": {"f1": unit}, "c2": {"f1": minus},
         "c3": {"f0": minus}})


def _three_cells_on_one_four_cell():
    """3-cells A, B and C in the boundary 6 A + 10 B + 15 C of a 4-cell
    g: ker delta^3 has a Hermite basis with pivots 3 and 5, so H^3(B;Q) =
    Q^2 has P over M = 15, its rows over 3 and over 5."""
    pres = Presentation(["a"])
    return EquivariantComplex(
        pres, [("v",), ("e",), ("f",), ("A", "B", "C"), ("g",)],
        {"g": {"A": {Word(): 6}, "B": {Word(): 10}, "C": {Word(): 15}}})


RATIONAL_CASES = {
    "non-unit kernel pivots": _non_unit_kernel_pivots,
    "three 3-cells on one 4-cell": _three_cells_on_one_four_cell,
    "two 3-cells on one 2-cell": _two_cells_on_one_face,
    "two pairs of 3-cells": _two_pairs_of_three_cells,
    "t3": lambda: torus3()["complex"],
    "heisenberg": lambda: heisenberg()["complex"],
    "mapping_torus": lambda: mapping_torus()["complex"],
    "t3 with a 4-cell": _with_four_cell,
    "flat 2x2x1": lambda: parse_problem_text(cubical_t3(2, 2, 1)).complex,
    "sheared 2x2x1": lambda: parse_problem_text(
        cubical_t3(2, 2, 1, holonomy="sheared")).complex,
}


@pytest.mark.parametrize("name", RATIONAL_CASES)
def test_rational_projection_kills_coboundaries_and_fixes_the_basis(name):
    cx = RATIONAL_CASES[name]()
    one = cx.augmentation
    dims = []
    for k in range(cx.top + 1):
        h = untwisted_cohomology_Q(cx, k)
        dims.append(h.dimension)
        # the rows of M.P, M = h.denominator the least common denominator
        rows = [[row.get(j, 0) for j in range(len(h.cells))]
                for row in h.scaled_projection]
        assert len(rational_basis(h)) == len(rows) == h.dimension
        assert gcd(h.denominator, *(x for row in rows for x in row)) == 1
        delta = dense_coboundary(cx, one, k - 1) if k else None
        for col in zip(*delta.data) if delta is not None else ():
            assert all(sum(a * b for a, b in zip(row, col)) == 0
                       for row in rows)
        for i, vec in enumerate(rational_basis(h)):
            assert [sum(a * b for a, b in zip(row, vec))
                    for row in rows] == [
                h.denominator * int(i == j) for j in range(h.dimension)]
    if name.startswith(("t3", "flat", "sheared")):
        assert dims[:4] == [1, 3, 3, 1]


@pytest.mark.parametrize("name", RATIONAL_CASES)
def test_rational_projection_against_the_left_kernel(name):
    # P from the integral quotient spans the rows of the left kernel's
    # reduced echelon form over Q, and equals them where both pick the
    # same basis, for each is then the map that kills the coboundaries
    # and fixes that basis; only the Smith-block generator of A and B
    # is picked differently
    cx = RATIONAL_CASES[name]()
    for k in range(cx.top + 1):
        h = untwisted_cohomology_Q(cx, k)
        labels, expected = rational_projection_reference(cx, k)
        rows = [tuple(Fraction(row.get(j, 0), h.denominator)
                      for j in range(len(h.cells)))
                for row in h.scaled_projection]
        assert h.dimension == len(expected)
        assert rat_rank(rows) == rat_rank(rows + expected) == h.dimension
        if (name, k) == ("two 3-cells on one 2-cell", 3):
            assert h.basis_labels != tuple(labels)
        else:
            assert h.basis_labels == tuple(labels)
            assert rows == expected


def _back_substitution_fractions(rows, kernel, pivots):
    """(M, rows of M.x): x . (K c) = r . c solved over Fractions, last
    kernel vector first, then scaled by the least common denominator M
    of all entries: the reference for ``complexes._on_cochains``."""
    found = []
    for row in rows:
        x = {}
        for i in reversed(range(len(kernel))):
            total = row.get(i, 0) - sum(a * x.get(q, 0)
                                        for q, a in kernel[i].items())
            x[pivots[i]] = Fraction(total) / kernel[i][pivots[i]]
        found.append(x)
    M = lcm(*(v.denominator for x in found for v in x.values()))
    return M, tuple({j: int(x[j] * M) for j in sorted(x) if x[j]}
                    for x in found)


@st.composite
def _triangular_systems(draw):
    """Functionals on K-coordinates and a kernel basis K whose block on
    its pivot rows is lower triangular, with pivot entries up to 12."""
    size = draw(st.integers(1, 6))
    pivots = draw(st.permutations(range(size)))[:draw(st.integers(1, size))]
    entries = st.integers(-12, 12)
    kernel = []
    for i, p in enumerate(pivots):
        # entries off the pivot rows, and on the pivot rows of later
        # vectors only
        col = {j: draw(entries) for j in range(size)
               if j not in pivots[:i + 1]}
        col[p] = draw(entries.filter(bool))
        kernel.append({j: x for j, x in col.items() if x})
    rows = [{i: x for i, x in enumerate(draw(st.lists(
        entries, min_size=len(pivots), max_size=len(pivots)))) if x}
        for _ in range(draw(st.integers(1, 3)))]
    return rows, kernel, list(pivots)


@settings(max_examples=200, deadline=None)
@given(system=_triangular_systems())
def test_integer_back_substitution_is_the_fraction_one(system):
    rows, kernel, pivots = system
    assert complexes._on_cochains(rows, kernel, pivots) == \
        _back_substitution_fractions(rows, kernel, pivots)


def test_rational_projection_over_several_denominators():
    # ker delta^3 has the Hermite basis K = (5, 0, -2), (0, 3, -2), and P
    # on cochains is (1/5, 0, 0) and (0, 1/3, 0): rows over 5 and 3,
    # held over M = 15
    h3 = untwisted_cohomology_Q(_three_cells_on_one_four_cell(), 3)
    assert rational_basis(h3) == ((5, 0, -2), (0, 3, -2))
    assert h3.denominator == 15
    assert h3.scaled_projection == ({0: 3}, {1: 5})
    for i, vec in enumerate(rational_basis(h3)):
        assert h3.coordinates(vec) == tuple(int(i == j) for j in range(2))


def _named_cochain(label, cells):
    """The cochain that a label such as "dual(A) - 2*dual(B)" names."""
    values = dict.fromkeys(cells, 0)
    for term in label.replace(" - ", " + -").split(" + "):
        sign, coeff, cell = re.fullmatch(r"(-?)(?:(\d+)\*)?dual\((\w+)\)",
                                         term).groups()
        values[cell] += (-1 if sign else 1) * int(coeff or 1)
    return [values[cell] for cell in cells]


def test_a_free_generator_from_the_smith_block_is_the_basis():
    # no dual cochain has the class of the free generator of H^3 = Z, so
    # the generator is the basis and P is integral, where the left
    # kernel picks dual(A) with M = 3 and M.P = (3, -2)
    cx = _two_cells_on_one_face()
    h3 = untwisted_cohomology_Q(cx, 3)
    assert h3.denominator == 1
    row, = [[row.get(j, 0) for j in range(2)]
            for row in h3.scaled_projection]
    assert gcd(*row) == 1
    delta2 = dense_coboundary(cx, cx.augmentation, 2)
    assert [sum(a * b for a, b in zip(row, col))
            for col in zip(*delta2.data)] == [0]
    assert h3.coordinates([1, 0]) in ((3,), (-3,))
    assert h3.basis_labels == ("dual(A) + dual(B)",)
    assert rational_basis(h3) == ((1, 1),)
    assert h3.coordinates(_named_cochain(h3.basis_labels[0],
                                         h3.cells)) == (1,)


def test_h3_below_the_top_degree():
    cx = _with_four_cell()
    h3 = untwisted_cohomology_Q(cx, 3)
    assert h3.basis_labels == ("kernel[0]",)
    assert h3.coordinates([5]) == (5,)
    cx_bad = EquivariantComplex(cx.presentation, cx.cells,
                                dict(boundary_dicts(cx),
                                     f4={"e3": {Word(): 1}}))
    h3_bad = untwisted_cohomology_Q(cx_bad, 3)
    assert h3_bad.dimension == 0
    with pytest.raises(NotACocycleError):
        h3_bad.coordinates([1])
