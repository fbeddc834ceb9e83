"""Subdivision invariance as an exact oracle for the entries of D.

The n1 x n2 x n3 grid of ``t3grid`` subdivides the 1 x 1 x 1 one: the
bundled t3 under the flat holonomy, the sheared 1 x 1 x 1 grid under the
shear.  The chain map s from the coarse cells to the fine ones sends each
cell to the sum of its subcells.  They all lie in the fundamental cube,
so each carries the empty word and s is Z[pi]-linear; its dual s^* sums
a cochain's values over the subcells, slot by slot.  s^* is an
isomorphism on H^2 and on H^3(B; Q), and it carries the grid's periods,
1/n_i on each of the n_i edges along direction i, to the coarse ones.
The cup product is natural, so s^*(D_grid(c)) = D_t3(s^* c) for every
H^2 class c, exactly: the two diagonal tables differ, but both are
diagonal approximations, so their products agree on cohomology.  The
groups and R are fixed by the grids' known answers; this fixes D's
entries, and a grid table with one sign flipped breaks it.  It checks
the grids against the coarse table, not that table itself.
"""

import random
from fractions import Fraction

import pytest

from lagfib.complexes import (
    TwistedCochain,
    cocycle_coordinates,
    twisted_cohomology,
    untwisted_cohomology_Q,
)
from lagfib.obstruction import (
    DiagonalApproximation,
    cup_matrix,
    dd_matrix,
    validate_diagonal,
)

from helpers import determinant, fraction_values, named_problem, \
    rational_basis

SIZES = [(2, 1, 1), (1, 2, 1), (1, 1, 2), (2, 2, 1), (2, 2, 2), (3, 2, 2)]
CASES = [(holonomy, size) for holonomy in ("flat", "sheared")
         for size in SIZES]

# The axes that each coarse cell spans, in t3grid's order: edges along
# directions 1, 2, 3 and squares in the planes (1,2), (2,3), (3,1).  A
# grid cell named "<coarse>_i_j_k" is a subcell of the coarse cell when
# its position is 0 along every other axis.
_AXES = {"e0": (), "e1_1": (0,), "e1_2": (1,), "e1_3": (2,),
         "e2_1": (0, 1), "e2_2": (1, 2), "e2_3": (2, 0), "e3": (0, 1, 2)}


def _coarse(holonomy):
    return named_problem("t3" if holonomy == "flat" else "sheared 1x1x1")


def _pullback(fine, coarse, k, n, entries):
    """s^* on k-cochains with values in Z^n: the entries of the coarse
    cochain whose vector on each cell is the sum of the fine cochain's
    vectors on its subcells."""
    index = {name: i for i, name in enumerate(coarse.cells_in(k))}
    out = {}
    for column, x in entries.items():
        f, s = divmod(column, n)
        name, *position = fine.cells_in(k)[f].rsplit("_", 3)
        if all(int(position[a]) == 0 for a in range(3)
               if a not in _AXES[name]):
            j = index[name] * n + s
            out[j] = out.get(j, 0) + x
    return out


def _d_values(problem, H2, h3, diagonal):
    """D's value on each H^2 generator, as Fractions in the basis of
    ``h3``, built from ``diagonal`` by ``cup_matrix`` and ``dd_matrix``
    whether or not the table certifies."""
    cup = cup_matrix(problem.complex, diagonal, problem.rho, problem.ell,
                     problem.periods)
    return fraction_values(dd_matrix(H2, cup, h3))


def _combine(coefficients, vectors):
    """sum_i coefficients[i] * vectors[i], as a tuple of Fractions."""
    return tuple(sum((c * vector[r] for c, vector in zip(coefficients,
                                                         vectors)),
                     Fraction(0)) for r in range(len(vectors[0])))


def _h2_pullback(fine, coarse, H2_fine, H2_coarse):
    """s^* on H^2 as integer rows: row j holds the coarse coordinates of
    s^* of the j-th grid generator."""
    n, cells = H2_fine.dim, coarse.complex.cells_in(2)
    return [cocycle_coordinates(H2_coarse, TwistedCochain(
        2, n, cells, _pullback(fine.complex, coarse.complex, 2, n,
                               gen.entries)))
            for gen in H2_fine.generators]


def _subdivision(fine, coarse):
    """What the identity reads besides the grid's table: (the grid's H^2
    and H^3(B;Q), s^* on H^3(B;Q) as one row of coarse coordinates per
    grid basis class, and D_t3(s^* c) for each grid generator c)."""
    cx_f, cx_c = fine.complex, coarse.complex
    H2_f = twisted_cohomology(cx_f, fine.rho, 2)
    h3_f = untwisted_cohomology_Q(cx_f, 3)
    H2_c = twisted_cohomology(cx_c, coarse.rho, 2)
    h3_c = untwisted_cohomology_Q(cx_c, 3)
    assert h3_f.dimension == h3_c.dimension == 1
    S3 = []
    for cochain in rational_basis(h3_f):
        pulled = _pullback(cx_f, cx_c, 3, 1, dict(enumerate(cochain)))
        S3.append(h3_c.coordinates([pulled.get(j, 0)
                                    for j in range(len(h3_c.cells))]))
    D_c = _d_values(coarse, H2_c, h3_c, coarse.diagonal)
    return H2_f, h3_f, S3, [_combine(row, D_c) for row in _h2_pullback(
        fine, coarse, H2_f, H2_c)]


def _sides(fine, subdivision, diagonal):
    """For each H^2 generator c of the grid, (s^*(D_grid(c)),
    D_t3(s^* c)) in the coarse H^3(B;Q) basis, D_grid read from
    ``diagonal``."""
    H2, h3, S3, coarse = subdivision
    return [(_combine(values, S3), value) for values, value in zip(
        _d_values(fine, H2, h3, diagonal), coarse)]


@pytest.mark.parametrize("holonomy, size", CASES)
def test_subdivision_is_a_chain_map(holonomy, size):
    # s^* commutes with delta under rho in every degree, on random
    # cochains: the subcells are read right, orientations included
    fine, coarse = named_problem("%s %dx%dx%d" % ((holonomy,) + size)), \
        _coarse(holonomy)
    rng = random.Random(12)
    n = fine.rho.dim
    for k in range(3):
        phi = {j: rng.randint(-3, 3)
               for j in range(fine.complex.layout(k, n).size)}
        down = _pullback(fine.complex, coarse.complex, k, n, phi)
        fine_delta = {i: sum(x * phi.get(j, 0) for j, x in row.items())
                      for i, row in enumerate(
                          fine.complex.coboundary(fine.rho, k))}
        coarse_delta = {i: sum(x * down.get(j, 0) for j, x in row.items())
                        for i, row in enumerate(
                            coarse.complex.coboundary(coarse.rho, k))}
        pulled = _pullback(fine.complex, coarse.complex, k + 1, n,
                           fine_delta)
        assert {j: x for j, x in pulled.items() if x} == {
            j: x for j, x in coarse_delta.items() if x}, k


@pytest.mark.parametrize("holonomy, size", CASES)
def test_subdivision_is_an_isomorphism_on_h2(holonomy, size):
    fine, coarse = named_problem("%s %dx%dx%d" % ((holonomy,) + size)), \
        _coarse(holonomy)
    H2_f = twisted_cohomology(fine.complex, fine.rho, 2)
    H2_c = twisted_cohomology(coarse.complex, coarse.rho, 2)
    assert H2_f.group == H2_c.group
    assert set(H2_f.orders) == {0}
    M = _h2_pullback(fine, coarse, H2_f, H2_c)
    assert abs(determinant(M)) == 1


@pytest.mark.parametrize("holonomy, size", CASES)
def test_d_commutes_with_subdivision(holonomy, size):
    # both tables certify, and s^*(D_grid(c)) = D_t3(s^* c) on every
    # generator c of the grid's H^2
    fine, coarse = named_problem("%s %dx%dx%d" % ((holonomy,) + size)), \
        _coarse(holonomy)
    for problem in (fine, coarse):
        cx = problem.complex
        assert validate_diagonal(
            cx, problem.diagonal, problem.rho, problem.ell, problem.periods,
            twisted_cohomology(cx, problem.rho, 2),
            untwisted_cohomology_Q(cx, 3)).ok
    sides = _sides(fine, _subdivision(fine, coarse), fine.diagonal)
    assert sides and all(lhs == rhs for lhs, rhs in sides)
    # D is not zero, so the identity reads its entries
    assert any(any(lhs) for lhs, _ in sides)


def _flips_that_move_d(fine, H2, h3):
    """The grid's table with one term's sign flipped, for each term in
    turn whose flip moves D's value on some H^2 generator: a term that
    no generator's cochain reads leaves D as it is."""
    table, certified = fine.diagonal.terms, _d_values(fine, H2, h3,
                                                      fine.diagonal)
    flips = []
    for cell, terms in table.items():
        for t, term in enumerate(terms):
            flipped = DiagonalApproximation({**table, cell: terms[:t] + (
                (-term[0],) + term[1:],) + terms[t + 1:]})
            if _d_values(fine, H2, h3, flipped) != certified:
                flips.append(flipped)
    return flips


@pytest.mark.parametrize("holonomy, size", CASES)
def test_a_flipped_sign_breaks_the_identity(holonomy, size):
    # negative control: a table with one term's sign flipped is no
    # diagonal approximation, and where the flip moves D the identity
    # fails, certified or not; some flip moves D on every grid
    fine = named_problem("%s %dx%dx%d" % ((holonomy,) + size))
    subdivision = _subdivision(fine, _coarse(holonomy))
    flips = _flips_that_move_d(fine, *subdivision[:2])
    assert flips
    for flipped in flips:
        assert any(lhs != rhs
                   for lhs, rhs in _sides(fine, subdivision, flipped))


# On a grid one cube thick in two directions, a square spanning them
# closes up on one edge each way, so the coboundary of a 1-cochain psi
# there is (rho(g) - 1) psi(e) - (rho(h) - 1) psi(f) for the two thin
# generators g and h, and it pairs to zero with the period of the front
# edge of the term that takes the square as its back cell.  So check (a)
# cannot see that term's sign: 2 of the 6 flips certify there and give a
# D that the identity refuses.
THIN = {(2, 1, 1), (1, 2, 1), (1, 1, 2)}


@pytest.mark.parametrize("holonomy, size", [
    pytest.param(holonomy, size, marks=pytest.mark.xfail(
        strict=True, reason="check (a) cannot see the sign of a term whose "
                            "back square spans two thin directions"))
    if size in THIN else (holonomy, size) for holonomy, size in CASES])
def test_certification_refuses_every_flip_that_moves_d(holonomy, size):
    fine = named_problem("%s %dx%dx%d" % ((holonomy,) + size))
    cx = fine.complex
    H2 = twisted_cohomology(cx, fine.rho, 2)
    h3 = untwisted_cohomology_Q(cx, 3)
    for flipped in _flips_that_move_d(fine, H2, h3):
        assert not validate_diagonal(cx, flipped, fine.rho, fine.ell,
                                     fine.periods, H2, h3).ok
