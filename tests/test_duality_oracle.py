"""Poincare duality as an exact oracle for the obstruction map D.

On a closed orientable 3-manifold the cup product of H^1(B; Z^n_ell)
with H^2(B; Z^n_rho), rho = ell^-T, into H^3(B; Q) = Q is a perfect
pairing over Q (Poincare duality with local coefficients, Hatcher,
Algebraic Topology, section 3.H).  D is that product against the
period class, so taking the free generator p_j of H^1 as the periods
gives row j of the pairing matrix T, and D at any closed periods P is
sum_j (p_j / L) T_j, with p the free coordinates of the class of L.P.
None of this goes through the certification checks: a diagonal table
that passes them can still get the pairing wrong.
"""

import itertools
from fractions import Fraction

import pytest
from sympy import Matrix

from lagfib.cli import Run, load_bundled
from lagfib.complexes import (
    cocycle_coordinates,
    twisted_cohomology,
    untwisted_cohomology_Q,
)
from lagfib.obstruction import (
    DiagonalApproximation,
    PeriodAssignment,
    check_periods_closed,
    cup_matrix,
    dd_matrix,
    validate_diagonal,
)

from helpers import cochain_from_dict, fraction_matrix, named_problem

GRIDS = ["%s %dx%dx%d" % ((holonomy,) + size)
         for holonomy in ("flat", "sheared")
         for size in [(1, 1, 1), (2, 1, 1), (2, 2, 1), (2, 2, 2), (3, 2, 2)]]

# Heisenberg's certified table pairs H^1 with H^2 at rank 3 of 5 under
# every sign pattern of its two terms: it is no diagonal approximation.
HEISENBERG = pytest.param("heisenberg", marks=pytest.mark.xfail(
    strict=True, reason="the bundled diagonal table does not pair H^1 "
                        "and H^2 perfectly"))


def _pairing(problem, diagonal):
    """(H^1, H^2, T): row j of T is the obstruction row of D with the
    j-th free generator of H^1 as the periods, over every H^2
    generator."""
    cx, rho, ell = problem.complex, problem.rho, problem.ell
    H1 = twisted_cohomology(cx, ell, 1)
    H2 = twisted_cohomology(cx, rho, 2)
    h3 = untwisted_cohomology_Q(cx, 3)
    assert h3.dimension == 1
    zero = (0,) * ell.dim
    T = []
    for gen in H1.generators[:H1.group.free_rank]:
        values = dict(gen.nonzero_cells())
        periods = PeriodAssignment(ell.dim, {cell: values.get(cell, zero)
                                             for cell in cx.cells_in(1)})
        assert check_periods_closed(cx, ell, periods) == []
        D = dd_matrix(H2, cup_matrix(cx, diagonal, rho, ell, periods), h3)
        T.append(list(fraction_matrix(D)[0]))
    return H1, H2, T


@pytest.mark.parametrize("name", ["t3", "mapping_torus", HEISENBERG] + GRIDS)
def test_cup_pairing_is_perfect_over_q(name):
    problem = named_problem(name)
    H1, H2, T = _pairing(problem, problem.diagonal)
    rank = H1.group.free_rank
    assert H2.group.free_rank == rank
    assert Matrix(T).rank() == rank
    if name != "mapping_torus":
        # unimodular on the free parts; the mapping torus gives |det| = 2
        # under every sign pattern that reaches full rank
        free = Matrix([row[:rank] for row in T])
        assert abs(free.det()) == 1


@pytest.mark.parametrize("name", ["t3", "heisenberg", "mapping_torus"]
                         + GRIDS)
def test_obstruction_is_the_pairing_at_the_file_periods(name):
    problem = named_problem(name)
    H1, _, T = _pairing(problem, problem.diagonal)
    cx, n, periods = problem.complex, problem.ell.dim, problem.periods
    scaled = cochain_from_dict(cx, 1, n, {cell: periods.scaled_vector(cell)
                                          for cell in cx.cells_in(1)})
    p = cocycle_coordinates(H1, scaled)[:H1.group.free_rank]
    run = Run(problem)
    assert run.ok
    D = fraction_matrix(run.D)
    L = periods.denominator
    assert [list(row) for row in D] == [
        [sum(Fraction(pj, L) * Tj[c] for pj, Tj in zip(p, T))
         for c in range(len(run.H2.generators))]]


@pytest.mark.parametrize("signs", list(itertools.product((1, -1), repeat=4)))
def test_sign_flips_that_break_duality_are_rejected(signs):
    # every sign pattern of the mapping torus's four terms certifies; the
    # eight that flip exactly one of terms 2 and 3 pair at rank 4 only
    problem = load_bundled("mapping_torus")
    (cell, terms), = problem.diagonal.terms.items()
    diagonal = DiagonalApproximation({cell: tuple(
        (s * term[0],) + term[1:] for s, term in zip(signs, terms))})
    cx = problem.complex
    report = validate_diagonal(
        cx, diagonal, problem.rho, problem.ell, problem.periods,
        twisted_cohomology(cx, problem.rho, 2), untwisted_cohomology_Q(cx, 3),
        None)
    assert report.ok
    H1, _, T = _pairing(problem, diagonal)
    perfect = Matrix(T).rank() == H1.group.free_rank
    assert perfect == (signs[1] == signs[2])
