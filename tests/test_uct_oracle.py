import pytest

from lagfib.cli import load_bundled
from lagfib.complexes import Quotient, twisted_cohomology

from helpers import named_problem
from uct_oracle import primes_of, rank_mod_p, uct_mismatches

GRIDS = [(1, 1, 1), (2, 1, 1), (2, 2, 1), (2, 2, 2), (3, 2, 2), (3, 3, 3),
         (4, 3, 3), (4, 4, 4)]


def _orders(problem, rep):
    return [twisted_cohomology(problem.complex, rep, k).orders
            for k in range(problem.complex.top + 1)]


@pytest.mark.parametrize("name", ["t3", "heisenberg", "mapping_torus"] + [
    "%s %dx%dx%d" % ((holonomy,) + size)
    for holonomy in ("flat", "sheared") for size in GRIDS])
def test_orders_satisfy_universal_coefficients_mod_p(name):
    # H^0..H^3 under rho and ell, at 2, 3 and every prime of an order
    problem = named_problem(name)
    orders = {rep: _orders(problem, rep) for rep in (problem.rho, problem.ell)}
    primes = primes_of(o for group in orders.values() for o in group)
    for rep, rep_orders in orders.items():
        assert uct_mismatches(problem.complex, rep, rep_orders, primes) == []


def test_mapping_torus_torsion_is_seen_at_two():
    # Z/2 + Z/2 in H^1..H^3: mod 2 the torsion of H^k and of H^{k+1}
    # both add to the dimension, mod 3 neither does, so leaving it out
    # of H^1 is refuted in degrees 0 and 1 at 2 alone
    problem = load_bundled("mapping_torus")
    orders = _orders(problem, problem.rho)
    assert primes_of(orders) == [2, 3]
    assert orders[1] == (0,) * 5 + (2, 2)
    free = [orders[0], (0,) * 5] + orders[2:]
    assert uct_mismatches(problem.complex, problem.rho, free, [2, 3]) == [
        (0, 2, 3, 1), (1, 2, 9, 7)]


def test_a_doubled_invariant_factor_is_caught():
    # Heisenberg's H^3 under rho is Z^3 modulo one column with pivot 1;
    # doubling that invariant factor makes it Z^2 + Z/2, which the mod-2
    # count refutes in degrees 2 and 3
    problem = load_bundled("heisenberg")
    orders = _orders(problem, problem.rho)
    quotient = twisted_cohomology(problem.complex, problem.rho, 3)._quotient
    doubled = Quotient([{r: 2 * x for r, x in col.items()}
                        for col in quotient.basis],
                       quotient.pivot_rows, len(orders[3]) + 1)
    assert (orders[3], doubled.orders) == ((0, 0), (0, 0, 2))
    wrong = orders[:3] + [doubled.orders]
    assert uct_mismatches(problem.complex, problem.rho, orders, [2, 3]) == []
    assert [(k, p) for k, p, _, _ in uct_mismatches(
        problem.complex, problem.rho, wrong, [2, 3])] == [(2, 2), (3, 2)]


def test_rank_mod_p():
    assert rank_mod_p([[2, 4], [4, 2]], 2) == 0
    assert rank_mod_p([[2, 4], [4, 2]], 3) == 1
    assert rank_mod_p([[1, 1, 0], [0, 1, 1], [1, 0, 1]], 2) == 2
    assert rank_mod_p([[1, 1, 0], [0, 1, 1], [1, 0, 1]], 3) == 3
    assert rank_mod_p([], 5) == 0
    assert primes_of([(0, 12), (35,)]) == [2, 3, 5, 7]
