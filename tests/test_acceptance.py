"""Acceptance suite: one test per contract criterion.

Every assertion is exact (integer or rational equality); there are no
tolerances anywhere.  Each test prints a single PASS line on success so
a plain ``pytest -s tests/test_acceptance.py`` reads as a checklist.
"""

import ast
import io
import json
import random
import sys
from pathlib import Path

import pytest

import lagfib

from lagfib.cli import bundled_names, bundled_text, load_bundled, main, run
from lagfib.complexes import (
    TwistedCochain,
    twisted_cohomology,
    untwisted_cohomology_Q,
    validate_complex,
)
from lagfib.groupring import Representation, Word, check_duality
from lagfib.intlinalg import (
    AbelianGroup,
    IntMatrix,
    int_kernel,
    snf,
)
from lagfib.obstruction import cup_matrix, dd_evaluate, dd_matrix
from lagfib.problemfile import parse_problem_text, serialize
from lagfib.realizable import realizable_subgroup

from helpers import dense_coboundary, determinant, is_unimodular, sparse
from test_intlinalg import oracle_invariants


def _passed(number, label):
    print("ACCEPTANCE %d (%s): PASS" % (number, label))


def _pipeline(name):
    problem = load_bundled(name)
    H2 = twisted_cohomology(problem.complex, problem.rho, 2)
    cup = cup_matrix(problem.complex, problem.diagonal, problem.rho,
                     problem.ell, problem.periods)
    D = dd_matrix(H2, cup, untwisted_cohomology_Q(problem.complex, 3))
    R = realizable_subgroup(D, H2)
    return problem, H2, D, R


def test_criterion_1_t3_regression():
    problem, H2, D, R = _pipeline("t3")
    assert H2.group == AbelianGroup(9)
    assert H2.orders == (0,) * 9
    # generator order is (cell, frame slot) lexicographic, so the matrix
    # is exactly the flattened identity pairing
    assert D.matrix.rows == 1 and D.matrix.cols == 9
    assert list(D.matrix.data[0]) == [1, 0, 0, 0, 1, 0, 0, 0, 1]
    assert R.group == AbelianGroup(8)
    for coords in R.coordinate_generators:
        assert coords[0] + coords[4] + coords[8] == 0
    _passed(1, "flat 3-torus regression")


def test_criterion_2_heisenberg_regression():
    problem, H2, D, R = _pipeline("heisenberg")
    assert H2.group == AbelianGroup(5)
    assert H2.per_cell_shape == ((1, 1, 1), (0, 0, 1), (0, 0, 0))
    assert list(D.matrix.data[0]) == [0, 1, 0, 0, 1]
    assert R.group == AbelianGroup(4)
    for coords in R.coordinate_generators:
        assert coords[1] + coords[4] == 0
    _passed(2, "Heisenberg manifold regression")


def test_criterion_3_mapping_torus_regression():
    problem, H2, D, R = _pipeline("mapping_torus")
    assert H2.group == AbelianGroup(5, (2, 2))
    assert H2.per_cell_shape == ((0, 2, 0), (1, 0, 1), (0, 2, 0))

    # cocycle conditions: the top coboundary kills exactly the first and
    # third slots of the middle 2-cell
    delta2 = dense_coboundary(problem.complex, problem.rho, 2)
    assert [list(r[3:6]) for r in delta2.data] == [[-2, 0, 0], [0, 0, 0],
                                                   [0, 0, -2]]
    assert all(delta2.data[r][c] == 0 for r in range(3) for c in range(9)
               if not 3 <= c < 6)

    # coboundary conditions: the image of delta^1 is spanned by twice
    # the middle slots of the outer 2-cells
    from lagfib.intlinalg import hnf_columns
    delta1 = dense_coboundary(problem.complex, problem.rho, 1)
    basis, _ = hnf_columns([sparse(c) for c in delta1.columns()])
    assert basis == [{1: 2}, {7: 2}]

    assert list(D.matrix.data[0]) == [1, 0, 1, 0, 1, 0, 0]
    assert R.group == AbelianGroup(4, (2, 2))
    for coords in R.coordinate_generators:
        assert coords[0] + coords[2] + coords[4] == 0
    _passed(3, "mapping torus regression")


def test_criterion_4_complex_properties():
    for name in bundled_names():
        problem = load_bundled(name)
        failures = validate_complex(problem.complex,
                                    list(problem.representations.values()))
        assert failures == [], (name, failures)
    t3 = load_bundled("t3")
    one = Representation.trivial(t3.presentation, 1)
    betti = [twisted_cohomology(t3.complex, one, k).group.free_rank
             for k in range(4)]
    assert betti == [1, 3, 3, 1]
    _passed(4, "boundary and Betti property suite")


def test_criterion_5_linear_algebra_properties():
    rng = random.Random(1905)
    for _ in range(1000):
        rows = rng.randint(1, 6)
        cols = rng.randint(1, 6)
        A = IntMatrix([[rng.randint(-9, 9) for _ in range(cols)]
                       for _ in range(rows)])
        res = snf(A)
        assert res.U * A * res.V == res.S
        assert is_unimodular(res.U) and is_unimodular(res.V)
        diag = [d for d in res.diagonal() if d != 0]
        assert all(d > 0 for d in diag)
        assert all(b % a == 0 for a, b in zip(diag, diag[1:]))
        kernel = int_kernel(A)
        for v in kernel:
            assert all(x == 0 for x in A.apply(v))
        if kernel:
            sat = snf(IntMatrix.from_columns(kernel)).invariant_factors()
            assert all(d == 1 for d in sat)
    from lagfib.intlinalg import cokernel_invariants
    for _ in range(300):
        rows = rng.randint(1, 3)
        cols = rng.randint(1, 3)
        A = IntMatrix([[rng.randint(-3, 3) for _ in range(cols)]
                       for _ in range(rows)])
        free, torsion = oracle_invariants(A)
        got = cokernel_invariants(A)
        assert (got.free_rank, list(got.torsion)) == (free, torsion)
    _passed(5, "exact linear algebra property suite")


def test_criterion_6_obstruction_descent():
    rng = random.Random(2718)
    for name in bundled_names():
        problem = load_bundled(name)
        cx = problem.complex
        h3 = untwisted_cohomology_Q(cx, 3)
        delta1 = dense_coboundary(cx, problem.rho, 1)
        for _ in range(100):
            psi = [rng.randint(-5, 5) for _ in range(delta1.cols)]
            image = TwistedCochain.from_flat(cx, 2, 3, delta1.apply(psi))
            values = dd_evaluate(cx, problem.diagonal, problem.rho,
                                 problem.ell, problem.periods, image)
            assert all(x == 0 for x in h3.coordinates(values)), name
        H2 = twisted_cohomology(cx, problem.rho, 2)
        base = []
        for gen in H2.generators:
            values = dd_evaluate(cx, problem.diagonal, problem.rho,
                                 problem.ell, problem.periods, gen)
            base.append(h3.coordinates(values))
        for _ in range(20):
            length = rng.randint(1, 3)
            word = Word(tuple((rng.randrange(3), rng.choice((1, -1)))
                              for _ in range(length)))
            shifted = problem.diagonal.relifted("e3", word)
            for gen, expected in zip(H2.generators, base):
                values = dd_evaluate(cx, shifted, problem.rho, problem.ell,
                                     problem.periods, gen)
                assert h3.coordinates(values) == expected, (name, word)
    _passed(6, "descent and lift-independence property suite")


def test_criterion_7_duality_check(tmp_path, capsys):
    for name in bundled_names():
        problem = load_bundled(name)
        assert check_duality(problem.ell, problem.rho) == []
    corrupted = bundled_text("heisenberg").replace(
        "[representation rho]\ndim = 3\na = [[1,0,-1],[0,1,0],[0,0,1]]",
        "[representation rho]\ndim = 3\na = [[1,0,0],[0,1,0],[0,0,1]]")
    bad = parse_problem_text(corrupted)
    failures = check_duality(bad.ell, bad.rho)
    assert failures and "inverse-transpose" in failures[0]
    path = tmp_path / "bad_duality.iaf"
    path.write_text(corrupted, encoding="utf-8")
    assert main(["validate", str(path)]) == 1
    out = capsys.readouterr().out
    assert "duality[rho = ell^-T]: FAIL" in out
    _passed(7, "duality enforcement")


def test_criterion_8_cli_contract(tmp_path, capsys, monkeypatch):
    # parse -> serialize -> parse identity
    for name in bundled_names():
        problem = load_bundled(name)
        assert parse_problem_text(serialize(problem)) == problem
    # byte-identical reports across independent runs
    for name in bundled_names():
        for fmt in ("text", "json"):
            out_a = run("report", load_bundled(name), fmt=fmt)[1]
            out_b = run("report", load_bundled(name), fmt=fmt)[1]
            assert out_a == out_b
    doc = json.loads(run("report", load_bundled("t3"), fmt="json")[1])
    assert json.loads(json.dumps(doc)) == doc
    # exit code 0
    good = tmp_path / "t3.iaf"
    good.write_text(bundled_text("t3"), encoding="utf-8")
    assert main(["report", str(good)]) == 0
    # exit code 1: corrupted boundary fails validation
    broken = bundled_text("heisenberg").replace(
        "boundary e2_1 = (1 - c*b)*e1_1",
        "boundary e2_1 = (1 + c*b)*e1_1")
    bad = tmp_path / "bad_boundary.iaf"
    bad.write_text(broken, encoding="utf-8")
    assert main(["validate", str(bad)]) == 1
    # exit code 2: malformed input
    garbage = tmp_path / "garbage.iaf"
    garbage.write_text("not a section\n", encoding="utf-8")
    assert main(["report", str(garbage)]) == 2
    capsys.readouterr()
    _passed(8, "CLI round-trip, determinism, exit codes")


def test_library_imports_only_the_standard_library():
    # the tests use sympy and hypothesis; the library may not
    package = Path(lagfib.__file__).parent
    for path in sorted(package.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.Import):
                names = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom) and node.level == 0:
                names = [node.module]
            else:
                continue
            for name in names:
                top = name.split(".")[0]
                assert top in sys.stdlib_module_names or top == "lagfib", (
                    path.name, name)
