"""Acceptance suite: one test per contract criterion.

Every assertion is exact (integer or rational equality); there are no
tolerances anywhere.  Each test prints a single PASS line on success so
a plain ``pytest -s tests/test_acceptance.py`` reads as a checklist.
"""

import ast
import json
import random
import sys
from pathlib import Path

import lagfib

from lagfib.cli import bundled_names, bundled_text, load_bundled, main, run
from lagfib.complexes import (
    Quotient,
    twisted_cohomology,
    untwisted_cohomology_Q,
    validate_complex,
)
from lagfib.groupring import Representation, Word, check_duality
from lagfib.intlinalg import (
    AbelianGroup,
    IntMatrix,
    hnf_columns,
    kernel_hnf,
    snf,
)
from lagfib.obstruction import cup_matrix, dd_matrix
from lagfib.problemfile import parse_problem_text, serialize
from lagfib.realizable import realizable_subgroup

from helpers import (
    apply,
    dd_evaluate,
    dense,
    dense_coboundary,
    flat_cochain,
    fraction_matrix,
    is_unimodular,
    relifted,
    sparse,
)
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
    row, = fraction_matrix(D)
    assert list(row) == [1, 0, 0, 0, 1, 0, 0, 0, 1]
    assert R.group == AbelianGroup(8)
    for coords in R.coordinate_generators:
        assert coords[0] + coords[4] + coords[8] == 0
    _passed(1, "flat 3-torus regression")


def test_criterion_2_heisenberg_regression():
    problem, H2, D, R = _pipeline("heisenberg")
    assert H2.group == AbelianGroup(5)
    assert H2.per_cell_shape == ((1, 1, 1), (0, 0, 1), (0, 0, 0))
    assert list(fraction_matrix(D)[0]) == [0, 1, 0, 0, 1]
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
    basis, _ = hnf_columns([sparse(c) for c in zip(*delta1.data)])
    assert basis == [{1: 2}, {7: 2}]

    assert list(fraction_matrix(D)[0]) == [1, 0, 1, 0, 1, 0, 0]
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
        kernel = [dense(col, A.cols) for col in kernel_hnf(
            [sparse(row) for row in A.data], A.cols)[0]]
        for v in kernel:
            assert all(x == 0 for x in apply(A, v))
        if kernel:
            sat = snf(IntMatrix(list(zip(*kernel)))).diagonal()
            assert all(d == 1 for d in sat if d)
    for _ in range(300):
        rows = rng.randint(1, 3)
        cols = rng.randint(1, 3)
        A = IntMatrix([[rng.randint(-3, 3) for _ in range(cols)]
                       for _ in range(rows)])
        free, torsion = oracle_invariants(A)
        got = Quotient(*hnf_columns([sparse(c) for c in zip(*A.data)]),
                       A.rows).group
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
            image = flat_cochain(cx, 2, 3, apply(delta1, psi))
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
            shifted = relifted(problem.diagonal, "e3", word)
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


# The interpreter's built-in SHA-256 module is _sha2 from Python 3.12 on
# and _sha256 before, and each version lists only its own name among
# its standard modules; the library tries both.
BUILTIN_SHA256 = ("_sha2", "_sha256")


def test_library_imports_only_the_standard_library():
    # the tests use sympy and hypothesis; the library may not.  Nor may
    # it check anything with assert, which python -O strips.
    package = Path(lagfib.__file__).parent
    for path in sorted(package.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            assert not isinstance(node, ast.Assert), (path.name, node.lineno)
            if isinstance(node, ast.Import):
                names = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom) and node.level == 0:
                names = [node.module]
            else:
                continue
            for name in names:
                top = name.split(".")[0]
                assert (top in sys.stdlib_module_names or top == "lagfib"
                        or top in BUILTIN_SHA256), (path.name, name)


# Library functions that no library code names, each with the reason it
# stays in src/; being exported by lagfib/__init__.py is not reason
# enough.  The check matches names, so an attribute of the same name
# anywhere in the library would pass a method too; no library code names
# ``coordinates``.  An entry that library code names, or that names no
# function, is stale and fails the check, so the list keeps only the
# entries it needs.
NAMED_FROM_OUTSIDE = {
    "complexes.RationalCohomology.coordinates":
        "the benchmark tracer (perfbench/tracer.py) wraps it by name",
    "complexes.cocycle_coordinates":
        "exported: the class of a cocycle in generator coordinates, the "
        "inverse of cochain_from_coordinates",
    "cli.load_bundled": "the README documents it for library use",
    "cli.bundled_names": "the README documents it for library use",
    "problemfile.parse_problem":
        "exported: reads an .iaf problem from a path, a stream or text",
    "problemfile.parse_word":
        "exported, and the README documents it for reading one word",
}


def _definitions(tree, prefix, method=False):
    """(qualified name, name, whether a method) of every function and
    method in a module, dunder methods left out: the language calls
    those."""
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            if not node.name.startswith("__"):
                yield "%s.%s" % (prefix, node.name), node.name, method
        elif isinstance(node, ast.ClassDef):
            yield from _definitions(node, "%s.%s" % (prefix, node.name), True)


def test_every_library_function_is_named_or_exported():
    # test-only code belongs in tests/: a function that no library code
    # names is dead, exported or not, unless NAMED_FROM_OUTSIDE gives the
    # reason it stays.  A method is named only through an attribute, and
    # a module function only as a plain name: a local variable of a
    # method's name does not call it, nor does an attribute, such as
    # ``complex_.augmentation``, call a function of its name.  The
    # re-export in lagfib/__init__.py names nothing
    package = Path(lagfib.__file__).parent
    trees = {path.stem: ast.parse(path.read_text(encoding="utf-8"))
             for path in sorted(package.glob("*.py"))}
    names, attributes = set(), set()
    for tree in trees.values():
        for node in ast.walk(tree):
            if isinstance(node, ast.Name):
                names.add(node.id)
            elif isinstance(node, ast.Attribute):
                attributes.add(node.attr)
    unnamed = {qualified for module, tree in trees.items()
               for qualified, name, method in _definitions(tree, module)
               if name not in (attributes if method else names)}
    assert sorted(unnamed - set(NAMED_FROM_OUTSIDE)) == []
    assert sorted(set(NAMED_FROM_OUTSIDE) - unnamed) == []


# Imports that may go unused, as "file name" -> the reason.
UNUSED_IMPORTS_ALLOWED = {}


def _unused_imports(tree):
    """Names a module imports and never reads."""
    imported = {alias.asname or alias.name.split(".")[0]
                for node in ast.walk(tree)
                if isinstance(node, (ast.Import, ast.ImportFrom))
                for alias in node.names}
    read = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return imported - read


def test_no_module_imports_a_name_it_never_uses():
    # lagfib/__init__.py imports to re-export, so it is left out
    package = Path(lagfib.__file__).parent
    paths = [path for path in sorted(package.glob("*.py"))
             if path.name != "__init__.py"]
    paths += sorted(Path(__file__).parent.glob("*.py"))
    unused = ["%s %s" % (path.name, name) for path in paths
              for name in sorted(_unused_imports(ast.parse(
                  path.read_text(encoding="utf-8"))))]
    assert sorted(set(unused) - set(UNUSED_IMPORTS_ALLOWED)) == []
