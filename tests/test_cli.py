import io
import json

import pytest

from lagfib import cli, obstruction
from lagfib.cli import bundled_text, load_bundled, main, run
from lagfib.intlinalg import IntMatrix
from lagfib.problemfile import parse_problem_text


@pytest.fixture
def t3_path(tmp_path):
    path = tmp_path / "t3.iaf"
    path.write_text(bundled_text("t3"), encoding="utf-8")
    return str(path)


def _write(tmp_path, name, text):
    path = tmp_path / name
    path.write_text(text, encoding="utf-8")
    return str(path)


# ---------------------------------------------------------------------------
# exit codes


def test_exit_zero_on_success(t3_path, capsys):
    assert main(["report", t3_path]) == 0
    out = capsys.readouterr().out
    assert "realisable classes" in out


def test_exit_one_on_duality_corruption(tmp_path, capsys):
    text = bundled_text("heisenberg").replace(
        "[representation rho]\ndim = 3\na = [[1,0,-1],[0,1,0],[0,0,1]]",
        "[representation rho]\ndim = 3\na = [[1,0,0],[0,1,0],[0,0,1]]")
    path = _write(tmp_path, "bad_duality.iaf", text)
    assert main(["validate", path]) == 1
    out = capsys.readouterr().out
    assert "duality" in out and "FAIL" in out


def test_exit_one_on_boundary_corruption(tmp_path, capsys):
    text = bundled_text("heisenberg").replace(
        "boundary e2_1 = (1 - c*b)*e1_1",
        "boundary e2_1 = (1 + c*b)*e1_1")
    path = _write(tmp_path, "bad_boundary.iaf", text)
    assert main(["validate", path]) == 1
    out = capsys.readouterr().out
    assert "boundary squares to zero: FAIL" in out
    assert "e2_1" in out


def test_boundary_failure_text():
    problem = parse_problem_text(bundled_text("heisenberg").replace(
        "boundary e3 = (c - 1)*e2_1", "boundary e3 = (c + 1)*e2_1"))
    status, out = run("validate", problem)
    assert status == 1
    assert out == (
        "validation\n"
        "  relations[ell]: ok\n"
        "  relations[rho]: ok\n"
        "  duality[rho = ell^-T]: ok\n"
        "  boundary squares to zero: FAIL\n"
        "    - double boundary of 'e3' is nonzero on e1_2, e1_3 under "
        "representation 'ell'\n"
        "    - double boundary of 'e3' is nonzero on e1_2, e1_3 under "
        "representation 'rho'\n"
        "    - double boundary of 'e3' is nonzero on e1_3 under "
        "representation 'augmentation'\n"
        "  periods closed: ok\n"
        "  diagonal certification: FAIL\n"
        "    - skipped: earlier checks failed\n"
        "result: validation FAILED\n")


def test_periods_failure_text():
    problem = parse_problem_text(bundled_text("heisenberg").replace(
        "e1_3 = [0, 0, 1]", "e1_3 = [1, 0, 1]"))
    status, out = run("validate", problem)
    assert status == 1
    assert out == (
        "validation\n"
        "  relations[ell]: ok\n"
        "  relations[rho]: ok\n"
        "  duality[rho = ell^-T]: ok\n"
        "  boundary squares to zero: ok\n"
        "  periods closed: FAIL\n"
        "    - periods are not closed around the boundary of 'e2_1'\n"
        "    - periods are not closed around the boundary of 'e2_3'\n"
        "  diagonal certification: FAIL\n"
        "    - skipped: earlier checks failed\n"
        "result: validation FAILED\n")


def test_exit_one_applies_to_compute_commands(tmp_path, capsys):
    text = bundled_text("heisenberg").replace(
        "boundary e2_1 = (1 - c*b)*e1_1",
        "boundary e2_1 = (1 + c*b)*e1_1")
    path = _write(tmp_path, "bad_boundary.iaf", text)
    assert main(["realizable", path]) == 1
    out = capsys.readouterr().out
    assert "validation" in out


@pytest.mark.parametrize("removed, h2, realisable, degree_1", [
    (("cells 3", "boundary e3", "e3 +="), "Z^9", "Z^9", 0),
    (("cells 2", "cells 3", "boundary e2", "boundary e3", "e3 +="), "0", "0",
     0),
    (("cells 1", "cells 2", "cells 3", "boundary", "e1_", "e3 +="), "0", "0",
     2),
], ids=["no-3-cells", "no-2-cells", "no-1-cells"])
def test_complex_without_three_cells(tmp_path, capsys, removed, h2,
                                     realisable, degree_1):
    # C^3 = 0, so H^3(B;Q) = 0, D is the zero map and R is all of H^2;
    # without 2-cells H^2 is 0 as well; with 0-cells alone (and empty
    # periods and diagonal) the top degree is 0, so degree 1 is out of
    # the documented range
    text = "".join(line for line in bundled_text("t3").splitlines(True)
                   if not line.startswith(removed))
    path = _write(tmp_path, "no_top_cells.iaf", text)
    assert main(["validate", path]) == 0
    assert main(["cohomology", "--degree", "1", path]) == degree_1
    assert main(["report", path]) == 0
    out = capsys.readouterr().out
    for fmt in ("text", "json"):
        assert main(["validate", "--check-diagonal", "--seed", "7", path,
                     "--format", fmt]) == 0
        assert "diagonal certification (" in capsys.readouterr().out
    assert "H^2 with twisted Z^3 coefficients\n  group: %s\n" % h2 in out
    assert "matrix: zero" in out
    assert "realisable classes R = ker D\n  group: %s\n" % realisable in out


def test_cohomology_over_no_cells_omits_the_per_cell_line(tmp_path, capsys):
    text = "".join(line for line in bundled_text("t3").splitlines(True)
                   if not line.startswith(("boundary e3", "e3 +=")))
    path = _write(tmp_path, "empty_top.iaf",
                  text.replace("cells 3 = e3", "cells 3 ="))
    assert main(["cohomology", "--degree", "3", path]) == 0
    assert capsys.readouterr().out == (
        "H^3 with twisted Z^3 coefficients\n  group: 0\n")
    assert main(["cohomology", "--degree", "3", path, "--format", "json"]) == 0
    assert json.loads(capsys.readouterr().out)["per_cell"] == []


_DOUBLING_ELL = (
    "[representation ell]\ndim = 3\na = [[1,0,0],[0,1,0],[0,0,1]]",
    "[representation ell]\ndim = 3\na = [[2,0,0],[0,1,0],[0,0,1]]")


@pytest.mark.parametrize("boundary, periods_failure", [
    (("boundary e1_1 = (a - 1)*e0", "boundary e1_1 = (a^-1 - 1)*e0"),
     "periods are not closed around the boundary of 'e2_3'"),
    (("(a - 1)*e1_2", "(1 - a^-1)*e1_2"),
     "periods cannot be checked: representation 'ell': generator 'a' is "
     "not invertible over Z"),
], ids=["in-delta0", "in-delta1"])
def test_generator_outside_gl_is_a_validation_failure(tmp_path, capsys,
                                                       boundary,
                                                       periods_failure):
    text = bundled_text("t3").replace(*_DOUBLING_ELL).replace(*boundary)
    path = _write(tmp_path, "non_gl.iaf", text)
    for command in (["validate"], ["report"], ["cohomology", "--degree", "1"]):
        assert main(command + [path]) == 1
    out = capsys.readouterr().out
    assert ("  boundary squares to zero: FAIL\n"
            "    - cannot evaluate the boundary: representation 'ell': "
            "generator 'a' is not invertible over Z\n"
            "  periods closed: FAIL\n"
            "    - %s\n" % periods_failure) in out


def test_form_representation_of_the_wrong_dimension(tmp_path, capsys):
    text = bundled_text("t3").replace(
        "[representation ell]\ndim = 3\na = [[1,0,0],[0,1,0],[0,0,1]]\n"
        "b = [[1,0,0],[0,1,0],[0,0,1]]\nc = [[1,0,0],[0,1,0],[0,0,1]]",
        "[representation ell]\ndim = 2\na = [[1,0],[0,1]]\nb = [[1,0],[0,1]]"
        "\nc = [[1,0],[0,1]]")
    path = _write(tmp_path, "ell_dim2.iaf", text)
    assert main(["validate", path]) == 1
    assert ("  periods closed: FAIL\n"
            "    - periods have 3 components but representation 'ell' has "
            "dimension 2\n") in capsys.readouterr().out


def _diagonal_table(terms):
    return "".join("e3 %s= (%s | %s ; %s | %s)\n"
                   % ("+" if sign > 0 else "-", fc, fw, bc, bw)
                   for sign, fc, fw, bc, bw in terms)


# the sign-flipped table of test_certification_catches_sign_flip
_SIGN_FLIPPED = [
    (-1, "e1_1", "1", "e2_1", "a"), (-1, "e1_1", "1", "e2_1", "1"),
    (-1, "e1_3", "1", "e2_1", "1"), (-1, "e1_2", "1", "e2_1", "1"),
    (1, "e1_2", "1", "e2_1", "a"), (1, "e1_1", "1", "e2_2", "1"),
    (1, "e1_1", "1", "e2_2", "a"), (1, "e1_2", "1", "e2_3", "1")]


def _sign_flipped_mapping_torus():
    return (bundled_text("mapping_torus").partition("[diagonal]")[0]
            + "[diagonal]\n" + _diagonal_table(_SIGN_FLIPPED))


def test_cohomology_does_not_certify_the_diagonal(tmp_path, capsys):
    # the sign-flipped table fails certification, which H^k does not
    # depend on
    path = _write(tmp_path, "sign_flip.iaf", _sign_flipped_mapping_torus())
    assert main(["validate", path]) == 1
    assert "diagonal certification (59 checks): FAIL" in capsys.readouterr().out
    assert main(["cohomology", "--degree", "0", path]) == 0
    assert capsys.readouterr().out == (
        "H^0 with twisted Z^3 coefficients\n"
        "  group: Z\n"
        "  per-cell: (0 + Z + 0)\n"
        "  g1 = dual(e0, 2)  [free]\n")


def test_non_integral_certification_failure_text():
    # periods over 6: the class is computed on integers and printed as
    # the Fraction it stands for
    problem = parse_problem_text(_sign_flipped_mapping_torus().replace(
        "e1_1 = [-1, 1/2, -1]", "e1_1 = [-1/3, 1/6, -1/3]"))
    status, out = run("validate", problem)
    assert status == 1
    assert out == (
        "validation\n"
        "  relations[ell]: ok\n"
        "  relations[rho]: ok\n"
        "  duality[rho = ell^-T]: ok\n"
        "  boundary squares to zero: ok\n"
        "  periods closed: ok\n"
        "  diagonal certification (59 checks): FAIL\n"
        "    - coboundary of the twisted 1-cochain TwistedCochain(deg=1, "
        "{'e1_2': (0, 1, 0)}) pairs to a nonzero class (Fraction(2, 3),)\n"
        "result: validation FAILED\n")


def test_cohomology_prints_the_report_when_a_check_fails():
    problem = parse_problem_text(bundled_text("heisenberg").replace(
        "boundary e2_1 = (1 - c*b)*e1_1", "boundary e2_1 = (1 + c*b)*e1_1"))
    for fmt in ("text", "json"):
        want = run("report", problem, fmt=fmt)
        assert want[0] == 1
        assert run("cohomology", problem, degree=2, fmt=fmt) == want


def test_exit_two_on_parse_error(tmp_path, capsys):
    path = _write(tmp_path, "garbage.iaf", "this is not a problem file\n")
    assert main(["report", path]) == 2
    err = capsys.readouterr().err
    assert "parse error" in err and "line 1" in err


def test_exit_two_on_missing_section(tmp_path, capsys):
    text = bundled_text("t3").partition("[diagonal]")[0]
    path = _write(tmp_path, "nodiag.iaf", text)
    assert main(["validate", path]) == 2
    err = capsys.readouterr().err
    assert "[diagonal]" in err


@pytest.mark.parametrize("old, new, where", [
    ("[bindings]", "[]", "line 36, column 1: unknown section []"),
    ("[bindings]", "[ ]", "line 36, column 1: unknown section []"),
    ("dim = 3", "dim = 3 x",
     "line 25, column 9: trailing input after dim (near 'x')"),
    ("dim = 3", "dim = 0",
     "line 25, column 7: dim must be at least 1 (near '0')"),
    ("dim = 3", "dim = -1",
     "line 25, column 7: dim must be at least 1 (near '-1')"),
])
def test_exit_two_on_an_empty_header_or_a_bad_dim(tmp_path, capsys, old, new,
                                                  where):
    path = _write(tmp_path, "bad.iaf", bundled_text("t3").replace(old, new, 1))
    assert main(["validate", path]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "lagfib: parse error: %s\n" % where


GROUP_LINES = "group lines are 'generators = ...' or 'relation ...'"
COMPLEX_LINES = ("complex lines are 'cells k = ...' or "
                 "'boundary cell = ...'")


@pytest.mark.parametrize("old, new, where", [
    ("relation a*b", "relationa*b",
     "line 20, column 1: %s (near 'relationa*b = b*a')" % GROUP_LINES),
    ("boundary e3", "boundarye3",
     "line 51, column 1: %s (near 'boundarye3 = (c - 1)*e2_1 + (a - 1)*e2_2 "
     "+ (b - 1)*e2_3')" % COMPLEX_LINES),
    ("cells 3", "cellsX 3",
     "line 44, column 1: %s (near 'cellsX 3 = e3')" % COMPLEX_LINES),
    ("generators =", "generatorsX =",
     "line 19, column 1: %s (near 'generatorsX = a b c')" % GROUP_LINES),
], ids=["relation", "boundary", "cells", "generators"])
def test_exit_two_on_a_keyword_run_into_the_next_token(tmp_path, capsys, old,
                                                       new, where):
    # a line's keyword is a whole token, not a prefix of its first word
    path = _write(tmp_path, "bad.iaf", bundled_text("t3").replace(old, new, 1))
    assert main(["validate", path]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "lagfib: parse error: %s\n" % where


def test_exit_two_on_a_power_over_the_word_length_cap(tmp_path, capsys):
    # one letter over the cap: a larger exponent would, without the cap,
    # build the word before anything could reject it
    text = bundled_text("t3").replace("relation a*b = b*a",
                                      "relation a^100001*b = b*a")
    assert main(["validate", _write(tmp_path, "long.iaf", text)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == ("lagfib: parse error: line 20, column 12: word "
                            "longer than 100000 letters\n")


def test_exit_two_on_unreadable_file(capsys):
    assert main(["report", "/nonexistent/file.iaf"]) == 2
    assert "cannot read" in capsys.readouterr().err


def test_exit_two_on_undecodable_file(tmp_path, capsys):
    path = tmp_path / "f.iaf"
    path.write_bytes(bundled_text("t3").encode("utf-8") + b"\xff\n")
    assert main(["validate", str(path)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("lagfib: cannot read %s: " % path)
    assert "can't decode byte 0xff" in captured.err


def test_stdin_input(monkeypatch, capsys):
    monkeypatch.setattr("sys.stdin", io.StringIO(bundled_text("t3")))
    assert main(["cohomology", "--degree", "2", "-"]) == 0
    out = capsys.readouterr().out
    assert "Z^9" in out


def test_main_twice_in_one_process(t3_path, capsys):
    # the argument parser is built once and reused by later calls
    outputs = []
    for _ in range(2):
        assert main(["cohomology", "--degree", "2", t3_path]) == 0
        outputs.append(capsys.readouterr())
    assert outputs[0] == outputs[1]
    assert main(["validate", t3_path]) == 0
    assert "result: all checks passed" in capsys.readouterr().out


def test_exit_two_on_a_bad_argument(t3_path, capsys):
    for _ in range(2):
        with pytest.raises(SystemExit) as exc:
            main(["report", t3_path, "--format", "xml"])
        assert exc.value.code == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith(
            "usage: lagfib report [-h] [--format {text,json}] file\n"
            "lagfib report: error: argument --format: invalid choice: 'xml'")
    assert main(["report", t3_path]) == 0


FOUR_CELL = ("cells 3 = e3\ncells 4 = f4",
             "boundary e3 = (c - 1)*e2_1 + (a - 1)*e2_2 + (b - 1)*e2_3\n"
             "boundary f4 = %s")


def _four_cell_text(boundary):
    cells, line = FOUR_CELL
    return (bundled_text("t3")
            .replace("cells 3 = e3", cells)
            .replace(line.partition("\n")[0], line % boundary))


@pytest.mark.parametrize("fmt", ["text", "json"])
def test_report_reads_h3_below_the_top_degree(fmt):
    # the augmentation kills delta^3 of (a - 1) e3, so H^3(B;Q) is the
    # kernel of delta^3 and the report is t3's with that basis label
    problem = parse_problem_text(_four_cell_text("(a - 1)*e3"))
    status, out = run("report", problem, fmt=fmt)
    assert status == 0
    t3 = load_bundled("t3")
    _, expected = run("report", t3, fmt=fmt)
    assert out == expected.replace(t3.digest(), problem.digest()).replace(
        "dual(e3)", "kernel[0]")
    if fmt == "text":
        assert "basis: kernel[0]" in out
        assert "matrix row: [1 0 0 0 1 0 0 0 1]" in out
        assert "realisable classes R = ker D\n  group: Z^8" in out


def test_exit_one_when_the_cup_pairing_is_not_closed(tmp_path, capsys):
    # delta^3 = [1] under the augmentation: H^3(B;Q) = 0, and the cup
    # pairing of a generator is not a cocycle
    path = _write(tmp_path, "f4.iaf", _four_cell_text("e3"))
    assert main(["report", path]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == (
        "lagfib: inconsistent input: diagonal data or inputs inconsistent: "
        "the cup pairing of g1 is not a cocycle\n")


# ---------------------------------------------------------------------------
# command output


def test_cohomology_degree_two_mapping_torus(capsys):
    problem = load_bundled("mapping_torus")
    status, out = run("cohomology", problem, degree=2)
    assert status == 0
    assert "Z^5 + Z/2 + Z/2" in out
    assert "(Z + Z/2 + Z) (0 + Z + 0) (Z + Z/2 + Z)" in out


TWO_FACES = """\
[group]
generators = a

[representation rho]
dim = 1
a = [[1]]

[bindings]
coefficient_rep = rho
form_rep = rho

[complex]
cells 0 = v
cells 1 = e1
cells 2 = f1 f2
boundary e1 = (a - 1)*v
boundary f1 = 2*e1
boundary f2 = 2*e1

[periods]
e1 = [0]

[diagonal]
"""


def test_torsion_generator_has_its_order(tmp_path, capsys):
    # H^2 = Z^2 / <(2, 2)> = Z + Z/2.  The Hermite pivot 2 sits on f1, but
    # 2 f1* = -2 f2* is not in the image, so f1* has infinite order: the
    # class of order 2 is f1* + f2*, and no per-cell readout is printed
    path = _write(tmp_path, "two_faces.iaf", TWO_FACES)
    assert main(["cohomology", "--degree", "2", path]) == 0
    assert capsys.readouterr().out == (
        "H^2 with twisted Z^1 coefficients\n"
        "  group: Z + Z/2\n"
        "  g1 = dual(f2, 1)  [free]\n"
        "  g2 = f1: (1); f2: (1)  [order 2]\n")


def test_realizable_heisenberg_output():
    problem = load_bundled("heisenberg")
    status, out = run("realizable", problem)
    assert status == 0
    assert "group: Z^4" in out
    assert "cut out by: g2 + g5 = 0" in out


def test_obstruction_output_t3():
    problem = load_bundled("t3")
    status, out = run("obstruction", problem)
    assert status == 0
    assert "matrix row: [1 0 0 0 1 0 0 0 1]" in out


def test_validate_check_diagonal_seeded():
    problem = load_bundled("mapping_torus")
    status, out = run("validate", problem, seed=7)
    assert status == 0
    assert "diagonal certification" in out
    # the randomized suite runs many more checks than the basic pass
    basic = run("validate", problem)[1]
    checks = int(out.split("(")[1].split(" ")[0])
    basic_checks = int(basic.split("(")[1].split(" ")[0])
    assert checks > basic_checks


@pytest.mark.parametrize("name, basic, randomized", [
    ("t3", 73, 363), ("heisenberg", 45, 255), ("mapping_torus", 59, 309)])
def test_certification_check_counts(name, basic, randomized):
    problem = load_bundled(name)
    for seed, count in ((None, basic), (0, randomized)):
        out = run("validate", problem, seed=seed)[1]
        assert "diagonal certification (%d checks): ok" % count in out


def test_seeded_certification_multiplies_few_matrices(tmp_path, monkeypatch,
                                                     capsys):
    # a work guard in place of a timer: the IntMatrix products made
    # inside diagonal certification on one seeded run.  Each word is
    # multiplied out once and re-lifts reuse those matrices; when
    # re-lifted words were evaluated afresh, certification made 96.
    products = []
    inside = []
    multiply = IntMatrix.__mul__
    certify = cli.validate_diagonal

    def counted(self, other):
        if inside:
            products.append(other)
        return multiply(self, other)

    def certify_counted(*args, **kwargs):
        inside.append(True)
        try:
            return certify(*args, **kwargs)
        finally:
            inside.pop()

    monkeypatch.setattr(IntMatrix, "__mul__", counted)
    monkeypatch.setattr(cli, "validate_diagonal", certify_counted)
    path = _write(tmp_path, "mapping_torus.iaf", bundled_text("mapping_torus"))
    assert main(["validate", "--check-diagonal", "--seed", "7", path]) == 0
    assert "diagonal certification (309 checks): ok" in capsys.readouterr().out
    assert len(products) == 30


@pytest.mark.parametrize("name, checks", [
    ("t3", 363), ("heisenberg", 255), ("mapping_torus", 309)])
def test_dual_words_build_no_relifted_rows(tmp_path, monkeypatch, capsys,
                                           name, checks):
    # a work guard: on the bundled files rho(w)^T ell(w) = 1 for every
    # re-lifting word, so check (b) counts its checks without building
    # a re-lifted row
    rows = []
    relifted_row = obstruction._relifted_row

    def counted(*args):
        rows.append(args[1])
        return relifted_row(*args)

    monkeypatch.setattr(obstruction, "_relifted_row", counted)
    path = _write(tmp_path, "%s.iaf" % name, bundled_text(name))
    assert main(["validate", "--check-diagonal", "--seed", "7", path]) == 0
    assert ("diagonal certification (%d checks): ok" % checks
            in capsys.readouterr().out)
    assert rows == []


# ---------------------------------------------------------------------------
# determinism and JSON


@pytest.mark.parametrize("name", ["t3", "heisenberg", "mapping_torus"])
@pytest.mark.parametrize("fmt", ["text", "json"])
def test_reports_byte_identical(name, fmt):
    problem_a = load_bundled(name)
    problem_b = load_bundled(name)
    out_a = run("report", problem_a, fmt=fmt)[1]
    out_b = run("report", problem_b, fmt=fmt)[1]
    assert out_a == out_b


def test_json_report_roundtrips():
    problem = load_bundled("mapping_torus")
    _, out = run("report", problem, fmt="json")
    doc = json.loads(out)
    assert json.loads(json.dumps(doc)) == doc
    assert doc["status"] == "ok"
    assert doc["h2"]["group"] == {"free_rank": 5, "torsion": [2, 2],
                                  "text": "Z^5 + Z/2 + Z/2"}
    assert doc["obstruction"]["matrix"] == [["1", "0", "1", "0", "1", "0", "0"]]
    assert doc["realizable"]["group"]["free_rank"] == 4
    assert doc["witness"]["label"] == "g1"
    assert doc["digest"] == problem.digest()


def test_json_rationals_are_exact_strings(tmp_path):
    text = bundled_text("mapping_torus")
    problem = load_bundled("mapping_torus")
    # periods with halves survive as p/q strings in validation-free parse
    from lagfib.problemfile import serialize
    assert "e1_1 = [-1, 1/2, -1]" in serialize(problem)


def test_validate_json_shape():
    problem = load_bundled("t3")
    status, out = run("validate", problem, fmt="json")
    doc = json.loads(out)
    assert status == 0 and doc["ok"] is True
    names = [c["check"] for c in doc["checks"]]
    assert "relations[ell]" in names
    assert any(n.startswith("duality") for n in names)
