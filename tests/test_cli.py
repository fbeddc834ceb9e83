import contextlib
import io
import json
import os
import random
import subprocess
import sys
from fractions import Fraction
from pathlib import Path
from unittest import mock

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from lagfib import cli, complexes, groupring, obstruction
from lagfib.cli import bundled_text, load_bundled, main, run
from lagfib.complexes import twisted_cohomology, untwisted_cohomology_Q
from lagfib.groupring import check_relations
from lagfib.intlinalg import IntMatrix
from lagfib.problemfile import ProblemFile, parse_problem_text

from helpers import CIRCLE, random_pair

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "perfbench"))

from t3grid import cubical_t3  # noqa: E402
import workloads  # noqa: E402

# The bundled files and two small grids, flat and sheared.
INPUTS = dict({name: bundled_text(name)
               for name in ("t3", "heisenberg", "mapping_torus")},
              **{"%s 2x1x1" % holonomy: cubical_t3(2, 1, 1, holonomy)
                 for holonomy in ("flat", "sheared")})


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


def test_form_rep_rho_fails_at_duality(tmp_path, capsys):
    # the input of test_relift_failure_text: with rho also bound as the
    # form representation the duality fails, so certification, whose
    # check (b) is that duality check, is never reached
    text = bundled_text("heisenberg").replace("form_rep = ell",
                                              "form_rep = rho")
    path = _write(tmp_path, "form_rho.iaf", text)
    assert main(["validate", "--check-diagonal", path]) == 1
    assert capsys.readouterr().out == (
        "validation\n"
        "  relations[ell]: ok\n"
        "  relations[rho]: ok\n"
        "  duality[rho = rho^-T]: FAIL\n"
        "    - duality: generator a: rho(a) is not the inverse-transpose of "
        "rho(a)\n"
        "  boundary squares to zero: ok\n"
        "  periods closed: FAIL\n"
        "    - periods are not closed around the boundary of 'e2_1'\n"
        "    - periods are not closed around the boundary of 'e2_3'\n"
        "  diagonal certification: FAIL\n"
        "    - skipped: earlier checks failed\n"
        "result: validation FAILED\n")


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


@pytest.mark.parametrize("old, new, where", [
    ("(a - 1)*e0", "(a - 1)*%s*e0" % ("1" * 4301),
     "line 45, column 25: integer longer than 4300 digits (near '%s')"
     % ("1" * 4301)),
    # parsed, at the parent commit, and then crashed in the digest
    ("(a - 1)*e0", "(a - 1)*%s*%s*e0" % ("1" * 4000, "1" * 4000),
     "line 45, column 4026: coefficient longer than 4300 digits"),
], ids=["literal", "product"])
def test_exit_two_on_an_integer_over_the_digit_limit(tmp_path, capsys, old,
                                                     new, where):
    text = bundled_text("t3").replace(old, new, 1)
    assert main(["report", _write(tmp_path, "long.iaf", text)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "lagfib: parse error: %s\n" % where


def _power_2x2(m, n):
    """m**n of a 2x2 integer matrix, by repeated squaring."""
    (a, b), (c, d) = m
    result = ((1, 0), (0, 1))
    while n:
        if n & 1:
            (p, q), (r, s) = result
            result = ((p * a + q * c, p * b + q * d),
                      (r * a + s * c, r * b + s * d))
        a, b, c, d = (a * a + b * c, a * b + b * d,
                      c * a + d * c, c * b + d * d)
        n >>= 1
    return result


def test_torsion_order_over_the_int_text_limit(tmp_path, capsys):
    # Python turns at most 4300 digits of an int into text by default;
    # main lifts that for its call and restores it after
    limit = sys.get_int_max_str_digits()
    path = _write(tmp_path, "circle.iaf", CIRCLE % 22000)
    assert main(["cohomology", "--degree", "1", path]) == 0
    assert sys.get_int_max_str_digits() == limit
    group = capsys.readouterr().out.splitlines()[1]
    first, second = group.removeprefix("  group: Z/").split(" + Z/")
    assert len(second) > 4300
    (p, q), (r, s) = _power_2x2(((1, -1), (-1, 2)), 22000)
    order = abs((p - 1) * (s - 1) - q * r)
    sys.set_int_max_str_digits(0)
    try:
        assert int(first) * int(second) == order
        assert int(second) % int(first) == 0
    finally:
        sys.set_int_max_str_digits(limit)


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


def _nested_t3(depth):
    return bundled_text("t3").replace(
        "(a - 1)*e0", "(" * depth + "a - 1" + ")" * depth + "*e0")


_NESTING_ERROR = ("lagfib: parse error: line 45, column 117: parentheses "
                  "nested deeper than 100 (near '(')\n")


@pytest.mark.parametrize("depth", [100, 101, 330, 5000])
def test_deep_parentheses_exit_two_in_process(monkeypatch, capsys, depth):
    # 330 levels ran into Python's recursion limit, a traceback and exit 1
    monkeypatch.setattr("sys.stdin", io.StringIO(_nested_t3(depth)))
    status = main(["validate", "-"])
    captured = capsys.readouterr()
    if depth == 100:
        assert (status, captured.err) == (0, "")
    else:
        assert (status, captured.out, captured.err) == (2, "", _NESTING_ERROR)


@pytest.mark.parametrize("depth", [100, 101, 330, 5000])
def test_deep_parentheses_exit_two_in_a_fresh_process(depth):
    src = str(Path(cli.__file__).resolve().parent.parent)
    done = subprocess.run(
        [sys.executable, "-c",
         "import sys; from lagfib.cli import main; sys.exit(main())",
         "validate", "-"],
        input=_nested_t3(depth), env=dict(os.environ, PYTHONPATH=src),
        capture_output=True, text=True)
    if depth == 100:
        assert (done.returncode, done.stderr) == (0, "")
    else:
        assert (done.returncode, done.stdout, done.stderr) == (
            2, "", _NESTING_ERROR)


class _Terminal(io.StringIO):
    def isatty(self):
        return True


@pytest.mark.parametrize("fmt", ["text", "json"])
def test_terminal_colours_only_the_check_status(tmp_path, monkeypatch, fmt):
    # on a terminal the status that ends a check line is coloured, and no
    # user text: here a title and a check that both end in ": FAIL".  An
    # empty NO_COLOR keeps the colour, a nonempty one drops it (no-color.org)
    monkeypatch.delenv("NO_COLOR", raising=False)
    text = bundled_text("heisenberg").replace(
        "[representation rho]\ndim = 3\na = [[1,0,-1],[0,1,0],[0,0,1]]",
        "[representation rho]\ndim = 3\na = [[1,0,0],[0,1,0],[0,0,1]]")
    text = text.replace(text[text.index("title ="):text.index("\n",
                                                        text.index("title"))],
                        "title = demo: FAIL")
    path = _write(tmp_path, "demo.iaf", text)
    outputs = []
    for stream, no_color in ((io.StringIO(), None), (_Terminal(), None),
                             (_Terminal(), ""), (_Terminal(), "1")):
        if no_color is not None:
            monkeypatch.setenv("NO_COLOR", no_color)
        monkeypatch.setattr("sys.stdout", stream)
        assert main(["report", path, "--format", fmt]) == 1
        outputs.append(stream.getvalue())
    piped, terminal, empty, nonempty = outputs
    assert (empty, nonempty) == (terminal, piped)
    if fmt == "json":
        assert terminal == piped
        return
    assert "obstruction report: demo: FAIL\n" in terminal
    assert "  relations[ell]: \x1b[32mok\x1b[0m\n" in terminal
    assert "  duality[rho = ell^-T]: \x1b[31mFAIL\x1b[0m\n" in terminal
    assert terminal.count("\x1b[") == 2 * 6  # six check lines
    assert terminal.replace("\x1b[32m", "").replace("\x1b[31m", "").replace(
        "\x1b[0m", "") == piped


def test_main_twice_in_one_process(t3_path, capsys):
    # a second call in one process prints what the first printed
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


# ---------------------------------------------------------------------------
# the plain command-line reader and argparse

# The bundled t3 file, read by path (its directory holds no missing.iaf).
_T3_FILE = str(Path(cli.__file__).resolve().parent / "data" / "t3.iaf")
_MISSING_FILE = str(Path(_T3_FILE).with_name("missing.iaf"))
# Option values: a valid choice or int, and every way an int may be no
# ASCII digits: "\u00b2".isdigit() holds, and int() reads "\u0663", "1_0"
# and " 7", and argparse "-1", while the plain reader takes none of them.
_VALUES = ("text", "json", "xml", "", "0", "2", "7", "007", "-1", " 7",
           "\u00b2", "\u0663", "1_0", "--")


def _spelled(draw, option):
    """``option`` and its value as the arguments of one command line, in
    one spelling: exact, '='-joined or abbreviated."""
    value = draw(st.sampled_from(_VALUES))
    spelling = draw(st.sampled_from(("exact", "exact", "joined", "short")))
    if spelling == "joined":
        return [option + "=" + value]
    if spelling == "short":
        option = option[:draw(st.integers(3, len(option) - 1))]
    return [option] if option.startswith("--check") else [option, value]


@st.composite
def _argvs(draw):
    """Command lines: well formed, or not in any way argparse tells
    apart; a repeated option is one drawn twice."""
    if not draw(st.integers(0, 15)):
        return []
    command = draw(st.sampled_from(sorted(cli.COMMANDS) + ["rep", "-h"]))
    parts = [[draw(st.sampled_from(("-", _T3_FILE)))]]
    for option, kind, default, _ in cli.COMMANDS.get(command, (None, ()))[1]:
        if default is None or draw(st.booleans()):
            value = draw(st.sampled_from(
                kind if isinstance(kind, tuple) else ("0", "2", "7", "007")))
            parts.append([option] if kind is bool else [option, value])
    for _ in range(draw(st.integers(0, 2))):
        option = draw(st.sampled_from(("--format", "--check-diagonal",
                                       "--seed", "--degree", None)))
        parts.append(_spelled(draw, option) if option else draw(
            st.sampled_from((["-"], [_T3_FILE], [_MISSING_FILE], ["--"],
                             ["-h"], ["--help"], ["-x"], ["json"]))))
    parts = draw(st.permutations(parts))
    return [command] + [arg for part in parts for arg in part]


def _main_run(argv, plain=True):
    """(exit status, stdout, stderr) of ``cli.main(argv)``, t3 on stdin;
    without ``plain`` every command line goes to argparse.  Any other
    exception fails the test."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.ExitStack() as stack:
        stack.enter_context(mock.patch("sys.stdin",
                                       io.StringIO(bundled_text("t3"))))
        stack.enter_context(contextlib.redirect_stdout(out))
        stack.enter_context(contextlib.redirect_stderr(err))
        if not plain:
            stack.enter_context(mock.patch.object(cli, "_plain_args",
                                                  lambda argv: None))
        try:
            status = cli.main(argv)
        except SystemExit as exc:
            status = exc.code
    return status, out.getvalue(), err.getvalue()


@settings(max_examples=150, deadline=None)
@given(argv=_argvs())
@example(argv=[])
@example(argv=["report", _T3_FILE])
@example(argv=["validate", "-", "--seed", "\u00b2", "--check-diagonal"])
@example(argv=["cohomology", "--degree", "\u0663", _T3_FILE])
@example(argv=["cohomology", "--degree", "1_0", _T3_FILE])
@example(argv=["cohomology", "--degree", "-1", _T3_FILE])
@example(argv=["cohomology", "--degree", "007", _T3_FILE])
@example(argv=["report", "--format=json", _T3_FILE])
@example(argv=["report", "--form", "json", _T3_FILE])
@example(argv=["report", "--format", "json", "--format", "text", "-"])
@example(argv=["report", "--", "-"])
@example(argv=["report", "-", _T3_FILE])
@example(argv=["report", "-h"])
@example(argv=["obstruction", "--degree", "2", "-"])
@example(argv=["cohomology", "--degree=--", _T3_FILE])
def test_the_plain_reader_reads_what_argparse_reads(argv):
    # the plain reader gives argparse's values for a command line, or
    # leaves the line to argparse; either way the run prints the same
    plain = cli._plain_args(argv)
    if plain is not None:
        assert plain == vars(cli._arg_parser().parse_args(argv))
    assert _main_run(argv) == _main_run(argv, plain=False)


def test_a_degree_argparse_reads_as_no_int_exits_two():
    # argparse reads "--degree=--" as the empty list (3.11) or refuses it
    # with its usage line; either way the run exits 2 with a message and
    # no traceback
    status, out, err = _main_run(["cohomology", "--degree=--", _T3_FILE])
    assert (status, out) == (2, "")
    assert err == "lagfib: degree must be between 0 and 3\n" or (
        err.startswith("usage: lagfib cohomology"))
    assert "Traceback" not in err


def test_benchmark_command_lines_reach_no_argparse(monkeypatch, capsys):
    # a work guard: the command lines of the bundled-cli and sheared-t3
    # workloads are all read without building the argument parser, and
    # main(None) reads sys.argv the same way; an '='-joined option is
    # still argparse's
    def refused():
        raise AssertionError("built the argument parser")

    monkeypatch.setattr(cli, "build_arg_parser", refused)
    cli._arg_parser.cache_clear()
    root = Path(__file__).resolve().parent.parent
    try:
        for workload, count in (("bundled-cli", 36), ("sheared-t3", 16)):
            requests, _ = workloads.build(workload, 1, root)
            assert len(requests) == count
            for request in requests:
                monkeypatch.setattr("sys.stdin", io.StringIO(request.text))
                assert main(list(request.argv)) == 0
                captured = capsys.readouterr()
                assert captured.err == ""
                assert request.check(captured.out) is None
        monkeypatch.setattr("sys.argv", ["lagfib", "report", _T3_FILE])
        assert main(None) == 0
        with pytest.raises(AssertionError, match="built the argument parser"):
            main(["report", "--format=json", _T3_FILE])
    finally:
        cli._arg_parser.cache_clear()


def test_well_formed_commands_load_no_argparse():
    # in a fresh interpreter, well-formed command lines leave argparse
    # unloaded; the first line that needs it loads it
    well_formed = [["report", _T3_FILE],
                   ["validate", "--check-diagonal", "--seed", "7", _T3_FILE,
                    "--format", "json"],
                   ["cohomology", _T3_FILE, "--degree", "2"]]
    src = str(Path(cli.__file__).resolve().parent.parent)
    outs = []
    for argvs in (well_formed, well_formed + [["report", "--form", "json",
                                               _T3_FILE]]):
        script = _FRESH_RUNS.format(watched=("argparse",), argvs=argvs)
        outs.append(subprocess.run(
            [sys.executable, "-S", "-c", script],
            env=dict(os.environ, PYTHONPATH=src), capture_output=True,
            text=True, check=True).stdout)
    assert outs == ["[0, 0, 0]\n[]\n[]\n", "[0, 0, 0, 0]\n['argparse']\n[]\n"]


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
    # the seeded suite counts many more checks than the basic pass
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
    # re-lifted words were evaluated afresh, certification made 96, and
    # when a passing run still evaluated its 20 random words, 30.
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
    assert len(products) == 0


def _certify(problem, seed):
    """The report of a direct certification of a parsed problem, which
    runs also where the command line skips it."""
    cx = problem.complex
    return obstruction.validate_diagonal(
        cx, problem.diagonal, problem.rho, problem.ell, problem.periods,
        twisted_cohomology(cx, problem.rho, 2), untwisted_cohomology_Q(cx, 3),
        seed)


def _seeded_draws(monkeypatch, text):
    """The draws {method: calls} from every ``random.Random`` made during
    a seed-7 certification of ``text``, and its report.  Certification
    imports no ``random`` of its own."""
    calls = {}
    base = random.Random

    class CountedRandom(base):
        def randint(self, a, b):
            calls["randint"] = calls.get("randint", 0) + 1
            return base.randrange(self, a, b + 1)

        def randrange(self, *args):
            calls["randrange"] = calls.get("randrange", 0) + 1
            return base.randrange(self, *args)

        def choice(self, seq):
            calls["choice"] = calls.get("choice", 0) + 1
            return base.choice(self, seq)

    assert not hasattr(obstruction, "random")
    monkeypatch.setattr(random, "Random", CountedRandom)
    return calls, _certify(parse_problem_text(text), 7)


@pytest.mark.parametrize("name, checks", [
    ("t3", 363), ("heisenberg", 255), ("mapping_torus", 309)])
def test_passing_seeded_certification_draws_nothing(monkeypatch, name,
                                                   checks):
    # a work guard in place of a timer: the random checks of (a), (b) and
    # (c) are decided by identity, so a seeded run does not draw from its
    # seed.  When it drew (c)'s 20 random 2-cochains, 9 entries each, it
    # made 180 draws
    calls, report = _seeded_draws(monkeypatch, bundled_text(name))
    assert (report.failures, report.checks_run, calls) == ((), checks, {})


@pytest.mark.parametrize("case, failures", [("(a) fails", 1),
                                            ("(b) fails", 1)])
def test_failing_seeded_certification_draws_nothing(monkeypatch, case,
                                                   failures):
    # a failing basis check of (a), or the duality check's line for (b),
    # is listed once, as without a seed: the random checks of both are
    # counted, never drawn
    text = (_sign_flipped_mapping_torus().replace(
        "e1_1 = [-1, 1/2, -1]", "e1_1 = [-1/3, 1/6, -1/3]")
        if case == "(a) fails" else bundled_text("heisenberg").replace(
            "form_rep = ell", "form_rep = rho"))
    calls, report = _seeded_draws(monkeypatch, text)
    assert (len(report.failures), calls) == (failures, {})


@pytest.mark.parametrize("size, checks", [((2, 2, 1), 795),
                                          ((2, 2, 2), 1479)])
def test_passing_seeded_certification_on_a_sheared_grid_draws_nothing(
        monkeypatch, size, checks):
    # a work guard: a sheared grid has more 2-cochain coordinates than
    # the 20 cochains of (c)'s random pairs, which it drew, 20 times one
    # entry per coordinate (720 and 1440 draws), when (c) was evaluated
    calls, report = _seeded_draws(monkeypatch, cubical_t3(*size, "sheared"))
    assert (report.failures, report.checks_run, calls) == ((), checks, {})


@pytest.mark.parametrize("size", [(2, 2, 1), (2, 2, 2)])
def test_seeded_certification_evaluates_no_more_words(monkeypatch, size):
    # a work guard: a seed adds checks to the count and no evaluation.
    # When (c) compared the assembled pairing with the term-by-term one
    # on 20 random 2-cochains, each of them evaluated every term's words
    # again
    text = cubical_t3(*size, "sheared")
    evaluate = groupring.Representation.eval_word
    calls = []

    def counted(self, word):
        calls.append(word)
        return evaluate(self, word)

    monkeypatch.setattr(groupring.Representation, "eval_word", counted)
    evaluations = []
    for seed in (None, 7):
        problem = parse_problem_text(text)
        del calls[:]
        assert _certify(problem, seed).ok
        evaluations.append(len(calls))
    assert evaluations[1] <= evaluations[0]


@pytest.mark.parametrize("name", ["t3", "heisenberg", "mapping_torus",
                                  "sheared 2x2x1"])
def test_certification_evaluates_only_the_pairings_words(monkeypatch, name):
    # a work guard: certification evaluates the words of the cup pairing
    # it assembles and no other, as check (b) is read from the duality
    # check.  When it evaluated each generator word and its inverse under
    # rho and ell itself, it made 4 more calls per generator word
    text = (cubical_t3(2, 2, 1, "sheared") if name == "sheared 2x2x1"
            else bundled_text(name))
    evaluate = groupring.Representation.eval_word
    calls = []

    def counted(self, word):
        calls.append(word)
        return evaluate(self, word)

    monkeypatch.setattr(groupring.Representation, "eval_word", counted)
    evaluations = []
    for certify in (False, True):
        problem = parse_problem_text(text)
        cx = problem.complex
        args = (cx, problem.diagonal, problem.rho, problem.ell,
                problem.periods)
        cohomology = (twisted_cohomology(cx, problem.rho, 2),
                      untwisted_cohomology_Q(cx, 3))
        del calls[:]
        if certify:
            assert obstruction.validate_diagonal(*args, *cohomology).ok
        else:
            obstruction.cup_matrix(*args)
        evaluations.append(len(calls))
    assert evaluations[1] == evaluations[0] > 0


@pytest.mark.parametrize("name", ["t3", "heisenberg", "mapping_torus"])
@settings(max_examples=20, deadline=None)
@given(seed=st.integers(0, 2 ** 32 - 1), dual=st.booleans())
def test_form_relations_are_checked_as_if_evaluated(name, seed, dual):
    # when duality holds, ell's relation failures are read from rho's;
    # they are those of evaluating ell's relations directly, whether
    # duality holds or not
    bundled = load_bundled(name)
    pres = bundled.presentation
    rho, ell = random_pair(random.Random(seed), pres, dual)
    problem = ProblemFile(bundled.title, bundled.notes, pres,
                          {"ell": ell, "rho": rho}, "rho", "ell",
                          bundled.complex, bundled.periods,
                          bundled.diagonal)
    checks = dict(cli.Run(problem).checks)
    assert (checks["duality[rho = ell^-T]"] == []) == dual
    assert checks["relations[ell]"] == check_relations(ell, pres)
    assert checks["relations[rho]"] == check_relations(rho, pres)


@pytest.mark.parametrize("name, inversions", [
    pytest.param(name, inversions, id=name) for name, inversions in (
        ("t3", 1), ("flat 2x1x1", 1), ("sheared 2x1x1", 3), ("heisenberg", 3),
        ("mapping_torus", 2))])
def test_report_inverts_each_distinct_generator_matrix_once(monkeypatch,
                                                            name, inversions):
    # a work guard in place of a timer: int_inverse runs one Smith form
    # per distinct parsed generator matrix, rho and ell sharing one table,
    # and none for the augmentation, whose identity is its own inverse.
    # Holonomy b = c = 1 holds one matrix twice; when each representation
    # inverted its own, a report made 3 on t3 and 5 on the others, and
    # when every generator was inverted, 9
    calls = []
    invert = groupring.int_inverse
    monkeypatch.setattr(groupring, "int_inverse",
                        lambda matrix: calls.append(matrix) or invert(matrix))
    assert run("report", parse_problem_text(INPUTS[name]))[0] == 0
    assert len(calls) == inversions


@pytest.mark.parametrize("command, degree, assembled", [
    ("validate", None, [("augmentation", 2), ("rho", 1), ("rho", 2)]),
    ("cohomology", 0, [("rho", 0)]),
    ("cohomology", 1, [("rho", 0), ("rho", 1)]),
    ("cohomology", 2, [("rho", 1), ("rho", 2)]),
    ("cohomology", 3, [("rho", 2)]),
    ("obstruction", None, [("augmentation", 2), ("rho", 1), ("rho", 2)]),
    ("realizable", None, [("augmentation", 2), ("rho", 1), ("rho", 2)]),
    ("report", None, [("augmentation", 2), ("rho", 1), ("rho", 2)]),
])
def test_commands_assemble_no_coboundary_under_ell(monkeypatch, command,
                                                   degree, assembled):
    # a work guard in place of a timer: the periods check reads the
    # boundary's terms, so a command assembles only the coboundaries its
    # cohomology reads, and none under ell, whose holonomy on the sheared
    # grid differs from rho's.  When the periods check ran on delta^1
    # under ell, every command assembled it too
    calls = []
    assemble = complexes.coboundary_rows
    monkeypatch.setattr(complexes, "coboundary_rows",
                        lambda complex_, rep, k: calls.append((rep.name, k))
                        or assemble(complex_, rep, k))
    problem = parse_problem_text(cubical_t3(2, 2, 1, "sheared"))
    assert run(command, problem, degree)[0] == 0
    assert sorted(calls) == assembled


@pytest.mark.parametrize("name", sorted(INPUTS))
def test_commands_leave_the_word_table_as_read(name):
    # a work guard: the double boundary multiplies words in a copy of the
    # file's word table, so the complex keeps the words the reader gave
    # it, and its canonical text and digest do not change
    problem = parse_problem_text(INPUTS[name])
    cx = problem.complex
    words, terms, digest = cx.words, cx.terms, problem.digest()
    for command in ("validate", "report"):
        assert run(command, problem)[0] == 0
    assert cx.words is words and cx.terms is terms
    assert problem.digest() == digest
    assert cx._product_table.words[:len(words)] == list(words)


@pytest.mark.parametrize("name", sorted(INPUTS))
def test_views_are_projections_of_the_report(name):
    problem = parse_problem_text(INPUTS[name])
    report = json.loads(run("report", problem, fmt="json")[1])
    for view, (keys, _) in cli.VIEWS.items():
        status, out = run(view, problem, fmt="json")
        doc = json.loads(out)
        assert status == 0
        assert list(doc) == ["format"] + list(keys)
        assert doc == dict({"format": "lagfib-%s/1" % view},
                           **{key: report[key] for key in keys})


def test_views_build_only_what_they_print(monkeypatch):
    def refuse(*args):
        raise AssertionError("a view does not print this")

    problem = load_bundled("mapping_torus")
    failing = parse_problem_text(bundled_text("heisenberg").replace(
        "boundary e2_1 = (1 - c*b)*e1_1", "boundary e2_1 = (1 + c*b)*e1_1"))
    # a failed validation prints the whole failed report, digest included
    for view in cli.VIEWS:
        for fmt in ("text", "json"):
            want = run("report", failing, fmt=fmt)
            assert want[0] == 1 and failing.digest() in want[1]
            assert run(view, failing, fmt=fmt) == want
    monkeypatch.setattr(ProblemFile, "digest", refuse)
    monkeypatch.setattr(cli, "find_fake_witness", refuse)
    for view in cli.VIEWS:
        assert run(view, problem)[0] == 0
    monkeypatch.setattr(cli, "realizable_subgroup", refuse)
    assert run("obstruction", problem)[0] == 0


# The library calls behind the stages of a run after its checks.
_STAGES = ("twisted_cohomology", "untwisted_cohomology_Q", "validate_diagonal",
           "dd_matrix", "realizable_subgroup", "find_fake_witness")
_CERTIFIED = ["twisted_cohomology 2", "untwisted_cohomology_Q",
              "validate_diagonal"]


def _counted_calls(monkeypatch, names):
    """The calls through ``cli``'s bindings of ``names``, as a list that
    fills as they are made; twisted_cohomology is named with its degree."""
    calls = []
    for name in names:
        def counted(*args, _fn=getattr(cli, name), _name=name):
            calls.append(_name if _name != "twisted_cohomology"
                         else "%s %d" % (_name, args[2]))
            return _fn(*args)
        monkeypatch.setattr(cli, name, counted)
    return calls


@pytest.mark.parametrize("command, degree, seed, stages", [
    ("validate", None, None, _CERTIFIED),
    ("validate", None, 7, _CERTIFIED),
    ("cohomology", 0, None, ["twisted_cohomology 0"]),
    ("cohomology", 1, None, ["twisted_cohomology 1"]),
    ("cohomology", 2, None, ["twisted_cohomology 2"]),
    ("cohomology", 3, None, ["twisted_cohomology 3"]),
    ("obstruction", None, None, _CERTIFIED + ["dd_matrix"]),
    ("realizable", None, None, _CERTIFIED + ["dd_matrix",
                                             "realizable_subgroup"]),
    ("report", None, None, _CERTIFIED + ["dd_matrix", "realizable_subgroup",
                                         "find_fake_witness"]),
])
def test_each_stage_runs_once_where_its_document_reads_it(
        monkeypatch, command, degree, seed, stages):
    # a work guard: a run computes each stage at most once, and only the
    # stages behind the keys its document prints; cohomology certifies
    # nothing, and a run whose checks fail computes no stage after them
    calls = _counted_calls(monkeypatch, _STAGES)
    problem = load_bundled("mapping_torus")
    for fmt in ("text", "json"):
        assert run(command, problem, degree, fmt, seed)[0] == 0
        assert sorted(calls) == sorted(stages)
        calls.clear()
    failing = parse_problem_text(bundled_text("heisenberg").replace(
        "boundary e2_1 = (1 - c*b)*e1_1", "boundary e2_1 = (1 + c*b)*e1_1"))
    for fmt in ("text", "json"):
        assert run(command, failing, degree, fmt, seed)[0] == 1
    assert calls == []


def test_an_unknown_command_runs_no_stage(monkeypatch):
    def refuse(*args):
        raise AssertionError("an unknown command computes nothing")

    calls = _counted_calls(monkeypatch, _STAGES + (
        "check_duality", "check_relations", "validate_complex",
        "check_periods_closed"))
    monkeypatch.setattr(ProblemFile, "digest", refuse)
    for command in ("bogus", "rep", ""):
        with pytest.raises(ValueError, match="unknown command"):
            run(command, load_bundled("t3"))
    assert calls == []


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


JSON_TEXT = st.text(st.characters(), max_size=12)
JSON_DOCS = st.recursive(
    st.none() | st.booleans() | st.integers() | JSON_TEXT,
    lambda inner: (st.lists(inner) | st.lists(inner).map(tuple)
                   | st.dictionaries(JSON_TEXT, inner)),
    max_leaves=30)


@settings(max_examples=100, deadline=None)
@given(doc=JSON_DOCS)
@example(doc={"": [], "\u00e9 \"q\" \\": {"\x00\x1f\n\t\x7f": [
    -12, None, True, False, {}, ("\u2028", "\U0001f600", "/")]}})
def test_json_is_what_json_dumps_writes(doc):
    # non-ASCII characters, quotes, backslashes and control characters
    # are escaped as json.dumps escapes them
    assert cli.render(doc, "json", 3, ()) == json.dumps(doc, indent=2) + "\n"


def test_json_writes_an_int_past_the_default_digit_limit():
    big = -(7 ** 5200)  # 4394 digits
    doc = {"order": [big, 1], "text": "\u00e9\"\\"}
    limit = (sys.get_int_max_str_digits()
             if hasattr(sys, "set_int_max_str_digits") else None)
    if limit is not None:
        sys.set_int_max_str_digits(0)
    try:
        assert len(str(big)) > 4300
        assert cli.render(doc, "json", 3, ()) == (json.dumps(doc, indent=2)
                                                  + "\n")
    finally:
        if limit is not None:
            sys.set_int_max_str_digits(limit)


@pytest.mark.parametrize("doc", [{"x": 1.5}, [Fraction(1, 2)], {1: 2},
                                 {"x": {1, 2}}])
def test_json_refuses_what_documents_never_hold(doc):
    with pytest.raises(TypeError):
        cli.render(doc, "json", 3, ())


def test_json_strings_come_from_the_c_encoder():
    # the C function json.encoder itself uses: importing json.encoder
    # would load the json package for this one function
    _json = pytest.importorskip("_json")
    assert cli.encode_basestring_ascii is _json.encode_basestring_ascii
    from json.encoder import encode_basestring_ascii
    for text in ("", "plain", "\"q\" \\", "\x00\x1f\n\t\x7f",
                 "\u00e9\u2028", "\U0001f600"):
        assert cli.encode_basestring_ascii(text) == \
            encode_basestring_ascii(text)


# Run in a fresh interpreter without ``site``, so that nothing but the
# interpreter's own start-up comes before the import: import the command
# line, run each command line of ``ARGVS`` and print their statuses, the
# watched modules (``WATCHED``) that the import and the runs loaded, and
# those loaded before it.
_FRESH_RUNS = """
import io
import sys
WATCHED = {watched!r}
before = set(sys.modules)
from lagfib import cli
statuses = []
for argv in {argvs!r}:
    stdout, stderr = sys.stdout, sys.stderr
    sys.stdout = sys.stderr = io.StringIO()
    try:
        statuses.append(cli.main(argv))
    finally:
        sys.stdout, sys.stderr = stdout, stderr
print(statuses)
print(sorted(m for m in set(sys.modules) - before
             if m.partition(".")[0] in WATCHED))
print(sorted(m for m in before if m.partition(".")[0] in WATCHED))
"""


def test_commands_load_no_rational_or_json_module(tmp_path):
    # every exact rational is an integer over a denominator the pipeline
    # knows, and JSON strings come from the C encoder, so no command
    # loads fractions (nor the decimal and numbers it imports) or json.
    # Commands run, not just the import, so a lazy import that moves the
    # cost into a request fails this too
    watched = ("fractions", "decimal", "numbers", "json")
    inputs = {name: bundled_text(name)
              for name in ("t3", "heisenberg", "mapping_torus")}
    inputs["sheared"] = cubical_t3(2, 2, 1, "sheared")
    commands = [["validate"], ["validate", "--check-diagonal", "--seed", "7"]]
    commands += [["cohomology", "--degree", str(k)] for k in range(4)]
    commands += [["obstruction"], ["realizable"], ["report"]]
    argvs, expected = [], []
    for name, text in inputs.items():
        path = _write(tmp_path, name + ".iaf", text)
        for command in commands:
            for fmt in ("text", "json"):
                argvs.append(command + [path, "--format", fmt])
                expected.append(0)
    # a certification failure on periods over 6, a parse error and
    # periods that are not closed
    failing = {
        "over_6": (_sign_flipped_mapping_torus().replace(
            "e1_1 = [-1, 1/2, -1]", "e1_1 = [-1/3, 1/6, -1/3]"), 1),
        "zero_denominator": (bundled_text("t3").replace(
            "e1_1 = [0, 1, 0]", "e1_1 = [0, 1/0, 0]"), 2),
        "not_closed": (bundled_text("heisenberg").replace(
            "e1_3 = [0, 0, 1]", "e1_3 = [1, 0, 1]"), 1),
    }
    for name, (text, status) in failing.items():
        path = _write(tmp_path, name + ".iaf", text)
        for command in (["validate"], ["validate", "--check-diagonal"],
                        ["report"]):
            for fmt in ("text", "json"):
                argvs.append(command + [path, "--format", fmt])
                expected.append(status)
    src = str(Path(cli.__file__).resolve().parent.parent)
    script = _FRESH_RUNS.format(watched=watched, argvs=argvs)
    out = subprocess.run([sys.executable, "-S", "-c", script],
                         env=dict(os.environ, PYTHONPATH=src),
                         capture_output=True, text=True, check=True).stdout
    assert out == "%r\n[]\n[]\n" % expected


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
