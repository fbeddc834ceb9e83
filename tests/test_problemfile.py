import contextlib
import hashlib
import os
import re
import subprocess
import sys
import tracemalloc
from fractions import Fraction
from math import lcm
from pathlib import Path
from unittest import mock

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from lagfib import groupring
from lagfib.cli import bundled_names, bundled_text, load_bundled, run
from lagfib import problemfile
from lagfib.groupring import MAX_FILE_LETTERS
from lagfib.problemfile import (
    MAX_INTEGER_DIGITS,
    MAX_NESTING,
    ProblemParseError,
    parse_problem,
    parse_problem_text,
    parse_word,
    serialize,
)

from helpers import ALL_EXAMPLES, boundary_terms, format_rational

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "perfbench"))

from t3grid import cubical_t3  # noqa: E402


def test_bundled_corpus_present():
    assert bundled_names() == ["heisenberg", "mapping_torus", "t3"]


@pytest.mark.parametrize("name", ["t3", "heisenberg", "mapping_torus"])
def test_bundled_parses_and_matches_builders(name):
    problem = load_bundled(name)
    data = ALL_EXAMPLES[name]()
    assert problem.presentation == data["presentation"]
    assert problem.complex == data["complex"]
    assert problem.rho == data["rho"]
    assert problem.ell == data["ell"]
    assert problem.periods == data["periods"]
    assert problem.diagonal == data["diagonal"]
    assert problem.coefficient_rep == "rho"
    assert problem.form_rep == "ell"


def test_t3_structure():
    problem = load_bundled("t3")
    assert [len(names) for names in problem.complex.cells] == [1, 3, 3, 1]
    assert problem.rho.dim == 3
    assert all(m.is_identity() for m in problem.rho.matrices)


@pytest.mark.parametrize("name", ["t3", "heisenberg", "mapping_torus"])
def test_roundtrip_identity(name):
    first = load_bundled(name)
    second = parse_problem_text(serialize(first))
    assert first == second
    # serialisation is a fixed point after one pass
    assert serialize(first) == serialize(second)


def test_digest_ignores_comments_and_whitespace():
    text = bundled_text("t3")
    problem = load_bundled("t3")
    stripped = "\n".join(line for line in text.splitlines()
                         if not line.lstrip().startswith("#"))
    assert parse_problem_text(stripped).digest() == problem.digest()


# Run in a fresh interpreter: the digest of heisenberg.iaf, and whether
# OpenSSL's hash module was loaded on the way.
_FRESH_DIGEST = """
import sys
import lagfib.cli
print(lagfib.cli.load_bundled("heisenberg").digest())
print("_hashlib" in sys.modules)
"""


def test_digest_loads_no_openssl():
    src = str(Path(__file__).resolve().parent.parent / "src")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [src, os.environ.get("PYTHONPATH")])))
    out = subprocess.run([sys.executable, "-c", _FRESH_DIGEST], env=env,
                         capture_output=True, text=True, check=True).stdout
    assert out.split() == [load_bundled("heisenberg").digest(), "False"]


@pytest.mark.parametrize("name", ["t3", "heisenberg", "mapping_torus",
                                  "flat", "sheared"])
def test_digest_is_the_sha256_of_the_canonical_text(name):
    # a bundled file, or the 2x2x1 grid of that holonomy
    problem = (load_bundled(name) if name in bundled_names()
               else parse_problem_text(cubical_t3(2, 2, 1, name)))
    expected = hashlib.sha256(serialize(problem).encode()).hexdigest()
    assert problem.digest() == expected


def test_parse_problem_from_path(tmp_path):
    target = tmp_path / "copy.iaf"
    target.write_text(bundled_text("heisenberg"), encoding="utf-8")
    assert parse_problem(str(target)) == load_bundled("heisenberg")


def test_relation_sugar_forms():
    text = bundled_text("t3").replace("relation a*b = b*a",
                                      "relation a*b*a^-1*b^-1")
    problem = parse_problem_text(text)
    assert problem == load_bundled("t3")


# ---------------------------------------------------------------------------
# error paths


def _expect_error(text, needle):
    with pytest.raises(ProblemParseError) as info:
        parse_problem_text(text)
    assert needle in str(info.value)
    return info.value


def test_missing_diagonal_section():
    text = bundled_text("t3")
    head, _, _ = text.partition("[diagonal]")
    error = _expect_error(head, "[diagonal]")
    assert "missing required section" in str(error)


def test_unknown_generator_in_boundary():
    text = bundled_text("t3").replace("boundary e1_1 = (a - 1)*e0",
                                      "boundary e1_1 = (z - 1)*e0")
    error = _expect_error(text, "unknown generator or cell 'z'")
    assert error.line is not None and error.column is not None
    assert error.token == "z"


def test_unknown_cell_reference():
    text = bundled_text("t3").replace("boundary e2_1 = (1 - b)*e1_1",
                                      "boundary e2_1 = (1 - b)*e9_9")
    _expect_error(text, "unknown generator or cell 'e9_9'")


def test_wrong_dimension_cell_in_boundary():
    text = bundled_text("t3").replace("boundary e2_1 = (1 - b)*e1_1",
                                      "boundary e2_1 = (1 - b)*e0")
    _expect_error(text, "where a 1-cell is needed")


def test_matrix_dimension_mismatch():
    text = bundled_text("t3").replace(
        "[representation ell]\ndim = 3\na = [[1,0,0],[0,1,0],[0,0,1]]",
        "[representation ell]\ndim = 3\na = [[1,0],[0,1]]")
    _expect_error(text, "must be 3x3")


def test_period_length_mismatch():
    text = bundled_text("t3").replace("e1_1 = [0, 1, 0]", "e1_1 = [0, 1]")
    _expect_error(text, "period vector")


def test_missing_boundary_line():
    text = bundled_text("t3").replace("boundary e2_2 = (1 - c)*e1_2 + (b - 1)*e1_3\n", "")
    _expect_error(text, "missing boundary line")


def test_malformed_exponent_location():
    text = bundled_text("heisenberg").replace(
        "boundary e2_1 = (1 - c*b)*e1_1 + (a - c)*e1_2 - e1_3",
        "boundary e2_1 = (1 - c*b)*e1_1 + (a^x - c)*e1_2 - e1_3")
    error = _expect_error(text, "expected an integer")
    assert error.line is not None


def test_duplicate_section_rejected():
    text = bundled_text("t3") + "\n[bindings]\ncoefficient_rep = rho\n"
    _expect_error(text, "duplicate section")


def test_unknown_binding_name():
    text = bundled_text("t3").replace("coefficient_rep = rho",
                                      "coefficient_rep = nosuch")
    _expect_error(text, "unknown representation")


def test_bad_diagonal_front_cell():
    text = bundled_text("t3").replace("e3 += (e1_3 | 1 ; e2_1 | c)",
                                      "e3 += (e2_1 | 1 ; e2_1 | c)")
    _expect_error(text, "front cell")


def test_zero_boundary_allowed():
    text = bundled_text("t3").replace("boundary e1_1 = (a - 1)*e0",
                                      "boundary e1_1 = 0")
    problem = parse_problem_text(text)
    assert boundary_terms(problem.complex)["e1_1"] == []


def test_rational_periods_parse():
    problem = load_bundled("mapping_torus")
    periods = problem.periods
    assert periods.denominator == 2
    assert periods.scaled_vector("e1_1") == (-2, 1, -2)


# Digit strings of an integer literal: small ones, long ones, and ones of
# exactly MAX_INTEGER_DIGITS digits.
_MAGNITUDES = (st.integers(0, 40) | st.integers(0, 10 ** 50)
               | st.integers(10 ** (MAX_INTEGER_DIGITS - 1),
                             10 ** MAX_INTEGER_DIGITS - 1))


@st.composite
def _period_literals(draw):
    """(text, p, q): a period entry as written, an integer or p/q with a
    sign on either part or none, and the integers it spells."""
    sign = draw(st.sampled_from(("", "-", "+")))
    p = draw(_MAGNITUDES)
    text = sign + str(p)
    p = -p if sign == "-" else p
    if not draw(st.booleans()):
        return text, p, 1
    sign = draw(st.sampled_from(("", "-", "+")))
    q = draw(_MAGNITUDES.filter(bool))
    return "%s/%s%d" % (text, sign, q), p, -q if sign == "-" else q


_T3_PERIODS = "e1_1 = [0, 1, 0]\ne1_2 = [0, 0, 1]\ne1_3 = [1, 0, 0]\n"


@settings(max_examples=60, deadline=None)
@given(entries=st.lists(_period_literals(), min_size=9, max_size=9))
@example(entries=[("0/-5", 0, -5), ("4/6", 4, 6), ("-3/-9", -3, -9),
                  ("+2", 2, 1), ("-0", 0, 1), ("7/-1", 7, -1),
                  ("10/4", 10, 4), ("1/" + "9" * MAX_INTEGER_DIGITS, 1,
                                    int("9" * MAX_INTEGER_DIGITS)),
                  ("-12/8", -12, 8)])
def test_periods_read_as_fractions_reduce_them(entries):
    # each p/q is its reduced pair, L the least common denominator, L.P
    # the integers and the written text what Fractions give
    values = [Fraction(p, q) for _, p, q in entries]
    for (text, _, _), value in zip(entries, values):
        line = problemfile._Line(1, text, text, [])
        line.scan()
        pair, stop = problemfile._rational(line, 0)
        assert pair == (value.numerator, value.denominator)
        assert line.texts[stop] == ""
    cells = ("e1_1", "e1_2", "e1_3")
    written = "".join("%s = [%s]\n" % (cell, ", ".join(
        text for text, _, _ in entries[3 * i:3 * i + 3]))
        for i, cell in enumerate(cells))
    problem = parse_problem_text(_t3_edited([(_T3_PERIODS, written)]))
    L = lcm(*(value.denominator for value in values))
    assert problem.periods.denominator == L
    for i, cell in enumerate(cells):
        assert problem.periods.scaled_vector(cell) == tuple(
            value.numerator * (L // value.denominator)
            for value in values[3 * i:3 * i + 3])
    assert "\n[periods]\n" + "".join("%s = [%s]\n" % (cell, ", ".join(
        map(format_rational, values[3 * i:3 * i + 3])))
        for i, cell in enumerate(cells)) in serialize(problem)


# ---------------------------------------------------------------------------
# diagnostics: line, column and near token


def _t3_edited(edits):
    text = bundled_text("t3")
    for old, new in edits:
        assert old in text
        text = text.replace(old, new, 1)
    return text


def _points_at_token(error, text):
    """Whether the error's column is where its near token starts in its
    source line, or just past the line's content for "end of line"."""
    source = text.splitlines()[error.line - 1].split("#", 1)[0]
    if error.token == "end of line":
        return error.column == len(source.rstrip()) + 1
    return source[error.column - 1:].startswith(error.token)


IDENTITY = "[[1,0,0],[0,1,0],[0,0,1]]"

# One input per place the reader raises, as (edits of t3.iaf, message,
# line, column, near token).  Messages, lines and near tokens are those
# the reader gave when it still read characters, and must stay so; a
# column is that of the near token in the source line, of what the error
# is about when it quotes none, and 1 in a section header.
PINNED_ERRORS = [
    ([("boundary e1_1 = (a - 1)*e0", "boundary e1_1 (a - 1)*e0")],
     "expected '='", 45, 15, "(a"),
    ([("e1_1 = [0, 1, 0]", "= [0, 1, 0]")], "expected a name", 54, 1, "="),
    ([("dim = 3", "dim = x")], "expected an integer", 25, 7, "x"),
    ([("e1_1 = [0, 1, 0]", "e1_1 = [0, 1/0, 0]")],
     "zero denominator", 54, 14, None),
    ([("[bindings]", "[bindings")],
     "unterminated section header", 36, 1, "[bindings"),
    ([("[metadata]", "stray = 1\n[metadata]")],
     "content before the first section header", 15, 1, "stray"),
    ([("[representation ell]", "[representation]")],
     "representation header needs exactly one name", 24, 1, "representation"),
    ([("[bindings]", "[bindingz]")],
     "unknown section [bindingz]", 36, 1, "bindingz"),
    ([("[periods]", "[bindings]\n[periods]")],
     "duplicate section [bindings]", 53, 1, "bindings"),
    ([("[bindings]\ncoefficient_rep = rho\nform_rep = ell\n", "")],
     "missing required section [bindings]", None, None, None),
    ([("[representation ell]\n", ""), ("[representation rho]\n", "")],
     "missing required section [representation <name>]", None, None, None),
    ([("title = flat", "name = flat")],
     "metadata lines are 'title = ...' or 'notes = ...'", 16, 1,
     "name = flat 3-torus, standard integral affine structure"),
    ([("[representation rho]", "[representation ell]")],
     "duplicate representation 'ell'", 30, 1, "ell"),
    ([("generators = a b c", "generators: a b c")],
     "malformed generators line", 19, 1, "generators: a b c"),
    ([("generators = a b c", "generators = a b c\ngenerators = a b c")],
     "generators listed twice", 20, 1, None),
    ([("generators = a b c", "generators =")],
     "empty generator list", 19, 1, None),
    ([("relation a*b = b*a", "rel a*b = b*a")],
     "group lines are 'generators = ...' or 'relation ...'", 20, 1,
     "rel a*b = b*a"),
    ([("generators = a b c\n", "")],
     "[group] must list generators before relations", None, None, None),
    ([("generators = a b c", "generators = a b b")],
     "duplicate generator name 'b'", 19, 18, "b"),
    ([("relation a*b = b*a", "relation a*b = b*a c")],
     "trailing input after relation", 20, 20, "c"),
    ([("relation a*c = c*a", "relation a*d = c*a")],
     "unknown generator 'd'", 21, 12, "d"),
    ([("a = " + IDENTITY, "a = [[1,0,0],[0,1],[0,0,1]]")],
     "ragged matrix rows", 26, 14, None),
    ([("c = " + IDENTITY, "d = " + IDENTITY)],
     "representation 'ell' assigns unknown generator 'd'", 28, 1, "d"),
    ([("b = " + IDENTITY, "a = " + IDENTITY)],
     "representation 'ell' assigns 'a' twice", 27, 1, "a"),
    ([("c = " + IDENTITY, "c = " + IDENTITY + " x")],
     "trailing input after matrix", 28, 31, "x"),
    ([("dim = 3\n", "")],
     "representation 'ell' is missing 'dim = n'", 24, None, None),
    ([("c = " + IDENTITY + "\n", "")],
     "representation 'ell' is missing a matrix for generator 'c'", 24, None,
     None),
    ([("a = " + IDENTITY, "a = [[1,0],[0,1]]")],
     "matrix for 'a' must be 3x3, got 2x2", 26, 1, None),
    ([("form_rep = ell", "form = ell")],
     "bindings lines are 'coefficient_rep = ...' or 'form_rep = ...'", 38, 1,
     "form = ell"),
    ([("coefficient_rep = rho", "coefficient_rep = nosuch")],
     "binding names unknown representation 'nosuch'", 37, 19, "nosuch"),
    ([("form_rep = ell\n", "")],
     "[bindings] must set both coefficient_rep and form_rep", None, None,
     None),
    ([("cells 1 = e1_1 e1_2 e1_3", "cells 1 = e1_1 e1-2 e1_3")],
     "bad cell name 'e1-2'", 42, 16, "e1-2"),
    ([("cells 3 = e3", "cells 2 = e3")], "cells 2 listed twice", 44, 1, None),
    ([("cells 3 = e3", "cell 3 = e3")],
     "complex lines are 'cells k = ...' or 'boundary cell = ...'", 44, 1,
     "cell 3 = e3"),
    ([("cells 0 = e0\ncells 1 = e1_1 e1_2 e1_3\ncells 2 = e2_1 e2_2 e2_3\n"
       "cells 3 = e3\n", "")], "[complex] lists no cells", None, None, None),
    ([("cells 1 = e1_1 e1_2 e1_3\n", "")],
     "missing 'cells 1 = ...' line", None, None, None),
    ([("cells 3 = e3", "cells 3 = e0")],
     "cell name 'e0' is used twice", 44, 11, "e0"),
    ([("boundary e3 =", "boundary e4 =")],
     "boundary for unknown cell 'e4'", 51, 10, "e4"),
    ([("boundary e1_2 = (b - 1)*e0", "boundary e1_1 = (b - 1)*e0")],
     "boundary of 'e1_1' given twice", 46, 10, "e1_1"),
    ([("boundary e1_1 = (a - 1)*e0",
       "boundary e0 = 0\nboundary e1_1 = (a - 1)*e0")],
     "0-cell 'e0' cannot have a boundary", 45, 10, "e0"),
    ([("boundary e3 = (c - 1)*e2_1 + (a - 1)*e2_2 + (b - 1)*e2_3\n", "")],
     "missing boundary line for 3-cell 'e3'", None, None, None),
    ([("(c - 1)*e2_1 + (a - 1)*e2_2", "(c - 1)*e2_1 (a - 1)*e2_2")],
     "expected '+' or '-' between summands", 51, 28, "(a"),
    ([("(a - 1)*e0", "(a - 1)")],
     "each boundary summand must end in a cell name", 45, 17, None),
    ([("(a - 1)*e0", "(a - 1)*e1_2")],
     "boundary references 1-cell 'e1_2' where a 0-cell is needed", 45, 25,
     "e1_2"),
    ([("(a - 1)*e0", "e0*e0")],
     "cell name 'e0' cannot appear inside a coefficient", 45, 17, "e0"),
    ([("(a - 1)*e0", "(z - 1)*e0")],
     "unknown generator or cell 'z'", 45, 18, "z"),
    ([("e1_3 = [1, 0, 0]", "e2_1 = [1, 0, 0]")],
     "period for 'e2_1', which is not a 1-cell", 56, 1, "e2_1"),
    ([("e1_3 = [1, 0, 0]", "e1_1 = [1, 0, 0]")],
     "period for 'e1_1' given twice", 56, 1, "e1_1"),
    ([("e1_3 = [1, 0, 0]", "e1_3 = [1, 0, 0] 1")],
     "trailing input after period vector", 56, 18, "1"),
    ([("e1_3 = [1, 0, 0]", "e1_3 = [1, 0]")],
     "period vector for 'e1_3' has 2 entries, the coefficient representation "
     "has dimension 3", 56, 1, None),
    ([("e1_3 = [1, 0, 0]\n", "")],
     "missing period vectors for: e1_3", None, None, None),
    ([("e3 += (e1_3 | 1 ; e2_1 | c)", "e2_1 += (e1_3 | 1 ; e2_1 | c)")],
     "diagonal terms for 'e2_1', which is not a 3-cell", 62, 1, "e2_1"),
    ([("e3 += (e1_3", "e3 = (e1_3")], "expected '+=' or '-='", 62, 4, "="),
    ([("(e1_3 | 1 ; e2_1 | c)", "(e2_3 | 1 ; e2_1 | c)")],
     "front cell 'e2_3' is not a 1-cell", 62, 8, "e2_3"),
    ([("(e1_3 | 1 ; e2_1 | c)", "(e1_3 | 1 ; e1_1 | c)")],
     "back cell 'e1_1' is not a 2-cell", 62, 19, "e1_1"),
    ([("e3 += (e1_3 | 1 ; e2_1 | c)", "e3 += (e1_3 | 1 ; e2_1 | c) x")],
     "trailing input after diagonal term", 62, 29, "x"),
    # a sign joins an integer only when it touches the digits
    ([("(a - 1)*e0", "(a - 1)*- 1*e0")], "expected an integer", 45, 25, "-"),
    ([("(a - 1)*e0", "(a - 1)*-x*e0")], "expected an integer", 45, 25, "-"),
    # a factor 1 in a word does not take the digits after it
    ([("relation a*b = b*a", "relation a*b = 12*a")],
     "trailing input after relation", 20, 17, "2*a"),
    # columns count the indent, a tab as one column, and the line's end
    ([("boundary e2_1 = (1 - b)*e1_1", "  boundary e2_1 = (1 - b)*e1_1 +")],
     "expected an integer", 48, 34, "+"),
    ([("e1_1 = [0, 1, 0]", "\te1_1 = [0, 1/0, 0]")],
     "zero denominator", 54, 15, None),
    ([("(e1_3 | 1 ; e2_1 | c)", "(e1_3 | 1 ; e2_1 | c")],
     "expected ')'", 62, 27, "end of line"),
    # a repeated cell name is reported where it occurs the second time
    ([("cells 1 = e1_1 e1_2 e1_3", "cells 1 = e1_1 e1_2 e1_3 e1_3")],
     "cell name 'e1_3' is used twice", 42, 26, "e1_3"),
    # a product longer than MAX_WORD_LETTERS is reported where its right
    # factor starts: in a word, a relation, a summand and a ring term
    ([("(e1_3 | 1 ; e2_1 | c)", "(e1_3 | a^99999*b*a ; e2_1 | c)")],
     "word longer than 100000 letters", 62, 25, None),
    ([("relation a*b = b*a", "relation a^60000*b = b*a^60000")],
     "word longer than 100000 letters", 20, 22, None),
    ([("(a - 1)*e0", "a^60000*a^-60000*e0")],
     "word longer than 100000 letters", 45, 25, None),
    ([("(a - 1)*e0", "(a^60000*a^-60000 - 1)*e0")],
     "word longer than 100000 letters", 45, 26, None),
    # a cells line without its '=' quotes the run where the '=' should be
    ([("cells 1 = e1_1 e1_2 e1_3", "cells 1 e1_1=e1_2 e1_3")],
     "expected '='", 42, 9, "e1_1=e1_2"),
    # a generator name outside the word characters, or a repeated one, is
    # reported on its line at the name
    ([("generators = a b c", "generators = a b c \u03b1")],
     "bad generator name '\u03b1'", 19, 20, "\u03b1"),
    ([("generators = a b c", "generators = a b c a")],
     "duplicate generator name 'a'", 19, 20, "a"),
    # a key that takes one value is refused on its second line
    ([("title = flat", "title = flat\ntitle = flat")],
     "title given twice", 17, 1, None),
    ([("dim = 3", "dim = 3\ndim = 3")], "dim given twice", 26, 1, None),
    ([("coefficient_rep = rho",
       "coefficient_rep = rho\ncoefficient_rep = ell")],
     "coefficient_rep given twice", 38, 1, None),
    ([("form_rep = ell", "form_rep = ell\nform_rep = rho")],
     "form_rep given twice", 39, 1, None),
    # a cell degree is at least 0
    ([("cells 0 = e0", "cells -1 = zz\ncells 0 = e0")],
     "negative cell degree -1", 41, 7, "-1"),
]


@pytest.mark.parametrize("edits, message, line, column, token", PINNED_ERRORS)
def test_pinned_diagnostic(edits, message, line, column, token):
    text = _t3_edited(edits)
    with pytest.raises(ProblemParseError) as info:
        parse_problem_text(text)
    error = info.value
    assert (error.message, error.line, error.column, error.token) == (
        message, line, column, token)
    if token and not text.splitlines()[line - 1].lstrip().startswith("["):
        assert _points_at_token(error, text)


def test_glued_sign_joins_the_integer():
    text = bundled_text("t3").replace("boundary e1_1 = (a - 1)*e0",
                                      "boundary e1_1 = (a - 1)*-1*e0")
    boundary = boundary_terms(parse_problem_text(text).complex)["e1_1"]
    original = boundary_terms(load_bundled("t3").complex)["e1_1"]
    assert boundary == [(t, w, -c) for t, w, c in original]


def test_every_truncation_parses_or_points_at_its_token():
    inputs = 0
    for name in bundled_names():
        lines = bundled_text(name).splitlines()
        for index, raw in enumerate(lines):
            if not raw.split("#", 1)[0].strip():
                continue
            for cut in range(len(raw)):
                text = "\n".join(lines[:index] + [raw[:cut]]
                                 + lines[index + 1:])
                inputs += 1
                try:
                    parse_problem_text(text)
                except ProblemParseError as error:
                    if error.column is not None and error.token:
                        assert _points_at_token(error, text), (name, index,
                                                               cut, error)
    assert inputs == 2737


@pytest.mark.parametrize("sizes, holonomy, digest", [
    ((3, 2, 2), "flat",
     "1137e2584734f9b9f48a845a1ea9a88a377e21f87616cf920b8140b20b92039d"),
    ((2, 2, 2), "sheared",
     "829ac7ec0dd3149f8eda22c02ad10a6f48e7b07ddf8227c171e2e6a927c453e3"),
])
def test_grid_digests_are_pinned(sizes, holonomy, digest):
    # the canonical text walks each boundary's own entries in cell order
    assert parse_problem_text(cubical_t3(*sizes, holonomy)).digest() == digest


# An integer one digit over the limit at each place the reader takes one,
# as (text of t3.iaf, its replacement, line, column); the error quotes the
# whole literal, sign included.
LONG = "1" * (MAX_INTEGER_DIGITS + 1)
LONG_LITERALS = [
    ("dim = 3", "dim = " + LONG, 25, 7),
    ("a = [[1,0,0]", "a = [[1," + LONG + ",0]", 26, 9),
    ("e1_1 = [0, 1, 0]", "e1_1 = [0, -" + LONG + ", 0]", 54, 12),
    ("e1_1 = [0, 1, 0]", "e1_1 = [0, 1/" + LONG + ", 0]", 54, 14),
    ("(a - 1)*e0", "(a - 1)*" + LONG + "*e0", 45, 25),
    ("(a - 1)*e0", "(a^" + LONG + " - 1)*e0", 45, 20),
    ("relation a*b = b*a", "relation a^" + LONG + "*b = b*a", 20, 12),
    ("(e1_3 | 1 ; e2_1 | c)", "(e1_3 | 1 ; e2_1 | c^-" + LONG + ")", 62, 28),
    ("cells 3 = e3", "cells " + LONG + " = e3", 44, 7),
]


@pytest.mark.parametrize("old, new, line, column", LONG_LITERALS, ids=[
    "dim", "matrix-entry", "period-numerator", "period-denominator",
    "boundary-coefficient", "boundary-exponent", "relation-exponent",
    "diagonal-exponent", "cells"])
def test_overlong_integer_is_a_parse_error(old, new, line, column):
    # int() refuses more than 4300 digits by default; the reader stops
    # first, at the literal
    text = _t3_edited([(old, new)])
    with pytest.raises(ProblemParseError) as info:
        parse_problem_text(text)
    error = info.value
    assert (error.message, error.line, error.column) == (
        "integer longer than 4300 digits", line, column)
    assert error.token.lstrip("-") == LONG
    assert _points_at_token(error, text)


NINES = "9" * MAX_INTEGER_DIGITS
FOUR_THOUSAND = "7" * 4000


@pytest.mark.parametrize("new, column", [
    # a product of two literals, in a summand and in a ring term
    ("(a - 1)*" + FOUR_THOUSAND + "*" + FOUR_THOUSAND + "*e0", 4026),
    ("(" + FOUR_THOUSAND + "*" + FOUR_THOUSAND + "*a - 1)*e0", 4019),
    # a sum: of two summands on one cell, and of two ring terms
    (NINES + "*e0 + " + NINES + "*e0", 4323),
    ("(" + NINES + " + " + NINES + ")*e0", 4321),
], ids=["summand-product", "term-product", "summand-sum", "term-sum"])
def test_overlong_coefficient_is_a_parse_error(new, column):
    # a coefficient built from literals has at most as many digits as one
    # literal, so every coefficient read can be written back; the error is
    # at the factor or the term that makes it too long
    text = _t3_edited([("(a - 1)*e0", new)])
    with pytest.raises(ProblemParseError) as info:
        parse_problem_text(text)
    error = info.value
    assert (error.message, error.line, error.column, error.token) == (
        "coefficient longer than 4300 digits", 45, column, None)


def _nested(depth):
    """t3.iaf with the coefficient a - 1 of e1_1's boundary inside
    ``depth`` pairs of parentheses."""
    return _t3_edited([("(a - 1)*e0",
                        "(" * depth + "a - 1" + ")" * depth + "*e0")])


def test_parentheses_nest_up_to_the_cap():
    assert parse_problem_text(_nested(MAX_NESTING)) == load_bundled("t3")


@pytest.mark.parametrize("depth", [MAX_NESTING + 1, 330, 5000])
def test_deep_parentheses_are_a_parse_error(depth):
    # each level is three calls of the reader, so 330 levels ran into
    # Python's recursion limit; the reader stops at the first '(' past
    # the cap, column 16 being the blank before the coefficient
    with pytest.raises(ProblemParseError) as info:
        parse_problem_text(_nested(depth))
    error = info.value
    assert (error.message, error.line, error.column, error.token) == (
        "parentheses nested deeper than %d" % MAX_NESTING, 45,
        17 + MAX_NESTING, "(")


def test_coefficients_at_the_digit_limit_parse_and_digest():
    # 4300 digits in a literal, a product and a period, and the canonical
    # text that backs the digest renders them under the default int limit
    period = "-%s/%s7" % (NINES, NINES[1:])
    text = _t3_edited([
        ("(a - 1)*e0", NINES + "*a*e0 - " + NINES + "*e0 + " + FOUR_THOUSAND
         + "*123*a^2*e0"),
        ("e1_1 = [0, 1, 0]", "e1_1 = [0, %s, 0]" % period)])
    problem = parse_problem_text(text)
    assert boundary_terms(problem.complex)["e1_1"] == [
        ("e0", parse_word(problem.presentation, "a"), int(NINES)),
        ("e0", parse_word(problem.presentation, "1"), -int(NINES)),
        ("e0", parse_word(problem.presentation, "a^2"),
         int(FOUR_THOUSAND) * 123)]
    canonical = serialize(problem)
    assert parse_problem_text(canonical) == problem
    assert "e1_1 = [0, %s, 0]" % period in canonical
    assert len(problem.digest()) == 64


def test_parse_hands_each_boundary_entry_to_the_complex(monkeypatch):
    # a work guard in place of a timer: the reader builds each boundary
    # as its triples (target index, word id, coefficient) over one word
    # table per file, id 0 the identity, and hands them over through the
    # unchecked constructor, so no entry is checked again; the 192
    # entries of the sheared 2x2x2 grid are kept as built, and no command
    # replaces them
    given = []
    complex_class = problemfile.EquivariantComplex
    build = complex_class._unchecked

    def kept(presentation, cells, words, terms):
        given.append((words, terms))
        return build(presentation, cells, words, terms)

    def checked(*args):
        raise AssertionError("the reader rebuilt the complex through the "
                             "checked constructor")

    monkeypatch.setattr(complex_class, "_unchecked", kept)
    monkeypatch.setattr(complex_class, "_entry", checked)
    problem = parse_problem_text(cubical_t3(2, 2, 2, "sheared"))
    (words, terms), = given
    cx = problem.complex
    assert cx.words is words and cx.terms is terms
    assert type(words) is tuple and words[0] == groupring.Word()
    assert len(set(words)) == len(words)
    assert [len(row) for row in terms] == [len(names) for names in cx.cells]
    triples = [(k, i) + triple for k, row in enumerate(terms)
               for i, cell in enumerate(row) for triple in cell]
    assert len({(k, i, target) for k, i, target, _, _ in triples}) == 192
    assert len({(k, i, target, w) for k, i, target, w, _ in triples}) \
        == len(triples)
    assert all(type(c) is int and c for *_, c in triples)
    for command in ("report", "validate"):
        assert run(command, problem)[0] == 0
    assert cx.words is words and cx.terms is terms


def test_the_reader_drops_an_entry_that_cancels():
    # the checked constructor dropped a boundary entry whose terms all
    # cancel; the reader drops it before handing the row over
    problem = parse_problem_text(_t3_edited([
        ("boundary e2_1 = (1 - b)*e1_1 + (a - 1)*e1_2",
         "boundary e2_1 = (1 - b)*e1_1 + (a - 1)*e1_2 + (b - b)*e1_3")]))
    assert problem == load_bundled("t3")
    assert "e1_3" not in [target for target, _, _
                          in boundary_terms(problem.complex)["e2_1"]]


def test_many_long_words_are_a_parse_error():
    # each power is under the per-word cap, but the file's powers spell
    # out at most MAX_FILE_LETTERS letters together: the power that
    # crosses it is refused at its exponent, before its word is built
    assert MAX_FILE_LETTERS == 10 * 100000
    last = "relation b*c = c*b\n"
    parse_problem_text(_t3_edited([(last, last + "relation a^100000\n" * 10)]))
    with pytest.raises(ProblemParseError) as info:
        parse_problem_text(_t3_edited([(last,
                                        last + "relation a^100000\n" * 80)]))
    error = info.value
    assert (error.message, error.line, error.column, error.token) == (
        "powers and products longer than 1000000 letters in all", 33, 12,
        None)
    # a group ring product spells out every word it builds: here 299997
    # letters of powers and 9 products of 100000 letters each
    with pytest.raises(ProblemParseError) as info:
        parse_problem_text(_t3_edited([(
            "(a - 1)*e0", "(a^99999 + b^99999 + c^99999)*(a + b + c)*e0")]))
    assert (info.value.message, info.value.line, info.value.column) == (
        "powers and products longer than 1000000 letters in all", 45, 47)


def test_long_powers_take_memory_per_run():
    # a memory guard: a power is stored as one run, so nine relations of
    # 100000 letters parse in well under 1 MB (0.04 MB; they peaked at
    # 59 MB when a word stored one entry per letter)
    last = "relation b*c = c*b\n"
    text = _t3_edited([(last, last + "relation a^100000\n" * 9)])
    tracemalloc.start()
    try:
        problem = parse_problem_text(text)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 10 ** 6
    assert problem.presentation.relations[3:] == (
        groupring.Word.generator(0, 100000),) * 9


def test_a_word_is_built_once(monkeypatch):
    # a work guard in place of a timer: the factors of a word gather its
    # runs, so a long word repeatedly multiplied is not copied once per
    # factor (300 copies of 50000 letters took 14 s), and a power is
    # one run; the word is built once, from runs the reader has already
    # reduced, through the unchecked constructor
    built = []
    word_class = groupring.Word
    build = word_class._unchecked

    def counted(runs):
        built.append(runs)
        return build(runs)

    def checked(self, letters=()):
        raise AssertionError("the reader built a word through the checked "
                             "constructor")

    presentation = load_bundled("t3").presentation
    monkeypatch.setattr(word_class, "_unchecked", counted)
    monkeypatch.setattr(word_class, "__init__", checked)
    word = parse_word(presentation, "a^50000" + "*b*b^-1" * 300 + "*c")
    assert built == [((0, 50000), (2, 1))] and len(word) == 50001


@pytest.mark.parametrize("new", [
    "(a^60000 - a^60000)*a^60000*e0 + (a - 1)*e0",
    "(a^60000 + 1 - a^60000 - 1 + a)*e0 - e0",
    "a^60000*e0 + (a - 1)*e0 - a^60000*e0",
])
def test_cancelled_words_leave_a_coefficient(new):
    # a word whose coefficient cancels is gone: it counts neither towards
    # the letter cap of a later product nor as a zero term
    problem = parse_problem_text(_t3_edited([("(a - 1)*e0", new)]))
    assert problem == load_bundled("t3")
    assert all(c for _, _, c in boundary_terms(problem.complex)["e1_1"])


# ---------------------------------------------------------------------------
# the line patterns and the token readers


def _grids(largest):
    """The flat and sheared grids from 1x1x1 up to ``largest``."""
    return [cubical_t3(a, b, c, holonomy)
            for a in range(1, largest[0] + 1)
            for b in range(1, largest[1] + 1)
            for c in range(1, largest[2] + 1)
            for holonomy in ("flat", "sheared")]


def _read(text, patterns=True):
    """What parsing ``text`` gives, as data that compares strictly: the
    problem, its digest and each cell's boundary triples as (target,
    word, coefficient) in their order, or the error's fields; and the letters left in the file's
    budget.  Without ``patterns`` the token readers read every line."""
    budgets = []
    split = problemfile._split_sections

    def split_kept(text):
        sections = split(text)
        budgets.extend(lines[0].letters for _, _, lines in sections if lines)
        return sections

    with contextlib.ExitStack() as stack:
        stack.enter_context(mock.patch.object(problemfile, "_split_sections",
                                              split_kept))
        if not patterns:
            stack.enter_context(mock.patch.object(
                problemfile, "_shape", lambda pattern, line: None))
        try:
            problem = parse_problem_text(text)
        except ProblemParseError as error:
            read = (error.message, error.line, error.column, error.token)
        else:
            read = (problem, problem.digest(),
                    boundary_terms(problem.complex))
    return read, [budget[0] for budget in budgets[:1]]


# The lines that patterns read, as (base file, line index) pairs.
_PATTERN_BASES = ([bundled_text(name) for name in bundled_names()]
                  + _grids((2, 2, 1)))
_PATTERNED = re.compile(r"boundary|relation|dim|cells|\w+ *[-+]?= *[\[(]")
_PATTERN_LINES = [(base, index)
                  for base, text in enumerate(_PATTERN_BASES)
                  for index, line in enumerate(text.splitlines())
                  if _PATTERNED.match(line)]


@st.composite
def _edited_file(draw):
    """A bundled file or small grid with one line a pattern reads edited
    at random, up to three times."""
    base, index = draw(st.sampled_from(_PATTERN_LINES))
    lines = _PATTERN_BASES[base].splitlines()
    line = lines[index]
    for _ in range(draw(st.integers(1, 3))):
        edit = draw(st.sampled_from(sorted(_EDITS)))
        line = _EDITS[edit](draw, line)
    lines[index] = line
    text = "\n".join(lines) + "\n"
    if draw(st.booleans()):
        # a cell named like a generator: a target of the line, renamed
        # in the whole file
        cells = re.findall(r"\b[a-z]\w*_\w+\b", line)
        if cells:
            cell = draw(st.sampled_from(cells))
            text = re.sub(r"\b%s\b" % cell, draw(st.sampled_from("abc")),
                          text)
    return text


def _insert(draw, line, texts):
    """``line`` with one of ``texts`` inserted somewhere."""
    at = draw(st.integers(0, len(line)))
    return line[:at] + draw(st.sampled_from(texts)) + line[at:]


def _replace(draw, line, pattern, texts):
    """``line`` with one match of ``pattern`` replaced by one of
    ``texts``, in which '@' stands for the match."""
    found = list(re.finditer(pattern, line))
    if not found:
        return line
    m = draw(st.sampled_from(found))
    new = draw(st.sampled_from(texts))
    return line[:m.start()] + new.replace("@", m.group()) + line[m.end():]


_EDITS = {
    "blank": lambda draw, line: _insert(draw, line,
                                        (" ", "\t", "  ", "\u00a0")),
    "unblank": lambda draw, line: _replace(draw, line, r"[ \t]+", ("",)),
    "glue sign": lambda draw, line: _replace(draw, line, r"[-+] +",
                                             ("-", "+")),
    "part sign": lambda draw, line: _replace(draw, line, r"[-+](?=\S)",
                                             ("@ ", "@\t")),
    "digits": lambda draw, line: _replace(
        draw, line, r"\d+", ("12", "007", "0", "9" * 30, "\u0663",
                             "\u0661\u0660", "-1", "+@", "@/1", "@/0")),
    # "\u00b2" and "\u2460" are word characters that isdigit() but are no
    # \d, "\u0663" is a \d that int() reads, the rest are letters
    "not ascii": lambda draw, line: _replace(
        draw, line, r"\b\w|\w\b", ("\u00b2", "\u00b2@", "\u2460@", "\u0663",
                                   "@\u0663", "\u00e9", "@\u00e9", "\u00df@",
                                   "\u01c5")),
    "one factor": lambda draw, line: _replace(
        draw, line, r"\b[a-z]\w*", ("1*@", "@*1", "1 * @", "2*@", "0*@")),
    "power": lambda draw, line: _replace(
        draw, line, r"\b[a-c]\b", ("@^2", "@^-1", "@^0", "@ ^ 2")),
    "product": lambda draw, line: _replace(
        draw, line, r"\b[a-c]\b", ("@*b", "a*@", "@*@*c", "c*b*a*@")),
    "nest": lambda draw, line: _replace(
        draw, line, r"\([^()]*\)|\b[a-c]\b", ("(@)", "((@))", "(@ - @)")),
    "repeat": lambda draw, line: _replace(
        draw, line, r"[-+]? *(?:\([^()]*\) *\* *)?\w+(?: *\* *\w+)?$",
        ("@ + @", "@ - @", "@ @", "@ -@", "@+@")),
    "character": lambda draw, line: _insert(
        draw, line, tuple("+-*()[],/=|;^_#\u00e9") + ("a", "e0", "1", "()")),
    "cut": lambda draw, line: line[:draw(st.integers(0, len(line)))],
}


# e2_1's summands: e1_2's word a cancels and comes back last, and so does
# e1_1's word b, after the token reader has added them up
_WORDS_COME_BACK = ("(a - 1)*e1_2 + (1 - b)*e1_1 - a*e1_2 + b*e1_1 + a*e1_2"
                    " - b*e1_1")


def test_repeated_summands_keep_the_order_of_the_token_reader():
    # the boundary's terms come in the order the token reader's dicts
    # gave them: each cell where it first comes, each word where it first
    # comes or comes back after a cancellation (as read before the word
    # table, by either reader)
    text = _t3_edited([("(1 - b)*e1_1 + (a - 1)*e1_2", _WORDS_COME_BACK)])
    for patterns in (True, False):
        with mock.patch.object(problemfile, "_shape", (
                problemfile._shape if patterns
                else lambda pattern, line: None)):
            problem = parse_problem_text(text)
        names = problem.presentation.generators
        assert [(target, word.text(names), c) for target, word, c
                in boundary_terms(problem.complex)["e2_1"]] == [
            ("e1_2", "1", -1), ("e1_2", "a", 1), ("e1_1", "1", 1),
            ("e1_1", "b", -1)]
        assert problem == load_bundled("t3")


@settings(max_examples=300, deadline=None)
@given(text=_edited_file())
@example(text=_t3_edited([("(1 - b)*e1_1", "(1 - b*a*b)*e1_1")]))
@example(text=_t3_edited([("(a - 1)*e0", "(a - 1)*b*e0")]))
@example(text=_t3_edited([("(a - 1)*e0", "(-)*e0")]))
@example(text=_t3_edited([("(a - 1)*e0", "()*e0")]))
@example(text=_t3_edited([("(a - 1)*e0", "()*a*e0")]))
@example(text=_t3_edited([("(a - 1)*e0", "( )*e0")]))
@example(text=_t3_edited([("= (a - 1)*e0", "=")]))
@example(text=re.sub(r"\ba\b", "dim", bundled_text("t3")))
@example(text=_t3_edited([("(a - 1)*e0", "(a - 1)*e0 + (1 - a)*e0")]))
@example(text=_t3_edited([("(a - 1)*e0", "(a - a)*e0 + (a - 1)*e0")]))
@example(text=_t3_edited([("(1 - b)*e1_1 + (a - 1)*e1_2",
                           "(b - b)*e1_2 + (1 - b)*e1_1 + (a - 1)*e1_2")]))
@example(text=_t3_edited([("(a - 1)*e0", "(٣*a - 1 + 0*b - 2)*e0")]))
@example(text=_t3_edited([("(a - 1)*e0", "(a - 1)*e0 + e0")]))
@example(text=_t3_edited([("(1 - b)*e1_1 + (a - 1)*e1_2", _WORDS_COME_BACK)]))
@example(text=_t3_edited([("(b - 1)*e2_3", "(b - 1)*e2_3 + c*e2_1 - c*e2_1")]))
@example(text=_t3_edited([("e1_1 = [0, 1, 0]", "e1_1 = [0, 1/-2, -0/7]")]))
@example(text=_t3_edited([("e3 += (e1_3 | 1 ; e2_1 | c)",
                           "e3 -= (e1_3 | 1*c*1 ; e2_1 | c*c*b)")]))
def test_a_pattern_reads_what_the_token_reader_reads(text):
    # each pattern reads a line as the token readers do, letters spent
    # included, or leaves it to them; they alone raise errors
    assert _read(text) == _read(text, patterns=False)


@pytest.mark.parametrize("relations, column", [
    # 999995 letters of powers, and a product of a*b*c that spends 5
    (9, None),
    # one letter more, and the product's last factor crosses the budget
    (10, 22),
])
def test_patterns_spend_the_letters_of_the_token_reader(relations, column):
    last = "relation b*c = c*b\n"
    powers = "relation a^100000\n" * 9 + "relation a^%d\n" % (
        99995 + relations - 9)
    text = _t3_edited([(last, last + powers),
                       ("(a - 1)*e0", "(a*b*c - 1)*e0")])
    read, budget = _read(text)
    assert (read, budget) == _read(text, patterns=False)
    if column is None:
        assert budget == [0]
    else:
        assert read == ("powers and products longer than 1000000 letters "
                        "in all", 55, column, None)


def test_a_name_led_by_a_digit_that_is_no_decimal_is_refused():
    # "\u00b2" is a word character, and isdigit(), but it is no \d: both
    # readers refuse it at the head of a cell name where the line names it
    text = _t3_edited([("cells 3 = e3", "cells 3 = \u00b2e3")])
    read = _read(text)
    assert read == _read(text, patterns=False)
    assert str(ProblemParseError(*read[0])) == (
        "line 44, column 11: bad cell name '\u00b2e3' (near '\u00b2e3')")


def test_the_token_reader_reads_no_common_line(monkeypatch):
    # a work guard in place of a timer: on the bundled files and the grids
    # up to 4x3x3 every line is read by its pattern, and the token reader
    # scans none
    scanned = []
    scan = problemfile._Line.scan

    def traced(line, *args):
        scanned.append(line.text)
        return scan(line, *args)

    monkeypatch.setattr(problemfile._Line, "scan", traced)
    texts = ([bundled_text(name) for name in bundled_names()]
             + _grids((4, 3, 3)))
    for text in texts:
        parse_problem_text(text)
    assert len(texts) == 75
    assert scanned == []


def test_periods_and_diagonal_are_built_unchecked(monkeypatch):
    # a work guard: the reader hands its periods and diagonal terms to
    # the unchecked constructors, as it does the complex
    def checked(*args):
        raise AssertionError("the reader built a datum through its "
                             "checked constructor")

    for cls in (problemfile.PeriodAssignment,
                problemfile.DiagonalApproximation,
                problemfile.EquivariantComplex):
        monkeypatch.setattr(cls, "__init__", checked)
    for name in bundled_names():
        parse_problem_text(bundled_text(name))
    parse_problem_text(cubical_t3(2, 2, 2, "sheared"))


@pytest.mark.parametrize("text", [bundled_text(name) for name in
                                  ("t3", "heisenberg", "mapping_torus")]
                         + _grids((3, 2, 2)))
def test_unchecked_periods_and_diagonal_equal_the_checked(text):
    # what the reader hands over is what the checked constructors build
    # from it: L.P over L is in lowest terms, and the terms are tuples
    problem = parse_problem_text(text)
    periods = problem.periods
    cells = problem.complex.cells_in(1)
    assert periods == problemfile.PeriodAssignment(
        periods.dim, {cell: periods.scaled_vector(cell) for cell in cells},
        periods.denominator)
    assert problem.diagonal == problemfile.DiagonalApproximation(
        problem.diagonal.terms)
