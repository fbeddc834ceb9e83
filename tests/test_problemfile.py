import sys
from pathlib import Path

import pytest

from lagfib.cli import bundled_names, bundled_text, load_bundled
from lagfib.problemfile import (
    ProblemParseError,
    parse_problem,
    parse_problem_text,
    serialize,
)

from helpers import ALL_EXAMPLES

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
    assert problem.complex.boundaries["e1_1"] == {}


def test_rational_periods_parse():
    problem = load_bundled("mapping_torus")
    from fractions import Fraction
    assert problem.periods.vector("e1_1") == (-1, Fraction(1, 2), -1)


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
     "duplicate generator names: ('a', 'b', 'b')", None, None, None),
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
    boundary = parse_problem_text(text).complex.boundaries["e1_1"]["e0"]
    assert boundary == load_bundled("t3").complex.boundaries["e1_1"][
        "e0"].scaled(-1)


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
