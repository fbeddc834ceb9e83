"""The command line is total: any input file ends in exit status 0, 1 or 2,
never in an exception.  The library's word reader is total too, and reads
words as the file reader does."""

import contextlib
import io
import sys
from pathlib import Path

from hypothesis import example, given, settings
from hypothesis import strategies as st

from lagfib.cli import bundled_names, bundled_text, main
from lagfib.groupring import Word
from lagfib.problemfile import (
    ProblemParseError,
    parse_problem_text,
    parse_word,
)

from helpers import CIRCLE

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "perfbench"))

from t3grid import cubical_t3  # noqa: E402

BASES = [bundled_text(name) for name in bundled_names()] + [
    cubical_t3(1, 1, 1, "sheared")]
COMMANDS = [["validate"], ["validate", "--check-diagonal", "--seed", "3"],
            ["cohomology", "--degree", "1"], ["cohomology", "--degree", "2"],
            ["report"]]
# characters the grammar gives a meaning, and some it does not
SPECIAL = "0123456789abce_+-*^/()[]|;,=# \t\n"


def _edit_character(draw, text, edit):
    """``text`` with a character inserted, deleted or swapped with the
    next, as ``edit`` says."""
    at = draw(st.integers(0, len(text)))
    if edit == "insert":
        char = draw(st.sampled_from(SPECIAL) | st.characters())
        return text[:at] + char + text[at:]
    if edit == "delete":
        return text[:at] + text[at + 1:]
    return text[:at] + text[at + 1:at + 2] + text[at:at + 1] + text[at + 2:]


@st.composite
def mutated_files(draw):
    """A base file after one to four edits: a character inserted, deleted
    or swapped with the next, or a line repeated, deleted or swapped."""
    text = draw(st.sampled_from(BASES))
    for _ in range(draw(st.integers(1, 4))):
        edit = draw(st.sampled_from(["insert", "delete", "swap",
                                     "repeat line", "delete line",
                                     "swap lines"]))
        if edit in ("insert", "delete", "swap"):
            text = _edit_character(draw, text, edit)
        else:
            lines = text.split("\n")
            at = draw(st.integers(0, len(lines) - 1))
            if edit == "repeat line":
                lines.insert(at, lines[draw(st.integers(0, len(lines) - 1))])
            elif edit == "delete line":
                del lines[at]
            else:
                other = draw(st.integers(0, len(lines) - 1))
                lines[at], lines[other] = lines[other], lines[at]
            text = "\n".join(lines)
    return text


@settings(max_examples=60, deadline=None)
@given(text=mutated_files(), command=st.sampled_from(COMMANDS),
       fmt=st.sampled_from(["text", "json"]))
# a boundary coefficient that parsed and could not be written back
@example(text=bundled_text("t3").replace(
    "(a - 1)*e0", "(a - 1)*%s*%s*e0" % ("1" * 4000, "1" * 4000)),
    command=["report"], fmt="text")
# a torsion order longer than Python turns into text by default
@example(text=CIRCLE % 30000, command=["cohomology", "--degree", "1"],
         fmt="json")
# a cell of negative degree with a boundary line
@example(text=bundled_text("t3").replace(
    "cells 0 = e0", "cells -1 = zz\ncells 0 = e0").replace(
    "boundary e1_1 =", "boundary zz = 0\nboundary e1_1 ="),
    command=["validate"], fmt="text")
def test_every_input_ends_in_an_exit_status(text, command, fmt):
    stdin = sys.stdin
    sys.stdin = io.StringIO(text)
    try:
        with contextlib.redirect_stdout(io.StringIO()), \
                contextlib.redirect_stderr(io.StringIO()):
            status = main(command[:1] + ["-"] + command[1:]
                          + ["--format", fmt])
    finally:
        sys.stdin = stdin
    assert status in (0, 1, 2)


# The heisenberg file, with one more relation line for a word to go on.
RELATIONS = bundled_text("heisenberg")
LAST_RELATION = "relation b*c = c*b\n"
# the word sides of its relations, and some powers
WORDS = ["a*b", "c*b*a", "a*c", "c*a", "b*c", "c*b", "1", "a^-2*c",
         "b^3*a*c^-1"]


@st.composite
def mutated_words(draw):
    """A relation's word after one to three character edits."""
    text = draw(st.sampled_from(WORDS))
    for _ in range(draw(st.integers(1, 3))):
        text = _edit_character(draw, text, draw(st.sampled_from(
            ["insert", "delete", "swap"])))
    return text


@settings(max_examples=200, deadline=None)
@given(text=mutated_words())
@example(text="a^1_0")
@example(text="a**b")
@example(text="a^100001")
def test_parse_word_reads_what_a_relation_line_reads(text):
    problem = parse_problem_text(RELATIONS)
    try:
        word = parse_word(problem.presentation, text)
    except ProblemParseError as exc:
        word = None
        assert exc.column is not None
    else:
        assert isinstance(word, Word)
    # a relation line without '=' is one word, as long as the text stays
    # on one line and holds no comment
    if "=" in text or "#" in text or len(text.splitlines()) > 1:
        return
    edited = RELATIONS.replace(LAST_RELATION,
                               LAST_RELATION + "relation %s\n" % text)
    try:
        relations = parse_problem_text(edited).presentation.relations
    except ProblemParseError:
        assert word is None
    else:
        assert relations[-1] == word
