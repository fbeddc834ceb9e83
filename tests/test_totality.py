"""The command line is total: any input file ends in exit status 0, 1 or 2,
never in an exception."""

import contextlib
import io
import sys
from pathlib import Path

from hypothesis import example, given, settings
from hypothesis import strategies as st

from lagfib.cli import bundled_names, bundled_text, main

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
            at = draw(st.integers(0, len(text)))
            if edit == "insert":
                char = draw(st.sampled_from(SPECIAL) | st.characters())
                text = text[:at] + char + text[at:]
            elif edit == "delete":
                text = text[:at] + text[at + 1:]
            else:
                text = text[:at] + text[at + 1:at + 2] + text[at:at + 1] \
                    + text[at + 2:]
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
