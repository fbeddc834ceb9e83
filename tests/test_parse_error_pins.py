"""The file reader's behaviour on mutated and corner-case files, pinned
byte for byte.

``parse_error_pins.json`` holds, for each input, the exit status, the
stderr and the sha256 of the stdout of ``lagfib validate -``.  The inputs
are not stored.  The ``MUTANTS`` mutants are regenerated from ``SEED``
with the edits of ``test_totality.py``: one to four of a character
inserted, deleted or swapped with the next, and a line repeated, deleted
or swapped, on the three bundled files and the sheared 1x1x1 grid.
``CORNERS`` holds the corner cases of the grammar named in the
``problemfile`` docstring.

To recapture after an intended change of the reader or its messages:

    PYTHONPATH=src python tests/test_parse_error_pins.py
"""

import hashlib
import json
import random
import sys
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "perfbench"))

from t3grid import cubical_t3  # noqa: E402
from worker import call  # noqa: E402

from lagfib import cli  # noqa: E402
from lagfib.cli import bundled_names, bundled_text  # noqa: E402

PINS = Path(__file__).resolve().parent / "parse_error_pins.json"
SEED = 20111
MUTANTS = 800
BASES = [bundled_text(name) for name in bundled_names()] + [
    cubical_t3(1, 1, 1, "sheared")]
# characters the grammar gives a meaning, and some it does not: among
# them line breaks that only ``str.splitlines`` knows, blanks that only
# ``str.strip`` knows, and digits, decimal or not, outside ASCII
SPECIAL = "0123456789abce_+-*^/()[]|;,=# \t\n"
OTHER = ("\u00e9\u03b1\u00df\u01c5\u00b7\u00a0\u3000\r\x0b\x0c\x1c\u2028"
         "\u0663\u00b2\u00bd\U0001d7d9")
EDITS = ("insert", "delete", "swap", "repeat line", "delete line",
         "swap lines")


def mutant(rng):
    """A base file after one to four edits drawn from ``rng``."""
    text = rng.choice(BASES)
    for _ in range(rng.randint(1, 4)):
        edit = rng.choice(EDITS)
        if edit in ("insert", "delete", "swap"):
            at = rng.randint(0, len(text))
            if edit == "insert":
                text = text[:at] + rng.choice(SPECIAL + OTHER) + text[at:]
            elif edit == "delete":
                text = text[:at] + text[at + 1:]
            else:
                text = (text[:at] + text[at + 1:at + 2] + text[at:at + 1]
                        + text[at + 2:])
            continue
        lines = text.split("\n")
        at = rng.randrange(len(lines))
        if edit == "repeat line":
            lines.insert(at, lines[rng.randrange(len(lines))])
        elif edit == "delete line":
            del lines[at]
        else:
            other = rng.randrange(len(lines))
            lines[at], lines[other] = lines[other], lines[at]
        text = "\n".join(lines)
    return text


def mutants():
    rng = random.Random(SEED)
    return [mutant(rng) for _ in range(MUTANTS)]


def _t3(old, new):
    text = bundled_text("t3")
    assert old in text
    return text.replace(old, new, 1)


CORNERS = {
    # a factor 1 in a word does not take the digits after it
    "12-in-a-word": lambda: _t3("relation a*b = b*a", "relation a*b = 12*a"),
    "12-in-a-power": lambda: _t3("relation a*b = b*a",
                                 "relation a^12*b = b*a^12"),
    # a sign joins an integer only when it touches the digits
    "glued-sign": lambda: _t3("(a - 1)*e0", "(a - 1)*-1*e0"),
    "parted-sign": lambda: _t3("(a - 1)*e0", "(a - 1)*- 1*e0"),
    "glued-sign-in-a-sum": lambda: _t3("(a - 1)*e0", "(a -1)*e0"),
    "long-integer": lambda: _t3("(a - 1)*e0",
                                "(a - 1)*%s*e0" % ("1" * 4301)),
    "long-power": lambda: _t3("(a - 1)*e0", "(a^100001 - 1)*e0"),
    "long-word": lambda: _t3("relation a*b = b*a", "relation a^100001"),
    # \d reads every decimal digit, and int() takes it; a superscript
    # two is a word character but no digit
    "arabic-indic-dim": lambda: _t3("dim = 3", "dim = \u0663"),
    "arabic-indic-coefficient": lambda: _t3("(a - 1)*e0",
                                            "(a - \u0661)*e0"),
    "superscript-exponent": lambda: _t3("(a - 1)*e0", "(a^\u00b2 - 1)*e0"),
    "superscript-dim": lambda: _t3("dim = 3", "dim = \u00b2"),
    "superscript-coefficient": lambda: _t3("(a - 1)*e0", "(a - \u00b2)*e0"),
}


def outcome(text):
    """Exit status, stderr and stdout digest of ``validate -`` on text."""
    status, stdout, stderr, error, _ = call(cli.main, ["validate", "-"], text)
    assert error is None, error
    return {"status": status, "stderr": stderr,
            "stdout_sha256": hashlib.sha256(stdout.encode()).hexdigest()}


@pytest.fixture(scope="module")
def pinned():
    return json.loads(PINS.read_text(encoding="utf-8"))


def test_mutants_match_their_pins(pinned):
    assert len(pinned["mutants"]) == MUTANTS
    differ = [(index, text, pin)
              for index, (text, pin) in enumerate(zip(mutants(),
                                                      pinned["mutants"]))
              if outcome(text) != pin]
    assert not differ, differ[:3]


@pytest.mark.parametrize("name", sorted(CORNERS))
def test_corner_matches_its_pin(pinned, name):
    assert outcome(CORNERS[name]()) == pinned["corners"][name]


def test_every_corner_is_pinned(pinned):
    assert sorted(pinned["corners"]) == sorted(CORNERS)


if __name__ == "__main__":
    PINS.write_text(json.dumps({
        "mutants": [outcome(text) for text in mutants()],
        "corners": {name: outcome(make()) for name, make
                    in sorted(CORNERS.items())}}, indent=1) + "\n",
        encoding="utf-8")
