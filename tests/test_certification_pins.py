"""Check outputs that certification shortcuts must leave alone, pinned
byte for byte.

Shortcuts decide two things: ell's relation failures are read from
rho's when duality holds, and certification's re-lift check (b) is the
duality check, whose failures it lists.  Each input below takes the
path where a shortcut does not apply, or applies with a failure to
report:

- ``dual-relation-fails``: t3 with rho(a), rho(b) that do not commute
  and ell = rho^-T, so duality holds and relation 1 fails under both;
- ``ell-a-swapped``: t3 with ell(a) a permutation matrix, so duality
  fails and each representation is evaluated on its own;
- ``heisenberg-form-rho``: heisenberg bound with ``form_rep = rho``;
- ``extra-representation``: t3 with a third representation, evaluated
  as always;

each through ``validate`` and ``report`` in text and JSON.

The expected outputs live in ``certification_pins.json``.  To recapture
them after an intended output change:

    PYTHONPATH=src python tests/test_certification_pins.py
"""

import json
import re
from pathlib import Path

import pytest

from lagfib.cli import bundled_text, run
from lagfib.problemfile import parse_problem_text

PINS = Path(__file__).resolve().parent / "certification_pins.json"


def _set(text, section, line):
    """``text`` with the line of ``section`` that sets ``line``'s key
    replaced by ``line``."""
    key = line.split(" =")[0]
    head, body = text.split("[%s]\n" % section)
    body = re.sub(r"(?m)^%s = .*$" % re.escape(key), line, body, count=1)
    return head + "[%s]\n" % section + body


def _dual_relation_fails():
    text = bundled_text("t3")
    for section, line in (
            ("representation rho", "a = [[1,1,0],[0,1,0],[0,0,1]]"),
            ("representation rho", "b = [[1,0,0],[1,1,0],[0,0,1]]"),
            ("representation ell", "a = [[1,0,0],[-1,1,0],[0,0,1]]"),
            ("representation ell", "b = [[1,-1,0],[0,1,0],[0,0,1]]")):
        text = _set(text, section, line)
    return text


def _extra_representation():
    return bundled_text("t3").replace("[bindings]", (
        "[representation extra]\ndim = 3\n"
        "a = [[1,1,0],[0,1,0],[0,0,1]]\n"
        "b = [[1,0,0],[0,1,0],[0,0,1]]\n"
        "c = [[0,1,0],[1,0,0],[0,0,1]]\n\n[bindings]"))


INPUTS = {
    "dual-relation-fails": _dual_relation_fails,
    "ell-a-swapped": lambda: _set(bundled_text("t3"), "representation ell",
                                  "a = [[0,1,0],[1,0,0],[0,0,1]]"),
    "heisenberg-form-rho": lambda: bundled_text("heisenberg").replace(
        "form_rep = ell", "form_rep = rho"),
    "extra-representation": _extra_representation,
}
REQUESTS = ["%s %s %s" % (name, command, fmt)
            for name in INPUTS
            for command in ("validate", "report")
            for fmt in ("text", "json")]


def _output(key):
    name, command, fmt = key.split()
    status, out = run(command, parse_problem_text(INPUTS[name]()), fmt=fmt)
    return {"status": status, "stdout": out}


@pytest.mark.parametrize("key", REQUESTS)
def test_certification_output_matches_its_pin(key):
    assert _output(key) == json.loads(PINS.read_text(encoding="utf-8"))[key]


def test_pins_show_the_paths():
    pins = json.loads(PINS.read_text(encoding="utf-8"))
    assert sorted(pins) == sorted(REQUESTS)
    relation = ("relation 1 (a*b*a^-1*b^-1 = 1) does not evaluate to the "
                "identity")
    checks = {c["check"]: c for c in json.loads(
        pins["dual-relation-fails validate json"]["stdout"])["checks"]}
    assert checks["duality[rho = ell^-T]"]["ok"]
    assert checks["relations[ell]"]["failures"] == [relation]
    assert checks["relations[rho]"]["failures"] == [relation]
    for name in INPUTS:
        assert pins["%s validate text" % name]["status"] == 1


if __name__ == "__main__":
    PINS.write_text(json.dumps({key: _output(key) for key in REQUESTS},
                               indent=1, sort_keys=True) + "\n",
                    encoding="utf-8")
