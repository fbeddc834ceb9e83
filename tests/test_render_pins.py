"""Report branches that no bundled golden reaches, pinned byte for byte.

Four inputs, each through ``report``, ``obstruction`` and ``realizable``
in text and JSON:

- ``failed``: heisenberg with a corrupted boundary, so validation fails
  and every command prints the validation-failed report;
- ``untitled``: t3 without its title and its 3-cells, which prints
  ``(untitled)``, an empty H^3 basis, a zero matrix and no witness;
- ``flat-2x1x1`` and ``sheared-2x2x1``: grids from
  ``perfbench/t3grid.py``, whose generators and R cochains span several
  cells, which no bundled geometry prints.

The expected outputs live in ``render_pins.json``.  To recapture them
after an intended report change:

    PYTHONPATH=src python tests/test_render_pins.py
"""

import json
import sys
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "perfbench"))

from t3grid import cubical_t3  # noqa: E402

from lagfib.cli import bundled_text, run  # noqa: E402
from lagfib.problemfile import parse_problem_text  # noqa: E402

PINS = Path(__file__).resolve().parent / "render_pins.json"


def _failed():
    return bundled_text("heisenberg").replace(
        "boundary e2_1 = (1 - c*b)*e1_1", "boundary e2_1 = (1 + c*b)*e1_1")


def _untitled():
    return "".join(line for line in bundled_text("t3").splitlines(True)
                   if not line.startswith(("title =", "cells 3",
                                           "boundary e3", "e3 +=")))


INPUTS = {"failed": _failed, "untitled": _untitled,
          "flat-2x1x1": lambda: cubical_t3(2, 1, 1, "flat"),
          "sheared-2x2x1": lambda: cubical_t3(2, 2, 1, "sheared")}
REQUESTS = ["%s %s %s" % (name, command, fmt)
            for name in INPUTS
            for command in ("report", "obstruction", "realizable")
            for fmt in ("text", "json")]


def _output(key):
    name, command, fmt = key.split()
    status, out = run(command, parse_problem_text(INPUTS[name]()), fmt=fmt)
    return {"status": status, "stdout": out}


@pytest.mark.parametrize("key", REQUESTS)
def test_render_branch_matches_its_pin(key):
    assert _output(key) == json.loads(PINS.read_text(encoding="utf-8"))[key]


def test_pins_show_the_branches():
    pins = json.loads(PINS.read_text(encoding="utf-8"))
    assert sorted(pins) == sorted(REQUESTS)
    for command in ("report", "obstruction", "realizable"):
        assert pins["failed %s text" % command]["status"] == 1
        assert pins["failed %s text" % command]["stdout"].endswith(
            "\n\ncomputation skipped: validation failed\n")
        assert json.loads(pins["failed %s json" % command]["stdout"])[
            "status"] == "validation-failed"
    report = pins["untitled report text"]["stdout"]
    for line in ("obstruction report: (untitled)",
                 "basis: (trivial)", "  matrix: zero",
                 "fake witness: none (every class is realisable)"):
        assert line in report
    assert json.loads(pins["untitled report json"]["stdout"])[
        "witness"] is None
    for name in ("flat-2x1x1", "sheared-2x2x1"):
        doc = json.loads(pins["%s report json" % name]["stdout"])
        assert any(len(c["values"]) > 1
                   for c in doc["h2"]["generators"]
                   + doc["realizable"]["cochain_generators"])
    assert ("e2_2_0_0_0: (1, 0, 0); e2_2_1_0_0: (1, 0, 0)"
            in pins["flat-2x1x1 report text"]["stdout"])


if __name__ == "__main__":
    PINS.write_text(json.dumps({key: _output(key) for key in REQUESTS},
                               indent=1, sort_keys=True) + "\n",
                    encoding="utf-8")
