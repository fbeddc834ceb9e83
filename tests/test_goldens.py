"""The ``bundled-cli`` benchmark requests against their goldens.

Builds the 36 requests the way ``perfbench/capture_goldens.py`` does,
runs each through ``cli.main`` in this process and compares its stdout
with ``perfbench/goldens.json``, which is only read here.  A report
change then fails the test suite, not only a benchmark run.
"""

import sys
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "perfbench"))

import workloads  # noqa: E402
from worker import call  # noqa: E402

from lagfib import cli  # noqa: E402

GOLDENS = workloads.load_goldens()
REQUESTS = [(name, command, fmt)
            for name in workloads.BUNDLED_NAMES
            for command in workloads.BUNDLED_COMMANDS
            for fmt in ("text", "json")]


def test_every_golden_has_a_request():
    keys = [workloads.bundled_key(*request) for request in REQUESTS]
    assert len(keys) == 36
    assert sorted(keys) == sorted(GOLDENS)


@pytest.mark.parametrize("name, command, fmt", REQUESTS,
                         ids=[workloads.bundled_key(*r) for r in REQUESTS])
def test_bundled_request_matches_its_golden(name, command, fmt):
    argv = command[:1] + ("-",) + command[1:] + ("--format", fmt)
    status, stdout, stderr, error, _ = call(cli.main, argv,
                                            cli.bundled_text(name))
    assert (status, stderr, error) == (0, "", None)
    assert stdout == GOLDENS[workloads.bundled_key(name, command, fmt)]
