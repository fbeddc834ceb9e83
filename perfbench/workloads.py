"""The benchmark's workloads: which requests a pass sends, and how many
passes a run makes.

Every pass sends the same multiset of requests; the seed only shuffles
their order and picks the ``--seed`` of ``validate --check-diagonal``.
Sizes are fixed, so counts from the traced run repeat exactly.

- ``cubical-t3``: ``report`` on flat cubical T^3 grids of growing size.
  Cost grows with the number of 3-cells; trivial holonomy keeps
  representation work negligible.
- ``sheared-t3``: eight JSON commands on two sheared grids.  Covers
  twisted cohomology in every degree, non-identity holonomy and JSON
  rendering; every command reruns the whole pipeline today.
- ``bundled-cli``: the three bundled geometries through six commands in
  text and JSON.  Small inputs, so fixed per-request costs dominate.
"""

import json
import random
from collections import namedtuple
from pathlib import Path

import answers
from t3grid import cubical_t3

HERE = Path(__file__).resolve().parent
GOLDENS = HERE / "goldens.json"

Request = namedtuple("Request", "key argv text check")

CUBICAL_SIZES = ((1, 1, 1), (2, 1, 1), (2, 2, 1), (2, 2, 2), (3, 2, 2))
SHEARED_SIZES = ((2, 2, 1), (2, 2, 2))
SHEARED_COMMANDS = (("validate",), ("cohomology", "--degree", "0"),
                    ("cohomology", "--degree", "1"),
                    ("cohomology", "--degree", "2"),
                    ("cohomology", "--degree", "3"),
                    ("obstruction",), ("realizable",), ("report",))
BUNDLED_NAMES = ("t3", "heisenberg", "mapping_torus")
BUNDLED_COMMANDS = (("validate",), ("validate", "--check-diagonal"),
                    ("cohomology", "--degree", "2"), ("obstruction",),
                    ("realizable",), ("report",))

# Wall time of one pass at the seed commit on a 2-CPU x86-64 sandbox
# (Python 3.11.7).  A run makes round(seconds / PASS_SECONDS) passes, so
# every run of a workload sends the same number of requests and the
# tail-percentile rank is the same in every run.
PASS_SECONDS = {"cubical-t3": 10.7, "sheared-t3": 18.3, "bundled-cli": 1.66}

NAMES = tuple(PASS_SECONDS)

# The tail percentile needs at least this many requests beyond it.
TAIL_BEYOND = 10


def passes_for(workload, seconds, requests_per_pass):
    """Passes in a run: about ``seconds`` at the seed commit, but at least
    enough that the tail percentile is not below the median."""
    least = -(-2 * TAIL_BEYOND // requests_per_pass)
    return max(least, round(seconds / PASS_SECONDS[workload]))


def bundled_key(name, command, fmt):
    return " ".join((name,) + command + (fmt,))


def load_goldens():
    with open(GOLDENS, encoding="utf-8") as handle:
        return json.load(handle)


def _cubical(root):
    return [Request("report %dx%dx%d" % size, ("report", "-"),
                    cubical_t3(*size), answers.flat_report_text)
            for size in CUBICAL_SIZES]


def _sheared(root):
    out = []
    for size in SHEARED_SIZES:
        text = cubical_t3(*size, holonomy="sheared")
        for command in SHEARED_COMMANDS:
            degree = int(command[2]) if command[0] == "cohomology" else None
            out.append(Request(
                "%s %dx%dx%d" % ((" ".join(command),) + size),
                command[:1] + ("-",) + command[1:] + ("--format", "json"),
                text, answers.sheared_json(command[0], degree)))
    return out


def _bundled(root):
    goldens = load_goldens()
    out = []
    for name in BUNDLED_NAMES:
        path = root / "src" / "lagfib" / "data" / ("%s.iaf" % name)
        text = path.read_text(encoding="utf-8")
        for command in BUNDLED_COMMANDS:
            for fmt in ("text", "json"):
                key = bundled_key(name, command, fmt)
                out.append(Request(
                    key, command[:1] + ("-",) + command[1:] + ("--format", fmt),
                    text, answers.bundled(name, goldens[key], command[0], fmt)))
    return out


_BUILDERS = {"cubical-t3": _cubical, "sheared-t3": _sheared,
             "bundled-cli": _bundled}


def build(workload, seed, root):
    """(requests of one pass, rng for the pass order) for a workload.

    ``root`` is the repository root holding ``src/lagfib``.  The seed sets
    the order of each pass and the ``--seed`` of every
    ``--check-diagonal`` request.
    """
    rng = random.Random(seed)
    diag_seed = str(rng.randrange(2 ** 31))
    requests = []
    for req in _BUILDERS[workload](root):
        if "--check-diagonal" in req.argv:
            req = req._replace(argv=req.argv + ("--seed", diag_seed))
        requests.append(req)
    return requests, rng


def inputs(requests):
    """The distinct input texts of a pass, in first-use order."""
    return list(dict.fromkeys(req.text for req in requests))
