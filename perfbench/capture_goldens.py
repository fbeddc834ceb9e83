"""Capture the golden outputs of the ``bundled-cli`` requests.

    PYTHONPATH=src python3 perfbench/capture_goldens.py

Writes ``perfbench/goldens.json``: request key -> exact stdout.  The file
in the repository was captured at the commit that added the benchmark;
recapture only when a change to the reports is intended.
"""

import json
import sys

import workloads
from worker import ROOT, call


def main():
    from lagfib import cli
    goldens = {}
    for name in workloads.BUNDLED_NAMES:
        text = (ROOT / "src" / "lagfib" / "data" / ("%s.iaf" % name)).read_text(
            encoding="utf-8")
        for command in workloads.BUNDLED_COMMANDS:
            for fmt in ("text", "json"):
                argv = command[:1] + ("-",) + command[1:] + ("--format", fmt)
                status, stdout, stderr, error, _ = call(cli.main, argv, text)
                if status != 0 or stderr or error:
                    print("%s failed: %s%s" % (argv, stderr, error or ""),
                          file=sys.stderr)
                    return 1
                goldens[workloads.bundled_key(name, command, fmt)] = stdout
    with open(workloads.GOLDENS, "w", encoding="utf-8") as handle:
        json.dump(goldens, handle, indent=1, sort_keys=True)
        handle.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
