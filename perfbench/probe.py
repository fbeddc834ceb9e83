"""Set-up probe, run in a fresh interpreter.

Reads a JSON list of ``.iaf`` texts on stdin, then times importing
``lagfib.cli`` and parsing each text once.  Prints the seconds taken and,
after it, the median time of fifteen calibration kernels (see ``calibrate``)
taken once the timed part is done, so they do not warm it up.
"""

import json
import sys
from time import perf_counter


def main():
    texts = json.load(sys.stdin)
    start = perf_counter()
    from lagfib import cli
    for text in texts:
        cli.parse_problem_text(text)
    seconds = perf_counter() - start
    import calibrate
    kernel_s = calibrate.sample(15)
    print(repr(seconds), repr(kernel_s))
    return 0


if __name__ == "__main__":
    sys.exit(main())
