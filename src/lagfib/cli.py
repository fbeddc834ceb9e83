"""Command line interface and report rendering.

Commands: validate, cohomology, obstruction, realizable, report.  Exit
status is 0 on mathematical success, 1 when a validation check fails,
2 on a parse error.  A run builds one document from the stages of one
``Run`` -- the ``lagfib-report/1`` report, a view that builds only some
of its keys, or the validation or cohomology document -- and prints it
as JSON or as text read from that document alone.  Reports are
deterministic: identical input files produce byte-identical output.

A command line is read in two ways, from one table of the commands and
their options, ``COMMANDS``.  A well-formed line -- a command, one file
and options spelled in full, each once and with its value as the next
argument -- is read by ``_plain_args``.  Every other line goes to the
argparse parser of ``build_arg_parser``, which alone prints help, usage
and errors, and which a well-formed line never imports.
"""

import functools
import os
import re
import sys
from importlib import resources

try:
    # the C encoder alone: importing json.encoder loads the json package
    from _json import encode_basestring_ascii
except ImportError:
    from json.encoder import encode_basestring_ascii

from .complexes import (
    twisted_cohomology,
    untwisted_cohomology_Q,
    validate_complex,
)
from .groupring import check_duality, check_relations
from .intlinalg import rational_text
from .obstruction import (
    ObstructionError,
    check_periods_closed,
    dd_matrix,
    validate_diagonal,
)
from .problemfile import ProblemParseError, parse_problem_text
from .realizable import find_fake_witness, realizable_subgroup

PROG = "lagfib"


def bundled_names():
    data = resources.files("lagfib").joinpath("data")
    return sorted(p.name[:-4] for p in data.iterdir() if p.name.endswith(".iaf"))


def bundled_text(name):
    path = resources.files("lagfib").joinpath("data/%s.iaf" % name)
    return path.read_text(encoding="utf-8")


def load_bundled(name):
    return parse_problem_text(bundled_text(name))


# ---------------------------------------------------------------------------
# pipeline


class Run:
    """One run on a parsed problem: each stage is computed on first read
    and kept.  ``seed`` is that of ``validate_diagonal``: any but None
    adds the seeded checks to the count, and its value changes nothing."""

    def __init__(self, problem, seed=None):
        self.problem = problem
        self.seed = seed

    @functools.cached_property
    def checks(self):
        """The checks before diagonal certification in report order, as
        a list of (name, failures).  They assemble no coboundary: the
        double boundary and the periods are checked on the boundary's
        terms.

        Duality is checked first.  When it holds, ell(g) = rho(g)^-T on
        the generators gives ell(w) = rho(w)^-T on every word, since
        X -> X^-T is an automorphism of GL(n, Z); so ell(r) = 1 exactly
        when rho(r) = 1, both lie in GL(n, Z), and ell's relation
        failures are rho's, evaluated once.  Representations over
        another presentation fail under their own names, so they are
        checked one by one.
        """
        problem = self.problem
        duality = check_duality(problem.ell, problem.rho)
        shared = {}
        if not duality and problem.rho.presentation == problem.presentation:
            shared[problem.form_rep] = shared[problem.coefficient_rep] = \
                check_relations(problem.rho, problem.presentation)
        checks = [("relations[%s]" % name, shared[name] if name in shared
                   else check_relations(rep, problem.presentation))
                  for name, rep in problem.representations.items()]
        checks.append(("duality[%s = %s^-T]" % (problem.coefficient_rep,
                                                problem.form_rep), duality))
        checks.append(("boundary squares to zero",
                       validate_complex(problem.complex,
                                        problem.representations.values())))
        checks.append(("periods closed",
                       check_periods_closed(problem.complex, problem.ell,
                                            problem.periods)))
        return checks

    @property
    def checked(self):
        """Whether every check before certification passed."""
        return not any(failures for _, failures in self.checks)

    @functools.cached_property
    def H2(self):
        return twisted_cohomology(self.problem.complex, self.problem.rho, 2)

    @functools.cached_property
    def h3(self):
        return untwisted_cohomology_Q(self.problem.complex, 3)

    @functools.cached_property
    def diagonal(self):
        """The diagonal's certification report, with its cup pairing."""
        problem = self.problem
        return validate_diagonal(problem.complex, problem.diagonal,
                                 problem.rho, problem.ell, problem.periods,
                                 self.H2, self.h3, self.seed)

    @functools.cached_property
    def validation(self):
        """A document's check entries, certification's or its skip last."""
        if self.checked:
            last = ("diagonal certification (%d checks)"
                    % self.diagonal.checks_run, self.diagonal.failures)
        else:
            last = ("diagonal certification",
                    ("skipped: earlier checks failed",))
        return [{"check": name, "ok": not failures, "failures": list(failures)}
                for name, failures in self.checks + [last]]

    @property
    def ok(self):
        """Whether every check passed, certification's too."""
        return self.checked and self.diagonal.ok

    @functools.cached_property
    def D(self):
        return dd_matrix(self.H2, self.diagonal.cup, self.h3)


def add_report_keys(doc, run, keys):
    """Add to ``doc`` the report ``keys``, each built from ``run``'s stages."""
    if "h2" in keys:
        doc["h2"] = cohomology_dict(run.H2)
    if "h3" in keys:
        doc["h3"] = {"dimension": run.h3.dimension,
                     "basis": list(run.h3.basis_labels)}
    if "obstruction" in keys:
        D = run.D
        def texts(values):
            return [rational_text(x, D.denominator) for x in values]
        doc["obstruction"] = {
            "matrix": None if D.scaled_matrix is None
            else [texts(row) for row in D.scaled_matrix],
            "generator_values": [texts(values) for values in D.scaled_values],
        }
    if "realizable" in keys:
        R = realizable_subgroup(run.D, run.H2)
        doc["realizable"] = {
            "group": group_dict(R.group),
            "coordinate_generators": [list(c)
                                      for c in R.coordinate_generators],
            "cochain_generators": [cochain_dict(c)
                                   for c in R.cochain_generators],
        }
    if "witness" in keys:
        witness = find_fake_witness(run.D)
        doc["witness"] = None if witness is None else {
            "generator_index": witness.generator_index,
            "label": "g%d" % (witness.generator_index + 1),
            "value": [rational_text(x, witness.denominator)
                      for x in witness.scaled_value],
        }


# ---------------------------------------------------------------------------
# document helpers


def slot_text(slot):
    if slot == 0:
        return "Z"
    if slot == 1:
        return "0"
    return "Z/%d" % slot


def group_dict(group):
    return {"free_rank": group.free_rank, "torsion": list(group.torsion),
            "text": str(group)}


def cochain_dict(cochain):
    """A cochain's label and its nonzero cells.  The label of a dual
    cochain, one entry equal to 1, is dual(cell, slot), else the table."""
    cells = cochain.nonzero_cells()
    if list(cochain.entries.values()) == [1]:
        (cell, row), = cells
        label = "dual(%s, %d)" % (cell, row.index(1) + 1)
    else:
        label = "; ".join("%s: (%s)" % (cell, ", ".join(map(str, row)))
                          for cell, row in cells) or "0"
    return {"label": label, "values": {cell: list(row) for cell, row in cells}}


def cohomology_dict(H):
    """The H^k section shared by ``cohomology`` and the reports."""
    return {
        "group": group_dict(H.group),
        "per_cell": [[slot_text(s) for s in block]
                     for block in H.per_cell_shape]
        if H.per_cell_shape is not None else None,
        "generators": [dict(cochain_dict(gen), order=order)
                       for gen, order in zip(H.generators, H.orders)],
    }


# ---------------------------------------------------------------------------
# text sections: each reads a document and the coefficient rank n that
# the H^k header names, and returns its lines


def _check_lines(checks):
    lines = ["validation"]
    for check in checks:
        if check["ok"]:
            lines.append("  %s: ok" % check["check"])
        else:
            lines.append("  %s: FAIL" % check["check"])
            lines.extend("    - %s" % failure for failure in check["failures"])
    return lines


def _cohomology_lines(H, degree, n, generators_header):
    """H^k as text; under ``generators_header`` the generators are listed
    one level deeper, below a "generators:" line (the report layout)."""
    lines = ["H^%d with twisted Z^%d coefficients" % (degree, n),
             "  group: %s" % H["group"]["text"]]
    if H["per_cell"]:
        lines.append("  per-cell: %s" % " ".join(
            "(%s)" % " + ".join(block) for block in H["per_cell"]))
    indent = "  "
    if generators_header:
        lines.append("  generators:")
        indent = "    "
    for i, gen in enumerate(H["generators"], start=1):
        tag = "free" if gen["order"] == 0 else "order %d" % gen["order"]
        lines.append("%sg%d = %s  [%s]" % (indent, i, gen["label"], tag))
    return lines


def _validate_text(doc, n):
    return _check_lines(doc["checks"]) + [
        "result: %s" % ("all checks passed" if doc["ok"]
                        else "validation FAILED")]


def _cohomology_text(doc, n):
    return _cohomology_lines(doc, doc["degree"], n, False)


def _head_text(doc, n):
    return ["obstruction report: %s" % (doc["title"] or "(untitled)"),
            "input sha256: %s" % doc["digest"], ""] + _check_lines(
                doc["validation"])


def _skipped_text(doc, n):
    return ["computation skipped: validation failed"]


def _h2_text(doc, n):
    return _cohomology_lines(doc["h2"], 2, n, True)


def _obstruction_text(doc, n):
    D = doc["obstruction"]
    lines = ["obstruction map into H^3(base; Q), basis: %s"
             % (", ".join(doc["h3"]["basis"]) or "(trivial)")]
    for i, values in enumerate(D["generator_values"], start=1):
        lines.append("  D(g%d) = (%s)" % (i, ", ".join(values)))
    if D["matrix"] is None:
        lines.append("  matrix: zero")
    for row in D["matrix"] or ():
        lines.append("  matrix row: [%s]" % " ".join(row))
    return lines


def _realizable_text(doc, n):
    R = doc["realizable"]
    lines = ["realisable classes R = ker D",
             "  group: %s" % R["group"]["text"]]
    for row in doc["obstruction"]["matrix"] or ():
        terms = [(c, j) for j, c in enumerate(row, start=1) if c != "0"]
        if terms:
            relation = " + ".join(("g%d" % j) if c == "1" else "%s*g%d" % (c, j)
                                  for c, j in terms)
            lines.append("  cut out by: %s = 0" % relation)
    lines.append("  generators (coordinates in the g-basis):")
    for i, coords in enumerate(R["coordinate_generators"], start=1):
        lines.append("    r%d = [%s]" % (i, ", ".join(str(c) for c in coords)))
    return lines


def _witness_text(doc, n):
    w = doc["witness"]
    if w is None:
        return ["fake witness: none (every class is realisable)"]
    return ["fake witness: %s with obstruction value (%s)"
            % (w["label"], ", ".join(w["value"]))]


# The keys of a report after its status, and its text sections.
REPORT_KEYS = ("h2", "h3", "obstruction", "realizable", "witness")
REPORT = (_head_text, _h2_text, _obstruction_text, _realizable_text,
          _witness_text)
FAILED = (_head_text, _skipped_text)

# The report keys the obstruction and realizable commands build and
# print, and their text sections.
VIEWS = {
    "obstruction": (("h2", "h3", "obstruction"),
                    (_h2_text, _obstruction_text)),
    "realizable": (("h2", "obstruction", "realizable"),
                   (_h2_text, _realizable_text)),
}


def render(doc, fmt, n, sections):
    """A document as JSON (``_json``), or as the text of its
    ``sections`` separated by blank lines; ``n`` is the rank of the
    twisted coefficients."""
    if fmt == "json":
        out = []
        _json(doc, "\n", out)
        return "".join(out) + "\n"
    return "\n\n".join("\n".join(section(doc, n))
                       for section in sections) + "\n"


def _json(value, newline, out):
    """Append to ``out`` the text of ``value`` as ``json.dumps(value,
    indent=2)`` writes it, in one pass: ``newline`` is a line break and
    the indentation of ``value``'s own line.  Takes dicts with string
    keys, lists, tuples, strings, ints, bools and None; anything else
    raises TypeError."""
    if isinstance(value, str):
        out.append(encode_basestring_ascii(value))
    elif value is None or value is True or value is False:
        out.append("null" if value is None else "true" if value else "false")
    elif isinstance(value, int):
        out.append(int.__repr__(value))
    elif isinstance(value, dict):
        inner, sep = newline + "  ", "{"
        for key, item in value.items():
            out.append(sep + inner + encode_basestring_ascii(key) + ": ")
            _json(item, inner, out)
            sep = ","
        out.append(newline + "}" if value else "{}")
    elif isinstance(value, (list, tuple)):
        inner, sep = newline + "  ", "["
        for item in value:
            out.append(sep + inner)
            _json(item, inner, out)
            sep = ","
        out.append(newline + "]" if value else "[]")
    else:
        raise TypeError("Object of type %s is not JSON serializable"
                        % type(value).__name__)


# ---------------------------------------------------------------------------
# commands


def _read_source(path):
    if path == "-":
        return sys.stdin.read()
    with open(path, "r", encoding="utf-8") as handle:
        return handle.read()


def run(command, problem, degree=None, fmt="text", seed=None):
    """Execute one command on a parsed problem; returns (status, text).

    Every command prints one document: ``report`` the whole
    ``lagfib-report/1`` document, ``obstruction`` and ``realizable`` the
    view of their ``VIEWS`` keys alone, ``validate`` and ``cohomology``
    their own.  Where validation fails, all but ``validate`` print the
    report up to its status; ``cohomology`` needs only the checks.
    """
    if command not in COMMANDS:
        raise ValueError("unknown command %r" % command)
    stages = Run(problem, seed)
    if command == "cohomology" and stages.checked:
        H = twisted_cohomology(problem.complex, problem.rho, degree)
        doc = {"format": "lagfib-cohomology/1", "degree": degree}
        doc.update(cohomology_dict(H))
        return 0, render(doc, fmt, H.dim, (_cohomology_text,))
    if command == "validate":
        doc = {"format": "lagfib-validation/1", "ok": stages.ok,
               "checks": stages.validation}
        keys, sections = (), (_validate_text,)
    elif command in VIEWS and stages.ok:
        doc = {"format": "lagfib-%s/1" % command}
        keys, sections = VIEWS[command]
    else:
        doc = {
            "format": "lagfib-report/1",
            "title": problem.title,
            "digest": problem.digest(),
            "validation": stages.validation,
            "status": "ok" if stages.ok else "validation-failed",
        }
        keys, sections = (REPORT_KEYS, REPORT) if stages.ok else ((), FAILED)
    add_report_keys(doc, stages, keys)
    return (0 if stages.ok else 1), render(doc, fmt, problem.rho.dim, sections)


# The commands: each one's help and the options it takes after its file,
# as (option, kind, default, help).  The kind is a tuple of choices, int,
# or bool for a flag; an option whose default is None is required.  Both
# readers of a command line read it: ``build_arg_parser`` and
# ``_plain_args``.
_FORMAT = ("--format", ("text", "json"), "text", None)
COMMANDS = {
    "validate": ("run every consistency check", (
        _FORMAT,
        ("--check-diagonal", bool, False,
         "count the random diagonal checks as well (identities decide them)"),
        ("--seed", int, 0,
         "accepted and ignored: no diagonal check is drawn at random"))),
    "cohomology": ("twisted cohomology in one degree",
                   (_FORMAT, ("--degree", int, None, None))),
    "obstruction": ("compute the obstruction matrix", (_FORMAT,)),
    "realizable": ("compute the subgroup of realisable classes", (_FORMAT,)),
    "report": ("compute the full report", (_FORMAT,)),
}


def _dest(option):
    """The key of an option's value: "--check-diagonal" is check_diagonal."""
    return option[2:].replace("-", "_")


def build_arg_parser():
    # imported here: a well-formed command line never builds the parser
    import argparse

    parser = argparse.ArgumentParser(
        prog=PROG,
        description="exact obstruction computations for almost Lagrangian "
                    "fibrations over integral affine manifolds")
    sub = parser.add_subparsers(dest="command", required=True)
    for command, (help_text, options) in COMMANDS.items():
        p = sub.add_parser(command, help=help_text)
        p.add_argument("file", help=".iaf problem file, or - for stdin")
        for option, kind, default, option_help in options:
            if kind is bool:
                p.add_argument(option, action="store_true", help=option_help)
            elif kind is int:
                p.add_argument(option, type=int, default=default,
                               required=default is None, help=option_help)
            else:
                p.add_argument(option, choices=kind, default=default,
                               help=option_help)
    return parser


def _plain_args(argv):
    """The values the parser of ``build_arg_parser`` gives a well-formed
    command line, as a dict, or None for any other line, which is left
    to that parser and its help, usage and error messages.

    A well-formed line is a command, one file (``-`` included), and each
    of the command's options at most once, spelled in full, with its
    value as the next argument: a choice, or ASCII digits for an int
    (``str.isdigit`` holds for a superscript two, which int() refuses).
    """
    if not argv or argv[0] not in COMMANDS:
        return None
    options = COMMANDS[argv[0]][1]
    kinds = {option: kind for option, kind, _, _ in options}
    args = {"command": argv[0], "file": None}
    args.update((_dest(option), default) for option, _, default, _ in options)
    values = iter(argv[1:])
    for arg in values:
        if arg == "-" or not arg.startswith("-"):
            if args["file"] is not None:
                return None
            args["file"] = arg
            continue
        kind = kinds.pop(arg, None)  # so an option given twice is refused
        if kind is None:
            return None
        if kind is bool:
            value = True
        else:
            value = next(values, None)
            if value is None:
                return None
            if kind is int:
                if not (value.isascii() and value.isdigit()):
                    return None
                value = int(value)
            elif value not in kind:
                return None
        args[_dest(arg)] = value
    if None in args.values():  # no file, or a required option missing
        return None
    return args


def main(argv=None):
    """Run one command line; returns the exit status.

    An exact answer, such as a torsion order, may have more digits than
    Python turns into text by default, so the limit is lifted for the
    call and restored after it.
    """
    if not hasattr(sys, "set_int_max_str_digits"):  # no limit before 3.10.7
        return _main(argv)
    limit = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(0)
    try:
        return _main(argv)
    finally:
        sys.set_int_max_str_digits(limit)


def _main(argv):
    if argv is None:
        argv = sys.argv[1:]
    args = _plain_args(argv) or vars(build_arg_parser().parse_args(argv))
    try:
        text = _read_source(args["file"])
    except (OSError, UnicodeDecodeError) as exc:
        print("%s: cannot read %s: %s" % (PROG, args["file"], exc),
              file=sys.stderr)
        return 2
    try:
        problem = parse_problem_text(text)
    except ProblemParseError as exc:
        print("%s: parse error: %s" % (PROG, exc), file=sys.stderr)
        return 2
    degree = args.get("degree")
    if args["command"] == "cohomology" and (
            degree not in range(problem.complex.top + 1)):
        print("%s: degree must be between 0 and %d"
              % (PROG, problem.complex.top), file=sys.stderr)
        return 2
    seed = args["seed"] if args.get("check_diagonal") else None
    try:
        status, output = run(args["command"], problem, degree=degree,
                             fmt=args["format"], seed=seed)
    except ObstructionError as exc:
        print("%s: inconsistent input: %s" % (PROG, exc), file=sys.stderr)
        return 1
    stream = sys.stdout
    if output:
        stream.write(_maybe_color(output, stream))
    return status


# The status that ends a check line of the text format, "  name: ok";
# no other line is indented by two blanks and ends so.
_CHECK_STATUS = re.compile(r"^(  \S.*: )(ok|FAIL)$", re.MULTILINE)


def _maybe_color(output, stream):
    if not (hasattr(stream, "isatty") and stream.isatty()):
        return output
    if os.environ.get("NO_COLOR"):  # set and not empty (no-color.org)
        return output
    return _CHECK_STATUS.sub(lambda m: "%s\x1b[%dm%s\x1b[0m" % (
        m[1], 32 if m[2] == "ok" else 31, m[2]), output)


if __name__ == "__main__":
    sys.exit(main())
