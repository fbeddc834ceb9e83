"""Command line interface and report rendering.

Commands: validate, cohomology, obstruction, realizable, report.  Exit
status is 0 on mathematical success, 1 when a validation check fails,
2 on a parse error.  A run builds one document -- the
``lagfib-report/1`` report of ``analyze``, or the validation or
cohomology document -- and prints it, or a view of some of its keys,
as JSON or as text read from that document alone.  Reports are
deterministic: identical input files produce byte-identical output.
"""

import argparse
import functools
import json
import os
import sys
from importlib import resources

from .complexes import (
    twisted_cohomology,
    untwisted_cohomology_Q,
    validate_complex,
)
from .groupring import check_duality, check_relations
from .obstruction import (
    ObstructionError,
    check_periods_closed,
    dd_matrix,
    validate_diagonal,
)
from .problemfile import ProblemParseError, format_rational, parse_problem_text
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


SKIPPED = ("diagonal certification", ("skipped: earlier checks failed",))


def run_checks(problem):
    """The checks before diagonal certification in report order, as a
    list of (name, failures), ending in SKIPPED when one failed.  They
    assemble every coboundary; later stages read them from the complex."""
    checks = [("relations[%s]" % name,
               check_relations(rep, problem.presentation))
              for name, rep in problem.representations.items()]
    checks.append(("duality[%s = %s^-T]" % (problem.coefficient_rep,
                                            problem.form_rep),
                   check_duality(problem.ell, problem.rho)))
    checks.append(("boundary squares to zero",
                   validate_complex(problem.complex,
                                    problem.representations.values())))
    checks.append(("periods closed",
                   check_periods_closed(problem.complex, problem.ell,
                                        problem.periods)))
    if any(failures for _, failures in checks):
        checks.append(SKIPPED)
    return checks


def run_validation(problem, seed=None):
    """All checks in report order, and (H2, h3, cup) -- twisted H^2,
    H^3(B;Q) and the certified cup pairing, each computed once per run
    -- or None when a check failed.  A ``seed`` adds the randomized
    certification suite."""
    checks = run_checks(problem)
    if checks[-1] is SKIPPED:
        return checks, None
    H2 = twisted_cohomology(problem.complex, problem.rho, 2)
    h3 = untwisted_cohomology_Q(problem.complex, 3)
    diag = validate_diagonal(problem.complex, problem.diagonal,
                             problem.rho, problem.ell, problem.periods,
                             H2, h3, seed)
    checks.append(("diagonal certification (%d checks)" % diag.checks_run,
                   list(diag.failures)))
    return checks, ((H2, h3, diag.cup) if diag.ok else None)


def check_list(checks):
    """(name, failures) pairs as the check entries of a document."""
    return [{"check": name, "ok": not failures, "failures": list(failures)}
            for name, failures in checks]


def report_document(problem, checks, certified):
    """The ``lagfib-report/1`` document of a run with these checks.

    ``certified`` is (H2, h3, cup) as ``run_validation`` returns it, or
    None when a check failed; then the document ends at its
    ``validation-failed`` status.  Otherwise it goes on with H^2, the
    obstruction map D, R = ker D and a fake witness.
    """
    doc = {
        "format": "lagfib-report/1",
        "title": problem.title,
        "digest": problem.digest(),
        "validation": check_list(checks),
    }
    if certified is None:
        doc["status"] = "validation-failed"
        return doc
    H2, h3, cup = certified
    D = dd_matrix(H2, cup, h3)
    R = realizable_subgroup(D, H2)
    witness = find_fake_witness(D)
    doc["status"] = "ok"
    doc["h2"] = cohomology_dict(H2)
    doc["h3"] = {"dimension": h3.dimension, "basis": list(h3.basis_labels)}
    doc["obstruction"] = {
        "matrix": [[format_rational(x) for x in row] for row in D.matrix]
        if D.matrix is not None else None,
        "generator_values": [[format_rational(x) for x in values]
                             for values in D.generator_values],
    }
    doc["realizable"] = {
        "group": group_dict(R.group),
        "coordinate_generators": [list(c) for c in R.coordinate_generators],
        "cochain_generators": [cochain_dict(c) for c in R.cochain_generators],
    }
    doc["witness"] = None if witness is None else {
        "generator_index": witness.generator_index,
        "label": "g%d" % (witness.generator_index + 1),
        "value": [format_rational(x) for x in witness.value],
    }
    return doc


def analyze(problem, seed=None):
    """Full pipeline; returns the ``lagfib-report/1`` document.

    Raises ObstructionError only on inconsistent inputs that passed
    validation (which the bundled data never triggers).
    """
    return report_document(problem, *run_validation(problem, seed))


# ---------------------------------------------------------------------------
# document helpers


def slot_text(slot):
    if slot == 0:
        return "Z"
    if slot == 1:
        return "0"
    return "Z/%d" % slot


def describe_cochain(cochain):
    """Short label: a dual cochain gets dual(cell, slot), else the table."""
    nonzero = [(cell, row) for cell, row in zip(cochain.cells, cochain.values)
               if any(x != 0 for x in row)]
    if len(nonzero) == 1:
        cell, row = nonzero[0]
        hits = [(i, x) for i, x in enumerate(row) if x != 0]
        if len(hits) == 1 and hits[0][1] == 1:
            return "dual(%s, %d)" % (cell, hits[0][0] + 1)
    if not nonzero:
        return "0"
    return "; ".join("%s: (%s)" % (cell, ", ".join(str(x) for x in row))
                     for cell, row in nonzero)


def group_dict(group):
    return {"free_rank": group.free_rank, "torsion": list(group.torsion),
            "text": str(group)}


def cochain_dict(cochain):
    return {"label": describe_cochain(cochain),
            "values": {cell: list(row)
                       for cell, row in zip(cochain.cells, cochain.values)
                       if any(x != 0 for x in row)}}


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


REPORT = (_head_text, _h2_text, _obstruction_text, _realizable_text,
          _witness_text)
FAILED = (_head_text, _skipped_text)

# The report keys the obstruction and realizable commands print, and
# their text sections.
VIEWS = {
    "obstruction": (("h2", "h3", "obstruction"),
                    (_h2_text, _obstruction_text)),
    "realizable": (("h2", "obstruction", "realizable"),
                   (_h2_text, _realizable_text)),
}


def render(doc, fmt, n, sections):
    """A document as JSON, or as the text of its ``sections`` separated
    by blank lines; ``n`` is the rank of the twisted coefficients."""
    if fmt == "json":
        return json.dumps(doc, indent=2) + "\n"
    return "\n\n".join("\n".join(section(doc, n))
                       for section in sections) + "\n"


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
    ``lagfib-report/1`` document, ``obstruction`` and ``realizable`` its
    ``VIEWS`` keys, ``validate`` and ``cohomology`` their own; a report
    whose validation failed is printed whole whatever the command.
    ``cohomology`` runs the checks before certification, not the whole
    pipeline.  A ``seed`` adds the randomized certification suite.
    """
    n = problem.rho.dim
    if command == "validate":
        checks, _ = run_validation(problem, seed)
        ok = all(not failures for _, failures in checks)
        doc = {"format": "lagfib-validation/1", "ok": ok,
               "checks": check_list(checks)}
        return (0 if ok else 1), render(doc, fmt, n, (_validate_text,))

    if command == "cohomology":
        checks = run_checks(problem)
        if checks[-1] is not SKIPPED:
            H = twisted_cohomology(problem.complex, problem.rho, degree)
            doc = {"format": "lagfib-cohomology/1", "degree": degree}
            doc.update(cohomology_dict(H))
            return 0, render(doc, fmt, H.dim, (_cohomology_text,))
        doc = report_document(problem, checks, None)
    elif command == "report" or command in VIEWS:
        doc = analyze(problem, seed)
    else:
        raise ValueError("unknown command %r" % command)

    if doc["status"] != "ok":
        return 1, render(doc, fmt, n, FAILED)
    if command == "report":
        return 0, render(doc, fmt, n, REPORT)
    keys, sections = VIEWS[command]
    view = {"format": "lagfib-%s/1" % command}
    view.update((key, doc[key]) for key in keys)
    return 0, render(view, fmt, n, sections)


def build_arg_parser():
    parser = argparse.ArgumentParser(
        prog=PROG,
        description="exact obstruction computations for almost Lagrangian "
                    "fibrations over integral affine manifolds")
    sub = parser.add_subparsers(dest="command", required=True)

    def add_common(p):
        p.add_argument("file", help=".iaf problem file, or - for stdin")
        p.add_argument("--format", choices=("text", "json"), default="text")

    p_validate = sub.add_parser("validate", help="run every consistency check")
    add_common(p_validate)
    p_validate.add_argument("--check-diagonal", action="store_true",
                            help="run the randomized diagonal suite as well")
    p_validate.add_argument("--seed", type=int, default=0,
                            help="seed for the randomized suite")

    p_cohomology = sub.add_parser("cohomology",
                                  help="twisted cohomology in one degree")
    add_common(p_cohomology)
    p_cohomology.add_argument("--degree", type=int, required=True)

    for name, help_text in (("obstruction", "the obstruction matrix"),
                            ("realizable", "the subgroup of realisable classes"),
                            ("report", "the full report")):
        p = sub.add_parser(name, help="compute " + help_text)
        add_common(p)
    return parser


@functools.cache
def _arg_parser():
    """The parser, built on the first ``main`` call and reused: parsing
    leaves it unchanged, and building one per call is measurable work
    and cyclic garbage in a long-lived process."""
    return build_arg_parser()


def main(argv=None):
    args = _arg_parser().parse_args(argv)
    try:
        text = _read_source(args.file)
    except (OSError, UnicodeDecodeError) as exc:
        print("%s: cannot read %s: %s" % (PROG, args.file, exc),
              file=sys.stderr)
        return 2
    try:
        problem = parse_problem_text(text)
    except ProblemParseError as exc:
        print("%s: parse error: %s" % (PROG, exc), file=sys.stderr)
        return 2
    degree = getattr(args, "degree", None)
    if args.command == "cohomology" and not (
            0 <= degree <= problem.complex.top):
        print("%s: degree must be between 0 and %d"
              % (PROG, problem.complex.top), file=sys.stderr)
        return 2
    seed = args.seed if getattr(args, "check_diagonal", False) else None
    try:
        status, output = run(args.command, problem, degree=degree,
                             fmt=args.format, seed=seed)
    except ObstructionError as exc:
        print("%s: inconsistent input: %s" % (PROG, exc), file=sys.stderr)
        return 1
    stream = sys.stdout
    if output:
        stream.write(_maybe_color(output, stream))
    return status


def _maybe_color(output, stream):
    if not (hasattr(stream, "isatty") and stream.isatty()):
        return output
    if os.environ.get("NO_COLOR") is not None:
        return output
    return (output.replace(": ok", ": \x1b[32mok\x1b[0m")
                  .replace(": FAIL", ": \x1b[31mFAIL\x1b[0m"))


if __name__ == "__main__":
    sys.exit(main())
