"""Command line interface and report rendering.

Commands: validate, cohomology, obstruction, realizable, report.  Exit
status is 0 on mathematical success, 1 when a validation check fails,
2 on a parse error.  Reports are deterministic: identical input files
produce byte-identical output.
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
from .problemfile import (
    ProblemParseError,
    format_rational,
    parse_problem_text,
    serialize,
)
from .realizable import build_report, find_fake_witness, realizable_subgroup

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


def analyze(problem, seed=None):
    """Full pipeline; returns an ObstructionReport.

    Raises ObstructionError only on inconsistent inputs that passed
    validation (which the bundled data never triggers).
    """
    validation, certified = run_validation(problem, seed)
    if certified is None:
        return build_report(problem.title, problem.digest(), validation,
                            None, None, None, None, None)
    H2, h3, cup = certified
    D = dd_matrix(H2, cup, h3)
    R = realizable_subgroup(D, H2)
    witness = find_fake_witness(D, H2)
    return build_report(problem.title, problem.digest(), validation,
                        H2, h3, D, R, witness)


# ---------------------------------------------------------------------------
# rendering helpers


def slot_text(slot):
    if slot == 0:
        return "Z"
    if slot == 1:
        return "0"
    return "Z/%d" % slot


def shape_text(per_cell_shape):
    return " ".join("(" + " + ".join(slot_text(s) for s in block) + ")"
                    for block in per_cell_shape)


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
# section renderers (text)


def render_validation_text(lines, checks):
    lines.append("validation")
    for name, failures in checks:
        if failures:
            lines.append("  %s: FAIL" % name)
            for failure in failures:
                lines.append("    - %s" % failure)
        else:
            lines.append("  %s: ok" % name)


def render_cohomology_text(lines, H, generators_header):
    """H^k as text; under ``generators_header`` the generators are listed
    one level deeper, below a "generators:" line (the report layout)."""
    lines.append("H^%d with twisted Z^%d coefficients" % (H.degree, H.dim))
    lines.append("  group: %s" % H.group)
    if H.per_cell_shape:
        lines.append("  per-cell: %s" % shape_text(H.per_cell_shape))
    indent = "  "
    if generators_header:
        lines.append("  generators:")
        indent = "    "
    for i, (gen, order) in enumerate(zip(H.generators, H.orders), start=1):
        tag = "free" if order == 0 else "order %d" % order
        lines.append("%sg%d = %s  [%s]" % (indent, i, describe_cochain(gen),
                                           tag))


def render_h2_text(lines, report):
    render_cohomology_text(lines, report.h2, True)


def render_obstruction_text(lines, report):
    D = report.obstruction
    lines.append("obstruction map into H^3(base; Q), basis: %s"
                 % (", ".join(report.h3.basis_labels) or "(trivial)"))
    for i, values in enumerate(D.generator_values, start=1):
        lines.append("  D(g%d) = (%s)" % (i, ", ".join(format_rational(x)
                                                       for x in values)))
    if D.matrix is not None:
        for row in D.matrix:
            lines.append("  matrix row: [%s]" % " ".join(format_rational(x)
                                                         for x in row))
    else:
        lines.append("  matrix: zero")


def render_realizable_text(lines, report):
    R = report.realizable
    lines.append("realisable classes R = ker D")
    lines.append("  group: %s" % R.group)
    if report.obstruction.matrix is not None:
        for row in report.obstruction.matrix:
            terms = [(format_rational(x), j) for j, x in enumerate(row) if x != 0]
            if terms:
                relation = " + ".join(("g%d" % (j + 1)) if c == "1"
                                      else "%s*g%d" % (c, j + 1)
                                      for c, j in terms)
                lines.append("  cut out by: %s = 0" % relation)
    lines.append("  generators (coordinates in the g-basis):")
    for i, coords in enumerate(R.coordinate_generators, start=1):
        lines.append("    r%d = [%s]" % (i, ", ".join(str(c) for c in coords)))


def render_witness_text(lines, report):
    if report.witness is None:
        lines.append("fake witness: none (every class is realisable)")
    else:
        w = report.witness
        lines.append("fake witness: g%d with obstruction value (%s)"
                     % (w.generator_index + 1,
                        ", ".join(format_rational(x) for x in w.value)))


def render_text(report, renderers):
    """Sections of a report, separated by blank lines."""
    lines = []
    for render in renderers:
        if lines:
            lines.append("")
        render(lines, report)
    return "\n".join(lines) + "\n"


REPORT_SECTIONS = (render_h2_text, render_obstruction_text,
                   render_realizable_text, render_witness_text)


def render_report_text(report):
    lines = ["obstruction report: %s" % (report.title or "(untitled)"),
             "input sha256: %s" % report.digest, ""]
    render_validation_text(lines, report.validation)
    if report.h2 is None:
        lines += ["", "computation skipped: validation failed"]
        return "\n".join(lines) + "\n"
    return "\n".join(lines) + "\n\n" + render_text(report, REPORT_SECTIONS)


def report_to_dict(report):
    doc = {
        "format": "lagfib-report/1",
        "title": report.title,
        "digest": report.digest,
        "validation": [{"check": name, "ok": not failures,
                        "failures": list(failures)}
                       for name, failures in report.validation],
    }
    if report.h2 is None:
        doc["status"] = "validation-failed"
        return doc
    doc["status"] = "ok"
    doc["h2"] = cohomology_dict(report.h2)
    doc["h3"] = {"dimension": report.h3.dimension,
                 "basis": list(report.h3.basis_labels)}
    doc["obstruction"] = {
        "matrix": [[format_rational(x) for x in row]
                   for row in report.obstruction.matrix]
        if report.obstruction.matrix is not None else None,
        "generator_values": [[format_rational(x) for x in values]
                             for values in report.obstruction.generator_values],
    }
    doc["realizable"] = {
        "group": group_dict(report.realizable.group),
        "coordinate_generators": [list(c) for c in
                                  report.realizable.coordinate_generators],
        "cochain_generators": [cochain_dict(c) for c in
                               report.realizable.cochain_generators],
    }
    doc["witness"] = None if report.witness is None else {
        "generator_index": report.witness.generator_index,
        "label": "g%d" % (report.witness.generator_index + 1),
        "value": [format_rational(x) for x in report.witness.value],
    }
    return doc


# Sections of the report the obstruction and realizable commands print.
VIEWS = {
    "obstruction": (("h2", "h3", "obstruction"),
                    (render_h2_text, render_obstruction_text)),
    "realizable": (("h2", "obstruction", "realizable"),
                   (render_h2_text, render_realizable_text)),
}


# ---------------------------------------------------------------------------
# commands


def _read_source(path):
    if path == "-":
        return sys.stdin.read()
    with open(path, "r", encoding="utf-8") as handle:
        return handle.read()


def run(command, problem, degree=None, fmt="text", seed=0,
        check_diagonal=False):
    """Execute one command on a parsed problem; returns (status, text).
    ``cohomology`` runs the checks before certification, not the whole
    pipeline."""
    seed = seed if check_diagonal else None

    if command == "validate":
        checks, _ = run_validation(problem, seed)
        ok = all(not failures for _, failures in checks)
        if fmt == "json":
            doc = {"format": "lagfib-validation/1", "ok": ok,
                   "checks": [{"check": name, "ok": not failures,
                               "failures": list(failures)}
                              for name, failures in checks]}
            return (0 if ok else 1), json.dumps(doc, indent=2) + "\n"
        lines = []
        render_validation_text(lines, checks)
        lines.append("result: %s" % ("all checks passed" if ok
                                     else "validation FAILED"))
        return (0 if ok else 1), "\n".join(lines) + "\n"

    if command == "cohomology":
        checks = run_checks(problem)
        if checks[-1] is not SKIPPED:
            H = twisted_cohomology(problem.complex, problem.rho, degree)
            if fmt == "json":
                doc = {"format": "lagfib-cohomology/1", "degree": degree}
                doc.update(cohomology_dict(H))
                return 0, json.dumps(doc, indent=2) + "\n"
            lines = []
            render_cohomology_text(lines, H, False)
            return 0, "\n".join(lines) + "\n"
        report = build_report(problem.title, problem.digest(), checks,
                              None, None, None, None, None)
    else:
        report = analyze(problem, seed)
    if command == "report" or report.h2 is None:
        status = 0 if report.h2 is not None else 1
        if fmt == "json":
            return status, json.dumps(report_to_dict(report), indent=2) + "\n"
        return status, render_report_text(report)

    if command in VIEWS:
        sections, renderers = VIEWS[command]
        if fmt == "json":
            doc = report_to_dict(report)
            view = {"format": "lagfib-%s/1" % command}
            view.update((key, doc[key]) for key in sections)
            return 0, json.dumps(view, indent=2) + "\n"
        return 0, render_text(report, renderers)

    raise ValueError("unknown command %r" % command)


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
    except OSError as exc:
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
    try:
        status, output = run(args.command, problem, degree=degree,
                             fmt=args.format,
                             seed=getattr(args, "seed", 0),
                             check_diagonal=getattr(args, "check_diagonal",
                                                    False))
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
