"""Answer checks for every benchmark request.

Each check takes the captured standard output of one request and returns
None when the answer is right, or a one-line reason when it is wrong.  The
exit status, the standard error and the absence of a traceback are checked
for every request by ``common_failure``.
"""

import json
import re

from t3grid import EXPECTED

# Groups the README states for the bundled geometries: H^2 and R = ker D.
BUNDLED_GROUPS = {
    "t3": ("Z^9", "Z^8"),
    "heisenberg": ("Z^5", "Z^4"),
    "mapping_torus": ("Z^5 + Z/2 + Z/2", "Z^4 + Z/2 + Z/2"),
}


def common_failure(status, stdout, stderr, error):
    """Reason a request failed whatever it asked, or None."""
    if error is not None:
        return "raised %s" % error.splitlines()[-1]
    if status != 0:
        return "exit status %r" % (status,)
    if "Traceback" in stdout or "Traceback" in stderr:
        return "printed a traceback"
    if stderr:
        return "wrote to stderr: %s" % stderr.splitlines()[0]
    return None


def _nonzero_rows(rows):
    return [row for row in rows if any(x not in ("0", 0) for x in row)]


def _text_groups(stdout):
    """(group lines in order, obstruction matrix rows, failed checks) from
    text output; in a report the groups are H^2 and then R."""
    groups = re.findall(r"^  group: (.*)$", stdout, re.M)
    rows = [line.split() for line in
            re.findall(r"^  matrix row: \[(.*)\]$", stdout, re.M)]
    failed = re.findall(r"^  (.*): FAIL$", stdout, re.M)
    return groups, rows, failed


def flat_report_text(stdout):
    """A text report on a flat grid: Z^9, one nonzero row, R = Z^8."""
    groups, rows, failed = _text_groups(stdout)
    if failed:
        return "validation failed: %s" % ", ".join(failed)
    want = [EXPECTED["flat"]["cohomology"][2], EXPECTED["flat"]["realizable"]]
    if groups != want:
        return "groups %r, expected %r" % (groups, want)
    if len(rows) != 1 or len(_nonzero_rows(rows)) != 1:
        return "expected exactly one nonzero obstruction row, got %r" % rows
    return None


def _json(stdout):
    try:
        return json.loads(stdout), None
    except ValueError as exc:
        return None, "output is not JSON: %s" % exc


def sheared_json(command, degree=None):
    """Check for one JSON command on a sheared grid."""
    expected = EXPECTED["sheared"]

    def check(stdout):
        doc, err = _json(stdout)
        if err:
            return err
        if command == "validate":
            return None if doc.get("ok") is True else "validation not ok"
        if command == "cohomology":
            got = doc["group"]["text"]
            want = expected["cohomology"][degree]
            return None if got == want else "H^%d = %s, expected %s" % (
                degree, got, want)
        if command == "report" and (doc.get("status") != "ok" or not all(
                c["ok"] for c in doc["validation"])):
            return "report status %r" % doc.get("status")
        got = doc["h2"]["group"]["text"]
        if got != expected["cohomology"][2]:
            return "H^2 = %s, expected %s" % (got, expected["cohomology"][2])
        rows = doc["obstruction"]["matrix"] or []
        if len(rows) != 1 or len(_nonzero_rows(rows)) != 1:
            return "expected exactly one nonzero obstruction row, got %r" % rows
        if command in ("realizable", "report"):
            got = doc["realizable"]["group"]["text"]
            if got != expected["realizable"]:
                return "R = %s, expected %s" % (got, expected["realizable"])
        return None

    return check


def bundled(name, golden, command, fmt):
    """Byte-identical to the golden output, and the README's groups."""
    h2_want, r_want = BUNDLED_GROUPS[name]

    def check(stdout):
        if stdout != golden:
            return "output differs from the golden output"
        if command == "validate":
            return None
        if fmt == "json":
            doc, err = _json(stdout)
            if err:
                return err
            h2 = doc["group"] if command == "cohomology" else doc["h2"]["group"]
            h2 = h2["text"]
            r = doc["realizable"]["group"]["text"] if "realizable" in doc \
                else None
        else:
            groups, _, _ = _text_groups(stdout)
            h2 = groups[0] if groups else None
            r = groups[1] if len(groups) > 1 else None
        if h2 != h2_want:
            return "H^2 = %s, expected %s" % (h2, h2_want)
        if command in ("realizable", "report") and r != r_want:
            return "R = %s, expected %s" % (r, r_want)
        return None

    return check
