"""Reader and writer for the .iaf problem file format.

An .iaf file is line oriented and split into sections:

    [metadata]      optional title/notes
    [group]         generators = a b c ; relation lines
    [representation <name>]
                    dim = n and one matrix line per generator
    [bindings]      coefficient_rep = ... / form_rep = ...
    [complex]       cells k = ... and boundary lines with group ring
                    coefficients, e.g.
                    boundary e2_1 = (1 - c*b)*e1_1 + (a - c)*e1_2 - e1_3
    [periods]       e1_1 = [0, 1, 0]   (rationals as p/q)
    [diagonal]      e3 += (e1_1 | 1 ; e2_2 | a)  front/back term lines

"#" starts a comment.  Errors carry the 1-based line and column of the
offending token.  ``serialize`` writes a canonical form whose reparse
compares equal, and whose bytes back the input digest.
"""

import hashlib
import io
from fractions import Fraction

from .complexes import EquivariantComplex
from .groupring import (
    GroupRingElement,
    Presentation,
    Representation,
    Word,
)
from .intlinalg import IntMatrix
from .obstruction import DiagonalApproximation, PeriodAssignment

SECTION_ORDER = ("metadata", "group", "representation", "bindings",
                 "complex", "periods", "diagonal")


class ProblemParseError(Exception):
    def __init__(self, message, line=None, column=None, token=None):
        super().__init__(message)
        self.message = message
        self.line = line
        self.column = column
        self.token = token

    def __str__(self):
        where = ""
        if self.line is not None:
            where = "line %d" % self.line
            if self.column is not None:
                where += ", column %d" % self.column
            where += ": "
        near = " (near %r)" % self.token if self.token else ""
        return where + self.message + near


class _Scanner:
    """Cursor over one logical line; tracks column for diagnostics."""

    def __init__(self, text, line):
        self.text = text
        self.line = line
        self.pos = 0

    def error(self, message, token=None):
        return ProblemParseError(message, self.line, self.pos + 1, token)

    def skip_ws(self):
        while self.pos < len(self.text) and self.text[self.pos] in " \t":
            self.pos += 1

    def at_end(self):
        self.skip_ws()
        return self.pos >= len(self.text)

    def peek(self):
        self.skip_ws()
        return self.text[self.pos] if self.pos < len(self.text) else ""

    def take(self, char):
        if self.peek() == char:
            self.pos += 1
            return True
        return False

    def expect(self, char):
        if not self.take(char):
            raise self.error("expected %r" % char, self.rest_token())

    def rest_token(self):
        self.skip_ws()
        end = self.pos
        while end < len(self.text) and self.text[end] not in " \t":
            end += 1
        return self.text[self.pos:end] or "end of line"

    def ident(self):
        self.skip_ws()
        start = self.pos
        while (self.pos < len(self.text)
               and (self.text[self.pos].isalnum() or self.text[self.pos] == "_")):
            self.pos += 1
        if start == self.pos:
            raise self.error("expected a name", self.rest_token())
        return self.text[start:self.pos]

    def integer(self):
        self.skip_ws()
        start = self.pos
        if self.pos < len(self.text) and self.text[self.pos] in "+-":
            self.pos += 1
        while self.pos < len(self.text) and self.text[self.pos].isdigit():
            self.pos += 1
        chunk = self.text[start:self.pos]
        try:
            return int(chunk)
        except ValueError:
            raise self.error("expected an integer", chunk or self.rest_token())

    def rational(self):
        value = self.integer()
        if self.take("/"):
            denom = self.integer()
            if denom == 0:
                raise self.error("zero denominator")
            return Fraction(value, denom)
        return Fraction(value)


class ProblemFile:
    """Fully resolved contents of one .iaf file."""

    __slots__ = ("title", "notes", "presentation", "representations",
                 "coefficient_rep", "form_rep", "complex", "periods",
                 "diagonal")

    def __init__(self, title, notes, presentation, representations,
                 coefficient_rep, form_rep, complex_, periods, diagonal):
        self.title = title
        self.notes = notes
        self.presentation = presentation
        self.representations = representations
        self.coefficient_rep = coefficient_rep
        self.form_rep = form_rep
        self.complex = complex_
        self.periods = periods
        self.diagonal = diagonal

    @property
    def rho(self):
        return self.representations[self.coefficient_rep]

    @property
    def ell(self):
        return self.representations[self.form_rep]

    def digest(self):
        return hashlib.sha256(serialize(self).encode("utf-8")).hexdigest()

    def __eq__(self, other):
        if not isinstance(other, ProblemFile):
            return NotImplemented
        return (self.title == other.title
                and self.notes == other.notes
                and self.presentation == other.presentation
                and self.representations == other.representations
                and self.coefficient_rep == other.coefficient_rep
                and self.form_rep == other.form_rep
                and self.complex == other.complex
                and self.periods == other.periods
                and self.diagonal == other.diagonal)

    def __repr__(self):
        return "ProblemFile(title=%r)" % (self.title,)


def parse_problem(source):
    """Parse an .iaf file from a path, stream, or text.

    A multi-line string is treated as file content (a one-line .iaf
    file cannot exist, every section spans several lines); anything
    else is opened as a path.
    """
    if hasattr(source, "read"):
        text = source.read()
    else:
        text = str(source)
        if "\n" not in text:
            with open(text, "r", encoding="utf-8") as handle:
                text = handle.read()
    return parse_problem_text(text)


def _split_sections(text):
    sections = []
    current = None
    for lineno, raw in enumerate(text.splitlines(), start=1):
        stripped = raw.split("#", 1)[0].strip()
        if not stripped:
            continue
        if stripped.startswith("["):
            if not stripped.endswith("]"):
                raise ProblemParseError("unterminated section header",
                                        lineno, 1, stripped)
            header = stripped[1:-1].strip()
            current = (header, lineno, [])
            sections.append(current)
            continue
        if current is None:
            raise ProblemParseError("content before the first section header",
                                    lineno, 1, stripped.split()[0])
        current[2].append((lineno, stripped))
    return sections


def _key_value(content, key):
    head, sep, tail = content.partition("=")
    if sep and head.strip() == key:
        return tail.strip()
    return None


def parse_problem_text(text):
    sections = _split_sections(text)
    seen = {}
    rep_sections = []
    for header, lineno, lines in sections:
        parts = header.split()
        kind = parts[0]
        if kind == "representation":
            if len(parts) != 2:
                raise ProblemParseError(
                    "representation header needs exactly one name",
                    lineno, 1, header)
            rep_sections.append((parts[1], lineno, lines))
            continue
        if len(parts) != 1 or kind not in SECTION_ORDER:
            raise ProblemParseError("unknown section [%s]" % header,
                                    lineno, 1, header)
        if kind in seen:
            raise ProblemParseError("duplicate section [%s]" % kind,
                                    lineno, 1, header)
        seen[kind] = (lineno, lines)

    for required in ("group", "bindings", "complex", "periods", "diagonal"):
        if required not in seen:
            raise ProblemParseError("missing required section [%s]" % required)
    if not rep_sections:
        raise ProblemParseError("missing required section [representation <name>]")

    title, notes = "", []
    if "metadata" in seen:
        for lineno, content in seen["metadata"][1]:
            if (value := _key_value(content, "title")) is not None:
                title = value
            elif (value := _key_value(content, "notes")) is not None:
                notes.append(value)
            else:
                raise ProblemParseError("metadata lines are 'title = ...' or "
                                        "'notes = ...'", lineno, 1, content)

    presentation = _parse_group(seen["group"][1])
    representations = {}
    for name, lineno, lines in rep_sections:
        if name in representations:
            raise ProblemParseError("duplicate representation %r" % name,
                                    lineno, 1, name)
        representations[name] = _parse_representation(name, presentation,
                                                      lineno, lines)

    coefficient_rep, form_rep = _parse_bindings(seen["bindings"][1],
                                                representations)
    complex_ = _parse_complex(presentation, seen["complex"][1])
    dim = representations[coefficient_rep].dim
    periods = _parse_periods(seen["periods"][1], complex_, dim)
    diagonal = _parse_diagonal(presentation, seen["diagonal"][1], complex_)
    return ProblemFile(title, tuple(notes), presentation, representations,
                       coefficient_rep, form_rep, complex_, periods, diagonal)


def _parse_group(lines):
    generators = None
    relation_texts = []
    for lineno, content in lines:
        if content.startswith("generators"):
            value = _key_value(content, "generators")
            if value is None:
                raise ProblemParseError("malformed generators line",
                                        lineno, 1, content)
            if generators is not None:
                raise ProblemParseError("generators listed twice", lineno, 1)
            generators = value.split()
            if not generators:
                raise ProblemParseError("empty generator list", lineno, 1)
        elif content.startswith("relation"):
            relation_texts.append((lineno, content[len("relation"):].strip()))
        else:
            raise ProblemParseError("group lines are 'generators = ...' or "
                                    "'relation ...'", lineno, 1, content)
    if generators is None:
        raise ProblemParseError("[group] must list generators before relations")
    try:
        bare = Presentation(generators)
    except Exception as exc:
        raise ProblemParseError(str(exc)) from None
    relations = []
    for lineno, text_ in relation_texts:
        scanner = _Scanner(text_, lineno)
        lhs = _scan_word(scanner, bare)
        if scanner.take("="):
            rhs = _scan_word(scanner, bare)
            relations.append(lhs * rhs.inverse())
        else:
            relations.append(lhs)
        if not scanner.at_end():
            raise scanner.error("trailing input after relation",
                                scanner.rest_token())
    return Presentation(generators, relations)


def _scan_word(scanner, presentation):
    """word := factor ('*' factor)*, factor := name ['^' int] | '1'."""
    word = Word()
    while True:
        scanner.skip_ws()
        if scanner.peek() == "1":
            scanner.expect("1")
        else:
            start_col = scanner.pos + 1
            name = scanner.ident()
            if name not in presentation.generators:
                raise ProblemParseError("unknown generator %r" % name,
                                        scanner.line, start_col, name)
            word = word * _scan_power(scanner, presentation, name)
        if not scanner.take("*"):
            return word


def _scan_power(scanner, presentation, name):
    """The generator ``name`` raised to an optional '^' exponent."""
    exponent = scanner.integer() if scanner.take("^") else 1
    return Word.generator(presentation.index(name), exponent)


def _parse_matrix(scanner):
    scanner.expect("[")
    rows = []
    while True:
        scanner.expect("[")
        row = [scanner.integer()]
        while scanner.take(","):
            row.append(scanner.integer())
        scanner.expect("]")
        rows.append(row)
        if not scanner.take(","):
            break
    scanner.expect("]")
    width = len(rows[0])
    for row in rows:
        if len(row) != width:
            raise scanner.error("ragged matrix rows")
    return IntMatrix(rows)


def _parse_representation(name, presentation, header_line, lines):
    dim = None
    matrices = {}
    for lineno, content in lines:
        scanner = _Scanner(content, lineno)
        key = scanner.ident()
        scanner.expect("=")
        if key == "dim":
            dim = scanner.integer()
            continue
        if key not in presentation.generators:
            raise ProblemParseError(
                "representation %r assigns unknown generator %r" % (name, key),
                lineno, 1, key)
        if key in matrices:
            raise ProblemParseError(
                "representation %r assigns %r twice" % (name, key),
                lineno, 1, key)
        matrix = _parse_matrix(scanner)
        if not scanner.at_end():
            raise scanner.error("trailing input after matrix",
                                scanner.rest_token())
        matrices[key] = (lineno, matrix)
    if dim is None:
        raise ProblemParseError("representation %r is missing 'dim = n'" % name,
                                header_line)
    ordered = []
    for gen in presentation.generators:
        if gen not in matrices:
            raise ProblemParseError(
                "representation %r is missing a matrix for generator %r"
                % (name, gen), header_line)
        lineno, matrix = matrices[gen]
        if matrix.rows != dim or matrix.cols != dim:
            raise ProblemParseError(
                "matrix for %r must be %dx%d, got %dx%d"
                % (gen, dim, dim, matrix.rows, matrix.cols), lineno, 1)
        ordered.append(matrix)
    return Representation(name, presentation, ordered)


def _parse_bindings(lines, representations):
    coefficient_rep = form_rep = None
    for lineno, content in lines:
        if (value := _key_value(content, "coefficient_rep")) is not None:
            coefficient_rep = value
        elif (value := _key_value(content, "form_rep")) is not None:
            form_rep = value
        else:
            raise ProblemParseError("bindings lines are 'coefficient_rep = "
                                    "...' or 'form_rep = ...'",
                                    lineno, 1, content)
        if value not in representations:
            raise ProblemParseError("binding names unknown representation %r"
                                    % value, lineno, 1, value)
    if coefficient_rep is None or form_rep is None:
        raise ProblemParseError("[bindings] must set both coefficient_rep "
                                "and form_rep")
    return coefficient_rep, form_rep


def _parse_complex(presentation, lines):
    cells = {}
    boundary_lines = []
    for lineno, content in lines:
        if content.startswith("cells"):
            scanner = _Scanner(content, lineno)
            scanner.ident()  # the keyword
            k = scanner.integer()
            scanner.expect("=")
            names = tuple(content.split("=", 1)[1].split())
            for name in names:
                if (not name or name[0].isdigit()
                        or not all(c.isalnum() or c == "_" for c in name)):
                    raise ProblemParseError("bad cell name %r" % name,
                                            lineno, 1, name)
            if k in cells:
                raise ProblemParseError("cells %d listed twice" % k, lineno, 1)
            cells[k] = names
        elif content.startswith("boundary"):
            boundary_lines.append((lineno, content[len("boundary"):].strip()))
        else:
            raise ProblemParseError("complex lines are 'cells k = ...' or "
                                    "'boundary cell = ...'", lineno, 1, content)
    if not cells:
        raise ProblemParseError("[complex] lists no cells")
    top = max(cells)
    for k in range(top + 1):
        if k not in cells:
            raise ProblemParseError("missing 'cells %d = ...' line" % k)
    cell_list = [cells[k] for k in range(top + 1)]
    dim_of = {name: k for k, names in enumerate(cell_list) for name in names}
    if len(dim_of) != sum(len(names) for names in cell_list):
        raise ProblemParseError("a cell name is used in two dimensions")

    boundaries = {}
    for lineno, text_ in boundary_lines:
        scanner = _Scanner(text_, lineno)
        cell = scanner.ident()
        if cell not in dim_of:
            raise ProblemParseError("boundary for unknown cell %r" % cell,
                                    lineno, 1, cell)
        if cell in boundaries:
            raise ProblemParseError("boundary of %r given twice" % cell,
                                    lineno, 1, cell)
        if dim_of[cell] == 0:
            raise ProblemParseError("0-cell %r cannot have a boundary" % cell,
                                    lineno, 1, cell)
        scanner.expect("=")
        boundaries[cell] = _scan_boundary(scanner, presentation, dim_of,
                                          dim_of[cell] - 1)
    for k in range(1, top + 1):
        for cell in cell_list[k]:
            if cell not in boundaries:
                raise ProblemParseError("missing boundary line for %d-cell %r"
                                        % (k, cell))
    try:
        return EquivariantComplex(presentation, cell_list, boundaries)
    except Exception as exc:
        raise ProblemParseError(str(exc)) from None


def _scan_boundary(scanner, presentation, dim_of, target_dim):
    """Sum of (group ring coefficient) * cell summands, or literal 0."""
    entries = {}
    scanner.skip_ws()
    if scanner.peek() == "0":
        mark = scanner.pos
        scanner.expect("0")
        if scanner.at_end():
            return entries
        scanner.pos = mark
    sign = -1 if scanner.take("-") else 1
    if sign == 1:
        scanner.take("+")
    while True:
        coeff, cell = _scan_summand(scanner, presentation, dim_of, target_dim)
        coeff = coeff.scaled(sign)
        if cell in entries:
            entries[cell] = entries[cell] + coeff
        else:
            entries[cell] = coeff
        scanner.skip_ws()
        if scanner.at_end():
            return entries
        if scanner.take("+"):
            sign = 1
        elif scanner.take("-"):
            sign = -1
        else:
            raise scanner.error("expected '+' or '-' between summands",
                                scanner.rest_token())


def _scan_summand(scanner, presentation, dim_of, target_dim):
    """Product of ring atoms ending in a cell name."""
    atoms = []  # (kind, value, col) with kind in {"ring", "cell"}
    while True:
        col = scanner.pos + 1
        atom_kind, atom_value = _scan_ring_atom(scanner, presentation, dim_of)
        atoms.append((atom_kind, atom_value, col))
        if not scanner.take("*"):
            break
    kind, value, col = atoms[-1]
    if kind != "cell":
        raise ProblemParseError("each boundary summand must end in a cell name",
                                scanner.line, col)
    cell = value
    if dim_of[cell] != target_dim:
        raise ProblemParseError(
            "boundary references %d-cell %r where a %d-cell is needed"
            % (dim_of[cell], cell, target_dim), scanner.line, col, cell)
    coeff = GroupRingElement.one(presentation)
    for kind, value, col in atoms[:-1]:
        if kind == "cell":
            raise ProblemParseError("cell name %r cannot appear inside a "
                                    "coefficient" % value, scanner.line, col,
                                    value)
        coeff = coeff * value
    return coeff, cell


def _scan_ring_atom(scanner, presentation, dim_of):
    """One atom: integer, generator power, parenthesised ring expr, or cell."""
    scanner.skip_ws()
    ch = scanner.peek()
    if ch == "(":
        scanner.expect("(")
        value = _scan_ring_expr(scanner, presentation)
        scanner.expect(")")
        return "ring", value
    if ch.isdigit() or ch in "+-":
        value = scanner.integer()
        return "ring", GroupRingElement(presentation, {Word(): value})
    col = scanner.pos + 1
    name = scanner.ident()
    if name in presentation.generators:
        return "ring", GroupRingElement.from_word(
            presentation, _scan_power(scanner, presentation, name))
    if dim_of is not None and name in dim_of:
        return "cell", name
    raise ProblemParseError("unknown generator or cell %r" % name,
                            scanner.line, col, name)


def _scan_ring_expr(scanner, presentation):
    total = GroupRingElement.zero(presentation)
    sign = -1 if scanner.take("-") else 1
    if sign == 1:
        scanner.take("+")
    while True:
        term = _scan_ring_term(scanner, presentation)
        total = total + term.scaled(sign)
        if scanner.take("+"):
            sign = 1
        elif scanner.take("-"):
            sign = -1
        else:
            return total


def _scan_ring_term(scanner, presentation):
    kind, value = _scan_ring_atom(scanner, presentation, None)
    product = value
    while scanner.take("*"):
        kind, value = _scan_ring_atom(scanner, presentation, None)
        product = product * value
    return product


def _parse_periods(lines, complex_, dim):
    one_cells = set(complex_.cells[1]) if complex_.top >= 1 else set()
    values = {}
    for lineno, content in lines:
        scanner = _Scanner(content, lineno)
        cell = scanner.ident()
        if cell not in one_cells:
            raise ProblemParseError("period for %r, which is not a 1-cell"
                                    % cell, lineno, 1, cell)
        if cell in values:
            raise ProblemParseError("period for %r given twice" % cell,
                                    lineno, 1, cell)
        scanner.expect("=")
        scanner.expect("[")
        vec = [scanner.rational()]
        while scanner.take(","):
            vec.append(scanner.rational())
        scanner.expect("]")
        if not scanner.at_end():
            raise scanner.error("trailing input after period vector",
                                scanner.rest_token())
        if len(vec) != dim:
            raise ProblemParseError(
                "period vector for %r has %d entries, the coefficient "
                "representation has dimension %d" % (cell, len(vec), dim),
                lineno, 1)
        values[cell] = tuple(vec)
    missing = sorted(one_cells - set(values))
    if missing:
        raise ProblemParseError("missing period vectors for: %s"
                                % ", ".join(missing))
    return PeriodAssignment(dim, values)


def _parse_diagonal(presentation, lines, complex_):
    three_cells = set(complex_.cells[3]) if complex_.top >= 3 else set()
    one_cells = set(complex_.cells[1]) if complex_.top >= 1 else set()
    two_cells = set(complex_.cells[2]) if complex_.top >= 2 else set()
    terms = {}
    for lineno, content in lines:
        scanner = _Scanner(content, lineno)
        cell = scanner.ident()
        if cell not in three_cells:
            raise ProblemParseError("diagonal terms for %r, which is not a "
                                    "3-cell" % cell, lineno, 1, cell)
        if scanner.take("+"):
            scanner.expect("=")
            sign = 1
        elif scanner.take("-"):
            scanner.expect("=")
            sign = -1
        else:
            raise scanner.error("expected '+=' or '-='", scanner.rest_token())
        scanner.expect("(")
        front_col = scanner.pos + 1
        front = scanner.ident()
        if front not in one_cells:
            raise ProblemParseError("front cell %r is not a 1-cell" % front,
                                    lineno, front_col, front)
        scanner.expect("|")
        front_word = _scan_word(scanner, presentation)
        scanner.expect(";")
        back_col = scanner.pos + 1
        back = scanner.ident()
        if back not in two_cells:
            raise ProblemParseError("back cell %r is not a 2-cell" % back,
                                    lineno, back_col, back)
        scanner.expect("|")
        back_word = _scan_word(scanner, presentation)
        scanner.expect(")")
        if not scanner.at_end():
            raise scanner.error("trailing input after diagonal term",
                                scanner.rest_token())
        terms.setdefault(cell, []).append((sign, front, front_word,
                                           back, back_word))
    return DiagonalApproximation(terms)


# ---------------------------------------------------------------------------
# serialisation


def format_rational(value):
    """Exact rational as an integer or a p/q string."""
    value = Fraction(value)
    if value.denominator == 1:
        return str(value.numerator)
    return "%d/%d" % (value.numerator, value.denominator)


def _format_matrix(matrix):
    return "[" + ",".join("[" + ",".join(str(x) for x in row) + "]"
                          for row in matrix.data) + "]"


def _format_boundary(complex_, cell):
    k = complex_.dim_of(cell)
    entries = complex_.boundaries.get(cell, {})
    chunks = []
    for target in complex_.cells[k - 1]:
        elem = entries.get(target)
        if elem is None or elem.is_zero():
            continue
        chunks.append("(%s)*%s" % (elem.text(), target))
    return " + ".join(chunks) if chunks else "0"


def serialize(problem):
    """Canonical text form; reparsing it yields an equal ProblemFile."""
    out = io.StringIO()
    write = out.write
    if problem.title or problem.notes:
        write("[metadata]\n")
        if problem.title:
            write("title = %s\n" % problem.title)
        for note in problem.notes:
            write("notes = %s\n" % note)
        write("\n")
    pres = problem.presentation
    write("[group]\n")
    write("generators = %s\n" % " ".join(pres.generators))
    for relation in pres.relations:
        write("relation %s\n" % relation.text(pres.generators))
    for name, rep in problem.representations.items():
        write("\n[representation %s]\n" % name)
        write("dim = %d\n" % rep.dim)
        for gen, matrix in zip(pres.generators, rep.matrices):
            write("%s = %s\n" % (gen, _format_matrix(matrix)))
    write("\n[bindings]\n")
    write("coefficient_rep = %s\n" % problem.coefficient_rep)
    write("form_rep = %s\n" % problem.form_rep)
    write("\n[complex]\n")
    for k, names in enumerate(problem.complex.cells):
        write("cells %d = %s\n" % (k, " ".join(names)))
    for k in range(1, problem.complex.top + 1):
        for cell in problem.complex.cells[k]:
            write("boundary %s = %s\n" % (cell, _format_boundary(problem.complex,
                                                                 cell)))
    write("\n[periods]\n")
    if problem.complex.top >= 1:
        for cell in problem.complex.cells[1]:
            vec = problem.periods.vector(cell)
            write("%s = [%s]\n" % (cell, ", ".join(format_rational(x)
                                                   for x in vec)))
    write("\n[diagonal]\n")
    if problem.complex.top >= 3:
        for cell in problem.complex.cells[3]:
            for sign, front, fw, back, bw in problem.diagonal.terms.get(cell, ()):
                op = "+=" if sign > 0 else "-="
                write("%s %s (%s | %s ; %s | %s)\n"
                      % (cell, op, front, fw.text(pres.generators),
                         back, bw.text(pres.generators)))
    return out.getvalue()
