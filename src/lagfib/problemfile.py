"""Reader and writer for the .iaf problem file format.

An .iaf file is line oriented and split into sections:

    [metadata]      optional title/notes
    [group]         generators = a b c ; relation word [= word] lines
    [representation <name>]
                    dim = n and one matrix line per generator
    [bindings]      coefficient_rep = ... / form_rep = ...
    [complex]       cells k = ... and boundary lines with group ring
                    coefficients, e.g.
                    boundary e2_1 = (1 - c*b)*e1_1 + (a - c)*e1_2 - e1_3
    [periods]       e1_1 = [0, 1, 0]   (rationals as p/q)
    [diagonal]      e3 += (e1_1 | 1 ; e2_2 | a)  front/back term lines

A boundary is 0 or a sum whose terms end in a cell, where

    word    := factor ('*' factor)*     factor := '1' | gen ['^' integer]
    sum     := ['+' | '-'] term (('+' | '-') term)*
    term    := atom ('*' atom)*   atom := integer | gen ['^' integer]
                                          | cell | '(' sum ')'
    integer := ['+' | '-'] digits

Blanks may separate any two tokens but the sign and digits of an integer:
``(a - 1)*-1*e0`` reads -1, while ``(a - 1)*- 1*e0`` is "expected an
integer (near '-')".

An integer has at most MAX_INTEGER_DIGITS digits, and so has every
coefficient a boundary builds from integers; a power or product spells
out at most MAX_WORD_LETTERS letters.

``parse_word`` reads one word by the grammar above, as a line of its own.

"#" starts a comment.  An error carries the 1-based line, and the column
in that source line of the token it quotes as ``near``, or else of what
it is about (a summand, matrix row or denominator; the first character
for a whole line).  Section header errors give column 1.  ``serialize``
writes a canonical form whose reparse compares equal, and whose bytes
back the input digest.
"""

import hashlib
import io
import re
from fractions import Fraction

from .complexes import EquivariantComplex
from .groupring import (
    MAX_WORD_LETTERS,
    GroupRingElement,
    Presentation,
    Representation,
    Word,
    WordSyntaxError,
)
from .intlinalg import IntMatrix
from .obstruction import DiagonalApproximation, PeriodAssignment

SECTION_ORDER = ("metadata", "group", "representation", "bindings",
                 "complex", "periods", "diagonal")

# Each match is one token with the blanks before it, as the groups
# (blanks, text, text if word characters, text if a digit).  A digit is a
# token, any other run of word characters is one, and so is any other
# character.  Names and integers are runs of touching tokens: "12" is one
# integer and "1_1" one name, while a word reads "12" as 1 before a 2.
_TOKEN = re.compile(r"([ \t]*)([^\w \t]|((\d)|\w+))")
_BLANK, _TEXT, _WORD, _DIGIT = range(4)
# A line's kind is named by its leading run of word characters, read as
# one whole token: "relationa*b" is not a relation line.
_KEYWORD = re.compile(r"\w*")
# A run of word characters, as a cell name must be.
_NAME = re.compile(r"\w+")
# What follows the '=' of a ``cells k = ...`` line up to the first blank.
_UNBLANK = re.compile(r"[^ \t]*")
_SIGNS = {"+": 1, "-": -1}
# The most digits an integer in a file, or a boundary coefficient built
# from them, may have: Python's default limit for turning an int into
# text, so every value read can be written back and digested.
MAX_INTEGER_DIGITS = 4300
_COEFFICIENT_BOUND = 10 ** MAX_INTEGER_DIGITS


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


class _Line:
    """One content line, read as tokens from left to right.

    ``source`` is the line without its comment, and ``text`` that without
    its outer whitespace.  ``scan`` splits the text into ``_TOKEN`` groups
    for the cursor ``i``.  Readers keep token indices, and turn them into
    offsets of ``text`` only for an error.
    """

    __slots__ = ("number", "source", "text", "start", "tokens", "i")

    def __init__(self, number, source, text):
        self.number = number
        self.source = source
        self.text = text

    def scan(self, keyword="", stop=None):
        """Tokenise what follows ``keyword`` and the whitespace after it,
        up to offset ``stop`` of ``text`` if given."""
        self.start = len(self.text) - len(self.text[len(keyword):].lstrip())
        self.tokens = _TOKEN.findall(self.text, self.start,
                                     len(self.text) if stop is None else stop)
        self.i = 0

    def offset(self, j=None):
        """Offset in ``text`` of token ``j``, by default the cursor's."""
        j = self.i if j is None else j
        if j >= len(self.tokens):
            return len(self.text)
        return (self.start + len(self.tokens[j][_BLANK])
                + sum(len(t[_BLANK]) + len(t[_TEXT]) for t in self.tokens[:j]))

    def error(self, message, token=None, at=None):
        """An error at offset ``at`` of ``text``, by default the cursor's."""
        at = self.offset() if at is None else at
        lead = len(self.source) - len(self.source.lstrip())
        return ProblemParseError(message, self.number, lead + at + 1, token)

    def peek(self):
        return self.tokens[self.i][_TEXT] if self.i < len(self.tokens) else ""

    def take(self, text):
        if self.i < len(self.tokens) and self.tokens[self.i][_TEXT] == text:
            self.i += 1
            return True
        return False

    def expect(self, text):
        if not self.take(text):
            raise self.error("expected %r" % text, self.rest())

    def end(self, message):
        """The last check of every line reader: no input is left."""
        if self.i < len(self.tokens):
            raise self.error(message, self.rest())

    def sign(self):
        """Take a '+' or '-' and give 1 or -1; give 0 if neither is next."""
        sign = _SIGNS.get(self.peek(), 0)
        self.i += sign != 0
        return sign

    def _run(self, field, first=None):
        """Index past the tokens from the cursor on that each touch the one
        before, those from ``first`` (by default the cursor) on having
        ``field``."""
        tokens, stop = self.tokens, self.i if first is None else first
        while (stop < len(tokens) and tokens[stop][field]
               and (stop == self.i or not tokens[stop][_BLANK])):
            stop += 1
        return stop

    def span(self, first, stop):
        """The source text of the touching tokens ``first`` to ``stop - 1``."""
        if stop == first + 1:
            return self.tokens[first][_TEXT]
        return "".join([t[_TEXT] for t in self.tokens[first:stop]])

    def rest(self):
        """The text up to the next blank, which errors quote as ``near``."""
        return self.span(self.i, self._run(_TEXT)) or "end of line"

    def name(self, known=None, message=None):
        """A run of word characters, digits included; given ``known``, one
        of those, or else the error ``message % name``."""
        token = self.tokens[self.i] if self.i < len(self.tokens) else None
        if token and token[_WORD] and not token[_DIGIT]:
            # a token of word characters not led by a digit is a whole run
            stop, value = self.i + 1, token[_TEXT]
        else:
            stop = self._run(_WORD)
            if stop == self.i:
                raise self.error("expected a name", self.rest())
            value = self.span(self.i, stop)
        if known is not None and value not in known:
            raise self.error(message % value, value)
        self.i = stop
        return value

    def integer(self):
        """Digits after an optional sign that touches them."""
        tokens, i = self.tokens, self.i
        n = len(tokens)
        # the common case: one digit that no other digit touches
        if i < n and tokens[i][_DIGIT] and (i + 1 == n
                                            or not tokens[i + 1][_DIGIT]
                                            or tokens[i + 1][_BLANK]):
            self.i = i + 1
            return int(tokens[i][_TEXT])
        first = i + (i < n and tokens[i][_TEXT] in _SIGNS)
        stop = self._run(_DIGIT, first)
        chunk = self.span(i, stop)
        if stop == first:
            raise self.error("expected an integer", chunk or self.rest())
        if stop - first > MAX_INTEGER_DIGITS:
            raise self.error("integer longer than %d digits"
                             % MAX_INTEGER_DIGITS, chunk)
        self.i = stop
        return int(chunk)

    def rational(self):
        """An integer, or p/q as a Fraction."""
        value = self.integer()
        if not self.take("/"):
            return value
        j = self.i
        denominator = self.integer()
        if denominator == 0:
            raise self.error("zero denominator", at=self.offset(j))
        return Fraction(value, denominator)

    def bracketed(self, read):
        """'[' read (',' read)* ']', as the list of what ``read`` gives."""
        self.expect("[")
        values = [read()]
        while self.take(","):
            values.append(read())
        self.expect("]")
        return values


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
        before = raw.split("#", 1)[0]
        stripped = before.strip()
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
        line = _Line(lineno, before, stripped)
        if current is None:
            raise line.error("content before the first section header",
                             stripped.split()[0], 0)
        current[2].append(line)
    return sections


def _key_value(line, keys, message):
    """(key, free text after it) for a ``key = ...`` line, one of ``keys``."""
    head, sep, tail = line.text.partition("=")
    if sep and head.strip() in keys:
        return head.strip(), tail.strip()
    raise line.error(message, line.text, 0)


def parse_problem_text(text):
    sections = _split_sections(text)
    seen = {}
    rep_sections = []
    for header, lineno, lines in sections:
        kind, *names = header.split() or [""]
        if kind == "representation":
            if len(names) != 1:
                raise ProblemParseError(
                    "representation header needs exactly one name",
                    lineno, 1, header)
            rep_sections.append((names[0], lineno, lines))
            continue
        if names or kind not in SECTION_ORDER:
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
        for line in seen["metadata"][1]:
            key, value = _key_value(line, ("title", "notes"),
                                    "metadata lines are 'title = ...' or "
                                    "'notes = ...'")
            if key == "title":
                title = value
            else:
                notes.append(value)

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
    relation_lines = []
    for line in lines:
        keyword = _KEYWORD.match(line.text).group()
        if keyword == "generators":
            _, value = _key_value(line, ("generators",),
                                  "malformed generators line")
            if generators is not None:
                raise line.error("generators listed twice", at=0)
            generators = value.split()
            if not generators:
                raise line.error("empty generator list", at=0)
            bare = _presentation(line, generators)
        elif keyword == "relation":
            relation_lines.append(line)
        else:
            raise line.error("group lines are 'generators = ...' or "
                             "'relation ...'", line.text, 0)
    if generators is None:
        raise ProblemParseError("[group] must list generators before relations")
    relations = []
    for line in relation_lines:
        line.scan("relation")
        relation = _scan_word(line, bare)
        if line.take("="):
            relation = _product(line, line.i, relation,
                                _scan_word(line, bare).inverse())
        relations.append(relation)
        line.end("trailing input after relation")
    return Presentation(generators, relations)


def _presentation(line, generators):
    """The relation-free presentation on a ``generators`` line's names, or
    the error at the first bad or repeated name."""
    try:
        return Presentation(generators)
    except WordSyntaxError as exc:
        at = line.text.index("=") + 1
        for name in generators[:exc.index + 1]:
            at = line.text.index(name, at) + len(name)
        name = generators[exc.index]
        raise line.error(str(exc), name, at - len(name)) from None


def parse_word(presentation, text):
    """Read ``text`` as one word over ``presentation``: the grammar, the
    MAX_WORD_LETTERS cap and the errors (ProblemParseError, with the
    column in ``text``) of the words in an .iaf file."""
    line = _Line(1, text, text.strip())
    line.scan()
    word = _scan_word(line, presentation)
    line.end("trailing input after word")
    return word


def _scan_word(line, presentation):
    """word := factor ('*' factor)*, factor := name ['^' int] | '1'."""
    word = None
    while True:
        if not line.take("1"):
            j = line.i
            name = line.name(presentation.generators, "unknown generator %r")
            index = presentation.generators.index(name)
            factor = Word.generator(index, _scan_exponent(line))
            word = factor if word is None else _product(line, j, word,
                                                         factor)
        if not line.take("*"):
            return Word() if word is None else word


def _scan_exponent(line):
    """An optional '^' exponent after a generator, 1 without one."""
    if not line.take("^"):
        return 1
    j = line.i  # the exponent's first token
    exponent = line.integer()
    _check_letters(line, j, abs(exponent))
    return exponent


def _product(line, j, left, right):
    """left * right of two Words, unless it would be too long; ``right``
    starts at token index ``j``."""
    _check_letters(line, j, len(left) + len(right))
    return left * right


def _times(line, j, left, right):
    """left * right of two coefficient dicts {Word: int}, unless a word or
    a coefficient of it would be too long; ``right`` starts at token
    index ``j``."""
    _check_letters(line, j, (max(map(len, left), default=0)
                             + max(map(len, right), default=0)))
    out = {}
    for w1, c1 in left.items():
        for w2, c2 in right.items():
            w = w1 * w2
            out[w] = out.get(w, 0) + c1 * c2
    out = {w: c for w, c in out.items() if c}
    if any(abs(c) >= _COEFFICIENT_BOUND for c in out.values()):
        raise _long_coefficient(line, j)
    return out


def _add(line, j, total, sign, terms):
    """Add sign * ``terms`` into the coefficient dict ``total``, dropping
    a word whose coefficient cancels, unless a coefficient would be too
    long; ``terms`` start at token index ``j``."""
    for word, c in terms.items():
        c = total.get(word, 0) + sign * c
        if not c:
            del total[word]
        elif abs(c) < _COEFFICIENT_BOUND:
            total[word] = c
        else:
            raise _long_coefficient(line, j)


def _long_coefficient(line, j):
    """The error for a coefficient made from token ``j`` on that has more
    than MAX_INTEGER_DIGITS digits."""
    return line.error("coefficient longer than %d digits"
                      % MAX_INTEGER_DIGITS, at=line.offset(j))


def _check_letters(line, j, letters):
    """An error at token ``j`` if a word would have too many letters."""
    if letters > MAX_WORD_LETTERS:
        raise line.error("word longer than %d letters" % MAX_WORD_LETTERS,
                         at=line.offset(j))


def _parse_matrix(line):
    # (index of the row's '[', entries) per row
    rows = line.bracketed(lambda: (line.i, line.bracketed(line.integer)))
    for j, row in rows:
        if len(row) != len(rows[0][1]):
            raise line.error("ragged matrix rows", at=line.offset(j))
    return IntMatrix([row for _, row in rows])


def _parse_representation(name, presentation, header_line, lines):
    dim = None
    matrices = {}
    for line in lines:
        line.scan()
        key = line.name()
        line.expect("=")
        if key == "dim":
            j = line.i
            dim = line.integer()
            if dim < 1:
                raise line.error("dim must be at least 1",
                                 line.span(j, line.i), line.offset(j))
            line.end("trailing input after dim")
            continue
        if key not in presentation.generators:
            raise line.error(
                "representation %r assigns unknown generator %r" % (name, key),
                key, 0)
        if key in matrices:
            raise line.error(
                "representation %r assigns %r twice" % (name, key), key, 0)
        matrix = _parse_matrix(line)
        line.end("trailing input after matrix")
        matrices[key] = (line, matrix)
    if dim is None:
        raise ProblemParseError("representation %r is missing 'dim = n'" % name,
                                header_line)
    ordered = []
    for gen in presentation.generators:
        if gen not in matrices:
            raise ProblemParseError(
                "representation %r is missing a matrix for generator %r"
                % (name, gen), header_line)
        line, matrix = matrices[gen]
        if matrix.rows != dim or matrix.cols != dim:
            raise line.error(
                "matrix for %r must be %dx%d, got %dx%d"
                % (gen, dim, dim, matrix.rows, matrix.cols), at=0)
        ordered.append(matrix)
    return Representation(name, presentation, ordered)


def _parse_bindings(lines, representations):
    bound = {}
    for line in lines:
        key, value = _key_value(line, ("coefficient_rep", "form_rep"),
                                "bindings lines are 'coefficient_rep = "
                                "...' or 'form_rep = ...'")
        if value not in representations:
            raise line.error("binding names unknown representation %r"
                             % value, value, len(line.text) - len(value))
        bound[key] = value
    if len(bound) < 2:
        raise ProblemParseError("[bindings] must set both coefficient_rep "
                                "and form_rep")
    return bound["coefficient_rep"], bound["form_rep"]


def _parse_complex(presentation, lines):
    cells = {}
    dim_of = {}
    boundary_lines = []
    for line in lines:
        keyword = _KEYWORD.match(line.text).group()
        if keyword == "cells":
            # the names are read by split: tokenise the head up to the
            # first blank after its '=', so every run it quotes is whole
            eq = line.text.find("=")
            line.scan("cells", None if eq < 0
                      else _UNBLANK.match(line.text, eq).end())
            k = line.integer()
            line.expect("=")
            at = eq + 1
            names = tuple(line.text[at:].split())
            if k in cells:
                raise line.error("cells %d listed twice" % k, at=0)
            for name in names:
                at = line.text.index(name, at)
                if name[0].isdigit() or not _NAME.fullmatch(name):
                    raise line.error("bad cell name %r" % name, name, at)
                if name in dim_of:
                    raise line.error("cell name %r is used twice" % name,
                                     name, at)
                dim_of[name] = k
                at += len(name)
            cells[k] = names
        elif keyword == "boundary":
            boundary_lines.append(line)
        else:
            raise line.error("complex lines are 'cells k = ...' or "
                             "'boundary cell = ...'", line.text, 0)
    if not cells:
        raise ProblemParseError("[complex] lists no cells")
    top = max(cells)
    for k in range(top + 1):
        if k not in cells:
            raise ProblemParseError("missing 'cells %d = ...' line" % k)
    cell_list = [cells[k] for k in range(top + 1)]

    atoms = _ring_atoms(presentation)
    boundaries = {}
    for line in boundary_lines:
        line.scan("boundary")
        cell = line.name(dim_of, "boundary for unknown cell %r")
        if cell in boundaries:
            raise line.error("boundary of %r given twice" % cell, cell,
                             line.start)
        if dim_of[cell] == 0:
            raise line.error("0-cell %r cannot have a boundary" % cell,
                             cell, line.start)
        line.expect("=")
        boundaries[cell] = _scan_boundary(line, presentation, atoms, dim_of,
                                          dim_of[cell] - 1)
    for k in range(1, top + 1):
        for cell in cell_list[k]:
            if cell not in boundaries:
                raise ProblemParseError("missing boundary line for %d-cell %r"
                                        % (k, cell))
    return EquivariantComplex(presentation, cell_list, boundaries)


# The boundary readers below walk a line's token list with a local index
# i and return the index past what they read; they set the line's cursor
# only to hand it to a _Line method, which reads the rarer tokens and
# builds every error.  Ring values are coefficient dicts {Word: int}
# without zero coefficients.  Those that ``_ring_atoms`` keeps are shared:
# nothing adds into an atom, and each boundary entry becomes one
# GroupRingElement.


def _ring_atoms(presentation):
    """The atoms of one file's ring expressions, each built once: the
    integer n under n, each generator under its name, and its power
    g^e under (name, e) once read."""
    atoms = {1: {Word(): 1}}
    for index, name in enumerate(presentation.generators):
        atoms[name] = {Word.generator(index): 1}
    return atoms


def _scan_boundary(line, presentation, atoms, dim_of, target_dim):
    """Sum of (group ring coefficient) * cell summands, or literal 0."""
    tokens = line.tokens
    n, i = len(tokens), line.i
    if i == n - 1 and tokens[i][_TEXT] == "0":
        return {}
    sums = {}
    sign = _SIGNS.get(tokens[i][_TEXT], 0) if i < n else 0
    i += sign != 0
    sign = sign or 1
    while sign:
        j = i
        coeff, cell, i = _scan_summand(line, i, atoms, dim_of, target_dim)
        if cell not in sums:
            sums[cell] = (dict(coeff) if sign > 0
                          else {w: -c for w, c in coeff.items()})
        else:
            _add(line, j, sums[cell], sign, coeff)
        sign = _SIGNS.get(tokens[i][_TEXT], 0) if i < n else 0
        i += sign != 0
    line.i = i
    line.end("expected '+' or '-' between summands")
    return {cell: GroupRingElement(presentation, total)
            for cell, total in sums.items()}


def _scan_summand(line, i, atoms, dim_of, target_dim):
    """Product of ring atoms ending in a cell name, from token ``i``:
    (coefficient, cell, index past it)."""
    tokens = line.tokens
    factors = []  # (token index, atom) per atom before the last
    j = i
    value, i = _scan_ring_atom(line, i, atoms, dim_of)
    while i < len(tokens) and tokens[i][_TEXT] == "*":
        factors.append((j, value))
        j = i + 1
        value, i = _scan_ring_atom(line, j, atoms, dim_of)
    if type(value) is not str:
        raise line.error("each boundary summand must end in a cell name",
                         at=line.offset(j))
    if dim_of[value] != target_dim:
        raise line.error(
            "boundary references %d-cell %r where a %d-cell is needed"
            % (dim_of[value], value, target_dim), value, line.offset(j))
    coeff = None
    for j, factor in factors:
        if type(factor) is str:
            raise line.error("cell name %r cannot appear inside a "
                             "coefficient" % factor, factor, line.offset(j))
        coeff = factor if coeff is None else _times(line, j, coeff, factor)
    return (atoms[1] if coeff is None else coeff), value, i


def _scan_ring_atom(line, i, atoms, dim_of):
    """One atom from token ``i``: integer, generator power, parenthesised
    ring expr, or (given ``dim_of``) a cell name, which is given as a
    str; and the index past it."""
    tokens = line.tokens
    text = tokens[i][_TEXT] if i < len(tokens) else ""
    atom = atoms.get(text)
    if atom is not None:  # a generator; none is an integer or a cell
        if i + 1 == len(tokens) or tokens[i + 1][_TEXT] != "^":
            return atom, i + 1
        line.i = i + 1
        key = text, _scan_exponent(line)
        atom = atoms.get(key)
        if atom is None:
            (word,) = atoms[text]  # the generator's one word
            atom = atoms[key] = {word ** key[1]: 1}
        return atom, line.i
    if dim_of is not None and text in dim_of:
        return text, i + 1
    line.i = i
    if text == "(":
        value, line.i = _scan_ring_expr(line, i + 1, atoms)
        line.expect(")")
        return value, line.i
    # "" is in "+-" too: at the end of the line an integer is expected
    if text[:1].isdigit() or text in "+-":
        value = line.integer()
        atom = atoms.get(value)
        if atom is None:
            atom = atoms[value] = {Word(): value} if value else {}
        return atom, line.i
    name = line.name()
    raise line.error("unknown generator or cell %r" % name, name,
                     line.offset(i))


def _scan_ring_expr(line, i, atoms):
    """A signed sum of ring terms from token ``i``: (value, index past
    it)."""
    tokens = line.tokens
    n = len(tokens)
    total = {}
    sign = _SIGNS.get(tokens[i][_TEXT], 0) if i < n else 0
    i += sign != 0
    sign = sign or 1
    while sign:
        j = i
        term, i = _scan_ring_term(line, i, atoms)
        _add(line, j, total, sign, term)
        sign = _SIGNS.get(tokens[i][_TEXT], 0) if i < n else 0
        i += sign != 0
    return total, i


def _scan_ring_term(line, i, atoms):
    """A product of ring atoms from token ``i``: (value, index past it)."""
    tokens = line.tokens
    product, i = _scan_ring_atom(line, i, atoms, None)
    while i < len(tokens) and tokens[i][_TEXT] == "*":
        factor, stop = _scan_ring_atom(line, i + 1, atoms, None)
        product = _times(line, i + 1, product, factor)
        i = stop
    return product, i


def _parse_periods(lines, complex_, dim):
    one_cells = set(complex_.cells_in(1))
    values = {}
    for line in lines:
        line.scan()
        cell = line.name(one_cells, "period for %r, which is not a 1-cell")
        if cell in values:
            raise line.error("period for %r given twice" % cell, cell, 0)
        line.expect("=")
        vec = line.bracketed(line.rational)
        line.end("trailing input after period vector")
        if len(vec) != dim:
            raise line.error(
                "period vector for %r has %d entries, the coefficient "
                "representation has dimension %d" % (cell, len(vec), dim),
                at=0)
        values[cell] = tuple(vec)
    missing = sorted(one_cells - set(values))
    if missing:
        raise ProblemParseError("missing period vectors for: %s"
                                % ", ".join(missing))
    return PeriodAssignment(dim, values)


def _scan_cell_word(line, presentation, cells, message):
    """``cell | word`` in a diagonal term, the cell taken from ``cells``."""
    cell = line.name(cells, message)
    line.expect("|")
    return cell, _scan_word(line, presentation)


def _parse_diagonal(presentation, lines, complex_):
    three_cells = set(complex_.cells_in(3))
    one_cells = set(complex_.cells_in(1))
    two_cells = set(complex_.cells_in(2))
    terms = {}
    for line in lines:
        line.scan()
        cell = line.name(three_cells,
                         "diagonal terms for %r, which is not a 3-cell")
        sign = line.sign()
        if not sign:
            raise line.error("expected '+=' or '-='", line.rest())
        line.expect("=")
        line.expect("(")
        front, front_word = _scan_cell_word(line, presentation, one_cells,
                                            "front cell %r is not a 1-cell")
        line.expect(";")
        back, back_word = _scan_cell_word(line, presentation, two_cells,
                                          "back cell %r is not a 2-cell")
        line.expect(")")
        line.end("trailing input after diagonal term")
        terms.setdefault(cell, []).append((sign, front, front_word,
                                           back, back_word))
    return DiagonalApproximation(terms)


# ---------------------------------------------------------------------------
# serialisation


def format_rational(value):
    """An int or a Fraction as an integer or a p/q string."""
    if value.denominator == 1:
        return str(value.numerator)
    return "%d/%d" % (value.numerator, value.denominator)


def _format_matrix(matrix):
    return "[" + ",".join("[" + ",".join(str(x) for x in row) + "]"
                          for row in matrix.data) + "]"


def _format_boundary(entries, position, texts):
    """A boundary's nonzero entries, in the cell order of ``position``.
    ``texts`` holds the text of each coefficient rendered so far, by its
    terms, and gains those rendered here."""
    chunks = []
    for target in sorted(entries, key=position.__getitem__):
        coeff = entries[target]
        key = frozenset(coeff.terms.items())
        text = texts.get(key)
        if text is None:
            text = texts[key] = coeff.text()
        chunks.append("(%s)*%s" % (text, target))
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
    complex_ = problem.complex
    position = {name: i for names in complex_.cells
                for i, name in enumerate(names)}
    for k, names in enumerate(complex_.cells):
        write("cells %d = %s\n" % (k, " ".join(names)))
    texts = {}
    for k in range(1, complex_.top + 1):
        for cell in complex_.cells[k]:
            write("boundary %s = %s\n"
                  % (cell, _format_boundary(complex_.boundaries[cell],
                                            position, texts)))
    write("\n[periods]\n")
    for cell in problem.complex.cells_in(1):
        vec = problem.periods.vector(cell)
        write("%s = [%s]\n" % (cell, ", ".join(format_rational(x)
                                               for x in vec)))
    write("\n[diagonal]\n")
    for cell in problem.complex.cells_in(3):
        for sign, front, fw, back, bw in problem.diagonal.terms.get(cell, ()):
            op = "+=" if sign > 0 else "-="
            write("%s %s (%s | %s ; %s | %s)\n"
                  % (cell, op, front, fw.text(pres.generators),
                     back, bw.text(pres.generators)))
    return out.getvalue()
