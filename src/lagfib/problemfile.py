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
    [diagonal]      e3 += (e1_3 | 1 ; e2_1 | c)  front/back term lines

A boundary is 0 or a sum whose terms end in a cell, where

    word    := factor ('*' factor)*     factor := '1' | gen ['^' integer]
    sum     := ['+' | '-'] term (('+' | '-') term)*
    term    := atom ('*' atom)*   atom := integer | gen ['^' integer]
                                          | cell | '(' sum ')'
    integer := ['+' | '-'] digits

Blanks may separate any two tokens but the sign and digits of an integer:
``(a - 1)*-1*e0`` reads -1, while ``(a - 1)*- 1*e0`` is "expected an
integer (near '-')".  A digit is a token of its own, so a word reads
``12*a`` as the factor 1 before a stray 2.  Digits are those of Unicode
(``str.isdecimal``), as ``int`` reads them.

Lines are read in two ways.  The common shapes of a well-formed file
each have one compiled pattern, which reads a whole line from its
groups: relations whose words are products of generators and '1's,
``dim = n``, matrix lines, ``cells k = ...``, period lines, diagonal
terms, and boundaries whose summands are a cell after an optional
coefficient (a generator, an integer, or a parenthesised sum of signed
integers and products of generators).  Only lines with an error and
rare shapes, such as a power or a signed integer, go to the token
readers: one regex splits the line into tokens, and one reader per
grammar rule walks them.  They alone raise errors, so a
pattern takes only lines they take, and builds what they build,
letters spent included.  Both give each word of the file its id in one
``WordTable``, multiply ids through its products, and hand each boundary
on as its terms (target index, word id, coefficient), from which
``serialize`` writes it.

An integer has at most MAX_INTEGER_DIGITS digits, and so has every
coefficient a boundary builds from integers; a power or product spells
out at most MAX_WORD_LETTERS letters, and the powers and ring products
of one file at most MAX_FILE_LETTERS together.  A word's product only
moves letters its powers spelled out, and is not counted again.
Parentheses nest at most MAX_NESTING deep, which keeps the reader far
from Python's recursion limit.

``parse_word`` reads one word by the grammar above, as a line of its own.

"#" starts a comment.  An error carries the 1-based line, and the column
in that source line of the token it quotes as ``near``, or else of what
it is about (a summand, matrix row or denominator; the first character
for a whole line).  Section header errors give column 1.  ``serialize``
writes a canonical form whose reparse compares equal, and whose bytes
back the input digest: their SHA-256, taken with the interpreter's
built-in module, so that importing this module loads no OpenSSL
(``hashlib`` loads libcrypto, which adds more to a run's peak memory
than the rest of the package does).
"""

import io
import re
from math import gcd, lcm

try:
    from _sha2 import sha256                # Python 3.12 and later
except ImportError:
    try:
        from _sha256 import sha256          # Python 3.10 and 3.11
    except ImportError:
        from hashlib import sha256          # last resort: loads OpenSSL

from .complexes import EquivariantComplex
from .groupring import (
    MAX_FILE_LETTERS,
    MAX_WORD_LETTERS,
    Presentation,
    Representation,
    Word,
    WordSyntaxError,
    WordTable,
)
from .intlinalg import IntMatrix, rational_text
from .obstruction import DiagonalApproximation, PeriodAssignment

SECTION_ORDER = ("metadata", "group", "representation", "bindings",
                 "complex", "periods", "diagonal")

# Each match is one token after the blanks before it, as its text.  A
# decimal digit is a token, any other run of word characters is one, and
# so is any other character; a token's kind is read from its text.  Names
# and integers are runs of touching tokens: "12" is one integer and "1_1"
# one name.  A scanned line's tokens end in the empty text.
_TOKEN = re.compile(r"[ \t]*(\d|\w+|[^\w \t])")
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
# The deepest a boundary's parentheses may nest: each level is three
# calls of the reader (sum, term, atom).
MAX_NESTING = 100

# The common shapes of a well-formed line, each one pattern over the
# whole line (see "line patterns" below).  Blanks are those the token
# readers skip, and a name is a run of word characters, as they read it.
_B = r"[ \t]*"
_INT = r"[-+]?\d+"
_ROW = r"\[{0}{1}(?:{0},{0}{1})*{0}\]".format(_B, _INT)
# p or p/q, q != 0, as the groups (p, q)
_PAIR = re.compile(r"([-+]?\d+)(?:{0}/{0}([-+]?0*[1-9]\d*))?".format(_B))
_PRODUCT = r"\w+(?:{0}\*{0}\w+)*".format(_B)
_MATRIX_LINE = re.compile(
    r"(?!dim\b)(\w+){0}={0}\[{0}({1}(?:{0},{0}{1})*){0}\]".format(_B, _ROW))
_PERIOD_LINE = re.compile(r"(\w+){0}={0}\[{0}({1}(?:{0},{0}{1})*){0}\]"
                          .format(_B, _PAIR.pattern))
_BOUNDARY_LINE = re.compile(r"boundary[ \t]+(\w+)[ \t]*=(.*)", re.S)
_RELATION_LINE = re.compile(r"relation[ \t]+({1})(?:{0}={0}({1}))?"
                            .format(_B, _PRODUCT))
_DIM_LINE = re.compile(r"dim{0}={0}(\d+)".format(_B))
# A cells line's names are checked in code, as the token reader checks
# them: "\u00b2" is a word character and no \d, yet it isdigit(), so it
# may not lead a name.
_CELLS_LINE = re.compile(r"cells[ \t]+(\d+){0}={0}([\w \t]*)".format(_B))
_DIAGONAL_LINE = re.compile(
    r"(\w+){0}([-+])={0}\({0}(\w+){0}\|{0}({1}){0};{0}(\w+){0}\|{0}({1}){0}\)"
    .format(_B, _PRODUCT))
_ROW_BODY = re.compile(r"\[([^]]*)\]")
# A boundary's summands, and the terms of a sum in parentheses, are read
# by ``findall``: each match is one piece, or else one character in the
# last group, which no well-formed piece has.  A summand is (sign, the sum
# in its coefficient's parentheses, name, name after a '*'), and a term
# (sign, integer, product of names that do not start with a digit).
_SUMMAND = re.compile(r"{0}([-+]?){0}(?:\(([^()]+)\){0}\*{0})?(\w+)"
                      r"(?:{0}\*{0}(\w+))?|(.)".format(_B), re.S)
_RING_TERM = re.compile(r"{0}([-+]?){0}(?:(\d+)|((?!\d)\w+"
                        r"(?:{0}\*{0}(?!\d)\w+)*))|(.)".format(_B), re.S)


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


def _is_word(text):
    """Whether a token is word characters (``\\w``: isalnum, or '_')."""
    return text[:1].isalnum() or text[:1] == "_"


class _Line:
    """One content line: its data, its tokens and the building of its
    errors.

    ``source`` is the line without its comment, and ``text`` that without
    its outer whitespace.  ``scan`` splits the text into the ``texts`` of
    its tokens, which end in the empty text, and finds their offsets in
    ``text``.  Readers keep token indices; only an error and a run of
    touching tokens read the offsets.  ``letters``, one list
    shared by the lines of a file, holds the letters its powers and
    products may still spell out, and ``depth`` counts the parentheses
    open where the reader is.
    """

    __slots__ = ("number", "source", "text", "letters", "depth", "texts",
                 "_offsets")

    def __init__(self, number, source, text, letters):
        self.number = number
        self.source = source
        self.text = text
        self.letters = letters
        self.depth = 0

    def scan(self, keyword="", stop=None):
        """Tokenise what follows ``keyword`` and the whitespace after it,
        up to offset ``stop`` of ``text`` if given."""
        start = len(self.text) - len(self.text[len(keyword):].lstrip())
        tokens = list(_TOKEN.finditer(
            self.text, start, len(self.text) if stop is None else stop))
        self.texts = [token[1] for token in tokens] + [""]
        self._offsets = [token.start(1) for token in tokens] + [len(self.text)]

    def offset(self, j):
        """Offset in ``text`` of token ``j``, the end of ``text`` for the
        empty last one."""
        return self._offsets[j]

    def touches(self, j):
        """Whether token ``j`` follows token ``j - 1`` without a blank."""
        return self.offset(j) == self.offset(j - 1) + len(self.texts[j - 1])

    def error(self, message, token=None, at=0):
        """An error at offset ``at`` of ``text``."""
        lead = len(self.source) - len(self.source.lstrip())
        return ProblemParseError(message, self.number, lead + at + 1, token)

    def run(self, j, kind):
        """Index past the tokens from ``j`` on whose text is of ``kind``
        and that each touch the one before, but the first."""
        stop = j
        while kind(self.texts[stop]) and (stop == j or self.touches(stop)):
            stop += 1
        return stop

    def span(self, first, stop):
        """The source text of the touching tokens ``first`` to ``stop - 1``."""
        return "".join(self.texts[first:stop])

    def rest(self, j):
        """The text from token ``j`` up to the next blank, which errors
        quote as ``near``."""
        return self.span(j, self.run(j, bool)) or "end of line"


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
        return sha256(serialize(self).encode("utf-8")).hexdigest()

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
    letters = [MAX_FILE_LETTERS]
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
        line = _Line(lineno, before, stripped, letters)
        if current is None:
            raise line.error("content before the first section header",
                             stripped.split()[0])
        current[2].append(line)
    return sections


def _key_value(line, keys, message):
    """(key, free text after it) for a ``key = ...`` line, one of ``keys``."""
    head, sep, tail = line.text.partition("=")
    if sep and head.strip() in keys:
        return head.strip(), tail.strip()
    raise line.error(message, line.text)


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

    title, notes = None, []
    if "metadata" in seen:
        for line in seen["metadata"][1]:
            key, value = _key_value(line, ("title", "notes"),
                                    "metadata lines are 'title = ...' or "
                                    "'notes = ...'")
            if key == "notes":
                notes.append(value)
            elif title is not None:
                raise line.error("title given twice")
            else:
                title = value

    presentation = _parse_group(seen["group"][1])
    generators = presentation.generators
    # the file's words, the generators at ids 1 to n, and {text: word id}
    # for "1", each generator and each product of them a pattern has read
    words = WordTable(Word.generator(g) for g in range(len(generators)))
    text_ids = {"1": 0, **{name: g + 1 for g, name in enumerate(generators)}}
    representations = {}
    inverses = {}  # shared, so each distinct matrix is inverted once
    for name, lineno, lines in rep_sections:
        if name in representations:
            raise ProblemParseError("duplicate representation %r" % name,
                                    lineno, 1, name)
        representations[name] = _parse_representation(
            name, presentation, lineno, lines, inverses)

    coefficient_rep, form_rep = _parse_bindings(seen["bindings"][1],
                                                representations)
    complex_ = _parse_complex(presentation, seen["complex"][1], words,
                              text_ids)
    dim = representations[coefficient_rep].dim
    periods = _parse_periods(seen["periods"][1], complex_, dim)
    diagonal = _parse_diagonal(presentation, seen["diagonal"][1], complex_,
                               words, text_ids)
    return ProblemFile(title or "", tuple(notes), presentation,
                       representations, coefficient_rep, form_rep, complex_,
                       periods, diagonal)


def _parse_group(lines):
    generators = None
    relation_lines = []
    for line in lines:
        keyword = _KEYWORD.match(line.text).group()
        if keyword == "generators":
            _, value = _key_value(line, ("generators",),
                                  "malformed generators line")
            if generators is not None:
                raise line.error("generators listed twice")
            generators = value.split()
            if not generators:
                raise line.error("empty generator list")
            bare = _presentation(line, generators)
        elif keyword == "relation":
            relation_lines.append(line)
        else:
            raise line.error("group lines are 'generators = ...' or "
                             "'relation ...'", line.text)
    if generators is None:
        raise ProblemParseError("[group] must list generators before relations")
    relations = []
    for line in relation_lines:
        m = _shape(_RELATION_LINE, line)
        # a relation without '=' is one with '= 1'
        sides = m and [_product_word(bare, side) for side in m.groups("1")]
        if sides and None not in sides:
            relations.append(sides[0] * sides[1].inverse())
            continue
        line.scan("relation")
        relation, i = _word(line, 0, bare)
        if line.texts[i] == "=":
            right, stop = _word(line, i + 1, bare)
            _check_letters(line, i + 1, len(relation) + len(right))
            relation = relation * right.inverse()
            i = stop
        _end(line, i, "trailing input after relation")
        relations.append(relation)
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
    letter caps, as for a file of its own, and the errors
    (ProblemParseError, with the column in ``text``) of the words in an
    .iaf file."""
    line = _Line(1, text, text.strip(), [MAX_FILE_LETTERS])
    line.scan()
    word, i = _word(line, 0, presentation)
    _end(line, i, "trailing input after word")
    return word


def _parse_representation(name, presentation, header_line, lines, inverses):
    dim = None
    matrices = {}
    for line in lines:
        m = _shape(_MATRIX_LINE, line)
        if m and m[1] in presentation.generators and m[1] not in matrices:
            rows = [tuple(map(int, row.split(",")))
                    for row in _ROW_BODY.findall(m[2])]
            if len(set(map(len, rows))) == 1:
                matrices[m[1]] = (line, IntMatrix._unchecked(tuple(rows)))
                continue
        m = _shape(_DIM_LINE, line)
        if m and dim is None and int(m[1]):
            dim = int(m[1])
            continue
        line.scan()
        key, i = _name(line, 0)
        i = _expect(line, i, "=")
        if key == "dim":
            if dim is not None:
                raise line.error("dim given twice")
            dim, stop = _integer(line, i)
            if dim < 1:
                raise line.error("dim must be at least 1",
                                 line.span(i, stop), line.offset(i))
            _end(line, stop, "trailing input after dim")
            continue
        if key not in presentation.generators:
            raise line.error(
                "representation %r assigns unknown generator %r" % (name, key),
                key)
        if key in matrices:
            raise line.error(
                "representation %r assigns %r twice" % (name, key), key)
        rows, i = _bracketed(line, i, _matrix_row)
        for j, row in rows:
            if len(row) != len(rows[0][1]):
                raise line.error("ragged matrix rows", None, line.offset(j))
        _end(line, i, "trailing input after matrix")
        matrices[key] = (line, IntMatrix._unchecked(
            tuple(tuple(row) for _, row in rows)))
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
                % (gen, dim, dim, matrix.rows, matrix.cols))
        ordered.append(matrix)
    return Representation(name, presentation, ordered, inverses)


def _matrix_row(line, i):
    """A bracketed row of integers from token ``i``: ((i, entries), index
    past it)."""
    entries, stop = _bracketed(line, i, _integer)
    return (i, entries), stop


def _parse_bindings(lines, representations):
    bound = {}
    for line in lines:
        key, value = _key_value(line, ("coefficient_rep", "form_rep"),
                                "bindings lines are 'coefficient_rep = "
                                "...' or 'form_rep = ...'")
        if key in bound:
            raise line.error("%s given twice" % key)
        if value not in representations:
            raise line.error("binding names unknown representation %r"
                             % value, value, len(line.text) - len(value))
        bound[key] = value
    if len(bound) < 2:
        raise ProblemParseError("[bindings] must set both coefficient_rep "
                                "and form_rep")
    return bound["coefficient_rep"], bound["form_rep"]


def _parse_complex(presentation, lines, words, text_ids):
    cells = {}
    dim_of = {}
    boundary_lines = []
    for line in lines:
        keyword = _KEYWORD.match(line.text).group()
        if keyword == "cells":
            m = _shape(_CELLS_LINE, line)
            if m:
                k, names = int(m[1]), m[2].split()
                if (k not in cells and len(set(names)) == len(names)
                        and not any(name[0].isdigit() or name in dim_of
                                    for name in names)):
                    cells[k] = tuple(names)
                    dim_of.update(dict.fromkeys(names, k))
                    continue
            # the names are read by split: tokenise the head up to the
            # first blank after its '=', so every run it quotes is whole
            eq = line.text.find("=")
            line.scan("cells", None if eq < 0
                      else _UNBLANK.match(line.text, eq).end())
            k, i = _integer(line, 0)
            if k < 0:
                raise line.error("negative cell degree %d" % k,
                                 line.span(0, i), line.offset(0))
            _expect(line, i, "=")
            at = eq + 1
            names = tuple(line.text[at:].split())
            if k in cells:
                raise line.error("cells %d listed twice" % k)
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
                             "'boundary cell = ...'", line.text)
    if not cells:
        raise ProblemParseError("[complex] lists no cells")
    top = max(cells)
    for k in range(top + 1):
        if k not in cells:
            raise ProblemParseError("missing 'cells %d = ...' line" % k)
    cell_list = tuple(cells[k] for k in range(top + 1))
    # each degree's {cell: index}
    index = [{name: i for i, name in enumerate(names)} for names in cell_list]

    boundaries = {}
    for line in boundary_lines:
        cell, terms = (_boundary_match(line, words, text_ids, dim_of, index,
                                       boundaries) or (None, None))
        if cell is None:
            line.scan("boundary")
            cell, i = _name(line, 0, dim_of, "boundary for unknown cell %r")
            if cell in boundaries:
                raise line.error("boundary of %r given twice" % cell, cell,
                                 line.offset(0))
            if dim_of[cell] == 0:
                raise line.error("0-cell %r cannot have a boundary" % cell,
                                 cell, line.offset(0))
            i = _expect(line, i, "=")
            terms = ()
            # a boundary is the literal 0 or a sum of terms that end in a cell
            if line.texts[i] != "0" or line.texts[i + 1]:
                sums, i = _sum(line, i, words, text_ids, dim_of,
                               dim_of[cell] - 1)
                _end(line, i, "expected '+' or '-' between summands")
                lower = index[dim_of[cell] - 1]
                terms = tuple((lower[target], w, c)
                              for target, elem in sums.items()
                              for w, c in elem.items())
        boundaries[cell] = terms
    for k in range(1, top + 1):
        for cell in cell_list[k]:
            if cell not in boundaries:
                raise ProblemParseError("missing boundary line for %d-cell %r"
                                        % (k, cell))
    # every check of the complex's constructor is made above
    return EquivariantComplex._unchecked(
        presentation, cell_list, tuple(words.words),
        tuple(tuple(boundaries.get(cell, ()) for cell in names)
              for names in cell_list))


def _parse_periods(lines, complex_, dim):
    one_cells = set(complex_.cells_in(1))
    values = {}
    for line in lines:
        m = _shape(_PERIOD_LINE, line)
        if m and m[1] in one_cells and m[1] not in values:
            vec = [_lowest(int(p), int(q or 1))
                   for p, q in _PAIR.findall(m[2])]
            if len(vec) == dim:
                values[m[1]] = vec
                continue
        line.scan()
        cell, i = _name(line, 0, one_cells,
                        "period for %r, which is not a 1-cell")
        if cell in values:
            raise line.error("period for %r given twice" % cell, cell)
        i = _expect(line, i, "=")
        vec, i = _bracketed(line, i, _rational)
        _end(line, i, "trailing input after period vector")
        if len(vec) != dim:
            raise line.error(
                "period vector for %r has %d entries, the coefficient "
                "representation has dimension %d" % (cell, len(vec), dim))
        values[cell] = vec
    missing = sorted(one_cells - set(values))
    if missing:
        raise ProblemParseError("missing period vectors for: %s"
                                % ", ".join(missing))
    # L.P over the least common denominator L of the reduced pairs
    # are in lowest terms, each prime of L dividing the q of some pair
    L = lcm(*(q for vec in values.values() for _, q in vec))
    return PeriodAssignment._unchecked(
        dim, {cell: tuple(p * (L // q) for p, q in vec)
              for cell, vec in values.items()}, L)


def _parse_diagonal(presentation, lines, complex_, words, text_ids):
    three_cells = set(complex_.cells_in(3))
    one_cells = set(complex_.cells_in(1))
    two_cells = set(complex_.cells_in(2))
    terms = {}
    for line in lines:
        m = _shape(_DIAGONAL_LINE, line)
        if (m and m[1] in three_cells and m[3] in one_cells
                and m[5] in two_cells):
            front = _product_id(words, text_ids, m[4])
            back = _product_id(words, text_ids, m[6])
            if front is not None and back is not None:
                terms.setdefault(m[1], []).append(
                    (_SIGNS[m[2]], m[3], words.words[front], m[5],
                     words.words[back]))
                continue
        line.scan()
        cell, i = _name(line, 0, three_cells,
                        "diagonal terms for %r, which is not a 3-cell")
        sign = _SIGNS.get(line.texts[i], 0)
        if not sign:
            raise line.error("expected '+=' or '-='", line.rest(i),
                             line.offset(i))
        i = _expect(line, _expect(line, i + 1, "="), "(")
        front, i = _name(line, i, one_cells, "front cell %r is not a 1-cell")
        front_word, i = _word(line, _expect(line, i, "|"), presentation)
        i = _expect(line, i, ";")
        back, i = _name(line, i, two_cells, "back cell %r is not a 2-cell")
        back_word, i = _word(line, _expect(line, i, "|"), presentation)
        _end(line, _expect(line, i, ")"), "trailing input after diagonal term")
        terms.setdefault(cell, []).append((sign, front, front_word,
                                           back, back_word))
    return DiagonalApproximation._unchecked(
        {cell: tuple(rows) for cell, rows in terms.items()})


# ---------------------------------------------------------------------------
# line patterns
#
# Each reader of a line's pattern gives what the token readers give for
# it, letters spent included, or None for a line it leaves to them: a
# pattern accepts only lines they accept, and the token readers alone
# raise errors.  Only lines of at most MAX_INTEGER_DIGITS characters are
# matched, so no integer, coefficient or word read from one reaches a cap.


def _shape(pattern, line):
    """The match of ``pattern`` over the whole text of ``line``, or None."""
    if len(line.text) <= MAX_INTEGER_DIGITS:
        return pattern.fullmatch(line.text)


def _product_word(presentation, text):
    """The word of a product of '1's and generators, as ``_word`` reads
    it, or None if a factor is neither."""
    generators = presentation.generators
    letters = []
    for name in _NAME.findall(text):
        if name in generators:
            letters.append((generators.index(name), 1))
        elif name != "1":
            return None
    return Word(letters)


def _product_id(words, text_ids, text):
    """The id in ``words`` of a product of '1's and generators, read once
    per text into ``text_ids``, or None if a factor is neither."""
    w = text_ids.get(text)
    if w is None:
        w = 0
        for name in _NAME.findall(text):
            if name not in text_ids:
                return None
            w = words.product(w, text_ids[name])
        text_ids[text] = w
    return w


def _boundary_match(line, words, text_ids, dim_of, index, boundaries):
    """(cell, terms) of a boundary line whose summands are each a cell
    after an optional coefficient: a generator, an integer or a sum in
    parentheses, that is not 0; or None.  The terms are the triples (index
    of the target cell, word id in ``words``, coefficient) in the order
    the token reader gives them, merged (``_merged``) when a cell is in
    two summands.  (A coefficient that is 0 leaves no term, but the token
    reader keeps its cell's place.)"""
    m = _shape(_BOUNDARY_LINE, line)
    degree = m and dim_of.get(m[1])
    if not degree or m[1] in boundaries:
        return None
    lower = index[degree - 1]
    terms, targets, spelled = [], set(), 0
    for k, (sign, inner, name, target, _) in enumerate(_SUMMAND.findall(m[2])):
        if not target:
            name, target = "", name
        w = None if inner else text_ids.get(name or "1")
        coeff = None
        if w is None:
            coeff, spent = _ring_sum(line, inner or name, words, text_ids)
            spelled += spent
        # a summand is read whole, and ends in a cell one degree down
        t = lower.get(target)
        if ((w is None and not coeff) or (k and not sign)
                or (inner and name) or target in text_ids or t is None):
            return None
        targets.add(t)
        s = -1 if sign == "-" else 1
        if coeff is None:
            terms.append((t, w, s))
        else:
            terms += [(t, w, s * c) for w, c in coeff.items()]
    if not targets or spelled > line.letters[0]:
        return None
    line.letters[0] -= spelled
    return m[1], tuple(terms if len(targets) == k + 1 else _merged(terms))


def _merged(terms):
    """Triples (target, word id, coefficient) with the coefficients of
    one target and word added up term by term, as ``_sum`` adds
    summands: each target where it first comes, each word where it
    first comes or comes back after a cancellation, and none whose
    coefficient cancels."""
    entries = {}
    for target, w, c in terms:
        entry = entries.setdefault(target, {})
        c += entry.get(w, 0)
        if c:
            entry[w] = c
        else:
            del entry[w]
    return [(target, w, c) for target, entry in entries.items()
            for w, c in entry.items()]


def _ring_sum(line, text, words, text_ids):
    """(coefficient {word id: int}, letters spelled) of a sum of signed
    integers and products of generators, as inside a coefficient's
    parentheses, or (None, 0).  The coefficients of one word are added
    up, and a word whose coefficient cancels is dropped, as ``_add``
    does.  A product of n generators spells out 2 + 3 + ... + n letters,
    as ``_times`` counts them."""
    sums, spelled = {}, 0
    for k, (sign, number, product, other) in enumerate(
            _RING_TERM.findall(text)):
        w = _product_id(words, text_ids, product or "1")
        if other or (k and not sign) or w is None:
            return None, 0
        n, c = len(words.words[w]), int(number or 1)
        spelled += max(n * (n + 1) // 2 - 1, 0)
        c = sums.get(w, 0) + (-c if sign == "-" else c)
        if c:
            sums[w] = c
        else:
            sums.pop(w, None)
    return sums, spelled


# ---------------------------------------------------------------------------
# token readers
#
# Each reader takes a scanned line and the index i of its first token, and
# returns what it read with the index past it.  None reads past the empty
# text that ends the tokens, so no reader checks the length of a line.
# Ring values are coefficient dicts {word id: int} over the file's word
# table, without zero coefficients; a product of two of them multiplies
# word ids through the table's products.


def _expect(line, i, text):
    """The index past token ``i``, which must be ``text``."""
    if line.texts[i] != text:
        raise line.error("expected %r" % text, line.rest(i), line.offset(i))
    return i + 1


def _end(line, i, message):
    """The last check of every line reader: token ``i`` ends the line."""
    if line.texts[i]:
        raise line.error(message, line.rest(i), line.offset(i))


def _name(line, i, known=None, message=None):
    """A run of word characters, digits included; given ``known``, one
    of those, or else the error ``message % name``."""
    stop = line.run(i, _is_word)
    if stop == i:
        raise line.error("expected a name", line.rest(i), line.offset(i))
    name = line.span(i, stop)
    if known is not None and name not in known:
        raise line.error(message % name, name, line.offset(i))
    return name, stop


def _integer(line, i):
    """Digits after an optional sign that touches them."""
    first = i + (line.texts[i] in _SIGNS)
    stop = (first if first > i and not line.touches(first)
            else line.run(first, str.isdecimal))
    chunk = line.span(i, stop)
    if stop == first:
        raise line.error("expected an integer", chunk or line.rest(i),
                         line.offset(i))
    if stop - first > MAX_INTEGER_DIGITS:
        raise line.error("integer longer than %d digits"
                         % MAX_INTEGER_DIGITS, chunk, line.offset(i))
    return int(chunk), stop


def _rational(line, i):
    """An integer, or p/q, as the pair (p, q) in lowest terms with q > 0,
    as ``Fraction`` reduces it: an integer n is (n, 1)."""
    value, i = _integer(line, i)
    if line.texts[i] != "/":
        return (value, 1), i
    denominator, stop = _integer(line, i + 1)
    if denominator == 0:
        raise line.error("zero denominator", None, line.offset(i + 1))
    return _lowest(value, denominator), stop


def _lowest(p, q):
    """p/q, q nonzero, as the pair (p, q) in lowest terms with q > 0."""
    g = gcd(p, q)
    if q < 0:
        g = -g
    return p // g, q // g


def _bracketed(line, i, read):
    """'[' read (',' read)* ']', as the list of what ``read`` gives."""
    value, i = read(line, _expect(line, i, "["))
    values = [value]
    while line.texts[i] == ",":
        value, i = read(line, i + 1)
        values.append(value)
    return values, _expect(line, i, "]")


def _word(line, i, presentation):
    """word := factor ('*' factor)*, factor := name ['^' int] | '1'.  The
    runs are gathered freely reduced, and the word built once."""
    texts = line.texts
    runs, length = [], 0
    while True:
        if texts[i] == "1":
            i += 1
        else:
            j = i
            name, i = _name(line, i, presentation.generators,
                            "unknown generator %r")
            exponent, i = _exponent(line, i)
            _check_letters(line, j, length + abs(exponent))
            index = presentation.generators.index(name)
            last = runs.pop()[1] if runs and runs[-1][0] == index else 0
            length += abs(last + exponent) - abs(last)
            if last + exponent:
                runs.append((index, last + exponent))
        if texts[i] != "*":
            return Word._unchecked(tuple(runs)), i
        i += 1


def _exponent(line, i):
    """An optional '^' exponent after a generator, 1 without one."""
    if line.texts[i] != "^":
        return 1, i
    exponent, stop = _integer(line, i + 1)
    _check_letters(line, i + 1, abs(exponent), abs(exponent))
    return exponent, stop


def _times(line, j, words, left, right):
    """left * right of two coefficient dicts {word id: int}, unless a word
    or a coefficient of it would be too long; ``right`` starts at token
    index ``j``."""
    lefts = [len(words.words[w]) for w in left]
    rights = [len(words.words[w]) for w in right]
    _check_letters(line, j, max(lefts, default=0) + max(rights, default=0),
                   len(rights) * sum(lefts) + len(lefts) * sum(rights))
    out = {}
    for w1, c1 in left.items():
        for w2, c2 in right.items():
            w = words.product(w1, w2)
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
                      % MAX_INTEGER_DIGITS, None, line.offset(j))


def _check_letters(line, j, longest, spelled=0):
    """An error at token ``j`` if the longest word built there would have
    more than MAX_WORD_LETTERS letters, or if the file's powers and
    products would spell out more than MAX_FILE_LETTERS with the
    ``spelled`` letters of those built there."""
    if longest > MAX_WORD_LETTERS:
        raise line.error("word longer than %d letters" % MAX_WORD_LETTERS,
                         None, line.offset(j))
    line.letters[0] -= spelled
    if line.letters[0] < 0:
        raise line.error("powers and products longer than %d letters in all"
                         % MAX_FILE_LETTERS, None, line.offset(j))


def _sum(line, i, words, text_ids, dim_of=None, target=None):
    """A signed sum of terms (``_term``) as {cell: coefficient}, the
    coefficients of the terms on one cell added up."""
    texts = line.texts
    sums = {}
    sign = _SIGNS.get(texts[i], 0)
    i += sign != 0
    sign = sign or 1
    while sign:
        j = i
        coeff, cell, i = _term(line, i, words, text_ids, dim_of, target)
        _add(line, j, sums.setdefault(cell, {}), sign, coeff)
        sign = _SIGNS.get(texts[i], 0)
        i += sign != 0
    return sums, i


def _term(line, i, words, text_ids, dim_of=None, target=None):
    """A product of atoms as (coefficient, cell).  Given the boundary's
    cells ``dim_of``, it ends in a ``target``-cell, and the coefficient
    is the product of the atoms before it; without, the cell is None."""
    texts = line.texts
    factors = []  # (token index, atom)
    while True:
        atom, stop = _atom(line, i, words, text_ids, dim_of)
        factors.append((i, atom))
        if texts[stop] != "*":
            break
        i = stop + 1
    cell = None
    if dim_of is not None:
        j, cell = factors.pop()
        if type(cell) is not str:
            raise line.error("each boundary summand must end in a cell name",
                             None, line.offset(j))
        if dim_of[cell] != target:
            raise line.error(
                "boundary references %d-cell %r where a %d-cell is needed"
                % (dim_of[cell], cell, target), cell, line.offset(j))
    coeff = None
    for j, factor in factors:
        if type(factor) is str:
            raise line.error("cell name %r cannot appear inside a "
                             "coefficient" % factor, factor, line.offset(j))
        coeff = (factor if coeff is None
                 else _times(line, j, words, coeff, factor))
    return ({0: 1} if coeff is None else coeff), cell, stop


def _atom(line, i, words, text_ids, dim_of):
    """An integer, generator power, '(' sum ')', or (given ``dim_of``) a
    cell name, which is given as a str."""
    texts = line.texts
    text = texts[i]
    # "" is in "+-" too: at the end of the line an integer is expected
    if text[:1].isdigit() or text in "+-":
        value, stop = _integer(line, i)
        return ({0: value} if value else {}), stop
    w = text_ids.get(text)
    if w is not None:  # a generator, as "1" is read above
        if texts[i + 1] != "^":
            return {w: 1}, i + 1
        exponent, stop = _exponent(line, i + 1)
        return {words.id(words.words[w] ** exponent): 1}, stop
    if dim_of is not None and text in dim_of:
        return text, i + 1
    if text == "(":
        if line.depth == MAX_NESTING:
            raise line.error("parentheses nested deeper than %d"
                             % MAX_NESTING, text, line.offset(i))
        line.depth += 1
        sums, stop = _sum(line, i + 1, words, text_ids)
        line.depth -= 1
        return sums[None], _expect(line, stop, ")")
    name, _ = _name(line, i)
    raise line.error("unknown generator or cell %r" % name, name,
                     line.offset(i))


# ---------------------------------------------------------------------------
# serialisation


def _format_matrix(matrix):
    return "[" + ",".join("[" + ",".join(str(x) for x in row) + "]"
                          for row in matrix.data) + "]"


def _word_texts(words, names):
    """(rank, texts) of a word table, once per file: the place of each
    word in shortlex order, and its text against generator names."""
    rank = [0] * len(words)
    for place, w in enumerate(sorted(range(len(words)),
                                     key=lambda w: words[w].shortlex_key())):
        rank[w] = place
    return rank, [word.text(names) for word in words]


def _ring_text(terms, texts):
    """The canonical text of a ring element from its terms (rank, word
    id, nonzero int) in shortlex order, word w written as ``texts[w]``:
    "1 - c*b + 2*a"."""
    chunks = []
    for _, w, coeff in terms:
        if not w:
            mag = str(abs(coeff))
        elif abs(coeff) == 1:
            mag = texts[w]
        else:
            mag = "%d*%s" % (abs(coeff), texts[w])
        if not chunks:
            chunks.append(mag if coeff > 0 else "-" + mag)
        else:
            chunks.append(("+ " if coeff > 0 else "- ") + mag)
    return " ".join(chunks)


def _format_boundary(terms, lower, rank, texts, rendered):
    """A boundary's nonzero entries from its ``terms`` (target index,
    word id, coefficient): targets in the cell order of ``lower``, and
    each coefficient as its terms in shortlex order, the place of word w
    in it being ``rank[w]`` and its text ``texts[w]``: "(1 - c*b +
    2*a)*e1_1 + (b)*e1_2".  ``rendered`` holds the text of each
    coefficient rendered so far, by its sorted terms (rank, word id,
    coefficient); it gains those rendered here."""
    entries = {}
    for target, w, c in terms:
        entries.setdefault(target, []).append((rank[w], w, c))
    chunks = []
    for target in sorted(entries):
        key = tuple(sorted(entries[target]))
        text = rendered.get(key)
        if text is None:
            text = rendered[key] = _ring_text(key, texts)
        chunks.append("(%s)*%s" % (text, lower[target]))
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
    for k, names in enumerate(complex_.cells):
        write("cells %d = %s\n" % (k, " ".join(names)))
    rank, texts = _word_texts(complex_.words, pres.generators)
    rendered = {}
    for k in range(1, complex_.top + 1):
        for cell, terms in zip(complex_.cells[k], complex_.terms[k]):
            write("boundary %s = %s\n"
                  % (cell, _format_boundary(terms, complex_.cells[k - 1],
                                            rank, texts, rendered)))
    write("\n[periods]\n")
    # each distinct entry of L.P is written as a rational over L once
    cells = problem.complex.cells_in(1)
    scaled = [problem.periods.scaled_vector(cell) for cell in cells]
    L = problem.periods.denominator
    period_texts = {x: rational_text(x, L) for x in set().union(*scaled)}
    for cell, vec in zip(cells, scaled):
        write("%s = [%s]\n" % (cell, ", ".join(map(period_texts.__getitem__,
                                                   vec))))
    write("\n[diagonal]\n")
    for cell in problem.complex.cells_in(3):
        for sign, front, fw, back, bw in problem.diagonal.terms.get(cell, ()):
            op = "+=" if sign > 0 else "-="
            write("%s %s (%s | %s ; %s | %s)\n"
                  % (cell, op, front, fw.text(pres.generators),
                     back, bw.text(pres.generators)))
    return out.getvalue()
