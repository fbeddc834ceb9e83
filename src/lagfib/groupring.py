"""Words in a finitely presented group and matrix representations.

Words are stored freely reduced, as their runs (generator, exponent),
and compared by free equality only; the word problem modulo the
relations is never solved.  A product of two reduced words reduces only
where they meet.  Free equality can show that terms of a group ring
element cancel, which they then do under every representation, but
never that anything fails to: whatever depends on the relations (does a
representation satisfy them, does a boundary square to zero) is decided
after evaluating words to integer matrices, which is exactly what the
downstream cohomology computations consume.  A reader that has checked
its runs builds a word through the unchecked ``Word._unchecked``, and
``WordTable`` gives each word of a file or a complex its id.
"""

from .intlinalg import IntMatrix, LinAlgError, _integer, int_inverse

WORD_CHARS = "abcdefghijklmnopqrstuvwxyzABCDEFGHIJKLMNOPQRSTUVWXYZ0123456789_"
# The most letters a power or product read from text may spell out.  A
# word stores its runs, but the letters bound the squarings that
# evaluate it and the runs that ring products build.
MAX_WORD_LETTERS = 100000
# The most letters all the powers and ring products of one file may spell
# out together, so that a file's words take memory in proportion to it.
MAX_FILE_LETTERS = 10 * MAX_WORD_LETTERS


class WordSyntaxError(Exception):
    """A bad or repeated generator name; ``index`` is its position in the
    generator list."""

    def __init__(self, message, index):
        super().__init__(message)
        self.index = index


class PresentationMismatch(Exception):
    """Operands built over different presentations were combined."""


class GeneratorIndexError(IndexError):
    """A word names a generator index that its presentation lacks."""

    def __init__(self, index, count):
        super().__init__("generator index %d is out of range for %d "
                         "generators" % (index, count))


class Word:
    """Freely reduced word stored as its runs: a tuple ``letters`` of
    (generator index, nonzero exponent) in which no two neighbours share
    a generator, so a power g^e is one entry."""

    __slots__ = ("letters",)

    def __init__(self, letters=()):
        runs = []
        for g, e in letters:
            g = _integer(g, TypeError, "generator index")
            if g < 0:
                raise ValueError("generator index is negative, got %d" % g)
            e = _integer(e, TypeError, "exponent")
            if runs and runs[-1][0] == g:
                e += runs.pop()[1]
            if e:
                runs.append((g, e))
        self.letters = tuple(runs)

    @classmethod
    def _unchecked(cls, runs):
        """The word over ``runs``, a tuple of (int index >= 0, nonzero int
        exponent) with no two neighbours on one generator, taken as it
        is: for runs that a reader or a product has already reduced."""
        word = object.__new__(cls)
        word.letters = runs
        return word

    @classmethod
    def generator(cls, index, exponent=1):
        return cls(((index, exponent),))

    def is_identity(self):
        return not self.letters

    def __mul__(self, other):
        return Word._unchecked(_free_product(self.letters, other.letters))

    def inverse(self):
        return Word._unchecked(tuple((g, -e)
                                     for g, e in reversed(self.letters)))

    def __pow__(self, n):
        base = self if n >= 0 else self.inverse()
        return _power(base, abs(n)) if n else Word()

    def __len__(self):
        return sum(abs(e) for _, e in self.letters)

    def __eq__(self, other):
        return isinstance(other, Word) and self.letters == other.letters

    def __hash__(self):
        return hash(self.letters)

    def shortlex_key(self):
        """Orders words as their letter sequences in shortlex order, a
        letter g before g^-1 and both by generator index.  Read from the
        runs: of two runs of one letter, the shorter comes first if the
        generator after it is smaller or none, and last if it is larger."""
        runs = self.letters
        key = []
        for (g, e), (after, _) in zip(runs, runs[1:] + ((-1, 0),)):
            up = after > g
            key.append((g, e < 0, up, -abs(e) if up else abs(e)))
        return len(self), tuple(key)

    def text(self, names):
        """Render against generator names, one power per run."""
        for g, _ in self.letters:
            if g >= len(names):
                raise GeneratorIndexError(g, len(names))
        return "*".join(names[g] if e == 1 else "%s^%d" % (names[g], e)
                        for g, e in self.letters) or "1"

    def __repr__(self):
        return "Word(%r)" % (self.letters,)


def _free_product(left, right):
    """The runs of the freely reduced product of two words given by their
    runs: only the runs where they meet can cancel or merge."""
    i, j = len(left), 0
    while i and j < len(right) and left[i - 1][0] == right[j][0]:
        e = left[i - 1][1] + right[j][1]
        if e:
            return left[:i - 1] + ((right[j][0], e),) + right[j + 1:]
        i, j = i - 1, j + 1
    return left[:i] + right[j:]


class WordTable:
    """Distinct words, each under one id: ``words`` lists them, the
    identity at id 0 and then each word as first given, ``ids`` maps a
    Word to its id, and ``products`` holds {a: {b: id of the product of
    words a and b}} for each pair that ``product`` has multiplied.
    ``WordTable(words)`` gives the identity and then ``words`` their ids:
    given the words of a table, identity first, it extends a copy of
    that table."""

    __slots__ = ("words", "ids", "products")

    def __init__(self, words):
        self.words, self.ids, self.products = [], {}, {}
        for word in (Word(), *words):
            self.id(word)

    def id(self, word):
        """The id of ``word``, which it gets when first given."""
        w = self.ids.get(word)
        if w is None:
            w = self.ids[word] = len(self.words)
            self.words.append(word)
        return w

    def product(self, a, b):
        """The id of the freely reduced product of words ``a`` and ``b``,
        multiplied once per pair."""
        by = self.products.setdefault(a, {})
        w = by.get(b)
        if w is None:
            w = by[b] = self.id(self.words[a] * self.words[b])
        return w


class Presentation:
    """Ordered generator names plus relations (words equal to 1) in them."""

    __slots__ = ("generators", "relations")

    def __init__(self, generators, relations=()):
        generators = tuple(generators)
        seen = set()
        for index, name in enumerate(generators):
            if not name or any(ch not in WORD_CHARS for ch in name) or name[0].isdigit():
                raise WordSyntaxError("bad generator name %r" % name, index)
            if name in seen:
                raise WordSyntaxError("duplicate generator name %r" % name,
                                      index)
            seen.add(name)
        self.generators = generators
        self.relations = tuple(relations)
        for g, _ in (run for word in self.relations for run in word.letters):
            if g >= len(generators):
                raise GeneratorIndexError(g, len(generators))

    def __eq__(self, other):
        return other is self or (isinstance(other, Presentation)
                                 and self.generators == other.generators
                                 and self.relations == other.relations)

    def __hash__(self):
        return hash((self.generators, self.relations))

    def __repr__(self):
        return "Presentation(%r, %d relations)" % (self.generators,
                                                   len(self.relations))


class Representation:
    """Map from presentation generators to integer matrices.

    A well-formed representation lands in GL(n, Z): every generator
    matrix must have determinant +-1 so that inverse letters evaluate
    to exact integer matrices.  ``check_relations`` reports both
    failures of unimodularity and relations that do not evaluate to the
    identity; ``eval_word`` raises LinAlgError only when an inverse
    letter is needed for a generator without one, and GeneratorIndexError
    on a generator the presentation lacks.  Each distinct generator
    matrix is inverted once: the constructor reads and fills the table
    {matrix: inverse or None} passed as ``inverses``, which the
    representations of one problem share, so a matrix they have in
    common is inverted once for all of them; the attribute ``inverses``
    holds each generator's inverse.  Each word's matrix and its nonzero
    entries, which sparse readers walk, are computed once and cached.
    Every run of an identity generator
    evaluates to one shared ``identity``, which products skip;
    ``is_trivial`` says that every generator is one.
    """

    __slots__ = ("name", "presentation", "dim", "matrices", "inverses",
                 "identity", "_ones", "_cache", "_entries")

    def __init__(self, name, presentation, matrices, inverses=None):
        matrices = tuple(matrices)
        if len(matrices) != len(presentation.generators):
            raise LinAlgError("expected %d generator matrices, got %d"
                              % (len(presentation.generators), len(matrices)))
        dim = matrices[0].rows if matrices else 1
        for m in matrices:
            if m.rows != m.cols or m.rows != dim:
                raise LinAlgError("generator matrices of representation %r "
                                  "must all be square of one size" % name)
        self.name = name
        self.presentation = presentation
        self.dim = dim
        self.matrices = matrices
        if inverses is None:
            inverses = {}
        for m in matrices:
            if m not in inverses:
                inverses[m] = int_inverse(m)
        self.inverses = tuple(inverses[m] for m in matrices)
        self.identity = IntMatrix.identity(dim)
        self._ones = frozenset(g for g, m in enumerate(matrices)
                               if m == self.identity)
        self._cache = {(): self.identity}
        self._entries = {}

    @classmethod
    def trivial(cls, presentation, dim=1, name="trivial"):
        """Every generator to the identity of rank ``dim``, which is its
        own inverse."""
        I = IntMatrix.identity(dim)
        return cls(name, presentation, [I] * len(presentation.generators),
                   {I: I})

    @property
    def is_trivial(self):
        """Every generator matrix is the identity."""
        return len(self._ones) == len(self.matrices)

    def eval_word(self, word):
        """The matrix of a word, computed once per word and cached.

        The word is multiplied out run by run, starting from its first
        run, each run g^e as one power by repeated squaring, so a long
        power such as a^32000 takes a few dozen products.  A run of an
        identity generator is skipped, and a word of such runs alone is
        ``identity``.
        """
        letters = word.letters
        out = self._cache.get(letters)
        if out is not None:
            return out
        for run in letters:
            value = self._run_value(*run)
            if value is not self.identity:
                out = value if out is None else out * value
        if out is None:
            out = self.identity
        self._cache[letters] = out
        return out

    def word_entries(self, word):
        """The nonzero entries (i, j, x) of ``eval_word(word)``, cached."""
        out = self._entries.get(word.letters)
        if out is None:
            out = self._entries[word.letters] = tuple(
                (i, j, x) for i, row in enumerate(self.eval_word(word).data)
                for j, x in enumerate(row) if x)
        return out

    def _run_value(self, g, e):
        """The matrix of the run g^e: ``identity`` itself when g's is the
        identity."""
        if g >= len(self.matrices):
            raise GeneratorIndexError(g, len(self.matrices))
        base = self.matrices[g] if e > 0 else self.inverses[g]
        if base is None:
            raise LinAlgError(
                "representation %r: generator %r is not invertible over Z"
                % (self.name, self.presentation.generators[g]))
        return self.identity if g in self._ones else _power(base, abs(e))

    def __eq__(self, other):
        return (isinstance(other, Representation)
                and self.name == other.name
                and self.presentation == other.presentation
                and self.matrices == other.matrices)

    def __hash__(self):
        return hash((self.name, self.matrices))

    def __repr__(self):
        return "Representation(%r, dim=%d)" % (self.name, self.dim)


def _power(matrix, n):
    """matrix**n for n >= 1, by repeated squaring; a Word is raised so
    too."""
    result = None
    while True:
        if n & 1:
            result = matrix if result is None else result * matrix
        n >>= 1
        if not n:
            return result
        matrix = matrix * matrix


def check_relations(rep, presentation=None):
    """Report failures of GL(n,Z)-membership and of the relations.

    Returns a list of human-readable failure strings; empty means the
    representation is well defined on the presented group.
    """
    pres = presentation if presentation is not None else rep.presentation
    if pres != rep.presentation:
        return ["representation %r was built over a different presentation"
                % rep.name]
    failures = []
    for idx, name in enumerate(pres.generators):
        if rep.inverses[idx] is None:
            failures.append(
                "generator %s: matrix is not in GL(%d,Z) (determinant is "
                "not +-1)" % (name, rep.dim))
    for rel_index, relation in enumerate(pres.relations):
        try:
            value = rep.eval_word(relation)
        except LinAlgError:
            continue  # already reported as a unimodularity failure
        if not value.is_identity():
            failures.append(
                "relation %d (%s = 1) does not evaluate to the identity"
                % (rel_index + 1, relation.text(pres.generators)))
    return failures


def check_duality(rep_form, rep_coeff):
    """Check rep_coeff = (rep_form)^{-T} on every generator.

    This is the compatibility between the linear holonomy acting on the
    period frame and the monodromy acting on coefficients; it is what
    makes the coefficient/period pairing drop to the base.  Returns a
    list of failure strings.
    """
    if rep_form.presentation != rep_coeff.presentation:
        return ["form and coefficient representations use different presentations"]
    if rep_form.dim != rep_coeff.dim:
        return ["form representation has dimension %d but coefficient "
                "representation has dimension %d" % (rep_form.dim, rep_coeff.dim)]
    failures = []
    for idx, name in enumerate(rep_form.presentation.generators):
        inv = rep_form.inverses[idx]
        if inv is None:
            failures.append("duality: generator %s of %r is not invertible "
                            "over Z" % (name, rep_form.name))
            continue
        if inv.transpose() != rep_coeff.matrices[idx]:
            failures.append(
                "duality: generator %s: %s(%s) is not the inverse-transpose "
                "of %s(%s)" % (name, rep_coeff.name, name, rep_form.name, name))
    return failures
