"""Words in a finitely presented group, the group ring Z[pi], and
matrix representations.

Words are stored freely reduced and compared by free equality only;
the word problem modulo the relations is never solved.  Anything that
depends on the relations (does a representation satisfy them, does a
boundary square to zero) is checked after evaluating words to integer
matrices, which is exactly what the downstream cohomology computations
consume.
"""

from itertools import groupby

from .intlinalg import IntMatrix, LinAlgError, int_inverse

WORD_CHARS = "abcdefghijklmnopqrstuvwxyzABCDEFGHIJKLMNOPQRSTUVWXYZ0123456789_"


class WordSyntaxError(Exception):
    """A word or ring expression that does not match the grammar."""


class PresentationMismatch(Exception):
    """Operands built over different presentations were combined."""


class Word:
    """Freely reduced word: a tuple of (generator index, +1 or -1)."""

    __slots__ = ("letters",)

    def __init__(self, letters=()):
        self.letters = _free_reduce(letters)

    @classmethod
    def generator(cls, index, exponent=1):
        if exponent == 0:
            return cls()
        sign = 1 if exponent > 0 else -1
        return cls(((int(index), sign),) * abs(exponent))

    def is_identity(self):
        return not self.letters

    def __mul__(self, other):
        return Word(self.letters + other.letters)

    def inverse(self):
        return Word(tuple((g, -e) for g, e in reversed(self.letters)))

    def __pow__(self, n):
        base = self if n >= 0 else self.inverse()
        return Word(base.letters * abs(n))

    def __len__(self):
        return len(self.letters)

    def __eq__(self, other):
        return isinstance(other, Word) and self.letters == other.letters

    def __hash__(self):
        return hash(self.letters)

    def shortlex_key(self):
        return (len(self.letters),
                tuple((g, 0 if e > 0 else 1) for g, e in self.letters))

    def text(self, names):
        """Render against generator names, grouping runs into powers."""
        if not self.letters:
            return "1"
        parts = []
        run_gen, run_exp = self.letters[0]
        count = run_exp
        for g, e in self.letters[1:]:
            if g == run_gen and (e > 0) == (count > 0):
                count += e
            else:
                parts.append(_power_text(names[run_gen], count))
                run_gen, count = g, e
        parts.append(_power_text(names[run_gen], count))
        return "*".join(parts)

    def __repr__(self):
        return "Word(%r)" % (self.letters,)


def _power_text(name, exp):
    return name if exp == 1 else "%s^%d" % (name, exp)


def _free_reduce(letters):
    out = []
    for g, e in letters:
        if out and out[-1][0] == g and out[-1][1] == -e:
            out.pop()
        else:
            out.append((int(g), 1 if e > 0 else -1))
    return tuple(out)


class Presentation:
    """Ordered generator names plus relations (words equal to 1)."""

    __slots__ = ("generators", "relations")

    def __init__(self, generators, relations=()):
        generators = tuple(generators)
        if len(set(generators)) != len(generators):
            raise WordSyntaxError("duplicate generator names: %r" % (generators,))
        for name in generators:
            if not name or any(ch not in WORD_CHARS for ch in name) or name[0].isdigit():
                raise WordSyntaxError("bad generator name %r" % name)
        self.generators = generators
        self.relations = tuple(relations)

    def index(self, name):
        try:
            return self.generators.index(name)
        except ValueError:
            raise WordSyntaxError("unknown generator %r" % name) from None

    def word(self, text):
        return parse_word(self, text)

    def __eq__(self, other):
        return other is self or (isinstance(other, Presentation)
                                 and self.generators == other.generators
                                 and self.relations == other.relations)

    def __hash__(self):
        return hash((self.generators, self.relations))

    def __repr__(self):
        return "Presentation(%r, %d relations)" % (self.generators,
                                                   len(self.relations))


def parse_word(presentation, text):
    """Parse "a*b^-1" style text into a freely reduced Word.

    Grammar: factors separated by "*"; each factor is a generator name
    with an optional integer exponent ("g^-2"), or the literal "1".
    """
    word = Word()
    for raw in text.split("*"):
        token = raw.strip()
        if not token:
            raise WordSyntaxError("empty factor in word %r" % text)
        if token == "1":
            continue
        name, _, exp_text = token.partition("^")
        name = name.strip()
        if _ == "^":
            exp_text = exp_text.strip()
            try:
                exp = int(exp_text)
            except ValueError:
                raise WordSyntaxError("malformed exponent %r in word %r"
                                      % (exp_text, text)) from None
        else:
            exp = 1
        word = word * Word.generator(presentation.index(name), exp)
    return word


class GroupRingElement:
    """Finite integer combination of freely reduced words."""

    __slots__ = ("presentation", "terms")

    def __init__(self, presentation, terms=None):
        self.presentation = presentation
        clean = {}
        for word, coeff in (terms or {}).items():
            coeff = int(coeff)
            if coeff:
                clean[word] = coeff
        self.terms = clean

    @classmethod
    def zero(cls, presentation):
        return cls(presentation)

    @classmethod
    def one(cls, presentation):
        return cls(presentation, {Word(): 1})

    @classmethod
    def from_word(cls, presentation, word, coeff=1):
        return cls(presentation, {word: coeff})

    def _check(self, other):
        if self.presentation != other.presentation:
            raise PresentationMismatch(
                "group ring elements live over different presentations")

    def __add__(self, other):
        self._check(other)
        terms = dict(self.terms)
        for w, c in other.terms.items():
            terms[w] = terms.get(w, 0) + c
        return GroupRingElement(self.presentation, terms)

    def __sub__(self, other):
        return self + other.scaled(-1)

    def __neg__(self):
        return self.scaled(-1)

    def scaled(self, c):
        return GroupRingElement(self.presentation,
                                {w: c * k for w, k in self.terms.items()})

    def __mul__(self, other):
        self._check(other)
        terms = {}
        for w1, c1 in self.terms.items():
            for w2, c2 in other.terms.items():
                w = w1 * w2
                terms[w] = terms.get(w, 0) + c1 * c2
        return GroupRingElement(self.presentation, terms)

    def is_zero(self):
        return not self.terms

    def sorted_terms(self):
        return sorted(self.terms.items(), key=lambda kv: kv[0].shortlex_key())

    def augmentation(self):
        return sum(self.terms.values())

    def __eq__(self, other):
        return (isinstance(other, GroupRingElement)
                and self.presentation == other.presentation
                and self.terms == other.terms)

    def __hash__(self):
        return hash((self.presentation, tuple(self.sorted_terms())))

    def text(self):
        """Canonical rendering, shortlex term order: "1 - c*b + 2*a"."""
        if not self.terms:
            return "0"
        chunks = []
        for word, coeff in self.sorted_terms():
            body = word.text(self.presentation.generators)
            if word.is_identity():
                mag = str(abs(coeff))
            elif abs(coeff) == 1:
                mag = body
            else:
                mag = "%d*%s" % (abs(coeff), body)
            if not chunks:
                chunks.append(mag if coeff > 0 else "-" + mag)
            else:
                chunks.append(("+ " if coeff > 0 else "- ") + mag)
        return " ".join(chunks)

    def __repr__(self):
        return "GroupRingElement(%s)" % self.text()


def augmentation(x):
    """Ring map Z[pi] -> Z sending every group element to 1."""
    return x.augmentation()


class Representation:
    """Map from presentation generators to integer matrices.

    A well-formed representation lands in GL(n, Z): every generator
    matrix must have determinant +-1 so that inverse letters evaluate
    to exact integer matrices.  ``check_relations`` reports both
    failures of unimodularity and relations that do not evaluate to the
    identity; rep_eval raises only when an inverse letter is needed for
    a generator without one.  Each word's matrix and its nonzero
    entries, which sparse readers walk, are computed once and cached.
    """

    __slots__ = ("name", "presentation", "dim", "matrices", "inverses",
                 "_cache", "_entries")

    def __init__(self, name, presentation, matrices):
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
        self.inverses = tuple(int_inverse(m) for m in matrices)
        self._cache = {}
        self._entries = {}

    @classmethod
    def trivial(cls, presentation, dim=1, name="trivial"):
        I = IntMatrix.identity(dim)
        return cls(name, presentation, [I] * len(presentation.generators))

    def eval_word(self, word):
        """The matrix of a word, computed once per word and cached.

        The word is multiplied out run by run, starting from its first
        run, each run of equal letters as one power by repeated
        squaring, so a long power such as a^32000 takes a few dozen
        products.
        """
        letters = word.letters
        out = self._cache.get(letters)
        if out is not None:
            return out
        runs = [(letter, sum(1 for _ in run))
                for letter, run in groupby(letters)]
        if not runs:
            out = IntMatrix.identity(self.dim)
        else:
            out = self._run_value(*runs[0])
            for letter, count in runs[1:]:
                out = out * self._run_value(letter, count)
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

    def _run_value(self, letter, count):
        """The matrix of ``count`` equal letters (generator, +-1)."""
        g, e = letter
        base = self.matrices[g] if e > 0 else self.inverses[g]
        if base is None:
            raise LinAlgError(
                "representation %r: generator %r is not invertible over Z"
                % (self.name, self.presentation.generators[g]))
        return _power(base, count)

    def eval_ring(self, element):
        if element.presentation != self.presentation:
            raise PresentationMismatch(
                "ring element and representation use different presentations")
        out = [[0] * self.dim for _ in range(self.dim)]
        for word, coeff in element.terms.items():
            for row, values in zip(out, self.eval_word(word).data):
                for j, x in enumerate(values):
                    if x:
                        row[j] += coeff * x
        return IntMatrix._unchecked(tuple(map(tuple, out)))

    def __call__(self, x):
        return rep_eval(self, x)

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
    """matrix**n for n >= 1, by repeated squaring."""
    result = None
    while True:
        if n & 1:
            result = matrix if result is None else result * matrix
        n >>= 1
        if not n:
            return result
        matrix = matrix * matrix


def rep_eval(rep, x):
    """Evaluate a Word or GroupRingElement under a representation."""
    if isinstance(x, Word):
        return rep.eval_word(x)
    if isinstance(x, GroupRingElement):
        return rep.eval_ring(x)
    raise TypeError("rep_eval expects a Word or GroupRingElement, got %r"
                    % type(x).__name__)


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
