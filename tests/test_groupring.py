import random
import re

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from lagfib import problemfile
from lagfib.complexes import ComplexError, EquivariantComplex
from lagfib.groupring import (
    MAX_WORD_LETTERS,
    GeneratorIndexError,
    Presentation,
    Representation,
    Word,
    WordTable,
    check_duality,
    check_relations,
)
from lagfib.intlinalg import IntMatrix, LinAlgError
from lagfib.problemfile import ProblemParseError, parse_word

from helpers import NOT_INTEGERS, LetterWord, random_gl3


def _pres(*gens):
    return Presentation(gens)


def heisenberg_presentation():
    p = Presentation(["a", "b", "c"])
    rels = [parse_word(p, "a*b") * parse_word(p, "c*b*a").inverse(),
            parse_word(p, "a*c") * parse_word(p, "c*a").inverse(),
            parse_word(p, "b*c") * parse_word(p, "c*b").inverse()]
    return Presentation(["a", "b", "c"], rels)


# ---------------------------------------------------------------------------
# words


def test_parse_word_basic():
    p = _pres("a", "b")
    w = parse_word(p, "a*b^-1")
    assert w.letters == ((0, 1), (1, -1))


def test_parse_word_cancellation():
    p = _pres("a")
    assert parse_word(p, "a*a^-1").is_identity()


def test_parse_word_power_expansion():
    p = _pres("g")
    assert parse_word(p, "g^3").letters == ((0, 3),)
    assert parse_word(p, "g^-2").letters == ((0, -2),)


def test_parse_word_errors():
    # the .iaf reader's grammar and errors: each carries the column of
    # the token it quotes, or of the end of the text
    p = _pres("a", "b")
    for text, message, column in (
            ("z", "unknown generator 'z'", 1),
            ("a^x", "expected an integer", 3),
            ("a**a", "expected a name", 3),
            ("a**b", "expected a name", 3),
            ("a*", "expected a name", 3),
            ("", "expected a name", 1),
            ("a^1_0", "trailing input after word", 4),
            ("  a^1_0", "trailing input after word", 6),
            ("a b", "trailing input after word", 3)):
        with pytest.raises(ProblemParseError) as info:
            parse_word(p, text)
        assert (info.value.message, info.value.column) == (message, column)


def test_parse_word_rejects_words_over_the_letter_cap():
    # one constant caps words read by the library and by the .iaf reader;
    # the length is checked before a letter is stored, and the error is
    # at the exponent or at the factor that makes the word too long
    assert problemfile.MAX_WORD_LETTERS is MAX_WORD_LETTERS == 100000
    p = _pres("a", "b")
    assert len(parse_word(p, "a^100000")) == MAX_WORD_LETTERS
    assert len(parse_word(p, "a^-50000*b^50000")) == MAX_WORD_LETTERS
    for text, column in (("a^100001", 3), ("a^-100001", 3),
                         ("a^60000*a^-40001", 9), ("b*a^99999*b^-1", 11)):
        with pytest.raises(ProblemParseError,
                           match="longer than 100000") as info:
            parse_word(p, text)
        assert info.value.column == column


def test_word_powers_match_iterated_products():
    p = _pres("a", "b")
    for base in (parse_word(p, "a"), parse_word(p, "a*b*a^-1")):
        for n in range(-4, 5):
            iterated = Word()
            for _ in range(abs(n)):
                iterated = iterated * (base if n > 0 else base.inverse())
            assert base ** n == iterated
    assert parse_word(p, "a^3*a^-5").letters == ((0, -2),)


def test_long_power_relation_parses_to_its_relator():
    from lagfib.cli import bundled_text
    from lagfib.problemfile import parse_problem_text
    text = bundled_text("t3").replace("relation a*b = b*a",
                                      "relation a^32000*b = b*a^32000")
    relator = parse_problem_text(text).presentation.relations[0]
    assert len(relator) == 64002
    assert relator.letters == ((0, 32000), (1, 1), (0, -32000), (1, -1))


def test_free_reduction_idempotent_random():
    rng = random.Random(5)
    p = _pres("a", "b", "c")
    for _ in range(200):
        letters = [(rng.randrange(3), rng.choice((1, -1))) for _ in range(12)]
        w = Word(tuple(letters))
        assert Word(w.letters) == w
        assert len(w) <= len(letters)
        assert (w * w.inverse()).is_identity()


def test_word_reads_each_exponent():
    # a run's exponent is honoured, 0 gives no run, and a generator index
    # or exponent that is not an integer is refused
    assert Word(((0, 0),)).is_identity()
    assert Word(((0, 2),)).letters == ((0, 2),)
    assert Word(((0, 2), (1, 0), (0, -5))).letters == ((0, -3),)
    assert Word.generator(0, 10 ** 5).letters == ((0, 100000),)
    for x in NOT_INTEGERS:
        for letters in (((0, x),), ((x, 1),)):
            with pytest.raises(TypeError, match="must be an integer"):
                Word(letters)
        with pytest.raises(TypeError, match="must be an integer"):
            Word.generator(0, x)


def _spelled(runs):
    return tuple((g, s) for g, s, count in runs for _ in range(count))


# letter sequences over three generators, with long runs and runs that
# cancel across a junction
LETTERS = st.lists(st.tuples(st.integers(0, 2), st.sampled_from((1, -1)),
                             st.integers(1, 40)), max_size=6).map(_spelled)
NAMES = ("a", "b", "c")


@settings(max_examples=150, deadline=None)
@given(x=LETTERS, y=LETTERS, n=st.integers(-3, 3))
@example(x=_spelled([(0, 1, 3), (0, -1, 3), (1, 1, 1)]),
         y=_spelled([(1, -1, 1), (0, 1, 3)]), n=2)
@example(x=_spelled([(2, 1, 1), (0, 1, 2), (1, 1, 1)]),
         y=_spelled([(1, -1, 1), (0, -1, 2), (2, 1, 2)]), n=-1)
def test_words_match_the_letter_by_letter_oracle(x, y, n):
    wx, wy, ox, oy = Word(x), Word(y), LetterWord(x), LetterWord(y)
    assert Word(ox.runs()) == wx
    rep = _hyperbolic_representation()
    for word, oracle in ((wx, ox), (wy, oy), (wx * wy, ox * oy),
                         (wy * wx.inverse(), oy * ox.inverse()),
                         (wx ** n, ox ** n)):
        assert word.letters == oracle.runs()
        assert len(word) == len(oracle)
        assert word.text(NAMES) == oracle.text(NAMES)
        assert rep.eval_word(word) == oracle.value(rep)


# short letter sequences over two generators, so that words of one
# length, which shortlex orders letter by letter, are common
SHORT_LETTERS = st.lists(st.tuples(st.integers(0, 1), st.sampled_from((1, -1)),
                                   st.integers(1, 4)), max_size=3).map(_spelled)


@settings(max_examples=150, deadline=None)
@given(st.lists(SHORT_LETTERS, max_size=10))
def test_shortlex_order_matches_the_letter_by_letter_oracle(sequences):
    def order(make):
        return sorted(range(len(sequences)),
                      key=lambda i: (make(sequences[i]).shortlex_key(), i))

    assert order(Word) == order(LetterWord)


@settings(max_examples=150, deadline=None)
@given(sequences=st.lists(SHORT_LETTERS, max_size=8),
       pairs=st.lists(st.tuples(st.integers(0, 30), st.integers(0, 30)),
                      max_size=12))
def test_a_word_table_gives_each_word_one_id(sequences, pairs):
    # ids are unique, the identity's is 0 and a word keeps the id it was
    # first given; product(a, b) is the id of words[a] * words[b], freely
    # reduced, and is kept; a table built from another's words extends a
    # copy of it, and the table it came from is left as it was
    table = WordTable(())
    ids = [table.id(Word(letters)) for letters in sequences]
    assert table.words[0] == Word()
    assert len(set(table.words)) == len(table.words)
    assert table.ids == {word: w for w, word in enumerate(table.words)}
    assert [table.words[w].letters for w in ids] == [
        Word(letters).letters for letters in sequences]
    assert [table.id(Word(letters)) for letters in sequences] == ids

    def multiply(table, pairs):
        for a, b in pairs:
            a, b = a % len(table.words), b % len(table.words)
            left, right = table.words[a], table.words[b]
            w = table.product(a, b)
            assert table.words[w] == Word(left.letters + right.letters)
            assert table.products[a][b] == w == table.product(a, b)
        assert len(set(table.words)) == len(table.words)
        assert table.ids == {word: w for w, word in enumerate(table.words)}

    multiply(table, pairs[::2])
    words = list(table.words)
    products = {a: dict(by) for a, by in table.products.items()}
    copy = WordTable(table.words)
    assert copy.words == words and copy.ids == table.ids
    multiply(copy, pairs)
    assert table.words == words and table.products == products
    assert table.ids == {word: w for w, word in enumerate(words)}


def test_shortlex_order_of_all_short_words():
    # every reduced word of up to 5 letters over 3 generators, 4687 words
    words = {()}
    for _ in range(5):
        words |= {LetterWord(w + ((g, e),)).letters for w in words
                  for g in range(3) for e in (1, -1)}
    words = sorted(words)
    by_runs = sorted(words, key=lambda w: Word(w).shortlex_key())
    assert len(words) == 4687
    assert by_runs == sorted(words, key=lambda w: LetterWord(w).shortlex_key())


def test_word_text_roundtrip():
    p = _pres("a", "b")
    for text in ["1", "a", "a*b^-1", "a^3*b", "b^-2"]:
        w = parse_word(p, text)
        assert parse_word(p, w.text(p.generators)) == w


# ---------------------------------------------------------------------------
# group ring: an element of Z[pi] is its terms {Word: int}, which the
# complex checks and the writer renders


@pytest.mark.parametrize("value", NOT_INTEGERS + [0.5])
def test_ring_element_refuses_non_integer_coefficients(value):
    with pytest.raises(ComplexError, match=re.escape(repr(value))):
        EquivariantComplex(_pres("a"), [("v",), ("e",)],
                           {"e": {"v": {Word(): value}}})


@pytest.mark.parametrize("value", NOT_INTEGERS)
def test_word_generator_refuses_non_integer_indices(value):
    with pytest.raises(TypeError, match=re.escape(repr(value))):
        Word.generator(value, 2)


@pytest.mark.parametrize("value", NOT_INTEGERS)
def test_free_reduction_refuses_non_integer_indices(value):
    with pytest.raises(TypeError, match=re.escape(repr(value))):
        Word(((0, 1), (value, -1)))


@pytest.mark.parametrize("index", [-1, -3])
def test_free_reduction_refuses_negative_indices(index):
    # a negative index would read the generators from the end: with
    # generators a b c, index -1 would print and evaluate as c
    with pytest.raises(ValueError, match="got %d" % index):
        Word(((0, 1), (index, -1)))
    with pytest.raises(ValueError, match="got %d" % index):
        Word.generator(index)


def test_word_text_names_an_index_past_the_generators():
    # a Word does not know its presentation, so its reader checks it
    with pytest.raises(GeneratorIndexError,
                       match="generator index 5 is out of range for 3 "
                             "generators"):
        Word(((0, 1), (5, 1))).text(("a", "b", "c"))


def test_presentation_refuses_a_relation_past_its_generators():
    # the presentation checks its relations, so check_relations never
    # meets a letter it cannot evaluate
    I = IntMatrix.identity(3)
    with pytest.raises(GeneratorIndexError,
                       match="generator index 5 is out of range for 3 "
                             "generators"):
        check_relations(Representation(
            "r", Presentation(("a", "b", "c"), [Word(((5, 1),))]),
            [I, I, I]))
    with pytest.raises(GeneratorIndexError, match="generator index 3 "):
        Presentation(("a", "b", "c"), [Word(((0, 1),)), Word(((3, -2),))])
    assert check_relations(Representation(
        "r", Presentation(("a", "b", "c"), [Word(((2, 1),))]),
        [I, I, I])) == []


def test_ring_text_canonical():
    # the writer renders the terms in shortlex order, whatever their order
    # in the boundary's triples or in the word table
    p = _pres("a", "b", "c")
    words = (Word(), parse_word(p, "c*b"), parse_word(p, "a^-1"))
    rank, texts = problemfile._word_texts(words, p.generators)
    assert texts == ["1", "c*b", "a^-1"]
    assert problemfile._format_boundary(
        ((1, 2, 2), (0, 1, -1), (0, 0, 1)), ("v", "w"), rank, texts,
        {}) == "(1 - c*b)*v + (2*a^-1)*w"


# ---------------------------------------------------------------------------
# representations


def heisenberg_textbook_holonomy(pres):
    # upper-triangular shear on the second basis vector pair
    a = IntMatrix([[1, 0, 0], [0, 1, 1], [0, 0, 1]])
    I = IntMatrix.identity(3)
    return Representation("ell", pres, [a, I, I])


def test_eval_word_generator_matrix():
    pres = heisenberg_presentation()
    ell = heisenberg_textbook_holonomy(pres)
    assert ell.eval_word(parse_word(pres, "a")) == IntMatrix([[1, 0, 0],
                                                             [0, 1, 1],
                                                             [0, 0, 1]])
    assert ell.eval_word(Word()).is_identity()


def test_eval_word_names_an_index_past_the_generators():
    ell = heisenberg_textbook_holonomy(heisenberg_presentation())
    for exponent in (1, -2):
        with pytest.raises(GeneratorIndexError,
                           match="generator index 5 is out of range for 3 "
                                 "generators"):
            ell.eval_word(Word(((0, 1), (5, exponent))))


def test_equal_generators_outside_gl_share_one_inversion():
    # a and b hold equal matrices, so one inverse (here none) serves
    # both: every check still names each generator
    pres = _pres("a", "b")
    two = IntMatrix([[2, 0], [0, 1]])
    bad = Representation("bad", pres, [two, IntMatrix([[2, 0], [0, 1]])])
    assert check_relations(bad) == [
        "generator %s: matrix is not in GL(2,Z) (determinant is not +-1)"
        % name for name in "ab"]
    assert check_duality(bad, Representation.trivial(pres, 2)) == [
        "duality: generator %s of 'bad' is not invertible over Z" % name
        for name in "ab"]
    for name in "ab":
        with pytest.raises(LinAlgError,
                           match="generator '%s' is not invertible" % name):
            bad.eval_word(parse_word(pres, "%s^-1" % name))
    assert bad.eval_word(parse_word(pres, "a*b")) == IntMatrix([[4, 0],
                                                                [0, 1]])


def test_rep_multiplicative_on_random_words():
    pres = heisenberg_presentation()
    ell = heisenberg_textbook_holonomy(pres)
    rng = random.Random(23)
    for _ in range(60):
        w1 = Word(tuple((rng.randrange(3), rng.choice((1, -1)))
                        for _ in range(rng.randint(0, 4))))
        w2 = Word(tuple((rng.randrange(3), rng.choice((1, -1)))
                        for _ in range(rng.randint(0, 4))))
        assert ell.eval_word(w1 * w2) == ell.eval_word(w1) * ell.eval_word(w2)


def _iterated(rep, word):
    return LetterWord.spelled(word).value(rep)


def _hyperbolic_representation():
    p = _pres("a", "b", "c")
    return Representation("r", p, [IntMatrix([[2, 1], [1, 1]]),
                                   IntMatrix([[1, 0], [-3, 1]]),
                                   IntMatrix([[0, -1], [1, 0]])])


def _heisenberg_representation():
    return heisenberg_textbook_holonomy(heisenberg_presentation())


def _check_entries(rep, word):
    # the cached nonzero entries are those of the word's matrix, in row
    # order, and a second call returns the cached tuple
    entries = rep.word_entries(word)
    assert entries == tuple((i, j, x)
                            for i, row in enumerate(rep.eval_word(word).data)
                            for j, x in enumerate(row) if x)
    assert rep.word_entries(word) is entries


def test_eval_word_runs_match_iterated_products():
    # eval_word raises each run of one generator by squaring, and a
    # word holds one entry per run
    p = _pres("a", "b")
    rep = Representation("r", p, [IntMatrix([[2, 1], [1, 1]]),
                                  IntMatrix([[1, 0], [-3, 1]])])
    for m in range(-9, 10):
        for n in range(-9, 10):
            assert parse_word(p, "a^%d*b^%d" % (m, n)).letters == tuple(
                (g, e) for g, e in ((0, m), (1, n)) if e)
            for text in ("a^%d*b^%d" % (m, n), "b^%d*a^%d*b" % (m, n)):
                word = parse_word(p, text)
                assert rep.eval_word(word) == _iterated(rep, word)
                _check_entries(rep, word)
    # runs up to 40 and inverse letters; a second call returns the
    # cached matrix
    for rep in (_heisenberg_representation(), _hyperbolic_representation()):
        for text in ("a^40*b^-37*c^5", "c^-40*a*b^-1*a^40",
                     "b^-1*a^-1*b*a*c^-2", "a^-3*c^40*b^17*c^-39*a"):
            word = parse_word(rep.presentation, text)
            value = rep.eval_word(word)
            assert value == _iterated(rep, word)
            assert rep.eval_word(word) is value
            _check_entries(rep, word)


@settings(max_examples=60, deadline=None)
@given(seed=st.integers(0, 2 ** 32 - 1),
       ones=st.lists(st.booleans(), min_size=4, max_size=4),
       runs=st.lists(st.tuples(st.integers(0, 3),
                               st.integers(-40, 40).filter(bool)),
                     max_size=6))
def test_eval_word_skips_identity_generators(seed, ones, runs):
    # a run of an identity generator contributes nothing: the value is
    # still the letter-by-letter product, and a word of such runs alone
    # is evaluated without a single product
    rng = random.Random(seed)
    rep = Representation("r", _pres("a", "b", "c", "d"), [
        IntMatrix.identity(3) if one else random_gl3(rng) for one in ones])
    trivial = Word(tuple((g, e) for g, e in runs if ones[g]))
    products = []
    multiply = IntMatrix.__mul__
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(IntMatrix, "__mul__",
                   lambda a, b: products.append(b) or multiply(a, b))
        assert rep.eval_word(trivial).is_identity()
    assert products == []
    word = Word(runs)
    assert rep.eval_word(word) == _iterated(rep, word)


def test_long_power_relation_validates():
    from lagfib.cli import bundled_text, run
    from lagfib.problemfile import parse_problem_text
    text = bundled_text("t3").replace("relation a*b = b*a",
                                      "relation a^32000*b = b*a^32000")
    status, out = run("validate", parse_problem_text(text))
    assert status == 0
    assert "relations[rho]: ok" in out


def test_check_relations_passes_for_mapping_torus_holonomy():
    p0 = Presentation(["a", "b", "c"])
    rels = [parse_word(p0, "b*c") * parse_word(p0, "c*b").inverse(),
            parse_word(p0, "a") * parse_word(p0, "b*a*b").inverse(),
            parse_word(p0, "a") * parse_word(p0, "c*a*c").inverse()]
    pres = Presentation(["a", "b", "c"], rels)
    ell = Representation("ell", pres, [IntMatrix([[-1, 0, 0],
                                                  [0, 1, 0],
                                                  [0, 0, -1]]),
                                       IntMatrix.identity(3),
                                       IntMatrix.identity(3)])
    assert check_relations(ell, pres) == []


def test_check_relations_passes_for_heisenberg_holonomy():
    pres = heisenberg_presentation()
    assert check_relations(heisenberg_textbook_holonomy(pres), pres) == []


def test_check_relations_fails_outside_gl():
    pres = heisenberg_presentation()
    bad = Representation("bad", pres, [IntMatrix([[2, 0, 0],
                                                  [0, 1, 0],
                                                  [0, 0, 1]]),
                                       IntMatrix.identity(3),
                                       IntMatrix.identity(3)])
    failures = check_relations(bad, pres)
    assert any("GL(3,Z)" in f for f in failures)


def test_check_relations_fails_on_broken_relation():
    p0 = Presentation(["a", "b"])
    pres = Presentation(["a", "b"], [parse_word(p0, "a*b")
                                     * parse_word(p0, "b*a").inverse()])
    noncommuting = Representation("r", pres, [IntMatrix([[1, 1], [0, 1]]),
                                              IntMatrix([[1, 0], [1, 1]])])
    failures = check_relations(noncommuting, pres)
    assert failures and "identity" in failures[0]


def test_check_duality_pass_and_fail():
    pres = heisenberg_presentation()
    triv_form = Representation.trivial(pres, 3, "ell")
    triv_coeff = Representation.trivial(pres, 3, "rho")
    assert check_duality(triv_form, triv_coeff) == []

    ell = heisenberg_textbook_holonomy(pres)
    rho = Representation("rho", pres, [IntMatrix([[1, 0, 0],
                                                  [0, 1, 0],
                                                  [0, -1, 1]]),
                                       IntMatrix.identity(3),
                                       IntMatrix.identity(3)])
    assert check_duality(ell, rho) == []

    flip = Representation("ell", pres, [IntMatrix([[-1, 0, 0],
                                                   [0, 1, 0],
                                                   [0, 0, -1]]),
                                        IntMatrix.identity(3),
                                        IntMatrix.identity(3)])
    assert check_duality(flip, Representation.trivial(pres, 3)) != []


def test_duality_propagates_to_words():
    pres = heisenberg_presentation()
    ell = heisenberg_textbook_holonomy(pres)
    rho = Representation("rho", pres, [IntMatrix([[1, 0, 0],
                                                  [0, 1, 0],
                                                  [0, -1, 1]]),
                                       IntMatrix.identity(3),
                                       IntMatrix.identity(3)])
    assert check_duality(ell, rho) == []
    rng = random.Random(3)
    from lagfib.intlinalg import int_inverse
    for _ in range(40):
        w = Word(tuple((rng.randrange(3), rng.choice((1, -1)))
                       for _ in range(rng.randint(0, 4))))
        lhs = rho.eval_word(w)
        rhs = int_inverse(ell.eval_word(w)).transpose()
        assert lhs == rhs
