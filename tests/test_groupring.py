import random

import pytest

from lagfib.groupring import (
    GroupRingElement,
    Presentation,
    PresentationMismatch,
    Representation,
    Word,
    WordSyntaxError,
    augmentation,
    check_duality,
    check_relations,
    parse_word,
    rep_eval,
)
from lagfib.intlinalg import IntMatrix

from helpers import combination


def _pres(*gens):
    return Presentation(gens)


def heisenberg_presentation():
    p = Presentation(["a", "b", "c"])
    rels = [p.word("a*b") * p.word("c*b*a").inverse(),
            p.word("a*c") * p.word("c*a").inverse(),
            p.word("b*c") * p.word("c*b").inverse()]
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
    assert parse_word(p, "g^3").letters == ((0, 1),) * 3
    assert parse_word(p, "g^-2").letters == ((0, -1),) * 2


def test_parse_word_errors():
    p = _pres("a")
    with pytest.raises(WordSyntaxError):
        parse_word(p, "z")
    with pytest.raises(WordSyntaxError):
        parse_word(p, "a^x")
    with pytest.raises(WordSyntaxError):
        parse_word(p, "a**a")


def test_word_powers_match_iterated_products():
    p = _pres("a", "b")
    for base in (p.word("a"), p.word("a*b*a^-1")):
        for n in range(-4, 5):
            iterated = Word()
            for _ in range(abs(n)):
                iterated = iterated * (base if n > 0 else base.inverse())
            assert base ** n == iterated
    assert parse_word(p, "a^3*a^-5").letters == ((0, -1),) * 2


def test_long_power_relation_parses_to_its_relator():
    from lagfib.cli import bundled_text
    from lagfib.problemfile import parse_problem_text
    text = bundled_text("t3").replace("relation a*b = b*a",
                                      "relation a^32000*b = b*a^32000")
    relator = parse_problem_text(text).presentation.relations[0]
    assert len(relator) == 64002
    assert relator.letters == (((0, 1),) * 32000 + ((1, 1),)
                               + ((0, -1),) * 32000 + ((1, -1),))


def test_free_reduction_idempotent_random():
    rng = random.Random(5)
    p = _pres("a", "b", "c")
    for _ in range(200):
        letters = [(rng.randrange(3), rng.choice((1, -1))) for _ in range(12)]
        w = Word(tuple(letters))
        assert Word(w.letters) == w
        assert len(w) <= len(letters)
        assert (w * w.inverse()).is_identity()


def test_word_text_roundtrip():
    p = _pres("a", "b")
    for text in ["1", "a", "a*b^-1", "a^3*b", "b^-2"]:
        w = parse_word(p, text)
        assert parse_word(p, w.text(p.generators)) == w


# ---------------------------------------------------------------------------
# group ring


def test_ring_expansion_no_relations():
    p = _pres("g")
    g = GroupRingElement.from_word(p, p.word("g"))
    one = GroupRingElement.one(p)
    prod = (one - g) * (one + g)
    gg = GroupRingElement.from_word(p, p.word("g^2"))
    assert prod == one - gg


def test_ring_additive_inverse_and_unit():
    p = _pres("a", "b", "c")
    x = GroupRingElement(p, {p.word("c*b"): -1, Word(): 1})
    assert (x + x.scaled(-1)).is_zero()
    assert x * GroupRingElement.one(p) == x


def test_ring_mixed_presentations_rejected():
    x = GroupRingElement.one(_pres("a"))
    y = GroupRingElement.one(_pres("b"))
    with pytest.raises(PresentationMismatch):
        _ = x + y


def test_augmentation():
    p = _pres("a", "b", "c")
    one = GroupRingElement.one(p)
    cb = GroupRingElement.from_word(p, p.word("c*b"))
    assert augmentation(one - cb) == 0
    x = (GroupRingElement(p, {Word(): 3})
         + GroupRingElement.from_word(p, p.word("a"), 2)
         - GroupRingElement.from_word(p, p.word("c")))
    assert augmentation(x) == 4
    assert augmentation(GroupRingElement.zero(p)) == 0


def test_augmentation_is_ring_homomorphism():
    rng = random.Random(17)
    p = _pres("a", "b")
    for _ in range(50):
        def rand_elem():
            terms = {}
            for _ in range(rng.randint(0, 3)):
                w = Word(tuple((rng.randrange(2), rng.choice((1, -1)))
                               for _ in range(rng.randint(0, 3))))
                terms[w] = terms.get(w, 0) + rng.randint(-3, 3)
            return GroupRingElement(p, terms)
        x, y = rand_elem(), rand_elem()
        assert augmentation(x * y) == augmentation(x) * augmentation(y)
        assert augmentation(x + y) == augmentation(x) + augmentation(y)


def test_ring_text_canonical():
    p = _pres("a", "b", "c")
    x = GroupRingElement.one(p) - GroupRingElement.from_word(p, p.word("c*b"))
    assert x.text() == "1 - c*b"


# ---------------------------------------------------------------------------
# representations


def heisenberg_textbook_holonomy(pres):
    # upper-triangular shear on the second basis vector pair
    a = IntMatrix([[1, 0, 0], [0, 1, 1], [0, 0, 1]])
    I = IntMatrix.identity(3)
    return Representation("ell", pres, [a, I, I])


def test_rep_eval_generator_matrix():
    pres = heisenberg_presentation()
    ell = heisenberg_textbook_holonomy(pres)
    assert rep_eval(ell, pres.word("a")) == IntMatrix([[1, 0, 0],
                                                       [0, 1, 1],
                                                       [0, 0, 1]])
    assert rep_eval(ell, Word()).is_identity()


def test_rep_eval_ring_element_single_entry():
    # coefficient-side monodromy in the frame order where the cocycle
    # condition reads off the third component of the middle 2-cell
    pres = heisenberg_presentation()
    rho = Representation("rho", pres, [IntMatrix([[1, 0, -1],
                                                  [0, 1, 0],
                                                  [0, 0, 1]]),
                                       IntMatrix.identity(3),
                                       IntMatrix.identity(3)])
    a_minus_c = (GroupRingElement.from_word(pres, pres.word("a"))
                 - GroupRingElement.from_word(pres, pres.word("c")))
    value = rep_eval(rho, a_minus_c)
    assert value == IntMatrix([[0, 0, -1], [0, 0, 0], [0, 0, 0]])


def test_rep_multiplicative_on_random_words():
    pres = heisenberg_presentation()
    ell = heisenberg_textbook_holonomy(pres)
    rng = random.Random(23)
    for _ in range(60):
        w1 = Word(tuple((rng.randrange(3), rng.choice((1, -1)))
                        for _ in range(rng.randint(0, 4))))
        w2 = Word(tuple((rng.randrange(3), rng.choice((1, -1)))
                        for _ in range(rng.randint(0, 4))))
        assert rep_eval(ell, w1 * w2) == rep_eval(ell, w1) * rep_eval(ell, w2)


def test_rep_additive_on_ring_elements():
    pres = heisenberg_presentation()
    ell = heisenberg_textbook_holonomy(pres)
    x = GroupRingElement.from_word(pres, pres.word("a"), 2)
    y = GroupRingElement.one(pres) - GroupRingElement.from_word(pres, pres.word("b"))
    assert rep_eval(ell, x + y) == combination((1, rep_eval(ell, x)),
                                               (1, rep_eval(ell, y)))


def _iterated(rep, word):
    out = IntMatrix.identity(rep.dim)
    for g, e in word.letters:
        out = out * (rep.matrices[g] if e > 0 else rep.inverses[g])
    return out


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
    # eval_word raises each run of one generator by squaring
    p = _pres("a", "b")
    rep = Representation("r", p, [IntMatrix([[2, 1], [1, 1]]),
                                  IntMatrix([[1, 0], [-3, 1]])])
    for m in range(-9, 10):
        for n in range(-9, 10):
            for text in ("a^%d*b^%d" % (m, n), "b^%d*a^%d*b" % (m, n)):
                word = p.word(text)
                assert rep.eval_word(word) == _iterated(rep, word)
                _check_entries(rep, word)
    x = (GroupRingElement.from_word(p, p.word("a^7*b^-5"), 3)
         - GroupRingElement.from_word(p, p.word("b^6*a^-2")))
    expected = combination((3, _iterated(rep, p.word("a^7*b^-5"))),
                           (-1, _iterated(rep, p.word("b^6*a^-2"))))
    assert rep.eval_ring(x) == expected
    # runs up to 40 and inverse letters; a second call returns the
    # cached matrix
    for rep in (_heisenberg_representation(), _hyperbolic_representation()):
        for text in ("a^40*b^-37*c^5", "c^-40*a*b^-1*a^40",
                     "b^-1*a^-1*b*a*c^-2", "a^-3*c^40*b^17*c^-39*a"):
            word = rep.presentation.word(text)
            value = rep.eval_word(word)
            assert value == _iterated(rep, word)
            assert rep.eval_word(word) is value
            _check_entries(rep, word)


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
    rels = [p0.word("b*c") * p0.word("c*b").inverse(),
            p0.word("a") * p0.word("b*a*b").inverse(),
            p0.word("a") * p0.word("c*a*c").inverse()]
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
    pres = Presentation(["a", "b"], [p0.word("a*b") * p0.word("b*a").inverse()])
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
        lhs = rep_eval(rho, w)
        rhs = int_inverse(rep_eval(ell, w)).transpose()
        assert lhs == rhs
