import random

import pytest

from oracles import hopf_recursive, left_normed_commutator, reduce_word
from picolim import words
from picolim.errors import BudgetError
from picolim.presentations import render_brackets, render_word
from picolim.words import (
    LETTER_BUDGET,
    Word,
    _reduce,
    commutator,
    hopf,
    hopf_element,
    hopf_letter_bound,
)
from picolim.wu import letter_names

A, B, C = 0, 1, 2


def w(text_pairs):
    return Word(tuple(text_pairs))


def test_reduction_merges_and_cancels():
    assert w([(A, 2), (A, 3)]).syllables == ((A, 5),)
    assert w([(A, 2), (A, -2)]).is_identity()
    assert w([(A, 1), (B, 0), (A, -1)]).is_identity()
    assert w([(A, 1), (B, 2), (B, -2), (A, 1)]).syllables == ((A, 2),)


def test_identity_and_gen():
    assert Word().is_identity()
    assert Word.gen(0).syllables == ((0, 1),)
    assert Word.gen(0, -3).syllables == ((0, -3),)


def test_bad_names_rejected():
    # a letter is a generator index; names belong to the DSL
    with pytest.raises(ValueError, match="not a generator index"):
        Word((("a", 1),))
    with pytest.raises(ValueError, match="not a generator index"):
        Word(((-1, 1),))
    with pytest.raises(ValueError, match="not an int"):
        Word(((A, 1.5),))


def test_repr_shows_the_syllables():
    assert repr(Word()) == "Word(())"
    assert repr([Word.gen(A, 2) * Word.gen(B, -1)]) == "[Word(((0, 2), (1, -1)))]"


def test_group_laws_random():
    rng = random.Random(11)
    letters = [A, B, C]

    def rand_word():
        return Word(
            tuple((rng.choice(letters), rng.randint(-3, 3)) for _ in range(rng.randint(0, 6)))
        )

    for _ in range(200):
        x, y, z = rand_word(), rand_word(), rand_word()
        assert (x * y) * z == x * (y * z)
        assert (x * x.inverse()).is_identity()
        assert (x * y).inverse() == y.inverse() * x.inverse()


def test_product_reduces_at_the_junction_like_the_concatenation():
    rng = random.Random(47)

    def rand_word():
        return Word(
            tuple((rng.randrange(3), rng.randint(-3, 3)) for _ in range(rng.randint(0, 6)))
        )

    for _ in range(300):
        x, y = rand_word(), rand_word()
        # the last two pairs cancel completely
        for left, right in ((x, y), (x, x.inverse()), (x * y, y.inverse() * x.inverse())):
            assert (left * right).syllables == _reduce(left.syllables + right.syllables)
    # a cascade through three syllables that ends in a merge
    u = w([(A, 2), (B, 1), (C, -1), (A, 1)])
    v = w([(A, -1), (C, 1), (B, -1), (A, 3)])
    assert (u * v).syllables == ((A, 5),)


def test_commutator_conventions():
    x, y = Word.gen(0), Word.gen(1)
    assert commutator(x, y) == x * y * x.inverse() * y.inverse()
    # [x,y]^-1 = [y,x]
    assert commutator(x, y).inverse() == commutator(y, x)


def test_left_normed():
    entries = [(A, 1), (B, 1), (C, -1)]
    expect = commutator(commutator(Word.gen(A), Word.gen(B)), Word.gen(C, -1))
    assert left_normed_commutator(entries) == expect
    assert left_normed_commutator([(A, 2)]) == Word.gen(A, 2)
    with pytest.raises(ValueError):
        left_normed_commutator([])
    with pytest.raises(ValueError):
        left_normed_commutator([(A, 0)])


def test_length_letters_generators():
    u = w([(B, -2), (A, 3)])
    assert u.length() == 5
    assert u.generators() == [A, B]


def test_render_word():
    u = w([(A, 1), (B, -2)])
    assert render_word(u, ["a", "b"]) == "a*b^-2"
    assert render_word(Word(), ["g"]) == "g^0"


def test_reduce_word_idempotent():
    u = w([(A, 1), (B, 2)])
    assert reduce_word(u) == u


def test_hopf_element_base_case():
    assert hopf_element(1) == commutator(Word.gen(0), Word.gen(1))
    assert hopf(1)[1] == ((0,), (1,))
    assert render_brackets(hopf(1)[1], letter_names(2)) == "[y0,y1]"


def test_hopf_element_recursion():
    # h(2) = [[y0,y1],[y0,y1*y2]], letter i being yi
    y0, y1, y2 = Word.gen(0), Word.gen(1), Word.gen(2)
    h2 = commutator(commutator(y0, y1), commutator(y0, y1 * y2))
    assert hopf_element(2) == h2
    assert render_brackets(hopf(2)[1], letter_names(3)) == "[[y0,y1],[y0,y1y2]]"
    # h(3) = [h(2), [[y0,y1],[y0,y1*y2*y3]]]
    right = commutator(commutator(y0, y1), commutator(y0, y1 * y2 * Word.gen(3)))
    assert hopf_element(3) == commutator(h2, right)


def test_hopf_element_letters():
    for k in range(1, 5):
        assert hopf_element(k).generators() == list(range(k + 1))
    with pytest.raises(ValueError):
        hopf_element(0)


def test_hopf_matches_the_recursion():
    for k in range(1, 7):
        assert hopf(k) == hopf_recursive(k)


def test_hopf_builds_each_subword_once(monkeypatch):
    # level j holds h(j, m) for m = j..k, each one commutator of level j - 1
    calls = []
    real = words.commutator
    monkeypatch.setattr(words, "commutator", lambda x, y: calls.append((x, y)) or real(x, y))
    for k in range(1, 7):
        calls.clear()
        hopf(k)
        assert len(calls) == k * (k + 1) // 2
    calls.clear()
    with pytest.raises(BudgetError):
        hopf(10)
    assert calls == []


def test_hopf_letter_bound():
    # U(1, m) = 2 + 2m and U(k, m) = 2 U(k-1, k-1) + 2 U(k-1, m)
    def bound(k, m):
        return 2 + 2 * m if k == 1 else 2 * bound(k - 1, k - 1) + 2 * bound(k - 1, m)

    for k in range(1, 9):
        assert hopf_letter_bound(k) == bound(k, k)
    for k in range(1, 7):
        assert hopf_element(k).length() <= hopf_letter_bound(k)
    assert hopf_letter_bound(9) == 392_704 <= LETTER_BUDGET < hopf_letter_bound(10)


def test_hopf_element_refused_over_the_letter_budget():
    for k in (10, 40):
        with pytest.raises(BudgetError, match=f"over the budget of {LETTER_BUDGET} letters"):
            hopf_element(k)
