import random

import pytest

from oracles import hopf_recursive, left_normed_commutator, reduce_word
from picolim import words
from picolim.errors import BudgetError
from picolim.words import (
    LETTER_BUDGET,
    Word,
    commutator,
    hopf,
    hopf_element,
    hopf_letter_bound,
    render_word,
)


def w(text_pairs):
    return Word(tuple(text_pairs))


def test_reduction_merges_and_cancels():
    assert w([("a", 2), ("a", 3)]).syllables == (("a", 5),)
    assert w([("a", 2), ("a", -2)]).is_identity()
    assert w([("a", 1), ("b", 0), ("a", -1)]).is_identity()
    assert w([("a", 1), ("b", 2), ("b", -2), ("a", 1)]).syllables == (("a", 2),)


def test_identity_and_gen():
    assert Word().is_identity()
    assert Word.gen("x").syllables == (("x", 1),)
    assert Word.gen("x", -3).syllables == (("x", -3),)


def test_bad_names_rejected():
    with pytest.raises(ValueError):
        Word((("1bad", 1),))
    with pytest.raises(ValueError):
        Word((("a", 1.5),))


def test_group_laws_random():
    rng = random.Random(11)
    names = ["a", "b", "c"]

    def rand_word():
        return Word(
            tuple((rng.choice(names), rng.randint(-3, 3)) for _ in range(rng.randint(0, 6)))
        )

    for _ in range(200):
        x, y, z = rand_word(), rand_word(), rand_word()
        assert (x * y) * z == x * (y * z)
        assert (x * x.inverse()).is_identity()
        assert (x * y).inverse() == y.inverse() * x.inverse()
        assert x**3 == x * x * x
        assert x**-2 == (x.inverse()) ** 2


def test_commutator_conventions():
    x, y = Word.gen("x"), Word.gen("y")
    assert commutator(x, y) == x * y * x.inverse() * y.inverse()
    # [x,y]^-1 = [y,x]
    assert commutator(x, y).inverse() == commutator(y, x)


def test_left_normed():
    entries = [("a", 1), ("b", 1), ("c", -1)]
    expect = commutator(commutator(Word.gen("a"), Word.gen("b")), Word.gen("c", -1))
    assert left_normed_commutator(entries) == expect
    assert left_normed_commutator([("a", 2)]) == Word.gen("a", 2)
    with pytest.raises(ValueError):
        left_normed_commutator([])
    with pytest.raises(ValueError):
        left_normed_commutator([("a", 0)])


def test_length_letters_generators():
    u = w([("a", -2), ("b", 3)])
    assert u.length() == 5
    assert u.generators() == ["a", "b"]


def test_render_word():
    u = w([("a", 1), ("b", -2)])
    assert render_word(u) == "a*b^-2"
    assert render_word(Word(), fallback_generator="g") == "g^0"
    with pytest.raises(ValueError):
        render_word(Word())


def test_reduce_word_idempotent():
    u = w([("a", 1), ("b", 2)])
    assert reduce_word(u) == u


def test_hopf_element_base_case():
    assert hopf_element(1) == commutator(Word.gen("y0"), Word.gen("y1"))
    assert hopf(1)[1] == "[y0,y1]"


def test_hopf_element_recursion():
    # h(2) = [[y0,y1],[y0,y1*y2]]
    y0, y1, y2 = Word.gen("y0"), Word.gen("y1"), Word.gen("y2")
    h2 = commutator(commutator(y0, y1), commutator(y0, y1 * y2))
    assert hopf_element(2) == h2
    assert hopf(2)[1] == "[[y0,y1],[y0,y1y2]]"
    # h(3) = [h(2), [[y0,y1],[y0,y1*y2*y3]]]
    right = commutator(commutator(y0, y1), commutator(y0, y1 * y2 * Word.gen("y3")))
    assert hopf_element(3) == commutator(h2, right)


def test_hopf_element_letters():
    for k in range(1, 5):
        assert hopf_element(k).generators() == [f"y{i}" for i in range(k + 1)]
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
