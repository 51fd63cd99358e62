import itertools

import pytest

from picolim.errors import BudgetError
from picolim.hall import (
    HallBasis,
    lyndon_words,
    mobius,
    standard_factorization,
    witt_number,
)


def test_mobius_values():
    known = {1: 1, 2: -1, 3: -1, 4: 0, 5: -1, 6: 1, 7: -1, 8: 0,
             9: 0, 10: 1, 12: 0, 30: -1}
    for n, mu in known.items():
        assert mobius(n) == mu


def _is_lyndon(word):
    n = len(word)
    return all(word < word[i:] + word[:i] for i in range(1, n))


def _lyndon_bruteforce(r, maxlen):
    out = []
    for n in range(1, maxlen + 1):
        for word in itertools.product(range(r), repeat=n):
            if _is_lyndon(word):
                out.append(word)
    return sorted(out)


@pytest.mark.parametrize("r,maxlen", [(1, 4), (2, 6), (3, 4), (4, 3)])
def test_lyndon_words_match_bruteforce(r, maxlen):
    got = lyndon_words(r, maxlen)
    assert sorted(got) == _lyndon_bruteforce(r, maxlen)
    # Duval emits in lexicographic order already
    assert got == sorted(got)


@pytest.mark.parametrize("r,w", [(2, 1), (2, 2), (2, 3), (2, 5), (3, 4), (4, 4)])
def test_witt_numbers_count_lyndon_words(r, w):
    per_weight = [word for word in lyndon_words(r, w) if len(word) == w]
    assert witt_number(r, w) == len(per_weight)


def test_witt_known_values():
    # rank 2: 2, 1, 2, 3, 6, 9, 18, 30
    assert [witt_number(2, w) for w in range(1, 9)] == [2, 1, 2, 3, 6, 9, 18, 30]
    assert [witt_number(3, w) for w in range(1, 5)] == [3, 3, 8, 18]


def test_standard_factorization():
    # both halves of the factorization of a Lyndon word are Lyndon words
    for word in lyndon_words(2, 6):
        if len(word) < 2:
            continue
        u, v = standard_factorization(word)
        assert u + v == word
        assert _is_lyndon(u)
        assert _is_lyndon(v)
        assert u < v


def test_hall_basis_sizes():
    b = HallBasis(2, 3)
    assert b.size == 5
    assert b.weights == [1, 1, 2, 3, 3]
    b = HallBasis(3, 2)
    assert b.size == 6
    b = HallBasis(1, 5)
    assert b.size == 1


def test_hall_basis_bracket_structure():
    b = HallBasis(2, 4)
    for idx in range(b.size):
        word, weight, bracket = b.elements[idx]
        assert weight == len(word)
        if weight == 1:
            assert bracket == word[0]
        else:
            left, right = bracket
            assert left < idx and right < idx
            assert b.elements[left][0] + b.elements[right][0] == word


def test_bracket_text():
    b = HallBasis(2, 3)
    names = ["x", "y"]
    texts = [b.bracket_text(i, names) for i in range(b.size)]
    assert texts[0] == "x"
    assert texts[1] == "y"
    assert texts[2] == "[x,y]"
    assert set(texts[3:]) == {"[x,[x,y]]", "[[x,y],y]"}


def test_weight_ordering_refined():
    b = HallBasis(3, 3)
    assert b.weights == sorted(b.weights)


def test_budget_exceeded():
    with pytest.raises(BudgetError):
        HallBasis(6, 7)


def test_bad_parameters():
    with pytest.raises(ValueError):
        HallBasis(0, 3)
    with pytest.raises(ValueError):
        HallBasis(2, 0)
