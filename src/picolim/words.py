"""Freely reduced words over integer letters.

A word is stored as a tuple of syllables (generator index, exponent) with
nonzero integer exponents and no two adjacent syllables on the same
generator, so every Word is reduced by construction.  Exponents are plain
Python ints and may be arbitrarily large.  Words are immutable and
hashable.  A letter is only an index; its name is known to the DSL that
parses and renders words (presentations), and the engine that evaluates a
word refuses a letter outside its group with check_letters.

Besides the arithmetic (product, inverse) this module provides the
commutator constructor used throughout the package, with the convention

    commutator(x, y) = x y x^-1 y^-1

and the family of iterated commutator words hopf_element(k) built from
letters y0, y1, ... (letter i is yi) by

    h(1) = [y0, y1]
    h(k) = [h(k-1), h(k-1) with its trailing product y1...y(k-1)
            extended by the next letter yk]

so h(2) = [[y0,y1],[y0,y1*y2]], h(3) = [h(2), [[y0,y1],[y0,y1*y2*y3]]] and
so on.  hopf(k) also renders the nested bracket expression.
"""

from .errors import BudgetError

LETTER_BUDGET = 1_000_000  # letters of a word spelled out one at a time


def _reduce(syllables):
    out = []
    for gen, exp in syllables:
        if exp == 0:
            continue
        if out and out[-1][0] == gen:
            merged = out[-1][1] + exp
            out.pop()
            if merged:
                out.append((gen, merged))
        else:
            out.append((gen, exp))
    return tuple(out)


class Word:
    """A freely reduced word; the empty word is the identity."""

    __slots__ = ("syllables",)

    def __init__(self, syllables=()):
        for gen, exp in syllables:
            if not (isinstance(gen, int) and gen >= 0):
                raise ValueError(f"letter {gen!r} is not a generator index")
            if not isinstance(exp, int):
                raise ValueError(f"exponent {exp!r} is not an int")
        self.syllables = _reduce(syllables)

    @classmethod
    def gen(cls, i, exp=1):
        """The letter of generator i, to the power exp."""
        return cls(((i, exp),))

    def is_identity(self):
        return not self.syllables

    def __mul__(self, other):
        return Word(self.syllables + other.syllables)

    def inverse(self):
        return Word(tuple((gen, -exp) for gen, exp in reversed(self.syllables)))

    def length(self):
        """Letter count of the reduced word."""
        return sum(abs(exp) for _, exp in self.syllables)

    def generators(self):
        """The generator indices that occur, ascending."""
        return sorted({gen for gen, _ in self.syllables})

    def check_letters(self, n):
        """ValueError unless every letter is one of the generators 0..n-1."""
        for gen, _ in self.syllables:
            if gen >= n:
                raise ValueError(f"letter {gen} is outside the {n} generators")

    def __eq__(self, other):
        return isinstance(other, Word) and self.syllables == other.syllables

    def __hash__(self):
        return hash(self.syllables)

    def __repr__(self):
        return f"Word({self.syllables!r})"


def commutator(x, y):
    return x * y * x.inverse() * y.inverse()


def hopf_letter_bound(k):
    """U(k, k) >= the letters of h(k), where U(1, m) = 2 + 2m and
    U(k, m) = 2 U(k-1, k-1) + 2 U(k-1, m), carried up as a + b m."""
    a, b = 2, 2
    for j in range(1, k):
        a, b = 4 * a + 2 * b * j, 2 * b
    return a + b * k


def hopf(k):
    """h(k) as a word and as bracket text, e.g. [[y0,y1],[y0,y1y2]];
    refused before it is built when U(k, k) exceeds LETTER_BUDGET.

    Built level by level: level j holds h(j, m) for m = j..k, h(j) with its
    innermost trailing product extended to y1...ym, so h(j) = h(j, j).
    Level 1 is [y0, y1...ym] and h(j, m) = [h(j-1, j-1), h(j-1, m)], so each
    of the k(k+1)/2 pairs (j, m) is built once.
    """
    if k < 1:
        raise ValueError("k must be at least 1")
    bound = hopf_letter_bound(k)
    if bound > LETTER_BUDGET:
        raise BudgetError(
            f"h({k}) may have {bound} letters, over the budget of {LETTER_BUDGET} letters"
        )
    y0 = Word.gen(0)
    level = []
    for m in range(1, k + 1):
        tail = Word(tuple((i, 1) for i in range(1, m + 1)))
        text = "".join(f"y{i}" for i in range(1, m + 1))
        level.append((commutator(y0, tail), f"[y0,{text}]"))
    for _ in range(1, k):
        (left, left_text), rest = level[0], level[1:]
        level = [(commutator(left, w), f"[{left_text},{text}]") for w, text in rest]
    return level[0]


def hopf_element(k):
    """The k-th iterated commutator word, over letters 0..k."""
    return hopf(k)[0]
