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

and the family of iterated commutator words hopf_element(k) over the
letters 0..k, written y_0..y_k here, built by

    h(1) = [y_0, y_1]
    h(k) = [h(k-1), h(k-1) with its trailing product y_1...y_(k-1)
            extended by the next letter y_k]

so h(2) = [[y_0,y_1],[y_0,y_1 y_2]] and so on.  hopf(k) also gives the
nesting of its brackets, which presentations.render_brackets writes out.
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

    @classmethod
    def _of(cls, syllables):
        """A Word of reduced syllables, unchecked."""
        word = object.__new__(cls)
        word.syllables = syllables
        return word

    def __mul__(self, other):
        """Both operands are reduced, so only syllables across the junction
        cancel, pair by pair, and the first pair that does not merges."""
        left, right = self.syllables, other.syllables
        i, j = len(left), 0
        while i and j < len(right) and left[i - 1][0] == right[j][0]:
            gen, exp = left[i - 1][0], left[i - 1][1] + right[j][1]
            if exp:
                return Word._of(left[: i - 1] + ((gen, exp),) + right[j + 1 :])
            i -= 1
            j += 1
        return Word._of(left[:i] + right[j:])

    def inverse(self):
        return Word._of(tuple((gen, -exp) for gen, exp in reversed(self.syllables)))

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
    """h(k) as a word and as its bracket nesting, refused before it is
    built when U(k, k) exceeds LETTER_BUDGET.  In the nesting a tuple of
    letter indices is their product and a pair of nestings is their
    commutator: h(2) nests as (((0,), (1,)), ((0,), (1, 2))).

    Built level by level: level j holds h(j, m) for m = j..k, h(j) with its
    innermost trailing product extended to y_1...y_m, so h(j) = h(j, j).
    Level 1 is [y_0, y_1...y_m] and h(j, m) = [h(j-1, j-1), h(j-1, m)], so
    each of the k(k+1)/2 pairs (j, m) is built once.
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
        tail = tuple(range(1, m + 1))
        level.append((commutator(y0, Word(tuple((i, 1) for i in tail))), ((0,), tail)))
    for _ in range(1, k):
        (left, left_nest), rest = level[0], level[1:]
        level = [(commutator(left, w), (left_nest, nest)) for w, nest in rest]
    return level[0]


def hopf_element(k):
    """The k-th iterated commutator word, over letters 0..k."""
    return hopf(k)[0]
