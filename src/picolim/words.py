"""Freely reduced words over a named generator alphabet.

A word is stored as a tuple of syllables (name, exponent) with nonzero
integer exponents and no two adjacent syllables on the same generator, so
every Word is reduced by construction.  Exponents are plain Python ints and
may be arbitrarily large.  Words are immutable and hashable.

Besides the arithmetic (product, inverse, power) this module provides the
commutator constructor used throughout the package, with the convention

    commutator(x, y) = x y x^-1 y^-1

and the family of iterated commutator words hopf_element(k) built from
letters y0, y1, ... by

    h(1) = [y0, y1]
    h(k) = [h(k-1), h(k-1) with its trailing product y1...y(k-1)
            extended by the next letter yk]

so h(2) = [[y0,y1],[y0,y1*y2]], h(3) = [h(2), [[y0,y1],[y0,y1*y2*y3]]] and
so on.  hopf(k) also renders the nested bracket expression.
"""

import re

from .errors import BudgetError

LETTER_BUDGET = 1_000_000  # letters of a word spelled out one at a time

# the grammar of a generator name, also the DSL lexer's; str.isalpha and
# str.isdigit would admit the letters and digits of any script
NAME = re.compile(r"[A-Za-z][A-Za-z0-9_]*")


def valid_generator_name(name):
    return NAME.fullmatch(name) is not None


def _reduce(syllables):
    out = []
    for name, exp in syllables:
        if exp == 0:
            continue
        if out and out[-1][0] == name:
            merged = out[-1][1] + exp
            out.pop()
            if merged:
                out.append((name, merged))
        else:
            out.append((name, exp))
    return tuple(out)


class Word:
    """A freely reduced word; the empty word is the identity."""

    __slots__ = ("syllables",)

    def __init__(self, syllables=()):
        for name, exp in syllables:
            if not valid_generator_name(name):
                raise ValueError(f"bad generator name {name!r}")
            if not isinstance(exp, int):
                raise ValueError(f"exponent {exp!r} is not an int")
        self.syllables = _reduce(syllables)

    @classmethod
    def gen(cls, name, exp=1):
        return cls(((name, exp),))

    def is_identity(self):
        return not self.syllables

    def __mul__(self, other):
        return Word(self.syllables + other.syllables)

    def inverse(self):
        return Word(tuple((name, -exp) for name, exp in reversed(self.syllables)))

    def __pow__(self, n):
        if n == 0:
            return Word()
        base = self if n > 0 else self.inverse()
        out = Word()
        for _ in range(abs(n)):
            out = out * base
        return out

    def length(self):
        """Letter count of the reduced word."""
        return sum(abs(exp) for _, exp in self.syllables)

    def generators(self):
        return sorted({name for name, _ in self.syllables})

    def __eq__(self, other):
        return isinstance(other, Word) and self.syllables == other.syllables

    def __hash__(self):
        return hash(self.syllables)

    def __repr__(self):
        return f"Word({render_word(self)!r})"


def commutator(x, y):
    return x * y * x.inverse() * y.inverse()


def render_word(w, fallback_generator=None):
    """Render to the text form `a*b^2*c^-1`.

    The identity has no product form in the grammar; it renders as `g^0`
    using the word's first generator, or `fallback_generator` if given.
    """
    if w.is_identity():
        name = fallback_generator
        if name is None:
            raise ValueError("cannot render the identity without a generator name")
        return f"{name}^0"
    parts = []
    for name, exp in w.syllables:
        parts.append(name if exp == 1 else f"{name}^{exp}")
    return "*".join(parts)


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
    y0 = Word.gen("y0")
    level = []
    for m in range(1, k + 1):
        tail = [f"y{i}" for i in range(1, m + 1)]
        level.append((commutator(y0, Word(tuple((y, 1) for y in tail))), f"[y0,{''.join(tail)}]"))
    for _ in range(1, k):
        (left, left_text), rest = level[0], level[1:]
        level = [(commutator(left, w), f"[{left_text},{text}]") for w, text in rest]
    return level[0]


def hopf_element(k):
    """The k-th iterated commutator word, over letters y0..yk."""
    return hopf(k)[0]
