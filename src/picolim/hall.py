"""Hall bases of free nilpotent groups, realized through Lyndon words.

A Lyndon word over the alphabet 0..r-1 is a word strictly smaller than all
of its proper rotations.  The Lyndon words of length at most c, bracketed
by standard factorization and ordered by (length, lex), form a Hall basis
of basic commutators for the free group of rank r modulo weight > c.  The
count in each weight agrees with the Witt number W(r, w), which this
module also computes independently from the Mobius function.
"""

from .errors import BudgetError, InternalError

BASIS_BUDGET = 5000


def mobius(n):
    out = 1
    p = 2
    while p * p <= n:
        if n % p == 0:
            n //= p
            if n % p == 0:
                return 0
            out = -out
        else:
            p += 1
    if n > 1:
        out = -out
    return out


def witt_number(r, w):
    """Dimension of the weight-w layer of the free Lie ring of rank r."""
    total = 0
    for d in range(1, w + 1):
        if w % d == 0:
            total += mobius(d) * r ** (w // d)
    if total % w:
        raise InternalError(f"Witt sum {total} at weight {w} is not divisible by {w}")
    return total // w


def lyndon_words(r, maxlen):
    """All Lyndon words over 0..r-1 of length <= maxlen, lexicographically.

    Duval's generation: extend periodically, then increment the last
    incrementable letter.
    """
    if r < 1 or maxlen < 1:
        return []
    out = []
    w = [0]
    while True:
        out.append(tuple(w))
        while len(w) < maxlen:
            w.append(w[len(w) % len(out[-1])])
        # out[-1] is the current Lyndon word; w is its periodic extension
        while w and w[-1] == r - 1:
            w.pop()
        if not w:
            return out
        w[-1] += 1


def standard_factorization(word):
    """Split a Lyndon word of length >= 2 as u·v with v the least proper suffix."""
    n = len(word)
    best = 1
    for i in range(2, n):
        if word[i:] < word[best:]:
            best = i
    return word[:best], word[best:]


class HallBasis:
    """Basic commutators of weight <= cls for rank generators.

    elements[i] is (word, weight, bracket) where bracket is the letter for
    weight 1 and a pair (left_index, right_index) otherwise, referring to
    earlier basis elements via standard factorization.
    """

    def __init__(self, rank, cls):
        if rank < 1 or cls < 1:
            raise ValueError("rank and class must be at least 1")
        counts = [witt_number(rank, w) for w in range(1, cls + 1)]
        total = sum(counts)
        if total > BASIS_BUDGET:
            sizing = ", ".join(f"W({rank},{w})={n}" for w, n in enumerate(counts, start=1))
            raise BudgetError(
                f"basis for rank {rank}, class {cls} needs {total} basic commutators "
                f"({sizing}); budget is {BASIS_BUDGET}"
            )
        self.rank = rank
        self.cls = cls
        words = sorted(lyndon_words(rank, cls), key=lambda w: (len(w), w))
        self.index_of_word = {w: i for i, w in enumerate(words)}
        self.elements = []
        for w in words:
            if len(w) == 1:
                self.elements.append((w, 1, w[0]))
            else:
                u, v = standard_factorization(w)
                self.elements.append((w, len(w), (self.index_of_word[u], self.index_of_word[v])))
        self.size = len(self.elements)
        self.weights = [e[1] for e in self.elements]
        got = [0] * cls
        for w in self.weights:
            got[w - 1] += 1
        if got != counts:
            raise InternalError("Lyndon word counts disagree with Witt numbers")

    def bracket_text(self, idx, names):
        """Nested commutator notation over generator names."""
        word, weight, bracket = self.elements[idx]
        if weight == 1:
            return names[bracket]
        left, right = bracket
        return f"[{self.bracket_text(left, names)},{self.bracket_text(right, names)}]"
