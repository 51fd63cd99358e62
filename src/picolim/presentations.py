"""Finite presentations and their one-line text format: the one home of
generator names.

Inside the package a letter is a generator index (see words).  This module
checks names against the grammar below, resolves them to indices once per
parse, and renders words and presentations back over a list of names.

Grammar (whitespace insignificant, newlines allowed anywhere):

    presentation := 'gens' ':' name (',' name)* '|' 'rels' ':' [word (',' word)*]
    word         := term ('*' term)* | '[' word ',' word ']'
    term         := name ('^' int)?
    name, int    := [A-Za-z][A-Za-z0-9_]*, -?[0-9]+  (ASCII only)

A bracket [w1, w2] parses to the commutator w1 w2 w1^-1 w2^-1.  Relators
are stored as column tuples (see Presentation).  Rendering always emits the
flat product form; parse(render(p)) == p.
"""

import re

from .errors import BudgetError, ParseError
from .words import LETTER_BUDGET, Word, commutator

# the grammar of a generator name, also the lexer's; str.isalpha and
# str.isdigit would admit the letters and digits of any script
NAME = re.compile(r"[A-Za-z][A-Za-z0-9_]*")


def _alphabet(generators):
    """{name: generator index}; ValueError on a bad or repeated name."""
    index = {}
    for name in generators:
        if not NAME.fullmatch(name):
            raise ValueError(f"bad generator name {name!r}")
        if name in index:
            raise ValueError(f"duplicate generator {name!r}")
        index[name] = len(index)
    return index


def render_word(w, names):
    """Render to the text form `a*b^2*c^-1`, letter i as names[i].  The
    identity has no product form in the grammar; it renders as
    names[0]^0."""
    if w.is_identity():
        return f"{names[0]}^0"
    return "*".join(names[i] if exp == 1 else f"{names[i]}^{exp}" for i, exp in w.syllables)


class Presentation:
    """Generator names plus relators as freely reduced column tuples.

    Column 2*i is generator i and 2*i+1 its inverse, so x ^ 1 inverts a
    letter; the coset table uses the same columns.  This class is the only
    place that maps letters to columns (`encode`) and columns to letters
    (`word`).
    """

    def __init__(self, generators, relators=()):
        generators = tuple(generators)
        if not generators:
            raise ValueError("a presentation needs at least one generator")
        _alphabet(generators)
        relators = tuple(map(tuple, relators))
        cols = set().union(*relators)
        if cols and not (min(cols) >= 0 and max(cols) < 2 * len(generators)):
            raise ValueError(f"relator column outside 0..{2 * len(generators) - 1}")
        self.generators = generators
        self.relators = relators

    def encode(self, word):
        """Column tuple of a Word over these generators; it is freely
        reduced because the Word is.  Each letter takes one column, and a
        letter outside the generators is refused."""
        letters = word.length()
        if letters > LETTER_BUDGET:
            raise BudgetError(
                f"word of {letters} letters exceeds the budget of {LETTER_BUDGET} letters"
            )
        word.check_letters(len(self.generators))
        cols = []
        for i, exp in word.syllables:
            cols.extend([2 * i + (exp < 0)] * abs(exp))
        return tuple(cols)

    def word(self, cols):
        """The Word spelled by a column tuple."""
        return Word(tuple((x >> 1, -1 if x & 1 else 1) for x in cols))

    def render(self):
        gens = ",".join(self.generators)
        rels = ",".join(render_word(self.word(r), self.generators) for r in self.relators)
        return f"gens: {gens} | rels: {rels}"

    def __eq__(self, other):
        return (
            isinstance(other, Presentation)
            and self.generators == other.generators
            and self.relators == other.relators
        )

    def __hash__(self):
        return hash((self.generators, self.relators))

    def __repr__(self):
        return f"Presentation({self.render()!r})"


def free_reduce(w):
    """w with each adjacent pair x, x ^ 1 cancelled."""
    out = []
    for x in w:
        if out and out[-1] == x ^ 1:
            out.pop()
        else:
            out.append(x)
    return tuple(out)


def cyclic_reduce(w):
    """A freely reduced w with each first and last letter that cancel
    around the cycle stripped."""
    i, j = 0, len(w) - 1
    while i < j and w[i] == w[j] ^ 1:
        i += 1
        j -= 1
    return tuple(w[i:j + 1])


def inverse(w):
    return tuple(x ^ 1 for x in reversed(w))


def cyclic_words(w):
    """Every rotation of w, then every rotation of its inverse."""
    for v in (w, inverse(w)):
        for i in range(len(v)):
            yield v[i:] + v[:i]


def tietze(p):
    """Tietze reduction of p by its relators of length 1 and 2.

    Each relator is rewritten through the identifications found so far and
    freely and cyclically reduced.  A single letter x kills its generator.
    Two letters x y of distinct generators identify x with y^-1 in a
    union-find whose classes keep their lowest generator; x x stays as a
    relator.  Passes repeat until one changes nothing.  The relators left
    are deduplicated up to rotation and inversion, in order of first
    occurrence, and the surviving generators keep their names and order.
    These are Tietze moves (Havas, Kenne, Richardson and Robertson, "A
    Tietze transformation program", 1984), so both presentations define
    the same group.

    Returns (reduced, image): image[x] is the column of the reduced
    presentation that original column x equals, or None where its
    generator dies.  If every generator dies, generator 0 is kept with the
    relator (0,).
    """
    n = len(p.generators)
    image = list(range(2 * n))  # original column -> root column, None once dead
    members = [[g] for g in range(n)]  # generators whose class has root g

    def relabel(g, col):
        """Column 2g of root g now equals col (None: the class dies)."""
        for h in members[g]:
            for x in (2 * h, 2 * h + 1):
                image[x] = None if col is None else col ^ (image[x] & 1)
        if col is not None:
            members[col >> 1] += members[g]
        members[g] = None

    rels = p.relators
    changed = True
    while changed:
        changed = False
        kept = []
        for rel in rels:
            w = _substitute(rel, image)
            if len(w) == 1:
                relabel(w[0] >> 1, None)
                changed = True
            elif len(w) == 2 and w[0] >> 1 != w[1] >> 1:
                low, high = sorted((w[0], w[1] ^ 1))
                relabel(high >> 1, low ^ (high & 1))
                changed = True
            elif w:
                kept.append(w)
        rels = kept

    survivors = [g for g in range(n) if members[g] is not None]
    if not survivors:
        return Presentation(p.generators[:1], [(0,)]), image
    first = {}
    for w in dict.fromkeys(rels):
        first.setdefault(min(cyclic_words(w)), w)
    new = {2 * g: 2 * k for k, g in enumerate(survivors)}
    relators = [tuple(new[x & ~1] | (x & 1) for x in w) for w in first.values()]
    image = [None if y is None else new[y & ~1] | (y & 1) for y in image]
    return Presentation([p.generators[g] for g in survivors], relators), image


def _substitute(rel, image):
    """rel through image, freely and cyclically reduced; the image and the
    free reduction share one loop because Tietze passes call this for
    every relator."""
    out = []
    for x in rel:
        y = image[x]
        if y is None:
            continue
        if out and out[-1] == y ^ 1:
            out.pop()
        else:
            out.append(y)
    return cyclic_reduce(out)


_INT = re.compile(r"-[0-9]*|[0-9]+")
_SPACE = re.compile(r"\s*")


class _Lexer:
    """Tokens (kind, value, offset) of a text, ending with an "end" token;
    line and column are worked out only for an error."""

    SYMBOLS = "|:,*^[]"

    def __init__(self, text):
        self.text = text
        self.tokens = []
        self.index = 0
        pos = _SPACE.match(text).end()
        while pos < len(text):
            ch = text[pos]
            if ch in self.SYMBOLS:
                self.tokens.append((ch, ch, pos))
                end = pos + 1
            elif m := NAME.match(text, pos):
                self.tokens.append(("name", m.group(), pos))
                end = m.end()
            elif m := _INT.match(text, pos):
                if m.group() == "-":
                    raise self.error("dangling minus sign", pos)
                self.tokens.append(("int", int(m.group()), pos))
                end = m.end()
            else:
                raise self.error(f"unexpected character {ch!r}", pos)
            pos = _SPACE.match(text, end).end()
        self.tokens.append(("end", None, pos))

    def error(self, message, offset):
        """A ParseError at a character offset, with its 1-based line and column."""
        text = self.text
        line_start = text.rfind("\n", 0, offset) + 1
        return ParseError(message, text.count("\n", 0, offset) + 1, offset - line_start + 1)

    def peek(self):
        return self.tokens[self.index]

    def next(self):
        tok = self.tokens[self.index]
        self.index += 1
        return tok

    def expect(self, kind, what=None):
        tok = self.next()
        if tok[0] != kind:
            shown = tok[1] if tok[0] != "end" else "end of input"
            raise self.error(f"expected {what or kind}, found {shown!r}", tok[2])
        return tok


def _parse_all(text, parse):
    """parse(lexer) over the whole text, which must leave no input."""
    lex = _Lexer(text)
    out = parse(lex)
    tok = lex.peek()
    if tok[0] != "end":
        raise lex.error(f"trailing input {tok[1]!r}", tok[2])
    return out


def _comma_list(lex, parse_item):
    items = [parse_item(lex)]
    while lex.peek()[0] == ",":
        lex.next()
        items.append(parse_item(lex))
    return items


def _parse_keyword(lex, keyword):
    tok = lex.expect("name", f"'{keyword}'")
    if tok[1] != keyword:
        raise lex.error(f"expected '{keyword}', found {tok[1]!r}", tok[2])
    lex.expect(":", "':'")


def _parse_term(lex, index):
    tok = lex.expect("name", "generator name")
    i = index.get(tok[1])
    if i is None:
        raise lex.error(f"unknown generator {tok[1]!r}", tok[2])
    exp = 1
    if lex.peek()[0] == "^":
        lex.next()
        etok = lex.next()
        if etok[0] != "int":
            raise lex.error("expected integer exponent", etok[2])
        exp = etok[1]
    return Word(((i, exp),))


def _parse_word(lex, index):
    if lex.peek()[0] == "[":
        lex.next()
        left = _parse_word(lex, index)
        lex.expect(",", "','")
        right = _parse_word(lex, index)
        lex.expect("]", "']'")
        return commutator(left, right)
    w = _parse_term(lex, index)
    while lex.peek()[0] == "*":
        lex.next()
        w = w * _parse_term(lex, index)
    return w


def _parse_word_list(lex, index):
    """Comma-separated words up to the end of input; there may be none."""
    if lex.peek()[0] == "end":
        return []
    return _comma_list(lex, lambda lex: _parse_word(lex, index))


def parse_word(text, generators):
    """Parse a single word over the given generator names, which are
    checked first; letter i is generators[i]."""
    index = _alphabet(generators)
    return _parse_all(text, lambda lex: _parse_word(lex, index))


def parse_words(text, generators):
    """Parse a comma-separated word list (may be empty) over the given
    generator names, as parse_word."""
    index = _alphabet(generators)
    return _parse_all(text, lambda lex: _parse_word_list(lex, index))


def _parse_presentation(lex):
    """The generator names and the relator words over them."""
    _parse_keyword(lex, "gens")
    index = {}
    for _, name, offset in _comma_list(lex, lambda lex: lex.expect("name", "generator name")):
        if name in index:
            raise lex.error(f"duplicate generator {name!r}", offset)
        index[name] = len(index)
    lex.expect("|", "'|'")
    _parse_keyword(lex, "rels")
    return list(index), _parse_word_list(lex, index)


def parse_presentation(text):
    gens, rels = _parse_all(text, _parse_presentation)
    p = Presentation(gens)
    return Presentation(gens, [p.encode(w) for w in rels])
