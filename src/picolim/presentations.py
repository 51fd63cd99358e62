"""Finite presentations and their one-line text format.

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

from .errors import ParseError
from .words import Word, commutator, render_word, valid_generator_name


class Presentation:
    """Generator names plus relators as freely reduced column tuples.

    Column 2*i is generator i and 2*i+1 its inverse, so x ^ 1 inverts a
    letter; the coset table uses the same columns.  This class is the only
    place that maps names to columns (`encode`) and columns to names
    (`word`).
    """

    def __init__(self, generators, relators=()):
        generators = tuple(generators)
        if not generators:
            raise ValueError("a presentation needs at least one generator")
        index = {}
        for name in generators:
            if not valid_generator_name(name):
                raise ValueError(f"bad generator name {name!r}")
            if name in index:
                raise ValueError(f"duplicate generator {name!r}")
            index[name] = len(index)
        relators = tuple(map(tuple, relators))
        cols = set().union(*relators)
        if cols and not (min(cols) >= 0 and max(cols) < 2 * len(generators)):
            raise ValueError(f"relator column outside 0..{2 * len(generators) - 1}")
        self.generators = generators
        self.relators = relators
        self._index = index

    def encode(self, word):
        """Column tuple of a Word over these generators; it is freely
        reduced because the Word is."""
        cols = []
        for name, exp in word.syllables:
            if name not in self._index:
                raise ValueError(f"unknown generator {name!r}")
            cols.extend([2 * self._index[name] + (exp < 0)] * abs(exp))
        return tuple(cols)

    def word(self, cols):
        """The Word spelled by a column tuple."""
        return Word(tuple((self.generators[x >> 1], -1 if x & 1 else 1) for x in cols))

    def render(self):
        gens = ",".join(self.generators)
        rels = ",".join(
            render_word(self.word(r), fallback_generator=self.generators[0])
            for r in self.relators
        )
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
        inverse = tuple(x ^ 1 for x in reversed(w))
        first.setdefault(min(v[i:] + v[:i] for v in (w, inverse) for i in range(len(v))), w)
    new = {2 * g: 2 * k for k, g in enumerate(survivors)}
    relators = [tuple(new[x & ~1] | (x & 1) for x in w) for w in first.values()]
    image = [None if y is None else new[y & ~1] | (y & 1) for y in image]
    return Presentation([p.generators[g] for g in survivors], relators), image


def _substitute(rel, image):
    """rel through image, freely and cyclically reduced."""
    out = []
    for x in rel:
        y = image[x]
        if y is None:
            continue
        if out and out[-1] == y ^ 1:
            out.pop()
        else:
            out.append(y)
    i, j = 0, len(out) - 1
    while i < j and out[i] == out[j] ^ 1:
        i += 1
        j -= 1
    return tuple(out[i:j + 1])


# str.isalpha and str.isdigit would admit the letters and digits of any script
_NAME = re.compile(r"[A-Za-z][A-Za-z0-9_]*")
_INT = re.compile(r"-[0-9]*|[0-9]+")


class _Lexer:
    SYMBOLS = "|:,*^[]"

    def __init__(self, text):
        self.text = text
        self.pos = 0
        self.line = 1
        self.col = 1
        self.tokens = []
        self._run()
        self.index = 0

    def _advance(self, n):
        for _ in range(n):
            if self.text[self.pos] == "\n":
                self.line += 1
                self.col = 1
            else:
                self.col += 1
            self.pos += 1

    def _run(self):
        text = self.text
        while self.pos < len(text):
            ch = text[self.pos]
            if ch.isspace():
                self._advance(1)
                continue
            start = (self.line, self.col)
            if ch in self.SYMBOLS:
                self.tokens.append((ch, ch, start))
                self._advance(1)
            elif m := _NAME.match(text, self.pos):
                self.tokens.append(("name", m.group(), start))
                self._advance(m.end() - self.pos)
            elif m := _INT.match(text, self.pos):
                if m.group() == "-":
                    raise ParseError("dangling minus sign", start[0], start[1])
                self.tokens.append(("int", int(m.group()), start))
                self._advance(m.end() - self.pos)
            else:
                raise ParseError(f"unexpected character {ch!r}", start[0], start[1])
        self.tokens.append(("end", None, (self.line, self.col)))

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
            raise ParseError(
                f"expected {what or kind}, found {shown!r}", tok[2][0], tok[2][1]
            )
        return tok


def _parse_keyword(lex, keyword):
    tok = lex.expect("name", f"'{keyword}'")
    if tok[1] != keyword:
        raise ParseError(f"expected '{keyword}', found {tok[1]!r}", tok[2][0], tok[2][1])
    lex.expect(":", "':'")


def _parse_term(lex, generators):
    tok = lex.expect("name", "generator name")
    if generators is not None and tok[1] not in generators:
        raise ParseError(f"unknown generator {tok[1]!r}", tok[2][0], tok[2][1])
    exp = 1
    if lex.peek()[0] == "^":
        lex.next()
        etok = lex.next()
        if etok[0] != "int":
            raise ParseError("expected integer exponent", etok[2][0], etok[2][1])
        exp = etok[1]
    return Word(((tok[1], exp),))


def _parse_word(lex, generators):
    if lex.peek()[0] == "[":
        lex.next()
        left = _parse_word(lex, generators)
        lex.expect(",", "','")
        right = _parse_word(lex, generators)
        lex.expect("]", "']'")
        return commutator(left, right)
    w = _parse_term(lex, generators)
    while lex.peek()[0] == "*":
        lex.next()
        w = w * _parse_term(lex, generators)
    return w


def parse_word(text, generators=None):
    """Parse a single word; optionally restrict to a known alphabet."""
    lex = _Lexer(text)
    w = _parse_word(lex, generators)
    tok = lex.peek()
    if tok[0] != "end":
        raise ParseError(f"trailing input {tok[1]!r}", tok[2][0], tok[2][1])
    return w


def parse_words(text, generators=None):
    """Parse a comma-separated word list (may be empty)."""
    lex = _Lexer(text)
    out = []
    if lex.peek()[0] != "end":
        out.append(_parse_word(lex, generators))
        while lex.peek()[0] == ",":
            lex.next()
            out.append(_parse_word(lex, generators))
    tok = lex.peek()
    if tok[0] != "end":
        raise ParseError(f"trailing input {tok[1]!r}", tok[2][0], tok[2][1])
    return out


def parse_presentation(text):
    lex = _Lexer(text)
    _parse_keyword(lex, "gens")
    gens = [lex.expect("name", "generator name")[1]]
    while lex.peek()[0] == ",":
        lex.next()
        gens.append(lex.expect("name", "generator name")[1])
    lex.expect("|", "'|'")
    _parse_keyword(lex, "rels")
    rels = []
    if lex.peek()[0] not in ("end",):
        rels.append(_parse_word(lex, gens))
        while lex.peek()[0] == ",":
            lex.next()
            rels.append(_parse_word(lex, gens))
    tok = lex.peek()
    if tok[0] != "end":
        raise ParseError(f"trailing input {tok[1]!r}", tok[2][0], tok[2][1])
    try:
        p = Presentation(gens)
    except ValueError as exc:
        raise ParseError(str(exc), 1, 1) from None
    return Presentation(gens, [p.encode(w) for w in rels])
