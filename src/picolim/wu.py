"""Truncated evaluation of the sphere formula pi_{n+1}(S^2) as a quotient
of intersected normal closures in a free group.

Everything runs in the free nilpotent quotient F/gamma_{c+1} of the free
group on y0..y_{n-1}, with the extra letter y_{-1} standing for the word
(y0 ... y_{n-1})^-1.  The numerator is the intersection of the n+1 normal
closures <y_i>^F; the denominator is the normal closure of all left-normed
commutators over tuples of signed letters, of length at most c, in which
every letter occurs.  Results are quotients of the untruncated group: a
nontrivial element found here is genuine, while collapse at class c proves
nothing about higher classes.

No closure is computed for the numerator.  For i >= 0, <y_i>^F is the span
of the basis elements whose Lyndon word contains i, so the n closures of
y0 .. y_{n-1} meet in the span of the basis elements that contain every
letter.  <y_-1>^F is the image of <y_{n-1}>^F under the rotation of the
letters, and the numerator is its one intersection with that span.

The same rotation permutes the tuple trees of the denominator search, so
only the trees at y_-1 and y_-1^-1 are searched and the rest are their
images; and only the minimal covering commutators, those formed from a
prefix that did not yet cover every letter, are closed, since each other
one lies in the normal closure of its prefix.
"""

from functools import cached_property, reduce

from .abelian import _canonical, _insert, order_in_quotient
from .errors import InternalError
from .nilpotent import PcSubgroup, free_nilpotent, intersect_pc, normal_closure_pc
from .words import Word


def letter_names(n):
    """The names y0 .. y{n-1} of the letters, the one place they are spelled."""
    return tuple(f"y{i}" for i in range(n))


class WuConfiguration:
    """Rank n and truncation class c, with lazily computed subgroups.
    Letter i of a Word is y_i, named names[i]."""

    def __init__(self, n, class_bound):
        if n < 1:
            raise ValueError("n must be at least 1")
        if class_bound < n:
            raise ValueError(
                "class bound below n leaves the denominator degenerate"
            )
        self.n = n
        self.class_bound = class_bound
        self.names = letter_names(n)
        self._group = None
        self._den = None
        self._num = None
        self._closures = None
        self.denominator_stats = None

    def group(self):
        if self._group is None:
            self._group = free_nilpotent(self.n, self.class_bound)
        return self._group

    @cached_property
    def letters(self):
        """[y_-1, y0, ..., y_{n-1}] as elements; y_-1 = (y0 ... y_{n-1})^-1."""
        G = self.group()
        return [G.inv(reduce(G.mul, G.gens()))] + G.gens()

    def signed_letters(self):
        """(coverage bit, element) for y_-1, y0, ..., both signs."""
        G = self.group()
        out = []
        for i, elt in enumerate(self.letters):
            out.append((1 << i, elt))
            out.append((1 << i, G.inv(elt)))
        return out

    def closures(self):
        """The normal closures of y_-1, y0, ..., y_{n-1}, in that order.

        For 0 <= i < n, <y_i>^F is the span of the basis elements whose
        Lyndon word contains i (see _letter_span).  <y_-1>^F comes from
        the rotation sigma: y_i -> y_{i+1} for i < n-1, y_{n-1} -> y_-1.
        Its image holds y1 .. y_{n-1} and y_-1, hence y0 =
        y_-1^-1 y_{n-1}^-1 ... y1^-1, so sigma is a surjective endomorphism
        of a finitely generated free group, an automorphism (free groups of
        finite rank are Hopfian).  It fixes gamma_{c+1}, so it induces an
        automorphism of the truncation that maps <y_{n-1}>^F onto <y_-1>^F.

        The image of a basis element is the commutator of the images of
        its two factors, as each basis element is that commutator.  The
        images of the rows a_k of <y_{n-1}>^F are inserted deepest first.
        Those of a_k, k >= j, generate sigma(N_j), N_j = <y_{n-1}>^F cap G_j
        and G_j the elements that lead at j or later: <y_{n-1}>^F has the
        rows a_k alone, so N_j is N_{j+1}, with a_j added when a_j is a
        row.  G_j lies between gamma_{w+1} and gamma_w, w = weight(j), so
        it is normal, and so are N_j and sigma(N_j).  Each new image
        therefore normalises the subgroup the rows so far are an igs of,
        and by the lemma in the intersect_pc docstring insertion alone
        extends them to an igs of the next one.
        """
        if self._closures is None:
            G = self.group()
            spans = [_letter_span(G, (i,)) for i in range(self.n)]
            self._closures = (self._rotated(spans[-1]), *spans)
        return self._closures

    @cached_property
    def rotation(self):
        """The images sigma(a_k) of the basis elements (see closures): a
        letter goes to the next one, and a basis element to the commutator
        of the images of its two factors."""
        G = self.group()
        letters = self.letters
        images = []
        for _, weight, bracket in G.basis.elements:
            if weight == 1:
                # y_j = letters[j + 1] goes to y_{j+1}, and y_{n-1} to y_-1
                images.append(letters[(bracket + 2) % (self.n + 1)])
            else:
                images.append(G.comm(images[bracket[0]], images[bracket[1]]))
        return images

    def _rotated(self, last):
        """<y_-1>^F from the igs rows a_k of <y_{n-1}>^F (see closures)."""
        G = self.group()
        rows = {}
        for k in reversed(last.pivots):
            _insert(G, rows, self.rotation[k])
        out = PcSubgroup(G, _canonical(G, rows))
        # sigma preserves the Hirsch length, and every row of the span has
        # leading exponent 1
        if len(out.pivots) != len(last.pivots) or not out.contains(self.letters[0]):
            raise InternalError("the rotated closure of y_{n-1} is not the closure of y_-1")
        return out

    def denominator(self):
        """The denominator; the counts of its search are kept beside it in
        denominator_stats."""
        if self._den is None:
            self._den, self.denominator_stats = wu_denominator(self)
        return self._den

    def numerator(self):
        if self._num is None:
            self._num = wu_numerator(self)
        return self._num


def _letter_span(G, letters):
    """Span of the basis elements whose Lyndon word contains every letter.

    For one letter i this is <y_i>^F, the kernel of the retraction rho that
    kills y_i and fixes the other generators.  rho is defined on the
    truncation G, as gamma_{c+1} is verbal, and factors through the
    projection q onto G / <y_i>^G.  The induced map s back to G has q as a
    left inverse (q s fixes every generator), so s is injective and
    ker rho = ker q = <y_i>^G.  rho maps a basic commutator that contains i
    to 1, and every other one to itself.  Those others are the Lyndon words on
    the remaining letters, with the same standard factorisation and the
    same order, so they form the Hall basis of the smaller truncation (M.
    Hall, The Theory of Groups, 1959, ch. 11).  By uniqueness of normal
    forms there, rho(u) = 1 iff every coordinate of u on a basic commutator
    without i is 0.  The members of the kernel are thus the elements
    supported on basic commutators with i, and these a_k, each leading at k
    with exponent 1, are its canonical igs.  Coordinate spans meet in
    coordinate spans, so for several letters this is the intersection of
    their closures.
    """
    want = set(letters)
    return PcSubgroup(G, {
        k: ((k, 1),) for k, (word, _, _) in enumerate(G.basis.elements) if want.issubset(word)
    })


def _denominator_generators(cfg):
    """Distinct nontrivial left-normed commutators over covering tuples.

    Returns (generators, minimal, stats).  The minimal generators are those
    formed, for some tuple, from a partial commutator that did not yet
    cover every letter; wu_denominator needs only them.

    Only the tuples that start with y_-1 or y_-1^-1 are searched.  The
    rotation sigma (see WuConfiguration.closures) is an automorphism of
    the truncation that permutes y_-1, y0, ..., y_{n-1} cyclically and
    keeps signs.  It maps the left-normed commutator of a tuple to that
    of the rotated tuple, the identity to the identity, and the letter
    set of a tuple onto that of its image, so it maps the tuple tree at
    a first letter x onto the tree at sigma(x) node by node: abandoned
    nodes, covering tuples, minimal generators and the commutators left
    out at the last level all correspond.  sigma^i takes y_-1^{+-1} to
    y_{i-1}^{+-1}, so the trees at y_-1^{+-1} and their images under
    sigma, ..., sigma^n are the trees at all 2(n+1) signed letters, once
    each.  Hence nodes and covering_nontrivial are n+1 times those of
    the two trees searched, and the generators, and the minimal ones,
    are the sigma^i-images of those found in them.

    The tuples are searched level by level: the frontier maps each
    distinct partial commutator to the multiplicities of the letter sets
    (coverage bits) of the tuples that reach it, so each is extended once
    per level by each signed letter, while the stats count tuples as a
    depth-first walk over them would.  A tuple is abandoned once its
    partial commutator collapses, since extending the identity only
    yields the identity again.  At the last level a commutator is formed
    only if some tuple that reaches it covers every letter; its nodes are
    counted first.
    """
    G = cfg.group()
    signed = cfg.signed_letters()
    full = (1 << (cfg.n + 1)) - 1
    gens = {}
    stats = {"nodes": 0, "covering_nontrivial": 0}
    # the two signed letters y_-1 and y_-1^-1 come first
    frontier = {elt: {bit: 1} for bit, elt in signed[:2]}
    for depth in range(1, cfg.class_bound):
        last = depth + 1 == cfg.class_bound
        nxt_frontier = {}
        for acc, covers in frontier.items():
            tuples = sum(covers.values())
            for bit, elt in signed:
                stats["nodes"] += tuples
                if last and all(cover | bit != full for cover in covers):
                    continue
                nxt = G.comm(acc, elt)
                if not nxt:
                    continue
                if not last:
                    nxt_covers = nxt_frontier.setdefault(nxt, {})
                for cover, m in covers.items():
                    cov = cover | bit
                    if cov == full:
                        stats["covering_nontrivial"] += m
                        gens[nxt] = gens.get(nxt, False) or cover != full
                    if not last:
                        nxt_covers[cov] = nxt_covers.get(cov, 0) + m
        frontier = nxt_frontier
    stats = {key: (cfg.n + 1) * count for key, count in stats.items()}
    orbit = list(gens.items())
    for _ in range(cfg.n):
        orbit = [(G.image(u, cfg.rotation), is_min) for u, is_min in orbit]
        for u, is_min in orbit:
            gens[u] = gens.get(u, False) or is_min
    return list(gens), [u for u, is_min in gens.items() if is_min], stats


def wu_denominator(cfg):
    """Normal closure of the covering left-normed commutators, from the
    minimal ones alone, with the counts of the search: nodes,
    covering_nontrivial and distinct_generators.

    A generator [u, x] = u (x u^-1 x^-1) lies in the normal closure of u.
    Let g be a generator that is not minimal, and take a shortest covering
    tuple that gives it, g = [u, x].  The prefix of that tuple covers
    every letter, and u is not trivial, as the search abandons trivial
    prefixes, so u is a generator given by a shorter tuple.  By induction
    on that length, u and hence g lie in the normal closure of the
    minimal generators.  The induction starts, since no prefix of length
    1 covers the n+1 >= 2 letters.
    """
    gens, minimal, stats = _denominator_generators(cfg)
    return normal_closure_pc(cfg.group(), minimal), dict(stats, distinct_generators=len(gens))


def wu_numerator(cfg):
    """Intersection of the n+1 normal closures: <y_-1>^F met with the span
    of the basis elements that contain every letter y0 .. y_{n-1}, which is
    the intersection of the other n."""
    return intersect_pc(cfg.closures()[0], _letter_span(cfg.group(), range(cfg.n)))


def wu_group(cfg):
    """Abelian invariants of numerator/denominator at this truncation.

    Checks the containment of the denominator and the centrality of the
    numerator modulo the denominator; a failure of either means the
    computation is wrong, not the configuration, and raises InternalError.
    """
    G = cfg.group()
    num = cfg.numerator()
    den = cfg.denominator()
    if not num.contains_subgroup(den):
        raise InternalError("denominator escapes the numerator")
    for row in num.igs:
        for g in G.gens():
            if not den.contains(G.comm(row, g)):
                raise InternalError(
                    f"centrality violation for igs row {G.element_text(row, cfg.names)}"
                )
    return num.quotient_invariants(den)


def wu_report(cfg):
    """JSON-ready summary of the truncated computation."""
    invariants = wu_group(cfg)
    num = cfg.numerator()
    den = cfg.denominator()
    return {
        "n": cfg.n,
        "class": cfg.class_bound,
        "numerator": {"igs_rows": len(num.pivots)},
        "denominator": dict(cfg.denominator_stats, igs_rows=len(den.pivots)),
        "invariants": invariants.to_json_dict(),
        "label": (
            f"truncated at class {cfg.class_bound}; the reported group is a "
            "quotient of the untruncated one"
        ),
    }


def membership_check(w, cfg):
    """Membership of a word in the truncated numerator and denominator,
    with its order in the quotient when it lies in the numerator.  A word
    that collapses to the identity at this class has order 1 and a note
    that says so, since the truncation cannot tell whether it dies in the
    untruncated quotient."""
    G = cfg.group()
    u = G.collect(w)
    den = cfg.denominator()
    num = cfg.numerator()
    in_den = den.contains(u)
    in_num = num.contains(u)
    order = None
    note = None
    if u == G.identity():
        order = 1
        note = f"the word collapses to the identity at class {cfg.class_bound}"
    elif in_num:
        vec = num.coords_of(u)
        rows = [num.coords_of(r) for r in den.igs]
        order = order_in_quotient(vec, rows)
        if order is None:
            note = f"infinite order at class {cfg.class_bound}"
    else:
        note = "not in the numerator; no order in the quotient"
    return {
        "in_denominator": in_den,
        "in_numerator": in_num,
        "order_in_quotient": order,
        "note": note,
    }


def braid_check(c):
    """Pairwise intersection-equals-commutator check for the three relator
    closures of the 4-string braid presentation, truncated at class c."""
    x, y, z = Word.gen(0), Word.gen(1), Word.gen(2)
    words = [
        x * y * x * (y * x * y).inverse(),
        y * z * y * (z * y * z).inverse(),
        x * z * (z * x).inverse(),
    ]
    G = free_nilpotent(3, c)
    closures = [normal_closure_pc(G, [G.collect(w)]) for w in words]
    pairs = []
    for i in range(3):
        for j in range(i + 1, 3):
            inter = intersect_pc(closures[i], closures[j])
            comm = closures[i].commutator(closures[j])
            if not inter.contains_subgroup(comm):
                raise InternalError(f"[closure {i + 1}, closure {j + 1}] escapes their intersection")
            pairs.append({
                "pair": [i + 1, j + 1],
                "equal": inter == comm,
                "intersection_rows": len(inter.pivots),
                "commutator_rows": len(comm.pivots),
            })
    return {
        "class": c,
        "pairs": pairs,
        "all_equal": all(p["equal"] for p in pairs),
    }
