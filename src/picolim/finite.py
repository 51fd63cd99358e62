"""Explicitly enumerated finite groups and their subgroup calculus.

A FiniteGroup carries elements 0..n-1 with identity 0 and one permutation
per table column: its regular action, as a coset table over the trivial
subgroup holds it, so a group realized from one takes its permutations as
they are.  Generator i is perms[2i][0], the coset that its column 2i sends
the identity to; names of generators belong to presentations only.

The multiplication table is composed along the Schreier tree rather than
traced word by word: if b = a*x for a tree edge labelled by column x, then
mul(i, b) = perm_x[mul(i, a)], so column b is column a pushed through one
permutation.  The table is column-major (mul(i, j) = _mul[j][i]); above
_MUL_TABLE_CAP elements no table is kept and products are traced.  The
group keeps the tree as `tree`, so a map given on the columns, such as
the boundary of a tensor group, folds along it to every element.

FinSubgroup is an element set inside a parent FiniteGroup, together with
a greedy generating set.  Closures are a BFS over right multiplication by
the generators, so they cost O(|H| log |H|) products rather than |H|^2.
Normality, normal closures and commutator subgroups conjugate generators
only.  Normal subgroups are the joins of the normal closures of conjugacy
classes (Holt, Eick and O'Brien, Handbook of Computational Group Theory,
2005), and the whole lattice, built only on request, is the joins of the
cyclic subgroups.  Abelian invariants of a quotient A/B go through the
Smith normal form of the Cayley-graph relation matrix of A/B on the
generators of A.

The colimit formulas meet the same few subgroups over and over, so a
FiniteGroup keeps one table from member set to FinSubgroup.  Every
subgroup the group hands out, from its own methods and from intersect,
product and commutator, comes from that table: a member set seen before
returns the same object without another closure, and a new one is
validated and given its greedy generators once.  The object keeps its
normality once asked and the invariants of each quotient A/B it is the
numerator of, keyed by the members of B.  Refusals are not kept, and no
operation is cached by its operands: a result is only ever looked up by
its member set.
"""

import random
from itertools import compress

from .abelian import AbelianInvariants
from .coset import COSET_LIMIT, schreier_representatives, todd_coxeter
from .errors import BudgetError, InternalError

ORDER_CAP = 20_000
_MUL_TABLE_CAP = 1500


class FiniteGroup:
    def __init__(self, perms, name=None):
        """perms: one permutation of 0..n-1 per table column (g0, g0^-1, ...)."""
        self.n = len(perms[0]) if perms else 1
        if self.n > ORDER_CAP:
            raise BudgetError(f"group order {self.n} exceeds cap {ORDER_CAP}")
        self.perms = perms
        self._gens = tuple(p[0] for p in self.perms[::2])
        self.name = name
        # the BFS Schreier tree, whose edges (b, a, x) with b = a*x come
        # parents first, and the representatives as column tuples along it
        self.tree = schreier_representatives(self.perms)
        if len(self.tree) != self.n - 1:
            raise ValueError("generator permutations do not act transitively")
        self._rep_cols = [()] * self.n
        for b, a, x in self.tree:
            self._rep_cols[b] = self._rep_cols[a] + (x,)
        self._mul = None
        if self.n <= _MUL_TABLE_CAP:
            # column-major: column b = a*x is column a pushed through perm_x
            cols = [None] * self.n
            cols[0] = list(range(self.n))
            for b, a, x in self.tree:
                cols[b] = list(map(self.perms[x].__getitem__, cols[a]))
            self._mul = cols
        self._inv = [self._find_inverse(i) for i in range(self.n)]
        self._table = {}  # member frozenset -> its one FinSubgroup
        self._subgroups = None
        self._normals = None
        self._check_axioms()

    @classmethod
    def from_coset_table(cls, table, name=None):
        return cls(table.perms, name=name)

    @classmethod
    def from_presentation(cls, presentation, limit=COSET_LIMIT, name=None):
        return cls.from_coset_table(todd_coxeter(presentation, limit=limit), name=name)

    def _trace(self, start, cols):
        for x in cols:
            start = self.perms[x][start]
        return start

    def _find_inverse(self, i):
        # follow the representative word of i backwards from the identity;
        # _check_axioms verifies the inverse axiom for every element
        cols = self._rep_cols[i]
        out = 0
        for x in reversed(cols):
            out = self.perms[x ^ 1][out]
        return out

    def _check_axioms(self):
        for i in range(self.n):
            if self.mul(0, i) != i or self.mul(i, 0) != i:
                raise ValueError("identity axiom fails")
            if self.mul(i, self._inv[i]) != 0 or self.mul(self._inv[i], i) != 0:
                raise ValueError("inverse axiom fails")
        rng = random.Random(7)
        for _ in range(64):
            a = rng.randrange(self.n)
            b = rng.randrange(self.n)
            c = rng.randrange(self.n)
            if self.mul(self.mul(a, b), c) != self.mul(a, self.mul(b, c)):
                raise ValueError("associativity spot check fails")

    # -- element arithmetic -------------------------------------------------

    def mul(self, i, j):
        if self._mul is not None:
            return self._mul[j][i]
        return self._trace(i, self._rep_cols[j])

    def inv(self, i):
        return self._inv[i]

    def conj(self, g, x):
        """g x g^-1."""
        return self.mul(self.mul(g, x), self._inv[g])

    def comm(self, x, y):
        """x y x^-1 y^-1."""
        return self.mul(self.mul(x, y), self.mul(self._inv[x], self._inv[y]))

    def gens(self):
        """The elements of the generators, in order."""
        return self._gens

    def word_image(self, word):
        """Element of a Word, letter i as generator i.  A syllable g^e costs
        at most n - 1 products, since g^n is the identity in a group of
        order n."""
        word.check_letters(len(self._gens))
        out = 0
        for i, exp in word.syllables:
            g = self._gens[i]
            step = g if exp > 0 else self._inv[g]
            for _ in range(abs(exp) % self.n):
                out = self.mul(out, step)
        return out

    # -- distinguished subgroups -------------------------------------------

    def _subgroup_on(self, members):
        """The one FinSubgroup on the closed element set `members`: built
        and validated on first sight, looked up ever after."""
        key = frozenset(members)
        sub = self._table.get(key)
        if sub is None:
            sub = FinSubgroup(self, key)
            self._table[sub.member_set] = sub
        return sub

    def trivial_subgroup(self):
        return self._subgroup_on((0,))

    def full_subgroup(self):
        return self._subgroup_on(range(self.n))

    def center(self):
        members = [
            x
            for x in range(self.n)
            if all(self.mul(x, g) == self.mul(g, x) for g in self._gens)
        ]
        return self._subgroup_on(members)

    def derived_subgroup(self):
        return self.full_subgroup().commutator(self.full_subgroup())

    def subgroup(self, elements):
        """Closure of the given element ids."""
        return self._subgroup_on(_closure(self, elements)[0])

    def normal_closure(self, elements):
        members, _ = _normal_closure(self, self._gens, elements)
        return self._subgroup_on(members)

    def all_subgroups(self):
        """Every subgroup, sorted by (order, element tuple): the joins of cyclic ones."""
        if self._subgroups is None:
            cyclic = {}
            for g in range(1, self.n):
                members, gens = _closure(self, (g,))
                cyclic.setdefault(frozenset(members), gens)
            self._subgroups = self._joins(cyclic)
        return list(self._subgroups)

    def normal_subgroups(self):
        """Every normal subgroup, sorted by (order, element tuple).

        Each is a join of normal closures of conjugacy classes."""
        if self._normals is None:
            conjugators = self._gens
            closures = {}
            seen = set()
            for x in range(self.n):
                if x in seen:
                    continue
                orbit = [x]
                seen.add(x)
                for y in orbit:
                    for g in conjugators:
                        c = self.conj(g, y)
                        if c not in seen:
                            seen.add(c)
                            orbit.append(c)
                members, gens = _closure(self, orbit)
                closures.setdefault(frozenset(members), gens)
            self._normals = self._joins(closures)
        return list(self._normals)

    def _joins(self, seeds):
        """Every join of the subgroups `seeds` (member set -> generators),
        grown from the trivial subgroup until nothing new appears, sorted
        by (order, element tuple)."""
        found = {frozenset([0]): []}
        frontier = list(found)
        while frontier:
            nxt = []
            for h in frontier:
                for c, c_gens in seeds.items():
                    if c <= h:
                        continue
                    members, gens = _closure(self, c_gens, h, found[h])
                    grown = frozenset(members)
                    if grown not in found:
                        found[grown] = gens
                        nxt.append(grown)
            frontier = nxt
        return sorted(map(self._subgroup_on, found), key=lambda s: (s.order(), s.members))

    def quotient(self, normal):
        """Quotient group with its projection list (element -> coset id)."""
        if normal.parent is not self:
            raise ValueError("subgroup belongs to a different group")
        if not normal.is_normal():
            raise ValueError("quotient by a non-normal subgroup")
        reps, proj = _coset_labels(self, range(self.n), normal.members)
        perms = [[proj[perm[r]] for r in reps] for perm in self.perms]
        return FiniteGroup(perms), proj

    def __repr__(self):
        label = self.name or "FiniteGroup"
        return f"<{label} of order {self.n}>"


def _closure(group, seed, members=(0,), gens=()):
    """Members and a greedy generating set of <members, seed>, where
    `members` is a subgroup generated by `gens`.

    Each seed element not yet inside becomes a generator.  A BFS over right
    multiplication by the generators then closes the set: old members need
    only the new generator, new members need all of them.  In a finite
    group right multiplication by generators reaches the whole subgroup.
    """
    mul = group.mul
    inside = set(members)
    order = list(members)
    gens = list(gens)
    for s in seed:
        if s in inside:
            continue
        gens.append(s)
        frontier = []
        for m in order:
            c = mul(m, s)
            if c not in inside:
                inside.add(c)
                frontier.append(c)
        while frontier:
            order += frontier
            nxt = []
            for m in frontier:
                for g in gens:
                    c = mul(m, g)
                    if c not in inside:
                        inside.add(c)
                        nxt.append(c)
            frontier = nxt
    return inside, gens


def _normal_closure(group, conjugators, seed):
    """Members and generators of the normal closure of `seed` under
    conjugation by `conjugators`: a subgroup is normalized by a group
    exactly when the conjugates of its generators by the group's
    generators lie inside it."""
    members, gens = _closure(group, seed)
    pending = list(gens)
    while pending:
        fresh = [group.conj(g, h) for h in pending for g in conjugators]
        before = len(gens)
        members, gens = _closure(group, fresh, members, gens)
        pending = gens[before:]
    return members, gens


def _coset_labels(group, members, sub):
    """Coset representatives and labels of the cosets x*sub of the
    ascending `members`.  The first unlabelled x is the least element of
    its coset, so coset ids follow the order of the least elements."""
    proj = [None] * group.n
    reps = []
    for x in members:
        if proj[x] is None:
            label = len(reps)
            reps.append(x)
            for h in sub:
                proj[group.mul(x, h)] = label
    return reps, proj


class FinSubgroup:
    """A subgroup of a FiniteGroup: its full element set and a greedy
    generating set.  Its normality and the invariants of its quotients are
    computed once and kept on it."""

    def __init__(self, parent, members):
        self.parent = parent
        self.members = tuple(sorted(set(members)))
        self.member_set = frozenset(self.members)
        if 0 not in self.member_set:
            raise ValueError("subgroup must contain the identity")
        # the closure of a finite set equals the set exactly when it is closed
        closed, gens = _closure(parent, self.members)
        if closed != self.member_set:
            raise ValueError("element set is not closed under multiplication")
        self.gens = tuple(gens)
        self._normal = None
        self._quotients = {}  # member frozenset of B -> invariants of self/B

    def order(self):
        return len(self.members)

    def contains(self, x):
        return x in self.member_set

    def contains_subgroup(self, other):
        self._same_parent(other)
        return other.member_set <= self.member_set

    def _same_parent(self, other):
        if self.parent is not other.parent:
            raise ValueError("subgroups live in different groups")

    def is_normal(self):
        if self._normal is None:
            g = self.parent
            self._normal = all(
                g.conj(a, x) in self.member_set
                for a in g.gens()
                for x in self.gens
            )
        return self._normal

    def intersect(self, other):
        self._same_parent(other)
        return self.parent._subgroup_on(self.member_set & other.member_set)

    def product(self, other):
        """Set product HK; requires at least one factor normal, so that
        HK is the subgroup generated by H and K."""
        self._same_parent(other)
        if not (self.is_normal() or other.is_normal()):
            raise ValueError("product requires one normal factor")
        members, _ = _closure(self.parent, other.gens, self.members, self.gens)
        return self.parent._subgroup_on(members)

    def commutator(self, other):
        """[H, K]: the normal closure in <H, K> of the commutators of the
        generators of H with those of K."""
        self._same_parent(other)
        g = self.parent
        comms = [g.comm(a, b) for a in self.gens for b in other.gens]
        members, _ = _normal_closure(g, self.gens + other.gens, comms)
        return g._subgroup_on(members)

    def quotient_invariants(self, sub):
        return abelian_invariants_of_quotient(self, sub)

    def descriptor(self):
        return {"order": self.order()}

    def conjugate_by(self, g_elt):
        g = self.parent
        return g._subgroup_on({g.conj(g_elt, x) for x in self.members})

    def __eq__(self, other):
        return (
            isinstance(other, FinSubgroup)
            and self.parent is other.parent
            and self.member_set == other.member_set
        )

    def __hash__(self):
        return hash((id(self.parent), self.member_set))

    def __repr__(self):
        return f"<subgroup of order {self.order()}>"


def abelian_invariants_of_quotient(a, b):
    """Elementary divisors of A/B (B normal in A, quotient abelian).

    Both conditions are checked on generators of A, which suffices in a
    finite group.  The columns are the images of the generators of A; the
    rows are the Cayley-graph relations vec(q) + e_i - vec(q * gen_i) over
    the Schreier tree of the cosets under the generators.  A generator that
    lies in B only adds the unit row e_i.  Rows are summed densely over the
    few generators of A and handed on sparse.  The result is kept on A,
    keyed by the members of B; refusals are not kept.
    """
    if not a.contains_subgroup(b):
        raise ValueError("B is not contained in A")
    known = a._quotients.get(b.member_set)
    if known is not None:
        return known
    g = a.parent
    for x in a.gens:
        for y in b.gens:
            if g.conj(x, y) not in b.member_set:
                raise ValueError("B is not normal in A")
    for x in a.gens:
        for y in a.gens:
            if g.comm(x, y) not in b.member_set:
                raise ValueError("A/B is not abelian")
    reps, proj = _coset_labels(g, a.members, b.members)
    k = len(reps)
    if k == 1:
        inv = a._quotients[b.member_set] = AbelianInvariants(0, ())
        return inv
    m = len(a.gens)
    action = [[proj[g.mul(r, x)] for r in reps] for x in a.gens]
    tree = schreier_representatives(action)
    if len(tree) != k - 1:
        raise InternalError("generators fail to span the quotient")
    vec = [None] * k
    vec[0] = [0] * m
    for s, q, pos in tree:
        vec[s] = vec[q].copy()
        vec[s][pos] += 1
    rows = []
    for q in range(k):
        for pos, col in enumerate(action):
            s = col[q]
            row = [u - v for u, v in zip(vec[q], vec[s])]
            row[pos] += 1
            if any(row):
                rows.append(tuple(compress(enumerate(row), row)))
    inv = AbelianInvariants.from_relation_matrix(rows, m)
    if inv.order() != k:
        raise InternalError("quotient order mismatch after Smith reduction")
    a._quotients[b.member_set] = inv
    return inv
