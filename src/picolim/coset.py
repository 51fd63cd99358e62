"""Todd-Coxeter coset enumeration over a finite presentation.

Two strategies share one table and one coincidence routine:

  - "hlt": relator-driven scanning with filling: each live coset in turn
    traces every relator, defining cosets to close it, then fills its row;
  - "felsch": definition-driven, closing all consequences of each new table
    entry through a deduction stack before defining the next coset.

The table is a flat list of ints with two columns per generator (column
2*i is generator i, column 2*i+1 its inverse; x ^ 1 flips orientation).
Cosets are merged through a union-find array.  Only the trivial subgroup is
enumerated, so a table's cosets are the elements of the presented group.
A finished table is one permutation of the cosets per column, the format
of every transitive action in the package.
The limit bounds definitions: defining a coset beyond it raises
BudgetError("coset enumeration reached its limit of N definitions with L
live rows"), L being the cosets not merged away.  That is the one refusal
every caller reports; a returned table is always complete.  The
enumeration is deterministic for a fixed presentation, limit and strategy.
"""

from collections import deque

from .errors import BudgetError, InternalError
from .presentations import cyclic_reduce, cyclic_words

EMPTY = -1
COSET_LIMIT = 1_000_000  # default limit on definitions, also of --limit


class CosetTable:
    """A complete coset table.

    perms[x][c] is the target coset of coset c under column x; `defined`
    counts the cosets ever defined on the way to it.
    """

    def __init__(self, perms, defined):
        self.perms = perms
        self.defined = defined

    def n_cosets(self):
        return len(self.perms[0])


class _Enumeration:
    def __init__(self, ncols, relators, limit):
        self.nc = ncols
        self.relators = relators
        self.limit = limit
        self.tab = [EMPTY] * ncols
        self.p = [0]
        self.defined = 1
        self.dead = 0
        self.deductions = []
        self.save_deductions = False

    def rep(self, k):
        p = self.p
        while p[k] != k:
            p[k] = p[p[k]]
            k = p[k]
        return k

    def define(self, alpha, x):
        if self.defined >= self.limit:
            raise BudgetError(
                f"coset enumeration reached its limit of {self.limit} definitions"
                f" with {len(self.p) - self.dead} live rows"
            )
        n = len(self.p)
        self.p.append(n)
        self.tab.extend([EMPTY] * self.nc)
        self.tab[alpha * self.nc + x] = n
        self.tab[n * self.nc + (x ^ 1)] = alpha
        self.defined += 1
        return n

    def _merge(self, k, l, queue):
        k = self.rep(k)
        l = self.rep(l)
        if k != l:
            mu, nu = (k, l) if k < l else (l, k)
            self.p[nu] = mu
            self.dead += 1
            queue.append(nu)

    def coincidence(self, a, b):
        tab = self.tab
        nc = self.nc
        queue = deque()
        self._merge(a, b, queue)
        while queue:
            g = queue.popleft()
            base = g * nc
            for x in range(nc):
                d = tab[base + x]
                if d < 0:
                    continue
                tab[d * nc + (x ^ 1)] = EMPTY
                mu = self.rep(g)
                nu = self.rep(d)
                t = tab[mu * nc + x]
                if t >= 0:
                    self._merge(nu, t, queue)
                else:
                    t = tab[nu * nc + (x ^ 1)]
                    if t >= 0:
                        self._merge(mu, t, queue)
                    else:
                        tab[mu * nc + x] = nu
                        tab[nu * nc + (x ^ 1)] = mu
                        if self.save_deductions:
                            self.deductions.append((mu, x))

    def scan(self, alpha, w, fill):
        """Trace w from alpha forwards and backwards; close a one-entry gap,
        merge on a mismatch, or (with fill) define cosets to bridge it.

        A closed edge f --x--> b is pushed as the one deduction (f, x).
        Felsch scans ded_rels[x] from f, and that list holds every rotation
        of each relator and of its inverse that starts with x.  A relator
        walk that crosses the edge backwards, from b along x ^ 1, is the
        inverse of a walk that crosses it forwards, and a rotation of that
        inverse starts with x at f.  So (b, x ^ 1) would scan nothing new.
        """
        tab = self.tab
        nc = self.nc
        f = alpha
        i = 0
        b = alpha
        j = len(w) - 1
        while True:
            while i <= j:
                n = tab[f * nc + w[i]]
                if n < 0:
                    break
                f = n
                i += 1
            if i > j:
                if f != b:
                    self.coincidence(f, b)
                return
            while j >= i:
                n = tab[b * nc + (w[j] ^ 1)]
                if n < 0:
                    break
                b = n
                j -= 1
            if j < i:
                self.coincidence(f, b)
                return
            if j == i:
                tab[f * nc + w[i]] = b
                tab[b * nc + (w[i] ^ 1)] = f
                if self.save_deductions:
                    self.deductions.append((f, w[i]))
                return
            if not fill:
                return
            f = self.define(f, w[i])
            i += 1

    def run_hlt(self):
        alpha = 0
        while alpha < len(self.p):
            if self.p[alpha] == alpha:
                for w in self.relators:
                    self.scan(alpha, w, fill=True)
                    if self.p[alpha] != alpha:
                        break
                else:
                    base = alpha * self.nc
                    for x in range(self.nc):
                        if self.tab[base + x] < 0:
                            self.define(alpha, x)
            alpha += 1

    def run_felsch(self, ded_rels):
        self.save_deductions = True
        alpha = 0
        while alpha < len(self.p):
            if self.p[alpha] != alpha:
                alpha += 1
                continue
            base = alpha * self.nc
            x = 0
            while x < self.nc:
                if self.tab[base + x] < 0:
                    self.define(alpha, x)
                    self.deductions.append((alpha, x))
                    self.process_deductions(ded_rels)
                    if self.p[alpha] != alpha:
                        break
                x += 1
            if self.p[alpha] == alpha:
                alpha += 1

    def process_deductions(self, ded_rels):
        while self.deductions:
            a, x = self.deductions.pop()
            a = self.rep(a)
            for w in ded_rels[x]:
                self.scan(a, w, fill=False)
                a = self.rep(a)

    def columns(self):
        """One permutation per column of the live cosets, renumbered in order."""
        tab = self.tab
        nc = self.nc
        live = [g for g in range(len(self.p)) if self.p[g] == g]
        renumber = {g: i for i, g in enumerate(live)}
        perms = []
        for x in range(nc):
            targets = [tab[g * nc + x] for g in live]
            if min(targets) < 0:
                raise InternalError("incomplete table after enumeration")
            perms.append([renumber[self.rep(t)] for t in targets])
        return perms


def _deduction_relators(relators, ncols):
    """For each column, the rotations of every relator and its inverse that
    begin with that column."""
    by_col = [[] for _ in range(ncols)]
    seen = [set() for _ in range(ncols)]
    for rel in relators:
        for rot in cyclic_words(rel):
            c = rot[0]
            if rot not in seen[c]:
                seen[c].add(rot)
                by_col[c].append(rot)
    return by_col


def todd_coxeter(presentation, *, limit=COSET_LIMIT, strategy="hlt"):
    """The complete coset table of the trivial subgroup: one coset per
    element of the presented group, closed under all relators.  Raises
    BudgetError when more than `limit` cosets would be defined."""
    if strategy not in ("hlt", "felsch"):
        raise ValueError(f"unknown strategy {strategy!r}")
    relators = []
    seen = set()
    for rel in presentation.relators:
        cols = cyclic_reduce(rel)
        if cols and cols not in seen:
            seen.add(cols)
            relators.append(cols)
    nc = 2 * len(presentation.generators)
    enum = _Enumeration(nc, relators, limit)
    if strategy == "hlt":
        enum.run_hlt()
    else:
        enum.run_felsch(_deduction_relators(relators, nc))
    return CosetTable(enum.columns(), enum.defined)


def coset_table_from_action(perms):
    """Wrap a complete action, one permutation per column, as a table."""
    return CosetTable(perms, len(perms[0]))


def schreier_representatives(perms):
    """Breadth-first spanning tree of a complete action, rooted at point 0.

    perms[x][a] is the image of point a under column x.  Points leave the
    queue first in, first out and columns are tried in order.  Returns the
    tree edges (b, a, x) with b = perms[x][a], in the order the walk
    reaches b, so every parent comes before its children.  The action is
    transitive iff there is one edge fewer than points; callers check that.
    """
    seen = [False] * (len(perms[0]) if perms else 1)
    seen[0] = True
    order = [0]
    tree = []
    for a in order:
        for x, col in enumerate(perms):
            b = col[a]
            if not seen[b]:
                seen[b] = True
                order.append(b)
                tree.append((b, a, x))
    return tree


def schreier_rewrite_matrix(table, relators):
    """Abelianized Reidemeister-Schreier rewriting over a coset table.

    The subgroup whose cosets the table enumerates is generated by the
    Schreier generators u(c, g) = rep(c) g rep(c.g)^-1; those along the
    BFS tree are trivial and get no column.  Returns (rows, ncols) where
    each nonzero row is the exponent-sum vector of one relator rewritten at
    one coset, as sparse (column, value) pairs; the cokernel is the
    subgroup's abelianization.

    Relators are column tuples.  Every relator must act trivially on the
    cosets (true for any table of the same presentation, or any action
    factoring through the group).
    """
    perms = table.perms
    edges = schreier_representatives(perms)
    if len(edges) != table.n_cosets() - 1:
        raise InternalError("coset table is not connected")
    tree = set()
    for b, a, x in edges:
        tree.add((a, x))
        tree.add((b, x ^ 1))
    ngens = len(perms) // 2
    col_index = {}
    for a in range(table.n_cosets()):
        for i in range(ngens):
            if (a, 2 * i) not in tree:
                col_index[(a, i)] = len(col_index)
    rows = []
    for rel in relators:
        for start in range(table.n_cosets()):
            vec = {}
            c = start
            for x in rel:
                d = perms[x][c]
                # an inverse letter runs the generator's edge from d back to c
                k = col_index.get((d if x & 1 else c, x >> 1))
                if k is not None:
                    vec[k] = vec.get(k, 0) + (-1 if x & 1 else 1)
                c = d
            if c != start:
                raise InternalError("relator does not stabilize the cosets")
            row = tuple(sorted((k, v) for k, v in vec.items() if v))
            if row:
                rows.append(row)
    return rows, len(col_index)
