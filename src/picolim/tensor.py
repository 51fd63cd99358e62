"""Presented tensor group of a tuple of normal subgroups.

For normal subgroups N_1..N_n of a finite group G the tensor group T is
generated by symbols a (x) b, one per ordered partition (A, B) of the
index set into nonempty blocks and per pair a in N_A = cap_{i in A} N_i,
b in N_B, subject to four relator families (inverse symmetry of the two
orientations, biadditivity after conjugation, a three-block cyclic
relation, and conjugation of one symbol by another through the boundary).
The boundary sends a (x) b to the commutator [a, b] and makes T -> G a
crossed module under the diagonal conjugation action on symbols.

Relators are instantiated exhaustively over the finite element ranges as
column tuples (symbol i is column 2*i, its inverse 2*i+1) and deduplicated
after free reduction; identity-element symbols are kept and collapse
through the biadditive family.  The relators are counted from the block
orders before any symbol is made, and a tuple whose count passes
RELATOR_BUDGET is refused with BudgetError.  This raw presentation is the
specification.  kernel_of_boundary enumerates T by coset enumeration of
its Tietze reduction (presentations.tietze), checks that every raw
relator holds in the reduced table, rewrites the kernel through a
Schreier transversal of the boundary image, and cross-checks against a
direct realization of T whenever the order cap admits one.
"""

from itertools import repeat
from typing import NamedTuple

from .abelian import AbelianInvariants
from .colimit import NormalTuple
from .coset import (
    COSET_LIMIT,
    coset_table_from_action,
    schreier_representatives,
    schreier_rewrite_matrix,
    todd_coxeter,
)
from .errors import BudgetError, InternalError
from .finite import FiniteGroup, abelian_invariants_of_quotient
from .presentations import Presentation, free_reduce, tietze

# relators before deduplication; the largest full tuple of a catalog group
# under it is the full pair of C22, which counts 959,288
RELATOR_BUDGET = 1_000_000


class TensorSymbol(NamedTuple):
    """a (x) b at the ordered partition (A, B); index sets are 1-based."""

    A: tuple
    B: tuple
    a: int
    b: int

    @property
    def name(self):
        """Generator name in the rendered presentation."""
        ab = "".join(str(i) for i in self.A)
        bb = "".join(str(i) for i in self.B)
        return f"t_{ab}_{bb}_{self.a}_{self.b}"


class TensorPresentation:
    def __init__(self, ambient, column, relators, families):
        """column maps each symbol to its generator column, in symbol order."""
        self.ambient = ambient
        self.column = column
        self.symbols = list(column)
        self.base = Presentation([s.name for s in self.symbols], relators)
        self.families = families
        self._reduction = None

    def symbol(self, A, B, a, b):
        s = TensorSymbol(tuple(A), tuple(B), a, b)
        if s not in self.column:
            raise KeyError(f"no symbol {s}")
        return s

    def boundary_of(self, sym):
        return self.ambient.comm(sym.a, sym.b)

    def act(self, g, sym):
        """Diagonal conjugation ^g(a (x) b) = (gag^-1) (x) (gbg^-1)."""
        G = self.ambient
        return self.symbol(sym.A, sym.B, G.conj(g, sym.a), G.conj(g, sym.b))

    def reduction(self):
        """tietze(self.base), computed once."""
        if self._reduction is None:
            self._reduction = tietze(self.base)
        return self._reduction

    def boundary_steps(self):
        """Boundary image of each generator column, indexed by column."""
        steps = []
        for s in self.symbols:
            d = self.boundary_of(s)
            steps += (d, self.ambient.inv(d))
        return steps


def _block_subgroup(subgroups, A):
    acc = subgroups[A[0] - 1]
    for i in A[1:]:
        acc = acc.intersect(subgroups[i - 1])
    return acc


def _ordered_partitions(n):
    """All (A, B), A disjoint from B, both nonempty, union {1..n}."""
    out = []
    for mask in range(1, (1 << n) - 1):
        A = tuple(i + 1 for i in range(n) if mask >> i & 1)
        B = tuple(i + 1 for i in range(n) if not mask >> i & 1)
        out.append((A, B))
    return out


def _three_block_partitions(n):
    """Ordered triples (U, V, W) of disjoint nonempty sets covering {1..n}."""
    out = []
    for mask_u in range(1, 1 << n):
        rest = ((1 << n) - 1) ^ mask_u
        if not rest:
            continue
        sub = rest
        while sub:
            mask_v = sub
            mask_w = rest ^ mask_v
            if mask_w:
                U = tuple(i + 1 for i in range(n) if mask_u >> i & 1)
                V = tuple(i + 1 for i in range(n) if mask_v >> i & 1)
                W = tuple(i + 1 for i in range(n) if mask_w >> i & 1)
                out.append((U, V, W))
            sub = (sub - 1) & rest
    return out


def build_T(t):
    """Tensor presentation of a NormalTuple over the finite engine."""
    return _build(t)


def build_E(G, M, N):
    """build_T for (G, M, N) plus the square relators x (x) x = 1 for
    nontrivial x in M cap N, at every partition whose two blocks both
    contain x."""
    t = NormalTuple(G, (G.full_subgroup(), M, N))
    return _build(t, squares=[x for x in M.intersect(N).members if x != 0])


def _build(t, squares=None):
    G = t.ambient
    if not isinstance(G, FiniteGroup):
        raise TypeError("tensor builder needs the finite engine")
    n = t.n
    if n < 2:
        raise ValueError("need at least two subgroups")
    if n > 9:
        raise ValueError("index sets are printed as digit strings; n must be <= 9")
    subs = t.subgroups
    partitions = _ordered_partitions(n)
    blocks = {}
    for parts in partitions:
        for A in parts:
            if A not in blocks:
                blocks[A] = _block_subgroup(subs, A)
    triples = _three_block_partitions(n)
    # the relators below before deduplication, from the block orders: for
    # s symbols, s inverse, |N_A|^2 |N_B| biadditive, |N_U| |N_V| |N_W|
    # threefold and s^2 conjugation
    size = {A: block.order() for A, block in blocks.items()}
    nsym = sum(size[A] * size[B] for A, B in partitions)
    count = nsym + nsym * nsym + sum(size[A] ** 2 * size[B] for A, B in partitions)
    count += sum(size[U] * size[V] * size[W] for U, V, W in triples)
    if count > RELATOR_BUDGET:
        raise BudgetError(
            f"{nsym} tensor symbols give {count} relators, over the budget of "
            f"{RELATOR_BUDGET} relators"
        )
    symbols = [
        TensorSymbol(A, B, a, b)
        for A, B in partitions
        for a in blocks[A].members
        for b in blocks[B].members
    ]
    # a TensorSymbol is a tuple, so a plain (A, B, a, b) looks up its column
    column = {s: 2 * i for i, s in enumerate(symbols)}

    relators = []
    seen = set()
    families = {"inverse": 0, "biadditive": 0, "threefold": 0, "conjugation": 0}

    def emit(cols, family):
        cols = free_reduce(cols)
        if cols and cols not in seen:
            seen.add(cols)
            relators.append(cols)
            families[family] += 1

    # the letter (^g s)^-1 for every symbol s, in symbol order, from one
    # conjugation map per distinct g; the relators below use only these
    elements = set().union(*(block.members for block in blocks.values()))
    actions = {}

    def acting(g):
        act = actions.get(g)
        if act is None:
            conj = {x: G.conj(g, x) for x in elements}
            act = actions[g] = [column[(A, B, conj[a], conj[b])] ^ 1 for A, B, a, b in symbols]
        return act

    # a (x) b equals the inverse of b (x) a at the flipped partition
    for (A, B, a, b), x in column.items():
        emit((x, column[(B, A, b, a)]), "inverse")

    # aa' (x) b = (^a a' (x) ^a b)(a (x) b)
    for A, B in partitions:
        na, nb = blocks[A].members, blocks[B].members
        for a in na:
            act = acting(a)
            for a2 in na:
                for b in nb:
                    left = column[(A, B, G.mul(a, a2), b)]
                    r1 = act[column[(A, B, a2, b)] >> 1]
                    r2 = column[(A, B, a, b)]
                    emit((left, r2 ^ 1, r1), "biadditive")

    # three-block cyclic relation over U | V | W = {1..n}, none when n = 2
    for U, V, W in triples:
        UV = tuple(sorted(U + V))
        WU = tuple(sorted(W + U))
        VW = tuple(sorted(V + W))
        for u in blocks[U].members:
            for v in blocks[V].members:
                for x in blocks[W].members:
                    s1 = column[(UV, W, G.conj(u, G.comm(G.inv(u), v)), G.conj(u, x))]
                    s2 = column[(WU, V, G.conj(x, G.comm(G.inv(x), u)), G.conj(x, v))]
                    s3 = column[(VW, U, G.conj(v, G.comm(G.inv(v), x)), G.conj(v, u))]
                    emit((s1, s2, s3), "threefold")

    # conjugation of one symbol by another goes through the boundary:
    # s1 s2 s1^-1 (^(ds1) s2)^-1 = 1.  Symbol columns are even, so this word
    # is freely reduced unless s2 = s1, and its first two letters set it
    # apart from every other relator; only the s2 = s1 word goes through emit.
    cols = list(column.values())
    for (_, _, a1, b1), s1 in column.items():
        act = acting(G.comm(a1, b1))
        i = s1 >> 1
        relators.extend(zip(repeat(s1), cols[:i], repeat(s1 ^ 1), act[:i]))
        emit((s1, s1, s1 ^ 1, act[i]), "conjugation")
        relators.extend(zip(repeat(s1), cols[i + 1:], repeat(s1 ^ 1), act[i + 1:]))
    families["conjugation"] += len(symbols) * (len(symbols) - 1)

    if squares is not None:
        families["square"] = 0
        for x in squares:
            for A, B in partitions:
                if blocks[A].contains(x) and blocks[B].contains(x):
                    emit((column[(A, B, x, x)],), "square")

    return TensorPresentation(G, column, relators, families)


def boundary_image(tp):
    """Subgroup of the ambient group generated by all boundary values."""
    return tp.ambient.subgroup(tp.boundary_of(s) for s in tp.symbols)


def boundary_action(tp, steps):
    """The boundary image and, for each column x, the permutation of its
    members (by position) under right multiplication by steps[x]; columns
    with the same step share one permutation."""
    G = tp.ambient
    image = boundary_image(tp)
    pos = {e: i for i, e in enumerate(image.members)}
    if pos[0] != 0:
        raise InternalError("the boundary image does not start at the identity")
    perms = {}
    for d in steps:
        if d not in perms:
            perms[d] = [pos[G.mul(e, d)] for e in image.members]
    return image, [perms[d] for d in steps]


def relator_soundness(tp):
    """Relators that fail to map to the ambient identity (must be none).

    A relator maps to the identity iff the right action of its boundary
    steps on the boundary image fixes the identity, at position 0."""
    _, perms = boundary_action(tp, tp.boundary_steps())
    unsound = []
    for rel in tp.base.relators:
        c = 0
        for x in rel:
            c = perms[x][c]
        if c:
            unsound.append(rel)
    return unsound


def crossed_module_check(tp):
    """The compatibility boundary(^g t) = g boundary(t) g^-1, exhaustively."""
    G = tp.ambient
    for g in range(G.n):
        for s in tp.symbols:
            if tp.boundary_of(tp.act(g, s)) != G.conj(g, tp.boundary_of(s)):
                return False, (g, s)
    return True, None


def kernel_of_boundary(tp, limit=COSET_LIMIT, strategy="hlt"):
    """Order and abelian invariants of the kernel of the boundary T -> G.

    T is enumerated from the Tietze reduction of its presentation; each
    reduced generator keeps the boundary step of its original column, and
    every raw relator, read through the reduction, must fix the identity
    coset of the reduced table.  The order of T comes from coset
    enumeration; the kernel is rewritten through the Schreier transversal
    of its cosets (one coset per element of the boundary image).

    The kernel is central in T, so it is abelian and the invariants are
    exact.  The conjugation relators say s t s^-1 = ^(boundary s) t for
    all symbols s and t (the Peiffer identity), and the boundary is a
    homomorphism, so conjugation by any k in T acts on the symbols as
    ^(boundary k), which fixes every symbol when boundary k = 1.  When T
    fits under the realization cap the kernel is also built explicitly,
    its centrality checked on generators, and the invariants
    cross-checked.
    """
    reduced, image = tp.reduction()
    table = todd_coxeter(reduced, limit=limit, strategy=strategy)
    G = tp.ambient
    raw_steps = tp.boundary_steps()
    # each reduced column takes the step of the lowest column that maps to
    # it; nothing maps to a column only when every generator dies
    steps = [0] * (2 * len(reduced.generators))
    for x in reversed(range(len(image))):
        if image[x] is not None:
            steps[image[x]] = raw_steps[x]
    for x, y in enumerate(image):
        if raw_steps[x] != (0 if y is None else steps[y]):
            raise InternalError(f"column {x} and its Tietze image have different boundary steps")
    # coset 0 is the identity of T, so a relator holds iff it fixes coset 0
    cosets = table.rows
    for rel in tp.base.relators:
        c = 0
        for x in rel:
            if image[x] is not None:
                c = cosets[c][image[x]]
        if c:
            raise InternalError("a raw relator does not hold in the Tietze-reduced table")

    t_order = table.n_cosets()
    image_group, perms = boundary_action(tp, steps)
    image_order = image_group.order()
    if t_order % image_order:
        raise InternalError("image order does not divide the order of T")
    kernel_order = t_order // image_order

    pullback = coset_table_from_action(reduced.generators, list(zip(*perms)))
    mat, ncols = schreier_rewrite_matrix(pullback, reduced.relators)
    invariants = AbelianInvariants.from_relation_matrix(mat, ncols)

    notes = []
    try:
        T = FiniteGroup.from_coset_table(table)
    except BudgetError:
        T = None
        notes.append("T too large to realize; invariants not cross-checked")
    if T is not None:
        dval = _boundary_values(G, steps, table)
        members = [j for j in range(T.n) if dval[j] == 0]
        if len(members) != kernel_order:
            raise InternalError("direct kernel order differs from |T| / |image|")
        ker = T.subgroup(members)
        if ker.order() != kernel_order:
            raise InternalError("the kernel's elements do not close to a subgroup of its order")
        if any(T.mul(k, g) != T.mul(g, k) for k in ker.gens for g in T.gens()):
            raise InternalError("the kernel of the boundary is not central in T")
        direct = abelian_invariants_of_quotient(ker, T.trivial_subgroup())
        if direct != invariants:
            raise InternalError(
                f"direct kernel {direct} differs from Schreier rewriting {invariants}"
            )
    return {
        "t_order": t_order,
        "image_order": image_order,
        "kernel_order": kernel_order,
        "invariants": invariants,
        "verified": T is not None,
        "strategy": strategy,
        "notes": notes,
    }


def _boundary_values(G, steps, table):
    """Boundary image of every element of T, indexed by coset id, from the
    boundary step of each column of the table."""
    tree = schreier_representatives(table.rows)
    if len(tree) != table.n_cosets() - 1:
        raise InternalError("the table of T is not connected")
    dval = [0] * table.n_cosets()
    for b, a, x in tree:
        dval[b] = G.mul(dval[a], steps[x])
    return dval
