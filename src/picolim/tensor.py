"""Presented tensor group of a tuple of normal subgroups.

For normal subgroups N_1..N_n of a finite group G the tensor group T is
generated by symbols a (x) b, one per ordered partition (A, B) of the
index set into nonempty blocks and per pair a in N_A = cap_{i in A} N_i,
b in N_B, subject to four relator families (inverse symmetry of the two
orientations, biadditivity after conjugation, a three-block cyclic
relation, and conjugation of one symbol by another through the boundary).
The boundary sends a (x) b to the commutator [a, b] and makes T -> G a
crossed module under the diagonal conjugation action on symbols.  build_T
forms each boundary value once, where the conjugation relators need it,
and the presentation keeps them as steps: steps[x] is the image of column
x.  The boundary image, the soundness check, the crossed-module check and
the kernel all read that one list.

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
direct realization of T, whose boundary values are folded along the
Schreier tree T was realized on, whenever the order cap admits one.
"""

from itertools import repeat
from typing import NamedTuple

from .abelian import AbelianInvariants
from .coset import (
    COSET_LIMIT,
    coset_table_from_action,
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
    def __init__(self, ambient, column, relators, families, steps):
        """column maps each symbol to its generator column, in symbol order;
        steps[x] is the boundary image of column x."""
        self.ambient = ambient
        self.column = column
        self.symbols = list(column)
        self.base = Presentation([s.name for s in self.symbols], relators)
        self.families = families
        self.steps = steps
        self._reduction = None

    def reduction(self):
        """tietze(self.base), computed once."""
        if self._reduction is None:
            self._reduction = tietze(self.base)
        return self._reduction


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

    def conjugated(g):
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
            act = conjugated(a)
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
    # ds1 = [a1, b1] is the boundary step of column s1, its inverse that of s1 ^ 1.
    cols = list(column.values())
    steps = []
    for (_, _, a1, b1), s1 in column.items():
        d = G.comm(a1, b1)
        steps += (d, G.inv(d))
        act = conjugated(d)
        i = s1 >> 1
        relators.extend(zip(repeat(s1), cols[:i], repeat(s1 ^ 1), act[:i]))
        emit((s1, s1, s1 ^ 1, act[i]), "conjugation")
        relators.extend(zip(repeat(s1), cols[i + 1:], repeat(s1 ^ 1), act[i + 1:]))
    families["conjugation"] += len(symbols) * (len(symbols) - 1)

    return TensorPresentation(G, column, relators, families, steps)


def boundary_image(tp):
    """Subgroup of the ambient group generated by all boundary values."""
    return tp.ambient.subgroup(tp.steps[::2])


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
    _, perms = boundary_action(tp, tp.steps)
    return _moving(perms, tp.base.relators)


def _moving(perms, relators):
    """The relators whose walk through the column permutations moves point 0."""
    out = []
    for rel in relators:
        c = 0
        for x in rel:
            c = perms[x][c]
        if c:
            out.append(rel)
    return out


def crossed_module_check(tp):
    """The compatibility boundary(^g t) = g boundary(t) g^-1, exhaustively,
    under the diagonal action ^g(a (x) b) = (gag^-1) (x) (gbg^-1); a
    conjugate that is not a symbol fails too."""
    G = tp.ambient
    for g in range(G.n):
        for s, x in tp.column.items():
            a, b = G.conj(g, s.a), G.conj(g, s.b)
            if (s.A, s.B, a, b) not in tp.column or G.comm(a, b) != G.conj(g, tp.steps[x]):
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
    # each reduced column takes the step of the lowest column that maps to
    # it; nothing maps to a column only when every generator dies
    steps = [0] * (2 * len(reduced.generators))
    for x in reversed(range(len(image))):
        if image[x] is not None:
            steps[image[x]] = tp.steps[x]
    for x, y in enumerate(image):
        if tp.steps[x] != (0 if y is None else steps[y]):
            raise InternalError(f"column {x} and its Tietze image have different boundary steps")
    # coset 0 is the identity of T, so a relator holds iff it fixes coset 0;
    # a column that the reduction deletes acts as the identity
    t_order = table.n_cosets()
    raw = [range(t_order) if y is None else table.perms[y] for y in image]
    if _moving(raw, tp.base.relators):
        raise InternalError("a raw relator does not hold in the Tietze-reduced table")

    image_group, perms = boundary_action(tp, steps)
    image_order = image_group.order()
    if t_order % image_order:
        raise InternalError("image order does not divide the order of T")
    kernel_order = t_order // image_order

    pullback = coset_table_from_action(perms)
    mat, ncols = schreier_rewrite_matrix(pullback, reduced.relators)
    invariants = AbelianInvariants.from_relation_matrix(mat, ncols)

    notes = []
    try:
        T = FiniteGroup.from_coset_table(table)
    except BudgetError:
        T = None
        notes.append("T too large to realize; invariants not cross-checked")
    if T is not None:
        # boundary image of every element of T, along the tree T was realized on
        dval = [0] * T.n
        for b, a, x in T.tree:
            dval[b] = G.mul(dval[a], steps[x])
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
