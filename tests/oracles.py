"""Test oracles: checks and views of the engines that only the tests use.

Each function takes the engine objects it inspects as arguments; none of
them is needed to compute an answer.
"""

import csv
import random
from math import gcd

from picolim.abelian import _bezout, _diagonalize
from picolim.finite import FinSubgroup
from picolim.nilpotent import IDENTITY, subgroup
from picolim.presentations import Presentation
from picolim.tensor import _free_reduce
from picolim.words import Word


# -- integer matrices ------------------------------------------------------------


def hermite_reduce_dense(rows, ncols):
    """Canonical row Hermite form, by insertion of dense rows."""
    basis = {}  # pivot column -> row

    def insert(vec):
        vec = list(vec)
        while True:
            col = next((j for j, v in enumerate(vec) if v), None)
            if col is None:
                return
            if col not in basis:
                if vec[col] < 0:
                    vec = [-v for v in vec]
                basis[col] = vec
                return
            row = basis[col]
            a, b = row[col], vec[col]
            if b % a == 0:
                q = b // a
                vec = [v - q * r for v, r in zip(vec, row)]
                continue
            g = gcd(a, b)
            x, y = _bezout(a, b, g)
            comb = [x * r + y * v for r, v in zip(row, vec)]
            vec = [v - (b // g) * c for v, c in zip(vec, comb)]
            leftover = [r - (a // g) * c for r, c in zip(row, comb)]
            basis[col] = comb
            insert(leftover)

    for vec in rows:
        if len(vec) != ncols:
            raise ValueError("ragged matrix")
        insert(vec)

    cols = sorted(basis)
    for i, ci in enumerate(cols):
        for cj in cols[i + 1 :]:
            row = basis[ci]
            piv = basis[cj][cj]
            q = row[cj] // piv
            if q:
                basis[ci] = [v - q * r for v, r in zip(row, basis[cj])]
    return [basis[c] for c in cols]


def smith_normal_form_dense(rows, ncols):
    """Smith divisors by dense elimination of the whole Hermite form."""
    return _diagonalize(hermite_reduce_dense(rows, ncols), ncols)


# -- pc engine ---------------------------------------------------------------


def exponents(G, u):
    """Dense exponent vector of a pc element."""
    dense = [0] * G.basis.size
    for i, e in u:
        dense[i] = e
    return dense


def commutation_table(G, j, i):
    """Collected [a_j, a_i]."""
    return G.comm(G.basis_element(j), G.basis_element(i))


def element_to_series(G, u):
    """Image of a pc element in the truncated power-series algebra."""
    out = G.alg.one()
    for i, e in u:
        out = G.alg.mul(out, G.alg.pow(G.series_of_basis(i), e))
    return out


def project_element(target, u):
    """Image in the same-rank group of smaller class (drop deep syllables)."""
    return tuple((i, e) for i, e in u if i < target.basis.size)


def project_subgroup(target, H):
    return subgroup(target, [project_element(target, r) for r in H.igs])


def consistency_report(G, trials=64, seed=11):
    """Random associativity/inverse checks plus the series-embedding oracle."""
    rng = random.Random(seed)

    def rand_el():
        u = IDENTITY
        for _ in range(rng.randrange(1, 5)):
            u = G._mul_gen(u, rng.randrange(G.rank), rng.randrange(-3, 4))
        return u

    failures = []
    for t in range(trials):
        u, v, w = rand_el(), rand_el(), rand_el()
        if G.mul(G.mul(u, v), w) != G.mul(u, G.mul(v, w)):
            failures.append(("associativity", u, v, w))
        if G.mul(u, G.inv(u)) != IDENTITY:
            failures.append(("inverse", u))
        lhs = element_to_series(G, G.mul(u, v))
        rhs = G.alg.mul(element_to_series(G, u), element_to_series(G, v))
        if lhs != rhs:
            failures.append(("series", u, v))
    return failures


def subgroup_to_csv(H, path):
    """One row per igs row: pivot index, then the dense exponent vector."""
    G = H.parent
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["pivot"] + [f"e{i}" for i in range(G.basis.size)])
        for d in H.pivots:
            writer.writerow([d] + exponents(G, H.rows[d]))


# -- coset tables --------------------------------------------------------------


def column_names(table):
    out = []
    for g in table.generators:
        out.extend([g, f"{g}^-1"])
    return out


def coset_table_csv(table):
    lines = ["coset," + ",".join(column_names(table))]
    for i, row in enumerate(table.rows):
        lines.append(str(i) + "," + ",".join(str(v) for v in row))
    return "\n".join(lines) + "\n"


# -- tensor presentations ------------------------------------------------------


def one_orientation_presentation(tp):
    """Rewrite onto the symbols whose first block contains index 1.

    The inverse-symmetry family makes the flipped-orientation symbols
    redundant; this gives a smaller presentation of the same group (a
    check target, not the primary object).
    """
    keep = [s for s in tp.symbols if 1 in s.A]
    new = {s: 2 * j for j, s in enumerate(keep)}
    # old column -> new column; a flipped symbol is the inverse of its mirror
    remap = []
    for A, B, a, b in tp.symbols:
        if 1 in A:
            x = new[(A, B, a, b)]
            remap += (x, x + 1)
        else:
            x = new[(B, A, b, a)]
            remap += (x + 1, x)

    relators = []
    seen = set()
    for rel in tp.base.relators:
        cols = _free_reduce([remap[x] for x in rel])
        if cols and cols not in seen:
            seen.add(cols)
            relators.append(cols)
    names = [name for name, s in zip(tp.base.generators, tp.symbols) if 1 in s.A]
    return Presentation(names, relators)


# -- finite engine -------------------------------------------------------------


def _closure_by_products(g, seed):
    """Closure by multiplying every new element with every member."""
    members = set(seed) | {0}
    frontier = list(members)
    while frontier:
        nxt = []
        for a in frontier:
            for b in list(members):
                for c in (g.mul(a, b), g.mul(b, a)):
                    if c not in members:
                        members.add(c)
                        nxt.append(c)
        frontier = nxt
    return members


def normal_subgroups_by_lattice(g):
    """Normal subgroups found by filtering the whole subgroup lattice."""
    return [h for h in g.all_subgroups() if h.is_normal()]


def commutator_by_elements(h, k):
    """[H, K] from all |H||K| commutators, normalised inside <H, K>."""
    g = h.parent
    members = _closure_by_products(g, {g.comm(a, b) for a in h.members for b in k.members})
    join = _closure_by_products(g, h.member_set | k.member_set)
    while True:
        extra = {g.conj(j, x) for j in join for x in members} - members
        if not extra:
            return FinSubgroup(g, members)
        members = _closure_by_products(g, members | extra)


def coset_labels_by_min(a, b):
    """Coset id of each x in A: the rank of min(xB) among the coset minima."""
    g = a.parent
    least = {x: min(g.mul(x, y) for y in b.members) for x in a.members}
    rank = {r: i for i, r in enumerate(sorted(set(least.values())))}
    return {x: rank[r] for x, r in least.items()}


# -- words ---------------------------------------------------------------------


def reduce_word(w):
    """Re-run free reduction; a no-op on any Word, kept as an explicit op."""
    return Word(w.syllables)
