"""Test oracles: checks and views of the engines that only the tests use.

Each function takes the engine objects it inspects as arguments; none of
them is needed to compute an answer.
"""

import csv
import random
from functools import lru_cache, reduce
from itertools import combinations
from math import gcd

from picolim import catalog
from picolim.abelian import AbelianInvariants, _bezout, _diagonalize
from picolim.colimit import NormalTuple, symmetric_commutator
from picolim.errors import InternalError
from picolim.finite import FinSubgroup, _coset_labels, abelian_invariants_of_quotient
from picolim.hall import HallBasis
from picolim.nilpotent import IDENTITY, intersect_pc, normal_closure_pc, subgroup
from picolim.presentations import Presentation, free_reduce, parse_presentation
from picolim.tensor import _block_subgroup, _ordered_partitions, _three_block_partitions
from picolim.words import Word, commutator
from picolim.wu import WuConfiguration


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


def in_lattice(vec, basis):
    """Membership of an integer vector in a Hermite-basis lattice."""
    vec = list(vec)
    for row in basis:
        col = next(j for j, v in enumerate(row) if v)
        if vec[col]:
            if vec[col] % row[col]:
                return False
            q = vec[col] // row[col]
            vec = [v - q * r for v, r in zip(vec, row)]
    return not any(vec)


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


class TruncatedAlgebra:
    """Truncated free associative algebra over the integers, with series
    as dicts from monomials (tuples of letters) to nonzero coefficients:
    the ungraded reference for magnus.GradedAlgebra."""

    def __init__(self, rank, cls):
        self.rank = rank
        self.cls = cls

    def one(self):
        return {(): 1}

    def gen(self, i):
        return {(): 1, (i,): 1}

    def mul(self, f, g):
        out = {}
        for m1, c1 in f.items():
            for m2, c2 in g.items():
                if len(m1) + len(m2) > self.cls:
                    continue
                m = m1 + m2
                c = out.get(m, 0) + c1 * c2
                if c:
                    out[m] = c
                else:
                    del out[m]
        return out

    def inv(self, f):
        """Alternating geometric series of f - 1."""
        if f.get((), 0) != 1:
            raise InternalError("inverse needs constant term 1")
        u = dict(f)
        del u[()]
        out = self.one()
        power = self.one()
        for k in range(1, self.cls + 1):
            power = self.mul(power, u)
            for m, c in power.items():
                c = out.get(m, 0) + (-1) ** k * c
                if c:
                    out[m] = c
                else:
                    del out[m]
        return out

    def pow(self, f, e):
        if e < 0:
            return self.pow(self.inv(f), -e)
        out = self.one()
        for _ in range(e):
            out = self.mul(out, f)
        return out

    def comm(self, f, g):
        return self.mul(self.mul(self.mul(f, g), self.inv(f)), self.inv(g))


def graded_to_monomials(alg, f):
    """A graded series (magnus.GradedAlgebra) as a dict from monomials to
    coefficients, decoding each base-r code into its letters."""
    out = {}
    for d, part in enumerate(f):
        for m, c in part.items():
            letters = []
            for _ in range(d):
                m, x = divmod(m, alg.rank)
                letters.append(x)
            out[tuple(reversed(letters))] = c
    return out


@lru_cache(maxsize=None)
def basis_series(rank, cls, idx):
    """Series of the Hall basis element idx: its generator, or the
    commutator of the series of its two factors."""
    alg = TruncatedAlgebra(rank, cls)
    _, weight, bracket = _hall_basis(rank, cls).elements[idx]
    if weight == 1:
        return alg.gen(bracket)
    left, right = bracket
    return alg.comm(basis_series(rank, cls, left), basis_series(rank, cls, right))


@lru_cache(maxsize=None)
def _hall_basis(rank, cls):
    return HallBasis(rank, cls)


def element_to_series(G, u):
    """Image of a pc element in the truncated power-series algebra."""
    alg = TruncatedAlgebra(G.rank, G.cls)
    out = alg.one()
    for i, e in u:
        out = alg.mul(out, alg.pow(basis_series(G.rank, G.cls, i), e))
    return out


def series_to_element(G, series):
    """Exponent extraction basis element by basis element: the coefficient
    of each Lyndon word, then that power divided out."""
    alg = TruncatedAlgebra(G.rank, G.cls)
    out = []
    for idx in range(G.basis.size):
        e = series.get(G.basis.elements[idx][0], 0)
        if e:
            out.append((idx, e))
            series = alg.mul(alg.pow(basis_series(G.rank, G.cls, idx), -e), series)
    if series != alg.one():
        raise InternalError("series is not the image of a group element")
    return tuple(out)


def conj_pow_by_series(G, k, j, f):
    """a_j^-f a_k a_j^f through the ungraded series embedding."""
    alg = TruncatedAlgebra(G.rank, G.cls)
    aj = alg.pow(basis_series(G.rank, G.cls, j), f)
    return series_to_element(G, alg.mul(alg.mul(alg.inv(aj), basis_series(G.rank, G.cls, k)), aj))


def project_element(target, u):
    """Image in the same-rank group of smaller class (drop deep syllables)."""
    return tuple((i, e) for i, e in u if i < target.basis.size)


def project_subgroup(target, H):
    return subgroup(target, [project_element(target, r) for r in H.igs])


class RecursiveCollector:
    """Reference arithmetic for a PcGroup: recursive collection from the left
    on sparse tuples, sharing only the group's conjugate table (which comes
    from the series embedding, not from collection).

    A trailing power a_k^g moves past a new syllable a_j^f as
    a_k^g a_j^f = a_j^f (a_j^-f a_k a_j^f)^g, and the conjugate power is
    itself collected recursively."""

    def __init__(self, G):
        self.G = G
        self._pow = {}

    def mul(self, u, v):
        for j, f in v:
            u = self.mul_gen(u, j, f)
        return u

    def mul_gen(self, u, j, f):
        """Normal form of u * a_j^f."""
        if f == 0:
            return u
        G = self.G
        out = list(u)
        tail = []
        while out and out[-1][0] > j:
            tail.append(out.pop())
        if out and out[-1][0] == j:
            e = out[-1][1] + f
            if e:
                out[-1] = (j, e)
            else:
                out.pop()
        else:
            out.append((j, f))
        res = tuple(out)
        wt = G.basis.weights
        for k, g in reversed(tail):
            if wt[k] + wt[j] > G.cls:
                res = self.mul_gen(res, k, g)
            else:
                res = self.mul(res, self.pow(G.conj_pow(k, j, f), g))
        return res

    def inv(self, u):
        res = IDENTITY
        for i, e in reversed(u):
            res = self.mul_gen(res, i, -e)
        return res

    def pow(self, u, e):
        key = (u, e)
        got = self._pow.get(key)
        if got is None:
            base = u if e >= 0 else self.inv(u)
            got = IDENTITY
            for _ in range(abs(e)):
                got = self.mul(got, base)
            self._pow[key] = got
        return got

    def comm(self, x, y):
        return self.mul(self.mul(self.mul(x, y), self.inv(x)), self.inv(y))


def consistency_report(G, trials=64, seed=11):
    """Random associativity/inverse checks plus the series-embedding oracle."""
    rng = random.Random(seed)

    def rand_el():
        u = IDENTITY
        for _ in range(rng.randrange(1, 5)):
            u = G.mul(u, ((rng.randrange(G.rank), rng.choice((-3, -2, -1, 1, 2, 3))),))
        return u

    failures = []
    for t in range(trials):
        u, v, w = rand_el(), rand_el(), rand_el()
        if G.mul(G.mul(u, v), w) != G.mul(u, G.mul(v, w)):
            failures.append(("associativity", u, v, w))
        if G.mul(u, G.inv(u)) != IDENTITY:
            failures.append(("inverse", u))
        lhs = element_to_series(G, G.mul(u, v))
        rhs = TruncatedAlgebra(G.rank, G.cls).mul(element_to_series(G, u), element_to_series(G, v))
        if lhs != rhs:
            failures.append(("series", u, v))
    return failures


def denominator_generators_depth_first(cfg):
    """Reference for wu._denominator_generators: a depth-first walk that
    extends every tuple of signed letters separately, abandoning a tuple
    once its partial commutator collapses.  Returns (generators, stats)
    with generators in the order the walk first meets them."""
    G = cfg.group()
    signed = cfg.signed_letters()
    full = (1 << (cfg.n + 1)) - 1
    gens = []
    seen = set()
    stats = {"nodes": 0, "covering_nontrivial": 0}

    def extend(acc, cover, depth):
        if depth >= cfg.class_bound:
            return
        for bit, elt in signed:
            stats["nodes"] += 1
            nxt = G.comm(acc, elt)
            if not nxt:
                continue
            cov = cover | bit
            if cov == full:
                stats["covering_nontrivial"] += 1
                if nxt not in seen:
                    seen.add(nxt)
                    gens.append(nxt)
            extend(nxt, cov, depth + 1)

    for bit, elt in signed:
        extend(elt, bit, 1)
    return gens, stats


def collected_comm(G, x, y):
    """[x, y] collected as one product, with no use of abelian layers."""
    return G._product((x, y, G.inv(x), G.inv(y)))


def wu_closures_by_closure(cfg):
    """The normal closures of y_-1, y0, ..., y_{n-1}, each closed from its
    letter rather than read off the Hall basis."""
    G = cfg.group()
    return tuple(normal_closure_pc(G, [y]) for y in cfg.letters)


def wu_numerator_by_closure(cfg):
    """The Wu numerator as the intersection of the n+1 closures, one pair
    at a time."""
    return reduce(intersect_pc, wu_closures_by_closure(cfg))


def denominator_generators_collected(cfg):
    """Reference for wu._denominator_generators: the same level-by-level
    search, but every commutator is collected and the last level forms
    commutators that no covering tuple reaches too."""
    G = cfg.group()
    signed = cfg.signed_letters()
    full = (1 << (cfg.n + 1)) - 1
    gens = []
    seen = set()
    stats = {"nodes": 0, "covering_nontrivial": 0}
    frontier = {}
    for bit, elt in signed:
        covers = frontier.setdefault(elt, {})
        covers[bit] = covers.get(bit, 0) + 1
    for _ in range(1, cfg.class_bound):
        nxt_frontier = {}
        for acc, covers in frontier.items():
            tuples = sum(covers.values())
            for bit, elt in signed:
                stats["nodes"] += tuples
                nxt = collected_comm(G, acc, elt)
                if not nxt:
                    continue
                nxt_covers = nxt_frontier.setdefault(nxt, {})
                for cover, m in covers.items():
                    cov = cover | bit
                    if cov == full:
                        stats["covering_nontrivial"] += m
                        if nxt not in seen:
                            seen.add(nxt)
                            gens.append(nxt)
                    nxt_covers[cov] = nxt_covers.get(cov, 0) + m
        frontier = nxt_frontier
    return gens, stats


def check_equality_13(n, c):
    """Compare the tuple-generated Wu denominator with the symmetric
    commutator of the n+1 closures; exact igs comparison.  Returns
    (equal, report)."""
    cfg = WuConfiguration(n, c)
    G = cfg.group()
    den = cfg.denominator()
    sym = symmetric_commutator(NormalTuple(G, cfg.closures()))
    equal = den == sym
    report = {
        "n": n,
        "class": c,
        "equal": equal,
        "denominator_rows": len(den.pivots),
        "symmetric_rows": len(sym.pivots),
        "denominator_only": [
            G.element_text(r, cfg.names) for r in den.igs if not sym.contains(r)
        ],
        "symmetric_only": [
            G.element_text(r, cfg.names) for r in sym.igs if not den.contains(r)
        ],
    }
    return equal, report


def subgroup_to_csv(H, path):
    """One row per igs row: pivot index, then the dense exponent vector."""
    G = H.parent
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["pivot"] + [f"e{i}" for i in range(G.basis.size)])
        for d in H.pivots:
            writer.writerow([d] + exponents(G, H.rows[d]))


def is_normal_two_sided(S):
    """Normality of a pc subgroup by conjugating each igs row by every
    generator and by its inverse."""
    G = S.parent
    return all(
        S.contains(G.conj(r, h)) for r in S.igs for g in G.gens() for h in (g, G.inv(g))
    )


class _Paired:
    """Reference for intersect_pc: the pair rows with their own sift,
    insert and a naive closure that re-probes every pair of rows.

    Igs rows for a product K_part * H_part, each row factored as
    kappa * eta with kappa from K and eta from H, so that members can be
    split back into their K and H parts."""

    def __init__(self, G):
        self.G = G
        self.rows = {}

    def p_mul(self, a, b):
        G = self.G
        ka, ea = a
        kb, eb = b
        return (G.mul(ka, G.conj(kb, ea)), G.mul(ea, eb))

    def p_inv(self, a):
        G = self.G
        k, e = a
        ei = G.inv(e)
        return (G.conj(G.inv(k), ei), ei)

    def p_pow(self, a, n):
        if n < 0:
            a, n = self.p_inv(a), -n
        out = (IDENTITY, IDENTITY)
        while n:
            if n & 1:
                out = self.p_mul(out, a)
            n >>= 1
            if n:
                a = self.p_mul(a, a)
        return out

    def value(self, a):
        return self.G.mul(a[0], a[1])

    def sift(self, pair):
        """Reduce; returns (residual pair, residual value)."""
        G = self.G
        v = self.value(pair)
        while v:
            d, e = v[0]
            row = self.rows.get(d)
            if row is None:
                return pair, v
            m = self.value(row)[0][1]
            if e % m:
                return pair, v
            pair = self.p_mul(self.p_pow(row, -(e // m)), pair)
            v = self.value(pair)
        return pair, IDENTITY

    def split(self, w):
        """kappa, eta with w = kappa * eta; w must sift to the identity."""
        G = self.G
        acc = (IDENTITY, IDENTITY)
        v = w
        while v:
            d, e = v[0]
            row = self.rows.get(d)
            if row is None or e % self.value(row)[0][1]:
                raise ValueError("element is not in the tracked product")
            q = e // self.value(row)[0][1]
            acc = self.p_mul(acc, self.p_pow(row, q))
            v = G.mul(G.pow(self.value(row), -q), v)
        return acc

    def insert(self, pair):
        G = self.G
        pending = [pair]
        while pending:
            pair = pending.pop()
            pair, v = self.sift(pair)
            while v:
                d, e = v[0]
                row = self.rows.get(d)
                if row is None:
                    if e < 0:
                        pair = self.p_inv(pair)
                    self.rows[d] = pair
                    break
                m = self.value(row)[0][1]
                g = gcd(m, e)
                x, y = _bezout(m, e, g)
                new = self.p_mul(self.p_pow(row, x), self.p_pow(pair, y))
                self.rows[d] = new
                pending.append(self.p_mul(self.p_pow(new, -(m // g)), row))
                pair = self.p_mul(self.p_pow(new, -(e // g)), pair)
                pair, v = self.sift(pair)

    def close(self):
        changed = True
        while changed:
            changed = False
            rowlist = [self.rows[d] for d in sorted(self.rows)]
            probes = [self.p_inv(a) for a in rowlist]
            probes += [self.p_mul(a, b) for a in rowlist for b in rowlist]
            for p in probes:
                _, v = self.sift(p)
                if v:
                    self.insert(p)
                    changed = True


def intersect_pc_paired(H, K):
    """Reference for intersect_pc, closing all pair rows after every pivot.

    Intersection of two normal subgroups, built pivot by pivot.

    Descending through the basis, P holds the product of the parts of K
    and H supported strictly below the current pivot.  A pivot d lies in
    H cap K iff some power of z = rK^-(l/mK) * rH^(l/mH) (l = lcm of the
    leading exponents) falls into P; for the least such k the pair
    tracking on P splits z_k = rK^-(k l/mK) * rH^(k l/mH) into
    kappa * eta, and rK^(k l/mK) * kappa = rH^(k l/mH) * eta^-1 is the
    witness row.
    """
    assert H.parent is K.parent
    G = H.parent
    for name, sub in (("first", H), ("second", K)):
        if not is_normal_two_sided(sub):
            raise ValueError(f"intersection needs normal subgroups; the {name} one is not")
    P = _Paired(G)
    witnesses = []
    for d in range(G.basis.size - 1, -1, -1):
        rH = H.rows.get(d)
        rK = K.rows.get(d)
        if rH is not None and rK is not None:
            mH, mK = rH[0][1], rK[0][1]
            l0 = mH * mK // gcd(mH, mK)
            z = G.mul(G.pow(rK, -(l0 // mK)), G.pow(rH, l0 // mH))
            k0 = _order_mod_paired(G, P, z)
            if k0 is not None:
                # split z_k = rK^-(k a) rH^(k b), which is z^k only modulo P
                kpow = G.pow(rK, k0 * (l0 // mK))
                hpow = G.pow(rH, k0 * (l0 // mH))
                kappa, eta = P.split(G.mul(G.inv(kpow), hpow))
                w = G.mul(kpow, kappa)
                alt = G.mul(hpow, G.inv(eta))
                assert w == alt, "witness factorization mismatch"
                witnesses.append(w)
        # extend P with the rows at pivot d before moving shallower
        if rK is not None:
            P.insert((rK, IDENTITY))
        if rH is not None:
            P.insert((IDENTITY, rH))
        if rK is not None or rH is not None:
            P.close()
    out = subgroup(G, witnesses)
    assert H.contains_subgroup(out) and K.contains_subgroup(out)
    return out


def _order_mod_paired(G, P, z):
    """Least k >= 1 with z^k in P, or None; P normal, so cosets of powers
    of z are powers of the coset."""
    k = 1
    v = z
    while v:
        d, e = v[0]
        row = P.rows.get(d)
        if row is None:
            return None
        m = P.value(row)[0][1]
        if e % m == 0:
            v = G.mul(G.pow(P.value(row), -(e // m)), v)
        else:
            t = m // gcd(e, m)
            k *= t
            v = G.pow(v, t)
    return k


# -- colimit formulas ----------------------------------------------------------


def is_connected_tuple_all_pairs(t):
    """colimit.is_connected_tuple checking every (I, J), overlapping or not:
    (ok, witness), witness the first violating (I, J) of 1-based indices."""
    subs = t.subgroups
    m = len(subs)
    index_sets = [c for size in range(1, m + 1) for c in combinations(range(m), size)]
    prod = {J: reduce(lambda a, b: a.product(b), [subs[j] for j in J]) for J in index_sets}
    joins = {(i, J): subs[i].product(prod[J]) for i in range(m) for J in index_sets}
    for I in index_sets[m:]:
        lhs_base = reduce(lambda a, b: a.intersect(b), [subs[i] for i in I])
        for J in index_sets:
            lhs = lhs_base.product(prod[J])
            rhs = reduce(lambda a, b: a.intersect(b), [joins[i, J] for i in I])
            if lhs != rhs:
                return False, (tuple(i + 1 for i in I), tuple(j + 1 for j in J))
    return True, None


# -- coset tables --------------------------------------------------------------


def column_names(table):
    out = []
    for g in table.generators:
        out.extend([g, f"{g}^-1"])
    return out


def follow(table, coset, cols):
    """The coset reached from `coset` along a column tuple."""
    for x in cols:
        coset = table.rows[coset][x]
    return coset


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
        cols = free_reduce([remap[x] for x in rel])
        if cols and cols not in seen:
            seen.add(cols)
            relators.append(cols)
    names = [name for name, s in zip(tp.base.generators, tp.symbols) if 1 in s.A]
    return Presentation(names, relators)


def tensor_relators_exhaustive(t, squares=None):
    """(relators, families) of the tensor presentation of a NormalTuple,
    one free reduction and one conjugation per symbol for every relator
    instance, in the order and with the deduplication of tensor._build."""
    G = t.ambient
    n = t.n
    partitions = _ordered_partitions(n)
    blocks = {}
    for parts in partitions:
        for A in parts:
            if A not in blocks:
                blocks[A] = _block_subgroup(t.subgroups, A)
    symbols = [
        (A, B, a, b)
        for A, B in partitions
        for a in blocks[A].members
        for b in blocks[B].members
    ]
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

    for (A, B, a, b), x in column.items():
        emit((x, column[(B, A, b, a)]), "inverse")

    for A, B in partitions:
        na, nb = blocks[A].members, blocks[B].members
        for a in na:
            for a2 in na:
                for b in nb:
                    left = column[(A, B, G.mul(a, a2), b)]
                    r1 = column[(A, B, G.conj(a, a2), G.conj(a, b))]
                    r2 = column[(A, B, a, b)]
                    emit((left, r2 ^ 1, r1 ^ 1), "biadditive")

    if n >= 3:
        for U, V, W in _three_block_partitions(n):
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

    for (_, _, a1, b1), s1 in column.items():
        g = G.comm(a1, b1)
        for (A, B, a, b), s2 in column.items():
            s3 = column[(A, B, G.conj(g, a), G.conj(g, b))]
            emit((s1, s2, s1 ^ 1, s3 ^ 1), "conjugation")

    if squares is not None:
        families["square"] = 0
        for x in squares:
            for A, B in partitions:
                if blocks[A].contains(x) and blocks[B].contains(x):
                    emit((column[(A, B, x, x)],), "square")
    return relators, families


# -- finite engine -------------------------------------------------------------


def catalog_presentation(name):
    """The presentation a catalog group is realised from."""
    return parse_presentation(catalog._registry[catalog._resolve(name)][1])


def is_abelian(g):
    """Whether the generators of a FiniteGroup commute pairwise."""
    gens = g.gens()
    return all(g.mul(a, b) == g.mul(b, a) for a in gens for b in gens)


def abelian_invariants(g):
    """Invariants of G/[G,G]."""
    return abelian_invariants_of_quotient(g.full_subgroup(), g.derived_subgroup())


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


def element_order(g, i):
    """Least k >= 1 with i^k the identity, by repeated multiplication."""
    k = 1
    j = i
    while j != 0:
        j = g.mul(j, i)
        k += 1
    return k


def abelian_invariants_of_quotient_greedy(a, b):
    """Invariants of an abelian A/B (B normal in A) on a greedy generating
    set of A/B: each coset outside the subgroup the generators so far span
    becomes a generator, and the relation rows follow the Cayley graph of
    A/B on those generators."""
    g = a.parent
    reps, proj = _coset_labels(g, a.members, b.members)
    k = len(reps)
    if k == 1:
        return AbelianInvariants(0, ())

    def q_mul(i, j):
        return proj[g.mul(reps[i], reps[j])]

    gens = []
    closed = {0}
    for i in range(1, k):
        if i in closed:
            continue
        gens.append(i)
        grown = set(closed)
        p = i
        while p not in closed:
            grown.update(q_mul(c, p) for c in closed)
            p = q_mul(p, i)
        closed = grown
    m = len(gens)
    vec = {0: (0,) * m}
    rows = []
    queue = [0]
    while queue:
        q = queue.pop()
        for pos, i in enumerate(gens):
            s = q_mul(q, i)
            step = tuple(e + 1 if t == pos else e for t, e in enumerate(vec[q]))
            if s not in vec:
                vec[s] = step
                queue.append(s)
            else:
                row = [x - y for x, y in zip(step, vec[s])]
                if any(row):
                    rows.append(row)
    assert len(vec) == k, "generators fail to span the quotient"
    return AbelianInvariants.from_relation_matrix(rows, m)


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


def left_normed_commutator(entries):
    """[[...[z1^e1, z2^e2], ...], zt^et] for entries (word_or_letter, sign).

    Each entry is a pair (z, e) with z a Word or a generator index and e a
    nonzero int used as the exponent on that letter.  A single entry returns
    the letter power itself.
    """
    if not entries:
        raise ValueError("left-normed commutator needs at least one entry")
    words = []
    for z, e in entries:
        if e == 0:
            raise ValueError("zero exponent in commutator entry")
        w = z if isinstance(z, Word) else Word.gen(z)
        # w^e as one word: |e| copies of the syllables of w or w^-1
        words.append(Word((w if e > 0 else w.inverse()).syllables * abs(e)))
    acc = words[0]
    for w in words[1:]:
        acc = commutator(acc, w)
    return acc


def hopf_recursive(k, m=None):
    """h(k) with its innermost trailing product extended to y1...ym, as a
    word and as bracket text, by the defining recursion
    h(k, m) = [h(k-1, k-1), h(k-1, m)]; h(k) itself is hopf_recursive(k)."""
    if m is None:
        m = k
    if k == 1:
        tail = range(1, m + 1)
        left = (Word.gen(0), "y0")
        right = (Word(tuple((i, 1) for i in tail)), "".join(f"y{i}" for i in tail))
    else:
        left, right = hopf_recursive(k - 1), hopf_recursive(k - 1, m)
    return commutator(left[0], right[0]), f"[{left[1]},{right[1]}]"
