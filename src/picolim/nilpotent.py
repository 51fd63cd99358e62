"""Free nilpotent groups of class c as polycyclic groups over a Hall basis.

Elements are kept in normal form a_1^{e_1}...a_m^{e_m}, stored sparsely as
tuples of (basis index, nonzero exponent) with strictly increasing indices.
Multiplication collects from the left: a trailing generator power moves
past higher-index powers by rewriting a_k^g a_j^f = a_j^f (a_j^-f a_k a_j^f)^g,
and the conjugates a_j^-f a_k a_j^f are looked up from a memoized table
whose entries are computed once in the truncated power-series embedding
x_i -> 1 + X_i.  Exponent extraction from a series is exact because the
expansion of a Lyndon bracketing is unitriangular: its lex-least monomial
of lowest degree is the Lyndon word itself, with coefficient 1.

Subgroups carry an induced generating sequence (igs): one row per leading
basis index, leading exponents positive, rows Hermite-reduced above later
pivots.  Membership is decided by sifting.  On the set of elements whose
support starts at index d or later, the coordinate at d is additive, which
is what makes echelon arithmetic on rows sound.
"""

import math

from .abelian import AbelianInvariants, _bezout
from .hall import HallBasis
from .magnus import TruncatedAlgebra

IDENTITY = ()


class PcGroup:
    """Free nilpotent group of the basis rank, modulo weight > basis class."""

    def __init__(self, basis, names=None):
        self.basis = basis
        self.rank = basis.rank
        self.cls = basis.cls
        if names is None:
            names = [f"x{i + 1}" for i in range(self.rank)]
        if len(names) != self.rank:
            raise ValueError("need one name per generator")
        self.gen_names = tuple(names)
        self._name_to_index = {n: i for i, n in enumerate(names)}
        self.alg = TruncatedAlgebra(self.rank, self.cls)
        self._series = {}
        self._conj = {}
        self._pow_cache = {}
        self._wt = self.basis.weights

    # -- elements ----------------------------------------------------------

    def identity(self):
        return IDENTITY

    def gen(self, i):
        return ((i, 1),)

    def gens(self):
        return [self.gen(i) for i in range(self.rank)]

    def basis_element(self, idx):
        return ((idx, 1),)

    def mul(self, u, v):
        for j, f in v:
            u = self._mul_gen(u, j, f)
        return u

    def _mul_gen(self, u, j, f):
        """Normal form of u * a_j^f."""
        if f == 0:
            return u
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
        wt = self._wt
        wj = wt[j]
        for k, g in reversed(tail):
            if wt[k] + wj > self.cls:
                res = self._mul_gen(res, k, g)
            else:
                res = self.mul(res, self.pow(self.conj_pow(k, j, f), g))
        return res

    def inv(self, u):
        if not u:
            return IDENTITY
        if len(u) == 1:
            return ((u[0][0], -u[0][1]),)
        got = self._pow_cache.get((u, -1))
        if got is not None:
            return got
        res = IDENTITY
        for i, e in reversed(u):
            res = self._mul_gen(res, i, -e)
        self._pow_cache[(u, -1)] = res
        return res

    def pow(self, u, e):
        if e == 0 or not u:
            return IDENTITY
        if e == 1:
            return u
        if len(u) == 1:
            return ((u[0][0], u[0][1] * e),)
        key = (u, e)
        got = self._pow_cache.get(key)
        if got is not None:
            return got
        if e < 0:
            out = self.pow(self.inv(u), -e)
        else:
            out = IDENTITY
            b = u
            n = e
            while n:
                if n & 1:
                    out = self.mul(out, b)
                n >>= 1
                if n:
                    b = self.mul(b, b)
        self._pow_cache[key] = out
        return out

    def conj(self, x, g):
        """^g x = g x g^-1."""
        return self.mul(self.mul(g, x), self.inv(g))

    def comm(self, x, y):
        """[x, y] = x y x^-1 y^-1."""
        return self.mul(self.mul(self.mul(x, y), self.inv(x)), self.inv(y))

    def conj_pow(self, k, j, f):
        """Normal form of a_j^-f a_k a_j^f, from the series embedding."""
        if f == 0 or self.basis.weight(k) + self.basis.weight(j) > self.cls:
            return ((k, 1),)
        key = (k, j, f)
        got = self._conj.get(key)
        if got is None:
            alg = self.alg
            aj = alg.pow(self.series_of_basis(j), f)
            aj_inv = alg.inv(aj)
            got = self.series_to_element(alg.mul(alg.mul(aj_inv, self.series_of_basis(k)), aj))
            self._conj[key] = got
        return got

    # -- series bridge -----------------------------------------------------

    def series_of_basis(self, idx):
        got = self._series.get(idx)
        if got is None:
            word, weight, bracket = self.basis.elements[idx]
            if weight == 1:
                got = self.alg.gen(bracket)
            else:
                left, right = bracket
                got = self.alg.comm(self.series_of_basis(left), self.series_of_basis(right))
            self._series[idx] = got
        return got

    def series_to_element(self, series):
        """Exact exponent extraction, basis element by basis element."""
        assert series.get((), 0) == 1, "group image must have constant term 1"
        alg = self.alg
        out = []
        for idx in range(self.basis.size):
            e = series.get(self.basis.word(idx), 0)
            if e:
                out.append((idx, e))
                series = alg.mul(alg.pow(self.series_of_basis(idx), -e), series)
        assert series == alg.one(), "series is not the image of a group element"
        return tuple(out)

    # -- words -------------------------------------------------------------

    def collect(self, word):
        """Normal form of a free-group word over the generator names."""
        u = IDENTITY
        for name, e in word.syllables:
            idx = self._name_to_index.get(name)
            if idx is None:
                raise ValueError(f"unknown generator {name!r}; group has {self.gen_names}")
            u = self._mul_gen(u, idx, e)
        return u

    def element_text(self, u):
        if not u:
            return "1"
        parts = []
        for i, e in u:
            t = self.basis.bracket_text(i, self.gen_names)
            parts.append(t if e == 1 else f"{t}^{e}")
        return "*".join(parts)

    # -- distinguished subgroups -------------------------------------------

    def trivial_subgroup(self):
        return PcSubgroup(self, {})

    def full_subgroup(self):
        return subgroup(self, [self.basis_element(i) for i in range(self.basis.size)])


def free_nilpotent(rank, cls, names=None):
    """The free nilpotent group of the given rank and class, or BudgetError."""
    return PcGroup(HallBasis(rank, cls), names=names)


# -- igs rows --------------------------------------------------------------


def _sift(G, rows, u):
    """Reduce u by pivot rows; () means membership."""
    while u:
        d, e = u[0]
        row = rows.get(d)
        if row is None:
            return u
        m = row[0][1]
        if e % m:
            return u
        u = G.mul(G.pow(row, -(e // m)), u)
    return IDENTITY


def _sift_coords(G, rows, u, pivots):
    """Like _sift but records the exponent taken at each pivot.

    Raises ValueError if u is not a member.  pivots is the sorted pivot
    list; the returned vector is indexed accordingly.
    """
    coords = [0] * len(pivots)
    pos = {d: i for i, d in enumerate(pivots)}
    while u:
        d, e = u[0]
        row = rows.get(d)
        if row is None or e % row[0][1]:
            raise ValueError("element does not sift through the igs")
        q = e // row[0][1]
        coords[pos[d]] = q
        u = G.mul(G.pow(row, -q), u)
    return coords


def _insert(G, rows, u):
    """Euclid insertion of u into pivot rows; returns indices of changed pivots."""
    changed = []
    pending = [u]
    while pending:
        u = pending.pop()
        while u:
            d, e = u[0]
            row = rows.get(d)
            if row is None:
                rows[d] = u if e > 0 else G.inv(u)
                changed.append(d)
                break
            m = row[0][1]
            if e % m == 0:
                u = G.mul(G.pow(row, -(e // m)), u)
                continue
            g = math.gcd(m, e)
            x, y = _bezout(m, e, g)
            new = G.mul(G.pow(row, x), G.pow(u, y))
            assert new[0] == (d, g)
            rows[d] = new
            changed.append(d)
            pending.append(G.mul(G.pow(new, -(m // g)), row))
            u = G.mul(G.pow(new, -(e // g)), u)
    return changed


def _close(G, rows, conjugate_by=None):
    """Close pivot rows under inverse and products, and optionally under
    conjugation by the given elements (for normal closures)."""
    dirty = set(rows)
    while dirty:
        d = dirty.pop()
        a = rows.get(d)
        if a is None:
            continue
        probes = [G.inv(a)]
        for d2 in sorted(rows):
            b = rows[d2]
            probes.append(G.mul(a, b))
            if d2 != d:
                probes.append(G.mul(b, a))
        if conjugate_by:
            for g in conjugate_by:
                probes.append(G.conj(a, g))
                probes.append(G.conj(a, G.inv(g)))
        for p in probes:
            res = _sift(G, rows, p)
            if res:
                dirty.update(_insert(G, rows, res))
                if rows.get(d) is not a:
                    dirty.add(d)


def _canonical(G, rows):
    """Hermite-reduce entries above later pivots; right-multiplying by rows
    with deeper pivots does not disturb earlier coordinates."""
    pivots = sorted(rows)
    for d in pivots:
        r = rows[d]
        changed = True
        while changed:
            changed = False
            for i, e in r:
                if i == d or i not in rows:
                    continue
                m = rows[i][0][1]
                q = e // m  # floor: residues in [0, m)
                if q:
                    r = G.mul(r, G.pow(rows[i], -q))
                    changed = True
                    break
        rows[d] = r
    return rows


class PcSubgroup:
    """Subgroup of a PcGroup held as a canonical igs."""

    def __init__(self, parent, rows):
        self.parent = parent
        self.rows = dict(rows)
        self.pivots = sorted(self.rows)

    @property
    def igs(self):
        return [self.rows[d] for d in self.pivots]

    def contains(self, u):
        return _sift(self.parent, self.rows, u) == IDENTITY

    def contains_subgroup(self, other):
        _same_parent(self, other)
        return all(self.contains(r) for r in other.igs)

    def is_trivial(self):
        return not self.rows

    def is_normal(self):
        G = self.parent
        for r in self.igs:
            for g in G.gens():
                if not self.contains(G.conj(r, g)):
                    return False
                if not self.contains(G.conj(r, G.inv(g))):
                    return False
        return True

    def coords_of(self, u):
        """Exponents of u along the igs rows (error if not a member)."""
        return _sift_coords(self.parent, self.rows, u, self.pivots)

    def intersect(self, other):
        return intersect_pc(self, other)

    def product(self, other):
        """Join generated by both igs; used on normal subgroups, where it is
        the setwise product."""
        _same_parent(self, other)
        return subgroup(self.parent, self.igs + other.igs)

    def commutator(self, other):
        return commutator_subgroup_pc(self, other)

    def quotient_invariants(self, sub):
        return central_quotient_invariants(self, sub)

    def descriptor(self):
        return {"igs_rows": len(self.pivots), "pivots": list(self.pivots)}

    def __eq__(self, other):
        if not isinstance(other, PcSubgroup):
            return NotImplemented
        return self.parent is other.parent and self.rows == other.rows

    def __hash__(self):
        return hash((id(self.parent), tuple(sorted(self.rows.items()))))


def _same_parent(h, k):
    if h.parent is not k.parent:
        raise ValueError("subgroups live in different pc groups")


def subgroup(G, gens):
    """Canonical igs of the subgroup generated by the given elements."""
    rows = {}
    for u in gens:
        _insert(G, rows, _sift(G, rows, u))
    _close(G, rows)
    return PcSubgroup(G, _canonical(G, rows))


def normal_closure_pc(G, gens):
    """Least normal subgroup containing the given elements."""
    rows = {}
    for u in gens:
        _insert(G, rows, _sift(G, rows, u))
    _close(G, rows, conjugate_by=G.gens())
    return PcSubgroup(G, _canonical(G, rows))


def commutator_subgroup_pc(H, K):
    """Normal closure of the commutators of igs rows."""
    _same_parent(H, K)
    G = H.parent
    gens = [G.comm(a, b) for a in H.igs for b in K.igs]
    return normal_closure_pc(G, gens)


# -- intersection of normal subgroups --------------------------------------


class _Paired:
    """Igs rows for a product K_part * H_part, each row factored as
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
                g = math.gcd(m, e)
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


def intersect_pc(H, K):
    """Intersection of two normal subgroups, built pivot by pivot.

    Descending through the basis, P holds the product of the parts of K
    and H supported strictly below the current pivot.  A pivot d lies in
    H cap K iff some power of z = rK^-(l/mK) * rH^(l/mH) (l = lcm of the
    leading exponents) falls into P; the pair tracking on P then splits
    that power into kappa * eta and rK^(k l/mK) * kappa = rH^(k l/mH) * eta^-1
    is the witness row.
    """
    _same_parent(H, K)
    G = H.parent
    for name, sub in (("first", H), ("second", K)):
        if not sub.is_normal():
            raise ValueError(f"intersection needs normal subgroups; the {name} one is not")
    P = _Paired(G)
    witnesses = []
    for d in range(G.basis.size - 1, -1, -1):
        rH = H.rows.get(d)
        rK = K.rows.get(d)
        if rH is not None and rK is not None:
            mH, mK = rH[0][1], rK[0][1]
            l0 = mH * mK // math.gcd(mH, mK)
            z = G.mul(G.pow(rK, -(l0 // mK)), G.pow(rH, l0 // mH))
            k0 = _order_mod(G, P, z)
            if k0 is not None:
                kappa, eta = P.split(G.pow(z, k0))
                w = G.mul(G.pow(rK, k0 * (l0 // mK)), kappa)
                alt = G.mul(G.pow(rH, k0 * (l0 // mH)), G.inv(eta))
                assert w == alt, "witness factorization mismatch"
                witnesses.append(w)
        # extend P with the rows at pivot d before moving shallower
        if rK is not None:
            P.insert((rK, IDENTITY))
        if rH is not None:
            P.insert((IDENTITY, rH))
        if rK is not None or rH is not None:
            P.close()
    rows = {}
    for w in witnesses:
        res = _sift(G, rows, w)
        if res:
            _insert(G, rows, res)
    _close(G, rows)
    out = PcSubgroup(G, _canonical(G, rows))
    assert H.contains_subgroup(out) and K.contains_subgroup(out)
    return out


def _order_mod(G, P, z):
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
            t = m // math.gcd(e, m)
            k *= t
            v = G.pow(v, t)
    return k


# -- quotient invariants ---------------------------------------------------


def central_quotient_invariants(A, B):
    """Abelian invariants of A/B from B's rows in A's igs coordinates.

    Requires B <= A and A/B abelian; both are verified by sifting.
    """
    _same_parent(A, B)
    G = A.parent
    for r in B.igs:
        if not A.contains(r):
            raise ValueError("B is not contained in A")
    igs = A.igs
    for i in range(len(igs)):
        for j in range(i + 1, len(igs)):
            if not B.contains(G.comm(igs[j], igs[i])):
                raise ValueError(
                    f"A/B is not abelian: [row {j}, row {i}] does not sift into B"
                )
    rows = [A.coords_of(r) for r in B.igs]
    return AbelianInvariants.from_relation_matrix(rows, len(igs))
