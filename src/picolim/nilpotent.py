"""Free nilpotent groups of class c as polycyclic groups over a Hall basis.

Elements are kept in normal form a_1^{e_1}...a_m^{e_m}, stored sparsely as
tuples of (basis index, nonzero exponent) with strictly increasing indices.
Multiplication collects from the left (M. Vaughan-Lee, Collection from the
left, J. Symbolic Comput. 9 (1990)) in place: the left factor is spread
into a dense exponent list and each syllable a_j^f of the right factor is
pushed into it.  A push lifts out the entries past j that do not commute
with a_j, adds f at j, and pushes the lifted entries back as
a_k^g a_j^f = a_j^f (a_j^-f a_k a_j^f)^g.  The conjugates a_j^-f a_k a_j^f
come from a memoized table whose entries are computed once in the graded
power-series embedding x_i -> 1 + X_i (magnus.ConjugationTable).
Products, inverses, commutators and conjugates each collect into one
dense list, and results are packed back into tuples whose pairs are
shared through one table on the group.  Two factors whose leads' weights
sum past c commute syllable by syllable, so their product adds exponents.
A commutator [x, y], or the image of x under an endomorphism, with x in
an abelian layer gamma_d, 2d > c, is linear in x and is summed from the
kept values on basis elements.

A Word enters through collect as letters 0 .. rank-1, the generators; the
group keeps no names, and element_text is given them.

Subgroups carry an induced generating sequence (igs): one row per leading
basis index, leading exponents positive, rows Hermite-reduced above later
pivots.  Membership is decided by sifting.  On the set of elements whose
support starts at index d or later, the coordinate at d is additive, which
is what makes echelon arithmetic on rows sound.

Sift and insert run over any group arithmetic with mul, pow, inv and
lead: the pc group itself for subgroups, and pairs (kappa, eta) whose value
kappa * eta is tracked for intersections, so that members of a product
K * H split into their parts.  Subgroups are closed by a semi-naive
closure; the pair rows of an intersection need none, and neither do the
witnesses that form its igs.
"""

import math
from bisect import bisect_right
from itertools import compress

from .abelian import AbelianInvariants, _bezout
from .errors import InternalError
from .hall import HallBasis
from .magnus import ConjugationTable

IDENTITY = ()


class _Interned(dict):
    """One shared object per key: d[k] is the first key equal to k."""

    def __missing__(self, key):
        self[key] = key
        return key


class PcGroup:
    """Free nilpotent group of the basis rank, modulo weight > basis class."""

    def __init__(self, basis):
        self.basis = basis
        self.rank = basis.rank
        self.cls = basis.cls
        self._table = ConjugationTable(basis)
        self._conj = {}
        self._pow_cache = {}
        self._lifted = {}
        self._commuted = {}
        self._pairs = _Interned()
        self._wt = wt = basis.weights
        # first basis index of weight > w, for w = 0 .. cls
        self._stop = [bisect_right(wt, w) for w in range(self.cls + 1)]

    # -- elements ----------------------------------------------------------

    def identity(self):
        return IDENTITY

    def gen(self, i):
        return ((i, 1),)

    def gens(self):
        return [self.gen(i) for i in range(self.rank)]

    def basis_element(self, idx):
        return ((idx, 1),)

    def lead(self, u):
        return u[0] if u else None

    def mul(self, u, v):
        """Normal form of u v.

        If the weights du and dv of the leads of u and v sum past c, every
        syllable a_i of u commutes with every syllable a_k of v: as the
        basis is ordered by weight, weight(i) + weight(k) >= du + dv > c,
        and [a_i, a_k] lies in gamma_{c+1} = 1.  Both factors are normal
        forms, so the normal form of u v merges their syllables by index
        and adds the exponents at shared indices, with no collection."""
        if not u:
            return v
        if not v:
            return u
        wt = self._wt
        if wt[u[0][0]] + wt[v[0][0]] > self.cls:
            e = dict(u)
            for i, x in v:
                e[i] = e.get(i, 0) + x
            pairs = self._pairs
            return tuple([pairs[(i, e[i])] for i in sorted(e) if e[i]])
        return self._product((u, v))

    def _product(self, factors):
        """Normal form of the product of the factors, collected in one list."""
        e = [0] * self.basis.size
        for i, x in factors[0]:
            e[i] = x
        for v in factors[1:]:
            self._push(e, v)
        return self._pack(e)

    def _push(self, e, syllables):
        """e := e * the product of the syllables, in place on the dense
        exponent list e.

        Pushing a_j^f lifts out and zeroes only the entries k > j with
        weight(k) <= c - weight(j), which end before _stop[c - weight(j)];
        it adds f at j and then pushes (a_j^-f a_k a_j^f)^g for each lifted
        (k, g), in ascending k.  Every other entry past j stays in place.
        That is sound because the basis is ordered by weight: the indices
        past j span a subgroup of gamma_{weight(j)}, so an entry t of weight
        > c - weight(j) commutes with a_j and with everything of weight >=
        weight(j), which covers every conjugate pushed after it.  So t is
        central in everything the push still multiplies.
        """
        stops, wt, c = self._stop, self._wt, self.cls
        table = self._lifted
        stack = list(reversed(syllables))
        pop, extend = stack.pop, stack.extend
        while stack:
            j, f = pop()
            stop = stops[c - wt[j]]
            if stop > j + 1 and any(e[j + 1:stop]):
                moved = []
                for k in range(j + 1, stop):
                    g = e[k]
                    if g:
                        e[k] = 0
                        key = (k, j, f, g)
                        t = table.get(key)
                        if t is None:
                            t = table[key] = self.pow(self.conj_pow(k, j, f), g)
                        moved.append(t)
                for t in reversed(moved):
                    extend(reversed(t))
            e[j] += f

    def _pack(self, e):
        """Sparse tuple of a dense list, with its pairs interned."""
        # built through a list so that the tuple is allocated at its final
        # size; one grown from an iterator keeps a larger block, which
        # showed as 10 % more peak memory on the Wu workloads
        return tuple([*map(self._pairs.__getitem__, compress(zip(range(len(e)), e), e))])

    def inv(self, u):
        if not u:
            return IDENTITY
        if len(u) == 1:
            return ((u[0][0], -u[0][1]),)
        got = self._pow_cache.get((u, -1))
        if got is not None:
            return got
        res = self._pow_cache[(u, -1)] = self._product((IDENTITY, [(i, -x) for i, x in reversed(u)]))
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
        return self._product((g, x, self.inv(g)))

    def comm(self, x, y):
        """[x, y] = x y x^-1 y^-1.

        Let d be the weight of the lead of x.  If 2d > c, [x, y] needs no
        collection.  As the basis is ordered by weight, x lies in gamma_d,
        and gamma_d is abelian, since [gamma_d, gamma_d] <= gamma_{2d} = 1.
        Its elements are the normal forms on basis elements of weight >= d,
        which commute pairwise, so a product in gamma_d adds exponents.
        Conjugation by y maps gamma_d to itself, so x -> [x, y] =
        x (y x y^-1)^-1 is a homomorphism of gamma_d, and [x, y] is the
        sum of e_k [a_k, y] over the syllables (k, e_k) of x.  Each
        [a_k, y] is collected once and kept in a table keyed by (k, y);
        it is trivial once weight(k) + weight(lead of y) > c.
        """
        if not x or not y:
            return IDENTITY
        wt, c = self._wt, self.cls
        if 2 * wt[x[0][0]] <= c:
            return self._product((x, y, self.inv(x), self.inv(y)))
        room = c - wt[y[0][0]]
        table = self._commuted
        e = [0] * self.basis.size
        for k, f in x:
            if wt[k] > room:
                break
            t = table.get((k, y))
            if t is None:
                t = table[(k, y)] = self._product((((k, 1),), y, ((k, -1),), self.inv(y)))
            for i, g in t:
                e[i] += f * g
        return self._pack(e)

    def image(self, u, images):
        """Normal form of phi(u) for the endomorphism phi with
        phi(a_k) = images[k].

        gamma_d is verbal, so phi maps it into itself.  If u leads at
        weight d with 2d > c, u and its image lie in the abelian gamma_d
        (see comm), where products add exponents, so phi(u) is the sum of
        e_k phi(a_k) over the syllables (k, e_k) of u."""
        if not u:
            return IDENTITY
        if 2 * self._wt[u[0][0]] > self.cls:
            e = [0] * self.basis.size
            for k, f in u:
                for i, g in images[k]:
                    e[i] += f * g
            return self._pack(e)
        return self._product((IDENTITY, *[self.pow(images[k], f) for k, f in u]))

    def conj_pow(self, k, j, f):
        """Normal form of a_j^-f a_k a_j^f, from the graded conjugation table.

        _push asks only for f != 0 and weight(k) + weight(j) <= c; every
        other a_k commutes with a_j^f."""
        key = (k, j, f)
        got = self._conj.get(key)
        if got is None:
            got = self._conj[key] = self._table.conjugate(k, j, f)
        return got

    # -- words -------------------------------------------------------------

    def collect(self, word):
        """Normal form of a Word, whose syllables (i, f) are the syllables
        a_i^f on the generators, the first basis elements."""
        word.check_letters(self.rank)
        return self._product((IDENTITY, word.syllables))

    def element_text(self, u, names):
        """u as a product of basic commutators over the generator names."""
        if not u:
            return "1"
        parts = []
        for i, e in u:
            t = self.basis.bracket_text(i, names)
            parts.append(t if e == 1 else f"{t}^{e}")
        return "*".join(parts)

    # -- distinguished subgroups -------------------------------------------

    def trivial_subgroup(self):
        return PcSubgroup(self, {})

    def full_subgroup(self):
        return subgroup(self, [self.basis_element(i) for i in range(self.basis.size)])


def free_nilpotent(rank, cls):
    """The free nilpotent group of the given rank and class, or BudgetError."""
    return PcGroup(HallBasis(rank, cls))


# -- igs rows --------------------------------------------------------------
#
# In _sift and _insert, A is PcGroup or _Pairs; A.lead(u) is the leading
# (basis index, exponent) of u, or None for the identity.


def _sift(A, rows, u, taken=None):
    """Divide exact multiples of pivot rows out of u; returns the residual,
    whose lead is None iff u is a member.  The exponent divided out at
    each pivot is recorded in taken, if given."""
    lead = A.lead(u)
    while lead is not None:
        d, e = lead
        row = rows.get(d)
        if row is None:
            return u
        m = A.lead(row)[1]
        if e % m:
            return u
        if taken is not None:
            taken[d] = e // m
        u = A.mul(A.pow(row, -(e // m)), u)
        lead = A.lead(u)
    return u


def _insert(A, rows, u):
    """Euclid insertion of u into pivot rows; returns indices of changed pivots."""
    changed = []
    pending = [u]
    while pending:
        u = _sift(A, rows, pending.pop())
        lead = A.lead(u)
        if lead is None:
            continue
        d, e = lead
        row = rows.get(d)
        if row is None:
            rows[d] = u if e > 0 else A.inv(u)
            changed.append(d)
            continue
        m = A.lead(row)[1]
        g = math.gcd(m, e)
        x, y = _bezout(m, e, g)
        new = A.mul(A.pow(row, x), A.pow(u, y))
        if A.lead(new) != (d, g):
            raise InternalError(f"gcd row at pivot {d} does not lead with exponent {g}")
        rows[d] = new
        changed.append(d)
        pending.append(A.mul(A.pow(new, -(m // g)), row))
        pending.append(A.mul(A.pow(new, -(e // g)), u))
    return changed


def _close(G, rows, conjugate_by=()):
    """Close pivot rows under products, and under conjugation by the given
    elements (for normal closures).

    Semi-naive: each row is probed once, by its products with the other
    rows and by its conjugates, and again whenever an insertion changes
    its pivot.  When nothing is left to probe, every pair of rows has been
    probed, which is the igs criterion of Sims, Computation with Finitely
    Presented Groups (1994), ch. 9: for rows x and y leading at d < e,
    x^-1 y x lies in the span of the rows past d.  Basis elements of a free
    nilpotent group have infinite order, so no power needs a probe.

    One product per pair suffices.  Sifting x^-1, x x or x y through the
    rows divides out x, and for x y then y, so each reaches 1 and its
    insertion changes nothing; only y x can, since its first sift step
    leaves x^-1 y x.  So a row a at d is probed by b a for each row b past
    d and by a b for each row b before d.  Conjugates by inverses are not
    needed: g S g^-1 <= S forces equality in a finitely generated
    nilpotent group.
    """
    dirty = set(rows)
    while dirty:
        d = dirty.pop()
        a = rows[d]
        probes = [G.mul(b, a) if e > d else G.mul(a, b)
                  for e, b in sorted(rows.items()) if e != d]
        probes += [G.conj(a, g) for g in conjugate_by]
        for p in probes:
            dirty.update(_insert(G, rows, p))


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
    """Subgroup of a PcGroup held as a canonical igs.  The rows are never
    changed after construction, so normality is checked once per object."""

    def __init__(self, parent, rows):
        self.parent = parent
        self.rows = dict(rows)
        self.pivots = sorted(self.rows)
        self._normal = None

    @property
    def igs(self):
        return [self.rows[d] for d in self.pivots]

    def contains(self, u):
        return _sift(self.parent, self.rows, u) == IDENTITY

    def contains_subgroup(self, other):
        _same_parent(self, other)
        return all(self.contains(r) for r in other.igs)

    def is_normal(self):
        # g S g^-1 <= S forces equality here (max condition)
        if self._normal is None:
            G = self.parent
            self._normal = all(self.contains(G.conj(r, g)) for r in self.igs for g in G.gens())
        return self._normal

    def coords_of(self, u):
        """Exponents of u along the igs rows (error if not a member)."""
        taken = {}
        if _sift(self.parent, self.rows, u, taken):
            raise ValueError("element does not sift through the igs")
        return [taken.get(d, 0) for d in self.pivots]

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


def _igs(G, gens, conjugate_by=()):
    """Canonical igs of the subgroup generated by gens and closed under
    conjugation by conjugate_by."""
    rows = {}
    for u in gens:
        _insert(G, rows, u)
    _close(G, rows, conjugate_by)
    return PcSubgroup(G, _canonical(G, rows))


def subgroup(G, gens):
    """Canonical igs of the subgroup generated by the given elements."""
    return _igs(G, gens)


def normal_closure_pc(G, gens):
    """Least normal subgroup containing the given elements."""
    return _igs(G, gens, G.gens())


def commutator_subgroup_pc(H, K):
    """Normal closure of the commutators of igs rows."""
    _same_parent(H, K)
    G = H.parent
    gens = [G.comm(a, b) for a in H.igs for b in K.igs]
    return normal_closure_pc(G, gens)


# -- intersection of normal subgroups --------------------------------------


class _Pairs:
    """Arithmetic on pairs (kappa, eta) of elements of G, multiplied in the
    semidirect product of G acting on G by conjugation:
    (k1, e1)(k2, e2) = (k1 * e1 k2 e1^-1, e1 e2).  The map
    (kappa, eta) -> kappa * eta is a homomorphism onto G, and the lead of a
    pair is the lead of that image.  Igs rows over pairs span the product
    of a K part and an H part, with every member factored as kappa * eta.
    """

    def __init__(self, G):
        self.G = G

    def mul(self, a, b):
        G = self.G
        ka, ea = a
        kb, eb = b
        return (G.mul(ka, G.conj(kb, ea)), G.mul(ea, eb))

    def inv(self, a):
        G = self.G
        k, e = a
        ei = G.inv(e)
        return (G.conj(G.inv(k), ei), ei)

    def pow(self, a, n):
        if n < 0:
            a, n = self.inv(a), -n
        out = (IDENTITY, IDENTITY)
        while n:
            if n & 1:
                out = self.mul(out, a)
            n >>= 1
            if n:
                a = self.mul(a, a)
        return out

    def lead(self, a):
        return self.G.lead(self.G.mul(a[0], a[1]))

    def split(self, rows, w):
        """(kappa, eta) with w = kappa * eta, the product of the row powers
        that sifting (w, 1) divides out; w must be a member."""
        r = _sift(self, rows, (w, IDENTITY))
        if self.lead(r) is not None:
            raise InternalError("element is not in the tracked product")
        return self.mul((w, IDENTITY), self.inv(r))


def intersect_pc(H, K):
    """Intersection of two normal subgroups, built pivot by pivot.

    G_d, the elements whose lead is d or later, contains gamma_{w+1} and
    lies in gamma_w, w = weight(d), as the basis is ordered by weight.  So
    G_d is normal, and so are K_d = K cap G_d, H_d and P_d = K_d H_d.
    Descending through the basis, P is an igs of P_{d+1}.  With l the lcm
    of the leading exponents, a = l/mK and b = l/mH, an element of H cap K
    leads at d with exponent k l iff z_k = rK^-(k a) * rH^(k b) lies in
    P_{d+1}.  [rK, rH] lies in K cap gamma_{w+1}, inside P_{d+1}, so
    P_d / P_{d+1} is abelian on rK and rH and the least such k is the
    order of z_1 modulo P_{d+1}.  The pair tracking splits z_k into
    kappa * eta, and rK^(k a) * kappa = rH^(k b) * eta^-1 is the witness.

    The witnesses are already an igs of H cap K and need no closure.  The
    coordinate at d is additive on G_d, so its values on H cap K cap G_d
    form a subgroup of Z.  Each is a multiple of l, and k l is one iff z_k
    lies in P_{d+1}, so the witness at d has the least positive value.
    No member leads at a pivot where H or K has no row.

    P needs insertion only, no closure.  Claim: if rows are an igs of N
    and x normalises N, _insert(rows, x) leaves an igs of S = <x> N.  By
    induction on the pivot j that x sifts to, from the deepest: sifting
    stays in xN; if x sifts to 1 it lies in N; if j has no row, N_j =
    N_{j+1} and the new row sifts every x^k n.  Else take the row r at j,
    with leading exponents e of x and m of r, g = gcd(m, e).  N_{j+1} is
    normal in S and holds [x, r], in N cap gamma_{weight(j)+1}.  So
    S_j / N_{j+1} is abelian on x and r, and the kernel S_{j+1} / N_{j+1}
    of its coordinate at j is cyclic on x^(m/g) r^-(e/g).  The Euclid
    residuals are powers of that generator with coprime exponents; each,
    inserted into the rows of N_{j+1} in turn, normalises what the one
    before left.  Rows before j stay valid: x^k n in G_i has the
    coordinate of n at i < j.  Here P_{d+1} and K_d H_{d+1} are normal,
    so rK and rH normalise them.  The pairs only add the factorisation:
    (kappa, eta) -> kappa * eta is a homomorphism and _insert looks only
    at images.
    """
    _same_parent(H, K)
    G = H.parent
    for name, sub in (("first", H), ("second", K)):
        if not sub.is_normal():
            raise ValueError(f"intersection needs normal subgroups; the {name} one is not")
    pairs = _Pairs(G)
    P = {}
    witnesses = {}
    for d in range(G.basis.size - 1, -1, -1):
        rH = H.rows.get(d)
        rK = K.rows.get(d)
        if rH is not None and rK is not None:
            mH, mK = rH[0][1], rK[0][1]
            l0 = mH * mK // math.gcd(mH, mK)
            a, b = l0 // mK, l0 // mH
            z = G.mul(G.pow(rK, -a), G.pow(rH, b))
            k0 = _order_mod(G, {p: G.mul(*r) for p, r in P.items()}, z)
            if k0 is not None:
                kpow, hpow = G.pow(rK, k0 * a), G.pow(rH, k0 * b)
                kappa, eta = pairs.split(P, G.mul(G.inv(kpow), hpow))
                w = G.mul(kpow, kappa)
                alt = G.mul(hpow, G.inv(eta))
                if w != alt:
                    raise InternalError("witness factorization mismatch")
                if G.lead(w) != (d, k0 * l0):
                    raise InternalError(f"witness at pivot {d} does not lead with exponent {k0 * l0}")
                witnesses[d] = w
        # extend P with the rows at pivot d before moving shallower
        if rK is not None:
            _insert(pairs, P, (rK, IDENTITY))
        if rH is not None:
            _insert(pairs, P, (IDENTITY, rH))
    out = PcSubgroup(G, _canonical(G, witnesses))
    if not (H.contains_subgroup(out) and K.contains_subgroup(out)):
        raise InternalError("intersection escapes one of its operands")
    return out


def _order_mod(G, rows, z):
    """Least k >= 1 with z^k in the subgroup with the given rows, or None;
    the subgroup is normal, so cosets of powers of z are powers of the coset."""
    k = 1
    v = _sift(G, rows, z)
    while v:
        d, e = v[0]
        row = rows.get(d)
        if row is None:
            return None
        m = row[0][1]
        t = m // math.gcd(e, m)
        k *= t
        v = _sift(G, rows, G.pow(v, t))
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
