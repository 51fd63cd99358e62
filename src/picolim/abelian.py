"""Integer matrix normal forms and abelian invariants, on the one echelon.

Everything here is exact: plain Python ints, no floats.  At the interface
row vectors are dense lists of ints and matrices are lists of rows of equal
length.  Inside, a row is a sparse element of Z^n (_Lattice), and a lattice
is held as an echelon of such rows: _sift, _insert, _canonical and
_order_mod run over any group arithmetic, and nilpotent runs the same
routines for the igs of subgroups of free nilpotent groups.  Sparse rows
make badly presented Z-modules such as Schreier relation matrices
tractable (Havas, Holt and Rees, Linear Algebra Appl. 192, 1993).
`smith_normal_form` splits off the unit pivots of the Hermite form and runs
a dense elimination, with pivots of minimal absolute value, only on the
block that remains.
"""

from itertools import compress
from math import gcd, prod

from .errors import InternalError


class AbelianInvariants:
    """free_rank copies of Z plus cyclic torsion in a divisibility chain."""

    def __init__(self, free_rank, torsion):
        torsion = tuple(int(d) for d in torsion)
        for d in torsion:
            if d < 2:
                raise ValueError("torsion entries must be at least 2")
        for a, b in zip(torsion, torsion[1:]):
            if b % a:
                raise ValueError("torsion must form a divisibility chain")
        self.free_rank = free_rank
        self.torsion = torsion

    @classmethod
    def from_relation_matrix(cls, rows, ncols):
        """Invariants of Z^ncols modulo the row lattice."""
        divisors = smith_normal_form(rows, ncols)
        torsion = tuple(d for d in divisors if d > 1)
        return cls(ncols - len(divisors), torsion)

    def order(self):
        """Group order, or None when infinite."""
        return None if self.free_rank else prod(self.torsion)

    def to_json_dict(self):
        return {"free_rank": self.free_rank, "torsion": list(self.torsion)}

    def __eq__(self, other):
        return (
            isinstance(other, AbelianInvariants)
            and self.free_rank == other.free_rank
            and self.torsion == other.torsion
        )

    def __hash__(self):
        return hash((self.free_rank, self.torsion))

    def __str__(self):
        parts = []
        if self.free_rank == 1:
            parts.append("Z")
        elif self.free_rank > 1:
            parts.append(f"Z^{self.free_rank}")
        parts.extend(f"Z/{d}" for d in self.torsion)
        return " x ".join(parts) if parts else "0"

    def __repr__(self):
        return f"AbelianInvariants(free_rank={self.free_rank}, torsion={self.torsion})"


def hermite_reduce(rows, ncols):
    """Row-style echelon basis of the lattice spanned by `rows`.

    Returns rows sorted by pivot column, pivots positive, entries above each
    pivot reduced into [0, pivot).  This is the canonical (row) Hermite form
    of the lattice, which _canonical makes of the echelon.
    """
    out = []
    for _, row in sorted(_canonical(_Lattice, _echelon(rows, ncols)).items()):
        dense = [0] * ncols
        for j, v in row:
            dense[j] = v
        out.append(dense)
    return out


def _echelon(rows, ncols):
    """Pivot rows of the lattice spanned by dense rows of length ncols."""
    basis = {}
    for row in rows:
        _insert(_Lattice, basis, _sparse(row, ncols))
    return basis


def _sparse(row, ncols):
    """The _Lattice element of a dense row of length ncols."""
    if len(row) != ncols:
        raise ValueError("ragged matrix")
    return tuple(compress(enumerate(row), row))


class _Lattice:
    """Z^n as a group arithmetic for the echelon: an element is a tuple of
    (column, nonzero value) pairs in increasing column order, the shape of
    a pc normal form, as Z^n is the free nilpotent group of class 1 (Sims,
    Computation with Finitely Presented Groups, 1994, ch. 9)."""

    @staticmethod
    def mul(u, v):
        """The sum, by one merge of the two column orders."""
        out, i, j = [], 0, 0
        while i < len(u) and j < len(v):
            (a, x), (b, y) = u[i], v[j]
            if a != b:
                out.append(u[i] if a < b else v[j])
            elif x + y:
                out.append((a, x + y))
            i += a <= b
            j += b <= a
        return (*out, *u[i:], *v[j:])

    @staticmethod
    def pow(u, k):
        return tuple([(j, k * x) for j, x in u]) if k else ()

    @staticmethod
    def inv(u):
        return tuple([(j, -x) for j, x in u])

    @staticmethod
    def lead(u):
        return u[0] if u else None


def _bezout(a, b, g):
    """x, y with x*a + y*b == g."""
    old_r, r = a, b
    old_s, s = 1, 0
    old_t, t = 0, 1
    while r:
        q = old_r // r
        old_r, r = r, old_r - q * r
        old_s, s = s, old_s - q * s
        old_t, t = t, old_t - q * t
    if old_r == g:
        return old_s, old_t
    return -old_s, -old_t


# -- the echelon -----------------------------------------------------------
#
# Rows map each pivot to the one row that leads there.  A is a group
# arithmetic with mul, pow, inv and lead (the leading (index, exponent) of
# u, or None for the identity): _Lattice, a PcGroup, or the pairs of
# nilpotent.intersect_pc, which only _sift and _insert take.  The echelon
# is sound as the coordinate at d is additive on the elements leading at d
# or later.


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
        g = gcd(m, e)
        x, y = _bezout(m, e, g)
        new = A.mul(A.pow(row, x), A.pow(u, y))
        if A.lead(new) != (d, g):
            raise InternalError(f"gcd row at pivot {d} does not lead with exponent {g}")
        rows[d] = new
        changed.append(d)
        pending.append(A.mul(A.pow(new, -(m // g)), row))
        pending.append(A.mul(A.pow(new, -(e // g)), u))
    return changed


def _canonical(A, rows):
    """Reduce the entries of each row at later pivots into [0, pivot), left
    to right.  Right-multiplying by the row that leads at i changes no
    coordinate before i and adds a multiple of its pivot at i, so the
    entries already passed stay as they are."""
    for d in sorted(rows):
        r = rows[d]
        k = 1
        while k < len(r):
            i, e = r[k]
            q = e // rows[i][0][1] if i in rows else 0  # floor: residues in [0, m)
            if q:
                r = A.mul(r, A.pow(rows[i], -q))
            if k < len(r) and r[k][0] == i:
                k += 1
        rows[d] = r
    return rows


def _order_mod(A, rows, z):
    """Least k >= 1 with z^k in the subgroup with the given rows, or None;
    the subgroup is normal, so cosets of powers of z are powers of the coset."""
    k = 1
    v = _sift(A, rows, z)
    while v:
        d, e = v[0]
        row = rows.get(d)
        if row is None:
            return None
        m = row[0][1]
        t = m // gcd(e, m)
        k *= t
        v = _sift(A, rows, A.pow(v, t))
    return k


def smith_normal_form(rows, ncols):
    """Nonzero diagonal of the Smith form (d1 | d2 | ...), all positive.

    Rows are reduced to the canonical Hermite form first.  There a column
    whose pivot is 1 is zero in every other row, so a column operation
    clears the rest of the pivot's row and splits off a divisor 1.  Each
    such row is dropped with its column, and the dense elimination below
    runs only on the block that remains.
    """
    units = set()
    block = []
    for row in hermite_reduce(rows, ncols):
        for col, v in enumerate(row):
            if v:
                break
        if v == 1:
            units.add(col)
        else:
            block.append(row)
    if units and block:
        keep = [j for j in range(ncols) if j not in units]
        block = [[row[j] for j in keep] for row in block]
    return [1] * len(units) + _diagonalize(block, ncols - len(units))


def _diagonalize(m, ncols):
    """Smith divisors of a dense matrix, reduced in place."""
    if not m:
        return []
    nrows = len(m)
    divisors = []
    top = 0
    while top < nrows and top < ncols:
        # minimal absolute value nonzero entry in the remaining block
        best = None
        for i in range(top, nrows):
            for j in range(top, ncols):
                v = m[i][j]
                if v and (best is None or abs(v) < abs(best[2])):
                    best = (i, j, v)
        if best is None:
            break
        bi, bj, _ = best
        m[top], m[bi] = m[bi], m[top]
        for row in m:
            row[bj], row[top] = row[top], row[bj]
        piv = m[top][top]
        dirty = False
        for i in range(top + 1, nrows):
            if m[i][top]:
                q = m[i][top] // piv
                m[i] = [v - q * p for v, p in zip(m[i], m[top])]
                if m[i][top]:
                    dirty = True
        for j in range(top + 1, ncols):
            if m[top][j]:
                q = m[top][j] // piv
                for row in m:
                    row[j] -= q * row[top]
                if m[top][j]:
                    dirty = True
        if dirty:
            continue
        # pivot must divide every remaining entry, else absorb and retry
        absorbed = False
        for i in range(top + 1, nrows):
            if any(v % piv for v in m[i][top + 1 :]):
                m[top] = [a + b for a, b in zip(m[top], m[i])]
                absorbed = True
                break
        if absorbed:
            continue
        divisors.append(abs(piv))
        top += 1
    # Each pivot appended divides every entry of the block left after it,
    # and the later row and column operations only take integer
    # combinations of those entries, so every later pivot is a multiple of
    # it: the divisors come out as a divisibility chain.
    for a, b in zip(divisors, divisors[1:]):
        if b % a:
            raise InternalError("Smith divisors do not form a divisibility chain")
    return divisors


def order_in_quotient(vec, rows, ncols):
    """Order of vec + L in Z^ncols / L, where L is spanned by `rows`.

    Returns a positive int, or None for infinite order, from _order_mod
    on the echelon of L; every subgroup of Z^ncols is normal.
    """
    return _order_mod(_Lattice, _echelon(rows, ncols), _sparse(vec, ncols))
