"""Integer matrix normal forms and abelian invariants, on the one echelon.

Everything here is exact: plain Python ints, no floats.  A row is a sparse
element of Z^n (_Lattice): a tuple of (column, nonzero value) pairs in
increasing column order, the one format from every producer of relation
rows to every entry point here.  A lattice is held as an echelon of such
rows: _sift, _insert, _canonical and _order_mod run over any group
arithmetic, and nilpotent runs the same routines for the igs of subgroups
of free nilpotent groups.  Sparse rows make badly presented Z-modules such
as Schreier relation matrices tractable (Havas, Holt and Rees, Linear
Algebra Appl. 192, 1993).  `smith_normal_form` runs the same elimination:
it alternates the Hermite forms of the rows and of their transpose until
the matrix is diagonal (Kannan and Bachem, SIAM J. Comput. 8, 1979).
"""

from itertools import combinations
from math import gcd, lcm, prod

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


def hermite_reduce(rows):
    """Canonical row Hermite form of the lattice spanned by `rows`: rows by
    pivot column, pivots positive, entries above each pivot in [0, pivot)."""
    return [row for _, row in sorted(_canonical(_Lattice, _echelon(rows)).items())]


def _echelon(rows):
    """Pivot rows of the lattice spanned by `rows`."""
    basis = {}
    for row in rows:
        _insert(_Lattice, basis, row)
    return basis


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
    """x, y with x*a + y*b == g, for nonzero a and b with gcd g."""
    a, b = a // g, b // g
    x = pow(a, -1, abs(b))
    return x, (1 - x * a) // b


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

    Hermite forms of the rows and of their transpose alternate until each
    row has one entry (Kannan and Bachem, SIAM J. Comput. 8, 1979).  Each
    form has r rows, r the rank, leading at increasing columns with
    positive pivots.  The first pivot p is alone in its column, the first
    nonzero one, so the transpose's first row is p alone at column 0, and
    its form leads with g, the gcd of p's row.  If g < p, the first pivot
    fell.  If g == p, the other rows sift by p at column 0 alone, which
    leaves p alone in its row and column, where no later form touches it,
    and the other rows alternate as a matrix of rank r - 1.  So the loop
    ends, by induction on r.

    Z^ncols / L is then Z^(ncols - r) plus the Z/d of the r entries.  As
    Z/a + Z/b is Z/gcd(a, b) + Z/lcm(a, b), prime by prime, replacing each
    pair (d_i, d_j), i < j, of entries above 1 by (gcd, lcm) keeps the
    group; after step i, d_i divides every later d_j, as the later steps
    take gcds and lcms of its multiples.  With the 1s in front, that is
    the Smith diagonal.  A column outside 0..ncols-1 raises ValueError.
    """
    if any(row and not 0 <= row[0][0] <= row[-1][0] < ncols for row in rows):
        raise ValueError(f"a row has a column outside 0..{ncols - 1}")
    rows = hermite_reduce(rows)
    while any(len(row) > 1 for row in rows):
        rows = hermite_reduce(_transpose(rows))
    d = [row[0][1] for row in rows if row[0][1] > 1]
    for i, j in combinations(range(len(d)), 2):
        d[i], d[j] = gcd(d[i], d[j]), lcm(d[i], d[j])
    d[:0] = [1] * (len(rows) - len(d))
    for a, b in zip(d, d[1:]):
        if b % a:
            raise InternalError("Smith divisors do not form a divisibility chain")
    return d


def _transpose(rows):
    """The columns of `rows` as rows, in column order."""
    columns = {}
    for i, row in enumerate(rows):
        for j, v in row:
            columns.setdefault(j, []).append((i, v))
    return [tuple(columns[j]) for j in sorted(columns)]


def order_in_quotient(vec, rows):
    """Order of vec + L in Z^n / L, L spanned by `rows`, or None if infinite:
    _order_mod on the echelon of L, as every subgroup of Z^n is normal."""
    return _order_mod(_Lattice, _echelon(rows), vec)
