"""Integer matrix normal forms and abelian invariants.

Everything here is exact: plain Python ints, no floats.  At the interface
row vectors are dense lists of ints and matrices are lists of rows of equal
length.  Inside, `hermite_reduce` keeps each row as a sparse {column:
value} dict and inserts rows by leading column with gcd steps: Schreier
relation matrices carry two or three nonzeros per row, and sparse rows
are what makes such badly presented Z-modules tractable (Havas, Holt and
Rees, "Recognizing badly presented Z-modules", Linear Algebra Appl. 192,
1993).  `smith_normal_form` splits off the unit pivots of that Hermite
form and runs a dense elimination, with pivots of minimal absolute value,
only on the block that remains.  The order of an element in a quotient
comes from the same Smith form, by comparing the invariants of the
lattice with and without the element.
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
    of the lattice.  Rows come in and go out dense; in between each is a
    {column: value} dict of its nonzeros.
    """
    basis = {}  # pivot column -> sparse row
    for given in rows:
        if len(given) != ncols:
            raise ValueError("ragged matrix")
        pending = [dict(compress(enumerate(given), given))]
        while pending:
            vec = pending.pop()
            while vec:
                col = min(vec)
                row = basis.get(col)
                if row is None:
                    if vec[col] < 0:
                        vec = {j: -v for j, v in vec.items()}
                    basis[col] = vec
                    break
                a, b = row[col], vec[col]
                if b % a == 0:
                    _add_multiple(vec, -(b // a), row)
                    continue
                # replace the pivot row by the gcd combination, recycle the rest
                g = gcd(a, b)
                x, y = _bezout(a, b, g)
                comb = {}
                _add_multiple(comb, x, row)
                _add_multiple(comb, y, vec)
                _add_multiple(vec, -(b // g), comb)
                _add_multiple(row, -(a // g), comb)
                basis[col] = comb
                pending.append(row)

    cols = sorted(basis)
    # reduce above-pivot entries, bottom up, so each row subtracted is final
    for i in range(len(cols) - 2, -1, -1):
        row = basis[cols[i]]
        for cj in cols[i + 1 :]:
            v = row.get(cj)
            if v:
                _add_multiple(row, -(v // basis[cj][cj]), basis[cj])
    out = []
    for c in cols:
        dense = [0] * ncols
        for j, v in basis[c].items():
            dense[j] = v
        out.append(dense)
    return out


def _add_multiple(vec, q, row):
    """vec += q * row on sparse rows, in place, keeping only nonzeros."""
    if not q:
        return
    for j, r in row.items():
        v = vec.get(j, 0) + q * r
        if v:
            vec[j] = v
        else:
            del vec[j]


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

    Returns a positive int, or None for infinite order.  Z^ncols / L is
    Z^r + T with T finite.  If vec + L has infinite order, L + <vec> has
    smaller free rank.  Otherwise vec + L spans a cyclic subgroup of T of
    order k, and dividing it out leaves torsion of order |T| / k.
    """
    lattice = AbelianInvariants.from_relation_matrix(rows, ncols)
    grown = AbelianInvariants.from_relation_matrix([*rows, vec], ncols)
    if grown.free_rank < lattice.free_rank:
        return None
    k = prod(lattice.torsion) // prod(grown.torsion)
    # k * vec lies in L exactly when adding it leaves the invariants alone:
    # Z^ncols / L maps onto Z^ncols / (L + <k vec>), and a surjection between
    # isomorphic finitely generated abelian groups is injective
    again = AbelianInvariants.from_relation_matrix([*rows, [k * v for v in vec]], ncols)
    if again != lattice:
        raise InternalError(f"order {k} does not put the element in the lattice")
    return k
