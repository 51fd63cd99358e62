"""Truncated free associative algebra over the integers.

Series are dicts mapping monomials (tuples of letters) to nonzero integer
coefficients, with every monomial of length at most the truncation class.
Sending the i-th free generator to 1 + X_i embeds the free group of rank r
into the units of this algebra; for free groups the images of elements of
weight w differ from 1 only in degree >= w, so the embedding separates the
free nilpotent quotient of class c exactly.  The nilpotent engine uses it
as ground truth for its conjugation tables, and tests use it as an
independent multiplication oracle.
"""

from .errors import InternalError


class TruncatedAlgebra:

    def __init__(self, rank, cls):
        self.rank = rank
        self.cls = cls

    def one(self):
        return {(): 1}

    def gen(self, i):
        """Image 1 + X_i of the i-th group generator."""
        return {(): 1, (i,): 1}

    def mul(self, f, g):
        cap = self.cls
        out = {}
        for m1, c1 in f.items():
            room = cap - len(m1)
            for m2, c2 in g.items():
                if len(m2) > room:
                    continue
                m = m1 + m2
                c = out.get(m, 0) + c1 * c2
                if c:
                    out[m] = c
                else:
                    del out[m]
        return out

    def inv(self, f):
        """Inverse of a series with constant term 1 (alternating geometric series)."""
        if f.get((), 0) != 1:
            raise InternalError("inverse needs constant term 1")
        u = dict(f)
        del u[()]
        out = self.one()
        power = self.one()
        sign = 1
        for _ in range(self.cls):
            power = self.mul(power, u)
            if not power:
                break
            sign = -sign
            for m, c in power.items():
                c = out.get(m, 0) + sign * c
                if c:
                    out[m] = c
                else:
                    del out[m]
        return out

    def pow(self, f, e):
        if e < 0:
            return self.pow(self.inv(f), -e)
        out = self.one()
        base = f
        while e:
            if e & 1:
                out = self.mul(out, base)
            e >>= 1
            if e:
                base = self.mul(base, base)
        return out

    def comm(self, f, g):
        fg = self.mul(f, g)
        return self.mul(self.mul(fg, self.inv(f)), self.inv(g))
