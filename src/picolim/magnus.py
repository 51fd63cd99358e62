"""Truncated free associative algebra over the integers, graded by degree,
and the conjugation table of a Hall basis computed in it.

A series is a list of cls + 1 dicts, one per degree d, each mapping the
code of a monomial of length d to its nonzero integer coefficient.  The
code reads the letters of the monomial as the digits of a base-r integer,
so the concatenation of monomials with codes m1 and m2, of degrees d1 and
d2, has code m1 * r^d2 + m2.  A product multiplies only degree pairs with
d1 + d2 <= cls.  Sending the i-th free generator to 1 + X_i embeds the
free group of rank r into the units of this algebra.  For free groups the
image of an element of weight w differs from 1 only in degree >= w, so
the embedding separates the free nilpotent quotient of class cls exactly
(W. Magnus, Beziehungen zwischen Gruppen und Idealen in einem speziellen
Ring, Math. Ann. 111 (1935)).
"""

from .errors import InternalError


class GradedAlgebra:

    def __init__(self, rank, cls):
        self.rank = rank
        self.cls = cls
        self._shift = [rank ** d for d in range(cls + 1)]

    def one(self):
        return [{0: 1}] + [{} for _ in range(self.cls)]

    def gen(self, i):
        """Image 1 + X_i of the i-th group generator."""
        out = self.one()
        out[1][i] = 1
        return out

    def code(self, word):
        m = 0
        for x in word:
            m = m * self.rank + x
        return m

    @staticmethod
    def _add_product(out, f, g, shift, scale):
        """out += scale * f * g for homogeneous f and g, with shift = r^d
        for the degree d of g; zero coefficients are dropped."""
        for m1, c1 in f.items():
            base = m1 * shift
            c1 *= scale
            for m2, c2 in g.items():
                m = base + m2
                c = out.get(m, 0) + c1 * c2
                if c:
                    out[m] = c
                else:
                    del out[m]

    def mul(self, f, g):
        cap, shift = self.cls, self._shift
        out = [{} for _ in range(cap + 1)]
        for d1 in range(cap + 1):
            f1 = f[d1]
            if not f1:
                continue
            for d2 in range(cap + 1 - d1):
                if g[d2]:
                    self._add_product(out[d1 + d2], f1, g[d2], shift[d2], 1)
        return out

    def inv(self, f):
        """Inverse of a series with constant term 1, degree by degree:
        f g = 1 gives g_d = -(f_1 g_{d-1} + ... + f_d g_0)."""
        if f[0] != {0: 1}:
            raise InternalError("inverse needs constant term 1")
        shift = self._shift
        g = self.one()
        for d in range(1, self.cls + 1):
            gd = g[d]
            for d1 in range(1, d + 1):
                if f[d1] and g[d - d1]:
                    self._add_product(gd, f[d1], g[d - d1], shift[d - d1], -1)
        return g

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


class ConjugationTable:
    """Series of the Hall basis elements, and the normal forms of the
    conjugates a_j^-f a_k a_j^f read off them.

    The series of a_k and its inverse are each computed once per group,
    when first asked for.  The Lie part P_k of a_k is the homogeneous part
    of degree weight(k) of its series, read off the series as it is kept.
    """

    def __init__(self, basis):
        self.basis = basis
        self.cls = basis.cls
        self.alg = alg = GradedAlgebra(basis.rank, basis.cls)
        self._codes = [alg.code(word) for word, _, _ in basis.elements]
        self._series = {}
        self._inverse = {}
        wt = basis.weights
        # basis indices of each weight, in basis order
        self._layers = [[k for k in range(basis.size) if wt[k] == w] for w in range(basis.cls + 1)]

    def series(self, idx):
        got = self._series.get(idx)
        if got is None:
            _, weight, bracket = self.basis.elements[idx]
            if weight == 1:
                got = self.alg.gen(bracket)
            else:
                u, v = bracket
                alg = self.alg
                uv = alg.mul(self.series(u), self.series(v))
                got = alg.mul(alg.mul(uv, self.inverse(u)), self.inverse(v))
            self._series[idx] = got
        return got

    def inverse(self, idx):
        got = self._inverse.get(idx)
        if got is None:
            got = self._inverse[idx] = self.alg.inv(self.series(idx))
        return got

    def power(self, idx, e):
        """Series of a_idx^e, e != 0."""
        base = self.series(idx) if e > 0 else self.inverse(idx)
        return base if abs(e) == 1 else self.alg.pow(base, abs(e))

    def conjugate(self, k, j, f):
        """Normal form of a_j^-f a_k a_j^f."""
        alg = self.alg
        return self.element(alg.mul(alg.mul(self.power(j, -f), self.series(k)), self.power(j, f)))

    def element(self, series):
        """Exact exponent extraction, one weight layer at a time.

        Let R be the image of a normal form with its syllables of weight
        < w divided out, so R = 1 + (terms of degree >= w).  Each a_k^e
        of weight w has the series 1 + e P_k + (degree > w), so the part
        of degree w of R is the sum of e_k P_k over the layer.  The
        expansion of a Lyndon bracketing is unitriangular: the lex-least
        monomial of P_k is the Lyndon word of a_k, with coefficient 1, and
        every other monomial of P_k is larger.  So in basis order e_k is
        the coefficient of the word of a_k once the earlier e P are
        subtracted, and what is left of degree w must be 0.  Dividing out
        the layer, a_km^-em ... a_k1^-e1 R, leaves 1 + (degree > w); at
        the top weight nothing of higher degree is left to read.

        If 2w > c the division is linear.  With u = S_k - 1 and
        R = 1 + v, u and v have degree >= w, so every product of two of
        them has degree >= 2w and vanishes: a_k^-e has the series 1 - e u,
        and (1 - e u)(1 + v) = 1 + v - e u.
        """
        if series[0] != {0: 1}:
            raise InternalError("group image must have constant term 1")
        alg, codes, cls = self.alg, self._codes, self.cls
        series = [dict(part) for part in series]
        out = []
        for w in range(1, cls + 1):
            part = dict(series[w])
            layer = []
            for k in self._layers[w]:
                e = part.get(codes[k])
                if e:
                    layer.append((k, e))
                    _add_scaled(part, self.series(k)[w], -e)
            if part:
                raise InternalError("series is not the image of a group element")
            out += layer
            for k, e in layer:
                if 2 * w > cls:
                    s = self.series(k)
                    for d in range(w + 1, cls + 1):
                        _add_scaled(series[d], s[d], -e)
                else:
                    series = alg.mul(self.power(k, -e), series)
        return tuple(out)


def _add_scaled(out, f, scale):
    """out += scale * f on one degree, dropping zero coefficients."""
    for m, c in f.items():
        c = out.get(m, 0) + scale * c
        if c:
            out[m] = c
        else:
            del out[m]
