"""Homotopy invariants of a union of aspherical spaces glued along
normal subgroups N_1,...,N_n of a common fundamental group.

The formulas work over either engine: finite permutation groups
(FiniteGroup, FinSubgroup) or free nilpotent pc groups (PcGroup,
PcSubgroup).  They call only the interface the two share:

    group:     full_subgroup(), trivial_subgroup()
    subgroup:  intersect(K), product(K), commutator(K), contains_subgroup(K),
               is_normal(), quotient_invariants(K), descriptor()

where quotient_invariants(K) gives the abelian invariants of the quotient
by K and descriptor() the JSON summary of the subgroup (its order, or its
igs pivots).  Only pi_1_colimit, which realises the quotient group, needs
the finite engine.

The n-th homotopy group of the union is (cap N_i) / (symmetric commutator)
provided every (n-1)-subtuple satisfies the connectivity condition: for
all disjoint index sets I (|I| >= 2) and J (|J| >= 1),

    (cap_{i in I} N_i) (prod_{j in J} N_j) = cap_{i in I} (N_i prod_{j in J} N_j).

(The condition holds trivially when I and J share an index; see
is_connected_tuple.)

The check is mandatory; on failure the computation refuses with the
offending subtuple and witness rather than report a number the formula
does not cover.
"""

from functools import reduce
from itertools import combinations, combinations_with_replacement

from .catalog import catalog_group, groups_of_order_at_most
from .errors import ConnectivityError, InternalError
from .finite import FiniteGroup
from .nilpotent import free_nilpotent, normal_closure_pc
from .presentations import render_word


class NormalTuple:
    """An ambient group with an ordered tuple of normal subgroups."""

    def __init__(self, ambient, subgroups):
        subgroups = tuple(subgroups)
        if not subgroups:
            raise ValueError("need at least one subgroup")
        for idx, s in enumerate(subgroups):
            if getattr(s, "parent", None) is not ambient:
                raise ValueError(f"subgroup {idx + 1} does not live in the ambient group")
            if not s.is_normal():
                raise ValueError(f"subgroup {idx + 1} is not normal in the ambient group")
        self.ambient = ambient
        self.subgroups = subgroups

    @property
    def n(self):
        return len(self.subgroups)

    def subtuple(self, omit):
        # both engines keep normality on the subgroup, so the check is a lookup
        return NormalTuple(self.ambient, self.subgroups[:omit] + self.subgroups[omit + 1:])


def quotient_invariants(A, B):
    """Abelian invariants of A/B on whichever engine the inputs live."""
    return A.quotient_invariants(B)


def _intersection(subs):
    return reduce(lambda a, b: a.intersect(b), subs)


def _product(subs):
    return reduce(lambda a, b: a.product(b), subs)


class Report:
    """Uniform result record; `invariants` is AbelianInvariants or None."""

    def __init__(self, formula, inputs, hypothesis_checks=None, numerator=None,
                 denominator=None, invariants=None, notes=None):
        self.formula = formula
        self.inputs = inputs
        self.hypothesis_checks = hypothesis_checks or []
        self.numerator = numerator
        self.denominator = denominator
        self.invariants = invariants
        self.notes = notes or []

    def to_json_dict(self):
        return {
            "formula": self.formula,
            "inputs": self.inputs,
            "hypothesis_checks": self.hypothesis_checks,
            "numerator": self.numerator,
            "denominator": self.denominator,
            "invariants": None if self.invariants is None else self.invariants.to_json_dict(),
            "notes": self.notes,
        }


def _quotient_report(formula, inputs, numerator, denominator, **fields):
    """Report of the invariants of numerator / denominator."""
    if not numerator.contains_subgroup(denominator):
        raise InternalError("denominator must lie in the numerator")
    return Report(
        formula=formula,
        inputs=inputs,
        numerator=numerator.descriptor(),
        denominator=denominator.descriptor(),
        invariants=quotient_invariants(numerator, denominator),
        **fields,
    )


def is_connected_tuple(t):
    """(ok, witness): witness is a violating (I, J) of 1-based indices.

    Only J disjoint from I is checked.  If i lies in both, then
    N_i <= N_J, so (cap_I N) N_J and cap_I (N_i N_J) both equal N_J.  The
    pairs skipped never violate the condition, so the first witness is the
    first over all pairs in the order I, then J, by size and then
    lexicographically.
    """
    m = t.n
    if m <= 2:
        # no disjoint I and J with |I| >= 2 and J nonempty
        return True, None
    subs = t.subgroups
    indices = range(m)
    inter_cache = {}
    prod_cache = {}

    def inter(I):
        got = inter_cache.get(I)
        if got is None:
            got = inter_cache[I] = _intersection([subs[i] for i in I])
        return got

    def prod(J):
        got = prod_cache.get(J)
        if got is None:
            got = prod_cache[J] = _product([subs[j] for j in J])
        return got

    for isize in range(2, m):
        for I in combinations(indices, isize):
            rest = [j for j in indices if j not in I]
            for jsize in range(1, len(rest) + 1):
                for J in combinations(rest, jsize):
                    lhs = inter(I).product(prod(J))
                    rhs = _intersection([prod(tuple(sorted(J + (i,)))) for i in I])
                    if not lhs == rhs:
                        witness = (tuple(i + 1 for i in I), tuple(j + 1 for j in J))
                        return False, witness
    return True, None


def symmetric_commutator(t):
    """Product over two-block partitions {I, J} of the index set of
    [cap_I N_i, cap_J N_j]."""
    n = t.n
    if n < 2:
        raise ValueError("symmetric commutator needs at least two subgroups")
    subs = t.subgroups
    rest = range(1, n)
    acc = None
    # fix index 0 in I so each unordered partition appears once
    for isize in range(0, n):
        for extra in combinations(rest, isize):
            I = (0,) + extra
            J = tuple(j for j in rest if j not in extra)
            if not J:
                continue
            c = _intersection([subs[i] for i in I]).commutator(_intersection([subs[j] for j in J]))
            acc = c if acc is None else acc.product(c)
    return acc


def witness_json(witness):
    """A violating (I, J) as the JSON dict {"I": [...], "J": [...]}, or None."""
    return None if witness is None else {"I": list(witness[0]), "J": list(witness[1])}


def check_hypothesis(t):
    """Connectivity of every (n-1)-subtuple; transcript for reporting.
    For n <= 3 each subtuple has at most two subgroups, so it is connected
    (see is_connected_tuple) and none is built; NormalTuple refuses the
    empty one of a 1-tuple."""
    transcript = []
    for omit in range(t.n):
        ok, witness = is_connected_tuple(t.subtuple(omit)) if t.n > 3 else (True, None)
        transcript.append({
            "omitted": omit + 1,
            "connected": ok,
            "witness": witness_json(witness),
        })
        if not ok:
            raise ConnectivityError(
                f"the subtuple omitting N_{omit + 1} is not connected; "
                f"violating (I, J) = {witness}",
                omitted=omit + 1,
                witness=witness,
                transcript=transcript,
            )
    return transcript


def pi_n_colimit(t):
    """Invariants of (cap N_i) / (symmetric commutator), gated on the
    connectivity hypothesis."""
    transcript = check_hypothesis(t)
    numerator = _intersection(t.subgroups)
    if t.n == 1:
        denominator = t.ambient.trivial_subgroup()
    else:
        denominator = symmetric_commutator(t)
    return _quotient_report(
        "pi_n_colimit", {"n": t.n}, numerator, denominator, hypothesis_checks=transcript
    )


def pi_1_colimit(t):
    """Quotient G / (N_1 ... N_n); stated in the source formula for n = 3,
    reported as an extension otherwise."""
    if not isinstance(t.ambient, FiniteGroup):
        raise TypeError("pi_1_colimit needs the finite engine")
    product = _product(t.subgroups)
    notes = [] if t.n == 3 else ["extension of the n=3 formula to general n"]
    report = Report(
        formula="pi_1_colimit",
        inputs={"n": t.n},
        numerator={"ambient": True},
        denominator=product.descriptor(),
        notes=notes,
    )
    quotient, _ = t.ambient.quotient(product)
    report.inputs["quotient_order"] = quotient.n
    return report, quotient


def pi_2_colimit_n3(L, M, N):
    """Invariants of (LM cap MN) / (M (L cap N)); symmetric in L, M, N.

    The quotient is always abelian.  Modulo M, LM cap MN is the
    intersection of the images of L and N, whose commutator subgroup lies
    in their commutator, the image of [L, N] <= L cap N.  So
    [LM cap MN, LM cap MN] <= M (L cap N) <= LM cap MN.
    """
    for nm, s in (("L", L), ("M", M), ("N", N)):
        if not s.is_normal():
            raise ValueError(f"{nm} is not normal")
    numerator = L.product(M).intersect(M.product(N))
    denominator = M.product(L.intersect(N))
    return _quotient_report("pi_2_colimit_n3", {}, numerator, denominator)


def h1_GMN(ambient, M, N):
    """Invariants of (M cap N) / ([G, M cap N][M, N])."""
    for nm, s in (("M", M), ("N", N)):
        if not s.is_normal():
            raise ValueError(f"{nm} is not normal")
    full = ambient.full_subgroup()
    numerator = M.intersect(N)
    denominator = full.commutator(numerator).product(M.commutator(N))
    return _quotient_report("h1_GMN", {}, numerator, denominator)


def hopf_h3_check(names, r_word, s_word, cls):
    """Invariants of (R cap S cap [F,F]) / ([R,S][R cap S, F]) computed in
    the free nilpotent quotient of the given class, F free on the given
    generator names; the relator words are over their indices.

    A trivial result is consistent with vanishing H3 of F/RS; the value is
    a truncation, so triviality at one class proves nothing beyond it.
    """
    F = free_nilpotent(len(names), cls)
    R = normal_closure_pc(F, [F.collect(r_word)])
    S = normal_closure_pc(F, [F.collect(s_word)])
    full = F.full_subgroup()
    derived = full.commutator(full)
    rs = R.intersect(S)
    numerator = rs.intersect(derived)
    denominator = R.commutator(S).product(rs.commutator(full))
    return _quotient_report(
        "hopf_h3_check",
        {"rank": len(names), "r": render_word(r_word, names),
         "s": render_word(s_word, names), "class": cls},
        numerator,
        denominator,
        notes=[f"truncated at class {cls}; triviality here is evidence, not proof"],
    )


def search_disconnected_triple(max_order=16, stop_at_first=True):
    """Exhaustive scan of normal-subgroup triples of the catalog groups of
    order <= max_order for a connectivity violation.

    Returns a list of findings, each (group name, triple of subgroup
    orders, witness).  The connectivity condition is invariant under
    permutations of the tuple, so unordered triples suffice.
    """
    findings = []
    for name in groups_of_order_at_most(max_order):
        g = catalog_group(name)
        normals = g.normal_subgroups()
        for triple in combinations_with_replacement(normals, 3):
            t = NormalTuple(g, triple)
            ok, witness = is_connected_tuple(t)
            if not ok:
                findings.append((name, tuple(s.order() for s in triple), witness))
                if stop_at_first:
                    return findings
    return findings
