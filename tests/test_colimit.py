import random
from itertools import combinations_with_replacement, permutations, product

import pytest

from oracles import is_connected_tuple_all_pairs
from picolim.abelian import AbelianInvariants
from picolim.catalog import catalog_group, catalog_subgroup, groups_of_order_at_most
from picolim.colimit import (
    NormalTuple,
    check_hypothesis,
    h1_GMN,
    hopf_h3_check,
    is_connected_tuple,
    pi_1_colimit,
    pi_2_colimit_n3,
    pi_n_colimit,
    search_disconnected_triple,
    symmetric_commutator,
)
from picolim.errors import ConnectivityError
from picolim.nilpotent import free_nilpotent, normal_closure_pc
from picolim.words import Word, commutator
from picolim.wu import WuConfiguration, wu_group


def _pair_equation_holds(a, b, helpers):
    """Direct check of the defining equation for a pair, over every (I, J)."""
    subs = [a, b]
    for I in ([0, 1],):
        for jsize in (1, 2):
            for J in combinations_with_replacement(range(2), jsize):
                pj = subs[J[0]]
                for j in J[1:]:
                    pj = pj.product(subs[j])
                lhs = subs[I[0]].intersect(subs[I[1]]).product(pj)
                rhs = subs[I[0]].product(pj).intersect(subs[I[1]].product(pj))
                if lhs != rhs:
                    return False
    return True


def test_pairs_satisfy_equation_directly():
    # the m=2 short circuit is backed by the equation itself
    for name in ("S4", "D4", "Q8", "C12"):
        g = catalog_group(name)
        normals = g.normal_subgroups()
        for a, b in combinations_with_replacement(normals, 2):
            assert _pair_equation_holds(a, b, g)
            assert is_connected_tuple(NormalTuple(g, (a, b))) == (True, None)


def test_connectivity_matches_the_check_over_all_pairs():
    # is_connected_tuple skips every (I, J) that share an index; the check
    # over all pairs gives the same verdict and the same first witness
    violations = 0
    for name in groups_of_order_at_most(12):
        g = catalog_group(name)
        for triple in product(g.normal_subgroups(), repeat=3):
            t = NormalTuple(g, triple)
            got = is_connected_tuple(t)
            assert got == is_connected_tuple_all_pairs(t), (name, triple)
            violations += not got[0]
    g = catalog_group("C2xC2xC2")
    for quad in combinations_with_replacement(g.normal_subgroups(), 4):
        t = NormalTuple(g, quad)
        got = is_connected_tuple(t)
        assert got == is_connected_tuple_all_pairs(t), quad
        violations += not got[0]
    assert violations == 726 + 1155


def test_normal_tuple_validation():
    s3 = catalog_group("S3")
    with pytest.raises(ValueError):
        NormalTuple(s3, ())
    h = s3.subgroup([s3.gens()[1]])  # non-normal
    with pytest.raises(ValueError) as info:
        NormalTuple(s3, (s3.full_subgroup(), h))
    assert "2" in str(info.value)
    d4 = catalog_group("D4")
    with pytest.raises(ValueError):
        NormalTuple(s3, (d4.full_subgroup(),))


def _v4_bad_triple():
    v4 = catalog_group("V4")
    a = v4.gens()[0]
    b = v4.gens()[1]
    subs = (
        v4.subgroup([a]),
        v4.subgroup([b]),
        v4.subgroup([v4.mul(a, b)]),
    )
    return v4, subs


def test_disconnected_triple_with_validated_witness():
    v4, subs = _v4_bad_triple()
    t = NormalTuple(v4, subs)
    ok, witness = is_connected_tuple(t)
    assert not ok
    I, J = witness
    # recompute both sides of the equation from raw element sets
    inter = subs[I[0] - 1]
    for i in I[1:]:
        inter = inter.intersect(subs[i - 1])
    pj = subs[J[0] - 1]
    for j in J[1:]:
        pj = pj.product(subs[j - 1])
    lhs = inter.product(pj)
    rhs = subs[I[0] - 1].product(pj)
    for i in I[1:]:
        rhs = rhs.intersect(subs[i - 1].product(pj))
    assert lhs != rhs


def test_connected_triple():
    s4 = catalog_group("S4")
    t = NormalTuple(
        s4,
        (catalog_subgroup("S4", "V4"), catalog_subgroup("S4", "A4"), s4.full_subgroup()),
    )
    assert is_connected_tuple(t) == (True, None)
    transcript = check_hypothesis(t)
    assert [e["omitted"] for e in transcript] == [1, 2, 3]
    assert all(e["connected"] for e in transcript)


def test_symmetric_commutator_pair_is_commutator():
    s4 = catalog_group("S4")
    a4 = catalog_subgroup("S4", "A4")
    v4 = catalog_subgroup("S4", "V4")
    t = NormalTuple(s4, (a4, v4))
    assert symmetric_commutator(t) == a4.commutator(v4)


def test_symmetric_commutator_triple_expansion():
    s4 = catalog_group("S4")
    L = catalog_subgroup("S4", "A4")
    M = catalog_subgroup("S4", "V4")
    N = s4.full_subgroup()
    t = NormalTuple(s4, (L, M, N))
    got = symmetric_commutator(t)
    direct = (
        L.commutator(M.intersect(N))
        .product(L.intersect(M).commutator(N))
        .product(L.intersect(N).commutator(M))
    )
    assert got == direct


def test_symmetric_commutator_needs_two():
    s3 = catalog_group("S3")
    with pytest.raises(ValueError):
        symmetric_commutator(NormalTuple(s3, (s3.full_subgroup(),)))


def test_pi2_matches_direct_pair_formula():
    rng = random.Random(41)
    for name in ("S3", "D4", "Q8", "A4"):
        g = catalog_group(name)
        normals = g.normal_subgroups()
        for _ in range(4):
            m = rng.choice(normals)
            n = rng.choice(normals)
            report = pi_n_colimit(NormalTuple(g, (m, n)))
            from picolim.finite import abelian_invariants_of_quotient

            direct = abelian_invariants_of_quotient(m.intersect(n), m.commutator(n))
            assert report.invariants == direct


def test_pi2_known_value():
    s3 = catalog_group("S3")
    a3 = catalog_subgroup("S3", "A3")
    report = pi_n_colimit(NormalTuple(s3, (a3, a3)))
    assert report.invariants == AbelianInvariants(0, (3,))


def test_pi3_abelian_full_triple():
    for name, torsion in (("C6", (6,)), ("C2xC2", (2, 2))):
        g = catalog_group(name)
        full = g.full_subgroup()
        report = pi_n_colimit(NormalTuple(g, (full, full, full)))
        assert report.invariants == AbelianInvariants(0, torsion)
        assert len(report.hypothesis_checks) == 3


def test_pi_n_single_subgroup():
    s3 = catalog_group("S3")
    a3 = catalog_subgroup("S3", "A3")
    report = pi_n_colimit(NormalTuple(s3, (a3,)))
    assert report.invariants == AbelianInvariants(0, (3,))


def test_pi_n_refuses_disconnected():
    v4, subs = _v4_bad_triple()
    t = NormalTuple(v4, subs + (v4.trivial_subgroup(),))
    with pytest.raises(ConnectivityError) as info:
        pi_n_colimit(t)
    err = info.value
    assert err.omitted == 4
    assert err.witness is not None
    assert err.transcript[-1]["connected"] is False
    assert all(e["connected"] for e in err.transcript[:-1])


def test_pi_1_colimit():
    s4 = catalog_group("S4")
    t = NormalTuple(
        s4,
        (catalog_subgroup("S4", "V4"), catalog_subgroup("S4", "A4"), s4.full_subgroup()),
    )
    report, quotient = pi_1_colimit(t)
    assert quotient.n == 1
    assert report.notes == []
    s3 = catalog_group("S3")
    t2 = NormalTuple(s3, (catalog_subgroup("S3", "A3"), s3.trivial_subgroup()))
    report2, quotient2 = pi_1_colimit(t2)
    assert quotient2.n == 2
    assert report2.notes  # pairs go beyond the stated three-subgroup case


def test_pi2_n3_permutation_invariance():
    s4 = catalog_group("S4")
    trip = (
        catalog_subgroup("S4", "V4"),
        catalog_subgroup("S4", "A4"),
        s4.full_subgroup(),
    )
    values = {
        str(pi_2_colimit_n3(*perm).invariants) for perm in permutations(trip)
    }
    assert len(values) == 1


def test_pi2_n3_rejects_non_normal():
    s3 = catalog_group("S3")
    h = s3.subgroup([s3.gens()[1]])
    with pytest.raises(ValueError):
        pi_2_colimit_n3(h, s3.full_subgroup(), s3.full_subgroup())


def test_h1_known_values():
    s3 = catalog_group("S3")
    a3 = catalog_subgroup("S3", "A3")
    assert h1_GMN(s3, a3, a3).invariants == AbelianInvariants(0, ())
    c6 = catalog_group("C6")
    full = c6.full_subgroup()
    assert h1_GMN(c6, full, full).invariants == AbelianInvariants(0, (6,))
    v4, subs = _v4_bad_triple()
    assert h1_GMN(v4, subs[0], subs[1]).invariants == AbelianInvariants(0, ())


def test_hopf_h3_trivial_cases():
    x, y = Word.gen(0), Word.gen(1)
    for r, s in ((y, y), (x, y)):
        report = hopf_h3_check(["x", "y"], r, s, 3)
        assert report.invariants == AbelianInvariants(0, ())
        assert any("class 3" in note for note in report.notes)
        assert report.inputs["r"] in ("x", "y")


# -- the same formulas on the pc engine ---------------------------------------


@pytest.mark.parametrize("n, c, rows", [(2, 3, (3, 2)), (2, 4, (6, 5))])
def test_pi_n_on_wu_closures_matches_wu_group(n, c, rows):
    cfg = WuConfiguration(n, c)
    report = pi_n_colimit(NormalTuple(cfg.group(), cfg.closures()))
    assert report.invariants == wu_group(cfg) == AbelianInvariants(1, ())
    assert (report.numerator["igs_rows"], report.denominator["igs_rows"]) == rows


def _ncl(F, word):
    return normal_closure_pc(F, [F.collect(word)])


def test_h1_on_pc_engine():
    F = free_nilpotent(2, 3)
    x, y = Word.gen(0), Word.gen(1)
    assert h1_GMN(F, _ncl(F, x), _ncl(F, y)).invariants == AbelianInvariants(0, ())


def test_pi_n_single_pc_subgroup():
    # gamma_2 of the free nilpotent group of rank 2, class 3 is Z^3
    F = free_nilpotent(2, 3)
    derived = _ncl(F, commutator(Word.gen(0), Word.gen(1)))
    report = pi_n_colimit(NormalTuple(F, (derived,)))
    assert report.invariants == AbelianInvariants(3, ())
    assert report.denominator == {"igs_rows": 0, "pivots": []}


def test_pi_1_needs_finite_engine():
    F = free_nilpotent(2, 2)
    t = NormalTuple(F, (_ncl(F, Word.gen(0)), _ncl(F, Word.gen(1))))
    with pytest.raises(TypeError, match="finite engine"):
        pi_1_colimit(t)


def test_report_json_dict():
    s3 = catalog_group("S3")
    a3 = catalog_subgroup("S3", "A3")
    report = pi_n_colimit(NormalTuple(s3, (a3, a3)))
    d = report.to_json_dict()
    assert d["formula"] == "pi_n_colimit"
    assert d["invariants"] == {"free_rank": 0, "torsion": [3]}
    assert d["numerator"] == {"order": 3}


def test_search_disconnected_triple():
    assert search_disconnected_triple(max_order=3) == []
    findings = search_disconnected_triple(max_order=4)
    assert len(findings) == 1
    name, orders, witness = findings[0]
    assert name == "C2xC2"
    assert orders == (2, 2, 2)
    assert witness is not None
