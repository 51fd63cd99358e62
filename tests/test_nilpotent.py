import random

import pytest

from oracles import (
    TruncatedAlgebra,
    commutation_table,
    consistency_report,
    exponents,
    graded_to_monomials,
    project_element,
    project_subgroup,
    sparse,
    subgroup_to_csv,
)
from picolim.abelian import AbelianInvariants
from picolim.magnus import GradedAlgebra
from picolim.nilpotent import (
    central_quotient_invariants,
    commutator_subgroup_pc,
    free_nilpotent,
    intersect_pc,
    normal_closure_pc,
    subgroup,
)
from picolim.words import Word, commutator


@pytest.fixture(scope="module")
def g22():
    return free_nilpotent(2, 2)


@pytest.fixture(scope="module")
def g23():
    return free_nilpotent(2, 3)


def _random_word(rng, letters, length):
    w = Word(())
    for _ in range(length):
        w = w * Word.gen(rng.choice(letters), rng.randint(-2, 2) or 1)
    return w


# -- truncated power series ------------------------------------------------


def test_algebra_units():
    alg = GradedAlgebra(2, 3)
    x, y = alg.gen(0), alg.gen(1)
    assert alg.mul(alg.one(), x) == x
    assert alg.mul(x, alg.inv(x)) == alg.one()
    assert alg.mul(alg.inv(y), y) == alg.one()


def _random_series(alg, rng, count):
    els = [alg.one(), alg.gen(0), alg.gen(1)]
    for _ in range(count):
        a, b = rng.choice(els), rng.choice(els)
        els.append(alg.mul(a, alg.inv(b)))
    return els


def test_algebra_associative_random():
    alg = GradedAlgebra(2, 4)
    rng = random.Random(2)
    els = _random_series(alg, rng, 8)
    for _ in range(40):
        a, b, c = rng.choice(els), rng.choice(els), rng.choice(els)
        assert alg.mul(alg.mul(a, b), c) == alg.mul(a, alg.mul(b, c))


def test_algebra_pow():
    alg = GradedAlgebra(2, 3)
    x = alg.gen(0)
    assert alg.pow(x, 3) == alg.mul(alg.mul(x, x), x)
    assert alg.pow(x, -2) == alg.inv(alg.mul(x, x))
    assert alg.pow(x, 0) == alg.one()


@pytest.mark.parametrize("rank,cls", [(2, 4), (3, 3)])
def test_graded_algebra_matches_monomial_algebra(rank, cls):
    # the graded product, inverse and power against the tuple-keyed oracle
    alg, ref = GradedAlgebra(rank, cls), TruncatedAlgebra(rank, cls)
    rng = random.Random(5)
    els = _random_series(alg, rng, 10)
    for _ in range(30):
        a, b = rng.choice(els), rng.choice(els)
        ma, mb = graded_to_monomials(alg, a), graded_to_monomials(alg, b)
        assert graded_to_monomials(alg, alg.mul(a, b)) == ref.mul(ma, mb)
        assert graded_to_monomials(alg, alg.inv(a)) == ref.inv(ma)
        assert graded_to_monomials(alg, alg.pow(a, -3)) == ref.pow(ma, -3)


# -- collection ------------------------------------------------------------


def _mat_mul(a, b):
    return [[sum(a[i][k] * b[k][j] for k in range(3)) for j in range(3)] for i in range(3)]


def _mat_inv_unitri(a):
    # inverse of an upper unitriangular 3x3 integer matrix
    p, q, r = a[0][1], a[1][2], a[0][2]
    return [[1, -p, p * q - r], [0, 1, -q], [0, 0, 1]]


_MX = [[1, 1, 0], [0, 1, 0], [0, 0, 1]]
_MY = [[1, 0, 0], [0, 1, 1], [0, 0, 1]]


def _heisenberg_image(word):
    out = [[1, 0, 0], [0, 1, 0], [0, 0, 1]]
    mats = [_MX, _MY]
    for i, exp in word.syllables:
        m = mats[i] if exp > 0 else _mat_inv_unitri(mats[i])
        for _ in range(abs(exp)):
            out = _mat_mul(out, m)
    return out


def test_collect_matches_heisenberg_matrices(g22):
    # the free class-2 group of rank 2 is the integer Heisenberg group
    rng = random.Random(7)
    zmat = _mat_mul(
        _mat_mul(_MX, _MY), _mat_mul(_mat_inv_unitri(_MX), _mat_inv_unitri(_MY))
    )
    basis_mats = [_MX, _MY, zmat]
    for _ in range(60):
        w = _random_word(rng, [0, 1], rng.randint(0, 6))
        u = g22.collect(w)
        direct = _heisenberg_image(w)
        via_nf = [[1, 0, 0], [0, 1, 0], [0, 0, 1]]
        for idx, e in u:
            m = basis_mats[idx] if e > 0 else _mat_inv_unitri(basis_mats[idx])
            for _ in range(abs(e)):
                via_nf = _mat_mul(via_nf, m)
        assert direct == via_nf


def test_collect_basics(g22):
    assert g22.collect(Word(())) == ()
    x, y = Word.gen(0), Word.gen(1)
    assert g22.collect(commutator(x, y)) == ((2, 1),)
    # x y x^-1 = y [x,y]
    assert exponents(g22, g22.collect(x * y * x.inverse())) == [0, 1, 1]


def test_collect_unknown_name(g22):
    # letter 2 names no generator of a group of rank 2
    with pytest.raises(ValueError, match="letter 2 is outside the 2 generators"):
        g22.collect(Word.gen(2))


def test_group_laws_random(g23):
    rng = random.Random(13)
    els = [g23.collect(_random_word(rng, [0, 1], rng.randint(1, 5))) for _ in range(12)]
    for _ in range(60):
        u, v, w = rng.choice(els), rng.choice(els), rng.choice(els)
        assert g23.mul(g23.mul(u, v), w) == g23.mul(u, g23.mul(v, w))
        assert g23.mul(u, g23.inv(u)) == ()
        assert g23.pow(u, 3) == g23.mul(g23.mul(u, u), u)
        assert g23.pow(u, -2) == g23.inv(g23.mul(u, u))
        assert g23.comm(u, v) == g23.mul(
            g23.mul(u, v), g23.mul(g23.inv(u), g23.inv(v))
        )


def test_consistency_report_clean():
    for rank, cls in ((2, 2), (2, 3), (3, 2)):
        assert consistency_report(free_nilpotent(rank, cls)) == []


def test_commutation_table_weights(g23):
    # collected [a_j, a_i] only involves deeper basis elements
    for j in range(1, g23.basis.size):
        for i in range(j):
            u = commutation_table(g23, j, i)
            for idx, _ in u:
                assert g23.basis.weights[idx] >= g23.basis.weights[i] + g23.basis.weights[j]


def test_element_text(g22):
    assert g22.element_text((), ["x1", "x2"]) == "1"
    u = g22.collect(Word.gen(0) * Word.gen(1) * Word.gen(0, -1))
    assert g22.element_text(u, ["x1", "x2"]) == "x2*[x1,x2]"
    assert g22.element_text(g22.gen(0), ["y0", "y1"]) == "y0"


# -- subgroups -------------------------------------------------------------


def test_cyclic_subgroup(g22):
    x = g22.gen(0)
    h = subgroup(g22, [x])
    assert h.pivots == [0]
    assert h.contains(g22.pow(x, 5))
    assert not h.contains(g22.gen(1))
    assert not h.contains(g22.basis_element(2))
    assert h.rows


def test_subgroup_closes_under_products(g23):
    # the rows alone miss [x1, x2]; only the probe x2 x1 brings it in
    assert subgroup(g23, g23.gens()) == g23.full_subgroup()
    x1, x2 = g23.gens()
    h = subgroup(g23, [x1, g23.comm(x1, x2)])
    assert h.pivots == [0, 2, 3]  # [x1, [x1, x2]] is in, [[x1, x2], x2] is not
    assert not h.is_normal()


def test_trivial_and_full(g22):
    t = g22.trivial_subgroup()
    assert not t.rows
    assert t.contains(())
    assert not t.contains(g22.gen(0))
    f = g22.full_subgroup()
    assert f.pivots == [0, 1, 2]
    assert f.contains(g22.collect(Word.gen(0, 3) * Word.gen(1, -2)))


def test_normal_closure(g22):
    h = normal_closure_pc(g22, [g22.gen(0)])
    assert h.pivots == [0, 2]
    assert h.is_normal()
    assert h.contains(g22.basis_element(2))
    plain = subgroup(g22, [g22.gen(0)])
    assert not plain.is_normal()


def test_coords_roundtrip(g22):
    h = normal_closure_pc(g22, [g22.gen(0)])
    u = g22.mul(g22.pow(g22.gen(0), 3), g22.pow(g22.basis_element(2), -4))
    coords = h.coords_of(u)
    assert coords == sparse([[3, -4]])[0]
    rebuilt = ()
    for i, c in coords:
        rebuilt = g22.mul(rebuilt, g22.pow(h.igs[i], c))
    assert rebuilt == u
    assert h.coords_of(g22.basis_element(2)) == sparse([[0, 1]])[0]
    with pytest.raises(ValueError):
        h.coords_of(g22.gen(1))


def test_lower_central_series_dual_route(g23):
    # commutator route vs weight-filtration route
    full = g23.full_subgroup()
    gamma2 = commutator_subgroup_pc(full, full)
    gamma3 = commutator_subgroup_pc(gamma2, full)
    by_weight2 = subgroup(
        g23, [g23.basis_element(i) for i in range(g23.basis.size) if g23.basis.weights[i] >= 2]
    )
    by_weight3 = subgroup(
        g23, [g23.basis_element(i) for i in range(g23.basis.size) if g23.basis.weights[i] >= 3]
    )
    assert gamma2 == by_weight2
    assert gamma3 == by_weight3
    assert not commutator_subgroup_pc(gamma3, full).rows


def test_product_contains_factors(g23):
    h = normal_closure_pc(g23, [g23.gen(0)])
    k = normal_closure_pc(g23, [g23.gen(1)])
    p = h.product(k)
    assert p.contains_subgroup(h)
    assert p.contains_subgroup(k)
    assert p == k.product(h)
    assert p == g23.full_subgroup()


def test_intersection_known(g22):
    h = normal_closure_pc(g22, [g22.gen(0)])
    k = normal_closure_pc(g22, [g22.gen(1)])
    i = intersect_pc(h, k)
    assert i == subgroup(g22, [g22.basis_element(2)])


def test_intersection_membership_random(g23):
    rng = random.Random(19)
    for _ in range(6):
        seeds_h = [
            g23.collect(_random_word(rng, [0, 1], rng.randint(1, 3)))
            for _ in range(rng.randint(1, 2))
        ]
        seeds_k = [
            g23.collect(_random_word(rng, [0, 1], rng.randint(1, 3)))
            for _ in range(rng.randint(1, 2))
        ]
        h = normal_closure_pc(g23, seeds_h)
        k = normal_closure_pc(g23, seeds_k)
        i = intersect_pc(h, k)
        assert h.contains_subgroup(i)
        assert k.contains_subgroup(i)
        # elements of H lie in the intersection exactly when K holds them
        for _ in range(10):
            w = ()
            for row in h.igs:
                w = g23.mul(w, g23.pow(row, rng.randint(-2, 2)))
            assert i.contains(w) == k.contains(w)


def test_intersect_idempotent(g23):
    h = normal_closure_pc(g23, [g23.gen(0)])
    assert intersect_pc(h, h) == h
    assert not intersect_pc(h, g23.trivial_subgroup()).rows
    assert intersect_pc(h, g23.full_subgroup()) == h


def test_intersection_refuses_a_non_normal_operand(g22):
    # <x1> is not normal: conjugating x1 by x2 brings in [x1, x2]
    h = subgroup(g22, [g22.gen(0)])
    full = g22.full_subgroup()
    with pytest.raises(ValueError, match="the first one is not"):
        intersect_pc(h, full)
    with pytest.raises(ValueError, match="the second one is not"):
        intersect_pc(full, h)


# -- quotients -------------------------------------------------------------


def test_central_quotient_invariants(g23):
    full = g23.full_subgroup()
    gamma2 = commutator_subgroup_pc(full, full)
    gamma3 = commutator_subgroup_pc(gamma2, full)
    assert central_quotient_invariants(full, gamma2) == AbelianInvariants(2, ())
    assert central_quotient_invariants(gamma2, gamma3) == AbelianInvariants(1, ())
    assert central_quotient_invariants(gamma2, gamma2) == AbelianInvariants(0, ())


def test_central_quotient_torsion(g22):
    # <x, z> / <x^2, z> has a Z/2 direction
    x = g22.gen(0)
    z = g22.basis_element(2)
    a = subgroup(g22, [x, z])
    b = subgroup(g22, [g22.pow(x, 2), z])
    assert central_quotient_invariants(a, b) == AbelianInvariants(0, (2,))


def test_central_quotient_rejections(g22):
    full = g22.full_subgroup()
    with pytest.raises(ValueError):
        central_quotient_invariants(full, g22.trivial_subgroup())  # nonabelian
    a = subgroup(g22, [g22.gen(0)])
    b = subgroup(g22, [g22.gen(1)])
    with pytest.raises(ValueError):
        central_quotient_invariants(a, b)  # not contained


# -- projections -----------------------------------------------------------


def test_projection_compatible_with_collection(g22, g23):
    rng = random.Random(29)
    for _ in range(30):
        w = _random_word(rng, [0, 1], rng.randint(0, 5))
        assert project_element(g22, g23.collect(w)) == g22.collect(w)


def test_projection_of_subgroup(g22, g23):
    h3 = normal_closure_pc(g23, [g23.gen(0)])
    h2 = project_subgroup(g22, h3)
    assert h2 == normal_closure_pc(g22, [g22.gen(0)])


def test_to_csv(tmp_path, g22):
    h = normal_closure_pc(g22, [g22.gen(0)])
    path = tmp_path / "igs.csv"
    subgroup_to_csv(h, path)
    lines = path.read_text().splitlines()
    assert lines[0] == "pivot,e0,e1,e2"
    assert len(lines) == 3


def test_subgroups_of_different_parents_rejected(g22, g23):
    h = subgroup(g22, [g22.gen(0)])
    k = subgroup(g23, [g23.gen(0)])
    with pytest.raises(ValueError):
        h.product(k)
