import random

import pytest

from oracles import dense, in_lattice, sparse
from picolim import abelian
from picolim.abelian import (
    AbelianInvariants,
    hermite_reduce,
    order_in_quotient,
    smith_normal_form,
)


def test_invariants_normalization():
    inv = AbelianInvariants(2, (2, 6))
    assert inv.free_rank == 2
    assert inv.torsion == (2, 6)
    with pytest.raises(ValueError):
        AbelianInvariants(0, (1,))


def test_invariants_str():
    assert str(AbelianInvariants(0, ())) == "0"
    assert str(AbelianInvariants(1, ())) == "Z"
    assert str(AbelianInvariants(2, (4,))) == "Z^2 x Z/4"


def test_snf_known():
    assert smith_normal_form(sparse([[2, 0], [0, 3]]), 2) == [1, 6]
    assert smith_normal_form(sparse([[2, 4, 4]]), 3) == [2]
    assert smith_normal_form(sparse([[0, 0], [0, 0]]), 2) == []


def test_snf_diagonal_that_is_not_a_chain():
    # Z/4 + Z/6 = Z/2 + Z/12: the one-entry rows go through gcd and lcm
    assert smith_normal_form([((0, 4),), ((1, 6),)], 2) == [2, 12]
    assert smith_normal_form([((0, 6),), ((1, 4),), ((2, 9),)], 3) == [1, 6, 36]


def test_snf_needs_more_than_one_transpose_round(monkeypatch):
    # The Hermite form [[2, 1], [0, 3]] has a first pivot 2 that does not
    # divide its row: the transpose's form leads with gcd(2, 1) = 1 and
    # still has two entries in its first row, so a third Hermite form is
    # needed before every row has one entry.
    rounds = []
    original = abelian.hermite_reduce

    def counting(rows):
        out = original(rows)
        rounds.append(out)
        return out

    monkeypatch.setattr(abelian, "hermite_reduce", counting)
    assert smith_normal_form(sparse([[2, 1], [0, 3]]), 2) == [1, 6]
    assert rounds[0] == [((0, 2), (1, 1)), ((1, 3),)]
    assert any(len(row) > 1 for row in rounds[1])
    assert len(rounds) == 3


def test_snf_refuses_a_column_out_of_range():
    for rows in ([((0, 1), (2, 1))], [((-1, 1),)], [(), ((3, 5),)]):
        with pytest.raises(ValueError, match="outside 0..1"):
            smith_normal_form(rows, 2)
    with pytest.raises(ValueError):
        AbelianInvariants.from_relation_matrix([((0, 2),)], 0)


def test_snf_divisibility_chain_random():
    rng = random.Random(5)
    for _ in range(60):
        nrows = rng.randint(1, 4)
        ncols = rng.randint(1, 4)
        rows = [[rng.randint(-9, 9) for _ in range(ncols)] for _ in range(nrows)]
        d = smith_normal_form(sparse(rows), ncols)
        for a, b in zip(d, d[1:]):
            assert b % a == 0
        assert all(x > 0 for x in d)


def _row_space_equal(rows_a, rows_b, ncols):
    ha = dense(hermite_reduce(sparse(rows_a)), ncols)
    hb = dense(hermite_reduce(sparse(rows_b)), ncols)
    return all(in_lattice(r, hb) for r in rows_a) and all(
        in_lattice(r, ha) for r in rows_b
    )


def test_hermite_preserves_lattice():
    rng = random.Random(9)
    for _ in range(40):
        ncols = rng.randint(1, 4)
        rows = [[rng.randint(-6, 6) for _ in range(ncols)] for _ in range(rng.randint(1, 4))]
        h = dense(hermite_reduce(sparse(rows)), ncols)
        assert _row_space_equal(rows, h, ncols)


def test_in_lattice():
    basis = dense(hermite_reduce(sparse([[2, 0], [0, 3]])), 2)
    assert in_lattice([4, 3], basis)
    assert not in_lattice([1, 0], basis)
    assert in_lattice([0, 0], basis)


def test_from_relation_matrix():
    # Z^2 / <(2,0),(0,2)> = Z/2 x Z/2
    inv = AbelianInvariants.from_relation_matrix(sparse([[2, 0], [0, 2]]), 2)
    assert inv == AbelianInvariants(0, (2, 2))
    # Z^2 / <(1,-1)> = Z
    inv = AbelianInvariants.from_relation_matrix(sparse([[1, -1]]), 2)
    assert inv == AbelianInvariants(1, ())
    # no relations
    inv = AbelianInvariants.from_relation_matrix([], 3)
    assert inv == AbelianInvariants(3, ())


def _order(vec, rows):
    (vec,) = sparse([vec])
    return order_in_quotient(vec, sparse(rows))


def test_order_in_quotient():
    rows = [[2, 0], [0, 3]]
    assert _order([1, 0], rows) == 2
    assert _order([0, 1], rows) == 3
    assert _order([1, 1], rows) == 6
    assert _order([0, 0], rows) == 1
    # free direction: infinite
    assert _order([1], []) is None
    assert _order([0, 1], [[2, 0]]) is None
    assert _order([0, 0, 0], []) == 1
    # more rows than columns: Z^2 / <(4,0),(0,6),(2,3)> = Z/12
    rows = [[4, 0], [0, 6], [2, 3]]
    assert _order([1, 0], rows) == 4
    assert _order([2, 0], rows) == 2
    assert _order([0, 1], rows) == 6


def test_order_in_quotient_matches_bruteforce():
    rng = random.Random(3)
    for _ in range(200):
        ncols = rng.randint(1, 3)
        nrows = rng.randint(0, 4)
        rows = [[rng.randint(-4, 4) for _ in range(ncols)] for _ in range(nrows)]
        vec = [rng.randint(-4, 4) for _ in range(ncols)]
        got = _order(vec, rows)
        basis = dense(hermite_reduce(sparse(rows)), ncols)
        if got is None:
            # infinite order: no positive multiple of vec lies in L
            for k in range(1, 100):
                assert not in_lattice([k * x for x in vec], basis)
        else:
            assert in_lattice([got * x for x in vec], basis)
            for k in range(1, got):
                assert not in_lattice([k * x for x in vec], basis)
