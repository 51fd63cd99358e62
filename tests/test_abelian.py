import random

import pytest

from oracles import in_lattice
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
    assert smith_normal_form([[2, 0], [0, 3]], 2) == [1, 6]
    assert smith_normal_form([[2, 4, 4]], 3) == [2]
    assert smith_normal_form([[0, 0], [0, 0]], 2) == []


def test_snf_divisibility_chain_random():
    rng = random.Random(5)
    for _ in range(60):
        nrows = rng.randint(1, 4)
        ncols = rng.randint(1, 4)
        rows = [[rng.randint(-9, 9) for _ in range(ncols)] for _ in range(nrows)]
        d = smith_normal_form(rows, ncols)
        for a, b in zip(d, d[1:]):
            assert b % a == 0
        assert all(x > 0 for x in d)


def _row_space_equal(rows_a, rows_b, ncols):
    ha = hermite_reduce(rows_a, ncols)
    hb = hermite_reduce(rows_b, ncols)
    return all(in_lattice(r, hb) for r in rows_a) and all(
        in_lattice(r, ha) for r in rows_b
    )


def test_hermite_preserves_lattice():
    rng = random.Random(9)
    for _ in range(40):
        ncols = rng.randint(1, 4)
        rows = [[rng.randint(-6, 6) for _ in range(ncols)] for _ in range(rng.randint(1, 4))]
        h = hermite_reduce(rows, ncols)
        assert _row_space_equal(rows, h, ncols)


def test_in_lattice():
    basis = hermite_reduce([[2, 0], [0, 3]], 2)
    assert in_lattice([4, 3], basis)
    assert not in_lattice([1, 0], basis)
    assert in_lattice([0, 0], basis)


def test_from_relation_matrix():
    # Z^2 / <(2,0),(0,2)> = Z/2 x Z/2
    inv = AbelianInvariants.from_relation_matrix([[2, 0], [0, 2]], 2)
    assert inv == AbelianInvariants(0, (2, 2))
    # Z^2 / <(1,-1)> = Z
    inv = AbelianInvariants.from_relation_matrix([[1, -1]], 2)
    assert inv == AbelianInvariants(1, ())
    # no relations
    inv = AbelianInvariants.from_relation_matrix([], 3)
    assert inv == AbelianInvariants(3, ())


def test_order_in_quotient():
    rows = [[2, 0], [0, 3]]
    assert order_in_quotient([1, 0], rows, 2) == 2
    assert order_in_quotient([0, 1], rows, 2) == 3
    assert order_in_quotient([1, 1], rows, 2) == 6
    assert order_in_quotient([0, 0], rows, 2) == 1
    # free direction: infinite
    assert order_in_quotient([1], [], 1) is None
    assert order_in_quotient([0, 1], [[2, 0]], 2) is None
    assert order_in_quotient([0, 0, 0], [], 3) == 1
    # more rows than columns: Z^2 / <(4,0),(0,6),(2,3)> = Z/12
    rows = [[4, 0], [0, 6], [2, 3]]
    assert order_in_quotient([1, 0], rows, 2) == 4
    assert order_in_quotient([2, 0], rows, 2) == 2
    assert order_in_quotient([0, 1], rows, 2) == 6


def test_order_in_quotient_matches_bruteforce():
    rng = random.Random(3)
    for _ in range(200):
        ncols = rng.randint(1, 3)
        nrows = rng.randint(0, 4)
        rows = [[rng.randint(-4, 4) for _ in range(ncols)] for _ in range(nrows)]
        vec = [rng.randint(-4, 4) for _ in range(ncols)]
        got = order_in_quotient(vec, rows, ncols)
        basis = hermite_reduce(rows, ncols)
        if got is None:
            # infinite order: no positive multiple of vec lies in L
            for k in range(1, 100):
                assert not in_lattice([k * x for x in vec], basis)
        else:
            assert in_lattice([got * x for x in vec], basis)
            for k in range(1, got):
                assert not in_lattice([k * x for x in vec], basis)

