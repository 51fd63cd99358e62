"""The pc engine: generator names, and intersect_pc against the reference
that keeps its own pair sift, insert and naive closure
(oracles.intersect_pc_paired) and against subgroup indices, and is_normal
against a check that also conjugates by inverse generators."""

import itertools
import math
import random

import pytest

from oracles import intersect_pc_paired, is_normal_two_sided
from picolim.nilpotent import free_nilpotent, intersect_pc, normal_closure_pc, subgroup
from picolim.words import Word
from picolim.wu import WuConfiguration


@pytest.mark.parametrize("names", [("x", "x"), ("x", "y", "x"), ("x", "2y")])
def test_generator_names_rejected(names):
    with pytest.raises(ValueError, match="generator name"):
        free_nilpotent(len(names), 2, names=names)


def _assert_matches_reference(H, K):
    for a, b in ((H, K), (K, H)):
        assert intersect_pc(a, b) == intersect_pc_paired(a, b)


def _random_element(G, rng):
    u = G.identity()
    for _ in range(rng.randint(1, 4)):
        u = G.mul(u, G.pow(G.gen(rng.randrange(G.rank)), rng.choice((-2, -1, 1, 2, 3))))
    return u


@pytest.mark.parametrize("rank,cls", [(2, 3), (3, 3), (2, 5)])
def test_random_normal_closures(rank, cls):
    G = free_nilpotent(rank, cls)
    rng = random.Random(100 * rank + cls)
    for _ in range(4):
        H = normal_closure_pc(G, [_random_element(G, rng) for _ in range(rng.randint(1, 2))])
        K = normal_closure_pc(G, [_random_element(G, rng) for _ in range(rng.randint(1, 2))])
        _assert_matches_reference(H, K)


def _index(S):
    """[G : S] as the product of the leading exponents, or None if infinite."""
    if len(S.pivots) < S.parent.basis.size:
        return None
    return math.prod(r[0][1] for r in S.igs)


@pytest.mark.parametrize("rank,cls", [(2, 2), (2, 3), (3, 2), (2, 4), (3, 3)])
def test_finite_index_intersections(rank, cls):
    # intersect_pc checks that its result lies in both operands, so the
    # index [G : H cap K] = [G : H][G : K] / [G : HK] pins it down.  Some
    # pivots here need a power k > 1 of rK^-a rH^b to fall into the product
    # below them.
    G = free_nilpotent(rank, cls)
    rng = random.Random(10 * rank + cls)

    def closure():
        powers = [G.pow(G.gen(i), rng.randint(1, 12)) for i in range(rank)]
        return normal_closure_pc(G, powers + [_random_element(G, rng)])

    for _ in range(10):
        H, K = closure(), closure()
        _assert_matches_reference(H, K)
        for a, b in ((H, K), (K, H)):
            got = intersect_pc(a, b)
            assert _index(got) * _index(H.product(K)) == _index(H) * _index(K)


@pytest.mark.parametrize("rank,cls", [(2, 4), (3, 3)])
def test_is_normal_matches_two_sided_check(rank, cls):
    G = free_nilpotent(rank, cls)
    rng = random.Random(1000 + 10 * rank + cls)
    verdicts = set()
    for _ in range(12):
        gens = [_random_element(G, rng) for _ in range(rng.randint(1, 3))]
        for S in (subgroup(G, gens), normal_closure_pc(G, gens[:1])):
            normal = S.is_normal()
            verdicts.add(normal)
            assert normal == is_normal_two_sided(S)
    assert verdicts == {True, False}


@pytest.mark.parametrize("n,cls", [(2, 4), (3, 4)])
def test_wu_closures(n, cls):
    for H, K in itertools.combinations(WuConfiguration(n, cls).closures(), 2):
        _assert_matches_reference(H, K)


def test_braid_closures():
    x, y, z = Word.gen("x"), Word.gen("y"), Word.gen("z")
    words = [
        x * y * x * (y * x * y).inverse(),
        y * z * y * (z * y * z).inverse(),
        x * z * (z * x).inverse(),
    ]
    G = free_nilpotent(3, 4, names=("x", "y", "z"))
    closures = [normal_closure_pc(G, [G.collect(w)]) for w in words]
    for H, K in itertools.combinations(closures, 2):
        _assert_matches_reference(H, K)
