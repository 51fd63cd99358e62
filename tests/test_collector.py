"""The in-place collector of PcGroup against the recursive reference
collector (oracles.RecursiveCollector) and the series embedding."""

import random

import pytest

from oracles import RecursiveCollector, TruncatedAlgebra, element_to_series
from picolim.nilpotent import free_nilpotent
from picolim.words import Word

CASES = [(2, 6), (3, 4), (3, 5), (4, 3)]
EXPONENTS = (-4, -3, -2, -1, 1, 2, 3, 4)


@pytest.fixture(scope="module", params=CASES, ids=lambda rc: f"{rc[0]}-{rc[1]}")
def pair(request):
    G = free_nilpotent(*request.param)
    return G, RecursiveCollector(G)


def _random_element(G, ref, rng):
    """Product of a few random basis powers of any weight, by the reference."""
    u = G.identity()
    for _ in range(rng.randint(1, 6)):
        u = ref.mul(u, ((rng.randrange(G.basis.size), rng.choice(EXPONENTS)),))
    return u


def _elements(G, ref, seed, count=12):
    rng = random.Random(seed)
    return [_random_element(G, ref, rng) for _ in range(count)]


def test_mul_matches_reference_and_series(pair):
    G, ref = pair
    els = _elements(G, ref, 1)
    alg = TruncatedAlgebra(G.rank, G.cls)
    for u, v in zip(els, els[1:] + els[:1]):
        uv = G.mul(u, v)
        assert uv == ref.mul(u, v)
        assert element_to_series(G, uv) == alg.mul(element_to_series(G, u), element_to_series(G, v))


def test_inv_pow_comm_match_reference(pair):
    G, ref = pair
    els = _elements(G, ref, 2)
    alg = TruncatedAlgebra(G.rank, G.cls)
    for u, v in zip(els, els[1:] + els[:1]):
        assert G.inv(u) == ref.inv(u)
        assert G.mul(u, G.inv(u)) == G.identity()
        for k in (-3, -2, 2, 3):
            assert G.pow(u, k) == ref.pow(u, k)
        assert G.comm(u, v) == ref.comm(u, v)
        assert element_to_series(G, G.comm(u, v)) == alg.mul(
            alg.mul(element_to_series(G, u), element_to_series(G, v)),
            alg.inv(alg.mul(element_to_series(G, v), element_to_series(G, u))),
        )


def test_collect_matches_reference(pair):
    G, ref = pair
    rng = random.Random(3)
    for _ in range(10):
        word = [(rng.randrange(G.rank), rng.choice(EXPONENTS)) for _ in range(rng.randint(1, 8))]
        expected = G.identity()
        for syllable in word:
            expected = ref.mul(expected, (syllable,))
        w = Word(())
        for i, f in word:
            w = w * Word.gen(G.gen_names[i], f)
        assert G.collect(w) == expected


def _with_exponent(u, idx, f):
    dense = dict(u)
    dense[idx] = dense.get(idx, 0) + f
    return tuple((i, x) for i, x in sorted(dense.items()) if x)


def test_push_of_top_weight_moves_nothing(pair):
    # a generator of weight c is central: pushing it only adds its exponent
    G, ref = pair
    top = [i for i in range(G.basis.size) if G.basis.weights[i] == G.cls]
    rng = random.Random(4)
    for u in _elements(G, ref, 4):
        idx, f = rng.choice(top), rng.choice(EXPONENTS)
        assert G.mul(u, ((idx, f),)) == _with_exponent(u, idx, f) == ref.mul(u, ((idx, f),))


def test_tail_of_commuting_entries_stays(pair):
    # entries past j of weight > c - weight(j) commute with a_j, so pushing
    # a_j^f past a tail made only of them leaves the tail as it was
    G, ref = pair
    rng = random.Random(5)
    for j in range(G.basis.size):
        w = G.basis.weights[j]
        heavy = [k for k in range(j + 1, G.basis.size) if G.basis.weights[k] > G.cls - w]
        if not heavy:
            continue
        head = tuple((i, rng.choice(EXPONENTS)) for i in range(min(j + 1, 2)))
        tail = tuple((k, rng.choice(EXPONENTS)) for k in sorted(rng.sample(heavy, min(3, len(heavy)))))
        u = head + tail
        f = rng.choice(EXPONENTS)
        assert G.mul(u, ((j, f),)) == _with_exponent(u, j, f) == ref.mul(u, ((j, f),))


def test_collector_lifts_only_noncommuting_entries():
    # every conjugate the collector asks for is a nontrivial one, so no
    # central entry is lifted out of place
    for rank, cls in CASES:
        G = free_nilpotent(rank, cls)
        asked = []
        table = G.conj_pow

        def conj_pow(k, j, f):
            asked.append((k, j))
            return table(k, j, f)

        G.conj_pow = conj_pow
        ref = RecursiveCollector(free_nilpotent(rank, cls))
        els = _elements(G, ref, 6)
        for u, v in zip(els, els[1:] + els[:1]):
            G.comm(u, v)
        assert asked
        assert all(G.basis.weights[k] + G.basis.weights[j] <= cls for k, j in asked)
