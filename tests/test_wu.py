import itertools
import random

import pytest

from oracles import (
    check_equality_13,
    collected_comm,
    conj_pow_by_series,
    denominator_generators_collected,
    denominator_generators_depth_first,
    left_normed_commutator,
    project_subgroup,
    wu_closures_by_closure,
    wu_numerator_by_closure,
)
from picolim.abelian import AbelianInvariants, _order_mod
from picolim.nilpotent import IDENTITY, PcGroup, PcSubgroup, free_nilpotent, normal_closure_pc
from picolim.presentations import parse_word
from picolim.words import Word, hopf_element
from picolim.wu import (
    WuConfiguration,
    _denominator_generators,
    braid_check,
    membership_check,
    wu_group,
    wu_report,
)


def test_validation():
    with pytest.raises(ValueError):
        WuConfiguration(0, 3)
    with pytest.raises(ValueError):
        WuConfiguration(3, 2)


def test_extra_letter_closes_the_product():
    cfg = WuConfiguration(2, 3)
    G = cfg.group()
    prod = G.collect(Word.gen(0) * Word.gen(1))
    assert G.mul(prod, cfg.letters[0]) == ()


def test_signed_letters():
    cfg = WuConfiguration(2, 3)
    letters = cfg.signed_letters()
    assert len(letters) == 6
    bits = {bit for bit, _ in letters}
    assert bits == {1, 2, 4}
    G = cfg.group()
    by_bit = {}
    for bit, elt in letters:
        by_bit.setdefault(bit, []).append(elt)
    for pair in by_bit.values():
        assert G.mul(pair[0], pair[1]) == ()


def test_rank1_gives_free_rank_one():
    cfg = WuConfiguration(1, 2)
    assert wu_group(cfg) == AbelianInvariants(1, ())
    assert not cfg.denominator().rows


def test_degenerate_denominator_at_minimal_class():
    # tuples of length <= 2 cannot cover three letters
    cfg = WuConfiguration(2, 2)
    assert not cfg.denominator().rows
    assert wu_group(cfg) == AbelianInvariants(1, ())
    G = cfg.group()
    assert cfg.numerator().contains(G.collect(hopf_element(1)))


@pytest.mark.parametrize("c", [3, 4])
def test_rank2_free_of_rank_one(c):
    cfg = WuConfiguration(2, c)
    assert wu_group(cfg) == AbelianInvariants(1, ())
    out = membership_check(hopf_element(1), cfg)
    assert out["in_numerator"]
    assert not out["in_denominator"]
    assert out["order_in_quotient"] is None
    assert "infinite order" in out["note"]


@pytest.mark.parametrize("n,c,order", [(3, 4, 2), (2, 6, None)])
def test_order_on_pc_elements_equals_order_on_igs_coordinates(n, c, order):
    # one _order_mod, run once on the pc group against the denominator's
    # rows and once, through order_in_quotient, on the lattice of its igs
    # coordinates in the numerator
    cfg = WuConfiguration(n, c)
    G = cfg.group()
    u = G.collect(hopf_element(n - 1))
    assert _order_mod(G, cfg.denominator().rows, u) == order
    assert membership_check(hopf_element(n - 1), cfg)["order_in_quotient"] == order


def test_membership_of_identity():
    cfg = WuConfiguration(2, 3)
    out = membership_check(Word(()), cfg)
    assert out["in_numerator"] and out["in_denominator"]
    assert out["order_in_quotient"] == 1
    assert "collapses to the identity" in out["note"]


def test_membership_of_a_word_that_collapses():
    # [[[y0,y1],y0],[y0,y1]] has weight 5, so it is the identity at class 3
    cfg = WuConfiguration(2, 3)
    w = parse_word("[[[y0,y1],y0],[y0,y1]]", cfg.names)
    assert w.syllables
    assert cfg.group().collect(w) == ()
    out = membership_check(w, cfg)
    assert out["in_numerator"] and out["in_denominator"]
    assert out["order_in_quotient"] == 1
    assert out["note"] == "the word collapses to the identity at class 3"


def test_membership_outside_numerator():
    cfg = WuConfiguration(2, 3)
    out = membership_check(Word.gen(0), cfg)
    assert not out["in_numerator"]
    assert out["order_in_quotient"] is None
    assert "not in the numerator" in out["note"]


def _covering_commutators(length):
    """Left-normed commutators, as words, of the tuples of `length` signed
    letters y_-1 = (y0 y1)^-1, y0, y1 in which every letter occurs."""
    letters = [(Word.gen(0) * Word.gen(1)).inverse(), Word.gen(0), Word.gen(1)]
    signed = [(i, (w, e)) for i, w in enumerate(letters) for e in (1, -1)]
    for combo in itertools.product(signed, repeat=length):
        if len({i for i, _ in combo}) == 3:
            yield left_normed_commutator([entry for _, entry in combo])


def _oracle_denominator(cfg):
    """Independent route: enumerate covering tuples as words, not elements."""
    G = cfg.group()
    gens = []
    for length in range(2, cfg.class_bound + 1):
        for word in _covering_commutators(length):
            u = G.collect(word)
            if u:
                gens.append(u)
    return normal_closure_pc(G, gens)


def test_denominator_matches_word_level_oracle():
    cfg = WuConfiguration(2, 3)
    assert cfg.denominator() == _oracle_denominator(cfg)


ADMITTED = [(n, c) for n in (1, 2, 3) for c in range(n, 6)] + [(2, 6)]
WITH_N4 = ADMITTED + [(4, 4)]


@pytest.mark.parametrize("n,c", WITH_N4)
def test_letter_closures_match_normal_closures(n, c):
    cfg = WuConfiguration(n, c)
    ref = WuConfiguration(n, c)
    assert [h.rows for h in cfg.closures()] == [h.rows for h in wu_closures_by_closure(ref)]
    assert cfg.numerator().rows == wu_numerator_by_closure(ref).rows


@pytest.mark.parametrize("n,c", WITH_N4)
def test_level_search_matches_collected_search(n, c):
    # the search over the rotation orbit of y_-1 gives the stats and the
    # distinct generators of the search over every first letter, with
    # every commutator collected, and its minimal generators the same
    # normal closure
    gens, minimal, stats = _denominator_generators(WuConfiguration(n, c))
    ref = WuConfiguration(n, c)
    ref_gens, ref_stats = denominator_generators_collected(ref)
    assert stats == ref_stats
    assert len(gens) == len(set(gens))
    assert set(gens) == set(ref_gens)
    assert set(minimal) <= set(gens)
    G = ref.group()
    assert normal_closure_pc(G, minimal) == normal_closure_pc(G, ref_gens)


@pytest.mark.parametrize("n,c", WITH_N4)
def test_basis_elements_are_commutators_of_their_factors(n, c):
    G = WuConfiguration(n, c).group()
    for k, (_, weight, bracket) in enumerate(G.basis.elements):
        if weight > 1:
            u, v = bracket
            assert G.comm(G.basis_element(u), G.basis_element(v)) == ((k, 1),)


def _random_element(G, rng, min_weight):
    """Product of a few basis powers of weight >= min_weight, collected."""
    pool = [k for k in range(G.basis.size) if G.basis.weights[k] >= min_weight]
    u = IDENTITY
    for _ in range(rng.randrange(1, 6)):
        u = G._product((u, ((rng.choice(pool), rng.choice((-3, -2, -1, 1, 2, 3))),)))
    return u


@pytest.mark.parametrize("n,c", [(2, 6), (3, 5)])
def test_comm_on_abelian_layers_matches_collection(n, c):
    rng = random.Random(17)
    G = free_nilpotent(n, c)
    wt = G.basis.weights
    abelian = c // 2 + 1
    checked = 0
    for _ in range(60):
        x = _random_element(G, rng, rng.randrange(abelian, c + 1))
        y = _random_element(G, rng, rng.randrange(1, c + 1))
        if not x:
            continue
        assert 2 * wt[x[0][0]] > c
        assert G.comm(x, y) == collected_comm(G, x, y)
        checked += 1
    assert checked > 40


@pytest.mark.parametrize("n,c", [(2, 6), (3, 5)])
def test_mul_of_commuting_leads_matches_collection(n, c):
    # leads whose weights sum past c: the exponents are added, with no
    # collection
    rng = random.Random(19)
    G = free_nilpotent(n, c)
    wt = G.basis.weights
    checked = 0
    for _ in range(80):
        du = rng.randrange(1, c + 1)
        u = _random_element(G, rng, du)
        v = _random_element(G, rng, max(1, c + 1 - du))
        if u and v and wt[u[0][0]] + wt[v[0][0]] > c:
            assert G.mul(u, v) == G._product((u, v))
            checked += 1
    assert checked > 40


@pytest.mark.parametrize("n,c", [(2, 6), (3, 5)])
def test_rotation_on_abelian_layers_matches_collection(n, c):
    cfg = WuConfiguration(n, c)
    G = cfg.group()
    rng = random.Random(23)
    for _ in range(30):
        u = _random_element(G, rng, c // 2 + 1)
        images = [G.pow(cfg.rotation[k], f) for k, f in u]
        assert G.image(u, cfg.rotation) == G._product((IDENTITY, *images))


@pytest.mark.parametrize("n,c", [(2, 6), (3, 4), (3, 5), (4, 5)])
def test_conj_pow_matches_series_oracle(n, c):
    # every conjugate the collector can ask for, from the graded table and
    # from the tuple-keyed series embedding
    G = free_nilpotent(n, c)
    wt = G.basis.weights
    for j in range(G.basis.size):
        for k in range(j + 1, G.basis.size):
            if wt[k] + wt[j] <= c:
                for f in (1, -1, 2, -2):
                    assert G.conj_pow(k, j, f) == conj_pow_by_series(G, k, j, f)


@pytest.mark.parametrize("n,c", ADMITTED)
def test_level_search_matches_depth_first_walk(n, c):
    gens, _, stats = _denominator_generators(WuConfiguration(n, c))
    ref_gens, ref_stats = denominator_generators_depth_first(WuConfiguration(n, c))
    assert stats == ref_stats
    assert len(gens) == len(set(gens))
    assert set(gens) == set(ref_gens)


def _count_calls(monkeypatch, name, run):
    """Calls of the PcGroup method name while run() runs."""
    count = [0]
    method = getattr(PcGroup, name)

    def counting(self, *args):
        count[0] += 1
        return method(self, *args)

    monkeypatch.setattr(PcGroup, name, counting)
    run()
    return count[0]


@pytest.mark.parametrize("n,c,calls", [(2, 6, 5059), (3, 4, 237)])
def test_level_search_commutator_count(monkeypatch, n, c, calls):
    # one commutator per distinct partial commutator of the trees at
    # y_-1^{+-1}, signed letter and level, except at the last level where
    # no tuple reaching it covers every letter, plus the commutators of the
    # rotation; the search over every first letter formed 9,324 and 832
    cfg = WuConfiguration(n, c)
    assert _count_calls(monkeypatch, "comm", lambda: _denominator_generators(cfg)) == calls


@pytest.mark.parametrize("n,c,calls", [(2, 6, 532), (3, 4, 318)])
def test_level_search_collection_count(monkeypatch, n, c, calls):
    # commutators on the abelian layers are summed from kept commutators
    # of basis elements, and rotated generators on them from the images
    # of basis elements, so few of them are collected; the search over
    # every first letter collected 1,370 and 755 times
    cfg = WuConfiguration(n, c)
    assert _count_calls(monkeypatch, "_product", lambda: _denominator_generators(cfg)) == calls


@pytest.mark.parametrize("n,c,calls", [(2, 6, 210), (3, 4, 23)])
def test_denominator_closure_collection_count(monkeypatch, n, c, calls):
    # only the minimal generators are closed, with one product probe per
    # pair of igs rows; closing every generator collected 13,576 and 199
    # times
    cfg = WuConfiguration(n, c)
    _, minimal, _ = _denominator_generators(cfg)
    closure = _count_calls(monkeypatch, "_product", lambda: normal_closure_pc(cfg.group(), minimal))
    assert closure == calls


def test_normality_is_checked_once_per_subgroup(monkeypatch):
    # intersect_pc checks both operands for normality, and the result is
    # kept on each subgroup: the conjugations is_normal makes fell from
    # 2,220 to 492
    conj, is_normal = PcGroup.conj, PcSubgroup.is_normal
    inside, count = [0], [0]

    def counting_conj(self, x, g):
        count[0] += inside[0]
        return conj(self, x, g)

    def counting_is_normal(self):
        inside[0] += 1
        try:
            return is_normal(self)
        finally:
            inside[0] -= 1

    monkeypatch.setattr(PcGroup, "conj", counting_conj)
    monkeypatch.setattr(PcSubgroup, "is_normal", counting_is_normal)
    equal, _ = check_equality_13(3, 4)
    assert equal
    assert count[0] == 492


def test_longer_tuples_vanish_in_truncation():
    # so the denominator search may stop at tuples of length c
    cfg = WuConfiguration(2, 3)
    G = cfg.group()
    words = list(_covering_commutators(cfg.class_bound + 1))
    assert len(words) == 6**4 - 3 * 4**4 + 3 * 2**4
    assert all(G.collect(w) == () for w in words)


def test_denominator_projects_across_classes():
    big = WuConfiguration(2, 4)
    small = WuConfiguration(2, 3)
    projected = project_subgroup(small.group(), big.denominator())
    assert projected == small.denominator()


def test_report_shape():
    cfg = WuConfiguration(2, 3)
    report = wu_report(cfg)
    assert report["n"] == 2
    assert report["class"] == 3
    assert report["invariants"] == {"free_rank": 1, "torsion": []}
    den = report["denominator"]
    for key in ("nodes", "covering_nontrivial", "distinct_generators", "igs_rows"):
        assert key in den
    assert "class 3" in report["label"]


@pytest.mark.parametrize("n,c", [(2, 3), (2, 4)])
def test_tuple_denominator_equals_symmetric_commutator(n, c):
    equal, report = check_equality_13(n, c)
    assert equal
    assert report["denominator_only"] == []
    assert report["symmetric_only"] == []
    assert report["denominator_rows"] == report["symmetric_rows"]


def test_braid_closures():
    out = braid_check(3)
    assert out["class"] == 3
    assert len(out["pairs"]) == 3
    assert out["all_equal"]
    for p in out["pairs"]:
        assert p["intersection_rows"] == p["commutator_rows"]
