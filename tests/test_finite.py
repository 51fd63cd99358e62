import os
import random
import subprocess
import sys
from itertools import product

import pytest

from oracles import (
    abelian_invariants,
    abelian_invariants_of_quotient_greedy,
    all_subgroups_by_elements,
    catalog_presentation,
    commutator_by_elements,
    coset_labels_by_min,
    element_order,
    is_abelian,
    normal_subgroups_by_lattice,
)
from picolim import catalog, finite
from picolim.abelian import AbelianInvariants
from picolim.catalog import (
    all_catalog_names_of_order_at_most,
    catalog_group,
    catalog_names,
    catalog_subgroup,
    groups_of_order_at_most,
)
from picolim.colimit import NormalTuple, pi_n_colimit, search_disconnected_triple
from picolim.finite import (
    _MUL_TABLE_CAP,
    FinSubgroup,
    FiniteGroup,
    abelian_invariants_of_quotient,
)
from picolim.presentations import parse_presentation, parse_word
from picolim.words import Word

SRC = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")
# the DSL has no powers of products, so (a*b)^n is written out
A5_TEXT = "gens: a,b | rels: a^2, b^3, " + "*".join(["a*b"] * 5)
PSL27_TEXT = (
    "gens: a,b | rels: a^2, b^3, " + "*".join(["a*b"] * 7) + ", "
    + "*".join(["a*b*a^-1*b^-1"] * 4)
)


def _realize(text, name=None):
    return FiniteGroup.from_presentation(parse_presentation(text), name=name)


@pytest.fixture(scope="module")
def s3():
    return _realize("gens: r,s | rels: r^3, s^2, s*r*s^-1*r", name="S3")


@pytest.fixture(scope="module")
def s4():
    return _realize("gens: a,b | rels: a^2, b^3, a*b*a*b*a*b*a*b", name="S4")


@pytest.fixture(scope="module")
def q8():
    return _realize("gens: i,j | rels: i^4, i^2*j^-2, j*i*j^-1*i", name="Q8")


@pytest.fixture(scope="module")
def v4():
    return _realize("gens: a,b | rels: a^2, b^2, [a,b]", name="V4")


def test_realized_orders(s3, s4, q8, v4):
    assert s3.n == 6
    assert s4.n == 24
    assert q8.n == 8
    assert v4.n == 4


def test_abelian_flag(s3, v4):
    assert not is_abelian(s3)
    assert is_abelian(v4)


def test_element_laws_random(s4):
    rng = random.Random(17)
    for _ in range(200):
        a = rng.randrange(s4.n)
        b = rng.randrange(s4.n)
        c = rng.randrange(s4.n)
        assert s4.mul(s4.mul(a, b), c) == s4.mul(a, s4.mul(b, c))
        assert s4.mul(a, s4.inv(a)) == 0
        assert s4.mul(0, a) == a
        assert s4.conj(a, b) == s4.mul(s4.mul(a, b), s4.inv(a))
        assert s4.comm(a, b) == s4.mul(s4.conj(a, b), s4.inv(b))


def test_element_orders_divide_group_order(q8, s3):
    for g in (q8, s3):
        for x in range(g.n):
            assert g.n % element_order(g, x) == 0
    # Q8 has a unique involution
    assert sum(1 for x in range(q8.n) if element_order(q8, x) == 2) == 1


def test_word_image_kills_relators(s3):
    names = ("r", "s")
    for rel in ("r^3", "s^2", "s*r*s^-1*r"):
        assert s3.word_image(parse_word(rel, names)) == 0
    assert s3.word_image(parse_word("r", names)) == s3.gens()[0]
    assert s3.word_image(parse_word("r^-1", names)) == s3.inv(s3.gens()[0])
    with pytest.raises(ValueError, match="letter 2 is outside the 2 generators"):
        s3.word_image(Word.gen(2))


def test_word_image_reduces_exponents_by_group_order(s3):
    # r has order 3 in S3, and 10^12 + 1 = 2 mod 3
    r = s3.gens()[0]
    names = ("r", "s")
    assert s3.word_image(parse_word("r^1000000000001", names)) == s3.inv(r)
    assert s3.word_image(parse_word("s^-1000000000001*r^-1000000000000", names)) == (
        s3.word_image(parse_word("s*r^2", names))
    )
    c64 = catalog_group("C64")
    a = c64.gens()[0]
    # 10^12 is divisible by 64, so a^(10^12 + 1) = a and a^-(10^12 + 1) = a^-1
    assert c64.word_image(parse_word("a^1000000000001", ("a",))) == a
    assert c64.word_image(parse_word("a^-1000000000001", ("a",))) == c64.inv(a)
    assert c64.word_image(parse_word("a^-1000000000000", ("a",))) == 0
    sub = catalog_subgroup("C64", "{a^1000000000001}")
    assert sub == c64.full_subgroup()
    report = pi_n_colimit(NormalTuple(c64, (sub,)))
    assert report.invariants == AbelianInvariants(0, (64,))


def test_centers(s3, q8, v4):
    assert s3.center().order() == 1
    assert q8.center().order() == 2
    assert v4.center().order() == 4


def test_derived_subgroups(s3, s4, q8, v4):
    assert s3.derived_subgroup().order() == 3
    assert s4.derived_subgroup().order() == 12
    assert q8.derived_subgroup().order() == 2
    assert v4.derived_subgroup().order() == 1


def test_subgroup_generation(s3):
    s = s3.gens()[1]
    r = s3.gens()[0]
    assert s3.subgroup([s]).order() == 2
    assert s3.subgroup([r]).order() == 3
    assert s3.subgroup([r, s]).order() == 6


def test_normal_closure(s3):
    r = s3.gens()[0]
    s = s3.gens()[1]
    assert s3.normal_closure([0]).order() == 1
    # a 3-cycle generates the index-2 normal subgroup
    assert s3.normal_closure([r]).order() == 3
    # a transposition normally generates everything
    assert s3.normal_closure([s]).order() == 6


def test_subgroup_counts(s3, q8, v4):
    assert len(s3.all_subgroups()) == 6
    assert len(q8.all_subgroups()) == 6
    assert len(v4.all_subgroups()) == 5


def test_normal_subgroup_counts(s3, s4, q8):
    assert len(s3.normal_subgroups()) == 3
    assert len(s4.normal_subgroups()) == 4
    # every subgroup of Q8 is normal
    assert len(q8.normal_subgroups()) == 6


def test_all_subgroups_are_closed_and_ordered(s4):
    subs = s4.all_subgroups()
    orders = [h.order() for h in subs]
    assert orders == sorted(orders)
    for h in subs:
        assert s4.n % h.order() == 0


def test_quotient_s4_mod_v4(s4):
    v = next(h for h in s4.normal_subgroups() if h.order() == 4)
    q, proj = s4.quotient(v)
    assert q.n == 6
    assert not is_abelian(q)
    # each generator of the quotient is read off its permutations
    assert q.gens() == tuple(proj[g] for g in s4.gens())
    rng = random.Random(23)
    for _ in range(100):
        a = rng.randrange(s4.n)
        b = rng.randrange(s4.n)
        assert proj[s4.mul(a, b)] == q.mul(proj[a], proj[b])


def test_quotient_rejects_non_normal(s3):
    s = s3.gens()[1]
    h = s3.subgroup([s])
    with pytest.raises(ValueError):
        s3.quotient(h)


def test_quotient_rejects_another_groups_subgroup(s3, s4):
    with pytest.raises(ValueError, match="belongs to a different group"):
        s3.quotient(s4.trivial_subgroup())


def test_intersect_and_product_in_v4(v4):
    order2 = [h for h in v4.all_subgroups() if h.order() == 2]
    assert len(order2) == 3
    a, b = order2[0], order2[1]
    assert a.intersect(b).order() == 1
    assert a.product(b).order() == 4
    assert a.product(a) == a
    assert a.product(v4.trivial_subgroup()) == a


def test_product_requires_normal_factor(s3):
    s = s3.gens()[1]
    rs = s3.mul(s3.gens()[0], s)
    h = s3.subgroup([s])
    k = s3.subgroup([rs])
    for _ in range(2):  # normality is kept on the subgroup; the refusal is not
        with pytest.raises(ValueError, match="one normal factor"):
            h.product(k)


def test_commutator_subgroup_symmetric(s4):
    subs = [h for h in s4.all_subgroups() if h.order() in (4, 6, 8)]
    rng = random.Random(31)
    for _ in range(10):
        h = rng.choice(subs)
        k = rng.choice(subs)
        assert h.commutator(k) == k.commutator(h)


def test_commutator_with_trivial(s4):
    t = s4.trivial_subgroup()
    assert s4.full_subgroup().commutator(t).order() == 1


def test_conjugate_by(s3):
    s = s3.gens()[1]
    r = s3.gens()[0]
    h = s3.subgroup([s])
    hc = h.conjugate_by(r)
    assert hc.order() == 2
    assert hc != h
    a3 = s3.subgroup([r])
    assert a3.conjugate_by(s) == a3


def test_abelian_invariants(s3, q8, v4):
    assert abelian_invariants(v4) == AbelianInvariants(0, (2, 2))
    assert abelian_invariants(s3) == AbelianInvariants(0, (2,))
    assert abelian_invariants(q8) == AbelianInvariants(0, (2, 2))
    c6 = _realize("gens: x | rels: x^6")
    assert abelian_invariants(c6) == AbelianInvariants(0, (6,))


def test_quotient_invariants_known(s3):
    a3 = s3.subgroup([s3.gens()[0]])
    inv = abelian_invariants_of_quotient(s3.full_subgroup(), a3)
    assert inv == AbelianInvariants(0, (2,))
    assert abelian_invariants_of_quotient(a3, a3) == AbelianInvariants(0, ())
    inv = abelian_invariants_of_quotient(a3, s3.trivial_subgroup())
    assert inv == AbelianInvariants(0, (3,))


def test_quotient_invariants_rejections(s3, s4):
    a3 = s3.subgroup([s3.gens()[0]])
    h2 = s3.subgroup([s3.gens()[1]])
    full = s3.full_subgroup()
    # results are kept on the numerator, refusals are not: each is raised
    # again, also after full has kept the invariants of full / a3
    for _ in range(2):
        with pytest.raises(ValueError, match="not abelian"):
            abelian_invariants_of_quotient(full, s3.trivial_subgroup())
        with pytest.raises(ValueError, match="not normal"):
            abelian_invariants_of_quotient(full, h2)
        with pytest.raises(ValueError, match="not contained"):
            abelian_invariants_of_quotient(h2, a3)
        with pytest.raises(ValueError, match="different groups"):
            abelian_invariants_of_quotient(s4.full_subgroup(), s3.full_subgroup())
        assert abelian_invariants_of_quotient(full, a3) == AbelianInvariants(0, (2,))


def test_quotient_invariants_generator_inside_denominator(s3, s4):
    for g in (s3, s4):
        full = g.full_subgroup()
        derived = g.derived_subgroup()
        # one generator of the group lies in A_n and adds only a unit row
        assert [x in derived.member_set for x in full.gens].count(True) == 1
        assert abelian_invariants_of_quotient(full, derived) == AbelianInvariants(0, (2,))
        assert abelian_invariants_of_quotient(full, full) == AbelianInvariants(0, ())


def test_subgroup_validation(s3):
    with pytest.raises(ValueError):
        FinSubgroup(s3, [0, s3.gens()[0]])
    with pytest.raises(ValueError):
        FinSubgroup(s3, [s3.gens()[1]])


def test_order_one_group():
    g = _realize("gens: x | rels: x")
    assert g.n == 1
    assert is_abelian(g)
    assert abelian_invariants(g) == AbelianInvariants(0, ())


# -- the generator-based calculus against the element-set oracles -------------


def test_normal_subgroups_match_lattice():
    groups = [catalog_group(name) for name in catalog_names()]
    groups += [_realize(A5_TEXT, name="A5"), _realize(PSL27_TEXT, name="PSL(2,7)")]
    assert [g.n for g in groups[-2:]] == [60, 168]
    for g in groups:
        # same subgroups in the same (order, members) order as the lattice
        assert g.normal_subgroups() == normal_subgroups_by_lattice(g), g.name


def test_all_subgroups_match_element_sets():
    groups = [catalog_group(name) for name in catalog_names()]
    groups += [_realize(A5_TEXT, name="A5"), _realize(PSL27_TEXT, name="PSL(2,7)")]
    for g in groups:
        # same subgroups in the same (order, members) order as the element-set walk
        assert g.all_subgroups() == all_subgroups_by_elements(g), g.name
    assert [len(g.all_subgroups()) for g in groups[-2:]] == [59, 179]


def test_normal_subgroups_returns_a_copy(s3):
    first = s3.normal_subgroups()
    first.clear()
    assert len(s3.normal_subgroups()) == 3


def test_lattices_stay_whole_after_a_caller_appends(s3):
    for lattice, count in ((s3.all_subgroups, 6), (s3.normal_subgroups, 3)):
        result = lattice()
        result.append(result[0])
        assert len(lattice()) == count


def test_commutator_matches_elements_s4(s4):
    subs = s4.all_subgroups()
    for h, k in product(subs, repeat=2):
        assert h.commutator(k) == commutator_by_elements(h, k)


def test_commutator_matches_elements_catalog_normal_pairs():
    for name in catalog_names():
        g = catalog_group(name)
        if g.n > 16:
            continue
        normals = g.normal_subgroups()
        for h, k in product(normals, repeat=2):
            assert h.commutator(k) == commutator_by_elements(h, k), name


def test_quotient_invariants_match_greedy_generators():
    for name in groups_of_order_at_most(24):
        g = catalog_group(name)
        full = g.full_subgroup()
        pairs = [(full, g.derived_subgroup())]
        normals = g.normal_subgroups()
        pairs += [(m.intersect(n), m.commutator(n)) for m, n in product(normals, repeat=2)]
        for a, b in pairs:
            got = abelian_invariants_of_quotient(a, b)
            assert got == abelian_invariants_of_quotient_greedy(a, b), name


def test_normal_closure_matches_all_conjugates(s4):
    for g in (s4, catalog_group("D8")):
        for x in range(g.n):
            conjugates = {g.conj(y, x) for y in range(g.n)}
            assert g.normal_closure([x]) == g.subgroup(conjugates)


def test_normality_checks_match_elementwise(s4):
    for g in (s4, catalog_group("D8")):
        full = g.full_subgroup()
        for b in g.all_subgroups():
            normal = all(
                g.conj(x, y) in b.member_set for x in range(g.n) for y in b.members
            )
            assert b.is_normal() == normal
            if not normal:
                with pytest.raises(ValueError, match="B is not normal in A"):
                    abelian_invariants_of_quotient(full, b)


def test_quotient_projection_matches_min_labels(s4):
    for g in (s4, catalog_group("D8")):
        full = g.full_subgroup()
        for n in g.normal_subgroups():
            _, proj = g.quotient(n)
            labels = coset_labels_by_min(full, n)
            assert proj == [labels[x] for x in range(g.n)]


# -- one subgroup object per member set, normality and quotients kept on it ---


def _fresh(name):
    """A catalog group realised anew, with nothing computed on it yet."""
    return FiniteGroup.from_presentation(catalog_presentation(name), name=name)


def _count_smith_calls(monkeypatch):
    calls = []
    original = AbelianInvariants.from_relation_matrix.__func__

    def counting(cls, rows, ncols):
        calls.append(ncols)
        return original(cls, rows, ncols)

    monkeypatch.setattr(AbelianInvariants, "from_relation_matrix", classmethod(counting))
    return calls


@pytest.mark.parametrize("name, expected", [("C2xC2xC2xC2", 66), ("D4", 8), ("Q8", 8)])
def test_each_quotient_reaches_the_smith_form_once(monkeypatch, name, expected):
    # the pair formula and the direct quotient ask for the same few
    # quotients over and over; each distinct one is reduced once
    g = _fresh(name)
    calls = _count_smith_calls(monkeypatch)
    normals = g.normal_subgroups()
    for m, n in product(normals, repeat=2):
        report = pi_n_colimit(NormalTuple(g, (m, n)))
        direct = abelian_invariants_of_quotient(m.intersect(n), m.commutator(n))
        assert report.invariants == direct
    assert len(calls) == expected


def test_subgroup_operations_hand_out_one_object_per_member_set():
    g = _fresh("D4")
    assert g.full_subgroup() is g.full_subgroup()
    assert g.trivial_subgroup() is g.trivial_subgroup()
    normals = g.normal_subgroups()
    assert normals == g.normal_subgroups()
    assert all(a is b for a, b in zip(normals, g.normal_subgroups()))
    for m, n in product(normals, repeat=2):
        assert m.intersect(n) is n.intersect(m)
        assert m.product(n) is n.product(m)
        assert m.commutator(n) is n.commutator(m)
    assert g.derived_subgroup() is g.center()
    r = g.gens()[0]
    assert g.subgroup([r]) is g.normal_closure([r])
    # the public constructor still validates and builds a separate object
    built = FinSubgroup(g, g.subgroup([r]).members)
    assert built == g.subgroup([r]) and built is not g.subgroup([r])


def _pair_answers(h, k):
    """The members of h cap k, [h, k] and hk, with None for a refused hk."""
    try:
        join = h.product(k).members
    except ValueError:
        join = None
    return h.intersect(k).members, h.commutator(k).members, join


@pytest.mark.parametrize("name, lattice", [("S4", "all_subgroups"), ("D4xC2", "normal_subgroups")])
def test_kept_pair_operations_answer_as_a_fresh_group(name, lattice):
    # one group answers every ordered pair in both call orders, so the
    # second order is a lookup of what the first kept; a freshly realised
    # copy answers each pair alone, with nothing kept
    warm = _fresh(name)
    for h, k in product(getattr(warm, lattice)(), repeat=2):
        cold = _fresh(name)
        expected = _pair_answers(cold.subgroup(h.gens), cold.subgroup(k.gens))
        assert _pair_answers(h, k) == expected, (name, h, k)
        assert _pair_answers(k, h) == expected, (name, h, k)
        assert h.commutator(k) == commutator_by_elements(h, k)
        if expected[2] is None:
            for _ in range(2):  # a refusal is not kept
                with pytest.raises(ValueError, match="one normal factor"):
                    h.product(k)
        else:
            assert h.product(k) is k.product(h)


def _count_closures(monkeypatch):
    calls = []
    original = finite._closure

    def counting(*args):
        calls.append(1)
        return original(*args)

    monkeypatch.setattr(finite, "_closure", counting)
    return calls


def test_pair_formula_closure_count(monkeypatch):
    """Closures of the pair formula over every normal pair of
    C2xC2xC2xC2, lattice excluded: 4,489 when every meet, join and
    commutator was computed anew, 2,278 with each pair kept on its
    operands."""
    g = _fresh("C2xC2xC2xC2")
    normals = g.normal_subgroups()
    calls = _count_closures(monkeypatch)
    for m, n in product(normals, repeat=2):
        pi_n_colimit(NormalTuple(g, (m, n)))
    assert len(calls) == 2278


def test_triple_scan_closure_count(monkeypatch):
    """Closures of the exhaustive triple scan to order 8 from cold groups,
    realisation and lattices included: 6,932 when every meet, join and
    commutator was computed anew, 567 with each pair kept on its
    operands."""
    monkeypatch.setattr(catalog, "_cache", {})
    calls = _count_closures(monkeypatch)
    findings = search_disconnected_triple(8, stop_at_first=False)
    assert len(findings) == 107
    assert len(calls) == 567


def _quotient_or_refusal(a, b):
    try:
        return abelian_invariants_of_quotient(a, b)
    except ValueError as exc:
        return str(exc)


def test_warm_group_answers_as_cold_copies():
    # one group answers every normal pair in turn; a freshly realised copy
    # answers each pair alone, in reverse order, so a table lookup that
    # mixed up two subgroups, or two denominators of one numerator, would
    # show as a different value
    for name in all_catalog_names_of_order_at_most(24):
        warm = _fresh(name)
        normals = warm.normal_subgroups()
        for m, n in product(normals, repeat=2):
            got = (
                pi_n_colimit(NormalTuple(warm, (m, n))).invariants,
                _quotient_or_refusal(m, n),
            )
            cold = _fresh(name)
            cm, cn = cold.subgroup(m.gens), cold.subgroup(n.gens)
            quotient = _quotient_or_refusal(cm, cn)
            pi = pi_n_colimit(NormalTuple(cold, (cn, cm))).invariants
            assert (pi, quotient) == got, (name, m, n)


# -- groups above the multiplication-table cap: products are traced ----------


@pytest.fixture(scope="module")
def d800():
    return _realize("gens: r,s | rels: r^800, s^2, s*r*s^-1*r", name="D800")


def test_traced_group_subgroup_calculus(d800):
    assert d800.n == 1600 > _MUL_TABLE_CAP
    derived = d800.derived_subgroup()
    assert derived.order() == 400
    report = pi_n_colimit(NormalTuple(d800, (derived, d800.full_subgroup())))
    assert report.invariants == AbelianInvariants(0, (2,))
    r = d800.gens()[0]
    with pytest.raises(ValueError, match="not closed"):
        FinSubgroup(d800, [0, r])


# -- invariant checks survive python -O ------------------------------------------


_WRONG_ORDER_SCRIPT = """
from picolim.abelian import AbelianInvariants
from picolim.errors import InternalError
from picolim.finite import FiniteGroup, abelian_invariants_of_quotient
from picolim.presentations import parse_presentation

assert False, "asserts must be off under -O"
AbelianInvariants.from_relation_matrix = classmethod(lambda cls, rows, ncols: cls(0, ()))
c6 = FiniteGroup.from_presentation(parse_presentation("gens: x | rels: x^6"))
try:
    abelian_invariants_of_quotient(c6.full_subgroup(), c6.trivial_subgroup())
except InternalError as exc:
    print("InternalError:", exc)
"""


def test_internal_check_fires_under_optimize():
    env = dict(os.environ, PYTHONPATH=SRC)
    proc = subprocess.run(
        [sys.executable, "-O", "-c", _WRONG_ORDER_SCRIPT],
        capture_output=True, text=True, env=env, timeout=60,
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == (
        "InternalError: quotient order mismatch after Smith reduction"
    )
