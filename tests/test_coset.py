import hashlib

import pytest

from oracles import catalog_presentation, coset_table_csv, follow
from picolim.abelian import AbelianInvariants
from picolim import coset
from picolim.catalog import catalog_group, catalog_names, declared_order
from picolim.colimit import NormalTuple
from picolim.errors import BudgetError
from picolim.coset import (
    coset_table_from_action,
    schreier_representatives,
    schreier_rewrite_matrix,
    todd_coxeter,
)
from picolim.presentations import parse_presentation, parse_word
from picolim.tensor import build_T

S3 = "gens: r,s | rels: r^3, s^2, s*r*s^-1*r"
# the relators of `picolim akcheck --n 2`, `--n 3` and `--alt`; each
# presents the trivial group
AK_RELATORS = [
    "x1^2*x2^-3, x1*x2*x1*x2^-1*x1^-1*x2^-1",
    "x1^3*x2^-4, x1*x2*x1*x2^-1*x1^-1*x2^-1",
    "x1^2*x2^-3, x1^3*x2^-4",
]


@pytest.mark.parametrize("strategy", ["hlt", "felsch"])
def test_cyclic_order(strategy):
    p = parse_presentation("gens: x | rels: x^5")
    assert todd_coxeter(p, strategy=strategy).n_cosets() == 5


@pytest.mark.parametrize(
    "text,order",
    [
        ("gens: a | rels: a^12", 12),
        ("gens: a,b | rels: a^4, b^2, b*a*b^-1*a", 8),
        ("gens: a,b | rels: a^4, b^4, a^2*b^-2, b*a*b^-1*a", 8),
        ("gens: x,y | rels: x^2, y^3, [x,y]", 6),
        ("gens: x,y | rels: x, y", 1),
    ],
)
def test_strategies_agree(text, order):
    p = parse_presentation(text)
    hlt = todd_coxeter(p, strategy="hlt")
    fel = todd_coxeter(p, strategy="felsch")
    assert hlt.n_cosets() == order
    assert fel.n_cosets() == order


@pytest.mark.parametrize("strategy", ["hlt", "felsch"])
@pytest.mark.parametrize("rels", AK_RELATORS)
def test_trivial_but_nonobvious_presentations(rels, strategy):
    p = parse_presentation(f"gens: x1,x2 | rels: {rels}")
    assert todd_coxeter(p, strategy=strategy).n_cosets() == 1


@pytest.mark.parametrize("interval", [1, 2, 5, 17])
def test_hlt_lookahead_keeps_tables_complete(monkeypatch, interval):
    # lookahead runs every LOOKAHEAD_INTERVAL definitions; no real input
    # reaches the default, so shrink it until it runs all the time.  The
    # small limit turns a lookahead fault that keeps defining cosets into a
    # failure instead of a hang.
    monkeypatch.setattr(coset, "LOOKAHEAD_INTERVAL", interval)
    cases = [(catalog_presentation(name), declared_order(name)) for name in catalog_names()]
    cases += [(parse_presentation(f"gens: x1,x2 | rels: {rels}"), 1) for rels in AK_RELATORS]
    for p, order in cases:
        t = todd_coxeter(p, limit=10_000, strategy="hlt")
        assert t.n_cosets() == order
        assert all(follow(t, c, rel) == c for rel in p.relators for c in range(order))


@pytest.mark.parametrize("strategy", ["hlt", "felsch"])
def test_exceeded_limit(strategy):
    p = parse_presentation("gens: a,b | rels:")
    message = r"^coset enumeration reached its limit of 100 definitions with 100 live rows$"
    with pytest.raises(BudgetError, match=message):
        todd_coxeter(p, limit=100, strategy=strategy)


def test_limit_message_counts_live_rows():
    # HLT on the (2, 3, 5) triangle presentation of A5 has merged 8 of
    # its 70 cosets away when the 71st would be defined
    a5 = parse_presentation("gens: a,b | rels: a^2, b^3, " + "*".join(["a*b"] * 5))
    message = r"^coset enumeration reached its limit of 70 definitions with 62 live rows$"
    with pytest.raises(BudgetError, match=message):
        todd_coxeter(a5, limit=70, strategy="hlt")


def test_follow_cycles_through_group():
    p = parse_presentation("gens: a | rels: a^6")
    t = todd_coxeter(p)
    a = p.encode(parse_word("a", p.generators))
    seen = []
    c = 0
    for _ in range(6):
        seen.append(c)
        c = follow(t, c, a)
    assert c == 0
    assert sorted(seen) == list(range(6))
    inverse, fifth = (p.encode(parse_word(w, p.generators)) for w in ("a^-1", "a^5"))
    assert follow(t, 0, inverse) == follow(t, 0, fifth)


@pytest.mark.parametrize("strategy", ["hlt", "felsch"])
def test_table_closed_under_relators(strategy):
    p = parse_presentation(S3)
    t = todd_coxeter(p, strategy=strategy)
    for rel in p.relators:
        for c in range(t.n_cosets()):
            assert follow(t, c, rel) == c


def test_deterministic_rows():
    p = parse_presentation(S3)
    t1 = todd_coxeter(p)
    t2 = todd_coxeter(p)
    assert t1.rows == t2.rows
    assert coset_table_csv(t1) == coset_table_csv(t2)


def test_to_csv_shape():
    p = parse_presentation("gens: a | rels: a^3")
    t = todd_coxeter(p)
    lines = coset_table_csv(t).splitlines()
    assert lines[0] == "coset,a,a^-1"
    assert len(lines) == 4
    assert coset_table_csv(t).endswith("\n")


def _felsch_pin_presentation(name):
    if name.startswith("T:"):
        g = catalog_group(name[2:])
        return build_T(NormalTuple(g, (g.full_subgroup(),) * 2)).base
    return catalog_presentation(name)


# Felsch tables recorded while each closed edge still pushed two deductions,
# (f, x) and (b, x ^ 1); one deduction per edge must give the same tables.
@pytest.mark.parametrize(
    "name,defined,n_cosets,rows_sha",
    [
        ("A4", 12, 12, "fa0bbac04a6e01f7"),
        ("M16", 23, 16, "51cd42c89cc2eb55"),
        ("Q16", 17, 16, "7965290fa4c0f184"),
        ("T:C2xC2", 21, 16, "8c1fe07a9cb27cde"),
        ("T:S3", 15, 6, "10c06dfaa4113929"),
    ],
)
def test_felsch_tables_pinned(name, defined, n_cosets, rows_sha):
    t = todd_coxeter(_felsch_pin_presentation(name), strategy="felsch")
    assert (t.defined, t.n_cosets()) == (defined, n_cosets)
    assert hashlib.sha256(repr(t.rows).encode()).hexdigest()[:16] == rows_sha


def test_unknown_strategy_rejected():
    p = parse_presentation("gens: a | rels: a^2")
    with pytest.raises(ValueError):
        todd_coxeter(p, strategy="nosuch")


def _swap_fix_table():
    # a swaps the two points, b fixes both
    return coset_table_from_action(("a", "b"), [[1, 1, 0, 0], [0, 0, 1, 1]])


def test_action_table_and_representatives():
    t = _swap_fix_table()
    # the tree edge (b, a, x) reaches b = 1 from a = 0 along column x = 0
    assert schreier_representatives(t.rows) == [(1, 0, 0)]


def test_rewrite_free_subgroup_rank():
    # index-2 subgroup of a free group of rank 2 is free of rank 3
    t = _swap_fix_table()
    rows, ncols = schreier_rewrite_matrix(t, [])
    assert ncols == 3
    assert rows == []
    assert AbelianInvariants.from_relation_matrix(rows, ncols) == AbelianInvariants(3, ())


# S3 = <r, s> acting on the right cosets of <r> (H, Hs) and of <s>
# (H, Hr, Hr^2); columns r, r^-1, s, s^-1, and point 0 is H itself
S3_COSET_ACTIONS = {
    "r": [[0, 0, 1, 1], [1, 1, 0, 0]],
    "s": [[1, 2, 0, 0], [2, 0, 2, 2], [0, 1, 1, 1]],
}


@pytest.mark.parametrize(
    "sub,expected",
    [
        ("r", AbelianInvariants(0, (3,))),
        ("s", AbelianInvariants(0, (2,))),
    ],
)
def test_rewrite_known_subgroups(sub, expected):
    p = parse_presentation(S3)
    t = coset_table_from_action(p.generators, S3_COSET_ACTIONS[sub])
    assert follow(t, 0, p.encode(parse_word(sub, p.generators))) == 0
    rows, ncols = schreier_rewrite_matrix(t, p.relators)
    assert AbelianInvariants.from_relation_matrix(rows, ncols) == expected


def test_rewrite_trivial_subgroup():
    p = parse_presentation(S3)
    t = todd_coxeter(p)
    rows, ncols = schreier_rewrite_matrix(t, p.relators)
    inv = AbelianInvariants.from_relation_matrix(rows, ncols)
    assert inv == AbelianInvariants(0, ())
