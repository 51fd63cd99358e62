import pytest

from oracles import one_orientation_presentation, tensor_relators_exhaustive
from picolim import finite, tensor
from picolim.abelian import AbelianInvariants
from picolim.catalog import catalog_group, groups_of_order_at_most
from picolim.colimit import NormalTuple
from picolim.coset import todd_coxeter
from picolim.errors import BudgetError
from picolim.nilpotent import free_nilpotent
from picolim.tensor import (
    TensorPresentation,
    TensorSymbol,
    _ordered_partitions,
    _three_block_partitions,
    boundary_image,
    build_T,
    crossed_module_check,
    kernel_of_boundary,
    relator_soundness,
)


def _full_tuple(name, n):
    g = catalog_group(name)
    return NormalTuple(g, (g.full_subgroup(),) * n)


def test_partition_enumeration():
    assert _ordered_partitions(2) == [((1,), (2,)), ((2,), (1,))]
    assert len(_ordered_partitions(3)) == 6
    assert len(_ordered_partitions(4)) == 14
    for A, B in _ordered_partitions(3):
        assert sorted(A + B) == [1, 2, 3]
        assert not set(A) & set(B)


def test_three_block_partitions():
    assert len(_three_block_partitions(3)) == 6
    assert len(_three_block_partitions(4)) == 36
    for U, V, W in _three_block_partitions(4):
        assert sorted(U + V + W) == [1, 2, 3, 4]


def test_symbol_name_format():
    s = TensorSymbol((1, 3), (2,), 4, 5)
    assert s.name == "t_13_2_4_5"


def test_symbol_count_order2_pair():
    tp = build_T(_full_tuple("C2", 2))
    # 2 ordered partitions x 4 element pairs
    assert len(tp.symbols) == 8
    assert len(tp.base.generators) == 8
    for s in tp.symbols:
        assert tp.base.generators[tp.column[s] // 2] == s.name


@pytest.mark.parametrize("name,n", [("S3", 2), ("C2", 3)])
def test_steps_are_the_commutators(name, n):
    tp = build_T(_full_tuple(name, n))
    G = tp.ambient
    assert len(tp.steps) == 2 * len(tp.symbols)
    for s, x in tp.column.items():
        d = G.comm(s.a, s.b)
        assert (tp.steps[x], tp.steps[x ^ 1]) == (d, G.inv(d)), s


def test_family_counts_order2_triple():
    tp = build_T(_full_tuple("C2", 3))
    assert len(tp.symbols) == 24
    assert tp.families == {
        "inverse": 24,
        "biadditive": 36,
        "threefold": 48,
        "conjugation": 552,
    }


@pytest.mark.parametrize("name,n", [("C2", 2), ("C3", 2), ("V4", 2), ("S3", 2), ("C2", 3)])
def test_relators_sound_and_crossed(name, n):
    tp = build_T(_full_tuple(name, n))
    assert relator_soundness(tp) == []
    ok, witness = crossed_module_check(tp)
    assert ok, witness


def _oracle_cases():
    cases = []
    for name in groups_of_order_at_most(4):
        g = catalog_group(name)
        normal = g.normal_subgroups()
        cases += [(name, NormalTuple(g, (m, n))) for m in normal for n in normal]
    cases += [(f"{name} pair", _full_tuple(name, 2)) for name in ("S3", "D4", "Q8")]
    cases += [(f"{name} triple", _full_tuple(name, 3)) for name in ("C2", "S3")]
    return cases


def test_relators_equal_the_exhaustive_oracle():
    for label, t in _oracle_cases():
        tp = build_T(t)
        relators, families = tensor_relators_exhaustive(t)
        assert list(tp.base.relators) == relators, label
        assert tp.families == families, label


def test_soundness_returns_exactly_the_unsound_relator():
    tp = build_T(_full_tuple("S3", 2))
    G = tp.ambient
    s = next(s for s in tp.symbols if G.comm(s.a, s.b) != 0)
    bad = (tp.column[s],)
    wrong = TensorPresentation(G, tp.column, tp.base.relators + (bad,), tp.families, tp.steps)
    assert relator_soundness(wrong) == [bad]


def test_crossed_module_check_reads_the_steps():
    tp = build_T(_full_tuple("S3", 2))
    G = tp.ambient
    s = next(s for s in tp.symbols if G.comm(s.a, s.b) != 0)
    zeroed = TensorPresentation(G, tp.column, tp.base.relators, tp.families, [0] * len(tp.steps))
    assert crossed_module_check(zeroed) == (False, (0, s))
    # a column without the conjugates of its symbols is no crossed module
    column = {t: x for t, x in tp.column.items() if t.a != s.a}
    part = TensorPresentation(G, column, (), tp.families, tp.steps)
    ok, (g, t) = crossed_module_check(part)
    assert not ok and G.conj(g, t.a) == s.a


def test_boundary_image():
    tp = build_T(_full_tuple("S3", 2))
    assert boundary_image(tp).order() == 3  # derived subgroup of S3
    tp = build_T(_full_tuple("V4", 2))
    assert boundary_image(tp).order() == 1  # abelian ambient


@pytest.mark.parametrize(
    "name,t_order,image_order,invariants",
    [
        ("C2", 2, 1, AbelianInvariants(0, (2,))),
        ("C3", 3, 1, AbelianInvariants(0, (3,))),
        ("V4", 16, 1, AbelianInvariants(0, (2, 2, 2, 2))),
        ("S3", 6, 3, AbelianInvariants(0, (2,))),
    ],
)
def test_tensor_square_kernels(name, t_order, image_order, invariants):
    tp = build_T(_full_tuple(name, 2))
    out = kernel_of_boundary(tp)
    assert out["t_order"] == t_order
    assert out["image_order"] == image_order
    assert out["kernel_order"] == t_order // image_order
    assert out["invariants"] == invariants
    assert out["verified"]
    assert set(out) == {
        "t_order", "image_order", "kernel_order", "invariants", "verified", "strategy", "notes",
    }


def test_kernel_of_a_group_too_large_to_realize(monkeypatch):
    tp = build_T(_full_tuple("S3", 2))
    monkeypatch.setattr(finite, "ORDER_CAP", 5)  # |T| = 6
    out = kernel_of_boundary(tp)
    assert (out["t_order"], out["image_order"], out["kernel_order"]) == (6, 3, 2)
    assert out["invariants"] == AbelianInvariants(0, (2,))
    assert out["verified"] is False
    assert out["notes"] == ["T too large to realize; invariants not cross-checked"]


def test_tensor_triple_order2():
    tp = build_T(_full_tuple("C2", 3))
    out = kernel_of_boundary(tp)
    assert out["t_order"] == 8
    assert out["image_order"] == 1
    assert out["invariants"] == AbelianInvariants(0, (2, 2, 2))


def test_dual_strategies_agree():
    for name in ("C3", "V4"):
        tp = build_T(_full_tuple(name, 2))
        hlt = kernel_of_boundary(tp, strategy="hlt")
        fel = kernel_of_boundary(tp, strategy="felsch")
        for key in ("t_order", "image_order", "kernel_order", "invariants"):
            assert hlt[key] == fel[key]
        assert hlt["strategy"] == "hlt"
        assert fel["strategy"] == "felsch"


def test_one_orientation_same_group():
    tp = build_T(_full_tuple("S3", 2))
    small = one_orientation_presentation(tp)
    assert len(small.generators) == len(tp.symbols) // 2
    assert todd_coxeter(small).n_cosets() == kernel_of_boundary(tp)["t_order"]


def test_raw_and_reduced_presentations_give_the_same_order():
    tuples = [_full_tuple("C2", 3), _full_tuple("S3", 2)]
    for name in groups_of_order_at_most(4):
        g = catalog_group(name)
        normal = g.normal_subgroups()
        tuples.extend(NormalTuple(g, (m, n)) for m in normal for n in normal)
    for nt in tuples:
        tp = build_T(nt)
        reduced, image = tp.reduction()
        assert len(image) == 2 * len(tp.base.generators)
        raw_order = todd_coxeter(tp.base).n_cosets()
        assert todd_coxeter(reduced).n_cosets() == raw_order
        assert kernel_of_boundary(tp)["t_order"] == raw_order


def test_reduction_is_cached_per_base_presentation():
    tp = build_T(_full_tuple("S3", 2))
    first = tp.reduction()
    kernel_of_boundary(tp, strategy="hlt")
    kernel_of_boundary(tp, strategy="felsch")
    assert tp.reduction() is first
    assert len(first[0].generators) < len(tp.base.generators)


def test_relators_reduced_and_unique():
    g = catalog_group("S3")
    normals = g.normal_subgroups()
    for m in normals:
        for n in normals:
            rels = build_T(NormalTuple(g, (m, n))).base.relators
            assert len(set(rels)) == len(rels)
            for rel in rels:
                assert rel
                assert all(x ^ 1 != y for x, y in zip(rel, rel[1:])), rel


def test_budget_error(monkeypatch):
    # 72 symbols: 72 inverse, 2 * 6^3 biadditive and 72^2 conjugation relators
    monkeypatch.setattr(tensor, "RELATOR_BUDGET", 5687)
    message = "^72 tensor symbols give 5688 relators, over the budget of 5687 relators$"
    with pytest.raises(BudgetError, match=message):
        build_T(_full_tuple("S3", 2))
    monkeypatch.setattr(tensor, "RELATOR_BUDGET", 5688)
    assert len(build_T(_full_tuple("S3", 2)).symbols) == 72


def test_input_validation():
    s3 = catalog_group("S3")
    with pytest.raises(ValueError):
        build_T(NormalTuple(s3, (s3.full_subgroup(),)))
    g = free_nilpotent(2, 2)
    with pytest.raises(TypeError):
        build_T(NormalTuple(g, (g.full_subgroup(), g.full_subgroup())))


def test_kernel_respects_coset_limit():
    tp = build_T(_full_tuple("V4", 2))
    with pytest.raises(BudgetError):
        kernel_of_boundary(tp, limit=3)
