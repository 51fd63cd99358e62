import pytest

from oracles import abelian_invariants, catalog_presentation, element_order, is_abelian
from picolim.catalog import (
    ORDER_CLASSES,
    all_catalog_names_of_order_at_most,
    catalog_group,
    catalog_names,
    catalog_subgroup,
    declared_order,
    groups_of_order_at_most,
    subgroup_of,
)


def _fingerprint(g):
    """Isomorphism-sensitive summary: enough to split every catalog order class."""
    return (
        g.n,
        str(abelian_invariants(g)),
        g.center().order(),
        g.derived_subgroup().order(),
        tuple(sorted(element_order(g, x) for x in range(g.n))),
    )


def test_every_entry_realizes_at_declared_order():
    for name in catalog_names():
        g = catalog_group(name)
        assert g.n == declared_order(name), name


def test_alias_points_at_same_group():
    assert catalog_group("V4") is catalog_group("C2xC2")
    assert declared_order("V4") == 4


def test_unknown_name_raises():
    with pytest.raises(KeyError):
        catalog_group("NOSUCH")
    with pytest.raises(KeyError):
        declared_order("NOSUCH")


def test_presentation_matches_group():
    for name in ("S3", "Q8", "D4", "C12"):
        p = catalog_presentation(name)
        g = catalog_group(name)
        assert g.generators == p.generators
        for rel in p.relators:
            assert g.word_image(p.word(rel)) == 0


@pytest.mark.parametrize("order,count", sorted(ORDER_CLASSES.items()))
def test_order_classes_are_distinct_types(order, count):
    names = ORDER_CLASSES[order]
    assert len(names) == count if isinstance(count, int) else True
    prints = [_fingerprint(catalog_group(n)) for n in names]
    assert len(set(prints)) == len(names), f"order {order} has colliding entries"
    for p in prints:
        assert p[0] == order


def test_type_counts_per_order():
    expected = {1: 1, 2: 1, 3: 1, 4: 2, 5: 1, 6: 2, 7: 1, 8: 5,
                9: 2, 10: 2, 11: 1, 12: 5, 13: 1, 14: 2, 15: 1, 16: 14}
    assert {k: len(v) for k, v in ORDER_CLASSES.items()} == expected


def test_groups_of_order_at_most():
    names = groups_of_order_at_most(8)
    assert len(names) == 14
    assert all(declared_order(n) <= 8 for n in names)
    assert groups_of_order_at_most(1) == ["C1"]


def test_all_catalog_names_of_order_at_most():
    names = all_catalog_names_of_order_at_most(6)
    assert "S3" in names and "C6" in names
    assert all(declared_order(n) <= 6 for n in names)
    assert "V4" not in names  # aliases are not duplicated


def test_named_subgroups():
    assert catalog_subgroup("S3", "A3").order() == 3
    assert catalog_subgroup("S4", "A4").order() == 12
    assert catalog_subgroup("S4", "V4").order() == 4
    assert catalog_subgroup("S4", "V4").is_normal()


def test_generic_subgroup_specs():
    assert catalog_subgroup("Q8", "trivial").order() == 1
    assert catalog_subgroup("Q8", "full").order() == 8
    assert catalog_subgroup("Q8", "center").order() == 2
    assert catalog_subgroup("D4", "derived").order() == 2
    assert catalog_subgroup("S3", "{s}").order() == 2
    assert catalog_subgroup("S3", "ncl{s}").order() == 6


def test_subgroup_of_matches_catalog_subgroup():
    g = catalog_group("D4")
    assert subgroup_of(g, "center") == catalog_subgroup("D4", "center")
    assert subgroup_of(g, "{r}").order() == 4


def test_bad_subgroup_spec():
    with pytest.raises(KeyError):
        catalog_subgroup("S3", "nosuchspec")


def test_dihedral_and_cyclic_families():
    for n in (3, 5, 8):
        assert catalog_group(f"D{n}").n == 2 * n
        assert not is_abelian(catalog_group(f"D{n}"))
    for n in (7, 30, 64):
        g = catalog_group(f"C{n}")
        assert g.n == n
        assert is_abelian(g)
