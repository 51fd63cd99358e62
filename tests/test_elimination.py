"""Sparse Hermite and Smith forms against the dense oracles."""

import random

import pytest

import picolim.tensor
from oracles import dense, hermite_reduce_dense, smith_normal_form_dense, sparse
from picolim.abelian import hermite_reduce, smith_normal_form
from picolim.catalog import catalog_group, groups_of_order_at_most
from picolim.colimit import NormalTuple
from picolim.coset import coset_table_from_action, schreier_rewrite_matrix
from picolim.tensor import boundary_action, build_T, kernel_of_boundary


def _random_matrix(rng):
    nrows = rng.randint(0, 8)
    ncols = rng.randint(1, 8)
    density = rng.random()
    bound = rng.choice([1, 9, 10**6])
    rows = [
        [rng.randint(-bound, bound) if rng.random() < density else 0 for _ in range(ncols)]
        for _ in range(nrows)
    ]
    if rows and rng.random() < 0.3:  # rank-deficient: a combination of two rows
        a, b = rng.choice(rows), rng.choice(rows)
        k = rng.randint(-3, 3)
        rows.append([x + k * y for x, y in zip(a, b)])
    if rng.random() < 0.2:
        rows.insert(rng.randint(0, len(rows)), [0] * ncols)
    return rows, ncols


def _assert_unit_pivot_columns_clear(hnf):
    for i, row in enumerate(hnf):
        col, v = row[0]
        if v == 1:
            assert all(c != col for k, other in enumerate(hnf) if k != i for c, _ in other)


def _assert_routes_agree(rows, ncols):
    """Sparse routes on the sparse form of the dense rows, against the
    dense oracles on the rows themselves."""
    hnf = hermite_reduce(sparse(rows))
    assert hnf == sparse(hermite_reduce_dense(rows, ncols))
    assert smith_normal_form(sparse(rows), ncols) == smith_normal_form_dense(rows, ncols)
    _assert_unit_pivot_columns_clear(hnf)


def test_random_matrices_match_dense():
    rng = random.Random(2024)
    for _ in range(1500):
        _assert_routes_agree(*_random_matrix(rng))


@pytest.mark.parametrize(
    "rows,ncols",
    [
        ([], 3),
        ([[]], 0),
        ([[0, 0, 0], [0, 0, 0]], 3),
        ([[10**6, 0], [0, -(10**6 - 1)], [999_983, 1]], 2),
        ([[2, 4, 6], [1, 2, 3], [3, 6, 9]], 3),
    ],
)
def test_edge_matrices_match_dense(rows, ncols):
    _assert_routes_agree(rows, ncols)


def _schreier_matrices(monkeypatch, tuples):
    built = []
    rewrite = picolim.tensor.schreier_rewrite_matrix

    def record(table, relators):
        out = rewrite(table, relators)
        built.append(out)
        return out

    monkeypatch.setattr(picolim.tensor, "schreier_rewrite_matrix", record)
    for nt in tuples:
        kernel_of_boundary(build_T(nt))
    return built


def _raw_schreier_matrix(tp):
    """Schreier matrix of the kernel from the raw presentation of T, which
    has every relator instance, so its rows are many and sparse."""
    _, perms = boundary_action(tp, tp.steps)
    table = coset_table_from_action(perms)
    return schreier_rewrite_matrix(table, tp.base.relators)


def _kernel_tuples():
    tuples = []
    for name in groups_of_order_at_most(4):
        g = catalog_group(name)
        normal = g.normal_subgroups()
        tuples.extend(NormalTuple(g, (m, n)) for m in normal for n in normal)
    s3 = catalog_group("S3")
    tuples.append(NormalTuple(s3, (s3.full_subgroup(),) * 2))
    return tuples


def test_schreier_matrices_match_dense(monkeypatch):
    tuples = _kernel_tuples()
    built = _schreier_matrices(monkeypatch, tuples)
    assert len(built) == len(tuples)
    for rows, ncols in built:
        assert sparse(dense(rows, ncols)) == rows  # nonzero pairs, in column order
        _assert_routes_agree(dense(rows, ncols), ncols)


def test_raw_schreier_matrices_match_dense():
    for nt in _kernel_tuples():
        rows, ncols = _raw_schreier_matrix(build_T(nt))
        assert sparse(dense(rows, ncols)) == rows
        _assert_routes_agree(dense(rows, ncols), ncols)
