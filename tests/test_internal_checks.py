"""Internal checks of abelian, coset and tensor still fire under python -O."""

import os
import subprocess
import sys

import pytest

SRC = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")

_PRELUDE = """
from picolim.errors import InternalError

assert False, "asserts must be off under -O"
"""

_ABELIAN = """
import picolim.abelian as ab

ab.in_lattice = lambda vec, basis: False
try:
    ab.order_in_quotient([1, 0], [[2, 0]], 2)
except InternalError as exc:
    print("InternalError:", exc)
"""

_COSET = """
from picolim.coset import coset_table_from_action, schreier_rewrite_matrix

# x swaps two points, so the relator x does not fix them
table = coset_table_from_action(("x",), [[1, 1], [0, 0]])
try:
    schreier_rewrite_matrix(table, [(0,)])
except InternalError as exc:
    print("InternalError:", exc)
"""

_TENSOR = """
import picolim.tensor as tensor
from picolim.catalog import catalog_group
from picolim.colimit import NormalTuple

rewrite = tensor.schreier_rewrite_matrix

def one_free_column_too_many(table, relators):
    rows, ncols = rewrite(table, relators)
    return [row + [0] for row in rows], ncols + 1

tensor.schreier_rewrite_matrix = one_free_column_too_many
c2 = catalog_group("C2")
try:
    tensor.kernel_of_boundary(tensor.build_T(NormalTuple(c2, (c2.full_subgroup(),) * 2)))
except InternalError as exc:
    print("InternalError:", exc)
"""


@pytest.mark.parametrize(
    "script,message",
    [
        (_ABELIAN, "order found over Q is not an order in the lattice"),
        (_COSET, "relator does not stabilize the cosets"),
        (_TENSOR, "direct kernel Z/2 differs from Schreier rewriting Z x Z/2"),
    ],
    ids=["abelian", "coset", "tensor"],
)
def test_internal_check_fires_under_optimize(script, message):
    env = dict(os.environ, PYTHONPATH=SRC)
    proc = subprocess.run(
        [sys.executable, "-O", "-c", _PRELUDE + script],
        capture_output=True, text=True, env=env, timeout=60,
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == f"InternalError: {message}"
