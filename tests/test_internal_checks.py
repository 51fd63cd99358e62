"""Internal checks of every module that holds one still fire under python -O,
no module under src/picolim holds an `assert`, which -O strips, and none
reads the environment."""

import ast
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

# every torsion product reads 1, so the order comes out as 1
ab.prod = lambda torsion: 1
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

_TENSOR_CENTRAL = """
import picolim.tensor as tensor
from picolim.catalog import catalog_group
from picolim.colimit import NormalTuple

a4 = catalog_group("A4")
tp = tensor.build_T(NormalTuple(a4, (a4.derived_subgroup(), a4.full_subgroup())))
# every symbol now bounds 1, so all of T, of order 8 and nonabelian, passes for the kernel
tensor.TensorPresentation.boundary_of = lambda self, sym: 0
try:
    tensor.kernel_of_boundary(tp)
except InternalError as exc:
    print("InternalError:", exc)
"""

_TIETZE = """
import picolim.tensor as tensor
from picolim.catalog import catalog_group
from picolim.colimit import NormalTuple

tietze = tensor.tietze

def one_sign_flipped(p):
    reduced, image = tietze(p)
    # the first column identified with a lower one now equals its inverse
    x = next(x for x in range(2, len(image), 2) if image[x] is not None and image[x] in image[:x])
    image[x] ^= 1
    image[x + 1] ^= 1
    return reduced, image

tensor.tietze = one_sign_flipped
g = catalog_group(GROUP)
try:
    tensor.kernel_of_boundary(tensor.build_T(NormalTuple(g, (g.full_subgroup(),) * 2)))
except InternalError as exc:
    print("InternalError:", exc)
"""

_NILPOTENT = """
import picolim.nilpotent as nilpotent

nilpotent.PcSubgroup.contains_subgroup = lambda self, other: False
G = nilpotent.free_nilpotent(2, 2)
H = nilpotent.normal_closure_pc(G, [G.gen(0)])
try:
    nilpotent.intersect_pc(H, G.full_subgroup())
except InternalError as exc:
    print("InternalError:", exc)
"""

_MAGNUS = """
import picolim.magnus as magnus
from picolim.nilpotent import free_nilpotent

lie = magnus.ConjugationTable.lie
# every Lie part doubled: extraction divides out twice what it reads
magnus.ConjugationTable.lie = lambda self, k: {m: 2 * c for m, c in lie(self, k).items()}
G = free_nilpotent(2, 3)
try:
    G.mul(G.gen(1), G.gen(0))
except InternalError as exc:
    print("InternalError:", exc)
"""

_HALL = """
import picolim.hall as hall

hall.witt_number = lambda r, w: 1
try:
    hall.HallBasis(2, 3)
except InternalError as exc:
    print("InternalError:", exc)
"""

_COLIMIT = """
import picolim.finite as finite
from picolim.catalog import catalog_group
from picolim.colimit import NormalTuple, pi_n_colimit

finite.FinSubgroup.contains_subgroup = lambda self, other: False
s3 = catalog_group("S3")
try:
    pi_n_colimit(NormalTuple(s3, (s3.derived_subgroup(), s3.full_subgroup())))
except InternalError as exc:
    print("InternalError:", exc)
"""

_WU = """
from picolim.wu import WuConfiguration, wu_group

cfg = WuConfiguration(2, 3)
cfg._num = cfg.group().trivial_subgroup()
try:
    wu_group(cfg)
except InternalError as exc:
    print("InternalError:", exc)
"""

_WU_ROTATION = """
from picolim.wu import WuConfiguration

cfg = WuConfiguration(2, 3)
G = cfg.group()
# y_-1 replaced by [y0, y1]: the rotation is no automorphism and shrinks the closure
cfg.letters = [G.comm(G.gen(0), G.gen(1))] + G.gens()
try:
    cfg.closures()
except InternalError as exc:
    print("InternalError:", exc)
"""

_CATALOG = """
import picolim.catalog as catalog

order, text, subgroups = catalog._registry["S3"]
catalog._registry["S3"] = (order + 1, text, subgroups)
try:
    catalog.catalog_group("S3")
except InternalError as exc:
    print("InternalError:", exc)
"""


@pytest.mark.parametrize(
    "script,message",
    [
        (_ABELIAN, "order 1 does not put the element in the lattice"),
        (_COSET, "relator does not stabilize the cosets"),
        (_TENSOR, "direct kernel Z/2 differs from Schreier rewriting Z x Z/2"),
        (_TENSOR_CENTRAL, "the kernel of the boundary is not central in T"),
        # C3 has a trivial boundary, so only the raw relators see the flip
        ('GROUP = "C3"' + _TIETZE, "a raw relator does not hold in the Tietze-reduced table"),
        ('GROUP = "S3"' + _TIETZE, "column 20 and its Tietze image have different boundary steps"),
        (_NILPOTENT, "intersection escapes one of its operands"),
        (_MAGNUS, "series is not the image of a group element"),
        (_HALL, "Lyndon word counts disagree with Witt numbers"),
        (_COLIMIT, "denominator must lie in the numerator"),
        (_WU, "denominator escapes the numerator"),
        (_WU_ROTATION, "the rotated closure of y_{n-1} is not the closure of y_-1"),
        (_CATALOG, "catalog group S3 realized with order 6, expected 7"),
    ],
    ids=[
        "abelian", "coset", "tensor", "tensor-central", "tietze-relators", "tietze-steps",
        "nilpotent", "magnus", "hall", "colimit", "wu", "wu-rotation", "catalog",
    ],
)
def test_internal_check_fires_under_optimize(script, message):
    env = dict(os.environ, PYTHONPATH=SRC)
    proc = subprocess.run(
        [sys.executable, "-O", "-c", _PRELUDE + script],
        capture_output=True, text=True, env=env, timeout=60,
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == f"InternalError: {message}"


def _package_nodes():
    """(module file name, node) for every syntax node under src/picolim."""
    package = os.path.join(SRC, "picolim")
    for name in sorted(os.listdir(package)):
        if name.endswith(".py"):
            with open(os.path.join(package, name), encoding="utf-8") as fh:
                tree = ast.parse(fh.read(), filename=name)
            for node in ast.walk(tree):
                yield name, node


def test_no_assert_statements_in_the_package():
    found = [f"{name}:{node.lineno}" for name, node in _package_nodes()
             if isinstance(node, ast.Assert)]
    assert found == [], "use InternalError, which survives python -O: " + ", ".join(found)


_ENVIRONMENT = {"environ", "environb", "getenv", "getenvb"}


def test_no_environment_reads_in_the_package():
    # budgets and limits are module constants or flags, never override variables
    found = [
        f"{name}:{node.lineno}" for name, node in _package_nodes()
        if isinstance(node, ast.Attribute) and node.attr in _ENVIRONMENT
        or isinstance(node, ast.ImportFrom) and node.module == "os"
        and any(alias.name in _ENVIRONMENT for alias in node.names)
    ]
    assert found == [], "the package reads the environment at " + ", ".join(found)


_NAME_GRAMMAR = {"NAME", "valid_generator_name"}


def test_name_grammar_lives_only_in_presentations():
    # inside the package a letter is an index; only the DSL knows names
    found = [
        f"{name}:{node.lineno}" for name, node in _package_nodes()
        if name != "presentations.py" and (
            isinstance(node, ast.Name) and node.id in _NAME_GRAMMAR
            or isinstance(node, ast.Attribute) and node.attr in _NAME_GRAMMAR
            or isinstance(node, ast.ImportFrom) and any(a.name in _NAME_GRAMMAR for a in node.names)
        )
    ]
    assert found == [], "the name grammar is used outside presentations at " + ", ".join(found)
