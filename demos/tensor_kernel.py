"""Build the relative tensor presentation for a pair of normal subgroups,
then compute the kernel of its boundary map by two different coset
enumeration strategies and check they agree.  The last row is the full
triple of S3, whose raw presentation has 49,176 relators; the kernel is
enumerated from its Tietze reduction."""

from picolim.catalog import catalog_group, catalog_subgroup
from picolim.colimit import NormalTuple
from picolim.tensor import build_T, crossed_module_check, kernel_of_boundary, relator_soundness

g = catalog_group("S3")
a3 = catalog_subgroup("S3", "A3")
tp = build_T(NormalTuple(g, (a3, a3)))

print(f"T(A3, A3) inside S3: {len(tp.symbols)} symbols")
print(f"relator families: {tp.families}")
print(f"unsound relators: {len(relator_soundness(tp))}")
ok, witness = crossed_module_check(tp)
print(f"crossed-module compatibility: {ok}")
print()

for strategy in ("hlt", "felsch"):
    out = kernel_of_boundary(tp, strategy=strategy)
    print(f"{strategy}: |T| = {out['t_order']}, image order = {out['image_order']}, "
          f"kernel = {out['invariants']}")
print()

triple = build_T(NormalTuple(g, (g.full_subgroup(),) * 3))
reduced, _ = triple.reduction()
print(f"T(S3, S3, S3): {len(triple.base.generators)} generators, "
      f"{len(triple.base.relators)} relators; Tietze-reduced "
      f"{len(reduced.generators)} generators, {len(reduced.relators)} relators")
for strategy in ("hlt", "felsch"):
    out = kernel_of_boundary(triple, strategy=strategy)
    print(f"{strategy}: |T| = {out['t_order']}, image order = {out['image_order']}, "
          f"kernel = {out['invariants']}, verified = {out['verified']}")
