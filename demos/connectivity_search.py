"""Scan small groups for normal triples that break the connectivity
hypothesis, then show how the formula refuses such a tuple.

Pairs are always connected; the smallest violations appear among triples
in the order-4 elementary abelian group.
"""

from picolim.catalog import catalog_group, catalog_subgroup
from picolim.colimit import NormalTuple, pi_n_colimit, search_disconnected_triple
from picolim.errors import ConnectivityError

findings = search_disconnected_triple(max_order=8, stop_at_first=False)
print(f"violations among triples of order <= 8: {len(findings)}")
for name, orders, (I, J) in findings[:5]:
    print(f"  {name}: subgroup orders {orders}, witness I={I} J={J}")

g = catalog_group("C2xC2")
subs = tuple(catalog_subgroup("C2xC2", s) for s in ("{a}", "{b}", "{a*b}"))
try:
    pi_n_colimit(NormalTuple(g, subs))
except ConnectivityError as exc:
    print()
    print(f"refused: {exc.args[0]}")
    print(f"  witness: I={exc.witness[0]} J={exc.witness[1]}")
    print(f"  transcript: {len(exc.transcript)} subset pairs checked")
