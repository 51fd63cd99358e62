"""The four benchmark workloads: seeded inputs, the calls, the references.

Each workload is a list of cases made by `make_cases(workload, seed)` from
plain data (names, numbers), so building the inputs touches no engine.  A
case runs through the public API of `picolim`, checks its answers, and
returns their exact values.  A case fails when it raises or when any
answer differs from its reference.

References are independent facts where one exists (homotopy groups of
spheres, HLT against Felsch, simplicity of A5).  Where none exists the
exact counts of the seed commit are compared instead; those checks are
labelled "seed digest" in the failure messages, and their values live in
`digests.json` beside this file.

The seed draws only the sampled triples of finite-lattice.  Every other
input, and the order of the cases, is fixed: the peak resident set depends
on which caches are alive when the largest case runs, so shuffling the
cases moved peak_rss_mb by up to 7 % between seeds.

Caches inside one run (the catalog, subgroup lattices, lazy Wu subgroups)
are shared across cases, as they are for a library user; every run starts
in a fresh interpreter, so runs never share them.
"""

import json
import os
import random
from itertools import permutations, product

from picolim import catalog, colimit, finite, presentations, tensor, words, wu

DIGESTS_PATH = os.path.join(os.path.dirname(os.path.abspath(__file__)), "digests.json")

# A5 as the (2, 3, 5) triangle group; the DSL has no powers of products.
A5_TEXT = "gens: a,b | rels: a^2, b^3, " + "*".join(["a*b"] * 5)
# Dihedral group of order 800; D16 is the largest in the catalog.
D400_TEXT = "gens: r,s | rels: r^400, s^2, s*r*s^-1*r"


class Mismatch(Exception):
    """An answer differs from its reference."""


def expect(label, got, want):
    if got != want:
        raise Mismatch(f"{label}: got {got!r}, want {want!r}")


# -- wu-sphere -----------------------------------------------------------------


def wu_cases(rng):
    return [("wu", 2, 6), ("wu", 3, 4), ("braid", 4)]


# pi_{n+1}(S^2) for the truncations measured: Z at n = 2, Z/2 at n = 3.
SPHERE_GROUPS = {2: {"free_rank": 1, "torsion": []}, 3: {"free_rank": 0, "torsion": [2]}}


def run_wu(case):
    if case[0] == "braid":
        rep = wu.braid_check(case[1])
        expect("braid pairs all equal", rep["all_equal"], True)
        return [[p["intersection_rows"], p["commutator_rows"]] for p in rep["pairs"]]
    _, n, c = case
    cfg = wu.WuConfiguration(n, c)
    rep = wu.wu_report(cfg)
    expect(f"pi_{n + 1}(S^2)", rep["invariants"], SPHERE_GROUPS[n])
    h = words.hopf_element(n - 1)
    m1 = wu.membership_check(h, cfg)
    m2 = wu.membership_check(h * h, cfg)
    expect("hopf element in numerator", m1["in_numerator"], True)
    expect("hopf element outside denominator", m1["in_denominator"], False)
    if n == 2:
        # generator of Z: infinite order, and so is its square
        expect("hopf element order", m1["order_in_quotient"], None)
        expect("hopf square survives", m2["in_denominator"], False)
    else:
        expect("hopf element order", m1["order_in_quotient"], 2)
        expect("hopf square dies", (m2["in_denominator"], m2["order_in_quotient"]), (True, 1))
    return {"numerator": rep["numerator"], "denominator": rep["denominator"]}


# -- tensor-build --------------------------------------------------------------


def tensor_build_cases(rng):
    cases = [
        ("full", name, n)
        for name in catalog.groups_of_order_at_most(8)
        for n in ((2, 3) if catalog.declared_order(name) <= 6 else (2,))
    ]
    return cases


def full_tuple(name, n):
    g = catalog.catalog_group(name)
    return colimit.NormalTuple(g, (g.full_subgroup(),) * n)


def run_tensor_build(case):
    _, name, n = case
    tp = tensor.build_T(full_tuple(name, n))
    expect("relators die under the boundary", tensor.relator_soundness(tp), [])
    expect("crossed module compatible", tensor.crossed_module_check(tp), (True, None))
    return {"symbols": len(tp.symbols), "families": dict(tp.families)}


# -- tensor-kernel -------------------------------------------------------------


def tensor_kernel_cases(rng):
    cases = [("pairs", name) for name in catalog.groups_of_order_at_most(4)]
    cases += [("full", "C2", 3), ("full", "S3", 2), ("full", "C8", 2),
              ("full", "C3", 3), ("full", "C4", 3)]
    return cases


def kernel_both(t):
    tp = tensor.build_T(t)
    hlt = tensor.kernel_of_boundary(tp, strategy="hlt")
    fel = tensor.kernel_of_boundary(tp, strategy="felsch")
    for key in ("t_order", "kernel_order", "invariants"):
        expect(f"HLT equals Felsch on {key}", hlt[key], fel[key])
    expect("direct realisation agrees with Schreier rewriting",
           (hlt["verified"], fel["verified"]), (True, True))
    return [hlt["t_order"], hlt["kernel_order"], str(hlt["invariants"])]


def run_tensor_kernel(case):
    if case[0] == "full":
        return [kernel_both(full_tuple(case[1], case[2]))]
    g = catalog.catalog_group(case[1])
    normals = g.normal_subgroups()
    return [kernel_both(colimit.NormalTuple(g, p)) for p in product(normals, repeat=2)]


# -- finite-lattice ------------------------------------------------------------

TRIPLES = 100


def finite_lattice_cases(rng):
    names = [n for n in catalog.catalog_names() if n != "V4"]  # V4 aliases C2xC2
    cases = [("pairs-connected", name) for name in names]
    cases += [("pair-formula", name)
              for name in catalog.all_catalog_names_of_order_at_most(24)]
    small = catalog.all_catalog_names_of_order_at_most(48)
    # indices into the normal subgroup list are taken modulo its length at
    # run time, so the inputs need no engine work
    cases += [("triple", rng.choice(small), tuple(rng.randrange(1 << 30) for _ in range(3)))
              for _ in range(TRIPLES)]
    cases += [("simple", "A5"), ("pi2", "D400")]
    return cases


def run_finite_lattice(case):
    kind, name = case[0], case[1]
    if kind == "simple":
        g = finite.FiniteGroup.from_presentation(
            presentations.parse_presentation(A5_TEXT), name="A5")
        orders = [h.order() for h in g.normal_subgroups()]
        expect("A5 is simple", orders, [1, 60])
        return orders
    if kind == "pi2":
        g = finite.FiniteGroup.from_presentation(
            presentations.parse_presentation(D400_TEXT), name="D400")
        t = colimit.NormalTuple(g, (g.derived_subgroup(), g.full_subgroup()))
        inv = colimit.pi_n_colimit(t).invariants
        expect("pi_2 of (derived, full) in D400", str(inv), "Z/2")
        return str(inv)
    g = catalog.catalog_group(name)
    normals = g.normal_subgroups()
    if kind == "triple":
        trip = tuple(normals[r % len(normals)] for r in case[2])
        vals = {str(colimit.pi_2_colimit_n3(*p).invariants) for p in permutations(trip)}
        expect("pi_2 invariant under the 6 orderings", len(vals), 1)
        return sorted(vals)
    if kind == "pairs-connected":
        for pair in product(normals, repeat=2):
            t = colimit.NormalTuple(g, pair)
            expect("normal pair connected", colimit.is_connected_tuple(t), (True, None))
        return len(normals)
    out = []
    for m, n in product(normals, repeat=2):
        rep = colimit.pi_n_colimit(colimit.NormalTuple(g, (m, n)))
        direct = finite.abelian_invariants_of_quotient(m.intersect(n), m.commutator(n))
        expect("pi_2 formula equals (M cap N)/[M,N]", rep.invariants, direct)
        out.append(str(direct))
    return out


WORKLOADS = {
    "wu-sphere": (wu_cases, run_wu),
    "tensor-build": (tensor_build_cases, run_tensor_build),
    "tensor-kernel": (tensor_kernel_cases, run_tensor_kernel),
    "finite-lattice": (finite_lattice_cases, run_finite_lattice),
}


def case_key(case):
    """Digest key of a case; the sampled triples have no digest."""
    if case[0] == "triple":
        return None
    return "/".join(str(x) for x in case)


def make_cases(workload, seed):
    return WORKLOADS[workload][0](random.Random(seed))


def load_digests():
    with open(DIGESTS_PATH) as fh:
        return json.load(fh)


def run_case(workload, case, digests):
    """None when the case passes, else the failure message.

    Besides its own references, every case but a sampled triple is compared
    with its seed digest.
    """
    key = case_key(case)
    try:
        value = WORKLOADS[workload][1](case)
        if key is not None:
            expect("seed digest", json.loads(json.dumps(value)), digests[workload][key])
    except Mismatch as exc:
        return f"{key or case}: {exc}"
    except Exception as exc:  # a raising case counts as failed, never as a time
        return f"{key or case}: {type(exc).__name__}: {exc}"
    return None
