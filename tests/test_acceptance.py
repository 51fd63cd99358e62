"""Acceptance checks: one test per shipped claim, one printed line each.

Each test prints `criterion NN: PASS/FAIL (elapsed) detail` before its
asserts so a full run reads as a checklist.  Time budgets are part of the
claims and are asserted after the content checks.
"""

import json
import random
import time
from itertools import permutations, product
from math import gcd

import pytest

from oracles import abelian_invariants, check_equality_13, is_abelian
from picolim.abelian import AbelianInvariants
from picolim.catalog import (
    all_catalog_names_of_order_at_most,
    catalog_group,
    catalog_names,
    groups_of_order_at_most,
)
from picolim.cli import main
from picolim.colimit import (
    NormalTuple,
    hopf_h3_check,
    is_connected_tuple,
    pi_2_colimit_n3,
    pi_n_colimit,
    search_disconnected_triple,
)
from picolim.finite import abelian_invariants_of_quotient
from picolim.hall import HallBasis
from picolim.nilpotent import central_quotient_invariants, free_nilpotent
from picolim.nilpotent import subgroup as pc_subgroup
from picolim.tensor import build_T, crossed_module_check, kernel_of_boundary, relator_soundness
from picolim.words import Word, hopf_element
from picolim.wu import WuConfiguration, membership_check, wu_group


def _line(num, ok, elapsed, budget, detail):
    status = "PASS" if ok and elapsed < budget else "FAIL"
    print(f"criterion {num:02d}: {status} ({elapsed:.1f}s) {detail}")
    assert ok, detail
    assert elapsed < budget, f"criterion {num} took {elapsed:.1f}s, budget {budget}s"


def _cli_json(capsys, *argv):
    code = main([*argv, "--json"])
    out = capsys.readouterr().out
    return code, json.loads(out)


def test_criterion_01_sphere_rank_one(capsys):
    t0 = time.time()
    code, payload = _cli_json(capsys, "wu", "--n", "1", "--class", "2")
    ok = code == 0 and payload["invariants"] == {"free_rank": 1, "torsion": []}
    _line(1, ok, time.time() - t0, 1.0, "wu n=1 c=2 reports Z")


def test_criterion_02_rank2_generator_survives(capsys):
    t0 = time.time()
    ok = True
    for c in (3, 4):
        code, payload = _cli_json(
            capsys, "wu", "--n", "2", "--class", str(c), "--member", "[y0,y1]"
        )
        member = payload["membership"]
        ok = ok and code == 0
        ok = ok and payload["invariants"] == {"free_rank": 1, "torsion": []}
        ok = ok and member["in_numerator"] and not member["in_denominator"]
        ok = ok and member["order_in_quotient"] is None
        # generator, not just infinite order: adjoining it kills the quotient
        cfg = WuConfiguration(2, c)
        G = cfg.group()
        enlarged = cfg.denominator().product(
            pc_subgroup(G, [G.collect(hopf_element(1))])
        )
        quotient = central_quotient_invariants(cfg.numerator(), enlarged)
        ok = ok and quotient == AbelianInvariants(0, ())
    _line(2, ok, time.time() - t0, 10.0, "wu n=2 c=3,4 report Z generated by [y0,y1]")


def test_criterion_03_rank3_torsion_two():
    t0 = time.time()
    cfg = WuConfiguration(3, 5)
    invariants = wu_group(cfg)
    ok = invariants.free_rank == 0 and invariants.torsion == (2,)
    h = hopf_element(2)
    out = membership_check(h, cfg)
    ok = ok and out["in_numerator"] and not out["in_denominator"]
    ok = ok and out["order_in_quotient"] == 2
    sq = membership_check(h * h, cfg)
    ok = ok and sq["in_denominator"] and sq["order_in_quotient"] == 1
    _line(3, ok, time.time() - t0, 600.0,
          "wu n=3 c=5 is Z/2; hopf element survives, its square dies")


def test_criterion_04_denominator_equals_symmetric_commutator():
    t0 = time.time()
    ok = True
    for n, c in ((2, 3), (2, 4), (2, 5), (2, 6), (3, 4), (3, 5), (4, 4), (4, 5)):
        equal, report = check_equality_13(n, c)
        ok = ok and equal and not report["denominator_only"] and not report["symmetric_only"]
    _line(4, ok, time.time() - t0, 300.0,
          "tuple denominator matches the symmetric commutator at (2,3..6),(3,4),(3,5),(4,4),(4,5)")


def test_criterion_05_pair_formula_vs_direct():
    t0 = time.time()
    checked = 0
    ok = True
    for name in all_catalog_names_of_order_at_most(24):
        g = catalog_group(name)
        normals = g.normal_subgroups()
        for m, n in product(normals, repeat=2):
            rep = pi_n_colimit(NormalTuple(g, (m, n)))
            direct = abelian_invariants_of_quotient(m.intersect(n), m.commutator(n))
            ok = ok and rep.invariants == direct
            checked += 1
    _line(5, ok, time.time() - t0, 60.0,
          f"pi_2 equals (M cap N)/[M,N] on {checked} normal pairs of order <= 24")


def test_criterion_06_triple_formula_symmetric():
    t0 = time.time()
    rng = random.Random(7)
    names = all_catalog_names_of_order_at_most(48)
    ok = True
    for _ in range(100):
        g = catalog_group(rng.choice(names))
        normals = g.normal_subgroups()
        trip = tuple(rng.choice(normals) for _ in range(3))
        vals = {str(pi_2_colimit_n3(*p).invariants) for p in permutations(trip)}
        ok = ok and len(vals) == 1
    _line(6, ok, time.time() - t0, 120.0,
          "pi_2 invariants agree under all 6 orderings for 100 seeded triples, order <= 48")


def test_criterion_07_abelian_full_triple():
    t0 = time.time()
    checked = 0
    ok = True
    for name in catalog_names():
        if name == "V4":  # alias of C2xC2
            continue
        g = catalog_group(name)
        if not is_abelian(g):
            continue
        full = g.full_subgroup()
        rep = pi_n_colimit(NormalTuple(g, (full, full, full)))
        ok = ok and rep.invariants == abelian_invariants(g)
        checked += 1
    _line(7, ok, time.time() - t0, 10.0,
          f"pi_3 of the full triple equals the group invariants for {checked} abelian groups")


def test_criterion_08_balanced_trivial_presentations(capsys):
    worst = 0.0
    ok = True
    for argv in (
        ("akcheck", "--n", "2"),
        ("akcheck", "--n", "3"),
        ("akcheck", "--alt"),
    ):
        t0 = time.time()
        code, payload = _cli_json(capsys, *argv)
        dt = time.time() - t0
        worst = max(worst, dt)
        ok = ok and code == 0 and payload["trivial"] and payload["order"] == 1
    _line(8, ok, worst, 30.0,
          "both two-relator families collapse to the trivial group (slowest run shown)")


def test_criterion_09_tensor_relators_sound():
    t0 = time.time()
    ok = True
    for name in groups_of_order_at_most(8):
        g = catalog_group(name)
        for n in (2, 3):
            tp = build_T(NormalTuple(g, (g.full_subgroup(),) * n))
            ok = ok and relator_soundness(tp) == []
            crossed, witness = crossed_module_check(tp)
            ok = ok and crossed
    _line(9, ok, time.time() - t0, 60.0,
          "all tensor relators die under the boundary; crossed action compatible, order <= 8")


def test_criterion_10_dual_strategy_kernels():
    t0 = time.time()
    ok = True
    checked = 0
    for name in groups_of_order_at_most(4):
        g = catalog_group(name)
        normals = g.normal_subgroups()
        for m, n in product(normals, repeat=2):
            tp = build_T(NormalTuple(g, (m, n)))
            hlt = kernel_of_boundary(tp, strategy="hlt")
            fel = kernel_of_boundary(tp, strategy="felsch")
            for key in ("t_order", "kernel_order", "invariants"):
                ok = ok and hlt[key] == fel[key]
            checked += 1
    g = catalog_group("C2")
    tp = build_T(NormalTuple(g, (g.full_subgroup(),) * 3))
    hlt = kernel_of_boundary(tp, strategy="hlt")
    fel = kernel_of_boundary(tp, strategy="felsch")
    ok = ok and hlt["t_order"] == fel["t_order"] == 8
    ok = ok and hlt["invariants"] == fel["invariants"]
    _line(10, ok, time.time() - t0, 300.0,
          f"HLT and Felsch agree on {checked} pair inputs and the order-2 triple")


def test_criterion_11_h3_truncations_trivial():
    t0 = time.time()
    x, y = Word.gen(0), Word.gen(1)
    ok = True
    for r, s in ((y, y), (x, y)):
        rep = hopf_h3_check(["x", "y"], r, s, 3)
        ok = ok and rep.invariants == AbelianInvariants(0, ())
    _line(11, ok, time.time() - t0, 60.0,
          "third-homology quotient trivial for (r=s=y) and (r=x, s=y) at class 3")


def test_criterion_12_connectivity_gate(capsys):
    t0 = time.time()
    ok = True
    pairs = 0
    for name in catalog_names():
        if name == "V4":
            continue
        g = catalog_group(name)
        normals = g.normal_subgroups()
        for a, b in product(normals, repeat=2):
            ok = ok and is_connected_tuple(NormalTuple(g, (a, b))) == (True, None)
            pairs += 1
    findings = search_disconnected_triple(max_order=16)
    ok = ok and findings and findings[0][0] == "C2xC2"
    code = main([
        "pi", "--n", "4", "--group", "catalog:C2xC2",
        "--subgroups", "{a},{b},{a*b},trivial", "--json",
    ])
    payload = json.loads(capsys.readouterr().out)
    ok = ok and code == 2 and payload["status"] == "hypothesis-failed"
    _line(12, ok, time.time() - t0, 300.0,
          f"{pairs} pairs connected; searcher finds the order-4 violator; formula refuses with exit 2")


def _mobius_oracle(n):
    out = 1
    p = 2
    while p * p <= n:
        if n % p == 0:
            n //= p
            if n % p == 0:
                return 0
            out = -out
        else:
            p += 1
    return -out if n > 1 else out


def test_criterion_13_basis_sizes_match_witt():
    t0 = time.time()
    ok = True
    for r in range(1, 5):
        for c in range(1, 6):
            expected = 0
            for w in range(1, c + 1):
                total = sum(
                    _mobius_oracle(d) * r ** (w // d)
                    for d in range(1, w + 1) if w % d == 0
                )
                expected += total // w
            ok = ok and HallBasis(r, c).size == expected
            ok = ok and free_nilpotent(r, c).basis.size == expected
    _line(13, ok, time.time() - t0, 1.0,
          "basis sizes match the independent divisor-sum oracle for r <= 4, c <= 5")


# A (x) A over Z for an abelian A = Z/m_1 x ... x Z/m_k is the sum of
# Z/gcd(m_i, m_j) over ordered pairs of cyclic factors; for 2-groups the
# sorted gcds already form a divisibility chain.
ABELIAN_FACTORS = {"C8": (8,), "C4xC2": (4, 2), "C2xC2xC2": (2, 2, 2)}


@pytest.mark.parametrize(
    "name,n", [("C8", 2), ("C4xC2", 2), ("C2xC2xC2", 2), ("D4", 2), ("Q8", 2), ("S3", 3)]
)
def test_criterion_14_order_eight_pairs_and_s3_triple(name, n):
    t0 = time.time()
    g = catalog_group(name)
    tp = build_T(NormalTuple(g, (g.full_subgroup(),) * n))
    out = kernel_of_boundary(tp, strategy="hlt")
    ok = out["verified"]
    detail = f"full {n}-tuple of {name}: |T| = {out['t_order']}, kernel {out['invariants']}"
    if name in ABELIAN_FACTORS:
        factors = ABELIAN_FACTORS[name]
        expected = AbelianInvariants(0, sorted(gcd(a, b) for a in factors for b in factors))
        ok = ok and out["invariants"] == expected and out["t_order"] == expected.order()
        detail += ", verified, equal to A (x)_Z A"
    else:
        fel = kernel_of_boundary(tp, strategy="felsch")
        ok = ok and fel["verified"]
        ok = ok and all(out[key] == fel[key] for key in ("t_order", "kernel_order", "invariants"))
        detail += ", verified, HLT = Felsch"
    _line(14, ok, time.time() - t0, 5.0, detail)
