import json
import os
import subprocess
import sys

import pytest

from picolim import catalog, cli, tensor
from picolim.abelian import AbelianInvariants
from picolim.cli import main


def _run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def _run_json(capsys, *argv):
    code, out, err = _run(capsys, *argv, "--json")
    return code, json.loads(out), err


def test_connectivity_connected(capsys):
    code, payload, _ = _run_json(
        capsys, "connectivity", "--group", "catalog:S4",
        "--subgroups", "V4,A4,full",
    )
    assert code == 0
    assert payload["schema"] == 2
    assert payload["connected"] is True
    assert payload["orders"] == [4, 12, 24]


def test_connectivity_violation_reported(capsys):
    code, payload, _ = _run_json(
        capsys, "connectivity", "--group", "catalog:C2xC2",
        "--subgroups", "{a},{b},{a*b}",
    )
    assert code == 0  # the check itself succeeds; the tuple just fails it
    assert payload["connected"] is False
    assert set(payload["witness"]) == {"I", "J"}


def test_connectivity_search(capsys):
    code, payload, _ = _run_json(capsys, "connectivity", "--search-order", "4")
    assert code == 0
    assert payload["certified_none"] is False
    assert payload["violations"][0]["group"] == "C2xC2"


def test_connectivity_needs_group_or_search(capsys):
    code, _, err = _run(capsys, "connectivity")
    assert code == 1
    assert "search-order" in err


def test_pi_result(capsys):
    code, payload, _ = _run_json(
        capsys, "pi", "--n", "2", "--group", "catalog:S3", "--subgroups", "A3,A3",
    )
    assert code == 0
    assert payload["invariants"] == {"free_rank": 0, "torsion": [3]}
    assert payload["verb"] == "pi"


def test_pi_subgroup_count_mismatch(capsys):
    code, _, err = _run(
        capsys, "pi", "--n", "3", "--group", "catalog:S3", "--subgroups", "A3,A3",
    )
    assert code == 1
    assert "exactly" in err


def test_pi_refuses_disconnected_tuple(capsys):
    code, out, _ = _run(
        capsys, "pi", "--n", "4", "--group", "catalog:C2xC2",
        "--subgroups", "{a},{b},{a*b},trivial", "--json",
    )
    assert code == 2
    payload = json.loads(out)
    assert payload["status"] == "hypothesis-failed"
    assert payload["omitted"] == 4
    assert payload["witness"] is not None


def test_unknown_catalog_group(capsys):
    code, _, err = _run(capsys, "pi", "--n", "1", "--group", "catalog:NOSUCH",
                        "--subgroups", "full")
    assert code == 1
    assert "unknown catalog group" in err


def test_inline_group(capsys):
    code, payload, _ = _run_json(
        capsys, "pi", "--n", "1",
        "--group", "gens: a | rels: a^6", "--subgroups", "full",
    )
    assert code == 0
    assert payload["invariants"] == {"free_rank": 0, "torsion": [6]}


def test_non_ascii_digit_is_a_parse_error(capsys):
    # an Arabic-Indic three once read as a^3
    code, _, err = _run(capsys, "pi", "--n", "1", "--group", "gens: a | rels: a^٣",
                        "--subgroups", "full")
    assert code == 1
    assert "parse error: unexpected character '٣' (line 1, column 19)" in err


def test_group_from_file(tmp_path, capsys):
    path = tmp_path / "c4.dsl"
    path.write_text("gens: a | rels: a^4\n")
    code, payload, _ = _run_json(
        capsys, "pi", "--n", "1", "--group", str(path), "--subgroups", "full",
    )
    assert code == 0
    assert payload["invariants"] == {"free_rank": 0, "torsion": [4]}


def test_bad_group_text(capsys):
    code, _, err = _run(capsys, "pi", "--n", "1", "--group", "banana",
                        "--subgroups", "full")
    assert code == 1
    assert "catalog:NAME" in err


def test_pi2_verb(capsys):
    code, payload, _ = _run_json(
        capsys, "pi2", "--group", "catalog:S4", "--subgroups", "V4,A4,full",
    )
    assert code == 0
    assert payload["formula"] == "pi_2_colimit_n3"


def test_h1_verb(capsys):
    code, payload, _ = _run_json(
        capsys, "h1", "--group", "catalog:C6", "--subgroups", "full,full",
    )
    assert code == 0
    assert payload["invariants"] == {"free_rank": 0, "torsion": [6]}


def test_h3check_verb(capsys):
    code, payload, _ = _run_json(
        capsys, "h3check", "--r", "y", "--s", "y", "--class", "3",
    )
    assert code == 0
    assert payload["invariants"] == {"free_rank": 0, "torsion": []}


def test_h3check_identity_relator(capsys):
    # the identity relator renders with the first generator name and parses back
    code, payload, _ = _run_json(
        capsys, "h3check", "--r", "x^0", "--s", "y", "--class", "3",
    )
    assert code == 0
    assert payload["invariants"] == {"free_rank": 0, "torsion": []}
    assert payload["inputs"]["r"] == "x^0"


@pytest.mark.parametrize("names", ["x,x", "x,y,x"])
def test_h3check_duplicate_names_rejected(capsys, names):
    code, _, err = _run(
        capsys, "h3check", "--r", "x", "--s", "x", "--class", "3", "--names", names,
    )
    assert code == 1
    assert "duplicate generator 'x'" in err


def test_h3check_bad_name_rejected(capsys):
    code, _, err = _run(
        capsys, "h3check", "--r", "x", "--s", "x", "--class", "3", "--names", "1x,y",
    )
    assert code == 1
    assert "bad generator name '1x'" in err


def test_tensor_verb(capsys):
    code, payload, _ = _run_json(
        capsys, "tensor", "--group", "catalog:C2", "--subgroups", "full,full",
    )
    assert code == 0
    assert payload["symbols"] == 8


def test_tensor_emit_dsl(capsys):
    code, payload, _ = _run_json(
        capsys, "tensor", "--group", "catalog:C2", "--subgroups", "full,full",
        "--emit-dsl",
    )
    assert code == 0
    assert payload["presentation"].startswith("gens: ")


def test_kernel_verb_both_strategies(capsys):
    results = {}
    for strategy in ("hlt", "felsch"):
        code, payload, _ = _run_json(
            capsys, "kernel", "--group", "catalog:C3", "--subgroups", "full,full",
            "--strategy", strategy,
        )
        assert code == 0
        results[strategy] = (payload["t_order"], payload["invariants"])
    assert results["hlt"] == results["felsch"] == (3, {"free_rank": 0, "torsion": [3]})


def test_wu_verb_with_member(capsys):
    code, payload, _ = _run_json(
        capsys, "wu", "--n", "2", "--class", "3", "--member", "[y0,y1]",
    )
    assert code == 0
    assert payload["invariants"] == {"free_rank": 1, "torsion": []}
    assert payload["membership"]["in_numerator"] is True
    assert payload["membership"]["in_denominator"] is False


def test_wu_member_is_parsed_before_the_report(capsys, monkeypatch):
    def report(cfg):
        raise AssertionError("the report ran before --member was parsed")

    monkeypatch.setattr(cli, "wu_report", report)
    code, out, err = _run(capsys, "wu", "--n", "4", "--class", "5", "--member", "z")
    assert code == 1
    assert out == ""
    assert err == "error: bad word 'z': unknown generator 'z' (line 1, column 1)\n"


def test_hopf_verb(capsys):
    code, payload, _ = _run_json(capsys, "hopf", "--k", "2")
    assert code == 0
    assert payload["brackets"] == "[[y0,y1],[y0,y1y2]]"
    assert payload["letters"] == ["y0", "y1", "y2"]


def test_hopf_verb_with_membership(capsys):
    # h(1) = [y0, y1] generates pi_3(S^2) = Z, so it has infinite order
    code, payload, _ = _run_json(capsys, "hopf", "--k", "1", "--class", "3")
    assert code == 0
    assert payload["word"] == "y0*y1*y0^-1*y1^-1"
    assert payload["membership"] == {
        "in_numerator": True,
        "in_denominator": False,
        "order_in_quotient": None,
        "note": "infinite order at class 3",
    }


def test_braid_verb(capsys):
    code, payload, _ = _run_json(capsys, "braid", "--class", "3")
    assert code == 0
    assert payload["all_equal"] is True


def test_akcheck_text_output(capsys):
    code, out, _ = _run(capsys, "akcheck", "--n", "2")
    assert code == 0
    lines = out.splitlines()
    assert lines[0] == "trivial group: yes"
    assert lines[1].startswith("order: 1")


def test_akcheck_alt(capsys):
    code, payload, _ = _run_json(capsys, "akcheck", "--alt")
    assert code == 0
    assert payload["trivial"] is True
    assert payload["label"] == "powers (2,3) vs (3,4)"


def test_akcheck_needs_n_or_alt(capsys):
    code, _, err = _run(capsys, "akcheck")
    assert code == 1
    assert "--n" in err


def test_budget_exit_code(capsys):
    # the coset limit runs out realising an inline group, enumerating the
    # tensor group of a kernel, and in akcheck, with one message
    for argv, limit in [
        (["pi", "--n", "1", "--group", "gens: a,b | rels:", "--subgroups", "full"], 50),
        (["kernel", "--group", "catalog:V4", "--subgroups", "full,full"], 3),
        (["akcheck", "--n", "3"], 10),
    ]:
        code, payload, _ = _run_json(capsys, *argv, "--limit", str(limit))
        assert code == 3
        assert payload["status"] == "budget-exceeded"
        assert payload["message"] == (
            f"coset enumeration reached its limit of {limit} definitions with {limit} live rows"
        )


def test_letter_budget_refusals(capsys):
    code, payload, _ = _run_json(capsys, "hopf", "--k", "40")
    assert code == 3
    assert payload["status"] == "budget-exceeded"
    assert "over the budget of 1000000 letters" in payload["message"]
    code, payload, _ = _run_json(
        capsys, "pi", "--n", "1", "--group", "gens: a | rels: a^1000000000",
        "--subgroups", "full",
    )
    assert code == 3
    assert payload["message"] == (
        "word of 1000000000 letters exceeds the budget of 1000000 letters"
    )


def test_huge_exponent_in_subgroup_spec(capsys):
    code, payload, _ = _run_json(
        capsys, "pi", "--n", "1", "--group", "catalog:C64",
        "--subgroups", "{a^1000000000001}",
    )
    assert code == 0
    assert payload["invariants"] == {"free_rank": 0, "torsion": [64]}


def test_internal_error_exit_code(capsys, monkeypatch):
    # a fresh catalog, so no quotient kept on an earlier S3 skips the patch
    monkeypatch.setattr(catalog, "_cache", {})
    monkeypatch.setattr(
        AbelianInvariants, "from_relation_matrix",
        classmethod(lambda cls, rows, ncols: cls(0, ())),
    )
    code, payload, _ = _run_json(
        capsys, "pi", "--n", "2", "--group", "catalog:S3", "--subgroups", "A3,A3",
    )
    assert code == 4
    assert payload["status"] == "internal-error"
    assert "Smith" in payload["message"]


def test_symbol_budget_env_override(capsys, monkeypatch):
    # the budget is a constant read at each call; no variable overrides it
    monkeypatch.setenv("PICOLIM_SYMBOL_BUDGET", "1000000000")
    monkeypatch.setattr(tensor, "RELATOR_BUDGET", 4)
    code, _, err = _run(capsys, "tensor", "--group", "catalog:C2",
                        "--subgroups", "full,full")
    assert code == 3
    assert err == (
        "budget exceeded: 8 tensor symbols give 88 relators, over the budget of 4 relators\n"
    )


def test_tensor_budget_refuses_the_c64_four_tuple_at_once():
    # 57,344 symbols and over 3 * 10^9 relators: without the relator count
    # the build never finishes
    src = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")
    proc = subprocess.run(
        [sys.executable, "-m", "picolim.cli", "tensor", "--group", "catalog:C64",
         "--subgroups", "full,full,full,full", "--json"],
        capture_output=True, text=True, env=dict(os.environ, PYTHONPATH=src), timeout=30,
    )
    assert proc.returncode == 3, proc.stderr
    payload = json.loads(proc.stdout)
    assert payload["status"] == "budget-exceeded"
    assert payload["message"] == (
        f"57344 tensor symbols give 3301498880 relators, over the budget of "
        f"{tensor.RELATOR_BUDGET} relators"
    )


def test_malformed_arguments(capsys):
    code, _, _ = _run(capsys, "pi", "--n", "notanint", "--group", "catalog:S3",
                      "--subgroups", "full")
    assert code == 1
    code, _, _ = _run(capsys, "nosuchverb")
    assert code == 1


def test_json_output_is_deterministic(capsys):
    _, out1, _ = _run(capsys, "pi", "--n", "2", "--group", "catalog:S3",
                      "--subgroups", "A3,A3", "--json")
    _, out2, _ = _run(capsys, "pi", "--n", "2", "--group", "catalog:S3",
                      "--subgroups", "A3,A3", "--json")
    assert out1 == out2


def test_text_rendering(capsys):
    code, out, _ = _run(capsys, "pi", "--n", "2", "--group", "catalog:S3",
                        "--subgroups", "A3,A3")
    assert code == 0
    assert "invariants:" in out
    assert "schema" not in out


@pytest.mark.parametrize("verb", [
    ["wu", "--n", "2", "--class", "3"],
    ["hopf", "--k", "2"],
    ["braid", "--class", "3"],
    ["h3check", "--r", "x", "--s", "y", "--class", "2"],
])
def test_limit_only_on_verbs_that_enumerate_cosets(capsys, verb):
    code, out, err = _run(capsys, *verb, "--limit", "5")
    assert code == 1
    assert out == ""
    assert "unrecognized arguments: --limit 5" in err
