"""Byte-identical command-line output for a fixed list of commands.

tests/cli_pinned.json holds the exit code, standard output and standard
error of each command below.  The commands cover exit codes 0 to 3 in text
and in --json.  After a deliberate change to the output, rewrite the file
with `PYTHONPATH=src python tests/test_cli_pinned.py` and review the diff.
"""

import contextlib
import io
import json
import os

import pytest

from picolim.cli import main

PINNED = os.path.join(os.path.dirname(__file__), "cli_pinned.json")

COMMANDS = [
    ["hopf", "--k", "3"],
    ["hopf", "--k", "2", "--json"],
    ["h3check", "--r", "x^1000000000", "--s", "y", "--class", "2"],
    ["h3check", "--r", "x^0", "--s", "y", "--class", "3", "--json"],
    ["wu", "--n", "2", "--class", "3", "--member", "[y0,y1]"],
    ["tensor", "--group", "catalog:C2", "--subgroups", "full,full", "--emit-dsl"],
    ["tensor", "--group", "catalog:C2", "--subgroups", "full,full", "--emit-dsl", "--json"],
    ["akcheck", "--n", "2"],
    ["akcheck", "--n", "2", "--json"],
    ["connectivity", "--search-order", "4"],
    ["pi", "--n", "2", "--group", "gens: a | rels: a^2*", "--subgroups", "full"],
    ["pi", "--n", "1", "--group", "gens: a,b\n | rels: a^2, b*", "--subgroups", "full", "--json"],
    ["akcheck", "--n", "3", "--limit", "10"],
    ["kernel", "--group", "catalog:V4", "--subgroups", "full,full", "--limit", "3", "--json"],
    ["pi", "--n", "4", "--group", "catalog:C2xC2", "--subgroups", "{a},{b},{a*b},trivial"],
    ["pi", "--n", "4", "--group", "catalog:C2xC2", "--subgroups", "{a},{b},{a*b},trivial",
     "--json"],
]


def run(argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(list(argv))
    return {"argv": argv, "code": code, "stdout": out.getvalue(), "stderr": err.getvalue()}


def _pinned():
    with open(PINNED, encoding="utf-8") as fh:
        return json.load(fh)


def test_pinned_commands_cover_exit_codes_0_to_3():
    pinned = _pinned()
    assert [case["argv"] for case in pinned] == COMMANDS
    assert {case["code"] for case in pinned} == {0, 1, 2, 3}


@pytest.mark.parametrize("index", range(len(COMMANDS)), ids=lambda i: " ".join(COMMANDS[i][:3]))
def test_output_is_byte_identical(index):
    assert run(COMMANDS[index]) == _pinned()[index]


if __name__ == "__main__":
    with open(PINNED, "w", encoding="utf-8") as fh:
        json.dump([run(argv) for argv in COMMANDS], fh, indent=1, ensure_ascii=False)
        fh.write("\n")
