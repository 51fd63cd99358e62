"""Command-line front end.

One verb per invocation; results go to standard output as readable text,
or as versioned JSON with --json (schema field, sorted keys, no
timestamps, so fixed inputs give byte-identical output).

Exit codes: 0 for a computed result, 1 for malformed input, 2 when a
formula's hypothesis fails (the witness is part of the report), 3 when a
size budget or enumeration limit runs out, 4 when an internal invariant
check fails.

Group inputs accept three forms: catalog:NAME, an inline presentation in
the `gens: ... | rels: ...` DSL, or a path to a file holding one.
Subgroups are named by specs (trivial, full, center, derived, catalog
names like A3, {words} for a generated subgroup, ncl{words} for a normal
closure).  The coset limit is set by --limit on the verbs that enumerate
cosets, with the default coset.COSET_LIMIT.  Every other budget is a
constant of the module it bounds (words.LETTER_BUDGET,
hall.BASIS_BUDGET, finite.ORDER_CAP, tensor.RELATOR_BUDGET); no
environment variable changes any of them.

A word on the command line (--r, --s, --member) is parsed against the
names of its group (--names, or wu.letter_names) before any computation and
reaches the engines as integer letters; output renders it over them.
"""

import argparse
import json
import os
import sys
from functools import partial

from .catalog import catalog_group, catalog_subgroup, subgroup_of
from .colimit import (
    NormalTuple,
    h1_GMN,
    hopf_h3_check,
    is_connected_tuple,
    pi_2_colimit_n3,
    pi_n_colimit,
    search_disconnected_triple,
    witness_json,
)
from .coset import COSET_LIMIT, todd_coxeter
from .errors import BudgetError, ConnectivityError, InternalError, ParseError
from .finite import FiniteGroup
from .presentations import parse_presentation, parse_word, render_brackets, render_word
from .tensor import build_T, kernel_of_boundary
from .words import hopf
from .wu import WuConfiguration, braid_check, letter_names, membership_check, wu_report

SCHEMA = 2

# exit code, JSON status and standard-error label of each refusal
_FAILURES = {
    ConnectivityError: (2, "hypothesis-failed", "hypothesis failed"),
    BudgetError: (3, "budget-exceeded", "budget exceeded"),
    InternalError: (4, "internal-error", "internal error"),
}


class CliError(Exception):
    """Malformed input; maps to exit code 1."""


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        raise CliError(message)


def positive_int(text):
    """argparse type of a count that must be at least 1."""
    value = int(text)
    if value < 1:
        raise argparse.ArgumentTypeError(f"must be at least 1, got {value}")
    return value


def _load_tuple(args):
    """The group named by --group and the subgroups named by --subgroups."""
    text = args.group
    if text.startswith("catalog:"):
        name = text[len("catalog:"):]
        try:
            group = catalog_group(name)
        except KeyError as exc:
            raise CliError(exc.args[0])
        subgroup = partial(catalog_subgroup, name)
    else:
        if os.path.exists(text):
            with open(text, encoding="utf-8") as fh:
                text = fh.read().strip()
        if "gens:" not in text:
            raise CliError(
                f"group {text!r} is not catalog:NAME, an inline 'gens: ... | rels: ...' "
                "presentation, or a readable file"
            )
        presentation = parse_presentation(text)
        group = FiniteGroup.from_presentation(presentation, limit=args.limit)
        subgroup = partial(subgroup_of, group, presentation.generators)
    subs = []
    for spec in args.subgroups.split(","):
        spec = spec.strip()
        if not spec:
            raise CliError("empty subgroup spec")
        try:
            subs.append(subgroup(spec))
        except KeyError as exc:
            raise CliError(exc.args[0])
    return group, subs


def _parse_cli_word(text, names):
    try:
        return parse_word(text, names)
    except ParseError as exc:
        raise CliError(f"bad word {text!r}: {exc}")


def _emit(args, payload, code=0):
    payload = dict(payload, schema=SCHEMA)
    if args.json:
        print(json.dumps(payload, sort_keys=True, indent=2))
    else:
        for line in _render_text(payload):
            print(line)
    return code


def _render_text(payload, prefix=""):
    for key in sorted(payload):
        if key == "schema":
            continue
        value = payload[key]
        if isinstance(value, dict):
            yield f"{prefix}{key}:"
            yield from _render_text(value, prefix + "  ")
        elif isinstance(value, list) and value and isinstance(value[0], dict):
            yield f"{prefix}{key}:"
            for item in value:
                yield from _render_text(item, prefix + "  ")
        else:
            yield f"{prefix}{key}: {value}"


# -- verb handlers ----------------------------------------------------------


def _cmd_connectivity(args):
    if args.search_order is not None:
        finds = search_disconnected_triple(
            max_order=args.search_order, stop_at_first=not args.all
        )
        payload = {
            "verb": "connectivity",
            "searched_order_at_most": args.search_order,
            "violations": [
                {"group": name, "orders": list(orders), "witness": witness_json(w)}
                for name, orders, w in finds
            ],
            "certified_none": not finds,
        }
        return _emit(args, payload)
    if args.group is None:
        raise CliError("connectivity needs --group and --subgroups, or --search-order")
    group, subs = _load_tuple(args)
    t = NormalTuple(group, subs)
    ok, witness = is_connected_tuple(t)
    payload = {
        "verb": "connectivity",
        "connected": ok,
        "witness": witness_json(witness),
        "orders": [s.order() for s in subs],
    }
    return _emit(args, payload)


def _cmd_pi(args):
    group, subs = _load_tuple(args)
    if len(subs) != args.n:
        raise CliError(f"--n {args.n} needs exactly {args.n} subgroup specs")
    rep = pi_n_colimit(NormalTuple(group, subs))
    return _emit(args, dict(rep.to_json_dict(), verb="pi"))


def _cmd_pi2(args):
    group, subs = _load_tuple(args)
    if len(subs) != 3:
        raise CliError("pi2 needs exactly three subgroup specs L,M,N")
    rep = pi_2_colimit_n3(*subs)
    return _emit(args, dict(rep.to_json_dict(), verb="pi2"))


def _cmd_h1(args):
    group, subs = _load_tuple(args)
    if len(subs) != 2:
        raise CliError("h1 needs exactly two subgroup specs M,N")
    rep = h1_GMN(group, subs[0], subs[1])
    return _emit(args, dict(rep.to_json_dict(), verb="h1"))


def _cmd_h3check(args):
    names = args.names.split(",")
    rep = hopf_h3_check(
        names, _parse_cli_word(args.r, names), _parse_cli_word(args.s, names), args.class_bound
    )
    return _emit(args, dict(rep.to_json_dict(), verb="h3check"))


def _cmd_tensor(args):
    group, subs = _load_tuple(args)
    tp = build_T(NormalTuple(group, subs))
    payload = {
        "verb": "tensor",
        "symbols": len(tp.symbols),
        "relators": len(tp.base.relators),
        "families": tp.families,
        "ambient_order": group.n,
    }
    if args.emit_dsl:
        payload["presentation"] = tp.base.render()
    return _emit(args, payload)


def _cmd_kernel(args):
    group, subs = _load_tuple(args)
    tp = build_T(NormalTuple(group, subs))
    result = kernel_of_boundary(tp, limit=args.limit, strategy=args.strategy)
    payload = dict(result, verb="kernel", invariants=result["invariants"].to_json_dict())
    return _emit(args, payload)


def _cmd_wu(args):
    cfg = WuConfiguration(args.n, args.class_bound)
    # parsed before the report, so a bad word is refused at once
    member = None if args.member is None else _parse_cli_word(args.member, cfg.names)
    payload = dict(wu_report(cfg), verb="wu")
    if member is not None:
        payload["membership"] = dict(membership_check(member, cfg), word=args.member)
    return _emit(args, payload)


def _cmd_hopf(args):
    word, nest = hopf(args.k)
    names = letter_names(args.k + 1)
    payload = {
        "verb": "hopf",
        "k": args.k,
        "word": render_word(word, names),
        "brackets": render_brackets(nest, names),
        "letters": [names[i] for i in word.generators()],
    }
    if args.class_bound is not None:
        cfg = WuConfiguration(args.k + 1, args.class_bound)
        payload["membership"] = membership_check(word, cfg)
    return _emit(args, payload)


def _cmd_braid(args):
    return _emit(args, dict(braid_check(args.class_bound), verb="braid"))


_AK_EXTRA = "x1*x2*x1*x2^-1*x1^-1*x2^-1"


def _cmd_akcheck(args):
    if args.alt:
        rel_text = "x1^2*x2^-3, x1^3*x2^-4"
        label = "powers (2,3) vs (3,4)"
    else:
        n = args.n
        if n is None:
            raise CliError("akcheck needs --n (or --alt)")
        rel_text = f"x1^{n}*x2^-{n + 1}, {_AK_EXTRA}"
        label = f"n={n}"
    pres = parse_presentation(f"gens: x1,x2 | rels: {rel_text}")
    table = todd_coxeter(pres, limit=args.limit, strategy=args.strategy)
    order = table.n_cosets()
    payload = {
        "verb": "akcheck",
        "presentation": pres.render(),
        "label": label,
        "order": order,
        "trivial": order == 1,
        "cosets_defined": table.defined,
        "strategy": args.strategy,
    }
    if not args.json:
        print(f"trivial group: {'yes' if order == 1 else 'no'}")
        print(f"order: {order} (defined {table.defined} cosets, {args.strategy})")
        return 0
    return _emit(args, payload)


# -- argument wiring --------------------------------------------------------


def _build_parser():
    parser = _Parser(
        prog="picolim",
        description=(
            "Group-theoretic homotopy formulas for unions of aspherical "
            "spaces: connectivity checks, colimit homotopy groups, tensor "
            "presentations and boundary kernels, and truncated sphere "
            "computations."
        ),
    )
    sub = parser.add_subparsers(dest="verb", required=True)

    def common(p, limit=True, group=True, group_required=True):
        p.add_argument("--json", action="store_true", help="versioned JSON output")
        if limit:
            p.add_argument("--limit", type=positive_int, default=COSET_LIMIT,
                           help="coset enumeration limit")
        if group:
            p.add_argument("--group", required=group_required, default=None,
                           help="catalog:NAME, inline DSL, or file path")
            p.add_argument("--subgroups", default="",
                           help="comma-separated subgroup specs")

    p = sub.add_parser("connectivity", help="check the gluing condition for a tuple")
    common(p, group_required=False)
    p.add_argument("--search-order", type=positive_int, default=None,
                   help="instead: scan catalog normal triples up to this order")
    p.add_argument("--all", action="store_true",
                   help="with --search-order, list every violation")
    p.set_defaults(handler=_cmd_connectivity)

    p = sub.add_parser("pi", help="n-th homotopy group of the union")
    common(p)
    p.add_argument("--n", type=positive_int, required=True)
    p.set_defaults(handler=_cmd_pi)

    p = sub.add_parser("pi2", help="second homotopy group, three subgroups")
    common(p)
    p.set_defaults(handler=_cmd_pi2)

    p = sub.add_parser("h1", help="first homology of the gluing complex")
    common(p)
    p.set_defaults(handler=_cmd_h1)

    p = sub.add_parser("h3check", help="truncated third-homology quotient of a 2-relator group")
    common(p, limit=False, group=False)
    p.add_argument("--r", required=True, help="first relator word")
    p.add_argument("--s", required=True, help="second relator word")
    p.add_argument("--class", dest="class_bound", type=int, required=True)
    p.add_argument("--names", default="x,y", help="free generator names")
    p.set_defaults(handler=_cmd_h3check)

    p = sub.add_parser("tensor", help="build the tensor presentation")
    common(p)
    p.add_argument("--emit-dsl", action="store_true",
                   help="print the presentation in the DSL")
    p.set_defaults(handler=_cmd_tensor)

    p = sub.add_parser("kernel", help="kernel of the tensor boundary map")
    common(p)
    p.add_argument("--strategy", choices=("hlt", "felsch"), default="hlt")
    p.set_defaults(handler=_cmd_kernel)

    p = sub.add_parser("wu", help="truncated sphere formula report")
    common(p, limit=False, group=False)
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--class", dest="class_bound", type=int, required=True)
    p.add_argument("--member", default=None,
                   help="also check this word's membership and order")
    p.set_defaults(handler=_cmd_wu)

    p = sub.add_parser("hopf", help="iterated commutator representatives")
    common(p, limit=False, group=False)
    p.add_argument("--k", type=int, required=True)
    p.add_argument("--class", dest="class_bound", type=int, default=None,
                   help="also run the membership check at this class")
    p.set_defaults(handler=_cmd_hopf)

    p = sub.add_parser("braid", help="pairwise relator-closure checks for the braid presentation")
    common(p, limit=False, group=False)
    p.add_argument("--class", dest="class_bound", type=int, required=True)
    p.set_defaults(handler=_cmd_braid)

    p = sub.add_parser("akcheck", help="coset enumeration of balanced trivial-group presentations")
    common(p, group=False)
    p.add_argument("--n", type=positive_int, default=None)
    p.add_argument("--alt", action="store_true",
                   help="use the power presentation x1^2 x2^-3, x1^3 x2^-4")
    p.add_argument("--strategy", choices=("hlt", "felsch"), default="hlt")
    p.set_defaults(handler=_cmd_akcheck)

    return parser


def main(argv=None):
    parser = _build_parser()
    args = None
    try:
        args = parser.parse_args(argv)
        return args.handler(args)
    except (CliError, FileNotFoundError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except ParseError as exc:
        print(f"parse error: {exc}", file=sys.stderr)
        return 1
    except tuple(_FAILURES) as exc:
        code, status, label = next(v for cls, v in _FAILURES.items() if isinstance(exc, cls))
        if args is not None and getattr(args, "json", False):
            payload = {"schema": SCHEMA, "status": status, "message": str(exc)}
            if isinstance(exc, ConnectivityError):
                payload.update(omitted=exc.omitted, witness=witness_json(exc.witness),
                               hypothesis_checks=exc.transcript)
            print(json.dumps(payload, sort_keys=True, indent=2))
        else:
            print(f"{label}: {exc}", file=sys.stderr)
        return code
    except (ValueError, KeyError) as exc:
        msg = exc.args[0] if exc.args else str(exc)
        print(f"error: {msg}", file=sys.stderr)
        return 1
    except BrokenPipeError:
        # reader closed the pipe; silence the shutdown warning
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return 0


if __name__ == "__main__":
    sys.exit(main())
