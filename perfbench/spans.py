"""Spans around the public functions of picolim, recorded from outside.

`Tracer.install()` wraps each target below and rebinds the wrapper in
every loaded module that holds the original by name (for example
`tensor.todd_coxeter`, `finite.todd_coxeter`, `wu.intersect_pc`), so no
call through an imported name escapes its span.  Methods are wrapped on
their class, which every caller reaches.  A span is (name, start, end,
parent); spans stay in memory as flat arrays until `layer_metrics`.

Counts come from the arguments and return values of the wrapped calls,
never from inside the program, so they repeat exactly from run to run.
Hot methods such as `PcGroup.mul` and `FiniteGroup.mul` are not wrapped:
their cost lands in the span that calls them.
"""

import sys
import time
from array import array
from collections import Counter

# Layer of each wrapped module; hall, magnus and words have no targets of
# their own, so their time lands in the nilpotent and tensor spans.
LAYERS = ("nilpotent", "wu", "tensor", "coset", "abelian", "finite", "colimit")
ROOT = "bench"


def _count_igs(counts, args, kwargs, sub):
    counts["nilpotent.igs_rows"] += len(sub.pivots)


def _count_wu_report(counts, args, kwargs, rep):
    counts["wu.denominator_nodes"] += rep["denominator"]["nodes"]
    counts["wu.denominator_generators"] += rep["denominator"]["distinct_generators"]


def _count_build_T(counts, args, kwargs, tp):
    counts["tensor.symbols"] += len(tp.symbols)
    counts["tensor.relators"] += len(tp.base.relators)
    for family, n in tp.families.items():
        counts[f"tensor.relators.{family}"] += n


def _count_todd_coxeter(counts, args, kwargs, table):
    counts["coset.cosets_defined"] += table.defined
    counts["coset.cosets_final"] += table.n_cosets()


def _count_snf(counts, args, kwargs, divisors):
    rows, ncols = args[0], args[1]
    counts["abelian.snf_calls"] += 1
    counts["abelian.snf_rows"] += len(rows)
    counts["abelian.snf_cols"] += ncols
    counts["abelian.snf_nonzeros"] += sum(len(r) - r.count(0) for r in rows)


def _count_realize(counts, args, kwargs, result):
    counts["finite.groups_realized"] += 1


def _strategy_name(args, kwargs):
    return "coset.todd_coxeter." + kwargs.get("strategy", args[3] if len(args) > 3 else "hlt")


# (module, attribute path, operation metric or None, count hook or None).
# An operation metric collects the self time of its spans and of the
# unnamed spans of the same layer nested inside them.
TARGETS = [
    ("nilpotent", "free_nilpotent", "nilpotent.basis_s", None),
    ("nilpotent", "normal_closure_pc", "nilpotent.normal_closure_s", _count_igs),
    ("nilpotent", "intersect_pc", "nilpotent.intersect_s", _count_igs),
    ("nilpotent", "subgroup", None, _count_igs),
    ("nilpotent", "commutator_subgroup_pc", None, None),
    ("nilpotent", "central_quotient_invariants", "nilpotent.quotient_s", None),
    ("nilpotent", "PcGroup.comm", None, None),
    ("nilpotent", "PcGroup.collect", None, None),
    ("nilpotent", "PcSubgroup.contains", None, None),
    ("nilpotent", "PcSubgroup.contains_subgroup", None, None),
    ("nilpotent", "PcSubgroup.coords_of", None, None),
    ("nilpotent", "PcSubgroup.is_normal", None, None),
    ("wu", "WuConfiguration.group", None, None),
    ("wu", "WuConfiguration.closures", None, None),
    ("wu", "wu_denominator", None, None),
    ("wu", "wu_numerator", None, None),
    ("wu", "wu_group", None, None),
    ("wu", "wu_report", None, _count_wu_report),
    ("wu", "membership_check", None, None),
    ("wu", "braid_check", None, None),
    ("tensor", "build_T", "tensor.build_s", _count_build_T),
    ("tensor", "relator_soundness", "tensor.soundness_s", None),
    ("tensor", "crossed_module_check", "tensor.crossed_s", None),
    ("tensor", "kernel_of_boundary", "tensor.kernel_self_s", None),
    ("tensor", "boundary_image", None, None),
    ("coset", "todd_coxeter", None, _count_todd_coxeter),
    ("coset", "schreier_rewrite_matrix", "coset.rewrite_s", None),
    ("coset", "coset_table_from_action", None, None),
    ("coset", "schreier_representatives", None, None),
    ("abelian", "hermite_reduce", "abelian.hermite_s", None),
    ("abelian", "smith_normal_form", "abelian.snf_s", _count_snf),
    ("abelian", "order_in_quotient", None, None),
    ("finite", "FiniteGroup.__init__", "finite.realize_s", _count_realize),
    ("finite", "FiniteGroup.from_presentation", "finite.realize_s", None),
    ("finite", "FiniteGroup.from_coset_table", "finite.realize_s", None),
    ("finite", "FiniteGroup.all_subgroups", "finite.lattice_s", None),
    ("finite", "FiniteGroup.normal_subgroups", "finite.lattice_s", None),
    ("finite", "FiniteGroup.subgroup", "finite.subgroup_ops_s", None),
    ("finite", "FiniteGroup.normal_closure", "finite.subgroup_ops_s", None),
    ("finite", "FiniteGroup.center", "finite.subgroup_ops_s", None),
    ("finite", "FiniteGroup.derived_subgroup", "finite.subgroup_ops_s", None),
    ("finite", "FiniteGroup.full_subgroup", "finite.subgroup_ops_s", None),
    ("finite", "FiniteGroup.trivial_subgroup", "finite.subgroup_ops_s", None),
    ("finite", "FiniteGroup.quotient", "finite.subgroup_ops_s", None),
    ("finite", "FinSubgroup.is_normal", "finite.subgroup_ops_s", None),
    ("finite", "FinSubgroup.intersect", "finite.subgroup_ops_s", None),
    ("finite", "FinSubgroup.product", "finite.subgroup_ops_s", None),
    ("finite", "FinSubgroup.commutator", "finite.subgroup_ops_s", None),
    ("finite", "FinSubgroup.conjugate_by", "finite.subgroup_ops_s", None),
    ("finite", "abelian_invariants_of_quotient", "finite.quotient_invariants_s", None),
    ("colimit", "NormalTuple.__init__", None, None),
    ("colimit", "is_connected_tuple", None, None),
    ("colimit", "check_hypothesis", None, None),
    ("colimit", "symmetric_commutator", None, None),
    ("colimit", "quotient_invariants", None, None),
    ("colimit", "pi_n_colimit", None, None),
    ("colimit", "pi_2_colimit_n3", None, None),
]

# Inclusive times: the wu and colimit layers only orchestrate engine calls,
# so their metrics cover the whole call, engine work included.
INCLUSIVE = {
    "wu.membership_s": ("wu.membership_check",),
    "colimit.connectivity_s": ("colimit.is_connected_tuple", "colimit.check_hypothesis"),
    "colimit.formula_s": ("colimit.pi_n_colimit", "colimit.pi_2_colimit_n3"),
}
# One tuple evaluated per outermost call of these.
TUPLE_ENTRIES = ("colimit.is_connected_tuple", "colimit.pi_n_colimit", "colimit.pi_2_colimit_n3")

COUNT_METRICS = (
    "nilpotent.igs_rows", "wu.denominator_nodes", "wu.denominator_generators",
    "tensor.symbols", "tensor.relators", "tensor.relators.inverse",
    "tensor.relators.biadditive", "tensor.relators.threefold", "tensor.relators.conjugation",
    "coset.cosets_defined", "coset.cosets_final", "abelian.snf_calls", "abelian.snf_rows",
    "abelian.snf_cols", "abelian.snf_nonzeros", "finite.groups_realized",
)


class Tracer:
    def __init__(self):
        self.names = []
        self.starts = array("d")
        self.ends = array("d")
        self.parents = array("l")
        self.stack = [-1]
        self.counts = Counter()
        self.ops = {}  # span name -> operation metric
        self.lattices = {}  # group -> subgroups enumerated
        self.normals = {}  # group -> normal subgroups found

    def span(self, name, fn, hook=None, name_of=None):
        names, starts, ends, parents, stack = (
            self.names, self.starts, self.ends, self.parents, self.stack)
        clock = time.perf_counter
        counts = self.counts

        def wrapper(*args, **kwargs):
            idx = len(starts)
            names.append(name_of(args, kwargs) if name_of else name)
            parents.append(stack[-1])
            stack.append(idx)
            ends.append(0.0)
            starts.append(clock())
            try:
                result = fn(*args, **kwargs)
            finally:
                ends[idx] = clock()
                stack.pop()
            if hook is not None:
                hook(counts, args, kwargs, result)
            return result

        wrapper.__wrapped__ = fn
        return wrapper

    def install(self):
        originals = {}
        for module_name, path, op, hook in TARGETS:
            module = sys.modules[f"picolim.{module_name}"]
            name = f"{module_name}.{path.replace('__init__', 'new')}"
            if op:
                self.ops[name] = op
            name_of = _strategy_name if path == "todd_coxeter" else None
            if "." in path:
                cls_name, attr = path.split(".")
                cls = getattr(module, cls_name)
                raw = cls.__dict__[attr]
                if isinstance(raw, classmethod):
                    setattr(cls, attr, classmethod(self.span(name, raw.__func__, hook)))
                else:
                    setattr(cls, attr, self.span(name, raw, hook))
                continue
            original = getattr(module, path)
            originals[id(original)] = original
            wrapped = self.span(name, original, hook, name_of)
            for other in list(sys.modules.values()):
                if getattr(other, "__dict__", {}).get(path) is original:
                    setattr(other, path, wrapped)
        group = sys.modules["picolim.finite"].FiniteGroup
        group.all_subgroups = self._remember(group.all_subgroups, self.lattices)
        group.normal_subgroups = self._remember(group.normal_subgroups, self.normals)
        # a name bound under an alias would escape its span silently
        for other in list(sys.modules.values()):
            for key, value in list(getattr(other, "__dict__", {}).items()):
                if id(value) in originals and value is originals[id(value)]:
                    raise RuntimeError(f"{other.__name__}.{key} escaped its span")

    @staticmethod
    def _remember(method, sizes):
        """Record the size of the latest lattice result per group; the
        group is kept as the key, so its id is never reused."""

        def wrapper(self):
            result = method(self)
            sizes[self] = len(result)
            return result

        wrapper.__wrapped__ = method
        return wrapper

    def run(self, fn):
        """Run fn inside the root span of the benchmark's own code."""
        return self.span(f"{ROOT}.run", fn)()

    def layer_metrics(self):
        """Per-layer metrics from the recorded spans and counts."""
        n = len(self.names)
        names, starts, ends, parents = self.names, self.starts, self.ends, self.parents
        layer = [nm.split(".", 1)[0] for nm in names]
        dur = [ends[i] - starts[i] for i in range(n)]
        covered = [0.0] * n
        for i in range(n):
            p = parents[i]
            if p >= 0:
                covered[p] += dur[i]
        own = [dur[i] - covered[i] for i in range(n)]

        out = {f"{lay}.self_s": 0.0 for lay in LAYERS + (ROOT,)}
        for metric in self.ops.values():
            out[metric] = 0.0
        for strategy in ("hlt", "felsch"):
            out[f"coset.{strategy}_s"] = 0.0
        op = [None] * n
        for i in range(n):
            p = parents[i]
            name = names[i]
            if name.startswith("coset.todd_coxeter."):
                op[i] = f"coset.{name.rsplit('.', 1)[1]}_s"
            else:
                op[i] = self.ops.get(name)
            if op[i] is None and p >= 0 and layer[p] == layer[i]:
                op[i] = op[p]
            out[f"{layer[i]}.self_s"] += own[i]
            if op[i] is not None:
                out[op[i]] += own[i]

        def outermost(i, group):
            p = parents[i]
            while p >= 0:
                if names[p] in group:
                    return False
                p = parents[p]
            return True

        for metric, group in INCLUSIVE.items():
            out[metric] = sum((dur[i] for i in range(n) if names[i] in group and outermost(i, group)), 0.0)
        out["wu.denominator_search_s"] = sum(
            (dur[i] for i in range(n) if names[i] == "wu.wu_denominator"), 0.0
        ) - sum(
            dur[i] for i in range(n)
            if names[i] == "nilpotent.normal_closure_pc"
            and parents[i] >= 0 and names[parents[i]] == "wu.wu_denominator"
        )
        out["colimit.tuples"] = sum(
            1 for i in range(n)
            if names[i] in TUPLE_ENTRIES and (parents[i] < 0 or layer[parents[i]] != "colimit")
        )

        counts = self.counts
        for metric in COUNT_METRICS:
            out[metric] = counts[metric]
        out["coset.useful_ratio"] = (
            counts["coset.cosets_final"] / counts["coset.cosets_defined"]
            if counts["coset.cosets_defined"] else 1.0
        )
        enumerated = sum(self.lattices.values())
        found = sum(self.normals.values())
        out["finite.subgroups_enumerated"] = enumerated
        out["finite.normal_found"] = found
        # 1 when no lattice was enumerated: nothing was wasted
        out["finite.normal_ratio"] = found / enumerated if enumerated else 1.0
        out["trace.spans"] = n
        return out
