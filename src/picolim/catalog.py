"""A catalog of small groups addressable by name.

Covers the cyclic groups up to C64, dihedral groups Dn (order 2n) up to
n=16, the symmetric groups S3 and S4, the quaternion group Q8, the Klein
four group, and every isomorphism type of order at most 16.  Groups are
realized on demand by coset enumeration and cached.

Subgroups are addressed either by a generic name (trivial, full, center,
derived), a per-group name like A3 in S3, or an inline word list in braces
such as {r^2} or {a, b^2} meaning the subgroup generated by those images.
Prefix a brace list with ncl to take the normal closure instead.
"""

from .errors import InternalError
from .finite import FiniteGroup
from .presentations import parse_presentation, parse_words

_registry = {}  # name -> (declared_order, dsl text, named subgroup words)
_aliases = {}
_cache = {}


def _add(name, order, text, subgroups=None):
    _registry[name] = (order, text, subgroups or {})


def _alias(name, target):
    _aliases[name] = target


def _abelian(name, dims):
    gens = [chr(ord("a") + i) for i in range(len(dims))]
    rels = [f"{g}^{d}" for g, d in zip(gens, dims)]
    rels += [f"[{gens[i]},{gens[j]}]" for i in range(len(gens)) for j in range(i + 1, len(gens))]
    order = 1
    for d in dims:
        order *= d
    _add(name, order, f"gens: {','.join(gens)} | rels: {','.join(rels)}")


def _build_registry():
    for n in range(1, 65):
        _add(f"C{n}", n, f"gens: a | rels: a^{n}" if n > 1 else "gens: a | rels: a")
    for n in range(1, 17):
        _add(f"D{n}", 2 * n, f"gens: r,s | rels: r^{n}, s^2, s*r*s^-1*r")
    _add("S3", 6, "gens: r,s | rels: r^3, s^2, s*r*s^-1*r", {"A3": "{r}"})
    _add(
        "S4",
        24,
        "gens: a,b | rels: a^2, b^3, a*b*a*b*a*b*a*b",
        {"A4": "derived", "V4": "ncl{a*b*a*b}"},
    )
    _add("Q8", 8, "gens: a,b | rels: a^4, a^2*b^-2, b*a*b^-1*a")
    _abelian("C2xC2", [2, 2])
    _alias("V4", "C2xC2")
    _abelian("C4xC2", [4, 2])
    _abelian("C2xC2xC2", [2, 2, 2])
    _abelian("C3xC3", [3, 3])
    _abelian("C6xC2", [6, 2])
    _add("A4", 12, "gens: a,b | rels: a^2, b^3, a*b*a*b*a*b")
    _add("Dic3", 12, "gens: a,b | rels: a^6, b^2*a^-3, b*a*b^-1*a")
    _abelian("C8xC2", [8, 2])
    _abelian("C4xC4", [4, 4])
    _abelian("C4xC2xC2", [4, 2, 2])
    _abelian("C2xC2xC2xC2", [2, 2, 2, 2])
    _add("Q16", 16, "gens: a,b | rels: a^8, b^2*a^-4, b*a*b^-1*a")
    _add("SD16", 16, "gens: a,b | rels: a^8, b^2, b*a*b^-1*a^-3")
    _add("M16", 16, "gens: a,b | rels: a^8, b^2, b*a*b^-1*a^-5")
    _add(
        "D4xC2",
        16,
        "gens: a,b,c | rels: a^4, b^2, b*a*b^-1*a, c^2, [a,c], [b,c]",
    )
    _add(
        "Q8xC2",
        16,
        "gens: a,b,c | rels: a^4, a^2*b^-2, b*a*b^-1*a, c^2, [a,c], [b,c]",
    )
    _add(
        "D4oC4",
        16,
        "gens: a,b,c | rels: a^4, b^2, b*a*b^-1*a, c^2*a^-2, [a,c], [b,c]",
    )
    _add("C4byC4", 16, "gens: a,b | rels: a^4, b^4, b*a*b^-1*a")
    _add(
        "V4byC4",
        16,
        "gens: x,y,c | rels: x^2, y^2, [x,y], c^4, c*x*c^-1*y, c*y*c^-1*x",
    )


_build_registry()

# isomorphism types by order, for "all groups of order <= n" sweeps
ORDER_CLASSES = {
    1: ["C1"],
    2: ["C2"],
    3: ["C3"],
    4: ["C4", "C2xC2"],
    5: ["C5"],
    6: ["C6", "S3"],
    7: ["C7"],
    8: ["C8", "C4xC2", "C2xC2xC2", "D4", "Q8"],
    9: ["C9", "C3xC3"],
    10: ["C10", "D5"],
    11: ["C11"],
    12: ["C12", "C6xC2", "D6", "A4", "Dic3"],
    13: ["C13"],
    14: ["C14", "D7"],
    15: ["C15"],
    16: [
        "C16",
        "C8xC2",
        "C4xC4",
        "C4xC2xC2",
        "C2xC2xC2xC2",
        "D8",
        "Q16",
        "SD16",
        "M16",
        "D4xC2",
        "Q8xC2",
        "D4oC4",
        "C4byC4",
        "V4byC4",
    ],
}


def catalog_names():
    return sorted(_registry) + sorted(_aliases)


def declared_order(name):
    return _registry[_resolve(name)][0]


def _resolve(name):
    name = _aliases.get(name, name)
    if name not in _registry:
        raise KeyError(f"unknown catalog group {name!r}")
    return name


def catalog_group(name):
    key = _resolve(name)
    if key not in _cache:
        order, text, _ = _registry[key]
        g = FiniteGroup.from_presentation(parse_presentation(text), name=key)
        if g.n != order:
            raise InternalError(f"catalog group {key} realized with order {g.n}, expected {order}")
        _cache[key] = g
    return _cache[key]


def groups_of_order_at_most(n):
    """One group per isomorphism type for each order covered by the catalog."""
    out = []
    for order in sorted(ORDER_CLASSES):
        if order > n:
            break
        out.extend(ORDER_CLASSES[order])
    return out


def all_catalog_names_of_order_at_most(n):
    return [name for name in sorted(_registry) if _registry[name][0] <= n]


def catalog_subgroup(group_name, spec):
    """Resolve a subgroup spec against a catalog group.

    spec is one of: trivial, full, center, derived, a per-group name, an
    inline brace list {w1, w2} (generated subgroup), or ncl{w1, w2}
    (normal closure).
    """
    g = catalog_group(group_name)
    named = _registry[_resolve(group_name)][2]
    return subgroup_of(g, named.get(spec, spec))


def subgroup_of(g, spec):
    """Resolve a generic subgroup spec (no per-group names) in any group."""
    spec = spec.strip()
    if spec == "trivial":
        return g.trivial_subgroup()
    if spec == "full":
        return g.full_subgroup()
    if spec == "center":
        return g.center()
    if spec == "derived":
        return g.derived_subgroup()
    closure = g.subgroup
    if spec.startswith("ncl"):
        closure = g.normal_closure
        spec = spec[3:].strip()
    if spec.startswith("{") and spec.endswith("}"):
        words = parse_words(spec[1:-1], g.generators)
        return closure([g.word_image(w) for w in words])
    raise KeyError(f"unknown subgroup spec {spec!r}")
