"""Rule ``determinism``: record-producing code must be replayable.

Byte-identical records across execution strategies (the per-spec cold
reference, the family executor at any ``--jobs``, the fleet) are the repo's
core guarantee — every chaos and parity suite asserts it. Inside the
packages that produce records or identities (``hw/``, ``hypervisor/``,
``guests/``, ``core/``, ``engine/``) this rule forbids the ambient-entropy
APIs (wall clocks, ``os.urandom``, the module-level ``random.*`` global RNG,
v1/v4 UUIDs) and the classic silent killer: iterating a ``set`` into
anything order-sensitive. Seeded generators
(``repro.rng.seeded_rng(seed)``, ``random.Random(seed)``) are fine and
are the suggested replacement.
"""

from __future__ import annotations

import ast
from typing import Iterator, Optional, Set

from repro.check import astutil
from repro.check.findings import Finding
from repro.check.rule import Rule
from repro.check.source import Project, SourceFile

#: Packages whose code feeds records or spec identities.
SCOPE = (
    "repro/hw/",
    "repro/hypervisor/",
    "repro/guests/",
    "repro/core/",
    "repro/engine/",
)

#: Exact call origins that read ambient entropy or wall-clock time.
BANNED_CALLS = {
    "time.time": "wall-clock time",
    "time.time_ns": "wall-clock time",
    "datetime.datetime.now": "wall-clock time",
    "datetime.datetime.utcnow": "wall-clock time",
    "datetime.datetime.today": "wall-clock time",
    "datetime.date.today": "wall-clock time",
    "os.urandom": "OS entropy",
    "os.getrandom": "OS entropy",
    "uuid.uuid1": "host/time-derived UUID",
    "uuid.uuid4": "random UUID",
}

#: Module prefixes banned outright (shared global RNG / OS entropy).
BANNED_PREFIXES = {
    "random.": "the module-level random.* global RNG",
    "secrets.": "OS entropy",
}

#: ``random.Random(seed)`` instances are the sanctioned stdlib escape.
ALLOWED_ORIGINS = frozenset({"random.Random"})

#: Constructors whose result is an unordered set.
_SET_CONSTRUCTORS = frozenset({"set", "frozenset"})

#: Order-sensitive constructors: feeding them a set leaks hash order.
_ORDER_SENSITIVE_CONSTRUCTORS = frozenset({"list", "tuple"})


def _set_typed_attrs(cls: ast.ClassDef) -> Set[str]:
    """Attributes of ``cls`` statically known to hold a set."""
    attrs: Set[str] = set()
    for method in astutil.class_methods(cls).values():
        for node in ast.walk(method):
            if isinstance(node, (ast.Assign, ast.AnnAssign)):
                targets = (node.targets if isinstance(node, ast.Assign)
                           else [node.target])
                value = node.value
                annotation = getattr(node, "annotation", None)
                for target in targets:
                    attr = astutil.self_attr(target)
                    if attr is None:
                        continue
                    if _is_set_expr(value, attrs):
                        attrs.add(attr)
                    elif annotation is not None and "Set" in ast.dump(annotation):
                        attrs.add(attr)
    return attrs


def _is_set_expr(node: Optional[ast.AST], set_attrs: Set[str]) -> bool:
    """Is this expression statically a set?"""
    if node is None:
        return False
    if isinstance(node, (ast.Set, ast.SetComp)):
        return True
    if isinstance(node, ast.Call) and isinstance(node.func, ast.Name):
        return node.func.id in _SET_CONSTRUCTORS
    attr = astutil.self_attr(node)
    return attr is not None and attr in set_attrs


def _enclosing_class(node: ast.AST) -> Optional[ast.ClassDef]:
    for ancestor in astutil.ancestors(node):
        if isinstance(ancestor, ast.ClassDef):
            return ancestor
    return None


def _iter_findings(source: SourceFile) -> Iterator[Finding]:
    astutil.attach_parents(source.tree)
    imports = astutil.import_map(source.tree)
    set_attr_cache = {}

    def set_attrs_for(node: ast.AST) -> Set[str]:
        cls = _enclosing_class(node)
        if cls is None:
            return set()
        if cls not in set_attr_cache:
            set_attr_cache[cls] = _set_typed_attrs(cls)
        return set_attr_cache[cls]

    def describe(expr: ast.AST) -> str:
        name = astutil.dotted_name(expr)
        if name is not None:
            return name
        return type(expr).__name__.lower()

    for node in ast.walk(source.tree):
        if isinstance(node, ast.Call):
            origin = astutil.resolve_origin(node.func, imports)
            if origin is not None and origin not in ALLOWED_ORIGINS:
                if origin in BANNED_CALLS:
                    yield Finding(
                        "determinism", source.rel, node.lineno,
                        f"call to {origin} ({BANNED_CALLS[origin]}) in "
                        "record-producing code; thread a seeded source "
                        "through instead")
                else:
                    for prefix, why in BANNED_PREFIXES.items():
                        if origin.startswith(prefix):
                            yield Finding(
                                "determinism", source.rel, node.lineno,
                                f"call to {origin} uses {why}; use a "
                                "seeded random.Random / "
                                "repro.rng.seeded_rng(seed)")
                            break
            # list(set_expr) / tuple(set_expr): hash order becomes element
            # order of an ordered container.
            if (isinstance(node.func, ast.Name)
                    and node.func.id in _ORDER_SENSITIVE_CONSTRUCTORS
                    and node.args
                    and _is_set_expr(node.args[0], set_attrs_for(node))):
                yield Finding(
                    "determinism", source.rel, node.lineno,
                    f"{node.func.id}() over the unordered set "
                    f"'{describe(node.args[0])}' leaks hash order; wrap "
                    "it in sorted(...)")
        elif isinstance(node, ast.For):
            if _is_set_expr(node.iter, set_attrs_for(node)):
                yield Finding(
                    "determinism", source.rel, node.lineno,
                    "for-loop iterates the unordered set "
                    f"'{describe(node.iter)}'; iterate sorted(...) so "
                    "side effects are ordered")
        elif isinstance(node, (ast.ListComp, ast.GeneratorExp)):
            for comp in node.generators:
                if _is_set_expr(comp.iter, set_attrs_for(node)):
                    yield Finding(
                        "determinism", source.rel, node.lineno,
                        "comprehension builds an ordered result from the "
                        f"unordered set '{describe(comp.iter)}'; iterate "
                        "sorted(...)")


def run(project: Project) -> Iterator[Finding]:
    for source in project.files_under(*SCOPE):
        yield from _iter_findings(source)


RULE = Rule(
    name="determinism",
    description=("no ambient entropy or unordered-set iteration in "
                 "record-producing packages"),
    run=run,
)
