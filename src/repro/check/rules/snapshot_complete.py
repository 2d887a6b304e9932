"""Rule ``snapshot-complete``: ``snapshot_state`` covers what mutates.

The family executor's prefix forks restore simulations from snapshots; a
mutable field that is missing from — or *aliased into* — a snapshot
corrupts every fork sharing it (the mutable ``ParkRecord`` bug). For every
class implementing ``snapshot_state`` this rule cross-checks the attributes
assigned in ``__init__`` against the snapshot body:

* an attribute mutated anywhere after construction (including by
  ``restore_state``) must be *read* by ``snapshot_state``;
* a container-typed attribute may not appear in the snapshot bare — it
  must pass through a copying call (``dict(...)``, ``set(...)``,
  ``sorted(...)``, ``.copy()``, ...) so the snapshot owns its storage.

Deliberately-excluded fields (caches rebuilt lazily, shared immutables)
carry an inline suppression on their ``__init__`` assignment.
"""

from __future__ import annotations

import ast
from typing import Dict, Iterator, List, Optional, Set, Tuple

from repro.check import astutil
from repro.check.findings import Finding
from repro.check.rule import Rule
from repro.check.source import Project, SourceFile

#: Expressions that initialise a mutable container.
_CONTAINER_CALLS = frozenset({
    "list", "dict", "set", "deque", "defaultdict", "OrderedDict",
    "Counter", "bytearray",
})

_SETUP_METHODS = frozenset({"__init__", "__post_init__"})


def _is_container_init(node: Optional[ast.AST]) -> bool:
    if isinstance(node, (ast.List, ast.Dict, ast.Set,
                         ast.ListComp, ast.DictComp, ast.SetComp)):
        return True
    if isinstance(node, ast.Call):
        name = astutil.dotted_name(node.func) or ""
        return name.split(".")[-1] in _CONTAINER_CALLS
    return False


def _init_attrs(init: ast.AST) -> Dict[str, Tuple[int, bool]]:
    """attr -> (assignment line, is-mutable-container) from ``__init__``."""
    attrs: Dict[str, Tuple[int, bool]] = {}
    for node in ast.walk(init):
        if isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = (node.targets if isinstance(node, ast.Assign)
                       else [node.target])
            for target in targets:
                attr = astutil.self_attr(target)
                if attr is not None and attr not in attrs:
                    attrs[attr] = (node.lineno,
                                   _is_container_init(node.value))
    return attrs


def _alias_sites(snapshot: ast.AST,
                 container_attrs: Set[str]) -> Iterator[Tuple[str, int]]:
    """Bare uses of mutable ``self.X`` that end up inside the snapshot."""
    for node in ast.walk(snapshot):
        attr = astutil.self_attr(node)
        if attr is None or attr not in container_attrs:
            continue
        if not isinstance(getattr(node, "ctx", None), ast.Load):
            continue
        parent = astutil.parent(node)
        if isinstance(parent, (ast.Dict, ast.Tuple, ast.List, ast.Return)):
            yield attr, node.lineno
        elif isinstance(parent, (ast.Assign, ast.AnnAssign)):
            # Storing the bare reference into a structure leaks it; binding
            # it to a local name (a speed alias) does not.
            targets = (parent.targets if isinstance(parent, ast.Assign)
                       else [parent.target])
            if node is parent.value and any(
                    not isinstance(target, ast.Name) for target in targets):
                yield attr, node.lineno
        elif isinstance(parent, (ast.Call, ast.keyword)):
            call = parent if isinstance(parent, ast.Call) else (
                astutil.parent(parent))
            if not isinstance(call, ast.Call):
                continue
            if isinstance(call.func, ast.Attribute) and call.func.value is node:
                continue  # self.X.copy() and friends: X is the receiver
            name = (astutil.dotted_name(call.func) or "").split(".")[-1]
            if name in astutil.COPYING_CALLS:
                continue
            # Uppercase callee = a constructor that will store the
            # reference (the ParkRecord shape); helpers get the benefit
            # of the doubt.
            if name[:1].isupper():
                yield attr, node.lineno


def _check_class(source: SourceFile, cls: ast.ClassDef) -> Iterator[Finding]:
    methods = astutil.class_methods(cls)
    snapshot = methods.get("snapshot_state")
    init = methods.get("__init__")
    if snapshot is None or init is None:
        return
    attrs = _init_attrs(init)
    snapshot_reads = astutil.self_attr_reads(snapshot)

    mutated_by: Dict[str, str] = {}
    for name, method in methods.items():
        if name in _SETUP_METHODS or name == "snapshot_state":
            continue
        for attr, _node, _how in astutil.iter_self_mutations(method):
            mutated_by.setdefault(attr, name)

    for attr, (line, _is_container) in sorted(attrs.items()):
        if attr in mutated_by and attr not in snapshot_reads:
            yield Finding(
                "snapshot-complete", source.rel, line,
                f"{cls.name}.{attr} is mutated by {mutated_by[attr]}() but "
                "never captured in snapshot_state; restored forks will "
                "share stale state")

    container_attrs = {attr for attr, (_line, mutable) in attrs.items()
                       if mutable}
    seen: Set[str] = set()
    for attr, line in _alias_sites(snapshot, container_attrs):
        if attr in seen:
            continue
        seen.add(attr)
        yield Finding(
            "snapshot-complete", source.rel, line,
            f"{cls.name}.{attr} is aliased into the snapshot without a "
            "copy; mutate-after-snapshot corrupts every fork (wrap in "
            "dict()/list()/set())")


def _iter_findings(source: SourceFile) -> Iterator[Finding]:
    astutil.attach_parents(source.tree)
    for node in ast.walk(source.tree):
        if isinstance(node, ast.ClassDef):
            yield from _check_class(source, node)


def run(project: Project) -> Iterator[Finding]:
    for source in project.sources:
        yield from _iter_findings(source)


RULE = Rule(
    name="snapshot-complete",
    description=("mutable attributes assigned in __init__ are captured — "
                 "and copied, not aliased — by snapshot_state"),
    run=run,
)
