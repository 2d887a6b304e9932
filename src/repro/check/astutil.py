"""Shared AST plumbing for the contract rules.

Everything here is deliberately import-free with respect to the simulator:
rules reason about the source tree *as text*, never by executing it.
"""

from __future__ import annotations

import ast
from typing import Dict, Iterator, List, Optional, Set, Tuple

#: Methods that mutate the built-in containers in place.
MUTATOR_METHODS = frozenset({
    "append", "appendleft", "extend", "insert", "remove", "discard", "add",
    "pop", "popleft", "popitem", "clear", "update", "setdefault", "sort",
    "reverse", "rotate",
})

#: Calls that return a fresh container (safe to feed a bare attribute to).
COPYING_CALLS = frozenset({
    "list", "dict", "set", "frozenset", "tuple", "sorted", "deque",
    "copy", "deepcopy", "bytes", "bytearray", "str", "len", "sum", "min",
    "max", "any", "all",
})


def attach_parents(tree: ast.AST) -> None:
    """Stamp every node with ``_repro_parent`` (idempotent)."""
    for node in ast.walk(tree):
        for child in ast.iter_child_nodes(node):
            child._repro_parent = node  # type: ignore[attr-defined]


def parent(node: ast.AST) -> Optional[ast.AST]:
    return getattr(node, "_repro_parent", None)


def ancestors(node: ast.AST) -> Iterator[ast.AST]:
    current = parent(node)
    while current is not None:
        yield current
        current = parent(current)


def dotted_name(node: ast.AST) -> Optional[str]:
    """``a.b.c`` for a Name/Attribute chain, else None."""
    parts: List[str] = []
    while isinstance(node, ast.Attribute):
        parts.append(node.attr)
        node = node.value
    if isinstance(node, ast.Name):
        parts.append(node.id)
        return ".".join(reversed(parts))
    return None


def dotted_names_in(node: ast.AST) -> Set[str]:
    """Every dotted Name/Attribute chain appearing anywhere under ``node``."""
    names: Set[str] = set()
    for sub in ast.walk(node):
        if isinstance(sub, (ast.Name, ast.Attribute)):
            name = dotted_name(sub)
            if name is not None:
                names.add(name)
    return names


def mentions(node: ast.AST, target: str) -> bool:
    """Does ``node`` reference ``target`` or an attribute of it?"""
    prefix = target + "."
    return any(name == target or name.startswith(prefix)
               for name in dotted_names_in(node))


def import_map(tree: ast.AST) -> Dict[str, str]:
    """local name -> dotted origin, from every import in the module."""
    mapping: Dict[str, str] = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                local = alias.asname or alias.name.split(".")[0]
                origin = alias.name if alias.asname else alias.name.split(".")[0]
                mapping[local] = origin
        elif isinstance(node, ast.ImportFrom):
            module = ("." * node.level) + (node.module or "")
            for alias in node.names:
                if alias.name == "*":
                    continue
                local = alias.asname or alias.name
                mapping[local] = f"{module}.{alias.name}" if module else alias.name
    return mapping


def resolve_origin(node: ast.AST, imports: Dict[str, str]) -> Optional[str]:
    """Dotted origin of an expression through the module's imports.

    ``np.random.default_rng`` with ``import numpy as np`` resolves to
    ``numpy.random.default_rng``; ``datetime.now`` after
    ``from datetime import datetime`` resolves to ``datetime.datetime.now``.
    """
    name = dotted_name(node)
    if name is None:
        return None
    head, _, rest = name.partition(".")
    origin = imports.get(head)
    if origin is None:
        return name
    return f"{origin}.{rest}" if rest else origin


def self_attr(node: ast.AST) -> Optional[str]:
    """``X`` when ``node`` is exactly ``self.X``."""
    if (isinstance(node, ast.Attribute)
            and isinstance(node.value, ast.Name)
            and node.value.id == "self"):
        return node.attr
    return None


def subscript_root_attr(node: ast.AST) -> Optional[str]:
    """``X`` when ``node`` is ``self.X[...][...]`` to any depth."""
    while isinstance(node, ast.Subscript):
        node = node.value
    return self_attr(node)


def class_methods(cls: ast.ClassDef) -> Dict[str, ast.FunctionDef]:
    """Directly-defined methods by name (sync and async alike)."""
    methods: Dict[str, ast.FunctionDef] = {}
    for stmt in cls.body:
        if isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef)):
            methods[stmt.name] = stmt  # type: ignore[assignment]
    return methods


def iter_self_mutations(
        func: ast.AST) -> Iterator[Tuple[str, ast.AST, str]]:
    """Yield ``(attr, node, how)`` for each in-place write to ``self.X``.

    Covers rebinding (``self.x = ...``, ``self.x += ...``), item writes
    (``self.x[k] = v``, ``del self.x[k]``, ``self.x[k] += v``), and calls
    to the standard mutator methods (``self.x.append(v)``), including
    through subscripts (``self.x[k].append(v)``).
    """
    for node in ast.walk(func):
        if isinstance(node, (ast.Assign, ast.AnnAssign, ast.AugAssign)):
            targets = (node.targets if isinstance(node, ast.Assign)
                       else [node.target])
            for target in targets:
                attr = self_attr(target)
                if attr is not None:
                    yield attr, node, "assign"
                    continue
                attr = subscript_root_attr(target)
                if attr is not None:
                    yield attr, node, "item-write"
        elif isinstance(node, ast.Delete):
            for target in node.targets:
                attr = subscript_root_attr(target)
                if attr is not None and not self_attr(target):
                    yield attr, node, "item-delete"
        elif isinstance(node, ast.Call):
            func_node = node.func
            if (isinstance(func_node, ast.Attribute)
                    and func_node.attr in MUTATOR_METHODS):
                attr = self_attr(func_node.value)
                if attr is None:
                    attr = subscript_root_attr(func_node.value)
                if attr is not None:
                    yield attr, node, f".{func_node.attr}()"


def self_attr_reads(func: ast.AST) -> Set[str]:
    """Names X for every ``self.X`` appearing anywhere in ``func``."""
    return {self_attr(node) for node in ast.walk(func)
            if self_attr(node) is not None}  # type: ignore[misc]

