"""Rule ``lock-discipline``: guarded state never escapes its lock.

Applies to any class that creates a ``threading.Lock``/``RLock`` attribute
(the watch hub, the fleet coordinator, ...). An attribute that is touched
inside any ``with self._lock:`` block is *guarded state*; the rule then
demands:

* no in-place write to a guarded attribute outside a lock context, and
* helper methods that rely on the caller holding the lock follow the
  repo's ``*_locked`` naming convention and are only called from a lock
  context.

A *lock context* is a ``with self.<lock>:`` body, ``__init__`` (no other
thread can hold a reference yet), or the body of a ``*_locked`` method.
That makes the convention machine-checked instead of a docstring promise.
"""

from __future__ import annotations

import ast
from typing import Iterator, Set

from repro.check import astutil
from repro.check.findings import Finding
from repro.check.rule import Rule
from repro.check.source import Project, SourceFile

#: Methods that may mutate freely: no concurrent reader can exist yet.
_SETUP_METHODS = frozenset({"__init__", "__post_init__", "__new__"})


def _lock_attrs(cls: ast.ClassDef) -> Set[str]:
    """Attributes of ``cls`` assigned a threading.Lock()/RLock()."""
    locks: Set[str] = set()
    for node in ast.walk(cls):
        if not isinstance(node, ast.Assign):
            continue
        if not isinstance(node.value, ast.Call):
            continue
        origin = astutil.dotted_name(node.value.func) or ""
        if origin.split(".")[-1] not in ("Lock", "RLock"):
            continue
        for target in node.targets:
            attr = astutil.self_attr(target)
            if attr is not None:
                locks.add(attr)
    return locks


def _in_lock_block(node: ast.AST, locks: Set[str]) -> bool:
    """Is ``node`` inside a ``with self.<lock>:`` body?"""
    for ancestor in astutil.ancestors(node):
        if isinstance(ancestor, (ast.With, ast.AsyncWith)):
            for item in ancestor.items:
                attr = astutil.self_attr(item.context_expr)
                if attr in locks:
                    return True
    return False


def _check_class(source: SourceFile, cls: ast.ClassDef) -> Iterator[Finding]:
    locks = _lock_attrs(cls)
    if not locks:
        return
    main_lock = "_lock" if "_lock" in locks else sorted(locks)[0]
    methods = astutil.class_methods(cls)

    # Pass 1: which attributes does the class touch under a lock?
    guarded: Set[str] = set()
    for node in ast.walk(cls):
        attr = astutil.self_attr(node)
        if attr is None or attr in locks:
            continue
        if _in_lock_block(node, locks):
            guarded.add(attr)
    # State written by *_locked helpers is guarded by convention too.
    for name, method in methods.items():
        if name.endswith("_locked"):
            for attr, _node, _how in astutil.iter_self_mutations(method):
                if attr not in locks:
                    guarded.add(attr)
    if not guarded:
        return

    # Pass 2: mutations of guarded state outside any lock context.
    for name, method in methods.items():
        if name in _SETUP_METHODS or name.endswith("_locked"):
            continue
        for attr, node, how in astutil.iter_self_mutations(method):
            if attr not in guarded:
                continue
            if _in_lock_block(node, locks):
                continue
            yield Finding(
                "lock-discipline", source.rel, node.lineno,
                f"{cls.name}.{name} mutates guarded attribute "
                f"'{attr}' ({how}) outside 'with self.{main_lock}'; "
                "take the lock or rename the helper '*_locked'")

    # Pass 3: *_locked helpers must be invoked with the lock held.
    for name, method in methods.items():
        for node in ast.walk(method):
            if not isinstance(node, ast.Call):
                continue
            callee = astutil.self_attr(node.func)
            if callee is None or not callee.endswith("_locked"):
                continue
            if callee not in methods:
                continue
            if (name.endswith("_locked")
                    or name in _SETUP_METHODS
                    or _in_lock_block(node, locks)):
                continue
            yield Finding(
                "lock-discipline", source.rel, node.lineno,
                f"{cls.name}.{name} calls self.{callee}() without holding "
                f"the lock; wrap the call in 'with self.{main_lock}'")


def _iter_findings(source: SourceFile) -> Iterator[Finding]:
    astutil.attach_parents(source.tree)
    for node in ast.walk(source.tree):
        if isinstance(node, ast.ClassDef):
            yield from _check_class(source, node)


def run(project: Project) -> Iterator[Finding]:
    for source in project.sources:
        yield from _iter_findings(source)


RULE = Rule(
    name="lock-discipline",
    description=("attributes touched under self._lock are never mutated "
                 "outside it; *_locked helpers called with the lock held"),
    run=run,
)
