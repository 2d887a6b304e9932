"""No module under ``src/`` imports a name it never uses.

An unused import costs start-up time on every command that loads its
module, and hides which modules really depend on each other. Package
``__init__.py`` files are skipped: importing to re-export is their job. A
name counts as used when the module reads it, lists it in ``__all__`` or
names it in an annotation, quoted or not.
"""

import ast
from pathlib import Path
from typing import Iterator, Set, Tuple

SRC = Path(__file__).resolve().parents[1] / "src"


def imported_names(tree: ast.Module) -> Iterator[Tuple[str, int]]:
    """``(bound name, line)`` of every import, ``__future__`` aside."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                yield (alias.asname or alias.name.split(".")[0]), node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                if alias.name != "*":
                    yield alias.asname or alias.name, node.lineno


def annotations(tree: ast.Module) -> Iterator[ast.expr]:
    for node in ast.walk(tree):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            yield from (arg.annotation for arg in (
                *node.args.posonlyargs, *node.args.args, *node.args.kwonlyargs,
                node.args.vararg, node.args.kwarg)
                if arg is not None and arg.annotation is not None)
            if node.returns is not None:
                yield node.returns
        elif isinstance(node, ast.AnnAssign):
            yield node.annotation


def used_names(tree: ast.Module) -> Set[str]:
    """Every name the module reads, lists in ``__all__`` or annotates with."""
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    for annotation in annotations(tree):
        for node in ast.walk(annotation):
            if isinstance(node, ast.Constant) and isinstance(node.value, str):
                used |= used_names(ast.parse(node.value, mode="eval"))
    for node in ast.walk(tree):
        if (isinstance(node, ast.Assign)
                and any(isinstance(target, ast.Name) and target.id == "__all__"
                        for target in node.targets)):
            used |= {element.value for element in node.value.elts}
    return used


def unused_imports(root: Path) -> list:
    """``path:line: name`` of every unused import under ``root``."""
    findings = []
    for path in sorted(root.rglob("*.py")):
        if path.name == "__init__.py":
            continue
        tree = ast.parse(path.read_text(encoding="utf-8"), str(path))
        used = used_names(tree)
        findings += [f"{path.relative_to(root)}:{line}: {name}"
                     for name, line in imported_names(tree)
                     if name not in used]
    return findings


def test_no_module_imports_a_name_it_never_uses():
    assert unused_imports(SRC) == []


def test_the_scan_finds_an_unused_import(tmp_path):
    package = tmp_path / "pkg"
    package.mkdir()
    (package / "__init__.py").write_text("from os import sep\n")
    (package / "mod.py").write_text(
        "from __future__ import annotations\n"
        "import os.path\n"
        "import json as codec\n"
        "from typing import TYPE_CHECKING, Dict, List, Tuple\n"
        "if TYPE_CHECKING:\n"
        "    from pathlib import Path\n"
        "from collections import deque, OrderedDict\n"
        "__all__ = ['OrderedDict']\n"
        "def f(x: 'Dict[str, Path]') -> List[int]:\n"
        "    return os.path.sep\n")
    assert unused_imports(tmp_path) == [
        "pkg/mod.py:3: codec",
        "pkg/mod.py:4: Tuple",
        "pkg/mod.py:7: deque",
    ]
