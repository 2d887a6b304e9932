"""Rule ``registry-resolve``: every part key resolves, without importing.

PR 3 made campaigns declarative: fault models, triggers, targets,
scenarios, SUTs, classifiers, guests, and workloads are looked up by key
in the :mod:`repro.core.registry` registries. A typo in the catalog, in a
CLI default, or in an ``examples/*.toml`` only explodes when somebody runs
that exact config. This rule closes the gap statically: it parses every
``@REG.register("key", ...)`` / ``REG.add_value("key", ...)`` site in
``src/`` (resolving constant-reference and enum-``.value`` aliases through
imports), then checks every literal reference — ``REG.build("lit")``
calls, ``PartRef("lit")`` catalog entries, and the part keys inside the
shipped example configs — against the collected keys.
"""

from __future__ import annotations

import ast
import difflib
import json
from typing import Dict, Iterator, List, Optional, Set, Tuple

try:
    import tomllib
except ModuleNotFoundError:  # pragma: no cover - 3.10 fallback
    tomllib = None

from repro.check import astutil
from repro.check.findings import Finding
from repro.check.rule import Rule
from repro.check.source import Project

#: Registry variable name -> human axis name.
REGISTRY_AXES = {
    "FAULT_MODELS": "fault model",
    "TRIGGERS": "trigger",
    "TARGETS": "target",
    "SCENARIOS": "scenario",
    "SUTS": "sut",
    "CLASSIFIERS": "classifier",
    "GUESTS": "guest",
    "WORKLOADS": "workload",
}

#: Registry methods whose literal first argument is a key lookup.
_LOOKUP_METHODS = frozenset({"build", "get", "canonical"})

#: CampaignConfig keyword -> registry its literal keys resolve against.
_CONFIG_KWARGS = {
    "targets": "TARGETS",
    "triggers": "TRIGGERS",
    "fault_models": "FAULT_MODELS",
    "scenarios": "SCENARIOS",
    "sut": "SUTS",
    "classifier": "CLASSIFIERS",
}

#: Config-file section -> registry for its ``kind`` keys.
_SECTION_REGISTRY = {
    "target": "TARGETS",
    "trigger": "TRIGGERS",
    "fault_model": "FAULT_MODELS",
}


def _module_name(rel: str) -> str:
    parts = rel[:-3].split("/")  # strip ".py"
    if parts[-1] == "__init__":
        parts = parts[:-1]
    return ".".join(parts)


class _ConstantTables:
    """Module- and class-level string constants, resolvable via imports."""

    def __init__(self, project: Project) -> None:
        self.module: Dict[str, Dict[str, str]] = {}
        self.classes: Dict[str, Dict[str, str]] = {}
        for source in project.sources:
            mod = _module_name(source.rel)
            consts: Dict[str, str] = {}
            classes: Dict[str, str] = {}
            for stmt in source.tree.body:
                if isinstance(stmt, ast.Assign) and len(stmt.targets) == 1:
                    target = stmt.targets[0]
                    if (isinstance(target, ast.Name)
                            and isinstance(stmt.value, ast.Constant)
                            and isinstance(stmt.value.value, str)):
                        consts[target.id] = stmt.value.value
                elif isinstance(stmt, ast.ClassDef):
                    for sub in stmt.body:
                        if (isinstance(sub, ast.Assign)
                                and len(sub.targets) == 1
                                and isinstance(sub.targets[0], ast.Name)
                                and isinstance(sub.value, ast.Constant)
                                and isinstance(sub.value.value, str)):
                            classes[f"{stmt.name}.{sub.targets[0].id}"] = (
                                sub.value.value)
            self.module[mod] = consts
            self.classes[mod] = classes

    def _resolve_import(self, mod: str, origin: str) -> str:
        """Absolutise a possibly-relative import origin."""
        if not origin.startswith("."):
            return origin
        package = mod.rsplit(".", 1)[0]
        stripped = origin.lstrip(".")
        for _ in range(len(origin) - len(stripped) - 1):
            package = package.rsplit(".", 1)[0]
        return f"{package}.{stripped}" if stripped else package

    def resolve(self, node: ast.AST, mod: str,
                imports: Dict[str, str]) -> Optional[str]:
        """Static string value of ``node``, through one level of indirection."""
        if isinstance(node, ast.Constant):
            return node.value if isinstance(node.value, str) else None
        if isinstance(node, ast.Name):
            local = self.module.get(mod, {}).get(node.id)
            if local is not None:
                return local
            origin = imports.get(node.id)
            if origin is None:
                return None
            origin = self._resolve_import(mod, origin)
            owner, _, name = origin.rpartition(".")
            return self.module.get(owner, {}).get(name)
        dotted = astutil.dotted_name(node)
        if dotted is None:
            return None
        if dotted.endswith(".value"):
            dotted = dotted[: -len(".value")]
        head, _, rest = dotted.partition(".")
        if not rest:
            return None
        local = self.classes.get(mod, {}).get(dotted)
        if local is not None:
            return local
        origin = imports.get(head)
        if origin is None:
            return None
        origin = self._resolve_import(mod, origin)
        owner, _, cls = origin.rpartition(".")
        return self.classes.get(owner, {}).get(f"{cls}.{rest}")


def _collect_registrations(project: Project,
                           tables: _ConstantTables) -> Dict[str, Set[str]]:
    known: Dict[str, Set[str]] = {name: set() for name in REGISTRY_AXES}
    for source in project.sources:
        mod = _module_name(source.rel)
        imports = astutil.import_map(source.tree)
        for node in ast.walk(source.tree):
            if not (isinstance(node, ast.Call)
                    and isinstance(node.func, ast.Attribute)
                    and isinstance(node.func.value, ast.Name)
                    and node.func.value.id in REGISTRY_AXES):
                continue
            registry = node.func.value.id
            method = node.func.attr
            if method not in ("register", "add", "add_value"):
                continue
            if not node.args:
                continue
            key = tables.resolve(node.args[0], mod, imports)
            if key is None:
                continue
            known[registry].add(key)
            alias_nodes: List[ast.AST] = []
            if method == "register":
                alias_nodes.extend(node.args[1:])
            for keyword in node.keywords:
                if keyword.arg == "aliases" and isinstance(
                        keyword.value, (ast.Tuple, ast.List, ast.Set)):
                    alias_nodes.extend(keyword.value.elts)
            for alias_node in alias_nodes:
                alias = tables.resolve(alias_node, mod, imports)
                if alias is not None:
                    known[registry].add(alias)
    return known


def _unknown(known: Dict[str, Set[str]], registry: str, key: str,
             file: str, line: int, where: str) -> Optional[Finding]:
    keys = known[registry]
    if not keys or key in keys:
        return None
    hint = ""
    close = difflib.get_close_matches(key, sorted(keys), n=1)
    if close:
        hint = f" (did you mean '{close[0]}'?)"
    return Finding(
        "registry-resolve", file, line,
        f"unknown {REGISTRY_AXES[registry]} key '{key}' in {where}; no "
        f"registration in core/registry.py matches{hint}")


def _partref_keys(node: ast.AST) -> Iterator[Tuple[str, int]]:
    """Literal first arguments of PartRef(...) calls under ``node``."""
    for sub in ast.walk(node):
        if (isinstance(sub, ast.Call)
                and isinstance(sub.func, ast.Name)
                and sub.func.id == "PartRef"
                and sub.args
                and isinstance(sub.args[0], ast.Constant)
                and isinstance(sub.args[0].value, str)):
            yield sub.args[0].value, sub.lineno


def _string_part_keys(node: ast.AST) -> Iterator[Tuple[str, int]]:
    """Plain-string keys of a CampaignConfig keyword (str or list-of-str)."""
    if isinstance(node, ast.Constant) and isinstance(node.value, str):
        yield node.value, node.lineno
    elif isinstance(node, (ast.List, ast.Tuple)):
        for element in node.elts:
            if (isinstance(element, ast.Constant)
                    and isinstance(element.value, str)):
                yield element.value, element.lineno


def _check_python_refs(project: Project, known: Dict[str, Set[str]],
                       tables: _ConstantTables) -> Iterator[Finding]:
    # A PartRef seen outside a CampaignConfig keyword could name any part
    # axis (classifier defaults, helper construction), so accept a key
    # known to any registry.
    union_keys = set().union(*known.values())
    for source in project.sources:
        astutil.attach_parents(source.tree)
        # PartRef nodes already validated against a specific axis; filled
        # in by the CampaignConfig branch, which ast.walk visits before
        # the nested calls themselves.
        contextual: Set[int] = set()
        for node in ast.walk(source.tree):
            if not isinstance(node, ast.Call):
                continue
            func_name = astutil.dotted_name(node.func) or ""
            # CampaignConfig(...): each part keyword names its axis.
            if func_name.split(".")[-1] == "CampaignConfig":
                for keyword in node.keywords:
                    registry = _CONFIG_KWARGS.get(keyword.arg or "")
                    if registry is None:
                        continue
                    for sub in ast.walk(keyword.value):
                        if (isinstance(sub, ast.Call)
                                and isinstance(sub.func, ast.Name)
                                and sub.func.id == "PartRef"):
                            contextual.add(id(sub))
                    for key, line in _partref_keys(keyword.value):
                        finding = _unknown(known, registry, key,
                                           source.rel, line,
                                           "the campaign catalog")
                        if finding:
                            yield finding
                    if registry in ("SCENARIOS", "SUTS", "CLASSIFIERS"):
                        for key, line in _string_part_keys(keyword.value):
                            finding = _unknown(known, registry, key,
                                               source.rel, line,
                                               "the campaign catalog")
                            if finding:
                                yield finding
            # Direct registry lookups with a literal key.
            elif (isinstance(node.func, ast.Attribute)
                    and isinstance(node.func.value, ast.Name)
                    and node.func.value.id in REGISTRY_AXES
                    and node.func.attr in _LOOKUP_METHODS
                    and node.args
                    and isinstance(node.args[0], ast.Constant)
                    and isinstance(node.args[0].value, str)):
                finding = _unknown(known, node.func.value.id,
                                   node.args[0].value, source.rel,
                                   node.lineno,
                                   f"a .{node.func.attr}() call")
                if finding:
                    yield finding
            elif (isinstance(node.func, ast.Name)
                    and node.func.id == "RegistrySutFactory"
                    and node.args
                    and isinstance(node.args[0], ast.Constant)
                    and isinstance(node.args[0].value, str)):
                finding = _unknown(known, "SUTS", node.args[0].value,
                                   source.rel, node.lineno,
                                   "a RegistrySutFactory")
                if finding:
                    yield finding
            elif (isinstance(node.func, ast.Name)
                    and node.func.id == "PartRef"
                    and node.args
                    and isinstance(node.args[0], ast.Constant)
                    and isinstance(node.args[0].value, str)):
                # A PartRef outside any CampaignConfig keyword: accept a
                # key known to any part registry.
                key = node.args[0].value
                if id(node) in contextual or not union_keys:
                    continue
                if key in union_keys:
                    continue
                close = difflib.get_close_matches(key, sorted(union_keys),
                                                  n=1)
                hint = f" (did you mean '{close[0]}'?)" if close else ""
                yield Finding(
                    "registry-resolve", source.rel, node.lineno,
                    f"unknown part key '{key}' in a PartRef; no "
                    f"registration in core/registry.py matches{hint}")


def _load_config(path) -> Tuple[Optional[dict], Optional[str]]:
    try:
        if path.suffix == ".json":
            return json.loads(path.read_text()), None
        if tomllib is None:  # pragma: no cover - 3.10 fallback
            return None, None
        with open(path, "rb") as handle:
            return tomllib.load(handle), None
    except (OSError, ValueError) as exc:
        return None, str(exc)


def _check_examples(project: Project,
                    known: Dict[str, Set[str]]) -> Iterator[Finding]:
    for path in project.example_configs():
        try:
            rel = path.relative_to(project.root).as_posix()
        except ValueError:  # pragma: no cover - examples outside root
            rel = path.as_posix()
        data, error = _load_config(path)
        if error is not None:
            yield Finding("registry-resolve", rel, 1,
                          f"unparseable campaign config: {error}")
            continue
        if not isinstance(data, dict):
            continue
        campaign = data.get("campaign")
        campaign = campaign if isinstance(campaign, dict) else {}
        for config_key, registry in (("scenario", "SCENARIOS"),
                                     ("sut", "SUTS"),
                                     ("classifier", "CLASSIFIERS")):
            value = campaign.get(config_key)
            values = value if isinstance(value, list) else [value]
            for item in values:
                if isinstance(item, str):
                    finding = _unknown(known, registry, item, rel, 1,
                                       f"[campaign] {config_key}")
                    if finding:
                        yield finding
        for section, registry in _SECTION_REGISTRY.items():
            entries = data.get(section)
            if isinstance(entries, dict):
                entries = [entries]
            if not isinstance(entries, list):
                continue
            for entry in entries:
                kind = entry.get("kind") if isinstance(entry, dict) else None
                if isinstance(kind, str):
                    finding = _unknown(known, registry, kind, rel, 1,
                                       f"[[{section}]] kind")
                    if finding:
                        yield finding


def run(project: Project) -> Iterator[Finding]:
    tables = _ConstantTables(project)
    known = _collect_registrations(project, tables)
    yield from _check_python_refs(project, known, tables)
    yield from _check_examples(project, known)


RULE = Rule(
    name="registry-resolve",
    description=("catalog names, CLI references, and examples/* part keys "
                 "resolve against statically-parsed registrations"),
    run=run,
)
