"""Whole-program view: the call graph over ``src/repro``.

The per-file rules (RL001-RL003, RL005) see one AST at a time; RL008
needs to follow a stale value out of a sync helper's return and into
another helper's write — which requires knowing, for every call
expression, *which project function(s) it may invoke*.
:class:`ProjectGraph` builds that map from the already-parsed
:class:`~repro.analysis.source.SourceFile` list, with no imports
executed (pure ``ast``, like the rest of the linter).

Resolution strategy — a call resolves only where its target is known;
everything else (``backend.send``, ``node.on_message``) is
``kind="external"`` with no callees:

* **bare names** — nested ``def``s in the enclosing function, then
  module-level functions, then ``from X import f`` aliases, then class
  names (a constructor call edges to ``__init__``);
* **module attributes** (``codec.loads``) — via the import alias table;
* **``self.`` methods** — looked up on the enclosing class, then its
  bases (resolved by name across the project);
* **typed fields** (``self.abc.submit``) — via light field-type
  inference: ``self.x = ClassName(...)`` in ``__init__``/class body, or
  ``self.x = param`` where the parameter is annotated with a project
  class.

Lambdas and nested ``def``s are first-class graph nodes; *defining* one
inside a function adds a containment edge (a closure that is created is
conservatively assumed to eventually run).
"""

from __future__ import annotations

import ast
from dataclasses import dataclass, field
from typing import Iterator

from .source import SourceFile

__all__ = [
    "CallSite",
    "ClassInfo",
    "FunctionInfo",
    "ModuleInfo",
    "ProjectGraph",
    "decorator_names",
    "walk_function_body",
]

_FunctionNode = ast.FunctionDef | ast.AsyncFunctionDef | ast.Lambda


@dataclass
class FunctionInfo:
    """One project function, method, nested def or lambda."""

    qualname: str  # "core/x.py::Cls.meth", "core/x.py::fn", "core/x.py::fn.<lambda>@12"
    relpath: str
    name: str  # the name a call expression uses ("" for lambdas)
    node: _FunctionNode
    cls: str | None = None  # enclosing class name, if a method
    params: tuple[str, ...] = ()
    is_static: bool = False
    is_classmethod: bool = False

    def arg_param_index(self, arg_index: int, bound: bool) -> int:
        """Map a call-site positional argument to a parameter index.

        ``bound`` is True for instance-style calls (``obj.meth(a)``)
        where the receiver fills the first parameter slot.
        """
        if self.is_classmethod:
            return arg_index + 1
        if self.cls is not None and not self.is_static and bound:
            return arg_index + 1
        return arg_index

    def param_index_of(self, name: str) -> int | None:
        try:
            return self.params.index(name)
        except ValueError:
            return None


@dataclass
class ClassInfo:
    """One project class: methods, bases, field types."""

    name: str
    relpath: str
    node: ast.ClassDef
    bases: tuple[str, ...] = ()
    methods: dict[str, str] = field(default_factory=dict)  # name -> qualname
    # field name -> project class name, from __init__ assignments.
    field_types: dict[str, str] = field(default_factory=dict)


@dataclass
class ModuleInfo:
    """One module: its source plus resolved import tables."""

    relpath: str
    source: SourceFile
    # local alias -> module relpath ("from .. import codec" / "import x.y as z")
    module_aliases: dict[str, str] = field(default_factory=dict)
    # local name -> ("relpath", "symbol") for "from X import f"
    symbol_aliases: dict[str, tuple[str, str]] = field(default_factory=dict)
    functions: dict[str, str] = field(default_factory=dict)  # name -> qualname
    classes: dict[str, str] = field(default_factory=dict)  # name -> class name (local)


@dataclass(frozen=True)
class CallSite:
    """One call expression with its resolved callee candidates."""

    caller: str  # qualname
    line: int
    col: int
    name: str  # the called name as written ("loads", "verify", ...)
    callees: tuple[str, ...]  # candidate qualnames (empty: external/unresolved)
    kind: str  # "local" | "import" | "method" | "constructor" | "external"
    bound: bool = False  # instance-style call: receiver fills the self slot


def walk_function_body(node: _FunctionNode) -> Iterator[ast.AST]:
    """Yield every AST node of a function *excluding* nested function
    bodies (nested defs/lambdas are separate graph nodes)."""
    stack: list[ast.AST] = (
        list(node.body) if not isinstance(node, ast.Lambda) else [node.body]
    )
    while stack:
        current = stack.pop()
        yield current
        for child in ast.iter_child_nodes(current):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)):
                # Yield the def itself (callers may want it) but do not
                # descend: its body belongs to its own graph node.
                yield child
                continue
            stack.append(child)


def _positional_params(node: _FunctionNode) -> tuple[str, ...]:
    args = node.args
    return tuple(a.arg for a in [*args.posonlyargs, *args.args])


def _relpath_to_dotted(relpath: str) -> str:
    dotted = relpath[:-3] if relpath.endswith(".py") else relpath
    if dotted.endswith("/__init__"):
        dotted = dotted[: -len("/__init__")]
    return dotted.replace("/", ".")


def _annotation_name(annotation: ast.expr | None) -> str | None:
    if isinstance(annotation, ast.Name):
        return annotation.id
    if isinstance(annotation, ast.Attribute):
        return annotation.attr
    if isinstance(annotation, ast.Constant) and isinstance(annotation.value, str):
        # String annotation: "StateMachine" or "repro.x.StateMachine".
        return annotation.value.split("[")[0].split(".")[-1].strip("'\" ")
    return None


def decorator_names(node: ast.ClassDef) -> set[str]:
    """``dataclass`` for ``@dataclass(frozen=True)``, ``register`` for
    ``@register`` / ``@codec.register``."""
    names: set[str] = set()
    for deco in node.decorator_list:
        target = deco.func if isinstance(deco, ast.Call) else deco
        if isinstance(target, ast.Name):
            names.add(target.id)
        elif isinstance(target, ast.Attribute):
            names.add(target.attr)
    return names


class ProjectGraph:
    """The whole-program index: modules, functions, classes, call edges."""

    def __init__(self) -> None:
        self.modules: dict[str, ModuleInfo] = {}
        self.functions: dict[str, FunctionInfo] = {}
        self.classes: dict[str, list[ClassInfo]] = {}  # by class name
        self.calls: dict[str, list[CallSite]] = {}  # caller qualname -> sites
        # caller qualname -> id(ast.Call) -> CallSite, for AST-walking clients
        self.call_sites_by_node: dict[str, dict[int, CallSite]] = {}
        self.contains: dict[str, list[str]] = {}  # fn -> nested fns/lambdas

    # -- construction --------------------------------------------------------

    @classmethod
    def build(cls, sources: list[SourceFile]) -> "ProjectGraph":
        graph = cls()
        by_dotted: dict[str, str] = {}
        for source in sources:
            graph.modules[source.relpath] = ModuleInfo(source.relpath, source)
            by_dotted[_relpath_to_dotted(source.relpath)] = source.relpath
        for module in graph.modules.values():
            graph._index_module(module)
        for module in graph.modules.values():
            graph._resolve_imports(module, by_dotted)
        for module in graph.modules.values():
            graph._infer_field_types(module)
        for qualname in list(graph.functions):
            graph._build_calls(qualname)
        return graph

    def _index_module(self, module: ModuleInfo) -> None:
        relpath = module.relpath
        for node in module.source.tree.body:
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                self._add_function(module, node, cls=None, prefix="")
            elif isinstance(node, ast.ClassDef):
                info = ClassInfo(
                    name=node.name,
                    relpath=relpath,
                    node=node,
                    bases=tuple(
                        b.id if isinstance(b, ast.Name) else b.attr
                        for b in node.bases
                        if isinstance(b, (ast.Name, ast.Attribute))
                    ),
                )
                for item in node.body:
                    if isinstance(item, (ast.FunctionDef, ast.AsyncFunctionDef)):
                        fn = self._add_function(module, item, cls=node.name, prefix="")
                        info.methods[item.name] = fn.qualname
                self.classes.setdefault(node.name, []).append(info)
                module.classes[node.name] = node.name

    def _add_function(
        self,
        module: ModuleInfo,
        node: _FunctionNode,
        cls: str | None,
        prefix: str,
    ) -> FunctionInfo:
        if isinstance(node, ast.Lambda):
            name = ""
            qualname = f"{module.relpath}::{prefix}<lambda>@{node.lineno}:{node.col_offset}"
        else:
            name = node.name
            base = f"{cls}.{node.name}" if cls else node.name
            qualname = f"{module.relpath}::{prefix}{base}"
        deco_names = set()
        if not isinstance(node, ast.Lambda):
            for deco in node.decorator_list:
                target = deco.func if isinstance(deco, ast.Call) else deco
                if isinstance(target, ast.Name):
                    deco_names.add(target.id)
                elif isinstance(target, ast.Attribute):
                    deco_names.add(target.attr)
        info = FunctionInfo(
            qualname=qualname,
            relpath=module.relpath,
            name=name,
            node=node,
            cls=cls,
            params=_positional_params(node),
            is_static="staticmethod" in deco_names,
            is_classmethod="classmethod" in deco_names,
        )
        self.functions[qualname] = info
        if cls is None and name and not prefix:
            module.functions.setdefault(name, qualname)
        # Register nested defs and lambdas as their own nodes.
        nested_prefix = (
            f"{prefix}{cls + '.' if cls else ''}{name or '<lambda>'}."
        )
        for child in walk_function_body(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)):
                nested = self._add_function(module, child, cls=None, prefix=nested_prefix)
                self.contains.setdefault(qualname, []).append(nested.qualname)
        return info

    def _resolve_imports(self, module: ModuleInfo, by_dotted: dict[str, str]) -> None:
        def target_relpath(dotted: str) -> str | None:
            dotted = dotted.removeprefix("repro.").removeprefix("repro")
            if not dotted:
                return None
            if dotted in by_dotted:
                return by_dotted[dotted]
            return None

        package_parts = module.relpath.split("/")[:-1]
        for node in ast.walk(module.source.tree):
            if isinstance(node, ast.Import):
                for alias in node.names:
                    rel = target_relpath(alias.name)
                    if rel is not None:
                        module.module_aliases[alias.asname or alias.name.split(".")[-1]] = rel
            elif isinstance(node, ast.ImportFrom):
                if node.level:
                    base = package_parts[: len(package_parts) - (node.level - 1)]
                    dotted = ".".join([*base, node.module] if node.module else base)
                else:
                    dotted = node.module or ""
                    dotted = dotted.removeprefix("repro.")
                for alias in node.names:
                    local = alias.asname or alias.name
                    # "from . import codec": the imported name is a module.
                    as_module = target_relpath(f"{dotted}.{alias.name}" if dotted else alias.name)
                    if as_module is not None:
                        module.module_aliases[local] = as_module
                        continue
                    rel = target_relpath(dotted)
                    if rel is not None:
                        module.symbol_aliases[local] = (rel, alias.name)

    def _infer_field_types(self, module: ModuleInfo) -> None:
        for infos in self.classes.values():
            for info in infos:
                if info.relpath != module.relpath:
                    continue
                init = info.methods.get("__init__")
                scan: list[ast.AST] = list(info.node.body)
                if init is not None:
                    fn = self.functions[init].node
                    if not isinstance(fn, ast.Lambda):
                        scan.extend(fn.body)
                        annotations = {
                            a.arg: _annotation_name(a.annotation)
                            for a in [*fn.args.posonlyargs, *fn.args.args]
                        }
                    else:  # pragma: no cover - __init__ is never a lambda
                        annotations = {}
                else:
                    annotations = {}
                for stmt in scan:
                    targets: list[ast.expr] = []
                    value: ast.expr | None = None
                    if isinstance(stmt, ast.Assign):
                        targets, value = stmt.targets, stmt.value
                    elif isinstance(stmt, ast.AnnAssign) and stmt.value is not None:
                        targets, value = [stmt.target], stmt.value
                    for target in targets:
                        if not (
                            isinstance(target, ast.Attribute)
                            and isinstance(target.value, ast.Name)
                            and target.value.id == "self"
                        ):
                            continue
                        typename: str | None = None
                        if isinstance(value, ast.Call):
                            fname = value.func
                            if isinstance(fname, ast.Name) and fname.id in self.classes:
                                typename = fname.id
                            elif (
                                isinstance(fname, ast.Attribute)
                                and fname.attr in self.classes
                            ):
                                typename = fname.attr
                        elif isinstance(value, ast.Name):
                            candidate = annotations.get(value.id)
                            if candidate in self.classes:
                                typename = candidate
                        if typename is not None:
                            info.field_types.setdefault(target.attr, typename)

    # -- resolution ----------------------------------------------------------

    def _lookup_method(self, class_name: str, method: str) -> str | None:
        seen: set[str] = set()
        queue = [class_name]
        while queue:
            current = queue.pop(0)
            if current in seen:
                continue
            seen.add(current)
            for info in self.classes.get(current, []):
                if method in info.methods:
                    return info.methods[method]
                queue.extend(info.bases)
        return None

    def _class_of_field(self, class_name: str, fieldname: str) -> str | None:
        seen: set[str] = set()
        queue = [class_name]
        while queue:
            current = queue.pop(0)
            if current in seen:
                continue
            seen.add(current)
            for info in self.classes.get(current, []):
                if fieldname in info.field_types:
                    return info.field_types[fieldname]
                queue.extend(info.bases)
        return None

    def resolve_class(self, module: ModuleInfo, name: str) -> str | None:
        """A class name visible in ``module`` (local, imported, or global)."""
        if name in module.classes:
            return name
        alias = module.symbol_aliases.get(name)
        if alias is not None:
            target_module, symbol = alias
            target = self.modules.get(target_module)
            if target is not None and symbol in target.classes:
                return symbol
        if name in self.classes:
            return name
        return None

    def _resolve_call(
        self, fn: FunctionInfo, call: ast.Call, locals_: dict[str, str]
    ) -> tuple[str, tuple[str, ...], str, bool]:
        """Return (called name, candidate qualnames, kind, bound)."""
        module = self.modules[fn.relpath]
        func = call.func

        if isinstance(func, ast.Name):
            name = func.id
            if name in locals_:  # nested def in enclosing scope
                return name, (locals_[name],), "local", False
            if name in module.functions:
                return name, (module.functions[name],), "local", False
            alias = module.symbol_aliases.get(name)
            if alias is not None:
                target_module, symbol = alias
                target = self.modules.get(target_module)
                if target is not None and symbol in target.functions:
                    return name, (target.functions[symbol],), "import", False
            cls_name = self.resolve_class(module, name)
            if cls_name is not None:
                init = self._lookup_method(cls_name, "__init__")
                return name, ((init,) if init else ()), "constructor", True
            return name, (), "external", False

        if isinstance(func, ast.Attribute):
            attr = func.attr
            receiver = func.value
            # self.method(...)
            if (
                isinstance(receiver, ast.Name)
                and receiver.id == "self"
                and fn.cls is not None
            ):
                resolved = self._lookup_method(fn.cls, attr)
                if resolved is not None:
                    return attr, (resolved,), "method", True
            # module_alias.func(...)
            if isinstance(receiver, ast.Name):
                target_rel = module.module_aliases.get(receiver.id)
                if target_rel is not None:
                    target = self.modules[target_rel]
                    if attr in target.functions:
                        return attr, (target.functions[attr],), "import", False
                    if attr in target.classes:
                        init = self._lookup_method(attr, "__init__")
                        return attr, ((init,) if init else ()), "constructor", True
                # ClassName.method(...) — classmethod/static style.
                cls_name = self.resolve_class(module, receiver.id)
                if cls_name is not None:
                    resolved = self._lookup_method(cls_name, attr)
                    if resolved is not None:
                        return attr, (resolved,), "method", False
            # self.field.method(...) via inferred field types.
            if (
                isinstance(receiver, ast.Attribute)
                and isinstance(receiver.value, ast.Name)
                and receiver.value.id == "self"
                and fn.cls is not None
            ):
                field_cls = self._class_of_field(fn.cls, receiver.attr)
                if field_cls is not None:
                    resolved = self._lookup_method(field_cls, attr)
                    if resolved is not None:
                        return attr, (resolved,), "method", True
            return attr, (), "external", True

        return "", (), "external", False

    def _build_calls(self, qualname: str) -> None:
        fn = self.functions[qualname]
        locals_: dict[str, str] = {}
        for nested in self.contains.get(qualname, []):
            nested_fn = self.functions[nested]
            if nested_fn.name:
                locals_[nested_fn.name] = nested
        sites: list[CallSite] = []
        by_node: dict[int, CallSite] = {}
        for node in walk_function_body(fn.node):
            if isinstance(node, ast.Call):
                name, callees, kind, bound = self._resolve_call(fn, node, locals_)
                site = CallSite(
                    caller=qualname,
                    line=node.lineno,
                    col=node.col_offset,
                    name=name,
                    callees=callees,
                    kind=kind,
                    bound=bound,
                )
                sites.append(site)
                by_node[id(node)] = site
        self.calls[qualname] = sites
        self.call_sites_by_node[qualname] = by_node
