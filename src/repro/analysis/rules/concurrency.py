"""RL008 — shared state read before an await is written back after it.

Section 2's adversary schedules every message, and in asyncio code every
``await`` / ``async for`` / ``async with`` is such a scheduling point:
an honest party must not corrupt its own state across one.  RL008 flags
an async function that reads shared mutable state, suspends, then
writes state derived from the pre-suspension read without
re-validating.  A fresh read of the cell in an ``if``/``while``/
``assert``/``match`` test after the suspension (the
``if cached is not self.x: return`` re-check idiom) re-validates it.

The rule reads one file at a time.  A *cell* is named by its path:
``self.x`` is ``Cls.x`` for the enclosing module-level class ``Cls``,
``self.f.x`` is ``Cls.f.x``, and a name declared ``global`` is the
module cell ``<relpath>::name``.  A helper is followed only when it is
called as ``self.m(...)`` and ``m`` is a method of the enclosing class:
the cells it writes from each parameter and the cells its return value
carries are summarised once per class, through chains of such helpers.
A helper reached through a base class, a field (``self.net.m(v)``), an
import or a module function carries no effect — the rule's stated
limit (docs/STATIC_ANALYSIS.md).
"""

from __future__ import annotations

import ast
from dataclasses import dataclass, field, replace
from typing import Iterable, Iterator

from ..diagnostics import Diagnostic, Severity
from ..source import SourceFile
from . import Rule

__all__ = ["StaleReadAcrossAwaitRule"]

# A shared mutable location, by its printed name: "Cls.x", "Cls.f.x",
# or "core/mod.py::name" for a module global declared `global`.
Cell = str

_FunctionNode = ast.FunctionDef | ast.AsyncFunctionDef

# Container methods that mutate their receiver in place.
_MUTATORS = frozenset({
    "append", "extend", "insert", "remove", "discard", "add", "clear", "update",
    "pop", "popitem", "setdefault", "popleft", "appendleft", "sort", "reverse",
})


class StaleReadAcrossAwaitRule(Rule):
    rule_id = "RL008"
    severity = Severity.ERROR
    summary = "shared state read before an await is written back after it"
    hint = (
        "re-read (or re-validate with an if/assert on the cell) after the "
        "await before writing, or baseline with the argument that makes "
        "the interleaving safe"
    )
    scope = ("core/", "smr/", "net/")
    project_wide = False

    def check(self, source: SourceFile) -> list[Diagnostic]:
        if "async" not in source.text:  # no coroutine, no suspension point
            return []
        module = _Module(source)
        hazards = [
            hazard
            for node, cls in module.async_functions()
            for hazard in _StaleScanner(module, node, cls).scan()
        ]
        return [
            self.diagnostic(source, line, col, message)
            for line, col, _cell, message in sorted(hazards)
        ]


def _walk_nodes(
    roots: Iterable[ast.AST], closed: tuple[type[ast.AST], ...] = (ast.Lambda,)
) -> Iterator[ast.AST]:
    """Every node under ``roots``, yielding but not entering ``closed``
    nodes (the scopes of their own)."""
    stack: list[ast.AST] = list(roots)
    while stack:
        node = stack.pop()
        yield node
        for child in ast.iter_child_nodes(node):
            if isinstance(child, closed):
                yield child
            else:
                stack.append(child)


def _walk_body(node: _FunctionNode) -> Iterator[ast.AST]:
    """A function body, not entering nested functions and lambdas."""
    return _walk_nodes(node.body, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda))


def _is_self(node: ast.expr) -> bool:
    return isinstance(node, ast.Name) and node.id == "self"


def _first_await(node: ast.AST) -> ast.Await | None:
    """The positionally first ``await`` in a statement/expression."""
    awaits = [sub for sub in ast.walk(node) if isinstance(sub, ast.Await)]
    return min(awaits, key=lambda sub: (sub.lineno, sub.col_offset), default=None)


class _Cells:
    """Map expressions to cells inside one function."""

    def __init__(self, relpath: str, node: _FunctionNode, cls: str) -> None:
        self.relpath = relpath
        self.cls = cls
        self.globals = {
            name for sub in _walk_body(node) if isinstance(sub, ast.Global) for name in sub.names
        }

    def cell_of(self, node: ast.expr) -> Cell | None:
        if isinstance(node, ast.Name):
            return f"{self.relpath}::{node.id}" if node.id in self.globals else None
        if not isinstance(node, ast.Attribute) or not self.cls:
            return None
        if _is_self(node.value):
            return f"{self.cls}.{node.attr}"
        if isinstance(node.value, ast.Attribute) and _is_self(node.value.value):
            return f"{self.cls}.{node.value.attr}.{node.attr}"
        return None

    def cells_in(self, expr: ast.expr) -> list[tuple[Cell, ast.expr]]:
        # `self.m(...)` reads no cell `m`, but `self.keys.get(...)` reads
        # `keys`: a call's own attribute is skipped, its receiver is not.
        method_attrs = {
            id(node.func)
            for node in _walk_nodes([expr])
            if isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute)
        }
        return [
            (cell, node)
            for node in _walk_nodes([expr])
            if isinstance(node, (ast.Attribute, ast.Name))
            and isinstance(node.ctx, ast.Load)
            and id(node) not in method_attrs
            and (cell := self.cell_of(node)) is not None
        ]


@dataclass
class _Flow:
    """What a value carries: cells, own parameters, helpers' returns."""

    cells: set[Cell] = field(default_factory=set)
    params: set[int] = field(default_factory=set)
    calls: set[str] = field(default_factory=set)

    def update(self, other: _Flow) -> None:
        self.cells |= other.cells
        self.params |= other.params
        self.calls |= other.calls

    def copy(self) -> _Flow:
        return _Flow(set(self.cells), set(self.params), set(self.calls))


@dataclass
class _Summary:
    """What a call ``self.m(...)`` of one method does with cells."""

    params: tuple[str, ...]  # positional parameters, ``self`` included
    offset: int  # parameter index of the call's first argument
    returns: _Flow = field(default_factory=_Flow)  # what the return value carries
    # param index -> cells written with values derived from that param.
    param_writes: dict[int, set[Cell]] = field(default_factory=dict)
    # (own param index, helper, the helper's param index it is passed to)
    forwards: set[tuple[int, str, int]] = field(default_factory=set)

    @classmethod
    def of(cls, node: _FunctionNode) -> _Summary:
        static = any(getattr(deco, "id", "") == "staticmethod" for deco in node.decorator_list)
        params = tuple(a.arg for a in [*node.args.posonlyargs, *node.args.args])
        return cls(params=params, offset=0 if static else 1)

    def arguments(self, call: ast.Call) -> Iterator[tuple[int, ast.expr]]:
        """Each argument of ``call`` with the parameter index it fills."""
        for j, arg in enumerate(call.args):
            yield j + self.offset, arg
        for kw in call.keywords:
            if kw.arg is not None and kw.arg in self.params:
                yield self.params.index(kw.arg), kw.value


class _Module:
    """One file: its classes' methods and their memoized summaries."""

    def __init__(self, source: SourceFile) -> None:
        self.relpath = source.relpath
        self.tree = source.tree
        self.methods: dict[str, dict[str, _FunctionNode]] = {
            node.name: {
                item.name: item
                for item in node.body
                if isinstance(item, (ast.FunctionDef, ast.AsyncFunctionDef))
            }
            for node in source.tree.body
            if isinstance(node, ast.ClassDef)
        }
        self._summaries: dict[str, dict[str, _Summary]] = {}

    def async_functions(self) -> Iterator[tuple[ast.AsyncFunctionDef, str]]:
        """Every async def, with its class when it is a method of a
        module-level class ("" for any other, a nested def included)."""
        owner = {id(fn): cls for cls, fns in self.methods.items() for fn in fns.values()}
        for node in ast.walk(self.tree):
            if isinstance(node, ast.AsyncFunctionDef):
                yield node, owner.get(id(node), "")

    def own_method(self, cls: str, call: ast.Call) -> str | None:
        """``m`` for a call ``self.m(...)`` to a method of ``cls``."""
        func = call.func
        if isinstance(func, ast.Attribute) and _is_self(func.value):
            return func.attr if func.attr in self.methods.get(cls, {}) else None
        return None

    def helper(self, cls: str, call: ast.Call) -> tuple[str, _Summary] | None:
        """The called method's name and summary, for ``self.m(...)``."""
        name = self.own_method(cls, call)
        return None if name is None else (name, self.summaries(cls)[name])

    def summaries(self, cls: str) -> dict[str, _Summary]:
        """Every method of ``cls``, summarised and closed over helper
        chains (``forward(v)`` calling ``self.store(v)``)."""
        if cls in self._summaries:
            return self._summaries[cls]
        methods = self.methods[cls]
        memo = self._summaries[cls] = {name: _Summary.of(fn) for name, fn in methods.items()}
        for name, fn in methods.items():
            self._summarize(fn, cls, memo[name], memo)

        def size() -> int:
            return sum(
                len(s.returns.cells) + sum(map(len, s.param_writes.values()))
                for s in memo.values()
            )

        grown = -1
        while grown != (grown := size()):  # until no summary grows
            for summary in memo.values():
                for callee in summary.returns.calls:
                    summary.returns.cells |= memo[callee].returns.cells
                for own, callee, index in summary.forwards:
                    incoming = memo[callee].param_writes.get(index, set())
                    summary.param_writes.setdefault(own, set()).update(incoming)
        return memo

    def _summarize(
        self, node: _FunctionNode, cls: str, summary: _Summary, memo: dict[str, _Summary]
    ) -> None:
        """The direct half of one method's summary: its own writes from
        parameters, its returned cells, and the helper calls to close."""
        params = summary.params
        cells = _Cells(self.relpath, node, cls)
        body = list(_walk_body(node))
        local: dict[str, _Flow] = {}  # what each local variable carries

        def flow(expr: ast.expr) -> _Flow:
            out = _Flow(cells={cell for cell, _ in cells.cells_in(expr)})
            for sub in _walk_nodes([expr]):
                if isinstance(sub, ast.Name) and isinstance(sub.ctx, ast.Load):
                    if sub.id in params:
                        out.params.add(params.index(sub.id))
                    out.update(local.get(sub.id, _Flow()))
                elif isinstance(sub, ast.Call) and (name := self.own_method(cls, sub)):
                    out.calls.add(name)
            return out

        def bind(target: ast.expr, value: _Flow) -> None:
            if isinstance(target, ast.Name):
                local[target.id] = value.copy()
            elif isinstance(target, (ast.Tuple, ast.List)):
                for elt in target.elts:
                    bind(elt, value)

        for _ in range(2):  # two passes, so values carried round loops converge
            for sub in body:
                if isinstance(sub, ast.Assign):
                    value = flow(sub.value)
                    for target in sub.targets:
                        bind(target, value)
                elif isinstance(sub, ast.AnnAssign) and sub.value is not None:
                    bind(sub.target, flow(sub.value))
                elif isinstance(sub, (ast.For, ast.AsyncFor)):
                    bind(sub.target, flow(sub.iter))
                elif isinstance(sub, ast.AugAssign) and isinstance(sub.target, ast.Name):
                    local.setdefault(sub.target.id, _Flow()).update(flow(sub.value))

        def write(target: ast.expr, values: list[ast.expr]) -> None:
            cell = cells.cell_of(target)
            if cell is not None:
                for index in {p for value in values for p in flow(value).params}:
                    summary.param_writes.setdefault(index, set()).add(cell)

        for sub in body:
            if isinstance(sub, (ast.Assign, ast.AnnAssign, ast.AugAssign)):
                values = [sub.value] if sub.value is not None else []
                for target in sub.targets if isinstance(sub, ast.Assign) else [sub.target]:
                    write(target.value if isinstance(target, ast.Subscript) else target, values)
            elif isinstance(sub, ast.Call):
                if isinstance(sub.func, ast.Attribute) and sub.func.attr in _MUTATORS:
                    write(sub.func.value, [*sub.args, *(kw.value for kw in sub.keywords)])
                callee = self.own_method(cls, sub)
                if callee is not None:
                    for index, arg in memo[callee].arguments(sub):
                        summary.forwards.update((own, callee, index) for own in flow(arg).params)
            elif isinstance(sub, ast.Return) and sub.value is not None:
                summary.returns.update(flow(sub.value))


@dataclass
class _Capture:
    """One shared-cell value held by a local variable."""

    cell: Cell
    read_line: int
    stale: bool = False  # a suspension happened while the capture was live
    suspend_line: int = 0
    # The local *is* an object held in the cell (`self._inbound[peer]`,
    # `.get(peer)`, the cell itself), not a value derived from it.
    alias: bool = False


# The captures each local holds, and the cells validated since the last
# suspension.
_State = tuple[dict[str, dict[Cell, _Capture]], set[Cell]]


class _StaleScanner:
    """Statement-ordered walk of one async function.

    Tracks which locals carry values read from shared cells; a
    suspension makes every live capture *stale* and expires every
    validation.  Three dependent writes of a stale value are reported:
    ``write`` (the cell written back, the classic lost update),
    ``helper`` (written by a helper given the value) and ``alias`` (an
    object obtained from the cell mutated, though the container may hold
    another by now).  ``if``/``else`` branches are merged (captures
    union, staleness OR, validations intersect) over the branches that
    fall through, so ``if cached != self.x: return`` validates the rest.
    Loop bodies are walked twice so a capture from iteration *k* meets
    the suspension and write of iteration *k + 1*.
    """

    def __init__(self, module: _Module, node: ast.AsyncFunctionDef, cls: str) -> None:
        self.module = module
        self.node = node
        self.cls = cls
        self.cells = _Cells(module.relpath, node, cls)
        self.captures: dict[str, dict[Cell, _Capture]] = {}
        self.validated: set[Cell] = set()
        self.hazards: list[tuple[int, int, Cell, str]] = []  # line, col, cell, message
        self._seen: set[tuple[int, int, Cell, str]] = set()

    def scan(self) -> list[tuple[int, int, Cell, str]]:
        self._walk(self.node.body)
        return self.hazards

    # -- state plumbing ------------------------------------------------------

    def _snapshot(self) -> _State:
        captures = {
            name: {cell: replace(cap) for cell, cap in caps.items()}
            for name, caps in self.captures.items()
        }
        return captures, set(self.validated)

    def _restore(self, state: _State) -> None:
        self.captures, self.validated = state

    @staticmethod
    def _merge(a: _State, b: _State) -> _State:
        merged: dict[str, dict[Cell, _Capture]] = {}
        for name in a[0].keys() | b[0].keys():
            caps_a, caps_b = a[0].get(name, {}), b[0].get(name, {})
            merged[name] = {**caps_a, **caps_b}
            for cell in caps_a.keys() & caps_b.keys():
                ca, cb = caps_a[cell], caps_b[cell]
                merged[name][cell] = _Capture(
                    cell, min(ca.read_line, cb.read_line), ca.stale or cb.stale,
                    max(ca.suspend_line, cb.suspend_line), ca.alias or cb.alias,
                )
        return merged, a[1] & b[1]

    def _bump(self, line: int) -> None:
        """A suspension: every live capture goes stale and every
        validation expires.  ``suspend_line`` is the *latest* suspension,
        the one after which re-validation is missing."""
        for caps in self.captures.values():
            for cap in caps.values():
                cap.stale = True
                cap.suspend_line = line
        self.validated.clear()

    def _test(self, expr: ast.expr) -> None:
        """A condition: a fresh read of a cell in it re-validates the cell."""
        self._value(expr)
        self.validated.update(cell for cell, _ in self.cells.cells_in(expr))

    # -- expression evaluation -----------------------------------------------

    def _value(self, expr: ast.expr) -> dict[Cell, _Capture]:
        """Evaluate one value expression: check calls, bump on await,
        and return the captures the value carries."""
        first = _first_await(expr)
        self._check_calls(expr)
        caps = self._captures_of(expr, first)
        if first is not None:
            self._bump(first.lineno)
        return caps

    def _captures_of(self, expr: ast.expr, first: ast.Await | None) -> dict[Cell, _Capture]:
        """The captures the value of ``expr`` carries.  A cell read
        before the first ``await`` in it is stale (``self.x = self.x +
        await f()``); reads after it and helpers' returns are fresh."""
        out: dict[Cell, _Capture] = {}

        def put(cap: _Capture) -> None:
            existing = out.get(cap.cell)
            if existing is None or (cap.stale and not existing.stale):
                out[cap.cell] = cap
            elif cap.alias and not existing.alias:
                existing.alias = True

        # Which cell (if any) this value *directly aliases*: the whole
        # expression is the cell itself, a subscript of it, or a
        # `.get`/`.pop`/`.setdefault` lookup on it.
        stripped = expr.value if isinstance(expr, ast.Await) else expr
        alias_cell: Cell | None = None
        match stripped:
            case ast.Attribute():
                alias_cell = self.cells.cell_of(stripped)
            case ast.Subscript(value=held) | ast.Call(
                func=ast.Attribute(attr="get" | "pop" | "setdefault", value=held)
            ):
                alias_cell = self.cells.cell_of(held)

        # A bare-name copy preserves aliasing; derived values do not.
        keeps_alias = isinstance(stripped, ast.Name)
        for node in _walk_nodes([expr]):
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                for cap in self.captures.get(node.id, {}).values():
                    put(replace(cap, alias=cap.alias and keeps_alias))
            elif isinstance(node, ast.Call):
                helper = self.module.helper(self.cls, node)
                # Fresh whether or not the call was awaited: the read
                # inside the helper happens at call time.
                for cell in helper[1].returns.cells if helper else ():
                    put(_Capture(cell=cell, read_line=node.lineno))
        for cell, node in self.cells.cells_in(expr):
            is_alias = cell == alias_cell
            if first is not None and (node.lineno, node.col_offset) < (
                first.lineno, first.col_offset
            ):
                # Read now, written after the await resolves: stale by
                # construction once the suspension happens.
                put(_Capture(cell, node.lineno, True, first.lineno, is_alias))
            else:
                put(_Capture(cell, node.lineno, alias=is_alias))
        return out

    def _check_calls(self, expr: ast.expr) -> None:
        """Helper-mediated writes and in-place mutators inside ``expr``,
        judged before this statement's own suspension: arguments are
        evaluated first, so only captures from earlier statements count."""
        for node in _walk_nodes([expr]):
            if not isinstance(node, ast.Call):
                continue
            if isinstance(node.func, ast.Attribute) and node.func.attr in _MUTATORS:
                cell = self.cells.cell_of(node.func.value)
                if cell is not None:
                    for arg in [*node.args, *(kw.value for kw in node.keywords)]:
                        self._flag_stale(arg, {cell}, node, "write")
            helper = self.module.helper(self.cls, node)
            if helper is not None:
                name, summary = helper
                for index, arg in summary.arguments(node):
                    targets = summary.param_writes.get(index, set())
                    self._flag_stale(arg, targets, node, "helper", name)

    def _flag_stale(
        self, expr: ast.expr, targets: set[Cell], call: ast.Call, kind: str, via: str = ""
    ) -> None:
        """Report stale captures carried by ``expr`` that hit ``targets``."""
        for node in _walk_nodes([expr]):
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                for cell, cap in self.captures.get(node.id, {}).items():
                    if cell in targets and cap.stale and cell not in self.validated:
                        self._emit(cell, cap, call, kind, via)

    def _emit(
        self, cell: Cell, cap: _Capture, at: ast.stmt | ast.expr, kind: str, via: str = ""
    ) -> None:
        key = (at.lineno, at.col_offset, cell, kind)
        if key in self._seen:
            return
        self._seen.add(key)
        after = f"after the suspension at line {cap.suspend_line}"
        if kind == "alias":
            message = (
                f"object obtained from {cell} at line {cap.read_line} is mutated "
                f"{after}; the container may have been replaced mid-await, so "
                "this writes to an orphaned object"
            )
        else:
            route = f"via {via}() " if kind == "helper" else ""
            tail = "" if route else " (lost-update interleaving)"
            message = (
                f"{cell} read at line {cap.read_line} is written back {route}{after} "
                f"without re-validation{tail}"
            )
        self.hazards.append((at.lineno, at.col_offset, cell, message))

    # -- statement walk ------------------------------------------------------

    def _walk(self, stmts: list[ast.stmt]) -> bool:
        """Process statements in order; True if the block terminates."""
        return any(self._stmt(stmt) for stmt in stmts)

    def _store(self, target: ast.expr, caps: dict[Cell, _Capture], stmt: ast.stmt) -> None:
        if isinstance(target, (ast.Tuple, ast.List)):
            for elt in target.elts:
                self._store(elt, caps, stmt)
            return
        if isinstance(target, ast.Starred):
            self._store(target.value, caps, stmt)
            return
        cell = self.cells.cell_of(target)
        if isinstance(target, ast.Name) and cell is None:
            # Strong update: the local now carries exactly these captures.
            self.captures[target.id] = {c: replace(cap) for c, cap in caps.items()}
            return
        receiver: ast.expr | None = None
        if cell is None and isinstance(target, ast.Subscript):
            cell = self.cells.cell_of(target.value)
            receiver = target.value
        elif isinstance(target, ast.Attribute):
            receiver = target.value
        if cell is not None:
            # Same-cell read-modify-write across a suspension.
            cap = caps.get(cell)
            if cap is not None and cap.stale and cell not in self.validated:
                self._emit(cell, cap, stmt, "write")
        elif isinstance(receiver, ast.Name):
            # Alias mutation: storing through a local that *directly
            # aliases* an object held in a cell mutates an object the
            # cell may no longer reference.
            for alias_cell, cap in self.captures.get(receiver.id, {}).items():
                if cap.alias and cap.stale and alias_cell not in self.validated:
                    self._emit(alias_cell, cap, stmt, "alias")

    def _stmt(self, stmt: ast.stmt) -> bool:
        """Process one statement; True if it terminates its block."""
        if isinstance(stmt, (ast.Return, ast.Raise)):
            value = stmt.value if isinstance(stmt, ast.Return) else stmt.exc
            if value is not None:
                self._value(value)
            return True
        if isinstance(stmt, (ast.Break, ast.Continue)):
            return True
        if isinstance(stmt, ast.Expr):
            self._value(stmt.value)
        elif isinstance(stmt, (ast.Assign, ast.AnnAssign)) and stmt.value is not None:
            caps = self._value(stmt.value)
            for target in stmt.targets if isinstance(stmt, ast.Assign) else [stmt.target]:
                self._store(target, caps, stmt)
        elif isinstance(stmt, ast.AugAssign):
            caps = self._value(stmt.value)
            if isinstance(stmt.target, ast.Name):
                merged = self.captures.setdefault(stmt.target.id, {})
                merged.update((cell, replace(cap)) for cell, cap in caps.items())
            else:
                self._store(stmt.target, caps, stmt)
        elif isinstance(stmt, ast.Delete):
            for target in stmt.targets:
                if isinstance(target, ast.Name):
                    self.captures.pop(target.id, None)
        elif isinstance(stmt, ast.If):
            self._test(stmt.test)
            before = self._snapshot()
            body_done = self._walk(stmt.body)
            body_state = self._snapshot()
            self._restore(before)
            else_done = self._walk(stmt.orelse)
            if body_done and else_done:
                return True
            if else_done:
                self._restore(body_state)
            elif not body_done:
                self._restore(self._merge(body_state, self._snapshot()))
        elif isinstance(stmt, (ast.While, ast.For, ast.AsyncFor)):
            if isinstance(stmt, ast.While):
                self._test(stmt.test)
            else:
                caps = self._value(stmt.iter)
                if isinstance(stmt, ast.AsyncFor):
                    self._bump(stmt.lineno)  # each iteration suspends
                self._store(stmt.target, caps, stmt)
            for _ in range(2):  # second pass: captures meet next iteration
                self._walk(stmt.body)
                if isinstance(stmt, ast.While):
                    self._test(stmt.test)
                elif isinstance(stmt, ast.AsyncFor):
                    self._bump(stmt.lineno)
            self._walk(stmt.orelse)
        elif isinstance(stmt, (ast.With, ast.AsyncWith)):
            for item in stmt.items:
                caps = self._value(item.context_expr)
                if item.optional_vars is not None:
                    self._store(item.optional_vars, caps, stmt)
            if isinstance(stmt, ast.AsyncWith):
                self._bump(stmt.lineno)
            return self._walk(stmt.body)
        elif isinstance(stmt, ast.Try):
            # Each handler starts from the state the body reached; the
            # ways out that fall through are merged.
            done = self._walk(stmt.body)
            body_state = self._snapshot()
            ends: list[_State] = [] if done else [body_state]
            for handler in stmt.handlers:
                self._restore(body_state)
                if not self._walk(handler.body):
                    ends.append(self._snapshot())
            for other in ends[1:]:
                ends[0] = self._merge(ends[0], other)
            if ends:
                self._restore(ends[0])
                self._walk(stmt.orelse)
            self._walk(stmt.finalbody)
            return not ends
        elif isinstance(stmt, ast.Assert):
            self._test(stmt.test)
        elif isinstance(stmt, ast.Match):
            self._test(stmt.subject)
            for case in stmt.cases:
                before = self._snapshot()
                self._walk(case.body)
                self._restore(before)
        return False
