"""Concurrency-effect summaries over the project call graph.

PR 6 made the stack genuinely concurrent (pipelined atomic-broadcast
rounds, an asyncio TCP transport, open-loop clients), which introduces
the one failure mode the sequential rules RL001-RL005 cannot see: an
``await`` suspends the coroutine, other tasks run, and shared state —
``self.*`` attributes, typed-field attributes (``self.net._closed``),
module globals — may change underneath a value that was read before the
suspension.  An honest replica that writes state derived from such a
stale read corrupts itself without any Byzantine help, collapsing the
paper's trust argument from the inside.

This module computes, for every function in the
:class:`~repro.analysis.project.ProjectGraph`, an
:class:`EffectSummary` to fixpoint over the call graph:

* the set of shared *cells* (``(owner, attribute)`` pairs) the function
  reads and writes, directly and transitively;
* whether it contains a suspension point (``await`` / ``async for`` /
  ``async with``), directly or transitively through called coroutines;
* which cells its *return value* may carry (so ``v = self._snapshot()``
  counts as a read of whatever ``_snapshot`` reads), and which cells it
  writes *from each parameter* (so ``self._store(v)`` counts as a write
  of whatever ``_store`` writes from that argument) — the two halves of
  interprocedural coverage for sync helpers called from async context;
* and, per async function, the read → await → dependent-write spans
  (:class:`StaleWriteHazard`) that RL008 reports.

Like :mod:`repro.analysis.project`, everything here is pure ``ast``
over already-parsed sources; nothing is imported or executed.
Interprocedural propagation follows the call graph's resolved edges
only; a call whose target is not known statically (``backend.send``)
has no callees and carries no effect.
"""

from __future__ import annotations

import ast
from dataclasses import dataclass, field

from .project import FunctionInfo, ProjectGraph, walk_function_body

__all__ = [
    "Cell",
    "EffectAnalysis",
    "EffectSummary",
    "StaleWriteHazard",
    "format_cell",
]

# A shared mutable location: ("ClassName", "attr") for instance state,
# ("module:<relpath>", "name") for a module global declared `global`.
Cell = tuple[str, str]

_MAX_FIXPOINT_PASSES = 10

# Container methods that mutate their receiver in place.
_MUTATORS = frozenset(
    {
        "append", "extend", "insert", "remove", "discard", "add", "clear",
        "update", "pop", "popitem", "setdefault", "popleft", "appendleft",
        "sort", "reverse",
    }
)

_FN_NODES = (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)


def format_cell(cell: Cell) -> str:
    owner, attr = cell
    if owner.startswith("module:"):
        return f"{owner.removeprefix('module:')}::{attr}"
    return f"{owner}.{attr}"


@dataclass
class EffectSummary:
    """Per-function effects; ``all_*`` fields close over the call graph."""

    qualname: str
    relpath: str
    is_async: bool
    suspends: bool  # direct await / async for / async with in the body
    reads: set[Cell] = field(default_factory=set)
    writes: set[Cell] = field(default_factory=set)
    # Cells the return value may carry (direct + via returned calls).
    return_cells: set[Cell] = field(default_factory=set)
    # param index -> cells written with values derived from that param.
    param_writes: dict[int, set[Cell]] = field(default_factory=dict)
    # Closed over callees during the fixpoint.
    transitively_suspends: bool = False
    all_reads: set[Cell] = field(default_factory=set)
    all_writes: set[Cell] = field(default_factory=set)
    # Propagation edges consumed by the fixpoint.
    _return_callees: set[str] = field(default_factory=set)
    _param_forwards: set[tuple[int, str, int]] = field(default_factory=set)


@dataclass(frozen=True)
class StaleWriteHazard:
    """One read → await → dependent-write span in an async function.

    ``kind`` distinguishes the three shapes RL008 reports:

    * ``"write"`` — a cell is read, the coroutine suspends, and the
      same cell is written back from the pre-suspension value (the
      classic lost-update);
    * ``"helper"`` — the post-suspension write happens inside a sync
      helper that receives the stale value as an argument;
    * ``"alias"`` — an object *obtained from* a cell before the
      suspension is mutated after it (the container may have been
      replaced mid-await, orphaning the alias).
    """

    qualname: str
    relpath: str
    cell: Cell
    read_line: int
    suspend_line: int
    write_line: int
    write_col: int
    kind: str  # "write" | "helper" | "alias"
    detail: str = ""


def _walk_expr(expr: ast.expr):
    """Every node of an expression, skipping nested lambda bodies."""
    stack: list[ast.AST] = [expr]
    while stack:
        node = stack.pop()
        yield node
        for child in ast.iter_child_nodes(node):
            if isinstance(child, ast.Lambda):
                yield child
                continue
            stack.append(child)


def _first_await(node: ast.AST) -> ast.Await | None:
    """The positionally first ``await`` in a statement/expression."""
    best: ast.Await | None = None
    for sub in ast.walk(node):
        if isinstance(sub, _FN_NODES):
            continue
        if isinstance(sub, ast.Await):
            if best is None or (sub.lineno, sub.col_offset) < (
                best.lineno,
                best.col_offset,
            ):
                best = sub
    return best


class _CellResolver:
    """Map attribute expressions to cells for one function."""

    def __init__(self, graph: ProjectGraph, fn: FunctionInfo) -> None:
        self.graph = graph
        self.fn = fn
        self.globals: set[str] = set()
        if not isinstance(fn.node, ast.Lambda):
            for node in walk_function_body(fn.node):
                if isinstance(node, ast.Global):
                    self.globals.update(node.names)

    def cell_of(self, node: ast.expr) -> Cell | None:
        if isinstance(node, ast.Name):
            if node.id in self.globals:
                return (f"module:{self.fn.relpath}", node.id)
            return None
        if not isinstance(node, ast.Attribute):
            return None
        base = node.value
        if isinstance(base, ast.Name):
            if base.id == "self" and self.fn.cls is not None:
                return (self.fn.cls, node.attr)
            return None
        # self.field.attr through the graph's light field-type inference.
        if (
            isinstance(base, ast.Attribute)
            and isinstance(base.value, ast.Name)
            and base.value.id == "self"
            and self.fn.cls is not None
        ):
            field_cls = self.graph._class_of_field(self.fn.cls, base.attr)
            if field_cls is not None:
                return (field_cls, node.attr)
        return None

    def cells_in(self, expr: ast.expr) -> list[tuple[Cell, ast.expr]]:
        # A call's func attribute is a bound-method access, not a state
        # read (`self._read_frame(...)` does not read a `_read_frame`
        # cell) — but the method's *receiver* still counts
        # (`self.channel_keys.get(...)` reads `channel_keys`).
        method_attrs = {
            id(node.func)
            for node in _walk_expr(expr)
            if isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute)
        }
        found: list[tuple[Cell, ast.expr]] = []
        for node in _walk_expr(expr):
            if id(node) in method_attrs:
                continue
            if isinstance(node, (ast.Attribute, ast.Name)) and isinstance(
                getattr(node, "ctx", ast.Load()), ast.Load
            ):
                cell = self.cell_of(node)
                if cell is not None:
                    found.append((cell, node))
        return found


def _summarize(graph: ProjectGraph, fn: FunctionInfo) -> EffectSummary:
    """The direct (intraprocedural) half of one function's summary."""
    node = fn.node
    is_async = isinstance(node, ast.AsyncFunctionDef)
    resolver = _CellResolver(graph, fn)
    summary = EffectSummary(
        qualname=fn.qualname,
        relpath=fn.relpath,
        is_async=is_async,
        suspends=False,
    )
    body = list(walk_function_body(node))
    for sub in body:
        if isinstance(sub, (ast.Await, ast.AsyncFor, ast.AsyncWith)):
            summary.suspends = True
            break

    params = set(fn.params)
    sites = graph.call_sites_by_node.get(fn.qualname, {})

    # Local derivation, two passes so loops converge: which cells and
    # which of our own params does each local carry, and which calls'
    # return values flowed into it.
    local_cells: dict[str, set[Cell]] = {}
    local_params: dict[str, set[int]] = {}
    local_calls: dict[str, set[str]] = {}

    def value_info(expr: ast.expr) -> tuple[set[Cell], set[int], set[str]]:
        cells: set[Cell] = set()
        pidx: set[int] = set()
        callees: set[str] = set()
        for sub in _walk_expr(expr):
            if isinstance(sub, ast.Name) and isinstance(sub.ctx, ast.Load):
                if sub.id in params:
                    idx = fn.param_index_of(sub.id)
                    if idx is not None:
                        pidx.add(idx)
                cells.update(local_cells.get(sub.id, ()))
                pidx.update(local_params.get(sub.id, ()))
                callees.update(local_calls.get(sub.id, ()))
            elif isinstance(sub, ast.Call):
                site = sites.get(id(sub))
                if site is not None:
                    callees.update(site.callees)
        for cell, _ in resolver.cells_in(expr):
            cells.add(cell)
        return cells, pidx, callees

    def bind(target: ast.expr, cells: set[Cell], pidx: set[int], callees: set[str]) -> None:
        if isinstance(target, ast.Name):
            local_cells[target.id] = set(cells)
            local_params[target.id] = set(pidx)
            local_calls[target.id] = set(callees)
        elif isinstance(target, (ast.Tuple, ast.List)):
            for elt in target.elts:
                bind(elt, cells, pidx, callees)

    for _ in range(2):
        for sub in body:
            if isinstance(sub, ast.Assign):
                info = value_info(sub.value)
                for target in sub.targets:
                    bind(target, *info)
            elif isinstance(sub, ast.AnnAssign) and sub.value is not None:
                bind(sub.target, *value_info(sub.value))
            elif isinstance(sub, (ast.For, ast.AsyncFor)):
                bind(sub.target, *value_info(sub.iter))
            elif isinstance(sub, ast.AugAssign) and isinstance(sub.target, ast.Name):
                cells, pidx, callees = value_info(sub.value)
                local_cells.setdefault(sub.target.id, set()).update(cells)
                local_params.setdefault(sub.target.id, set()).update(pidx)
                local_calls.setdefault(sub.target.id, set()).update(callees)

    def record_write(cell: Cell, value_exprs: list[ast.expr]) -> None:
        summary.writes.add(cell)
        for expr in value_exprs:
            _, pidx, _ = value_info(expr)
            for idx in pidx:
                summary.param_writes.setdefault(idx, set()).add(cell)

    for sub in body:
        # Reads: every cell mentioned anywhere in a load position.
        if isinstance(sub, (ast.Attribute, ast.Name)) and isinstance(
            getattr(sub, "ctx", None), ast.Load
        ):
            cell = resolver.cell_of(sub)
            if cell is not None:
                summary.reads.add(cell)
        # Writes: attribute/subscript stores, augassigns, deletes.
        if isinstance(sub, (ast.Assign, ast.AnnAssign, ast.AugAssign)):
            targets = (
                sub.targets if isinstance(sub, ast.Assign) else [sub.target]
            )
            values = [sub.value] if sub.value is not None else []
            for target in targets:
                cell = resolver.cell_of(target) if isinstance(
                    target, (ast.Attribute, ast.Name)
                ) else None
                if cell is None and isinstance(target, ast.Subscript):
                    cell = resolver.cell_of(target.value)
                if cell is not None:
                    record_write(cell, values)
        elif isinstance(sub, ast.Delete):
            for target in sub.targets:
                if isinstance(target, ast.Subscript):
                    cell = resolver.cell_of(target.value)
                    if cell is not None:
                        summary.writes.add(cell)
        elif isinstance(sub, ast.Call):
            # In-place mutators on a cell receiver are writes.
            if isinstance(sub.func, ast.Attribute) and sub.func.attr in _MUTATORS:
                cell = resolver.cell_of(sub.func.value)
                if cell is not None:
                    record_write(cell, list(sub.args) + [kw.value for kw in sub.keywords])
            # Forward our params into resolved callees.
            site = sites.get(id(sub))
            if site is not None:
                for callee_qual in site.callees:
                    callee = graph.functions.get(callee_qual)
                    if callee is None:
                        continue
                    for j, arg in enumerate(sub.args):
                        _, pidx, _ = value_info(arg)
                        tgt = callee.arg_param_index(j, site.bound)
                        for idx in pidx:
                            summary._param_forwards.add((idx, callee_qual, tgt))
                    for kw in sub.keywords:
                        if kw.arg is None:
                            continue
                        tgt_idx = callee.param_index_of(kw.arg)
                        if tgt_idx is None:
                            continue
                        _, pidx, _ = value_info(kw.value)
                        for idx in pidx:
                            summary._param_forwards.add((idx, callee_qual, tgt_idx))
        elif isinstance(sub, ast.Return) and sub.value is not None:
            cells, _, callees = value_info(sub.value)
            summary.return_cells.update(cells)
            summary._return_callees.update(callees)

    summary.all_reads = set(summary.reads)
    summary.all_writes = set(summary.writes)
    return summary


class EffectAnalysis:
    """Effect summaries for every project function, closed to fixpoint."""

    def __init__(self, graph: ProjectGraph) -> None:
        self.graph = graph
        self.summaries: dict[str, EffectSummary] = {}

    @classmethod
    def run(cls, graph: ProjectGraph) -> "EffectAnalysis":
        analysis = cls(graph)
        for qualname, fn in graph.functions.items():
            analysis.summaries[qualname] = _summarize(graph, fn)
        analysis._fixpoint()
        return analysis

    def _callees(self, qualname: str) -> set[str]:
        out: set[str] = set()
        for site in self.graph.calls.get(qualname, []):
            out.update(site.callees)
        out.update(self.graph.contains.get(qualname, []))
        return out

    def _fixpoint(self) -> None:
        for _ in range(_MAX_FIXPOINT_PASSES):
            changed = False
            for qualname, summary in self.summaries.items():
                for callee_qual in self._callees(qualname):
                    callee = self.summaries.get(callee_qual)
                    if callee is None:
                        continue
                    if not summary.all_reads >= callee.all_reads:
                        summary.all_reads |= callee.all_reads
                        changed = True
                    if not summary.all_writes >= callee.all_writes:
                        summary.all_writes |= callee.all_writes
                        changed = True
                    if (
                        callee.suspends or callee.transitively_suspends
                    ) and not summary.transitively_suspends:
                        summary.transitively_suspends = True
                        changed = True
                for callee_qual in summary._return_callees:
                    callee = self.summaries.get(callee_qual)
                    if callee is None:
                        continue
                    if not summary.return_cells >= callee.return_cells:
                        summary.return_cells |= callee.return_cells
                        changed = True
                for own_idx, callee_qual, callee_idx in summary._param_forwards:
                    callee = self.summaries.get(callee_qual)
                    if callee is None:
                        continue
                    incoming = callee.param_writes.get(callee_idx, set())
                    mine = summary.param_writes.setdefault(own_idx, set())
                    if not mine >= incoming:
                        mine |= incoming
                        changed = True
            if not changed:
                break

    # -- hazard extraction ---------------------------------------------------

    def stale_write_hazards(self) -> list[StaleWriteHazard]:
        """Read → await → dependent-write spans across every async
        function (including async closures registered as graph nodes)."""
        hazards: list[StaleWriteHazard] = []
        for qualname, fn in self.graph.functions.items():
            if not isinstance(fn.node, ast.AsyncFunctionDef):
                continue
            scanner = _StaleScanner(self, fn)
            scanner.scan()
            hazards.extend(scanner.hazards)
        hazards.sort(key=lambda h: (h.relpath, h.write_line, h.write_col, h.cell))
        return hazards


@dataclass
class _Capture:
    """One shared-cell value held by a local variable."""

    cell: Cell
    read_line: int
    stale: bool = False  # a suspension happened while the capture was live
    suspend_line: int = 0
    # True when the local was bound by a *direct* container access on
    # the cell (`self._inbound.get(peer)`, `self._inbound[peer]`,
    # `self._inbound`) so mutating the local mutates an object the cell
    # may no longer reference.  Values merely derived from the cell
    # (arithmetic, helper returns) are not aliases.
    alias: bool = False


class _StaleScanner:
    """Statement-ordered walk of one async function.

    Tracks which locals carry values read from shared cells, marks every
    live capture *stale* at each suspension point, clears per-cell
    validation at each suspension, and reports dependent writes of stale
    values.  ``if``/``else`` branches are walked separately and merged
    (captures union, staleness OR, validations intersect); branches that
    terminate (return/raise/continue/break) are excluded from the merge,
    so the ``if cached != self.x: return`` re-check idiom validates the
    fall-through path.  Loop bodies are walked twice so a capture from
    iteration *k* meets the suspension and write of iteration *k + 1*.
    """

    def __init__(self, analysis: EffectAnalysis, fn: FunctionInfo) -> None:
        self.analysis = analysis
        self.graph = analysis.graph
        self.fn = fn
        self.resolver = _CellResolver(analysis.graph, fn)
        self.sites = analysis.graph.call_sites_by_node.get(fn.qualname, {})
        self.captures: dict[str, dict[Cell, _Capture]] = {}
        self.validated: set[Cell] = set()
        self.hazards: list[StaleWriteHazard] = []
        self._seen: set[tuple[int, int, Cell, str]] = set()

    # -- state plumbing ------------------------------------------------------

    def _snapshot(self) -> tuple[dict[str, dict[Cell, _Capture]], set[Cell]]:
        return (
            {
                name: {cell: _Capture(**vars(cap)) for cell, cap in caps.items()}
                for name, caps in self.captures.items()
            },
            set(self.validated),
        )

    def _restore(self, state: tuple[dict[str, dict[Cell, _Capture]], set[Cell]]) -> None:
        self.captures, self.validated = state

    @staticmethod
    def _merge_states(
        a: tuple[dict[str, dict[Cell, _Capture]], set[Cell]],
        b: tuple[dict[str, dict[Cell, _Capture]], set[Cell]],
    ) -> tuple[dict[str, dict[Cell, _Capture]], set[Cell]]:
        captures_a, validated_a = a
        captures_b, validated_b = b
        merged: dict[str, dict[Cell, _Capture]] = {}
        for name in set(captures_a) | set(captures_b):
            cells_a = captures_a.get(name, {})
            cells_b = captures_b.get(name, {})
            out: dict[Cell, _Capture] = {}
            for cell in set(cells_a) | set(cells_b):
                ca, cb = cells_a.get(cell), cells_b.get(cell)
                if ca is None:
                    out[cell] = cb  # type: ignore[assignment]
                elif cb is None:
                    out[cell] = ca
                else:
                    out[cell] = _Capture(
                        cell=cell,
                        read_line=min(ca.read_line, cb.read_line),
                        stale=ca.stale or cb.stale,
                        suspend_line=max(ca.suspend_line, cb.suspend_line),
                        alias=ca.alias or cb.alias,
                    )
            merged[name] = out
        return merged, validated_a & validated_b

    def _bump(self, line: int) -> None:
        """A suspension point: every live capture goes stale and every
        post-suspension validation expires.  ``suspend_line`` tracks the
        *latest* suspension — the one after which re-validation is
        missing — so the report points at the gap to close."""
        for caps in self.captures.values():
            for cap in caps.values():
                cap.stale = True
                cap.suspend_line = line
        self.validated.clear()

    def _validate(self, expr: ast.expr) -> None:
        """A fresh read of a cell in a test context re-validates it."""
        for cell, _node in self.resolver.cells_in(expr):
            self.validated.add(cell)

    # -- expression evaluation -----------------------------------------------

    def _value_captures(
        self, expr: ast.expr, will_suspend: bool
    ) -> dict[Cell, _Capture]:
        """The captures the value of ``expr`` carries.

        Direct cell reads positioned *before* the statement's first
        ``await`` are pre-suspension reads (the single-statement
        ``self.x = self.x + await f()`` form); reads after it, and the
        return values of awaited calls, are fresh.
        """
        first = _first_await(expr) if will_suspend else None
        out: dict[Cell, _Capture] = {}

        def put(cap: _Capture) -> None:
            existing = out.get(cap.cell)
            if existing is None or (cap.stale and not existing.stale):
                out[cap.cell] = cap
            elif cap.alias and not existing.alias:
                existing.alias = True

        # Which cell node (if any) is *directly aliased* by this value:
        # the whole expression is the cell itself, a subscript of it, or
        # a `.get`/`.pop`/`.setdefault` lookup on it.
        stripped = expr.value if isinstance(expr, ast.Await) else expr
        alias_node: ast.expr | None = None
        if isinstance(stripped, ast.Attribute):
            alias_node = stripped
        elif isinstance(stripped, ast.Subscript):
            alias_node = stripped.value
        elif (
            isinstance(stripped, ast.Call)
            and isinstance(stripped.func, ast.Attribute)
            and stripped.func.attr in {"get", "pop", "setdefault"}
        ):
            alias_node = stripped.func.value
        alias_cell = (
            self.resolver.cell_of(alias_node) if alias_node is not None else None
        )

        # A bare-name copy preserves aliasing; derived values do not.
        keeps_alias = isinstance(stripped, ast.Name)
        for node in _walk_expr(expr):
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                for cap in self.captures.get(node.id, {}).values():
                    copy = _Capture(**vars(cap))
                    if not keeps_alias:
                        copy.alias = False
                    put(copy)
            elif isinstance(node, ast.Call):
                site = self.sites.get(id(node))
                if site is None:
                    continue
                for callee_qual in site.callees:
                    callee = self.analysis.summaries.get(callee_qual)
                    if callee is None:
                        continue
                    for cell in callee.return_cells:
                        # Fresh whether or not the call was awaited: the
                        # read inside the callee happens at call time.
                        put(_Capture(cell=cell, read_line=node.lineno))
        for cell, node in self.resolver.cells_in(expr):
            is_alias = alias_cell is not None and cell == alias_cell
            pre = first is None or (
                (node.lineno, node.col_offset)
                < (first.lineno, first.col_offset)
            )
            if pre and will_suspend:
                # Read now, written after the await resolves: stale by
                # construction once the suspension happens.
                put(
                    _Capture(
                        cell=cell,
                        read_line=node.lineno,
                        stale=True,
                        suspend_line=first.lineno if first else node.lineno,
                        alias=is_alias,
                    )
                )
            else:
                put(_Capture(cell=cell, read_line=node.lineno, alias=is_alias))
        return out

    def _check_calls(self, expr: ast.expr) -> None:
        """Helper-mediated writes and in-place mutators inside ``expr``.

        Argument staleness is judged *before* any bump for this
        statement: call arguments are evaluated before the coroutine
        suspends, so only captures from earlier statements count.
        """
        for node in _walk_expr(expr):
            if not isinstance(node, ast.Call):
                continue
            if isinstance(node.func, ast.Attribute) and node.func.attr in _MUTATORS:
                cell = self.resolver.cell_of(node.func.value)
                if cell is not None:
                    for arg in list(node.args) + [kw.value for kw in node.keywords]:
                        self._flag_stale(
                            arg, {cell}, node.lineno, node.col_offset, "write",
                            detail=f"{node.func.attr}()",
                        )
            site = self.sites.get(id(node))
            if site is None:
                continue
            for callee_qual in site.callees:
                callee_fn = self.graph.functions.get(callee_qual)
                callee = self.analysis.summaries.get(callee_qual)
                if callee_fn is None or callee is None or not callee.param_writes:
                    continue
                for j, arg in enumerate(node.args):
                    idx = callee_fn.arg_param_index(j, site.bound)
                    targets = callee.param_writes.get(idx, set())
                    if targets:
                        self._flag_stale(
                            arg, targets, node.lineno, node.col_offset,
                            "helper", detail=site.name,
                        )
                for kw in node.keywords:
                    if kw.arg is None:
                        continue
                    idx = callee_fn.param_index_of(kw.arg)
                    if idx is None:
                        continue
                    targets = callee.param_writes.get(idx, set())
                    if targets:
                        self._flag_stale(
                            kw.value, targets, node.lineno, node.col_offset,
                            "helper", detail=site.name,
                        )

    def _flag_stale(
        self,
        expr: ast.expr,
        target_cells: set[Cell],
        line: int,
        col: int,
        kind: str,
        detail: str = "",
    ) -> None:
        """Report stale captures carried by ``expr`` that hit ``target_cells``."""
        for node in _walk_expr(expr):
            if not (isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load)):
                continue
            for cell, cap in self.captures.get(node.id, {}).items():
                if cell not in target_cells:
                    continue
                if cap.stale and cell not in self.validated:
                    self._emit(cell, cap, line, col, kind, detail)

    def _emit(
        self, cell: Cell, cap: _Capture, line: int, col: int, kind: str, detail: str
    ) -> None:
        key = (line, col, cell, kind)
        if key in self._seen:
            return
        self._seen.add(key)
        self.hazards.append(
            StaleWriteHazard(
                qualname=self.fn.qualname,
                relpath=self.fn.relpath,
                cell=cell,
                read_line=cap.read_line,
                suspend_line=cap.suspend_line,
                write_line=line,
                write_col=col,
                kind=kind,
                detail=detail,
            )
        )

    # -- statement walk ------------------------------------------------------

    def scan(self) -> None:
        node = self.fn.node
        if isinstance(node, ast.Lambda):
            return
        self._walk(list(node.body))

    def _walk(self, stmts: list[ast.stmt]) -> bool:
        """Process statements in order; True if the block terminates."""
        for stmt in stmts:
            if self._stmt(stmt):
                return True
        return False

    def _expr_suspends(self, *exprs: ast.expr | None) -> ast.Await | None:
        for expr in exprs:
            if expr is None:
                continue
            found = _first_await(expr)
            if found is not None:
                return found
        return None

    def _handle_value(self, expr: ast.expr) -> dict[Cell, _Capture]:
        """Evaluate one value expression: check calls, bump on await,
        and return the captures the value carries."""
        awaited = self._expr_suspends(expr)
        self._check_calls(expr)
        caps = self._value_captures(expr, will_suspend=awaited is not None)
        if awaited is not None:
            self._bump(awaited.lineno)
        return caps

    def _store(
        self, target: ast.expr, caps: dict[Cell, _Capture], line: int, col: int
    ) -> None:
        if isinstance(target, (ast.Tuple, ast.List)):
            for elt in target.elts:
                self._store(elt, caps, line, col)
            return
        if isinstance(target, ast.Starred):
            self._store(target.value, caps, line, col)
            return
        if isinstance(target, ast.Name) and self.resolver.cell_of(target) is None:
            # Strong update: the local now carries exactly these captures.
            self.captures[target.id] = {
                cell: _Capture(**vars(cap)) for cell, cap in caps.items()
            }
            return
        cell = self.resolver.cell_of(target) if isinstance(
            target, (ast.Attribute, ast.Name)
        ) else None
        receiver: ast.expr | None = None
        if cell is None and isinstance(target, ast.Subscript):
            cell = self.resolver.cell_of(target.value)
            receiver = target.value
        elif isinstance(target, ast.Attribute):
            receiver = target.value
        if cell is not None:
            # Same-cell read-modify-write across a suspension.
            cap = caps.get(cell)
            if cap is not None and cap.stale and cell not in self.validated:
                self._emit(cell, cap, line, col, "write", detail="")
            return
        # Alias mutation: storing through a local that *directly
        # aliases* an object held in a cell mutates an object the cell
        # may no longer reference.
        if receiver is not None and isinstance(receiver, ast.Name):
            for alias_cell, cap in self.captures.get(receiver.id, {}).items():
                if cap.alias and cap.stale and alias_cell not in self.validated:
                    self._emit(alias_cell, cap, line, col, "alias", detail="")

    def _stmt(self, stmt: ast.stmt) -> bool:
        if isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            return False
        if isinstance(stmt, (ast.Return, ast.Raise)):
            for expr in [getattr(stmt, "value", None), getattr(stmt, "exc", None)]:
                if expr is not None:
                    self._handle_value(expr)
            return True
        if isinstance(stmt, (ast.Break, ast.Continue)):
            return True
        if isinstance(stmt, ast.Expr):
            self._handle_value(stmt.value)
            return False
        if isinstance(stmt, ast.Assign):
            caps = self._handle_value(stmt.value)
            for target in stmt.targets:
                self._store(target, caps, stmt.lineno, stmt.col_offset)
            return False
        if isinstance(stmt, ast.AnnAssign):
            if stmt.value is not None:
                caps = self._handle_value(stmt.value)
                self._store(stmt.target, caps, stmt.lineno, stmt.col_offset)
            return False
        if isinstance(stmt, ast.AugAssign):
            caps = self._handle_value(stmt.value)
            if isinstance(stmt.target, ast.Name):
                merged = self.captures.setdefault(stmt.target.id, {})
                for cell, cap in caps.items():
                    merged[cell] = _Capture(**vars(cap))
            else:
                self._store(stmt.target, caps, stmt.lineno, stmt.col_offset)
            return False
        if isinstance(stmt, ast.Delete):
            for target in stmt.targets:
                if isinstance(target, ast.Name):
                    self.captures.pop(target.id, None)
            return False
        if isinstance(stmt, ast.If):
            self._handle_value(stmt.test)
            self._validate(stmt.test)
            before = self._snapshot()
            body_done = self._walk(stmt.body)
            body_state = self._snapshot()
            self._restore(before)
            else_done = self._walk(stmt.orelse)
            else_state = self._snapshot()
            if body_done and else_done:
                return True
            if body_done:
                self._restore(else_state)
            elif else_done:
                self._restore(body_state)
            else:
                self._restore(self._merge_states(body_state, else_state))
            return False
        if isinstance(stmt, (ast.While, ast.For)):
            if isinstance(stmt, ast.While):
                self._handle_value(stmt.test)
                self._validate(stmt.test)
            else:
                caps = self._handle_value(stmt.iter)
                self._store(stmt.target, caps, stmt.lineno, stmt.col_offset)
            for _ in range(2):  # second pass: captures meet next iteration
                self._walk(stmt.body)
                if isinstance(stmt, ast.While):
                    self._handle_value(stmt.test)
                    self._validate(stmt.test)
            self._walk(stmt.orelse)
            return False
        if isinstance(stmt, ast.AsyncFor):
            caps = self._handle_value(stmt.iter)
            self._bump(stmt.lineno)  # each iteration suspends
            self._store(stmt.target, caps, stmt.lineno, stmt.col_offset)
            for _ in range(2):
                self._walk(stmt.body)
                self._bump(stmt.lineno)
            self._walk(stmt.orelse)
            return False
        if isinstance(stmt, (ast.With, ast.AsyncWith)):
            for item in stmt.items:
                caps = self._handle_value(item.context_expr)
                if item.optional_vars is not None:
                    self._store(
                        item.optional_vars, caps, stmt.lineno, stmt.col_offset
                    )
            if isinstance(stmt, ast.AsyncWith):
                self._bump(stmt.lineno)
            return self._walk(stmt.body)
        if isinstance(stmt, ast.Try):
            done = self._walk(stmt.body)
            body_state = self._snapshot()
            states = [] if done else [body_state]
            for handler in stmt.handlers:
                self._restore(body_state)
                if not self._walk(handler.body):
                    states.append(self._snapshot())
            if not states:
                self._walk(stmt.finalbody)
                return True
            merged = states[0]
            for state in states[1:]:
                merged = self._merge_states(merged, state)
            self._restore(merged)
            self._walk(stmt.orelse)
            self._walk(stmt.finalbody)
            return False
        if isinstance(stmt, ast.Assert):
            self._handle_value(stmt.test)
            self._validate(stmt.test)
            return False
        if isinstance(stmt, ast.Match):
            self._handle_value(stmt.subject)
            self._validate(stmt.subject)
            for case in stmt.cases:
                before = self._snapshot()
                self._walk(case.body)
                self._restore(before)
            return False
        return False
