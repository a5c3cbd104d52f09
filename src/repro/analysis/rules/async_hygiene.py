"""RL005 — async hygiene in protocol handlers and the TCP transport.

Five failure modes (``core/``, ``smr/``, and the asyncio transport
modules ``net/transport.py`` / ``net/runtime.py`` / ``net/cluster.py`` /
``net/chaos.py`` / ``net/checkers.py``):

1. **Un-awaited coroutines.**  A bare statement ``self.flush(ctx)``
   where ``flush`` is an ``async def`` creates a coroutine object and
   drops it — the body never runs.  Flagged when the called name is an
   ``async def`` defined in the same module (the only case decidable
   without type inference).

2. **State mutation after ``await`` without re-checking the guard.**
   Every ``await`` is a scheduling point: by the time the handler
   resumes, other messages may have advanced the round/epoch/view, so
   writes to shared protocol state (``self.*`` / ``state.*``) based on
   pre-await reasoning can clobber newer state.  Flagged when an async
   function assigns to such an attribute after an ``await`` with no
   intervening conditional that mentions a guard variable (a name
   containing ``round``, ``epoch``, ``view``, ``halted``, ``closed`` or
   ``decided``).  Re-checking the guard (e.g. ``if r != self.round:
   return``) clears the taint.

3. **Orphaned tasks.**  ``loop.create_task(...)`` whose result is
   dropped (a bare expression statement) or assigned but never given an
   ``add_done_callback`` in the same function: when such a task dies,
   its exception is swallowed and the transport silently stops
   delivering.  Every spawned task must be retained *and* observed.

4. **Un-awaited sends.**  In an async function, a bare statement
   calling a known-awaitable I/O method (``drain``, ``sendall``,
   ``wait``, ``sleep``, ...) drops the awaitable: the bytes may never
   be flushed and backpressure is lost.

5. **Unbounded waits in the chaos orchestration layer**
   (``net/runtime.py`` / ``net/cluster.py`` / ``net/chaos.py`` only).
   The chaos engine's
   whole purpose is to create the conditions — partitions, SIGSTOPped
   peers, crashed processes — under which a bare
   ``await reader.readline()`` / ``await event.wait()`` /
   ``await queue.get()`` blocks forever, turning a fault-injection run
   into a hung CI job.  Every such await must be bounded
   (``asyncio.wait_for``, or a method with its own internal deadline)
   or carry a ``# repro: noqa-RL005`` comment justifying why
   termination is otherwise guaranteed.

The protocol core is callback-driven (no ``async`` at all), so modes 1
and 2 keep it that way; modes 3-5 police the one place real
concurrency is allowed — the socket transport and its chaos harness.
"""

from __future__ import annotations

import ast

from ..diagnostics import Diagnostic
from ..source import SourceFile
from . import Rule

__all__ = ["AsyncHygieneRule"]

_GUARD_FRAGMENTS = ("round", "epoch", "view", "halted", "closed", "decided")
_STATE_BASES = {"self", "state"}

# Methods/functions that return awaitables; calling one as a bare
# statement inside ``async def`` silently drops the awaitable.
_AWAITABLE_CALLS = {
    "drain",
    "sendall",
    "sleep",
    "wait",
    "wait_for",
    "wait_closed",
    "gather",
    "serve_forever",
    "start_serving",
    "open_connection",
}

# Mode 5: awaitables that block until *the network or another process*
# produces something, and therefore block forever under an injected
# fault unless bounded.  ``asyncio.wait_for``-wrapped calls are awaits
# on ``wait_for`` itself, so they are naturally exempt.
_UNBOUNDED_READ_CALLS = {
    "read",
    "readline",
    "readexactly",
    "readuntil",
    "wait",
    "get",
}

# Where mode 5 applies: the chaos orchestration layer.  The transport
# itself (net/transport.py) is deliberately excluded — its reader loops
# are bounded by connection lifetime, which the chaos plan controls.
_UNBOUNDED_READ_SCOPE = ("net/runtime.py", "net/cluster.py", "net/chaos.py")


def _async_def_names(tree: ast.Module) -> set[str]:
    return {node.name for node in ast.walk(tree) if isinstance(node, ast.AsyncFunctionDef)}


def _called_name(call: ast.Call) -> str | None:
    if isinstance(call.func, ast.Name):
        return call.func.id
    if isinstance(call.func, ast.Attribute):
        return call.func.attr
    return None


def _local_called_name(call: ast.Call) -> str | None:
    """The called name, only when it can resolve to a same-module
    ``async def``: a bare name or a ``self.``/``state.`` method.  An
    arbitrary receiver (``writer.close()``) may be a foreign sync method
    that merely shares its name with a local coroutine."""
    if isinstance(call.func, ast.Name):
        return call.func.id
    if (
        isinstance(call.func, ast.Attribute)
        and isinstance(call.func.value, ast.Name)
        and call.func.value.id in _STATE_BASES
    ):
        return call.func.attr
    return None


def _mentions_guard(node: ast.AST) -> bool:
    for sub in ast.walk(node):
        name = None
        if isinstance(sub, ast.Name):
            name = sub.id
        elif isinstance(sub, ast.Attribute):
            name = sub.attr
        if name is not None and any(frag in name.lower() for frag in _GUARD_FRAGMENTS):
            return True
    return False


def _contains_await(node: ast.AST) -> bool:
    return any(isinstance(sub, ast.Await) for sub in ast.walk(node))


def _shared_state_target(node: ast.AST) -> ast.Attribute | None:
    """An assignment target of the form ``self.x`` / ``state.x``."""
    targets: list[ast.expr] = []
    if isinstance(node, ast.Assign):
        targets = node.targets
    elif isinstance(node, (ast.AugAssign, ast.AnnAssign)):
        targets = [node.target]
    for target in targets:
        if (
            isinstance(target, ast.Attribute)
            and isinstance(target.value, ast.Name)
            and target.value.id in _STATE_BASES
        ):
            return target
    return None


def _own_nodes(func: ast.AST):
    """Every node belonging to ``func`` itself, not to nested defs."""
    stack = list(ast.iter_child_nodes(func))
    while stack:
        node = stack.pop()
        yield node
        if not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            stack.extend(ast.iter_child_nodes(node))


def _task_target_key(target: ast.expr) -> tuple | None:
    """A comparable identity for a task-holding variable or attribute."""
    if isinstance(target, ast.Name):
        return ("name", target.id)
    if isinstance(target, ast.Attribute) and isinstance(target.value, ast.Name):
        return ("attr", target.value.id, target.attr)
    return None


class AsyncHygieneRule(Rule):
    rule_id = "RL005"
    summary = "async hygiene: dropped coroutines/tasks, unguarded post-await writes"
    scope = (
        "core/",
        "smr/",
        "net/transport.py",
        "net/runtime.py",
        "net/cluster.py",
        "net/chaos.py",
        "net/checkers.py",
    )

    def check(self, source: SourceFile) -> list[Diagnostic]:
        diagnostics: list[Diagnostic] = []
        async_names = _async_def_names(source.tree)

        if async_names:
            for node in ast.walk(source.tree):
                if (
                    isinstance(node, ast.Expr)
                    and isinstance(node.value, ast.Call)
                    and _local_called_name(node.value) in async_names
                ):
                    diagnostics.append(
                        self.diagnostic(
                            source,
                            node.lineno,
                            node.col_offset,
                            f"coroutine {_local_called_name(node.value)}(...) is "
                            "never awaited; its body will not run",
                            hint="await the call (or schedule it explicitly as a task)",
                        )
                    )

        for node in ast.walk(source.tree):
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                self._scan_tasks(source, node, diagnostics)
            if isinstance(node, ast.AsyncFunctionDef):
                self._scan_bare_awaitables(source, node, diagnostics)
                self._scan_async_body(source, node.body, awaited=False, out=diagnostics)
        if any(
            source.relpath == prefix or source.relpath.startswith(prefix)
            for prefix in _UNBOUNDED_READ_SCOPE
        ):
            self._scan_unbounded_reads(source, diagnostics)
        diagnostics.sort(key=Diagnostic.sort_key)
        return diagnostics

    def _scan_unbounded_reads(
        self, source: SourceFile, out: list[Diagnostic]
    ) -> None:
        """Mode 5: every await on a network/process read is bounded."""
        for node in ast.walk(source.tree):
            if (
                isinstance(node, ast.Await)
                and isinstance(node.value, ast.Call)
                and _called_name(node.value) in _UNBOUNDED_READ_CALLS
            ):
                name = _called_name(node.value)
                out.append(
                    self.diagnostic(
                        source,
                        node.value.lineno,
                        node.value.col_offset,
                        f"`await ...{name}(...)` has no timeout; under an "
                        "injected fault (partition, SIGSTOP, crash) this wait "
                        "never returns and the chaos run hangs",
                        hint=(
                            "wrap in asyncio.wait_for(..., timeout) or justify "
                            "with `# repro: noqa-RL005 <reason>`"
                        ),
                    )
                )

    def _scan_tasks(
        self, source: SourceFile, func: ast.AST, out: list[Diagnostic]
    ) -> None:
        """Mode 3: every created task is retained and observed."""
        created: list[tuple[ast.stmt, tuple]] = []
        observed: set[tuple] = set()
        for node in _own_nodes(func):
            if (
                isinstance(node, ast.Expr)
                and isinstance(node.value, ast.Call)
                and _called_name(node.value) == "create_task"
            ):
                out.append(
                    self.diagnostic(
                        source,
                        node.lineno,
                        node.col_offset,
                        "create_task(...) result is dropped; a failure of this "
                        "task would be silently swallowed",
                        hint="assign the task and attach an add_done_callback",
                    )
                )
            elif (
                isinstance(node, ast.Assign)
                and isinstance(node.value, ast.Call)
                and _called_name(node.value) == "create_task"
            ):
                for target in node.targets:
                    key = _task_target_key(target)
                    if key is not None:
                        created.append((node, key))
            elif (
                isinstance(node, ast.Call)
                and isinstance(node.func, ast.Attribute)
                and node.func.attr == "add_done_callback"
            ):
                key = _task_target_key(node.func.value)
                if key is not None:
                    observed.add(key)
        for node, key in created:
            if key not in observed:
                out.append(
                    self.diagnostic(
                        source,
                        node.lineno,
                        node.col_offset,
                        f"task '{key[-1]}' has no add_done_callback in this "
                        "function; its exception would never be observed",
                        hint="attach an add_done_callback that retrieves the result",
                    )
                )

    def _scan_bare_awaitables(
        self, source: SourceFile, func: ast.AsyncFunctionDef, out: list[Diagnostic]
    ) -> None:
        """Mode 4: no un-awaited sends inside async functions."""
        for node in _own_nodes(func):
            if (
                isinstance(node, ast.Expr)
                and isinstance(node.value, ast.Call)
                and _called_name(node.value) in _AWAITABLE_CALLS
            ):
                name = _called_name(node.value)
                out.append(
                    self.diagnostic(
                        source,
                        node.lineno,
                        node.col_offset,
                        f"{name}(...) returns an awaitable that is dropped; the "
                        "send may never complete and backpressure is lost",
                        hint=f"write `await ...{name}(...)`",
                    )
                )

    def _scan_async_body(
        self,
        source: SourceFile,
        body: list[ast.stmt],
        awaited: bool,
        out: list[Diagnostic],
    ) -> bool:
        """Linear taint scan; returns whether an await has happened."""
        for stmt in body:
            if isinstance(stmt, ast.If) and _mentions_guard(stmt.test):
                # The handler re-checked its round/epoch guard: writes
                # below (and inside) are considered re-validated.
                for branch in (stmt.body, stmt.orelse):
                    self._scan_async_body(source, branch, awaited=False, out=out)
                awaited = _contains_await(stmt) or False
                continue
            target = _shared_state_target(stmt)
            if target is not None and awaited:
                out.append(
                    self.diagnostic(
                        source,
                        stmt.lineno,
                        stmt.col_offset,
                        f"shared protocol state '{ast.unparse(target)}' is mutated "
                        "after an await without re-checking the round/epoch guard",
                        hint=(
                            "re-validate the guard after resuming (e.g. "
                            "`if r != self.round: return`) before writing"
                        ),
                    )
                )
            if _contains_await(stmt):
                awaited = True
            # Recurse into nested compound statements with the current taint.
            for field in ("body", "orelse", "finalbody"):
                sub = getattr(stmt, field, None)
                if isinstance(sub, list) and sub and not isinstance(stmt, ast.FunctionDef):
                    awaited = self._scan_async_body(source, sub, awaited=awaited, out=out) or awaited
        return awaited
