"""Thread-escape approximation: which callables run off-thread.

Escape *roots* are callables handed to a concurrency boundary:

* ``pool.submit(fn, ...)`` when the receiver is a known
  ``ThreadPoolExecutor`` (tracked through locals, ``with ... as``
  bindings and ``self.<attr>`` constructor assignments) — or when the
  receiver cannot be classified at all, since every ``submit`` in this
  codebase is a thread-pool submit;
* ``pool.map(fn, ...)`` only when the receiver is a *known* thread
  pool (``ProcessPoolExecutor.map`` crosses a process boundary, where
  thread-safety rules do not apply);
* ``threading.Thread(target=fn, args=...)``.

The *escaping* set closes the roots over resolved call edges: anything
a root calls (that the call graph can see) also runs on the worker
thread.  Boundary call sites are kept verbatim so the thread-boundary
hygiene rule can inspect the argument expressions that cross with the
callable.
"""

from __future__ import annotations

import ast
from dataclasses import dataclass

from repro.analysis.concurrency.callgraph import CallGraph, FunctionInfo
from repro.analysis.rulebase import attribute_chain
from repro.analysis.source import ProjectContext

__all__ = ["BoundaryCall", "EscapeModel"]

_THREAD_POOLS = frozenset({"ThreadPoolExecutor"})
_PROCESS_POOLS = frozenset({"ProcessPoolExecutor"})
_EXECUTOR_MODULES = frozenset({"concurrent.futures", "concurrent"})


@dataclass(frozen=True)
class BoundaryCall:
    """One call that moves a callable (and its arguments) off-thread."""

    fn: str  # enclosing FunctionInfo.key
    kind: str  # "submit" | "map" | "thread"
    target: ast.expr | None  # the callable expression, if present
    target_key: str | None  # resolved FunctionInfo.key of the callable
    payload: tuple[ast.expr, ...]  # argument expressions crossing with it
    node: ast.Call
    relpath: str


class EscapeModel:
    """Escape roots, their transitive closure, and the boundary sites."""

    def __init__(self) -> None:
        self.roots: set[str] = set()
        self.escaping: set[str] = set()
        self.boundary_calls: list[BoundaryCall] = []

    @classmethod
    def build(cls, project: ProjectContext, graph: CallGraph) -> "EscapeModel":
        model = cls()
        for info in graph.functions.values():
            pools = _PoolKinds.of(info, graph)
            for site in graph.calls_by_caller.get(info.key, ()):
                model._classify(info, site.node, site.chain, pools, graph)
        model._close(graph)
        return model

    def escapes(self, fn_key: str) -> bool:
        return fn_key in self.escaping

    # -- boundary detection ----------------------------------------------------

    def _classify(
        self,
        info: FunctionInfo,
        node: ast.Call,
        chain: tuple[str, ...],
        pools: "_PoolKinds",
        graph: CallGraph,
    ) -> None:
        if len(chain) >= 2 and chain[-1] in ("submit", "map"):
            receiver = chain[:-1]
            kind = pools.kind(receiver)
            if kind == "process":
                return
            if chain[-1] == "map" and kind != "thread":
                return  # only flag .map on a *known* thread pool
            if node.args:
                self._record(
                    info, chain[-1], node.args[0], tuple(node.args[1:]), node, graph
                )
            return
        if chain and chain[-1] == "Thread" and _is_thread_ctor(chain, info, graph):
            target = None
            payload: list[ast.expr] = []
            for kw in node.keywords:
                if kw.arg == "target":
                    target = kw.value
                elif kw.arg in ("args", "kwargs"):
                    payload.append(kw.value)
            if target is not None:
                self._record(info, "thread", target, tuple(payload), node, graph)

    def _record(
        self,
        info: FunctionInfo,
        kind: str,
        target: ast.expr,
        payload: tuple[ast.expr, ...],
        node: ast.Call,
        graph: CallGraph,
    ) -> None:
        target_key = _resolve_callable(target, info, graph)
        self.boundary_calls.append(
            BoundaryCall(
                fn=info.key,
                kind=kind,
                target=target,
                target_key=target_key,
                payload=payload,
                node=node,
                relpath=info.relpath,
            )
        )
        if target_key is not None:
            self.roots.add(target_key)

    # -- closure ---------------------------------------------------------------

    def _close(self, graph: CallGraph) -> None:
        self.escaping = set(self.roots)
        frontier = list(self.roots)
        while frontier:
            key = frontier.pop()
            for site in graph.calls_by_caller.get(key, ()):
                callee = site.callee
                if callee is not None and callee not in self.escaping:
                    self.escaping.add(callee)
                    frontier.append(callee)


class _PoolKinds:
    """Receiver-name -> executor kind for one function's scope."""

    def __init__(self) -> None:
        self._kinds: dict[tuple[str, ...], str] = {}

    @classmethod
    def of(cls, info: FunctionInfo, graph: CallGraph) -> "_PoolKinds":
        pools = cls()
        imports = graph.import_table(info.module)
        # Locals and ``with ... as pool`` bindings in this function.
        for node in ast.walk(info.node):
            if isinstance(node, ast.Assign) and len(node.targets) == 1:
                target = node.targets[0]
                kind = _executor_kind(node.value, imports)
                if isinstance(target, ast.Name) and kind is not None:
                    pools._kinds[(target.id,)] = kind
            elif isinstance(node, (ast.With, ast.AsyncWith)):
                for item in node.items:
                    kind = _executor_kind(item.context_expr, imports)
                    if kind is not None and isinstance(
                        item.optional_vars, ast.Name
                    ):
                        pools._kinds[(item.optional_vars.id,)] = kind
        # ``self.<attr>`` pools declared anywhere in the enclosing class.
        if info.cls is not None:
            for method in graph.methods_of(info.module, info.cls):
                for node in ast.walk(method.node):
                    if not (
                        isinstance(node, ast.Assign)
                        and len(node.targets) == 1
                    ):
                        continue
                    target = node.targets[0]
                    kind = _executor_kind(node.value, imports)
                    if (
                        kind is not None
                        and isinstance(target, ast.Attribute)
                        and isinstance(target.value, ast.Name)
                        and target.value.id == "self"
                    ):
                        pools._kinds[("self", target.attr)] = kind
        return pools

    def kind(self, receiver: tuple[str, ...]) -> str | None:
        return self._kinds.get(receiver)


def _executor_kind(expr: ast.expr, imports: dict[str, str]) -> str | None:
    """"thread" / "process" when ``expr`` constructs an executor."""
    if not isinstance(expr, ast.Call):
        return None
    chain = attribute_chain(expr.func)
    if not chain:
        return None
    name = chain[-1]
    if name in _THREAD_POOLS:
        kind = "thread"
    elif name in _PROCESS_POOLS:
        kind = "process"
    else:
        return None
    if len(chain) == 1:
        target = imports.get(name, "")
        return kind if target.endswith(f".{name}") else None
    head = imports.get(chain[0], ".".join(chain[:-1]))
    return kind if head in _EXECUTOR_MODULES else None


def _is_thread_ctor(
    chain: tuple[str, ...], info: FunctionInfo, graph: CallGraph
) -> bool:
    imports = graph.import_table(info.module)
    if len(chain) == 1:
        return imports.get("Thread", "") == "threading.Thread"
    return imports.get(chain[0], chain[0]) == "threading"


def _resolve_callable(
    target: ast.expr, info: FunctionInfo, graph: CallGraph
) -> str | None:
    """FunctionInfo.key for a callable expression, when resolvable."""
    chain = tuple(attribute_chain(target))
    if not chain:
        return None
    if len(chain) == 1:
        # Nested worker defined in this function?
        nested = f"{info.module}:{info.qualname}.{chain[0]}"
        if nested in graph.functions:
            return nested
    return graph.resolve_call(info.module, info, chain)
