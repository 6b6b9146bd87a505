"""Lock-discipline lints for the parallel engine (CL209–CL212).

The parallel executor runs pipelines on a thread pool; the shared
state those threads touch — the :class:`~repro.engine.catalog.Catalog`
temp registry and storage meters, the
:class:`~repro.engine.dictcache.DictionaryCache` code cache, the
:class:`~repro.obs.tracer.Tracer` span/counter stores — is guarded by
``threading.Lock`` attributes.  That contract is purely conventional;
these lints make it static.  Scope: ``repro/engine`` and ``repro/obs``
(the modules that run under the pool).

The pass is a lexical abstract interpretation of each function body:
walking statements while tracking the set of locks held (``with
self._lock:`` blocks), it derives

* a **lockset** per class: an attribute ever written while holding a
  lock is inferred lock-guarded, and every other write to it outside
  ``__init__`` is flagged (CL209) — including writes through another
  object (``self._catalog.peak_temp_bytes = ...``) for the well-known
  shared attributes;
* a **static lock-order graph**: ``with a: with b:`` adds the edge
  ``a → b``; any strongly-connected component of two or more locks is
  an acquisition-order inversion that could deadlock two pool
  workers (CL210);
* bare ``.acquire()``/``.release()`` calls, which escape lexical
  lockset tracking and leak locks on exceptions (CL211);
* nested re-acquisition of the same non-reentrant lock, which
  self-deadlocks the worker that does it (CL212).

A lock is recognized syntactically: an attribute assigned
``threading.Lock()`` / ``threading.RLock()`` in the class, or any
``with`` context whose name contains ``lock`` (the cache's per-key
``key_lock`` locals).  Locks are identified as ``Class.attr`` for
``self`` attributes — unifying acquisitions across methods — and
per-function for locals.
"""

from __future__ import annotations

import ast
from dataclasses import dataclass, field
from typing import Iterator

from repro.analysis.linter import Finding, code_rule

#: Path scope: the modules that execute under the executor's thread pool.
_CONCURRENCY_SCOPE = ("repro/engine/", "repro/obs/", "repro/cache/")

#: Container methods that mutate their receiver in place.
_MUTATING_METHODS = frozenset(
    {
        "add",
        "append",
        "clear",
        "discard",
        "extend",
        "insert",
        "pop",
        "popitem",
        "remove",
        "setdefault",
        "update",
    }
)

#: Methods in which unlocked initialization writes are legitimate.
_INIT_METHODS = frozenset({"__init__", "__post_init__", "__setstate__"})

#: Attribute names of the engine's shared mutable state, checked even
#: through another object's reference (``executor -> catalog``).
_SHARED_ATTRS = frozenset(
    {
        "counters",
        "current_temp_bytes",
        "histograms",
        "hits",
        "misses",
        "peak_temp_bytes",
        "spans",
        "total_temp_bytes_written",
    }
)

#: Receiver names that denote a shared engine object held by another
#: component (heuristic: flags ``self._catalog.peak_temp_bytes = ...``
#: without flagging writes to genuinely-local result objects).
_SHARED_RECEIVERS = frozenset(
    {
        "cache",
        "catalog",
        "dictionaries",
        "dictionary_cache",
        "tracer",
        "_cache",
        "_catalog",
        "_dictionaries",
        "_dictionary_cache",
        "_tracer",
    }
)


@dataclass(frozen=True)
class _Write:
    """One mutation of ``self.<attr>`` observed in a method body."""

    cls: str
    func: str
    attr: str
    line: int
    held: bool


@dataclass
class _Facts:
    """Everything the four rules need, collected in one module pass."""

    writes: list[_Write] = field(default_factory=list)
    cross_writes: list[tuple[str, str, int, bool]] = field(
        default_factory=list
    )  # (receiver, attr, line, held)
    edges: dict[tuple[str, str], int] = field(default_factory=dict)
    reacquisitions: list[tuple[str, int]] = field(default_factory=list)
    manual_calls: list[tuple[str, int]] = field(default_factory=list)


def _lock_attributes(cls: ast.ClassDef) -> set[str]:
    """``self.<attr>`` names assigned a ``threading.Lock()``-like value."""
    names: set[str] = set()
    for node in ast.walk(cls):
        if not isinstance(node, ast.Assign):
            continue
        value = node.value
        if not isinstance(value, ast.Call):
            continue
        func = value.func
        callee = (
            func.attr
            if isinstance(func, ast.Attribute)
            else func.id
            if isinstance(func, ast.Name)
            else ""
        )
        if callee not in ("Lock", "RLock"):
            continue
        for target in node.targets:
            if (
                isinstance(target, ast.Attribute)
                and isinstance(target.value, ast.Name)
                and target.value.id == "self"
            ):
                names.add(target.attr)
    return names


def _self_attr(node: ast.expr) -> str | None:
    """Resolve ``self.<attr>`` (possibly through subscripts), else None."""
    while isinstance(node, ast.Subscript):
        node = node.value
    if (
        isinstance(node, ast.Attribute)
        and isinstance(node.value, ast.Name)
        and node.value.id == "self"
    ):
        return node.attr
    return None


def _receiver_attr(node: ast.expr) -> tuple[str, str] | None:
    """Resolve ``<receiver>.<attr>`` where the receiver is a non-self
    name or attribute — the cross-object write shape."""
    while isinstance(node, ast.Subscript):
        node = node.value
    if not isinstance(node, ast.Attribute):
        return None
    value = node.value
    if isinstance(value, ast.Name):
        receiver = value.id
    elif isinstance(value, ast.Attribute):
        receiver = value.attr
    else:
        return None
    if receiver == "self":
        return None
    return receiver, node.attr


def _lock_id(
    expr: ast.expr, cls: str, func: str, lock_attrs: set[str]
) -> str | None:
    """Normalized identity of a lock expression, or None if not a lock.

    ``self.<attr>`` locks unify across the class's methods; local
    variables (the cache's per-key locks) are per-function.
    """
    if isinstance(expr, ast.Attribute) and isinstance(expr.value, ast.Name):
        if expr.value.id == "self" and (
            expr.attr in lock_attrs or "lock" in expr.attr.lower()
        ):
            return f"{cls or '<module>'}.{expr.attr}"
    if isinstance(expr, ast.Name) and "lock" in expr.id.lower():
        return f"{cls or '<module>'}.{func}:{expr.id}"
    return None


class _FunctionPass:
    """Walk one function body tracking the lexically-held lockset."""

    def __init__(
        self, facts: _Facts, cls: str, func: str, lock_attrs: set[str]
    ) -> None:
        self._facts = facts
        self._cls = cls
        self._func = func
        self._lock_attrs = lock_attrs

    def run(self, body: list[ast.stmt]) -> None:
        for statement in body:
            self._visit(statement, ())

    def _visit(self, node: ast.AST, held: tuple[str, ...]) -> None:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            # A nested def executes later, not under the current locks.
            _FunctionPass(
                self._facts, self._cls, node.name, self._lock_attrs
            ).run(node.body)
            return
        if isinstance(node, ast.ClassDef):
            return
        if isinstance(node, (ast.With, ast.AsyncWith)):
            self._visit_with(node, held)
            return
        if isinstance(node, (ast.Assign, ast.AugAssign, ast.AnnAssign)):
            self._record_assignment(node, held)
        elif isinstance(node, ast.Delete):
            for target in node.targets:
                self._record_target(target, node.lineno, held)
        elif isinstance(node, ast.Call):
            self._record_call(node, held)
        for child in ast.iter_child_nodes(node):
            self._visit(child, held)

    def _visit_with(
        self, node: ast.With | ast.AsyncWith, held: tuple[str, ...]
    ) -> None:
        acquired: list[str] = []
        acquired_set: set[str] = set()
        for item in node.items:
            self._visit(item.context_expr, held)
            lock = _lock_id(
                item.context_expr, self._cls, self._func, self._lock_attrs
            )
            if lock is None:
                continue
            if lock in held or lock in acquired_set:
                self._facts.reacquisitions.append((lock, node.lineno))
            for outer in (*held, *acquired):
                if outer != lock:
                    self._facts.edges.setdefault(
                        (outer, lock), node.lineno
                    )
            acquired.append(lock)
            acquired_set.add(lock)
        inner = held + tuple(acquired)
        for statement in node.body:
            self._visit(statement, inner)

    def _record_assignment(
        self,
        node: ast.Assign | ast.AugAssign | ast.AnnAssign,
        held: tuple[str, ...],
    ) -> None:
        targets: list[ast.expr]
        if isinstance(node, ast.Assign):
            targets = list(node.targets)
        else:
            if isinstance(node, ast.AnnAssign) and node.value is None:
                return
            targets = [node.target]
        for target in targets:
            self._record_target(target, node.lineno, held)

    def _record_target(
        self, target: ast.expr, line: int, held: tuple[str, ...]
    ) -> None:
        if isinstance(target, (ast.Tuple, ast.List)):
            for element in target.elts:
                self._record_target(element, line, held)
            return
        attr = _self_attr(target)
        if attr is not None:
            self._facts.writes.append(
                _Write(self._cls, self._func, attr, line, bool(held))
            )
            return
        cross = _receiver_attr(target)
        if cross is not None:
            receiver, attr = cross
            self._facts.cross_writes.append(
                (receiver, attr, line, bool(held))
            )

    def _record_call(self, node: ast.Call, held: tuple[str, ...]) -> None:
        func = node.func
        if not isinstance(func, ast.Attribute):
            return
        if func.attr in ("acquire", "release"):
            lock = _lock_id(
                func.value, self._cls, self._func, self._lock_attrs
            )
            if lock is not None:
                self._facts.manual_calls.append((func.attr, node.lineno))
            return
        if func.attr not in _MUTATING_METHODS:
            return
        attr = _self_attr(func.value)
        if attr is not None:
            self._facts.writes.append(
                _Write(self._cls, self._func, attr, node.lineno, bool(held))
            )


def _collect(tree: ast.Module) -> _Facts:
    facts = _Facts()

    def walk_container(
        body: list[ast.stmt], cls: str, lock_attrs: set[str]
    ) -> None:
        for node in body:
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                _FunctionPass(facts, cls, node.name, lock_attrs).run(
                    node.body
                )
            elif isinstance(node, ast.ClassDef):
                walk_container(node.body, node.name, _lock_attributes(node))

    walk_container(tree.body, "", set())
    return facts


@code_rule(
    "CL209",
    "unlocked-shared-mutation",
    "shared engine state mutated outside its guarding lock",
    scope=_CONCURRENCY_SCOPE,
)
def check_unlocked_shared_mutation(tree: ast.Module) -> Iterator[Finding]:
    facts = _collect(tree)
    guarded: dict[str, set[str]] = {}
    for write in facts.writes:
        if write.held:
            guarded.setdefault(write.cls, set()).add(write.attr)
    for write in facts.writes:
        if write.held or write.func in _INIT_METHODS:
            continue
        if write.attr not in guarded.get(write.cls, ()):
            continue
        yield (
            write.line,
            f"{write.cls}.{write.attr} is lock-guarded elsewhere but "
            f"mutated here without holding a lock",
            "wrap the mutation in the attribute's 'with <lock>:' block "
            "(or route it through a locked method)",
        )
    for receiver, attr, line, held in facts.cross_writes:
        if held or attr not in _SHARED_ATTRS:
            continue
        if receiver not in _SHARED_RECEIVERS:
            continue
        yield (
            line,
            f"writes shared attribute {attr!r} of {receiver!r} directly, "
            "bypassing that object's lock",
            "add a locked mutator method on the owning class and call "
            "that instead",
        )


@code_rule(
    "CL210",
    "lock-order-inversion",
    "locks acquired in opposite orders can deadlock pool workers",
    scope=_CONCURRENCY_SCOPE,
)
def check_lock_order_inversion(tree: ast.Module) -> Iterator[Finding]:
    facts = _collect(tree)
    graph: dict[str, set[str]] = {}
    for outer, inner in facts.edges:
        graph.setdefault(outer, set()).add(inner)
        graph.setdefault(inner, set())
    # Two-node (or longer) cycles in the static acquisition-order graph:
    # report each lock pair reachable from one another.
    reachable: dict[str, set[str]] = {}

    def reach(start: str) -> set[str]:
        if start in reachable:
            return reachable[start]
        seen: set[str] = set()
        stack = [start]
        while stack:
            node = stack.pop()
            for successor in graph.get(node, ()):
                if successor not in seen:
                    seen.add(successor)
                    stack.append(successor)
        reachable[start] = seen
        return seen

    reported: set[frozenset[str]] = set()
    for (outer, inner), line in sorted(
        facts.edges.items(), key=lambda item: item[1]
    ):
        if outer in reach(inner):
            pair = frozenset((outer, inner))
            if pair in reported:
                continue
            reported.add(pair)
            first, second = sorted(pair)
            yield (
                line,
                f"lock-order inversion between {first} and {second}: "
                "both nestings occur, so two workers can deadlock",
                "pick one global acquisition order and nest every "
                "'with' block the same way",
            )


@code_rule(
    "CL211",
    "manual-lock-acquire",
    "bare acquire()/release() escapes lexical lock tracking and leaks "
    "on exceptions",
    scope=_CONCURRENCY_SCOPE,
)
def check_manual_lock_calls(tree: ast.Module) -> Iterator[Finding]:
    facts = _collect(tree)
    for method, line in facts.manual_calls:
        yield (
            line,
            f"manual lock .{method}() call",
            "use a 'with <lock>:' block so the lock is released on "
            "every exit path",
        )


@code_rule(
    "CL212",
    "nested-lock-reacquisition",
    "re-entering a non-reentrant threading.Lock self-deadlocks",
    scope=_CONCURRENCY_SCOPE,
)
def check_nested_reacquisition(tree: ast.Module) -> Iterator[Finding]:
    facts = _collect(tree)
    for lock, line in facts.reacquisitions:
        yield (
            line,
            f"acquires {lock} while already holding it "
            "(threading.Lock is not reentrant)",
            "restructure so the locked region is entered once, or use "
            "an RLock deliberately",
        )
