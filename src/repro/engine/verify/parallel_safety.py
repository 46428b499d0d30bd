"""Static fork/pickle-safety analysis of the parallel engine's source.

The worker pool's correctness rests on source-level conventions that no
runtime check enforces:

- task handlers are dispatched **by name** (``_TASK_KINDS``), so the
  child process resolves them by importing the module — never by
  unpickling a code object. A handler that is not a module-level
  function of the same module breaks resolution in the child.
- task payloads must survive :func:`pickle.dumps` on the coordinator;
  a lambda or nested closure embedded by a payload builder fails at
  runtime, on the first parallel query, in production.
- module-level mutable state is **duplicated** by ``fork`` — mutations
  in a worker are invisible to the coordinator and to sibling workers.
  That is exactly right for a worker-local cache and exactly wrong for
  anything meant to be shared, so every mutated module-level container
  must be *declared* worker-local (``WORKER_LOCAL_STATE``). The engine's
  own modules declare none: a worker's state is its fork.
- span/phase timing must use the monotonic ``time.perf_counter`` —
  it shares one clock across forked children, which is what lets worker
  spans graft onto the coordinator's trace without translation.
  ``time.time`` / ``datetime.now`` are wall clocks that NTP can step.

This module proves those conventions with a Python-``ast`` pass (the
same approach as :mod:`.udx_verifier`), reported under stable
``FORK-*`` rule IDs:

- **FORK-HANDLER-TOPLEVEL** — a ``_TASK_KINDS`` entry that is not a
  module-level function of the analysed module.
- **FORK-PICKLE-CLOSURE** — a lambda or nested function inside a task
  payload builder (functions matching ``build*task*`` /
  ``build*fragment*`` / ``rebuild*spec*``): the payload would embed an
  unpicklable closure.
- **FORK-SHARED-STATE** — a module-level mutable container mutated
  from function scope without a ``WORKER_LOCAL_STATE`` declaration:
  state that silently diverges across the fork boundary.
- **FORK-CLOCK** — a non-monotonic clock call (``time.time``,
  ``datetime.now`` / ``utcnow``) in a module whose spans are timed.

Run it over the engine's own parallel modules with
:func:`analyze_fork_safety` (the ``repro-genomics sanitize --self``
pass), or over arbitrary files by passing paths.
"""

from __future__ import annotations

import ast
import re
from pathlib import Path
from typing import Iterable, List, Optional, Sequence, Set

from .diagnostics import Diagnostic, finding

#: engine modules whose fork-boundary conventions the --self pass proves
DEFAULT_MODULES = (
    "workers.py",
    "executor/exchange.py",
    "executor/parallel.py",
)

#: constructors whose results are module-level mutable containers
_MUTABLE_FACTORIES = frozenset(
    ("dict", "list", "set", "OrderedDict", "defaultdict", "Counter", "deque")
)

#: method calls that mutate a container in place
_MUTATORS = frozenset(
    (
        "append",
        "add",
        "update",
        "pop",
        "popitem",
        "setdefault",
        "move_to_end",
        "extend",
        "insert",
        "remove",
        "discard",
        "clear",
    )
)

#: functions that assemble worker task payloads (checked for closures)
_PAYLOAD_BUILDER = re.compile(r"(?:^|_)(?:re)?build\w*(?:task|spec|fragment)")


def _is_mutable_literal(node: ast.expr) -> bool:
    if isinstance(
        node,
        (ast.Dict, ast.List, ast.Set, ast.DictComp, ast.ListComp, ast.SetComp),
    ):
        return True
    if isinstance(node, ast.Call):
        func = node.func
        name = func.id if isinstance(func, ast.Name) else getattr(func, "attr", "")
        return name in _MUTABLE_FACTORIES
    return False


def _string_elements(node: ast.expr) -> Set[str]:
    """Constant strings inside a set/list/tuple (or frozenset(...) of one)."""
    if isinstance(node, ast.Call) and node.args:
        return _string_elements(node.args[0])
    names: Set[str] = set()
    for element in getattr(node, "elts", ()):
        if isinstance(element, ast.Constant) and isinstance(element.value, str):
            names.add(element.value)
    return names


def _local_bindings(func: ast.AST) -> Set[str]:
    """Names bound in a function's own scope (params + assignments)."""
    bound: Set[str] = set()
    args = func.args
    for arg in (
        list(args.posonlyargs)
        + list(args.args)
        + list(args.kwonlyargs)
        + ([args.vararg] if args.vararg else [])
        + ([args.kwarg] if args.kwarg else [])
    ):
        bound.add(arg.arg)
    for node in ast.walk(func):
        if isinstance(node, ast.Assign):
            for target in node.targets:
                for name_node in ast.walk(target):
                    if isinstance(name_node, ast.Name) and not isinstance(
                        name_node.ctx, ast.Load
                    ):
                        bound.add(name_node.id)
        elif isinstance(node, (ast.For, ast.comprehension)):
            target = node.target
            for name_node in ast.walk(target):
                if isinstance(name_node, ast.Name):
                    bound.add(name_node.id)
    return bound


class _ModuleAnalysis:
    def __init__(self, tree: ast.Module, name: str,
                 worker_local: Set[str]) -> None:
        self.tree = tree
        self.name = name
        self.diagnostics: List[Diagnostic] = []
        self.toplevel_functions = {
            node.name
            for node in tree.body
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef))
        }
        self.mutable_globals: Set[str] = set()
        self.worker_local = set(worker_local)
        for node in tree.body:
            targets: List[ast.expr] = []
            if isinstance(node, ast.Assign):
                targets = node.targets
                value = node.value
            elif isinstance(node, ast.AnnAssign) and node.value is not None:
                targets = [node.target]
                value = node.value
            else:
                continue
            for target in targets:
                if not isinstance(target, ast.Name):
                    continue
                if target.id == "WORKER_LOCAL_STATE":
                    self.worker_local |= _string_elements(value)
                elif _is_mutable_literal(value):
                    self.mutable_globals.add(target.id)

    def add(self, rule: str, line: int, message: str) -> None:
        self.diagnostics.append(finding(rule, f"{self.name}:{line}", message))

    # -- rules ---------------------------------------------------------------

    def check_task_kinds(self) -> None:
        for node in self.tree.body:
            if not (
                isinstance(node, ast.Assign)
                and any(
                    isinstance(t, ast.Name) and t.id == "_TASK_KINDS"
                    for t in node.targets
                )
                and isinstance(node.value, ast.Dict)
            ):
                continue
            for value in node.value.values:
                if not isinstance(value, ast.Name):
                    self.add(
                        "FORK-HANDLER-TOPLEVEL",
                        value.lineno,
                        "task handler is not a plain module-level name — "
                        "a forked child resolves handlers by importing "
                        "this module",
                    )
                elif value.id not in self.toplevel_functions:
                    self.add(
                        "FORK-HANDLER-TOPLEVEL",
                        value.lineno,
                        f"task handler {value.id!r} is not a module-level "
                        "function of this module",
                    )

    def check_payload_closures(self) -> None:
        for node in ast.walk(self.tree):
            if not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                continue
            if not _PAYLOAD_BUILDER.search(node.name.lower()):
                continue
            for inner in ast.walk(node):
                if isinstance(inner, ast.Lambda):
                    self.add(
                        "FORK-PICKLE-CLOSURE",
                        inner.lineno,
                        f"lambda inside payload builder {node.name!r} — "
                        "closures do not pickle; rebuild accessors as "
                        "operator.itemgetter",
                    )
                elif (
                    isinstance(inner, (ast.FunctionDef, ast.AsyncFunctionDef))
                    and inner is not node
                ):
                    self.add(
                        "FORK-PICKLE-CLOSURE",
                        inner.lineno,
                        f"nested function {inner.name!r} inside payload "
                        f"builder {node.name!r} — a payload referencing it "
                        "cannot be unpickled by a worker",
                    )

    def check_shared_state(self) -> None:
        suspects = self.mutable_globals - self.worker_local
        if not suspects:
            return
        for func in ast.walk(self.tree):
            if not isinstance(func, (ast.FunctionDef, ast.AsyncFunctionDef)):
                continue
            locals_ = _local_bindings(func)
            for node in ast.walk(func):
                if isinstance(node, ast.Global):
                    for name in node.names:
                        if name in suspects:
                            self.add(
                                "FORK-SHARED-STATE",
                                node.lineno,
                                f"function {func.name!r} rebinds module "
                                f"global {name!r} — state diverges across "
                                "the fork boundary; declare it in "
                                "WORKER_LOCAL_STATE if that is intended",
                            )
                    continue
                target_name: Optional[str] = None
                if isinstance(node, (ast.Assign, ast.AugAssign)):
                    targets = (
                        node.targets
                        if isinstance(node, ast.Assign)
                        else [node.target]
                    )
                    for target in targets:
                        if isinstance(target, ast.Subscript) and isinstance(
                            target.value, ast.Name
                        ):
                            target_name = target.value.id
                elif (
                    isinstance(node, ast.Call)
                    and isinstance(node.func, ast.Attribute)
                    and isinstance(node.func.value, ast.Name)
                    and node.func.attr in _MUTATORS
                ):
                    target_name = node.func.value.id
                if (
                    target_name is not None
                    and target_name in suspects
                    and target_name not in locals_
                ):
                    self.add(
                        "FORK-SHARED-STATE",
                        node.lineno,
                        f"function {func.name!r} mutates module-level "
                        f"container {target_name!r} — after fork each "
                        "process sees its own copy; declare it in "
                        "WORKER_LOCAL_STATE if worker-local is intended",
                    )

    def check_clocks(self) -> None:
        for node in ast.walk(self.tree):
            if not isinstance(node, ast.Call):
                continue
            func = node.func
            if not isinstance(func, ast.Attribute):
                continue
            value = func.value
            if (
                isinstance(value, ast.Name)
                and value.id == "time"
                and func.attr in ("time", "clock")
            ):
                self.add(
                    "FORK-CLOCK",
                    node.lineno,
                    f"time.{func.attr}() is a steppable wall clock — span "
                    "and phase timing must use time.perf_counter so worker "
                    "spans graft onto the coordinator trace",
                )
            elif func.attr in ("now", "utcnow") and (
                (isinstance(value, ast.Name) and value.id == "datetime")
                or (
                    isinstance(value, ast.Attribute)
                    and value.attr == "datetime"
                )
            ):
                self.add(
                    "FORK-CLOCK",
                    node.lineno,
                    f"datetime.{func.attr}() is a wall clock — span and "
                    "phase timing must use time.perf_counter",
                )

    def run(self) -> List[Diagnostic]:
        self.check_task_kinds()
        self.check_payload_closures()
        self.check_shared_state()
        self.check_clocks()
        return self.diagnostics


def analyze_source(
    source: str,
    name: str,
    worker_local: Iterable[str] = (),
) -> List[Diagnostic]:
    """Run the fork-safety pass over one module's source text."""
    try:
        tree = ast.parse(source)
    except SyntaxError as exc:
        return [
            finding(
                "FORK-PARSE",
                f"{name}:{exc.lineno or 0}",
                f"source failed to parse: {exc.msg}",
            )
        ]
    return _ModuleAnalysis(tree, name, set(worker_local)).run()


def analyze_path(path: Path, worker_local: Iterable[str] = ()) -> List[Diagnostic]:
    return analyze_source(
        path.read_text(encoding="utf-8"), path.name, worker_local
    )


def analyze_fork_safety(
    paths: Optional[Sequence[Path]] = None,
) -> List[Diagnostic]:
    """Fork-safety pass over the engine's parallel modules (or ``paths``).

    The allowlist for worker-local caches is *not* passed in: each
    module must carry its own ``WORKER_LOCAL_STATE`` declaration, so the
    exemption is visible in the source the rule fires on.
    """
    if paths is None:
        engine_dir = Path(__file__).resolve().parent.parent
        paths = [engine_dir / relative for relative in DEFAULT_MODULES]
    diagnostics: List[Diagnostic] = []
    for path in paths:
        diagnostics.extend(analyze_path(Path(path)))
    return diagnostics
