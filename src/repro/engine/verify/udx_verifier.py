"""AST-based verification of extension bodies against permission sets.

The CLR host admits an assembly only after verifying its IL against the
declared permission set; here the "IL" is the Python source of each
registered callable, recovered with :func:`inspect.getsource` and
analysed with :mod:`ast`:

- ``SAFE`` forbids importing or calling anything that reaches I/O, the
  network, ``os``/``subprocess``, or that mutates closed-over / global
  state — computation only, like SAFE CLR code;
- ``EXTERNAL_ACCESS`` additionally admits file/stream/table access (the
  FileStream wrapper TVFs live here);
- ``UNSAFE`` switches verification off (everything is admitted, and the
  optimizer trusts nothing it did not infer).

Beyond admission, the verifier *infers* two optimizer-facing
properties, mirroring ``IsDeterministic`` and ``DataAccessKind``:

- ``is_deterministic`` — ``False`` when the body (or an analysed
  same-module callee, to a bounded depth) reaches ``random``,
  ``secrets``, ``uuid.uuid4``, ``time.*``, ``datetime.now``, or
  ``os.urandom``; ``True`` only when the source was fully analysed, no
  marker was found, and *every* reachable call target was accounted
  for — plain-name callees must resolve to analysed same-module
  functions or known-pure builtins, and module-qualified calls must
  target audited stdlib modules; ``None`` in every other case — source
  unavailable (lambdas defined inline, builtins, C extensions),
  cross-module or unresolvable callees, recursion depth exhausted —
  unknown, so never memoised. Method calls on local values
  (``seq.upper()``) are assumed to be pure data transformations;
- ``data_access`` — ``"READ"`` when the body calls into a database /
  FileStream handle it closed over (``self._db.table(...)``,
  ``store.get_bytes(...)``), else ``"NONE"``.

Verification never hard-fails on *unverifiable* source — an inline
lambda registers fine, it just stays unverified (and therefore
unmemoised). Violations of the declared permission set are errors.
"""

from __future__ import annotations

import ast
import inspect
import textwrap
import types
from dataclasses import dataclass, field, replace
from typing import Callable, List, Optional, Set, Tuple

from .diagnostics import Diagnostic, finding

#: the three CLR permission buckets
PERMISSION_SETS = ("SAFE", "EXTERNAL_ACCESS", "UNSAFE")

#: top-level modules SAFE code must not import or touch (I/O, network,
#: process control) — EXTERNAL_ACCESS admits them
_SAFE_FORBIDDEN_MODULES = {
    "os",
    "sys",
    "subprocess",
    "socket",
    "shutil",
    "pathlib",
    "io",
    "urllib",
    "http",
    "requests",
    "ftplib",
    "tempfile",
    "ctypes",
    "glob",
    "fileinput",
    "multiprocessing",
    "signal",
}

#: modules no permission set short of UNSAFE admits (process spawning,
#: raw memory) — the CLR host's "host protection" categories
_UNSAFE_ONLY_MODULES = {"subprocess", "ctypes", "signal", "multiprocessing"}

#: builtins SAFE code must not call
_SAFE_FORBIDDEN_CALLS = {
    "open",
    "exec",
    "eval",
    "compile",
    "__import__",
    "input",
    "breakpoint",
}

#: module → attribute names that mark non-determinism; "*" = any use of
#: the module marks it (mirrors SQL Server's IsDeterministic inference)
_NONDETERMINISTIC = {
    "random": {"*"},
    "secrets": {"*"},
    "uuid": {"uuid1", "uuid4"},
    "time": {"*"},
    "datetime": {"now", "utcnow", "today"},
    "os": {"urandom", "getrandom"},
}

#: builtins a SAFE deterministic body may call without losing its
#: verified ``IsDeterministic`` (pure computation and constructors;
#: exception types cover ``raise`` statements)
_DETERMINISTIC_BUILTINS = {
    "abs", "all", "any", "ascii", "bin", "bool", "bytearray", "bytes",
    "callable", "chr", "complex", "dict", "divmod", "enumerate",
    "filter", "float", "format", "frozenset", "getattr", "hasattr",
    "hash", "hex", "int", "isinstance", "issubclass", "iter", "len",
    "list", "map", "max", "min", "next", "oct", "ord", "pow", "range",
    "repr", "reversed", "round", "set", "slice", "sorted", "str",
    "sum", "tuple", "type", "zip",
    "ArithmeticError", "AssertionError", "AttributeError", "Exception",
    "IndexError", "KeyError", "LookupError", "NotImplementedError",
    "OverflowError", "RuntimeError", "StopIteration", "TypeError",
    "ValueError", "ZeroDivisionError",
}

#: stdlib modules audited as deterministic: a call into one of these
#: (``math.sqrt``, ``re.match``) keeps the verdict; a module-qualified
#: call anywhere else leaves ``IsDeterministic`` unverified. Modules
#: listed in ``_NONDETERMINISTIC`` with *specific* markers are audited
#: too — their other attributes (``datetime.date``, ``os.path.join``)
#: count as deterministic.
_DETERMINISTIC_MODULES = {
    "abc", "array", "base64", "binascii", "bisect", "cmath",
    "collections", "copy", "dataclasses", "decimal", "enum",
    "fractions", "functools", "hashlib", "heapq", "itertools", "json",
    "math", "numbers", "operator", "re", "statistics", "string",
    "struct", "textwrap", "typing", "unicodedata", "zlib",
}

#: closed-over variable names that look like database / storage handles
_DATA_ACCESS_ROOTS = {
    "db",
    "_db",
    "database",
    "_database",
    "store",
    "_store",
    "filestream",
    "_filestream",
    "catalog",
    "_catalog",
}

#: method names on those handles that constitute data access
_DATA_ACCESS_CALLS = {
    "scan",
    "seek",
    "query",
    "execute",
    "scalar",
    "table",
    "get",
    "get_bytes",
    "open_stream",
    "path_name",
    "data_length",
    "exists",
    "read_bytes",
    "create_from_file",
}

#: recursion bound for same-module callee analysis
_MAX_DEPTH = 3


@dataclass
class AnalysisReport:
    """Outcome of analysing one callable (or class-method family)."""

    diagnostics: List[Diagnostic] = field(default_factory=list)
    #: None => source unavailable, property unknown
    is_deterministic: Optional[bool] = None
    data_access: str = "NONE"
    #: True when at least one body was parsed and walked
    analyzed: bool = False

    def merge(self, other: "AnalysisReport") -> None:
        """Fold a callee / sibling-method report into this one.

        Determinism combines as a three-valued AND: ``False``
        dominates, and an unverifiable callee (``None`` — source
        unavailable, not analysed) taints an otherwise-``True`` parent
        down to ``None``, so it is never memoised.
        """
        self.diagnostics.extend(other.diagnostics)
        self.analyzed = self.analyzed or other.analyzed
        if other.data_access == "READ":
            self.data_access = "READ"
        if self.is_deterministic is False or other.is_deterministic is False:
            self.is_deterministic = False
        elif self.is_deterministic is None or other.is_deterministic is None:
            self.is_deterministic = None
        else:
            self.is_deterministic = True


def _underlying_function(func: Callable) -> Optional[types.FunctionType]:
    """Unwrap methods/partials down to a plain Python function."""
    seen = 0
    while seen < 8:
        seen += 1
        if isinstance(func, (staticmethod, classmethod)):
            func = func.__func__
            continue
        if inspect.ismethod(func):
            func = func.__func__
            continue
        wrapped = getattr(func, "__wrapped__", None)
        if wrapped is not None:
            func = wrapped
            continue
        break
    return func if isinstance(func, types.FunctionType) else None


def _parse_source(func: types.FunctionType) -> Optional[ast.AST]:
    """Parse the function's source to its def/lambda AST node."""
    try:
        source = textwrap.dedent(inspect.getsource(func))
    except (OSError, TypeError):
        return None
    try:
        tree = ast.parse(source)
    except SyntaxError:
        # a lambda (or decorated def) embedded mid-expression: getsource
        # returns the enclosing statement, which may not parse alone
        return None
    for node in ast.walk(tree):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            if node.name == func.__name__:
                return node
        if isinstance(node, ast.Lambda) and func.__name__ == "<lambda>":
            return node
    return None


class _BodyWalker(ast.NodeVisitor):
    """One pass over a function body collecting verifier findings."""

    def __init__(
        self,
        owner: str,
        permission_set: str,
        func_globals: dict,
        is_method: bool,
    ):
        self.owner = owner
        self.permission_set = permission_set
        self.globals = func_globals
        self.is_method = is_method
        self.diagnostics: List[Diagnostic] = []
        self.nondeterministic: List[str] = []
        self.data_access = False
        #: plain-name calls that might be same-module helpers
        self.callee_names: Set[str] = set()
        #: module-qualified calls whose determinism cannot be vouched
        #: for (the target module is neither audited nor marked)
        self.unverified_calls: Set[str] = set()
        #: local aliases introduced by imports inside the body
        self._local_modules: dict = {}

    # -- helpers ------------------------------------------------------------

    def _module_of(self, root: Optional[str]) -> Optional[str]:
        """Resolve a root name to a top-level module name, via local
        imports first, then the function's globals."""
        if root is None:
            return None
        if root in self._local_modules:
            return self._local_modules[root]
        value = self.globals.get(root)
        if isinstance(value, types.ModuleType):
            return value.__name__.split(".")[0]
        return None

    def _diag(self, rule: str, message: str) -> None:
        self.diagnostics.append(finding(rule, self.owner, message))

    def _state_write(self, rule: str, message: str) -> None:
        """A global / closed-over write: an error under SAFE, a warning
        under EXTERNAL_ACCESS (the one per-site severity)."""
        diagnostic = finding(rule, self.owner, message)
        if self.permission_set != "SAFE":
            diagnostic = replace(diagnostic, severity="warning")
        self.diagnostics.append(diagnostic)

    def _check_module(self, module: str, how: str) -> None:
        top = module.split(".")[0]
        if top in _UNSAFE_ONLY_MODULES and self.permission_set != "UNSAFE":
            self._diag(
                "UDX-UNSAFE-MODULE",
                f"{how} {top!r} requires the UNSAFE permission set "
                f"(declared {self.permission_set})",
            )
        elif top in _SAFE_FORBIDDEN_MODULES and self.permission_set == "SAFE":
            self._diag(
                "UDX-SAFE-IMPORT",
                f"SAFE code must not {how} {top!r} (I/O / process access "
                "needs EXTERNAL_ACCESS)",
            )

    # -- visitors -----------------------------------------------------------

    def visit_Import(self, node: ast.Import) -> None:
        for alias in node.names:
            self._local_modules[alias.asname or alias.name.split(".")[0]] = (
                alias.name.split(".")[0]
            )
            self._check_module(alias.name, "import")
        self.generic_visit(node)

    def visit_ImportFrom(self, node: ast.ImportFrom) -> None:
        if node.module and node.level == 0:
            self._check_module(node.module, "import from")
            top = node.module.split(".")[0]
            markers = _NONDETERMINISTIC.get(top)
            if markers:
                for alias in node.names:
                    if "*" in markers or alias.name in markers:
                        self.nondeterministic.append(
                            f"{top}.{alias.name}"
                        )
        self.generic_visit(node)

    def visit_Global(self, node: ast.Global) -> None:
        self._state_write(
            "UDX-SAFE-GLOBAL-WRITE",
            f"declares global {', '.join(node.names)} — mutation of "
            "global state is forbidden for SAFE extensions",
        )
        self.generic_visit(node)

    def visit_Nonlocal(self, node: ast.Nonlocal) -> None:
        self._state_write(
            "UDX-SAFE-CLOSURE-WRITE",
            f"declares nonlocal {', '.join(node.names)} — mutation of "
            "closed-over state is forbidden for SAFE extensions",
        )
        self.generic_visit(node)

    def visit_Call(self, node: ast.Call) -> None:
        func = node.func
        if isinstance(func, ast.Name):
            name = func.id
            if name in _SAFE_FORBIDDEN_CALLS:
                if self.permission_set == "SAFE":
                    self._diag(
                        "UDX-SAFE-CALL",
                        f"SAFE code must not call {name}() "
                        "(needs EXTERNAL_ACCESS)",
                    )
                elif name in ("exec", "eval", "compile", "__import__"):
                    if self.permission_set != "UNSAFE":
                        self._diag(
                            "UDX-UNSAFE-CALL",
                            f"calling {name}() requires the UNSAFE "
                            "permission set",
                        )
            else:
                self.callee_names.add(name)
        elif isinstance(func, ast.Attribute):
            root_node = func.value
            parts = [func.attr]
            while isinstance(root_node, ast.Attribute):
                parts.append(root_node.attr)
                root_node = root_node.value
            parts.reverse()
            root = root_node.id if isinstance(root_node, ast.Name) else None
            method = parts[-1]
            chain = parts[:-1]

            # module-qualified calls: random.random(), datetime.now(), ...
            module = self._module_of(root)
            if module is not None:
                self._check_module(module, "call into")
                markers = _NONDETERMINISTIC.get(module)
                target = parts[0] if chain else method
                if markers and ("*" in markers or target in markers
                                or method in markers):
                    self.nondeterministic.append(f"{module}.{method}")
                elif markers is None and module not in _DETERMINISTIC_MODULES:
                    self.unverified_calls.add(f"{module}.{method}")
            # data access through a closed-over db / store handle
            handle_names = set(chain)
            if root is not None and root != "self":
                handle_names.add(root)
            if (
                handle_names & _DATA_ACCESS_ROOTS
                and method in _DATA_ACCESS_CALLS
            ):
                self.data_access = True
        self.generic_visit(node)

    def visit_Attribute(self, node: ast.Attribute) -> None:
        # non-call uses of nondeterministic attributes (rare) still count
        root, parts = None, []
        cursor: ast.AST = node
        while isinstance(cursor, ast.Attribute):
            parts.append(cursor.attr)
            cursor = cursor.value
        parts.reverse()
        if isinstance(cursor, ast.Name):
            root = cursor.id
        module = self._module_of(root)
        if module in _NONDETERMINISTIC and parts:
            markers = _NONDETERMINISTIC[module]
            if "*" in markers or parts[0] in markers:
                self.nondeterministic.append(f"{module}.{parts[0]}")
        self.generic_visit(node)


def analyze_callable(
    func: Callable,
    owner: str,
    permission_set: str = "SAFE",
    depth: int = _MAX_DEPTH,
    _seen: Optional[Set[int]] = None,
) -> AnalysisReport:
    """Analyse one callable's body against ``permission_set``.

    Recurses (bounded) into plain-name callees defined in the same
    module, so a UDF delegating to a module-level helper is still
    verified end to end.
    """
    report = AnalysisReport()
    if permission_set not in PERMISSION_SETS:
        report.diagnostics.append(
            finding(
                "UDX-PERMISSION-SET",
                owner,
                f"unknown permission set {permission_set!r} "
                f"(expected one of {', '.join(PERMISSION_SETS)})",
            )
        )
        return report
    if permission_set == "UNSAFE":
        report.diagnostics.append(
            finding(
                "UDX-UNSAFE",
                owner,
                "UNSAFE permission set: verification skipped, the "
                "optimizer will trust no inferred properties",
            )
        )
        return report

    plain = _underlying_function(func)
    if plain is None:
        report.diagnostics.append(
            finding(
                "UDX-NO-SOURCE",
                owner,
                "not a plain Python function — properties declared, "
                "not verified",
            )
        )
        return report
    node = _parse_source(plain)
    if node is None:
        report.diagnostics.append(
            finding(
                "UDX-NO-SOURCE",
                owner,
                "source unavailable or unparsable (inline lambda?) — "
                "properties declared, not verified",
            )
        )
        return report

    seen = _seen if _seen is not None else set()
    if id(plain) in seen:
        # recursion cycle: this body is already being analysed further
        # up the stack, so return the neutral element for merge() —
        # its findings are accounted for there, and an empty unanalysed
        # report must not taint the caller's verdict
        report.analyzed = True
        report.is_deterministic = True
        return report
    seen.add(id(plain))

    is_method = bool(plain.__code__.co_varnames[:1] == ("self",))
    walker = _BodyWalker(
        owner, permission_set, plain.__globals__, is_method
    )
    walker.visit(node)
    report.analyzed = True
    report.diagnostics.extend(walker.diagnostics)
    if walker.data_access:
        report.data_access = "READ"
        if permission_set == "SAFE":
            report.diagnostics.append(
                finding(
                    "UDX-SAFE-DATA-ACCESS",
                    owner,
                    "SAFE code must not reach database / FileStream "
                    "storage (DataAccessKind.Read needs EXTERNAL_ACCESS)",
                )
            )
    if walker.nondeterministic:
        report.is_deterministic = False
        unique = sorted(set(walker.nondeterministic))
        report.diagnostics.append(
            finding(
                "UDX-NONDETERMINISTIC",
                owner,
                "inferred IsDeterministic=false (uses "
                + ", ".join(unique)
                + ")",
            )
        )
    else:
        report.is_deterministic = True

    # Transitive analysis of callees. IsDeterministic=true is only kept
    # when *every* plain-name call target is accounted for: analysed
    # same-module helpers (bounded depth), known-pure builtins, or
    # callables from audited stdlib modules. Anything else — a helper
    # imported from another module, an unresolvable name, a class, a
    # callee past the depth bound — leaves the verdict unknown (None),
    # so the engine does not memoise the call.
    unverified = set(walker.unverified_calls)
    module_name = plain.__module__
    for name in sorted(walker.callee_names):
        callee = plain.__globals__.get(name)
        if callee is None:
            if name not in _DETERMINISTIC_BUILTINS:
                unverified.add(name)
            continue
        target = _underlying_function(callee)
        if target is not None and target.__module__ == module_name:
            if depth > 0:
                sub = analyze_callable(
                    target, owner, permission_set, depth - 1, seen
                )
                report.merge(sub)
            else:
                unverified.add(name)
            continue
        callee_module = (getattr(callee, "__module__", "") or "").split(
            "."
        )[0]
        if callee_module not in _DETERMINISTIC_MODULES:
            unverified.add(name)
    if unverified and report.is_deterministic is True:
        report.is_deterministic = None
        listed = sorted(unverified)
        shown = ", ".join(listed[:5]) + (", ..." if len(listed) > 5 else "")
        report.diagnostics.append(
            finding(
                "UDX-UNVERIFIED-CALL",
                owner,
                "IsDeterministic left unverified — calls that could "
                f"not be statically analysed: {shown}",
            )
        )
    return report


def analyze_class_methods(
    cls: type,
    owner: str,
    method_names: Tuple[str, ...],
    permission_set: str = "SAFE",
) -> AnalysisReport:
    """Analyse the listed methods of ``cls`` as one extension body."""
    report = AnalysisReport()
    # start from the merge() neutral element; any unverifiable method
    # taints the verdict down to None, any marker use down to False
    report.is_deterministic = True
    any_analyzed = False
    for method_name in method_names:
        method = getattr(cls, method_name, None)
        if method is None:
            continue
        sub = analyze_callable(method, f"{owner}.{method_name}",
                               permission_set)
        any_analyzed = any_analyzed or sub.analyzed
        report.merge(sub)
    report.analyzed = any_analyzed
    if not any_analyzed:
        report.is_deterministic = None
    if permission_set == "UNSAFE":
        # one warning, not one per method
        unsafe = [
            d for d in report.diagnostics if d.rule == "UDX-UNSAFE"
        ]
        report.diagnostics = [
            d for d in report.diagnostics if d.rule != "UDX-UNSAFE"
        ]
        if unsafe:
            report.diagnostics.append(replace(unsafe[0], obj=owner))
    return report
