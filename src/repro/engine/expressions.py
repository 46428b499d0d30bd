"""Scalar expression AST and evaluation.

Expressions are parsed by the SQL front end into the dataclasses below,
then *compiled* into Python closures ``row -> value`` against a binder
that resolves column references to row positions. Compilation (rather
than tree-walking per row) keeps scans of hundreds of thousands of rows
tolerable in pure Python.

NULL follows SQL three-valued logic: comparisons and arithmetic on NULL
yield NULL; ``AND``/``OR`` use Kleene logic; ``WHERE`` keeps a row only
when the predicate is exactly true.
"""

from __future__ import annotations

import operator
import re
import uuid
from collections import deque
from dataclasses import dataclass
from functools import lru_cache
from itertools import compress
from typing import Any, Callable, Dict, Iterable, List, Optional, Sequence, Tuple

from .errors import BindError, ExecutionError
from .udf import FunctionLibrary

# ---------------------------------------------------------------------------
# AST
# ---------------------------------------------------------------------------


class Expr:
    """Base class for expression nodes."""

    def children(self) -> Sequence["Expr"]:
        return ()


@dataclass(frozen=True)
class Literal(Expr):
    value: Any


class Parameter(Literal):
    """A literal lifted into a plan-cache parameter slot.

    ``value`` reads the current slot of the owning cache entry's shared
    parameter store, so a compiled plan template picks up fresh values on
    every execution without recompiling.  Everywhere an expression is
    *evaluated* a Parameter behaves exactly like the literal it replaced;
    code that would *bake* the value at plan time must either accept the
    sniffed value (cost estimates deliberately use the first-seen
    parameters) or keep the node and resolve at execute time (seek
    bounds, pushed column-store predicates, batch-compiled constants).

    ``is_parameter`` exists so storage-layer code can detect slots by
    duck typing without importing this module.
    """

    is_parameter = True

    def __init__(self, index: int, store: List[Any]):
        object.__setattr__(self, "index", index)
        object.__setattr__(self, "store", store)

    @property
    def value(self) -> Any:  # type: ignore[override]
        return self.store[self.index]

    def __repr__(self) -> str:
        # render as the current value so seek bounds and plan labels look
        # exactly like the equivalent inline-literal plan
        return repr(self.store[self.index])


@dataclass(frozen=True)
class ColumnRef(Expr):
    name: str
    qualifier: Optional[str] = None

    def __str__(self) -> str:  # pragma: no cover - cosmetic
        return f"{self.qualifier}.{self.name}" if self.qualifier else self.name


@dataclass(frozen=True)
class BoundRef(Expr):
    """A reference to a position in the current operator's output row.

    Produced by the planner when it substitutes already-computed values
    (aggregate results, window outputs, subquery columns) into an
    expression tree before compiling it.
    """

    index: int
    label: str = ""


@dataclass(frozen=True)
class BinaryOp(Expr):
    op: str  # '+', '-', '*', '/', '%', '=', '<>', '<', '<=', '>', '>=', 'AND', 'OR'
    left: Expr
    right: Expr

    def children(self) -> Sequence[Expr]:
        return (self.left, self.right)


@dataclass(frozen=True)
class UnaryOp(Expr):
    op: str  # 'NOT', '-'
    operand: Expr

    def children(self) -> Sequence[Expr]:
        return (self.operand,)


@dataclass(frozen=True)
class FuncCall(Expr):
    """A scalar function call — built-in or registered UDF."""

    name: str
    args: Tuple[Expr, ...] = ()

    def children(self) -> Sequence[Expr]:
        return self.args


@dataclass(frozen=True)
class AggregateCall(Expr):
    """An aggregate in a SELECT/HAVING list: COUNT/SUM/... or a UDA.

    ``star`` marks ``COUNT(*)``. ``distinct`` marks ``COUNT(DISTINCT x)``.
    The planner replaces these with references into aggregate output.
    """

    name: str
    args: Tuple[Expr, ...] = ()
    star: bool = False
    distinct: bool = False

    def children(self) -> Sequence[Expr]:
        return self.args


@dataclass(frozen=True)
class WindowCall(Expr):
    """``ROW_NUMBER() OVER (ORDER BY ...)`` — the one window function the
    paper's Query 1 needs."""

    name: str
    order_by: Tuple[Tuple[Expr, bool], ...] = ()  # (expr, descending)

    def children(self) -> Sequence[Expr]:
        return tuple(e for e, _ in self.order_by)


@dataclass(frozen=True)
class IsNull(Expr):
    operand: Expr
    negated: bool = False

    def children(self) -> Sequence[Expr]:
        return (self.operand,)


@dataclass(frozen=True)
class Between(Expr):
    operand: Expr
    low: Expr
    high: Expr

    def children(self) -> Sequence[Expr]:
        return (self.operand, self.low, self.high)


@dataclass(frozen=True)
class InList(Expr):
    operand: Expr
    items: Tuple[Expr, ...]

    def children(self) -> Sequence[Expr]:
        return (self.operand, *self.items)


@dataclass(frozen=True)
class Like(Expr):
    operand: Expr
    pattern: Expr
    negated: bool = False

    def children(self) -> Sequence[Expr]:
        return (self.operand, self.pattern)


@dataclass(frozen=True)
class Case(Expr):
    """Searched CASE: WHEN cond THEN value ... ELSE default END."""

    whens: Tuple[Tuple[Expr, Expr], ...]
    default: Optional[Expr] = None

    def children(self) -> Sequence[Expr]:
        out: List[Expr] = []
        for cond, value in self.whens:
            out.extend((cond, value))
        if self.default is not None:
            out.append(self.default)
        return tuple(out)


# ---------------------------------------------------------------------------
# helpers for tree inspection
# ---------------------------------------------------------------------------


def walk(expr: Expr):
    """Yield every node of the expression tree (pre-order)."""
    stack = [expr]
    while stack:
        node = stack.pop()
        yield node
        children = node.children()
        if children:
            stack.extend(reversed(children))


def rewrite(expr: Expr, transform: Callable[["Expr"], Optional["Expr"]]) -> Expr:
    """Rebuild an expression tree, replacing nodes bottom-up.

    ``transform`` is called on every (already child-rewritten) node; it
    returns a replacement node or ``None`` to keep the node as-is.
    """
    if isinstance(expr, BinaryOp):
        expr = BinaryOp(expr.op, rewrite(expr.left, transform), rewrite(expr.right, transform))
    elif isinstance(expr, UnaryOp):
        expr = UnaryOp(expr.op, rewrite(expr.operand, transform))
    elif isinstance(expr, FuncCall):
        expr = FuncCall(expr.name, tuple(rewrite(a, transform) for a in expr.args))
    elif isinstance(expr, AggregateCall):
        expr = AggregateCall(
            expr.name,
            tuple(rewrite(a, transform) for a in expr.args),
            star=expr.star,
            distinct=expr.distinct,
        )
    elif isinstance(expr, WindowCall):
        expr = WindowCall(
            expr.name,
            tuple((rewrite(e, transform), d) for e, d in expr.order_by),
        )
    elif isinstance(expr, IsNull):
        expr = IsNull(rewrite(expr.operand, transform), negated=expr.negated)
    elif isinstance(expr, Between):
        expr = Between(
            rewrite(expr.operand, transform),
            rewrite(expr.low, transform),
            rewrite(expr.high, transform),
        )
    elif isinstance(expr, InList):
        expr = InList(
            rewrite(expr.operand, transform),
            tuple(rewrite(i, transform) for i in expr.items),
        )
    elif isinstance(expr, Like):
        expr = Like(
            rewrite(expr.operand, transform),
            rewrite(expr.pattern, transform),
            negated=expr.negated,
        )
    elif isinstance(expr, Case):
        expr = Case(
            tuple(
                (rewrite(c, transform), rewrite(v, transform))
                for c, v in expr.whens
            ),
            rewrite(expr.default, transform) if expr.default is not None else None,
        )
    replacement = transform(expr)
    return replacement if replacement is not None else expr


def column_refs(expr: Expr) -> List[ColumnRef]:
    """Every column reference in ``expr``, in pre-order."""
    refs = []
    stack = [expr]
    while stack:
        node = stack.pop()
        if isinstance(node, ColumnRef):
            refs.append(node)
        else:
            stack.extend(reversed(node.children()))
    return refs


#: a name two or more columns answer to
_AMBIGUOUS = -1


def _positions(names: Sequence[str]) -> Dict[str, int]:
    """name → position in ``names``; a name listed twice maps to
    ``_AMBIGUOUS``."""
    positions: Dict[str, int] = {}
    for i, name in enumerate(names):
        positions[name] = _AMBIGUOUS if name in positions else i
    return positions


class Scope:
    """The one name-resolution rule, built once over an output column
    list; both plan layers bind column references through it.

    A qualified reference needs exactly one ``alias.name`` column. A
    bare one needs exactly one column of that name or, when there is
    none, exactly one column whose last dotted part is that name.
    Names compare case-insensitively. The last-part map is built on
    the first bare reference that needs it: join conditions are
    usually all qualified."""

    __slots__ = ("_names", "_exact", "_bare")

    def __init__(self, columns: Sequence[str]):
        self._index([column.lower() for column in columns])

    def _index(self, names: List[str]) -> None:
        self._names = names
        self._exact = _positions(names)
        self._bare: Optional[Dict[str, int]] = None

    def __add__(self, other: "Scope") -> "Scope":
        """The scope of this column list followed by ``other``'s (a
        join's output), without lower-casing either list again."""
        joined = Scope.__new__(Scope)
        joined._index(self._names + other._names)
        return joined

    def _lookup(self, ref: ColumnRef) -> Optional[int]:
        name = ref.name.lower()
        if ref.qualifier:
            return self._exact.get(f"{ref.qualifier.lower()}.{name}")
        hit = self._exact.get(name)
        if hit is not None:
            return hit
        if self._bare is None:
            self._bare = _positions(
                [n.rpartition(".")[2] for n in self._names]
            )
        return self._bare.get(name)

    def find(self, ref: ColumnRef) -> Optional[int]:
        """The position ``ref`` names, or None when it names none or
        several."""
        hit = self._lookup(ref)
        return None if hit == _AMBIGUOUS else hit

    def resolve(self, ref: ColumnRef) -> int:
        """The position ``ref`` names, else :class:`BindError`."""
        hit = self._lookup(ref)
        if hit is None:
            raise BindError(f"unknown column {ref}")
        if hit == _AMBIGUOUS:
            raise BindError(f"ambiguous column {ref}")
        return hit

    def __contains__(self, ref: ColumnRef) -> bool:
        return self.find(ref) is not None

    def binds(self, expr: Expr) -> bool:
        """Does every column reference in ``expr`` resolve?"""
        return all(ref in self for ref in column_refs(expr))


# ---------------------------------------------------------------------------
# built-in scalar functions (T-SQL flavoured)
# ---------------------------------------------------------------------------


def _charindex(needle: Any, haystack: Any, start: Any = 1) -> Any:
    """T-SQL CHARINDEX: 1-based position of needle, 0 when absent."""
    if needle is None or haystack is None:
        return None
    if not needle:
        return 0  # T-SQL finds an empty needle nowhere; str.find, everywhere
    if start == 1:  # the two-argument form
        return haystack.find(needle) + 1
    return haystack.find(needle, max(int(start) - 1, 0)) + 1


def _substring(text: Any, start: Any, length: Any) -> Any:
    if text is None or start is None or length is None:
        return None
    begin = max(int(start) - 1, 0)
    return text[begin : begin + int(length)]


def _datalength(value: Any) -> Any:
    if value is None:
        return None
    if isinstance(value, str):
        return len(value.encode("utf-8"))
    if isinstance(value, (bytes, bytearray)):
        return len(value)
    if isinstance(value, uuid.UUID):
        return 16
    if isinstance(value, bool):
        return 1
    if isinstance(value, int):
        return 4 if -(2**31) <= value < 2**31 else 8
    if isinstance(value, float):
        return 8
    return len(str(value))


def _isnull(value: Any, replacement: Any) -> Any:
    return replacement if value is None else value


def _coalesce(*args: Any) -> Any:
    for value in args:
        if value is not None:
            return value
    return None


def _len(value: Any) -> Any:
    if value is None:
        return None
    if isinstance(value, str):
        return len(value.rstrip(" "))  # T-SQL LEN ignores trailing spaces
    return len(value)


_BUILTINS: dict[str, Callable[..., Any]] = {
    "charindex": _charindex,
    "substring": _substring,
    "datalength": _datalength,
    "isnull": _isnull,
    "coalesce": _coalesce,
    "len": _len,
    "upper": lambda v: None if v is None else v.upper(),
    "lower": lambda v: None if v is None else v.lower(),
    "ltrim": lambda v: None if v is None else v.lstrip(),
    "rtrim": lambda v: None if v is None else v.rstrip(),
    "abs": lambda v: None if v is None else abs(v),
    "round": lambda v, n=0: None if v is None else round(v, int(n)),
    "replace": lambda s, a, b: None
    if s is None or a is None or b is None
    else s.replace(a, b),
    "reverse": lambda v: None if v is None else v[::-1],
    "newid": uuid.uuid4,
    "str": lambda v: None if v is None else str(v),
    "floor": lambda v: None if v is None else int(v // 1),
    "ceiling": lambda v: None if v is None else -int(-v // 1),
    "sqrt": lambda v: None if v is None else v**0.5,
    "log": lambda v: None if v is None else __import__("math").log(v),
    "power": lambda b, e: None if b is None or e is None else b**e,
    "sign": lambda v: None if v is None else (v > 0) - (v < 0),
    "left": lambda s, n: None if s is None or n is None else s[: int(n)],
    "right": lambda s, n: None if s is None or n is None else s[-int(n) :] if n else "",
    "concat": lambda *a: "".join("" if v is None else str(v) for v in a),
}

#: aggregate names handled natively by the aggregation operators
BUILTIN_AGGREGATES = {"count", "sum", "min", "max", "avg", "count_big"}


# ---------------------------------------------------------------------------
# LIKE pattern
# ---------------------------------------------------------------------------


@lru_cache(maxsize=256)
def _like_regex(pattern: str) -> "re.Pattern[str]":
    """The compiled regex of one LIKE pattern (a statement has a handful
    of patterns and thousands of rows)."""
    return re.compile(
        "".join(
            ".*" if ch == "%" else "." if ch == "_" else re.escape(ch)
            for ch in pattern
        ),
        flags=re.DOTALL,
    )


def like_match(value: Optional[str], pattern: Optional[str]) -> Optional[bool]:
    """SQL LIKE with ``%`` and ``_`` wildcards (no escape support)."""
    if value is None or pattern is None:
        return None
    return _like_regex(pattern).fullmatch(value) is not None


# ---------------------------------------------------------------------------
# compiler
# ---------------------------------------------------------------------------

#: a binder resolves a column reference to its index in the input row
Binder = Callable[[ColumnRef], int]

_ARITH = {
    "+": operator.add,
    "-": operator.sub,
    "*": operator.mul,
    "%": operator.mod,
}

_COMPARE = {
    "=": operator.eq,
    "<>": operator.ne,
    "!=": operator.ne,
    "<": operator.lt,
    "<=": operator.le,
    ">": operator.gt,
    ">=": operator.ge,
}


#: sentinel distinguishing "not cached" from a cached None result
_MEMO_MISS = object()


class ExpressionCompiler:
    """Compiles expression trees into ``row -> value`` closures."""

    def __init__(self, binder: Binder, library: Optional[FunctionLibrary] = None):
        self._binder = binder
        self._library = library

    def compile(self, expr: Expr) -> Callable[[Sequence[Any]], Any]:
        method = getattr(self, f"_compile_{type(expr).__name__.lower()}", None)
        if method is None:
            raise BindError(f"cannot compile expression node {type(expr).__name__}")
        return method(expr)

    # -- leaves --------------------------------------------------------------------

    def _compile_literal(self, expr: Literal):
        value = expr.value
        return lambda row: value

    def _compile_parameter(self, expr: Parameter):
        store, index = expr.store, expr.index
        return lambda row: store[index]

    def _compile_columnref(self, expr: ColumnRef):
        index = self._binder(expr)
        return lambda row: row[index]

    def _compile_boundref(self, expr: BoundRef):
        index = expr.index
        return lambda row: row[index]

    # -- operators ------------------------------------------------------------------

    def _compile_binaryop(self, expr: BinaryOp):
        op = expr.op.upper()
        left = self.compile(expr.left)
        right = self.compile(expr.right)
        if op == "AND":

            def and_eval(row):
                l_val = left(row)
                if l_val is False:
                    return False
                r_val = right(row)
                if r_val is False:
                    return False
                if l_val is None or r_val is None:
                    return None
                return True

            return and_eval
        if op == "OR":

            def or_eval(row):
                l_val = left(row)
                if l_val is True:
                    return True
                r_val = right(row)
                if r_val is True:
                    return True
                if l_val is None or r_val is None:
                    return None
                return False

            return or_eval
        if op in _COMPARE:
            compare = _COMPARE[op]

            def cmp_eval(row):
                l_val = left(row)
                if l_val is None:
                    return None
                r_val = right(row)
                if r_val is None:
                    return None
                return compare(l_val, r_val)

            return cmp_eval
        if op in _ARITH:
            arith = _ARITH[op]

            def arith_eval(row):
                l_val = left(row)
                if l_val is None:
                    return None
                r_val = right(row)
                if r_val is None:
                    return None
                return arith(l_val, r_val)

            return arith_eval
        if op == "/":

            def div_eval(row):
                l_val = left(row)
                if l_val is None:
                    return None
                r_val = right(row)
                if r_val is None:
                    return None
                if r_val == 0:
                    raise ExecutionError("division by zero")
                if isinstance(l_val, int) and isinstance(r_val, int):
                    # T-SQL integer division truncates toward zero
                    quotient = abs(l_val) // abs(r_val)
                    return quotient if (l_val >= 0) == (r_val >= 0) else -quotient
                return l_val / r_val

            return div_eval
        raise BindError(f"unknown binary operator {expr.op!r}")

    def _compile_unaryop(self, expr: UnaryOp):
        inner = self.compile(expr.operand)
        op = expr.op.upper()
        if op == "NOT":

            def not_eval(row):
                value = inner(row)
                return None if value is None else not value

            return not_eval
        if op == "-":
            return lambda row: None if (v := inner(row)) is None else -v
        if op == "+":
            return inner
        raise BindError(f"unknown unary operator {expr.op!r}")

    # -- functions -------------------------------------------------------------------

    #: memo-cache entries per deterministic UDF call site; beyond this
    #: the cache stops growing (a repeating-key workload stays cached)
    _MEMO_LIMIT = 4096

    def _compile_funccall(self, expr: FuncCall):
        arg_fns = [self.compile(a) for a in expr.args]
        # registered UDFs take precedence, so a database can override a
        # built-in (e.g. DATALENGTH over FILESTREAM pointers)
        if self._library is not None:
            udf = self._library.scalar(expr.name)
            if _proven_pure(udf):
                udf = self._memoised_udf(udf)
            if udf is not None:
                return lambda row: udf(*[fn(row) for fn in arg_fns])
        builtin = _BUILTINS.get(expr.name.lower())
        if builtin is not None:
            return lambda row: builtin(*[fn(row) for fn in arg_fns])
        raise BindError(f"unknown function {expr.name!r}")

    def _memoised_udf(self, udf):
        """Per-call-site memoisation — sound only because the verifier
        proved the UDF IsDeterministic with DataAccessKind.None."""
        cache: dict = {}
        limit = self._MEMO_LIMIT

        def memo_eval(*args):
            try:
                hit = cache.get(args, _MEMO_MISS)
            except TypeError:  # unhashable argument — just call
                return udf(*args)
            if hit is not _MEMO_MISS:
                return hit
            value = udf(*args)
            if len(cache) < limit:
                cache[args] = value
            return value

        return memo_eval

    def _compile_aggregatecall(self, expr: AggregateCall):
        raise BindError(
            f"aggregate {expr.name!r} used outside GROUP BY/SELECT context"
        )

    def _compile_windowcall(self, expr: WindowCall):
        raise BindError(
            f"window function {expr.name!r} must be planned, not compiled directly"
        )

    # -- predicates ------------------------------------------------------------------

    def _compile_isnull(self, expr: IsNull):
        inner = self.compile(expr.operand)
        if expr.negated:
            return lambda row: inner(row) is not None
        return lambda row: inner(row) is None

    def _compile_between(self, expr: Between):
        value = self.compile(expr.operand)
        low = self.compile(expr.low)
        high = self.compile(expr.high)

        def between_eval(row):
            v = value(row)
            lo = low(row)
            hi = high(row)
            if v is None or lo is None or hi is None:
                return None
            return lo <= v <= hi

        return between_eval

    def _compile_inlist(self, expr: InList):
        value = self.compile(expr.operand)
        item_fns = [self.compile(i) for i in expr.items]

        def in_eval(row):
            v = value(row)
            if v is None:
                return None
            saw_null = False
            for fn in item_fns:
                item = fn(row)
                if item is None:
                    saw_null = True
                elif item == v:
                    return True
            return None if saw_null else False

        return in_eval

    def _compile_like(self, expr: Like):
        value = self.compile(expr.operand)
        pattern = self.compile(expr.pattern)

        def like_eval(row):
            result = like_match(value(row), pattern(row))
            if result is None:
                return None
            return not result if expr.negated else result

        return like_eval

    def _compile_case(self, expr: Case):
        whens = [(self.compile(c), self.compile(v)) for c, v in expr.whens]
        default = self.compile(expr.default) if expr.default is not None else None

        def case_eval(row):
            for cond, value in whens:
                if cond(row) is True:
                    return value(row)
            return default(row) if default is not None else None

        return case_eval

    # -- batch compilation -------------------------------------------------------

    def compile_batch(self, expr: Expr) -> Callable[[Sequence[Sequence[Any]]], List[Any]]:
        """Compile an expression into a ``batch -> list of values`` closure.

        Trees admitted by :func:`batch_safe` are vectorised into
        whole-batch list comprehensions (one closure call per batch
        instead of per row). A ``CASE`` is split by its WHEN clauses,
        each branch compiled on its own (:meth:`_batch_case`), unless it
        calls a UDF not proven pure, which is evaluated per row; a
        proven-pure UDF maps its memo over vectorised arguments. Anything
        else — division/modulo, other UDF calls, ``NEWID``, LIKE — maps
        the row-compiled closure over the batch, which preserves
        short-circuit semantics exactly while still presenting the batch
        interface.

        Vectorised evaluation is eager: it calls a built-in on rows that
        the row closure's AND/OR short-circuit skips.  The built-ins
        are pure, so the only way to observe that is an exception; a
        batch whose vectorised evaluation raises is therefore re-run
        through the row closure, which skips or raises exactly as SQL's
        row-at-a-time semantics say."""
        library = self._library
        udf = library.scalar(expr.name) if isinstance(expr, FuncCall) and library else None
        if _proven_pure(udf) and expr.args and all(
            batch_safe(arg, library) for arg in expr.args
        ):
            # a proven-pure UDF over vectorised arguments: called through
            # its memo in row order, so it raises where the row closure would
            memo = self._memoised_udf(udf)
            columns = [self.compile_batch(arg) for arg in expr.args]
            return lambda batch: list(
                map(memo, *[column(batch) for column in columns])
            )
        if isinstance(expr, Case):
            # a re-run must not call a UDF not proven pure twice for a row
            udfs = [library.scalar(node.name) for node in walk(expr)
                    if library and isinstance(node, FuncCall)]
            unproven = any(udf and not _proven_pure(udf) for udf in udfs)
            vectorised = None if unproven else self._batch_case(expr)
        elif batch_safe(expr, self._library):
            vectorised = self._batch(expr)
            if not any(isinstance(node, FuncCall) for node in walk(expr)):
                return vectorised  # no function call to guard
        else:
            vectorised = None
        row_fn = self.compile(expr)

        def per_row(batch):
            return [row_fn(row) for row in batch]

        if vectorised is None:
            return per_row

        def guarded(batch):
            try:
                return vectorised(batch)
            except Exception:  # noqa: BLE001 - the row closure decides
                return per_row(batch)

        return guarded

    def _batch_case(self, expr: Case):
        """``CASE`` a batch at a time: each ``WHEN`` is tested on the rows
        no earlier one took, and each branch evaluated on the rows it
        takes, in row order — ``case_eval``'s short circuit, with every
        condition and branch batch-compiled on its own."""
        whens = [
            (self.compile_batch(c), self.compile_batch(v)) for c, v in expr.whens
        ]
        default = None if expr.default is None else self.compile_batch(expr.default)

        def case_batch(batch):
            out = [None] * len(batch)
            rows, positions = batch, range(len(batch))
            for test, value in whens:
                if not rows:
                    return out
                hits = [flag is True for flag in test(rows)]
                if True in hits:
                    taken = list(compress(rows, hits))
                    _scatter(out, compress(positions, hits), value(taken))
                    misses = list(map(operator.not_, hits))
                    rows = list(compress(rows, misses))
                    positions = list(compress(positions, misses))
            if default is not None and rows:
                _scatter(out, positions, default(rows))
            return out

        return case_batch

    def _batch(self, expr: Expr):
        """Vectorise one node of a :func:`batch_safe` tree."""
        return getattr(self, f"_batch_{type(expr).__name__.lower()}")(expr)

    def _batch_literal(self, expr: Literal):
        value = expr.value
        return lambda batch: [value] * len(batch)

    def _batch_parameter(self, expr: Parameter):
        store, index = expr.store, expr.index
        return lambda batch: [store[index]] * len(batch)

    def _batch_columnref(self, expr: ColumnRef):
        index = self._binder(expr)
        return lambda batch: [row[index] for row in batch]

    def _batch_boundref(self, expr: BoundRef):
        index = expr.index
        return lambda batch: [row[index] for row in batch]

    def _batch_binaryop(self, expr: BinaryOp):
        op = expr.op.upper()
        left = self._batch(expr.left)
        right = self._batch(expr.right)
        if op == "AND":
            return lambda batch: [
                False
                if l is False or r is False
                else (None if l is None or r is None else True)
                for l, r in zip(left(batch), right(batch))
            ]
        if op == "OR":
            return lambda batch: [
                True
                if l is True or r is True
                else (None if l is None or r is None else False)
                for l, r in zip(left(batch), right(batch))
            ]
        fn = _COMPARE.get(op) or _ARITH.get(op)
        if isinstance(expr.right, Literal):
            node = expr.right

            def with_constant(batch):
                values = left(batch)
                # read per batch: a cached plan's literal is a slot
                constant = node.value
                if constant is None:
                    return [None] * len(values)
                return [None if l is None else fn(l, constant) for l in values]

            return with_constant
        return lambda batch: [
            None if l is None or r is None else fn(l, r)
            for l, r in zip(left(batch), right(batch))
        ]

    def _batch_unaryop(self, expr: UnaryOp):
        inner = self._batch(expr.operand)
        op = expr.op.upper()
        if op == "NOT":
            return lambda batch: [
                None if v is None else not v for v in inner(batch)
            ]
        if op == "-":
            return lambda batch: [
                None if v is None else -v for v in inner(batch)
            ]
        return inner  # unary '+'

    def _batch_funccall(self, expr: FuncCall):
        fn = _BUILTINS[expr.name.lower()]
        args = expr.args
        varying = [
            i for i, arg in enumerate(args) if not isinstance(arg, Literal)
        ]
        if len(varying) != 1:
            if not varying:
                # constants are read per batch: in a cached plan every
                # literal is a parameter slot
                return lambda batch: (
                    [fn(*[node.value for node in args])] * len(batch)
                    if batch
                    else []
                )
            columns = [self._batch(arg) for arg in args]
            return lambda batch: [
                fn(*values)
                for values in zip(*[column(batch) for column in columns])
            ]
        slot = varying[0]
        column = self._batch(args[slot])
        before, after = args[:slot], args[slot + 1 :]

        def over_column(batch):
            values = column(batch)
            head = [node.value for node in before]
            tail = [node.value for node in after]
            distinct = _repeated_values(values)
            if distinct is None:
                return [fn(*head, v, *tail) for v in values]
            # the function is pure: one call per distinct value
            results = {v: fn(*head, v, *tail) for v in distinct}
            return list(map(results.__getitem__, values))

        return over_column

    def _batch_isnull(self, expr: IsNull):
        inner = self._batch(expr.operand)
        if expr.negated:
            return lambda batch: [v is not None for v in inner(batch)]
        return lambda batch: [v is None for v in inner(batch)]

    def _batch_between(self, expr: Between):
        value = self._batch(expr.operand)
        low = self._batch(expr.low)
        high = self._batch(expr.high)
        return lambda batch: [
            None if v is None or lo is None or hi is None else lo <= v <= hi
            for v, lo, hi in zip(value(batch), low(batch), high(batch))
        ]

    def _batch_inlist(self, expr: InList):
        value = self._batch(expr.operand)
        if any(isinstance(item, Parameter) for item in expr.items):
            # parameter slots change between executions of a cached plan:
            # rebuild the membership set per batch instead of baking it
            nodes = tuple(expr.items)

            def dynamic(batch):
                items = [node.value for node in nodes]
                saw_null = any(item is None for item in items)
                members = frozenset(i for i in items if i is not None)
                absent = None if saw_null else False
                return [
                    None if v is None else (True if v in members else absent)
                    for v in value(batch)
                ]

            return dynamic
        items = [item.value for item in expr.items]
        saw_null = any(item is None for item in items)
        members = frozenset(item for item in items if item is not None)
        absent = None if saw_null else False
        return lambda batch: [
            None if v is None else (True if v in members else absent)
            for v in value(batch)
        ]


#: binary operators evaluated eagerly over a whole batch: the Kleene
#: connectives, comparisons, and raise-free arithmetic ('/' and '%' stay
#: row-at-a-time)
_BATCH_SAFE_BINOPS = {"AND", "OR", "+", "-", "*"} | set(_COMPARE)

#: built-ins whose result depends on their arguments alone (``NEWID``
#: draws a fresh GUID per call)
_PURE_BUILTINS = frozenset(_BUILTINS) - {"newid"}

#: value types whose equal members no function can tell apart (no
#: ``1 == 1.0 == True``, no ``0.0 == -0.0``), so one result per distinct
#: value is each row's own result
_EXACT_TYPES = frozenset({str, bytes, int, type(None)})


def _proven_pure(udf: Any) -> bool:
    """Did the verifier prove ``udf`` IsDeterministic with
    DataAccessKind.None (so equal arguments may share one call)?"""
    return (
        getattr(udf, "is_deterministic", None) is True
        and getattr(udf, "data_access", "NONE") == "NONE"
    )


def _scatter(out: List[Any], positions: Iterable[int], values: Iterable[Any]) -> None:
    """``out[p] = v`` for each pair, at C speed."""
    deque(map(out.__setitem__, positions, values), maxlen=0)


def _repeated_values(values: List[Any]) -> Optional[set]:
    """The distinct values of a batch's argument column when evaluating
    a pure function once per distinct value saves calls *and* is exact:
    at most half as many distinct values as rows, all hashable and of
    :data:`_EXACT_TYPES`.  None otherwise (evaluate per row).  The gate
    is the batch's own content, nothing about where it came from."""
    try:
        distinct = set(values)
    except TypeError:  # unhashable value
        return None
    if 2 * len(distinct) > len(values):
        return None
    if not _EXACT_TYPES.issuperset(map(type, values)):
        return None
    return distinct


def batch_safe(expr: Expr, library: Optional[FunctionLibrary] = None) -> bool:
    """Can ``expr`` be vectorised without changing semantics?

    A tree qualifies only when evaluating it on *every* row of a batch
    is indistinguishable from evaluating it row at a time, where
    AND/OR/comparison short-circuiting may skip operand evaluation
    entirely, except through an exception
    (:meth:`ExpressionCompiler.compile_batch` re-runs a raising batch
    through the row closure).  That admits calls to the pure
    built-ins and rules out anything with a side effect or a per-call
    result: a UDF (may be non-deterministic or data-accessing; one
    registered under a built-in's name in ``library`` shadows it),
    ``NEWID``, and the nodes with no eager form (division and modulo,
    LIKE, and CASE, which ``compile_batch`` splits instead)."""
    return all(_node_batch_safe(node, library) for node in walk(expr))


def _node_batch_safe(node: Expr, library: Optional[FunctionLibrary]) -> bool:
    if isinstance(node, (Literal, ColumnRef, BoundRef, IsNull, Between)):
        return True
    if isinstance(node, InList):
        return all(isinstance(item, Literal) for item in node.items)
    if isinstance(node, UnaryOp):
        return node.op.upper() in {"NOT", "-", "+"}
    if isinstance(node, BinaryOp):
        return node.op.upper() in _BATCH_SAFE_BINOPS
    if isinstance(node, FuncCall):
        name = node.name.lower()
        return name in _PURE_BUILTINS and (
            library is None or library.scalar(name) is None
        )
    return False


def expression_to_sql(expr: Expr) -> str:
    """Render an expression back to SQL-ish text (for EXPLAIN output)."""
    if isinstance(expr, Literal):
        if expr.value is None:
            return "NULL"
        if isinstance(expr.value, str):
            return "'" + expr.value.replace("'", "''") + "'"
        return str(expr.value)
    if isinstance(expr, ColumnRef):
        return str(expr)
    if isinstance(expr, BoundRef):
        return expr.label or f"$col{expr.index}"
    if isinstance(expr, BinaryOp):
        return (
            f"({expression_to_sql(expr.left)} {expr.op} "
            f"{expression_to_sql(expr.right)})"
        )
    if isinstance(expr, UnaryOp):
        return f"({expr.op} {expression_to_sql(expr.operand)})"
    if isinstance(expr, FuncCall):
        args = ", ".join(expression_to_sql(a) for a in expr.args)
        return f"{expr.name}({args})"
    if isinstance(expr, AggregateCall):
        if expr.star:
            return f"{expr.name}(*)"
        inner = ", ".join(expression_to_sql(a) for a in expr.args)
        prefix = "DISTINCT " if expr.distinct else ""
        return f"{expr.name}({prefix}{inner})"
    if isinstance(expr, WindowCall):
        order = ", ".join(
            f"{expression_to_sql(e)}{' DESC' if desc else ''}"
            for e, desc in expr.order_by
        )
        return f"{expr.name}() OVER (ORDER BY {order})"
    if isinstance(expr, IsNull):
        suffix = "IS NOT NULL" if expr.negated else "IS NULL"
        return f"({expression_to_sql(expr.operand)} {suffix})"
    if isinstance(expr, Between):
        return (
            f"({expression_to_sql(expr.operand)} BETWEEN "
            f"{expression_to_sql(expr.low)} AND {expression_to_sql(expr.high)})"
        )
    if isinstance(expr, InList):
        items = ", ".join(expression_to_sql(i) for i in expr.items)
        return f"({expression_to_sql(expr.operand)} IN ({items}))"
    if isinstance(expr, Like):
        keyword = "NOT LIKE" if expr.negated else "LIKE"
        return (
            f"({expression_to_sql(expr.operand)} {keyword} "
            f"{expression_to_sql(expr.pattern)})"
        )
    if isinstance(expr, Case):
        parts = ["CASE"]
        for cond, value in expr.whens:
            parts.append(
                f"WHEN {expression_to_sql(cond)} THEN {expression_to_sql(value)}"
            )
        if expr.default is not None:
            parts.append(f"ELSE {expression_to_sql(expr.default)}")
        parts.append("END")
        return " ".join(parts)
    return repr(expr)
