"""Extensibility contracts: scalar UDFs, TVFs, UDAs, and UDTs.

These mirror the SQL Server 2008 CLR contracts the paper builds on
(Sections 2.3.2–2.3.4):

**Scalar UDF** — a registered function callable anywhere a scalar
expression is allowed.

**Table-valued function (TVF)** — the pull-model contract, a batch at a
time: the query processor drives ``batches(*args)``, which yields lists of
SQL rows. The base class implements it as the adapter over the CLR shape
— *create* returns an iterator over internal objects (``MoveNext``) and
``fill_row`` converts each into a row — so a TVF written that way keeps
working. The paper identifies that per-row ``FillRow`` conversion as the
dominant TVF cost; a TVF that can convert in bulk (the file wrapper
splits a whole buffer of entries at once) overrides ``batches``.

**User-defined aggregate (UDA)** — init / accumulate / merge / terminate,
with a parallel-safety flag. The aggregate operators drive
``accumulate_batch(*columns)`` once per group and batch, which the base
class implements as the adapter over the per-row ``accumulate``; a UDA
that folds a run of rows in bulk (the sliding-window consensus hands its
window whole columns) overrides it. A parallel-safe UDA can be split
across partitions and merged, which is what lets the exchange operator
parallelise it "just like built-in aggregates".

**User-defined type (UDT)** — a named scalar type with binary
serialisation, registered so it can appear in column definitions (used by
the bit-packed DNA sequence type of the future-work ablation).
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import chain
from typing import Any, Callable, Dict, Iterator, List, Optional, Sequence, Tuple, Type

from .errors import BindError, UdfError
from .schema import Column
from .types import UdtCodec

# ---------------------------------------------------------------------------
# scalar UDFs
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class ScalarUdf:
    """A scalar user-defined function."""

    name: str
    func: Callable[..., Any]
    #: None => NULL-in/NULL-out handled by the function itself; True =>
    #: the engine short-circuits to NULL when any argument is NULL
    #: (SQL Server's ``OnNullCall`` attribute).
    returns_null_on_null_input: bool = False
    #: CLR-host permission set the body was verified against
    #: (SAFE / EXTERNAL_ACCESS / UNSAFE).
    permission_set: str = "SAFE"
    #: verified ``IsDeterministic``: True lets each call site memoise
    #: calls; False blocks predicate pushdown past the call;
    #: None means the verifier could not see the source.
    is_deterministic: Optional[bool] = None
    #: verified ``DataAccessKind`` ("NONE" or "READ").
    data_access: str = "NONE"

    def __call__(self, *args: Any) -> Any:
        if self.returns_null_on_null_input and any(a is None for a in args):
            return None
        try:
            return self.func(*args)
        except Exception as exc:  # surface as a SQL-level error
            raise UdfError(f"scalar UDF {self.name!r} failed: {exc}") from exc


# ---------------------------------------------------------------------------
# table-valued functions
# ---------------------------------------------------------------------------


class TableValuedFunction:
    """Base class for TVFs.

    Subclasses define ``columns`` — the output schema as :class:`Column`
    objects — and either:

    - :meth:`batches` — bind the call arguments and yield lists of SQL
      row tuples, any length; or
    - :meth:`create` — bind the call arguments and return an iterator of
      internal objects (the CLR ``IEnumerator``) — and :meth:`fill_row`
      — convert one internal object into a tuple of SQL values (the CLR
      ``FillRow`` conversion). The default ``fill_row`` assumes the
      iterator already yields tuples.
    """

    name: str = ""
    columns: Sequence[Column] = ()

    def create(self, *args: Any) -> Iterator[Any]:
        raise NotImplementedError

    def fill_row(self, obj: Any) -> Tuple[Any, ...]:
        return tuple(obj)

    def batches(self, *args: Any) -> Iterator[List[Tuple[Any, ...]]]:
        """The method the engine drives. This adapter runs the pull-model
        loop (MoveNext + FillRow) and hands its rows on in batches of
        :data:`~.executor.vector.DEFAULT_BATCH_SIZE`."""
        from .executor.vector import batches_from_rows

        return batches_from_rows(map(self.fill_row, self.create(*args)))

    def rows(self, *args: Any) -> Iterator[Tuple[Any, ...]]:
        """The rows of :meth:`batches`, one at a time."""
        return chain.from_iterable(self.batches(*args))


@dataclass(frozen=True)
class SimpleTvf(TableValuedFunction):
    """Wrap a plain generator function as a TVF."""

    name: str = ""
    columns: Tuple[Column, ...] = ()
    factory: Callable[..., Iterator[Any]] = None  # type: ignore[assignment]
    row_filler: Optional[Callable[[Any], Tuple[Any, ...]]] = None

    def create(self, *args: Any) -> Iterator[Any]:
        return self.factory(*args)

    def fill_row(self, obj: Any) -> Tuple[Any, ...]:
        if self.row_filler is not None:
            return self.row_filler(obj)
        return tuple(obj)


# ---------------------------------------------------------------------------
# user-defined aggregates
# ---------------------------------------------------------------------------


class UserDefinedAggregate:
    """Base class for UDAs (the SqlUserDefinedAggregate contract).

    Lifecycle: ``init()`` once per group, ``accumulate_batch(*columns)``
    per run of the group's input rows (by default ``accumulate(*args)``
    per row),
    ``merge(other)`` to combine partial states (parallel plans),
    ``terminate()`` to produce the result. State may be arbitrarily large
    (SQL Server caps it at 2 GB; we only document the cap).
    """

    #: SQL name used in queries
    name: str = ""
    #: number of arguments accepted by accumulate
    arity: int = 1
    #: safe to evaluate as partial aggregates merged across partitions
    parallel_safe: bool = True
    #: input must arrive ordered by the group's natural order (disables
    #: hash aggregation; the sliding-window consensus UDA needs this)
    requires_ordered_input: bool = False

    def init(self) -> None:
        raise NotImplementedError

    def accumulate(self, *args: Any) -> None:
        raise NotImplementedError

    def accumulate_batch(self, *columns: Sequence[Any]) -> None:
        """The method the engine drives, once per run: the group's rows
        of one batch, in input order, as one sequence per argument. This
        adapter calls :meth:`accumulate` per row; a UDA that can fold a
        run in bulk overrides it. A UDA of no arguments has no column to
        carry a run's length, so the engine calls it once per row, with
        no columns."""
        if not columns:
            self.accumulate()
        for args in zip(*columns):
            self.accumulate(*args)

    def merge(self, other: "UserDefinedAggregate") -> None:
        raise NotImplementedError

    def terminate(self) -> Any:
        raise NotImplementedError


# ---------------------------------------------------------------------------
# registries
# ---------------------------------------------------------------------------


class FunctionLibrary:
    """The catalog of registered extensions (one per database).

    Lookup is case-insensitive, matching T-SQL identifier rules.
    """

    def __init__(self):
        self._scalars: Dict[str, ScalarUdf] = {}
        self._tvfs: Dict[str, TableValuedFunction] = {}
        self._udas: Dict[str, Type[UserDefinedAggregate]] = {}
        self._udts: Dict[str, UdtCodec] = {}
        #: (object_type, lowered name) -> the static verifier's findings
        #: from that object's latest registration (sys_dm_verify_results
        #: rows, in this order). Each registration stores a new list, so
        #: a caller holding an earlier copy of the mapping sees which
        #: entries it changed.
        self.findings: Dict[Tuple[str, str], list] = {}
        #: moves on every registration: a forked exchange worker holds
        #: the library as of its fork, and the pool re-forks when this
        #: has moved since
        self.version = 0

    # -- registration -------------------------------------------------------------

    def _record_verification(self, kind: str, name: str, report) -> None:
        """Store the verifier's findings; reject the object when any
        finding is error severity (CREATE ASSEMBLY fails)."""
        from .verify.diagnostics import VerificationError

        self.version += 1
        self.findings[(kind, name.lower())] = list(report.diagnostics)
        if any(d.is_error for d in report.diagnostics):
            raise VerificationError(report.diagnostics)

    def register_scalar(
        self,
        name: str,
        func: Callable[..., Any],
        returns_null_on_null_input: bool = False,
        permission_set: str = "SAFE",
        deterministic: Optional[bool] = None,
        data_access: Optional[str] = None,
    ) -> ScalarUdf:
        from .verify.contracts import verify_scalar

        report = verify_scalar(
            name, func, permission_set, deterministic, data_access
        )
        self._record_verification("scalar UDF", name, report)
        udf = ScalarUdf(
            name,
            func,
            returns_null_on_null_input,
            permission_set,
            report.is_deterministic,
            report.data_access or "NONE",
        )
        self._scalars[name.lower()] = udf
        return udf

    def register_tvf(self, tvf: TableValuedFunction) -> TableValuedFunction:
        if not tvf.name:
            raise BindError("TVF must have a name")
        if not tvf.columns:
            raise BindError(f"TVF {tvf.name!r} must declare output columns")
        from .verify.contracts import verify_tvf

        report = verify_tvf(tvf)
        self._record_verification("TVF", tvf.name, report)
        self._tvfs[tvf.name.lower()] = tvf
        return tvf

    def register_uda(self, uda_class: Type[UserDefinedAggregate]) -> None:
        if not uda_class.name:
            raise BindError("UDA class must set a name")
        from .verify.contracts import verify_uda

        report = verify_uda(uda_class)
        self._record_verification("UDA", uda_class.name, report)
        self._udas[uda_class.name.lower()] = uda_class

    def register_udt(self, codec: UdtCodec) -> None:
        from .verify.contracts import verify_udt

        report = verify_udt(codec)
        self._record_verification("UDT", codec.name, report)
        self._udts[codec.name.lower()] = codec

    # -- lookup ---------------------------------------------------------------------

    def scalar(self, name: str) -> Optional[ScalarUdf]:
        return self._scalars.get(name.lower())

    def tvf(self, name: str) -> Optional[TableValuedFunction]:
        return self._tvfs.get(name.lower())

    def uda(self, name: str) -> Optional[Type[UserDefinedAggregate]]:
        return self._udas.get(name.lower())

    def udt(self, name: str) -> UdtCodec:
        try:
            return self._udts[name.lower()]
        except KeyError:
            raise BindError(f"unknown UDT {name!r}") from None

    def has_udt(self, name: str) -> bool:
        return name.lower() in self._udts
