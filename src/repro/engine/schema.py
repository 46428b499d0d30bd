"""Table schemas: columns, keys, and constraints.

A :class:`TableSchema` is the logical description of a relation. The
storage layer consumes it to lay out rows; the planner consumes it to
resolve names and reason about ordering (clustered key) and uniqueness.
"""

from __future__ import annotations

from dataclasses import dataclass
from operator import call, is_, itemgetter
from types import NoneType
from typing import Any, Callable, Iterable, List, Optional, Sequence, Tuple

from .errors import BindError, ConstraintViolation, TypeMismatchError
from .types import SqlType

#: table-level compression settings (mirrors SQL Server DATA_COMPRESSION)
COMPRESSION_NONE = "NONE"
COMPRESSION_ROW = "ROW"
COMPRESSION_PAGE = "PAGE"

#: storage engines (access methods); see repro.engine.storage.base
STORAGE_HEAP = "heap"
STORAGE_COLUMN = "column"


def tuple_getter(indexes: Sequence[int]) -> Callable[[Sequence[Any]], tuple]:
    """``row -> tuple(row[i] for i in indexes)`` without a Python loop."""
    if not indexes:
        return lambda row: ()
    if len(indexes) == 1:
        (index,) = indexes
        return lambda row: (row[index],)
    return itemgetter(*indexes)


@dataclass(frozen=True)
class Column:
    """A named, typed column with NULL-ability and identity flags."""

    name: str
    sql_type: SqlType
    nullable: bool = True
    #: auto-incrementing synthetic key (SQL Server IDENTITY)
    identity: bool = False
    #: ROWGUIDCOL marker, required on FILESTREAM tables
    rowguidcol: bool = False

    def checker(self) -> Callable[[Any], Any]:
        """The function validating one value for this column: the type's
        :meth:`~repro.engine.types.SqlType.checker` plus NULL-ability,
        with the column named in every error."""
        check = self.sql_type.checker()
        name = self.name
        nullable = self.nullable

        def validate(value):
            if value is None:
                if not nullable:
                    raise ConstraintViolation(
                        f"column {name!r} does not allow NULL"
                    )
                return None
            try:
                return check(value)
            except TypeMismatchError as exc:
                raise TypeMismatchError(f"column {name!r}: {exc}") from exc

        return validate

    def batch_checker(self) -> Callable[[Sequence[Any]], Optional[Sequence[Any]]]:
        """The function validating one column of a batch. When every
        value is NULL or in the type's :attr:`~SqlType.plain_form` (one
        set of the value types, then ``min``/``max`` against the integer
        range or the longest length against the limit) it returns the
        values as given; otherwise each value goes through
        :meth:`checker`. It returns None for a column with a bad value."""
        check = self.checker()
        python_type, bounds, limit = self.sql_type.plain_form or (None,) * 3
        allowed = {python_type} if python_type else set()
        if python_type and self.nullable:
            allowed.add(NoneType)

        def check_values(values):
            types = set(map(type, values))
            if types <= allowed:
                present = values
                if NoneType in types:
                    present = [value for value in values if value is not None]
                if not present:
                    return values
                if bounds and not (
                    bounds[0] <= min(present) and max(present) <= bounds[1]
                ):
                    return None
                if limit is not None and max(map(len, present)) > limit:
                    return None
                return values
            try:
                checked = list(map(check, values))
            except (TypeMismatchError, ConstraintViolation):
                return None
            return values if all(map(is_, checked, values)) else checked

        return check_values

    def validate(self, value: Any) -> Any:
        return self.checker()(value)


@dataclass(frozen=True)
class ForeignKey:
    """A foreign-key constraint: local columns reference a parent key."""

    columns: Tuple[str, ...]
    parent_table: str
    parent_columns: Tuple[str, ...]

    def __post_init__(self):
        if len(self.columns) != len(self.parent_columns):
            raise BindError("foreign key column count mismatch")


class TableSchema:
    """Logical schema of one table.

    Parameters
    ----------
    name:
        Table name (case-insensitive lookups, original case preserved).
    columns:
        Ordered column definitions.
    primary_key:
        Column names forming the primary key. The primary key doubles as
        the clustered index key unless ``heap=True``.
    foreign_keys:
        Referential constraints (checked on insert when enabled on the
        database).
    compression:
        ``NONE`` / ``ROW`` / ``PAGE`` storage compression.
    heap:
        Store rows in insertion order (no clustered index) even when a
        primary key exists.
    filestream_group:
        Name of the filegroup for FILESTREAM columns (cosmetic, mirrors
        the T-SQL syntax in the paper).
    storage:
        Access method storing the rows: ``"heap"`` (slotted pages, the
        default) or ``"column"`` (encoded columnar segments).
    segment_rows:
        Rows per sealed column-store segment (``WITH (SEGMENT_ROWS=n)``);
        None uses the engine default. Ignored by the heap.
    """

    def __init__(
        self,
        name: str,
        columns: Sequence[Column],
        primary_key: Sequence[str] = (),
        foreign_keys: Iterable[ForeignKey] = (),
        compression: str = COMPRESSION_NONE,
        heap: bool = False,
        filestream_group: Optional[str] = None,
        storage: str = STORAGE_HEAP,
        segment_rows: Optional[int] = None,
    ):
        if not columns:
            raise BindError(f"table {name!r} must have at least one column")
        self.name = name
        self.columns: Tuple[Column, ...] = tuple(columns)
        self.column_names: Tuple[str, ...] = tuple(c.name for c in self.columns)
        self._by_name = {}
        for i, col in enumerate(self.columns):
            key = col.name.lower()
            if key in self._by_name:
                raise BindError(f"duplicate column {col.name!r} in {name!r}")
            self._by_name[key] = i
        self.primary_key: Tuple[str, ...] = tuple(primary_key)
        for pk_col in self.primary_key:
            if pk_col.lower() not in self._by_name:
                raise BindError(
                    f"primary key column {pk_col!r} not in table {name!r}"
                )
        #: positions of the primary-key columns, in key order
        self.key_indexes: Tuple[int, ...] = tuple(
            self._by_name[c.lower()] for c in self.primary_key
        )
        self.foreign_keys: Tuple[ForeignKey, ...] = tuple(foreign_keys)
        if compression not in (
            COMPRESSION_NONE,
            COMPRESSION_ROW,
            COMPRESSION_PAGE,
        ):
            raise BindError(f"unknown compression setting {compression!r}")
        self.compression = compression
        self.heap = heap or not self.primary_key
        self.filestream_group = filestream_group
        if storage not in (STORAGE_HEAP, STORAGE_COLUMN):
            raise BindError(f"unknown storage engine {storage!r}")
        self.storage = storage
        if segment_rows is not None and segment_rows < 2:
            raise BindError(
                f"SEGMENT_ROWS must be at least 2, got {segment_rows}"
            )
        self.segment_rows = segment_rows
        fs_cols = [c for c in self.columns if c.sql_type.filestream]
        if fs_cols and not any(c.rowguidcol for c in self.columns):
            raise BindError(
                f"table {name!r} has FILESTREAM columns but no ROWGUIDCOL"
            )
        if fs_cols and storage == STORAGE_COLUMN:
            raise BindError(
                f"table {name!r}: FILESTREAM columns require heap storage"
            )

    # -- lookups -------------------------------------------------------------

    def column_index(self, name: str) -> int:
        try:
            return self._by_name[name.lower()]
        except KeyError:
            raise BindError(
                f"unknown column {name!r} in table {self.name!r}"
            ) from None

    def column(self, name: str) -> Column:
        return self.columns[self.column_index(name)]

    def has_column(self, name: str) -> bool:
        return name.lower() in self._by_name

    # -- row validation --------------------------------------------------------

    def row_validator(self) -> Callable[[Sequence[Any]], Tuple[Any, ...]]:
        """Compile the function validating a full-width row into its
        canonical tuple. The table keeps the result; it must not be
        cached on the schema, which is pickled into every exchange task
        payload.

        A valid row costs one type check per non-NULL value. A row with
        a fault is walked again through :meth:`Column.checker`, column
        by column, which raises for the first bad column by name."""
        type_checks = [column.sql_type.checker() for column in self.columns]
        column_checks = [column.checker() for column in self.columns]
        not_null = tuple_getter(
            [i for i, column in enumerate(self.columns) if not column.nullable]
        )
        width = len(self.columns)
        name = self.name

        def validate_row(row):
            if len(row) != width:
                raise TypeMismatchError(
                    f"table {name!r} expects {width} values, got {len(row)}"
                )
            try:
                out = tuple(
                    [
                        None if value is None else check(value)
                        for check, value in zip(type_checks, row)
                    ]
                )
                if None not in not_null(out):
                    return out
            except TypeMismatchError:
                pass
            return tuple(
                [check(value) for check, value in zip(column_checks, row)]
            )

        return validate_row

    def batch_validator(
        self,
    ) -> Callable[[Sequence[Sequence[Any]]], List[Tuple[Any, ...]]]:
        """Compile the function validating a batch of full-width rows
        into their canonical tuples, column by column
        (:meth:`Column.batch_checker`). A valid batch of tuples whose
        values stand as given is returned as those tuples. A bad value
        re-walks the batch through :meth:`row_validator`, which raises
        for the first bad row by column name."""
        validate_row = self.row_validator()
        checks = [column.batch_checker() for column in self.columns]
        width = len(self.columns)

        def validate_batch(batch):
            if set(map(len, batch)) != {width}:
                return list(map(validate_row, batch))
            columns = list(zip(*batch))
            checked = list(map(call, checks, columns))
            if None in checked:
                return list(map(validate_row, batch))
            if all(map(is_, checked, columns)) and set(map(type, batch)) == {
                tuple
            }:
                return list(batch)
            return list(zip(*checked))

        return validate_batch

@dataclass
class TableStatistics:
    """Simple statistics maintained per table for the planner."""

    row_count: int = 0
    #: total bytes of row payload currently stored (post-compression)
    data_bytes: int = 0
    #: bytes the same rows would occupy uncompressed
    uncompressed_bytes: int = 0
    page_count: int = 0

    def on_insert(self, stored: int, uncompressed: int, rows: int = 1) -> None:
        self.row_count += rows
        self.data_bytes += stored
        self.uncompressed_bytes += uncompressed

    def on_delete(self, stored: int, uncompressed: int) -> None:
        self.row_count -= 1
        self.data_bytes -= stored
        self.uncompressed_bytes -= uncompressed
