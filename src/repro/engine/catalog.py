"""The system catalog: tables, extensions, and FILESTREAM filegroups."""

from __future__ import annotations

from typing import Dict, Iterator, Optional

from .errors import BindError
from .filestream import FileStreamStore
from .metrics import IoLedger
from .schema import TableSchema
from .table import Table
from .udf import FunctionLibrary


class Catalog:
    """Name → object resolution for one database.

    All lookups are case-insensitive (T-SQL identifier semantics);
    original casing is preserved for display.
    """

    def __init__(self, filestream_store: Optional[FileStreamStore] = None):
        self._tables: Dict[str, Table] = {}
        #: read-only virtual tables (system views); resolved by table()
        #: after real tables, never listed by tables()/table_names()
        self._views: Dict[str, object] = {}
        self.functions = FunctionLibrary()
        self.filestream_store = filestream_store
        #: per-statement IO accounting: every table created here reports
        #: to it, and so does the FILESTREAM store
        self.io_ledger = IoLedger()
        if filestream_store is not None:
            self.io_ledger.watch(filestream_store.io, None, "filestream_")
        #: monotone counter bumped by every DDL change (create/drop
        #: table, create index) — part of the plan cache's epoch, so
        #: cached plans never outlive the schema they compiled against
        self.schema_version = 0

    # -- tables -----------------------------------------------------------------------

    def bump_schema_version(self) -> None:
        self.schema_version += 1

    def create_table(self, schema: TableSchema) -> Table:
        key = schema.name.lower()
        if key in self._tables:
            raise BindError(f"table {schema.name!r} already exists")
        table = Table(
            schema,
            filestream_store=self.filestream_store,
            udt_codec_lookup=self.functions.udt,
        )
        table.watch_io(self.io_ledger)
        self._tables[key] = table
        self.bump_schema_version()
        return table

    def drop_table(self, name: str) -> None:
        key = name.lower()
        if key not in self._tables:
            raise BindError(f"unknown table {name!r}")
        del self._tables[key]
        self.bump_schema_version()

    def table(self, name: str) -> Table:
        key = name.lower()
        try:
            return self._tables[key]
        except KeyError:
            pass
        try:
            return self._views[key]
        except KeyError:
            raise BindError(f"unknown table {name!r}") from None

    def has_table(self, name: str) -> bool:
        key = name.lower()
        return key in self._tables or key in self._views

    # -- system views -----------------------------------------------------------------

    def register_view(self, name: str, view: object) -> None:
        """Register a read-only virtual table (DMV-style system view).

        A real table with the same name shadows the view, so user schemas
        never break when new system views appear."""
        self._views[name.lower()] = view

    def tables(self) -> Iterator[Table]:
        return iter(self._tables.values())

    def table_names(self) -> list[str]:
        return [t.schema.name for t in self._tables.values()]
