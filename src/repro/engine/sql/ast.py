"""Statement-level AST nodes produced by the parser.

Scalar expression nodes live in :mod:`repro.engine.expressions`; this
module defines the statement and clause structures around them.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List, Optional, Tuple

from ..expressions import Expr

# ---------------------------------------------------------------------------
# table sources
# ---------------------------------------------------------------------------


@dataclass
class TableRef:
    """A named table in FROM, optionally aliased."""

    name: str
    alias: Optional[str] = None

    @property
    def binding_name(self) -> str:
        return self.alias or self.name


@dataclass
class TvfRef:
    """A table-valued function call used as a table source."""

    name: str
    args: Tuple[Expr, ...]
    alias: Optional[str] = None

    @property
    def binding_name(self) -> str:
        return self.alias or self.name


@dataclass
class SubqueryRef:
    """A derived table ``(SELECT ...) alias``."""

    select: "SelectStmt"
    alias: Optional[str] = None

    @property
    def binding_name(self) -> str:
        return self.alias or "subquery"


@dataclass
class OpenRowsetRef:
    """``OPENROWSET(BULK 'path', SINGLE_BLOB)`` — yields a single row with
    one column named ``BulkColumn`` containing the file's bytes."""

    path: str
    alias: Optional[str] = None

    @property
    def binding_name(self) -> str:
        return self.alias or "openrowset"


@dataclass
class JoinClause:
    """One JOIN or CROSS APPLY step chained after the first FROM source."""

    kind: str  # 'JOIN' or 'CROSS APPLY'
    source: object  # TableRef | TvfRef | SubqueryRef
    on: Optional[Expr] = None  # required for JOIN, absent for CROSS APPLY


# ---------------------------------------------------------------------------
# SELECT
# ---------------------------------------------------------------------------


@dataclass
class SelectItem:
    """One projection item; ``star`` marks ``*`` / ``alias.*``."""

    expr: Optional[Expr] = None
    alias: Optional[str] = None
    star: bool = False
    star_qualifier: Optional[str] = None


@dataclass
class SelectStmt:
    items: List[SelectItem]
    source: Optional[object] = None  # first FROM source; None => SELECT <exprs>
    joins: List[JoinClause] = field(default_factory=list)
    where: Optional[Expr] = None
    group_by: List[Expr] = field(default_factory=list)
    having: Optional[Expr] = None
    order_by: List[Tuple[Expr, bool]] = field(default_factory=list)  # (expr, desc)
    top: Optional[int] = None
    distinct: bool = False
    #: OPTION (MAXDOP n) hint; n > 1 asks for the parallel exchange,
    #: None (no hint), 0 and 1 plan serially
    maxdop: Optional[int] = None


# ---------------------------------------------------------------------------
# DML / DDL
# ---------------------------------------------------------------------------


@dataclass
class InsertStmt:
    table: str
    columns: List[str]  # empty => full column order
    values: Optional[List[List[Expr]]] = None  # VALUES rows
    select: Optional[SelectStmt] = None  # INSERT ... SELECT


@dataclass
class DeleteStmt:
    table: str
    where: Optional[Expr] = None


@dataclass
class UpdateStmt:
    table: str
    assignments: List[Tuple[str, Expr]]
    where: Optional[Expr] = None


@dataclass
class ColumnDef:
    name: str
    type_name: str
    length: Optional[int] = None  # None => kind default; -1 => MAX
    nullable: bool = True
    identity: bool = False
    rowguidcol: bool = False
    filestream: bool = False
    primary_key: bool = False  # inline PRIMARY KEY


@dataclass
class ForeignKeyDef:
    columns: List[str]
    parent_table: str
    parent_columns: List[str]


@dataclass
class CreateTableStmt:
    name: str
    columns: List[ColumnDef]
    primary_key: List[str] = field(default_factory=list)
    foreign_keys: List[ForeignKeyDef] = field(default_factory=list)
    compression: str = "NONE"
    filestream_group: Optional[str] = None
    #: access method: "heap" (default) or "column"
    storage: str = "heap"
    #: rows per sealed column-store segment; None = engine default
    segment_rows: Optional[int] = None


@dataclass
class CreateIndexStmt:
    name: str
    table: str
    columns: List[str]


@dataclass
class DropTableStmt:
    name: str


@dataclass
class TruncateStmt:
    name: str


@dataclass
class ExplainStmt:
    """``EXPLAIN [ANALYZE] <select>`` — render the physical plan instead
    of rows; with ANALYZE, execute the query first and annotate each
    operator with the actual row count it produced."""

    select: SelectStmt
    analyze: bool = False


@dataclass
class UpdateStatisticsStmt:
    """``UPDATE STATISTICS <table>`` / ``ANALYZE <table>`` — collect
    optimizer statistics (row counts, distinct counts, histograms)."""

    table: str


#: what ``SET <option> ON|OFF`` can switch
SET_OPTIONS = ("STATISTICS TIME", "STATISTICS IO", "PLAN_VERIFY", "PLAN_CACHE")


@dataclass
class SetOptionStmt:
    """``SET <option> ON|OFF``, one of :data:`SET_OPTIONS`: the session
    knobs that print per-statement time / IO summaries, arm the plan
    sanitizer, or switch the plan cache."""

    option: str
    enabled: bool
