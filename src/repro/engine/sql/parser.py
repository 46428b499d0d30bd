"""Recursive-descent parser for the supported T-SQL subset.

Produces the statement AST of :mod:`repro.engine.sql.ast` with scalar
expressions from :mod:`repro.engine.expressions`. The subset covers every
statement the paper shows: the FILESTREAM ``CREATE TABLE``, the
``OPENROWSET BULK`` import, TVF table sources, ``CROSS APPLY``, grouped
aggregation with UDAs, and ``ROW_NUMBER() OVER (ORDER BY ...)``.
"""

from __future__ import annotations

from typing import List, Optional, Tuple

from ..errors import SqlSyntaxError
from ..expressions import (
    AggregateCall,
    Between,
    BinaryOp,
    Case,
    ColumnRef,
    Expr,
    FuncCall,
    InList,
    IsNull,
    Like,
    Literal,
    UnaryOp,
    WindowCall,
)
from . import ast
from .lexer import EOF, IDENT, KEYWORD, NUMBER, OP, PUNCT, STRING, Token
from .lexer import normalized_text, tokenize

#: function names the parser folds into AggregateCall nodes; registered
#: UDAs are recognised later, at bind time
_AGGREGATE_NAMES = {"count", "count_big", "sum", "min", "max", "avg"}

_WINDOW_NAMES = {"row_number"}

_TYPE_NAMES = {
    "int",
    "bigint",
    "smallint",
    "tinyint",
    "bit",
    "float",
    "real",
    "char",
    "nchar",
    "varchar",
    "nvarchar",
    "binary",
    "varbinary",
    "uniqueidentifier",
    "datetime",
}


class Parser:
    def __init__(self, text: str):
        self._text = text
        self._tokens = tokenize(text)
        self._pos = 0

    # -- token helpers ---------------------------------------------------------------

    def _peek(self, offset: int = 0) -> Token:
        index = min(self._pos + offset, len(self._tokens) - 1)
        return self._tokens[index]

    def _next(self) -> Token:
        token = self._tokens[self._pos]
        if token.type != EOF:
            self._pos += 1
        return token

    def _error(self, message: str) -> SqlSyntaxError:
        token = self._peek()
        return SqlSyntaxError(
            f"{message} (found {token.value!r})", token.line, token.column
        )

    def _accept_keyword(self, *words: str) -> Optional[Token]:
        if self._peek().matches_keyword(*words):
            return self._next()
        return None

    def _expect_keyword(self, *words: str) -> Token:
        token = self._accept_keyword(*words)
        if token is None:
            raise self._error(f"expected {' or '.join(words)}")
        return token

    def _accept_punct(self, value: str) -> Optional[Token]:
        token = self._peek()
        if token.type == PUNCT and token.value == value:
            return self._next()
        return None

    def _expect_punct(self, value: str) -> Token:
        token = self._accept_punct(value)
        if token is None:
            raise self._error(f"expected {value!r}")
        return token

    def _accept_op(self, value: str) -> Optional[Token]:
        token = self._peek()
        if token.type == OP and token.value == value:
            return self._next()
        return None

    def _expect_ident(self) -> str:
        token = self._peek()
        if token.type == IDENT:
            self._next()
            return token.value
        # a few keywords double as identifiers in practice (e.g. a column
        # named "key" or "row"); allow keyword-as-identifier here
        if token.type == KEYWORD:
            self._next()
            return token.value
        raise self._error("expected identifier")

    # -- entry points -----------------------------------------------------------------

    def parse_statements(self) -> List[object]:
        statements: List[object] = []
        # where the previous statement's terminator ends: the comments
        # from there to a statement's first token belong to it
        gap = 0
        while self._peek().type != EOF:
            first = self._pos
            statement = self._parse_statement()
            end = self._peek().offset
            # each statement carries its own SQL text, comments above
            # and after it included (a ``-- lint: ignore`` pragma travels
            # with it), and, from the tokens just consumed, the
            # normalised form of that text (== normalize_statement(
            # source_sql)): the plan-cache key and the Query Store key,
            # made without a second lexer pass
            statement.source_sql = self._text[gap:end].strip()
            statement.normalized_sql = normalized_text(
                self._tokens[first : self._pos]
            )
            inner = getattr(statement, "select", None)
            if inner is not None:
                # EXPLAIN and INSERT wrap a select; the planner sees the
                # inner statement, so lint pragmas must travel with it
                inner.source_sql = statement.source_sql
            statements.append(statement)
            gap = end
            while (terminator := self._accept_punct(";")) is not None:
                gap = terminator.offset + 1
        return statements

    def parse_single(self) -> object:
        statements = self.parse_statements()
        if len(statements) != 1:
            raise SqlSyntaxError(
                f"expected exactly one statement, found {len(statements)}"
            )
        return statements[0]

    # -- statements ---------------------------------------------------------------------

    def _parse_statement(self) -> object:
        token = self._peek()
        if token.matches_keyword("SELECT"):
            return self._parse_select()
        if token.matches_keyword("EXPLAIN"):
            self._next()
            analyze = bool(self._accept_keyword("ANALYZE"))
            first = self._pos
            select = self._parse_select()
            # the key the bare select executes under, so EXPLAIN peeks
            # at the plan-cache entry an execution would use
            select.normalized_sql = normalized_text(
                self._tokens[first : self._pos]
            )
            return ast.ExplainStmt(select, analyze=analyze)
        if token.matches_keyword("ANALYZE"):
            self._next()
            return ast.UpdateStatisticsStmt(self._expect_ident())
        if token.matches_keyword("INSERT"):
            return self._parse_insert()
        if token.matches_keyword("DELETE"):
            return self._parse_delete()
        if token.matches_keyword("UPDATE"):
            return self._parse_update()
        if token.matches_keyword("CREATE"):
            return self._parse_create()
        if token.matches_keyword("DROP"):
            self._next()
            self._expect_keyword("TABLE")
            return ast.DropTableStmt(self._expect_ident())
        if token.matches_keyword("TRUNCATE"):
            self._next()
            self._expect_keyword("TABLE")
            return ast.TruncateStmt(self._expect_ident())
        if token.matches_keyword("SET"):
            return self._parse_set()
        raise self._error("expected a statement")

    def _parse_set(self) -> object:
        self._expect_keyword("SET")
        if self._accept_keyword("STATISTICS"):
            option = self._expect_ident().upper()
            if option not in ("TIME", "IO"):
                raise self._error(
                    "expected TIME or IO after SET STATISTICS"
                )
            enabled = self._expect_keyword("ON", "OFF").value == "ON"
            return ast.SetStatisticsStmt(option, enabled)
        name = self._expect_ident().upper()
        if name in ("PLAN_VERIFY", "PLAN_CACHE"):
            enabled = self._expect_keyword("ON", "OFF").value == "ON"
            return ast.SetOptionStmt(name, int(enabled))
        if name != "SLOW_QUERY_THRESHOLD":
            raise self._error(
                "expected STATISTICS, PLAN_CACHE, PLAN_VERIFY, "
                "or SLOW_QUERY_THRESHOLD after SET"
            )
        token = self._peek()
        if token.type != NUMBER:
            raise self._error(f"expected a number after SET {name}")
        self._next()
        return ast.SetOptionStmt(name, int(token.value))

    # -- SELECT -----------------------------------------------------------------------

    def _parse_select(self) -> ast.SelectStmt:
        self._expect_keyword("SELECT")
        distinct = bool(self._accept_keyword("DISTINCT"))
        top = None
        if self._accept_keyword("TOP"):
            token = self._peek()
            if token.type != NUMBER:
                raise self._error("expected a number after TOP")
            self._next()
            top = int(token.value)
        items = self._parse_select_items()
        source = None
        joins: List[ast.JoinClause] = []
        where = None
        group_by: List[Expr] = []
        having = None
        order_by: List[Tuple[Expr, bool]] = []
        maxdop = None
        if self._accept_keyword("FROM"):
            source = self._parse_table_source()
            while True:
                if self._accept_keyword("JOIN") or (
                    self._peek().matches_keyword("INNER")
                    and self._peek(1).matches_keyword("JOIN")
                    and (self._next(), self._next())
                ):
                    join_source = self._parse_table_source()
                    self._expect_keyword("ON")
                    on_expr = self._parse_expr()
                    joins.append(ast.JoinClause("JOIN", join_source, on_expr))
                elif self._peek().matches_keyword("CROSS"):
                    self._next()
                    self._expect_keyword("APPLY")
                    apply_source = self._parse_table_source()
                    joins.append(ast.JoinClause("CROSS APPLY", apply_source))
                else:
                    break
        if self._accept_keyword("WHERE"):
            where = self._parse_expr()
        if self._accept_keyword("GROUP"):
            self._expect_keyword("BY")
            group_by.append(self._parse_expr())
            while self._accept_punct(","):
                group_by.append(self._parse_expr())
        if self._accept_keyword("HAVING"):
            having = self._parse_expr()
        if self._accept_keyword("ORDER"):
            self._expect_keyword("BY")
            order_by.append(self._parse_order_item())
            while self._accept_punct(","):
                order_by.append(self._parse_order_item())
        if self._accept_keyword("OPTION"):
            self._expect_punct("(")
            self._expect_keyword("MAXDOP")
            token = self._peek()
            if token.type != NUMBER:
                raise self._error("expected a number after MAXDOP")
            self._next()
            maxdop = int(token.value)
            self._expect_punct(")")
        return ast.SelectStmt(
            items=items,
            source=source,
            joins=joins,
            where=where,
            group_by=group_by,
            having=having,
            order_by=order_by,
            top=top,
            distinct=distinct,
            maxdop=maxdop,
        )

    def _parse_order_item(self) -> Tuple[Expr, bool]:
        expr = self._parse_expr()
        descending = False
        if self._accept_keyword("DESC"):
            descending = True
        elif self._accept_keyword("ASC"):
            descending = False
        return expr, descending

    def _parse_select_items(self) -> List[ast.SelectItem]:
        items = [self._parse_select_item()]
        while self._accept_punct(","):
            items.append(self._parse_select_item())
        return items

    def _parse_select_item(self) -> ast.SelectItem:
        token = self._peek()
        if token.type == OP and token.value == "*":
            self._next()
            return ast.SelectItem(star=True)
        # alias.*
        if (
            token.type == IDENT
            and self._peek(1).type == PUNCT
            and self._peek(1).value == "."
            and self._peek(2).type == OP
            and self._peek(2).value == "*"
        ):
            qualifier = self._next().value
            self._next()
            self._next()
            return ast.SelectItem(star=True, star_qualifier=qualifier)
        expr = self._parse_expr()
        alias = None
        if self._accept_keyword("AS"):
            alias = self._expect_ident()
        elif self._peek().type == IDENT:
            alias = self._next().value
        return ast.SelectItem(expr=expr, alias=alias)

    def _parse_table_source(self):
        if self._accept_punct("("):
            select = self._parse_select()
            self._expect_punct(")")
            alias = self._parse_optional_alias()
            return ast.SubqueryRef(select, alias)
        if self._peek().matches_keyword("OPENROWSET"):
            self._next()
            self._expect_punct("(")
            self._expect_keyword("BULK")
            path_token = self._peek()
            if path_token.type != STRING:
                raise self._error("expected a file path string after BULK")
            self._next()
            self._expect_punct(",")
            self._expect_keyword("SINGLE_BLOB")
            self._expect_punct(")")
            alias = self._parse_optional_alias()
            return ast.OpenRowsetRef(path_token.value, alias)
        name = self._expect_ident()
        if self._accept_punct("("):
            args: List[Expr] = []
            if not self._accept_punct(")"):
                args.append(self._parse_expr())
                while self._accept_punct(","):
                    args.append(self._parse_expr())
                self._expect_punct(")")
            alias = self._parse_optional_alias()
            return ast.TvfRef(name, tuple(args), alias)
        alias = self._parse_optional_alias()
        return ast.TableRef(name, alias)

    def _parse_optional_alias(self) -> Optional[str]:
        if self._accept_keyword("AS"):
            return self._expect_ident()
        if self._peek().type == IDENT:
            return self._next().value
        return None

    # -- INSERT / DELETE -----------------------------------------------------------------

    def _parse_insert(self) -> ast.InsertStmt:
        self._expect_keyword("INSERT")
        self._accept_keyword("INTO")
        table = self._expect_ident()
        columns: List[str] = []
        if self._accept_punct("("):
            columns.append(self._expect_ident())
            while self._accept_punct(","):
                columns.append(self._expect_ident())
            self._expect_punct(")")
        if self._accept_keyword("VALUES"):
            rows: List[List[Expr]] = []
            while True:
                self._expect_punct("(")
                row = [self._parse_expr()]
                while self._accept_punct(","):
                    row.append(self._parse_expr())
                self._expect_punct(")")
                rows.append(row)
                if not self._accept_punct(","):
                    break
            return ast.InsertStmt(table, columns, values=rows)
        select = self._parse_select()
        return ast.InsertStmt(table, columns, select=select)

    def _parse_update(self):
        self._expect_keyword("UPDATE")
        if self._accept_keyword("STATISTICS"):
            return ast.UpdateStatisticsStmt(self._expect_ident())
        table = self._expect_ident()
        self._expect_keyword("SET")
        assignments = []
        while True:
            column = self._expect_ident()
            if self._accept_op("=") is None:
                raise self._error("expected '=' in SET assignment")
            assignments.append((column, self._parse_expr()))
            if not self._accept_punct(","):
                break
        where = None
        if self._accept_keyword("WHERE"):
            where = self._parse_expr()
        return ast.UpdateStmt(table, assignments, where)

    def _parse_delete(self) -> ast.DeleteStmt:
        self._expect_keyword("DELETE")
        self._accept_keyword("FROM")
        table = self._expect_ident()
        where = None
        if self._accept_keyword("WHERE"):
            where = self._parse_expr()
        return ast.DeleteStmt(table, where)

    # -- CREATE -----------------------------------------------------------------------

    def _parse_create(self):
        self._expect_keyword("CREATE")
        if self._accept_keyword("TABLE"):
            return self._parse_create_table()
        clustered = bool(self._accept_keyword("CLUSTERED"))
        if self._accept_keyword("INDEX") or clustered and self._expect_keyword("INDEX"):
            name = self._expect_ident()
            self._expect_keyword("ON")
            table = self._expect_ident()
            self._expect_punct("(")
            columns = [self._expect_ident()]
            # tolerate ASC/DESC markers
            self._accept_keyword("ASC", "DESC")
            while self._accept_punct(","):
                columns.append(self._expect_ident())
                self._accept_keyword("ASC", "DESC")
            self._expect_punct(")")
            return ast.CreateIndexStmt(name, table, columns)
        raise self._error("expected TABLE or INDEX after CREATE")

    def _parse_create_table(self) -> ast.CreateTableStmt:
        name = self._expect_ident()
        self._expect_punct("(")
        columns: List[ast.ColumnDef] = []
        primary_key: List[str] = []
        foreign_keys: List[ast.ForeignKeyDef] = []
        while True:
            if self._accept_keyword("PRIMARY"):
                self._expect_keyword("KEY")
                self._accept_keyword("CLUSTERED")
                self._expect_punct("(")
                primary_key.append(self._expect_ident())
                while self._accept_punct(","):
                    primary_key.append(self._expect_ident())
                self._expect_punct(")")
            elif self._accept_keyword("FOREIGN"):
                self._expect_keyword("KEY")
                self._expect_punct("(")
                fk_cols = [self._expect_ident()]
                while self._accept_punct(","):
                    fk_cols.append(self._expect_ident())
                self._expect_punct(")")
                self._expect_keyword("REFERENCES")
                parent = self._expect_ident()
                self._expect_punct("(")
                parent_cols = [self._expect_ident()]
                while self._accept_punct(","):
                    parent_cols.append(self._expect_ident())
                self._expect_punct(")")
                foreign_keys.append(
                    ast.ForeignKeyDef(fk_cols, parent, parent_cols)
                )
            else:
                columns.append(self._parse_column_def())
            if not self._accept_punct(","):
                break
        self._expect_punct(")")
        compression = "NONE"
        storage = "heap"
        segment_rows: Optional[int] = None
        if self._accept_keyword("WITH"):
            self._expect_punct("(")
            while True:
                option = self._expect_keyword(
                    "DATA_COMPRESSION", "STORAGE", "SEGMENT_ROWS"
                )
                if self._accept_op("=") is None:
                    raise self._error(f"expected '=' after {option.value}")
                if option.value == "DATA_COMPRESSION":
                    token = self._expect_keyword("ROW", "PAGE", "NONE")
                    compression = token.value
                elif option.value == "STORAGE":
                    token = self._peek()
                    if token.type == STRING:
                        self._next()
                        engine = token.value
                    elif token.matches_keyword("ROW", "STORAGE"):
                        # unquoted; tolerated for symmetry with
                        # DATA_COMPRESSION but 'HEAP'/'COLUMN' is canonical
                        engine = self._next().value
                    elif token.type == IDENT:
                        engine = self._next().value
                    else:
                        raise self._error(
                            "expected a storage engine name ('HEAP' or "
                            "'COLUMN') after STORAGE ="
                        )
                    storage = engine.lower()
                    if storage not in ("heap", "column"):
                        raise self._error(
                            f"unknown storage engine {engine!r} "
                            "(expected 'HEAP' or 'COLUMN')"
                        )
                else:  # SEGMENT_ROWS
                    token = self._peek()
                    if token.type != NUMBER:
                        raise self._error(
                            "expected a row count after SEGMENT_ROWS ="
                        )
                    self._next()
                    segment_rows = int(token.value)
                if not self._accept_punct(","):
                    break
            self._expect_punct(")")
        filestream_group = None
        if self._accept_keyword("FILESTREAM_ON"):
            filestream_group = self._expect_ident()
        # collect inline PRIMARY KEY markers
        inline_pk = [c.name for c in columns if c.primary_key]
        if inline_pk and primary_key:
            raise SqlSyntaxError(
                f"table {name!r} declares both inline and table-level PRIMARY KEY"
            )
        return ast.CreateTableStmt(
            name=name,
            columns=columns,
            primary_key=primary_key or inline_pk,
            foreign_keys=foreign_keys,
            compression=compression,
            filestream_group=filestream_group,
            storage=storage,
            segment_rows=segment_rows,
        )

    def _parse_column_def(self) -> ast.ColumnDef:
        name = self._expect_ident()
        type_token = self._peek()
        if type_token.type not in (IDENT, KEYWORD):
            raise self._error("expected a type name")
        type_name = self._next().value
        if type_name.lower() not in _TYPE_NAMES:
            # treat as a UDT name; resolution happens at bind time
            pass
        length: Optional[int] = None
        if self._accept_punct("("):
            token = self._peek()
            if token.type == NUMBER:
                self._next()
                length = int(token.value)
            elif token.type == IDENT and token.value.upper() == "MAX":
                self._next()
                length = -1
            else:
                raise self._error("expected a length or MAX")
            self._expect_punct(")")
        col = ast.ColumnDef(name=name, type_name=type_name, length=length)
        while True:
            if self._accept_keyword("FILESTREAM"):
                col.filestream = True
            elif self._accept_keyword("ROWGUIDCOL"):
                col.rowguidcol = True
            elif self._accept_keyword("IDENTITY"):
                col.identity = True
                if self._accept_punct("("):  # IDENTITY(1,1)
                    while not self._accept_punct(")"):
                        self._next()
            elif self._accept_keyword("NOT"):
                self._expect_keyword("NULL")
                col.nullable = False
            elif self._accept_keyword("NULL"):
                col.nullable = True
            elif self._accept_keyword("PRIMARY"):
                self._expect_keyword("KEY")
                col.primary_key = True
                col.nullable = False
            else:
                break
        return col

    # -- expressions ---------------------------------------------------------------------

    def _parse_expr(self) -> Expr:
        return self._parse_or()

    def _parse_or(self) -> Expr:
        left = self._parse_and()
        while self._accept_keyword("OR"):
            left = BinaryOp("OR", left, self._parse_and())
        return left

    def _parse_and(self) -> Expr:
        left = self._parse_not()
        while self._accept_keyword("AND"):
            left = BinaryOp("AND", left, self._parse_not())
        return left

    def _parse_not(self) -> Expr:
        if self._accept_keyword("NOT"):
            return UnaryOp("NOT", self._parse_not())
        return self._parse_predicate()

    def _parse_predicate(self) -> Expr:
        left = self._parse_additive()
        token = self._peek()
        if token.type == OP and token.value in ("=", "<>", "<", "<=", ">", ">="):
            self._next()
            return BinaryOp(token.value, left, self._parse_additive())
        if token.matches_keyword("IS"):
            self._next()
            negated = bool(self._accept_keyword("NOT"))
            self._expect_keyword("NULL")
            return IsNull(left, negated=negated)
        negated = False
        if token.matches_keyword("NOT"):
            nxt = self._peek(1)
            if nxt.matches_keyword("LIKE", "IN", "BETWEEN"):
                self._next()
                negated = True
                token = self._peek()
        if token.matches_keyword("LIKE"):
            self._next()
            return Like(left, self._parse_additive(), negated=negated)
        if token.matches_keyword("IN"):
            self._next()
            self._expect_punct("(")
            items = [self._parse_expr()]
            while self._accept_punct(","):
                items.append(self._parse_expr())
            self._expect_punct(")")
            in_expr = InList(left, tuple(items))
            return UnaryOp("NOT", in_expr) if negated else in_expr
        if token.matches_keyword("BETWEEN"):
            self._next()
            low = self._parse_additive()
            self._expect_keyword("AND")
            high = self._parse_additive()
            between = Between(left, low, high)
            return UnaryOp("NOT", between) if negated else between
        return left

    def _parse_additive(self) -> Expr:
        left = self._parse_multiplicative()
        while True:
            token = self._peek()
            if token.type == OP and token.value in ("+", "-"):
                self._next()
                left = BinaryOp(token.value, left, self._parse_multiplicative())
            else:
                return left

    def _parse_multiplicative(self) -> Expr:
        left = self._parse_unary()
        while True:
            token = self._peek()
            if token.type == OP and token.value in ("*", "/", "%"):
                self._next()
                left = BinaryOp(token.value, left, self._parse_unary())
            else:
                return left

    def _parse_unary(self) -> Expr:
        token = self._peek()
        if token.type == OP and token.value in ("-", "+"):
            self._next()
            return UnaryOp(token.value, self._parse_unary())
        return self._parse_primary()

    def _parse_primary(self) -> Expr:
        token = self._peek()
        if token.type == NUMBER:
            self._next()
            text = token.value
            if "." in text or "e" in text or "E" in text:
                return Literal(float(text))
            return Literal(int(text))
        if token.type == STRING:
            self._next()
            return Literal(token.value)
        if token.matches_keyword("NULL"):
            self._next()
            return Literal(None)
        if token.matches_keyword("CASE"):
            return self._parse_case()
        if self._accept_punct("("):
            expr = self._parse_expr()
            self._expect_punct(")")
            return expr
        if token.type == IDENT:
            return self._parse_name_or_call()
        raise self._error("expected an expression")

    def _parse_case(self) -> Expr:
        self._expect_keyword("CASE")
        whens: List[Tuple[Expr, Expr]] = []
        while self._accept_keyword("WHEN"):
            cond = self._parse_expr()
            self._expect_keyword("THEN")
            value = self._parse_expr()
            whens.append((cond, value))
        default = None
        if self._accept_keyword("ELSE"):
            default = self._parse_expr()
        self._expect_keyword("END")
        if not whens:
            raise self._error("CASE requires at least one WHEN")
        return Case(tuple(whens), default)

    def _parse_name_or_call(self) -> Expr:
        name = self._next().value
        # function call?
        if self._accept_punct("("):
            lowered = name.lower()
            distinct = bool(self._accept_keyword("DISTINCT"))
            star = False
            args: List[Expr] = []
            token = self._peek()
            if token.type == OP and token.value == "*":
                self._next()
                star = True
            elif not (token.type == PUNCT and token.value == ")"):
                args.append(self._parse_expr())
                while self._accept_punct(","):
                    args.append(self._parse_expr())
            self._expect_punct(")")
            if self._peek().matches_keyword("OVER"):
                self._next()
                self._expect_punct("(")
                self._expect_keyword("ORDER")
                self._expect_keyword("BY")
                order = [self._parse_order_item()]
                while self._accept_punct(","):
                    order.append(self._parse_order_item())
                self._expect_punct(")")
                return WindowCall(name, tuple(order))
            if lowered in _AGGREGATE_NAMES or star or distinct:
                return AggregateCall(
                    name, tuple(args), star=star, distinct=distinct
                )
            return FuncCall(name, tuple(args))
        # qualified column a.b (or a.b() method-style call → function)
        if self._accept_punct("."):
            second = self._expect_ident()
            if self._accept_punct("("):
                # method-style call like reads.PathName(): treat as
                # Function(column) with the column as first argument
                args = []
                if not self._accept_punct(")"):
                    args.append(self._parse_expr())
                    while self._accept_punct(","):
                        args.append(self._parse_expr())
                    self._expect_punct(")")
                return FuncCall(second, (ColumnRef(name), *args))
            return ColumnRef(second, qualifier=name)
        return ColumnRef(name)


def parse_sql(text: str) -> List[object]:
    """Parse a SQL script into a list of statement AST nodes."""
    return Parser(text).parse_statements()


def parse_statement(text: str) -> object:
    """Parse exactly one statement."""
    return Parser(text).parse_single()
