"""SQL parser: statement shapes."""

import pytest
from hypothesis import given, settings, strategies as st

from repro.engine.errors import SqlSyntaxError
from repro.engine.expressions import (
    AggregateCall,
    BinaryOp,
    Case,
    ColumnRef,
    FuncCall,
    InList,
    IsNull,
    Like,
    Literal,
    WindowCall,
)
from repro.engine.sql import ast
from repro.engine.sql.parser import parse_sql, parse_statement

from .test_sql_differential import predicate_sql, predicate_strategy


class TestSelect:
    def test_simple(self):
        stmt = parse_statement("SELECT a, b FROM t")
        assert isinstance(stmt, ast.SelectStmt)
        assert [i.expr.name for i in stmt.items] == ["a", "b"]
        assert stmt.source.name == "t"

    def test_star(self):
        stmt = parse_statement("SELECT * FROM t")
        assert stmt.items[0].star

    def test_qualified_star(self):
        stmt = parse_statement("SELECT t.* FROM t")
        assert stmt.items[0].star and stmt.items[0].star_qualifier == "t"

    def test_top(self):
        assert parse_statement("SELECT TOP 5 a FROM t").top == 5

    def test_distinct(self):
        assert parse_statement("SELECT DISTINCT a FROM t").distinct

    def test_aliases(self):
        stmt = parse_statement("SELECT a AS x, b y FROM t AS u")
        assert stmt.items[0].alias == "x"
        assert stmt.items[1].alias == "y"
        assert stmt.source.alias == "u"

    def test_where_group_having_order(self):
        stmt = parse_statement(
            """
            SELECT name, COUNT(*) FROM t
            WHERE x > 1 GROUP BY name HAVING COUNT(*) > 2
            ORDER BY name DESC
            """
        )
        assert isinstance(stmt.where, BinaryOp)
        assert len(stmt.group_by) == 1
        assert stmt.having is not None
        assert stmt.order_by[0][1] is True

    def test_join_with_on(self):
        stmt = parse_statement("SELECT * FROM a JOIN b ON (a.x = b.y)")
        assert len(stmt.joins) == 1
        assert stmt.joins[0].kind == "JOIN"
        assert isinstance(stmt.joins[0].on, BinaryOp)

    def test_inner_join_keyword(self):
        stmt = parse_statement("SELECT * FROM a INNER JOIN b ON a.x = b.y")
        assert stmt.joins[0].kind == "JOIN"

    def test_cross_apply(self):
        stmt = parse_statement(
            "SELECT * FROM t CROSS APPLY PivotAlignment(pos, seq, quals)"
        )
        assert stmt.joins[0].kind == "CROSS APPLY"
        assert isinstance(stmt.joins[0].source, ast.TvfRef)
        assert len(stmt.joins[0].source.args) == 3

    def test_tvf_as_source(self):
        stmt = parse_statement("SELECT * FROM ListShortReads(855, 1, 'FastQ')")
        assert isinstance(stmt.source, ast.TvfRef)
        assert stmt.source.name == "ListShortReads"

    def test_subquery_source(self):
        stmt = parse_statement("SELECT x FROM (SELECT a AS x FROM t) AS sub")
        assert isinstance(stmt.source, ast.SubqueryRef)
        assert stmt.source.alias == "sub"

    def test_openrowset(self):
        stmt = parse_statement(
            "SELECT * FROM OPENROWSET(BULK 'D:\\855_s_1.fastq', SINGLE_BLOB)"
        )
        assert isinstance(stmt.source, ast.OpenRowsetRef)
        assert stmt.source.path.endswith("855_s_1.fastq")

    def test_window_function(self):
        stmt = parse_statement(
            "SELECT ROW_NUMBER() OVER (ORDER BY COUNT(*) DESC) FROM t GROUP BY a"
        )
        window = stmt.items[0].expr
        assert isinstance(window, WindowCall)
        assert isinstance(window.order_by[0][0], AggregateCall)
        assert window.order_by[0][1] is True

    def test_maxdop_hint(self):
        stmt = parse_statement("SELECT a FROM t OPTION (MAXDOP 2)")
        assert stmt.maxdop == 2

    def test_bracketed_table(self):
        stmt = parse_statement("SELECT * FROM [Read]")
        assert stmt.source.name == "Read"

    def test_paper_query1_parses(self):
        stmt = parse_statement(
            """
            SELECT ROW_NUMBER() OVER (ORDER BY COUNT(*) DESC),
                   COUNT(*), short_read_seq
              FROM [Read]
             WHERE r_e_id=1 AND r_sg_id=2 AND r_s_id=1
                   AND CHARINDEX('N', short_read_seq)=0
             GROUP BY short_read_seq
            """
        )
        assert len(stmt.items) == 3
        assert stmt.group_by[0] == ColumnRef("short_read_seq")


class TestExpressions:
    def expr(self, text):
        return parse_statement(f"SELECT {text} FROM t").items[0].expr

    def test_precedence_mul_over_add(self):
        e = self.expr("1 + 2 * 3")
        assert e.op == "+" and e.right.op == "*"

    def test_parens_override(self):
        e = self.expr("(1 + 2) * 3")
        assert e.op == "*" and e.left.op == "+"

    def test_and_or_precedence(self):
        e = parse_statement("SELECT 1 FROM t WHERE a = 1 OR b = 2 AND c = 3").where
        assert e.op == "OR" and e.right.op == "AND"

    def test_not(self):
        e = parse_statement("SELECT 1 FROM t WHERE NOT a = 1").where
        assert e.op == "NOT"

    def test_is_null_and_is_not_null(self):
        e1 = parse_statement("SELECT 1 FROM t WHERE a IS NULL").where
        e2 = parse_statement("SELECT 1 FROM t WHERE a IS NOT NULL").where
        assert isinstance(e1, IsNull) and not e1.negated
        assert isinstance(e2, IsNull) and e2.negated

    def test_like(self):
        e = parse_statement("SELECT 1 FROM t WHERE a LIKE 'x%'").where
        assert isinstance(e, Like)

    def test_in_list(self):
        e = parse_statement("SELECT 1 FROM t WHERE a IN (1, 2, 3)").where
        assert isinstance(e, InList) and len(e.items) == 3

    def test_between(self):
        e = parse_statement("SELECT 1 FROM t WHERE a BETWEEN 1 AND 10").where
        from repro.engine.expressions import Between

        assert isinstance(e, Between)

    def test_case(self):
        e = self.expr("CASE WHEN a = 1 THEN 'one' ELSE 'other' END")
        assert isinstance(e, Case) and e.default is not None

    def test_count_star(self):
        e = self.expr("COUNT(*)")
        assert isinstance(e, AggregateCall) and e.star

    def test_count_distinct(self):
        e = self.expr("COUNT(DISTINCT a)")
        assert isinstance(e, AggregateCall) and e.distinct

    def test_scalar_function(self):
        e = self.expr("CHARINDEX('N', seq)")
        assert isinstance(e, FuncCall) and len(e.args) == 2

    def test_method_style_call(self):
        e = self.expr("reads.PathName()")
        assert isinstance(e, FuncCall)
        assert e.name == "PathName"
        assert e.args[0] == ColumnRef("reads")

    def test_qualified_column(self):
        e = self.expr("a.b")
        assert e == ColumnRef("b", qualifier="a")

    def test_negative_literal(self):
        e = self.expr("-5")
        from repro.engine.expressions import UnaryOp

        assert isinstance(e, UnaryOp) and e.operand == Literal(5)

    def test_string_and_null_literals(self):
        assert self.expr("'text'") == Literal("text")
        assert self.expr("NULL") == Literal(None)

    def test_float_literal(self):
        assert self.expr("2.5") == Literal(2.5)


class TestDdlDml:
    def test_create_table_basics(self):
        stmt = parse_statement(
            """
            CREATE TABLE t (
                id INT PRIMARY KEY,
                name VARCHAR(50) NOT NULL,
                blob VARBINARY(MAX)
            )
            """
        )
        assert isinstance(stmt, ast.CreateTableStmt)
        assert stmt.primary_key == ["id"]
        assert stmt.columns[1].nullable is False
        assert stmt.columns[2].length == -1

    def test_create_table_composite_pk_and_fk(self):
        stmt = parse_statement(
            """
            CREATE TABLE t (
                a INT, b INT, v VARCHAR(10),
                PRIMARY KEY (a, b),
                FOREIGN KEY (a) REFERENCES parent (id)
            )
            """
        )
        assert stmt.primary_key == ["a", "b"]
        assert stmt.foreign_keys[0].parent_table == "parent"

    def test_create_table_compression(self):
        stmt = parse_statement(
            "CREATE TABLE t (a INT PRIMARY KEY) WITH (DATA_COMPRESSION = PAGE)"
        )
        assert stmt.compression == "PAGE"

    def test_paper_filestream_table(self):
        stmt = parse_statement(
            """
            CREATE TABLE ShortReadFiles (
                guid uniqueidentifier ROWGUIDCOL PRIMARY KEY,
                sample INT,
                lane INT,
                reads VARBINARY(MAX) FILESTREAM
            ) FILESTREAM_ON FILESTREAMGROUP
            """
        )
        assert stmt.columns[0].rowguidcol
        assert stmt.columns[3].filestream
        assert stmt.filestream_group == "FILESTREAMGROUP"

    def test_double_pk_rejected(self):
        with pytest.raises(SqlSyntaxError):
            parse_statement(
                "CREATE TABLE t (a INT PRIMARY KEY, b INT, PRIMARY KEY (b))"
            )

    def test_create_index(self):
        stmt = parse_statement("CREATE INDEX ix ON t (a, b)")
        assert isinstance(stmt, ast.CreateIndexStmt)
        assert stmt.columns == ["a", "b"]

    def test_insert_values(self):
        stmt = parse_statement("INSERT INTO t (a, b) VALUES (1, 'x'), (2, 'y')")
        assert isinstance(stmt, ast.InsertStmt)
        assert stmt.columns == ["a", "b"]
        assert len(stmt.values) == 2

    def test_insert_select(self):
        stmt = parse_statement("INSERT INTO t SELECT a, b FROM u")
        assert stmt.select is not None and stmt.values is None

    def test_delete(self):
        stmt = parse_statement("DELETE FROM t WHERE a = 1")
        assert isinstance(stmt, ast.DeleteStmt)
        assert stmt.where is not None

    def test_drop_and_truncate(self):
        assert isinstance(parse_statement("DROP TABLE t"), ast.DropTableStmt)
        assert isinstance(
            parse_statement("TRUNCATE TABLE t"), ast.TruncateStmt
        )

    def test_multiple_statements(self):
        statements = parse_sql("SELECT 1; SELECT 2;")
        assert len(statements) == 2

    def test_explain(self):
        stmt = parse_statement("EXPLAIN SELECT a FROM t")
        assert isinstance(stmt, ast.ExplainStmt)


class TestErrors:
    @pytest.mark.parametrize(
        "bad",
        [
            "SELECT",
            "SELECT FROM t",
            "SELECT a FROM",
            "INSERT t VALUES",
            "CREATE t (a INT)",
            "SELECT a FROM t WHERE",
            "SELECT a FROM t GROUP",
            "CREATE TABLE t ()",
        ],
    )
    def test_rejected(self, bad):
        with pytest.raises(SqlSyntaxError):
            parse_statement(bad)


_generated_statement = st.tuples(
    st.sampled_from(["", "EXPLAIN ", "explain analyze "]),
    st.sampled_from(
        [
            "SELECT id FROM t WHERE {p}",
            "select  b, COUNT(*)\nfrom t where {p} group by b",
            "SELECT TOP 3 id FROM t WHERE {p} ORDER BY a DESC, id",
            "SELECT id FROM t WHERE s = 'x''y' AND {p} OPTION (MAXDOP 2)",
        ]
    ),
    predicate_strategy,
    st.sampled_from(["", " ", ";", " ; ", " -- c\n", "/* c; */;", ";;\n"]),
).map(lambda t: t[0] + t[1].format(p=predicate_sql(t[2])) + t[3])


class TestNormalizedSql:
    """The parser attaches each statement's normalised text from the
    tokens it already holds; it must be exactly what the text-only
    entry point makes of the statement's own source slice."""

    @staticmethod
    def check(script):
        from repro.engine.querystore import normalize_statement

        statements = parse_sql(script)
        for stmt in statements:
            assert stmt.normalized_sql == normalize_statement(stmt.source_sql)
            if isinstance(stmt, ast.ExplainStmt):
                # the inner select is keyed as the bare statement is
                prefix = "EXPLAIN ANALYZE " if stmt.analyze else "EXPLAIN "
                assert stmt.normalized_sql == (
                    prefix + stmt.select.normalized_sql
                )
        return statements

    def test_examples_script(self):
        from pathlib import Path

        script = (
            Path(__file__).resolve().parents[2]
            / "examples"
            / "analysis_queries.sql"
        ).read_text()
        statements = self.check(script)
        assert len(statements) >= 8
        assert statements[-1].normalized_sql.startswith("SELECT")
        assert "--" not in statements[-1].normalized_sql

    def test_sanitizer_corpus(self):
        from repro.engine.verify.plan_corpus import (
            DOPS,
            FIGURE_DDL,
            FIGURE_QUERIES,
            SALES_QUERIES,
        )

        texts = list(FIGURE_DDL) + [
            f"{sql} OPTION (MAXDOP {dop})"
            for sql in FIGURE_QUERIES + SALES_QUERIES
            for dop in DOPS
        ]
        for text in texts:
            (stmt,) = self.check(text)
            if isinstance(stmt, ast.SelectStmt):
                (explained,) = self.check("EXPLAIN ANALYZE " + text + " ;")
                assert explained.normalized_sql == (
                    "EXPLAIN ANALYZE " + stmt.normalized_sql
                )
        # and as one script: separators, comments and neighbours must
        # not leak into any statement's text
        script = ";\n/* next */\n".join(texts) + "; -- done;\n"
        together = self.check(script)
        assert [s.normalized_sql for s in together] == [
            parse_statement(text).normalized_sql for text in texts
        ]

    def test_trailing_semicolons_and_comments(self):
        one, two, three = self.check(
            "select a from t where b = 'x;' -- tail;\n;;"
            " EXPLAIN /* why */ SELECT 1.5e3 ; explain analyze select [a b] from t"
        )
        assert one.normalized_sql == "SELECT a FROM t WHERE b = '?'"
        assert two.normalized_sql == "EXPLAIN SELECT ?"
        assert three.normalized_sql == "EXPLAIN ANALYZE SELECT a b FROM t"

    @settings(max_examples=150, deadline=None)
    @given(st.lists(_generated_statement, min_size=1, max_size=4))
    def test_generated_scripts(self, parts):
        # the Hypothesis grammar of test_sql_differential.py, under
        # EXPLAIN prefixes, trailing ``;`` and comments, as scripts
        assert len(self.check(";\n".join(parts))) == len(parts)
