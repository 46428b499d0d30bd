"""Differential SQL testing: the engine vs. two independent references.

Hypothesis generates random tables and random (structured) queries; every
query runs through the full engine stack (parser → planner → executor)
and through a reference, and the results must agree. This catches
whole-stack disagreements that unit tests of individual operators cannot.

The first half checks one-table statements against a direct Python
implementation of SQL semantics. The second half (``TestSqliteOracle``)
checks a much wider grammar — NULL three-valued logic, joins with
residuals, GROUP BY / HAVING, DISTINCT, ORDER BY + TOP, CASE, LIKE, the
T-SQL built-ins — against stdlib ``sqlite3`` (:mod:`.sqlite_oracle`),
generating only statements both dialects give one meaning: integer
operands for ``/`` (never zero), float values that add exactly, no
``%``, no ROUND.
"""

from __future__ import annotations

from typing import List, Optional, Tuple
from uuid import UUID

import pytest
from hypothesis import assume, given, settings, strategies as st

from repro.engine import Database
from repro.engine.executor import ClusteredIndexSeek, KeyLookupJoin

from . import sqlite_oracle

# -- data generation -------------------------------------------------------------

row_strategy = st.tuples(
    st.one_of(st.none(), st.integers(-20, 20)),  # a
    st.one_of(st.none(), st.integers(-5, 5)),  # b
    st.one_of(st.none(), st.text(alphabet="xyz", max_size=3)),  # s
)

rows_strategy = st.lists(row_strategy, min_size=0, max_size=40)

# a comparison: (column, op, constant)
comparison_strategy = st.tuples(
    st.sampled_from(["a", "b"]),
    st.sampled_from(["=", "<>", "<", "<=", ">", ">="]),
    st.integers(-10, 10),
)

# a predicate: one or two comparisons joined by AND/OR
predicate_strategy = st.one_of(
    comparison_strategy.map(lambda c: ("leaf", c)),
    st.tuples(
        st.sampled_from(["AND", "OR"]),
        comparison_strategy,
        comparison_strategy,
    ).map(lambda t: ("node", t)),
)


def load(db: Database, rows) -> None:
    db.execute(
        "CREATE TABLE t (id INT PRIMARY KEY, a INT, b INT, s VARCHAR(10))"
    )
    table = db.table("t")
    for i, (a, b, s) in enumerate(rows):
        table.insert((i, a, b, s))
    table.finish_bulk_load()


def predicate_sql(predicate) -> str:
    kind, payload = predicate
    if kind == "leaf":
        column, op, constant = payload
        return f"{column} {op} {constant}"
    connective, left, right = payload
    return (
        f"({left[0]} {left[1]} {left[2]}) {connective} "
        f"({right[0]} {right[1]} {right[2]})"
    )


_OPS = {
    "=": lambda x, y: x == y,
    "<>": lambda x, y: x != y,
    "<": lambda x, y: x < y,
    "<=": lambda x, y: x <= y,
    ">": lambda x, y: x > y,
    ">=": lambda x, y: x >= y,
}


def eval_comparison(row, comparison) -> Optional[bool]:
    column, op, constant = comparison
    value = row[{"a": 1, "b": 2}[column]]
    if value is None:
        return None
    return _OPS[op](value, constant)


def eval_predicate(row, predicate) -> Optional[bool]:
    kind, payload = predicate
    if kind == "leaf":
        return eval_comparison(row, payload)
    connective, left, right = payload
    lv = eval_comparison(row, left)
    rv = eval_comparison(row, right)
    if connective == "AND":
        if lv is False or rv is False:
            return False
        if lv is None or rv is None:
            return None
        return True
    if lv is True or rv is True:
        return True
    if lv is None or rv is None:
        return None
    return False


class TestWhere:
    @settings(max_examples=60, deadline=None)
    @given(rows_strategy, predicate_strategy)
    def test_where_matches_reference(self, rows, predicate):
        with Database() as db:
            load(db, rows)
            got = sorted(
                db.query(f"SELECT id FROM t WHERE {predicate_sql(predicate)}")
            )
            full = [(i, a, b, s) for i, (a, b, s) in enumerate(rows)]
            expected = sorted(
                (row[0],)
                for row in full
                if eval_predicate(row, predicate) is True
            )
            assert got == expected


class TestGroupBy:
    @settings(max_examples=40, deadline=None)
    @given(rows_strategy)
    def test_aggregates_match_reference(self, rows):
        with Database() as db:
            load(db, rows)
            got = {
                row[0]: row[1:]
                for row in db.query(
                    "SELECT b, COUNT(*), COUNT(a), SUM(a), MIN(a), MAX(a) "
                    "FROM t GROUP BY b"
                )
            }
            expected = {}
            for i, (a, b, s) in enumerate(rows):
                entry = expected.setdefault(b, [0, 0, None, None, None])
                entry[0] += 1
                if a is not None:
                    entry[1] += 1
                    entry[2] = a if entry[2] is None else entry[2] + a
                    entry[3] = a if entry[3] is None else min(entry[3], a)
                    entry[4] = a if entry[4] is None else max(entry[4], a)
            assert got == {k: tuple(v) for k, v in expected.items()}

    @settings(max_examples=30, deadline=None)
    @given(rows_strategy)
    def test_parallel_plan_matches_serial(self, rows):
        with Database() as db:
            load(db, rows)
            serial = sorted(
                db.query(
                    "SELECT b, COUNT(*), SUM(a) FROM t GROUP BY b "
                    "OPTION (MAXDOP 1)"
                )
            , key=repr)
            parallel = sorted(
                db.query(
                    "SELECT b, COUNT(*), SUM(a) FROM t GROUP BY b "
                    "OPTION (MAXDOP 4)"
                )
            , key=repr)
            assert serial == parallel


class TestOrderBy:
    @settings(max_examples=40, deadline=None)
    @given(rows_strategy, st.booleans())
    def test_order_matches_reference(self, rows, descending):
        with Database() as db:
            load(db, rows)
            direction = "DESC" if descending else "ASC"
            got = [
                row[0]
                for row in db.query(
                    f"SELECT id, a FROM t ORDER BY a {direction}, id"
                )
            ]
            # SQL: NULLs first ascending, last descending; id tiebreak asc
            def key(item):
                i, (a, _b, _s) = item
                null_rank = 0 if a is None else 1
                if descending:
                    return (-null_rank, -(a or 0), i)
                return (null_rank, a or 0, i)

            expected = [i for i, _row in sorted(enumerate(rows), key=key)]
            assert got == expected


class TestJoin:
    @settings(max_examples=40, deadline=None)
    @given(
        st.lists(st.integers(0, 8), max_size=25),
        st.lists(st.integers(0, 8), max_size=25),
    )
    def test_inner_join_matches_reference(self, left_keys, right_keys):
        with Database() as db:
            db.execute(
                "CREATE TABLE l (lid INT PRIMARY KEY, lk INT);"
                "CREATE TABLE r (rid INT PRIMARY KEY, rk INT);"
            )
            for i, key in enumerate(left_keys):
                db.table("l").insert((i, key))
            for i, key in enumerate(right_keys):
                db.table("r").insert((i, key))
            got = sorted(
                db.query("SELECT lid, rid FROM l JOIN r ON (lk = rk)")
            )
            expected = sorted(
                (li, ri)
                for li, lk in enumerate(left_keys)
                for ri, rk in enumerate(right_keys)
                if lk == rk
            )
            assert got == expected


class TestTopDistinct:
    @settings(max_examples=30, deadline=None)
    @given(rows_strategy, st.integers(0, 10))
    def test_top_after_order(self, rows, n):
        with Database() as db:
            load(db, rows)
            got = db.query(f"SELECT TOP {n} id FROM t ORDER BY id")
            assert got == [(i,) for i in range(min(n, len(rows)))]

    @settings(max_examples=30, deadline=None)
    @given(rows_strategy)
    def test_distinct_matches_set(self, rows):
        with Database() as db:
            load(db, rows)
            got = sorted(db.query("SELECT DISTINCT b FROM t"), key=repr)
            expected = sorted(
                {(b,) for _a, b, _s in rows}, key=repr
            )
            assert got == expected


# -- the sqlite3 oracle -----------------------------------------------------------

# t is the probe side of every join; u joins it on b = k, w on v = j
TABLES = {
    "t": "(id INT PRIMARY KEY, a INT, b INT, s VARCHAR(10), f FLOAT)",
    "u": "(uid INT PRIMARY KEY, k INT, v INT, x VARCHAR(10))",
    "w": "(wid INT PRIMARY KEY, j INT, z INT)",
}
COLUMN_STORAGE = " WITH (STORAGE = 'COLUMN', SEGMENT_ROWS = 8)"


def nullable(strategy):
    return st.one_of(st.none(), strategy)


small_text = st.text(alphabet="xyz", max_size=3)
# quarters add, and divide by a count, without rounding in any order
exact_float = st.integers(-32, 32).map(lambda n: n / 4)

# join keys come from narrow domains so that generated joins have matches
COLUMN_VALUES = {
    "t": (
        st.integers(-20, 20), st.integers(-3, 3), small_text, exact_float
    ),
    "u": (st.integers(-3, 3), st.integers(-1, 1), small_text),
    "w": (st.integers(-1, 1), st.integers(-20, 20)),
}


# joined tables always hold these rows too: a join over generated rows
# alone is empty more often than not, and an empty join checks nothing
JOIN_BACKBONE = {
    "t": [(5, 0, "x", 1.0), (-3, 1, "xy", -0.5), (None, 1, None, 2.25)],
    "u": [(0, 0, "z"), (1, 1, "x"), (1, -1, None)],
    "w": [(0, 7), (1, -2), (-1, None)],
}


def table_rows(name: str):
    columns = [nullable(values) for values in COLUMN_VALUES[name]]
    return st.lists(st.tuples(*columns), max_size=30)


def sql_literal(value) -> str:
    if value is None:
        return "NULL"
    if isinstance(value, str):
        return f"'{value}'"
    return repr(value)


def load_both(db, conn, data, column_store: bool) -> None:
    """The same DDL and the same INSERT text, run on both engines."""
    for name, rows in data.items():
        ddl = f"CREATE TABLE {name} {TABLES[name]}"
        db.execute(ddl + (COLUMN_STORAGE if column_store else ""))
        conn.execute(ddl)
        if rows:
            values = ", ".join(
                "(" + ", ".join(map(sql_literal, (i,) + row)) + ")"
                for i, row in enumerate(rows)
            )
            for target in (db, conn):
                target.execute(f"INSERT INTO {name} VALUES {values}")


def expressions(int_columns, text_columns):
    """``(integer expressions, predicates)`` over the given columns, as
    SQL text both engines parse."""
    int_column = st.sampled_from(int_columns)
    text_column = st.sampled_from(text_columns)
    constant = st.integers(-10, 10).map(str)
    divisor = st.integers(1, 4).map(str)

    def formatted(template, *parts):
        return st.tuples(*parts).map(lambda p: template.format(*p))

    int_leaf = st.one_of(int_column, int_column, constant)
    text_expr = st.one_of(
        text_column,
        formatted("UPPER({})", text_column),
        formatted("LEFT({}, {})", text_column, st.integers(0, 2).map(str)),
        formatted("SUBSTRING({}, 2, 2)", text_column),
        formatted("STR({})", int_column),
    )

    def int_step(inner):
        return st.one_of(
            formatted("({} {} {})", inner, st.sampled_from("+-*"), inner),
            formatted("({} / {})", inner, divisor),
            formatted("(- {})", inner),
            formatted("ABS({})", inner),
            formatted("COALESCE({}, {})", inner, inner),
            formatted("ISNULL({}, {})", inner, constant),
            formatted("LEN({})", text_expr),
            formatted("DATALENGTH({})", text_column),
            formatted(
                "CHARINDEX('{}', {})", st.sampled_from("xyz"), text_column
            ),
        )

    int_expr = st.recursive(int_leaf, int_step, max_leaves=4)
    text_literal = small_text.map(sql_literal)
    compare = st.sampled_from(["=", "<>", "<", "<=", ">", ">="])
    negation = st.sampled_from(["", "NOT "])
    in_items = st.lists(
        st.one_of(constant, constant, st.just("NULL")), min_size=1, max_size=4
    ).map(", ".join)
    pattern = st.text(alphabet="xyz%_", max_size=4).map(sql_literal)
    atom = st.one_of(
        formatted("{} {} {}", int_expr, compare, int_expr),
        formatted("{} {} {}", text_expr, compare, text_literal),
        formatted(
            "{} IS {}NULL",
            st.one_of(int_column, text_column),
            negation,
        ),
        formatted(
            "{} {}BETWEEN {} AND {}", int_expr, negation, constant, constant
        ),
        formatted("{} {}IN ({})", int_expr, negation, in_items),
        formatted("{} {}LIKE {}", text_column, negation, pattern),
    )

    def predicate_step(inner):
        return st.one_of(
            formatted("NOT ({})", inner),
            formatted(
                "({}) {} ({})", inner, st.sampled_from(["AND", "OR"]), inner
            ),
        )

    predicate = st.recursive(atom, predicate_step, max_leaves=4)
    case = st.one_of(
        formatted(
            "CASE WHEN {} THEN {} ELSE {} END", predicate, int_expr, int_expr
        ),
        formatted(
            "CASE WHEN {} THEN {} WHEN {} THEN {} END",
            predicate, int_expr, predicate, constant,
        ),
    )
    return st.one_of(int_expr, int_expr, case), text_expr, predicate


T_INT, T_TEXT, T_PREDICATE = expressions(["a", "b", "id"], ["s"])
# over u's columns alone: pushed below a join onto u's scan
_U_INT, _U_TEXT, U_PREDICATE = expressions(["k", "v"], ["x"])
# after t JOIN u every column name is still unique, so none is qualified
J_INT, J_TEXT, J_PREDICATE = expressions(["a", "b", "k", "v"], ["s", "x"])

aggregate = st.one_of(
    st.just("COUNT(*)"),
    st.sampled_from(
        ["COUNT({})", "COUNT(DISTINCT {})", "SUM({})", "MIN({})", "MAX({})",
         "AVG({})"]
    ).flatmap(lambda call: T_INT.map(call.format)),
    st.sampled_from(["SUM(f)", "AVG(f)", "MIN(f)", "MAX(f)", "MIN(s)",
                     "MAX(s)", "COUNT(s)", "COUNT(DISTINCT s)"]),
)
group_key = st.one_of(
    st.sampled_from(["b", "s", "ABS(b)", "(a / 5)", "LEN(s)"]),
    st.just("CASE WHEN a > 0 THEN 'pos' ELSE 'rest' END"),
)
having = st.one_of(
    st.none(),
    st.integers(0, 3).map(lambda n: f"COUNT(*) > {n}"),
    st.integers(-10, 10).map(lambda n: f"SUM(a) > {n}"),
    st.just("MIN(a) IS NOT NULL AND MAX(f) >= 0"),
    st.just("NOT (COUNT(a) = COUNT(*))"),
)
order_keys = st.lists(
    st.tuples(
        st.sampled_from(["a", "b", "s", "f"]), st.sampled_from(["", " DESC"])
    ),
    max_size=2,
    unique_by=lambda key: key[0],
)

oracle_settings = settings(max_examples=80, deadline=None, derandomize=True)

# a composite clustered key: an equality on k1 and a range on k2 seek it
KEYED_TABLE = "CREATE TABLE r (k1 INT, k2 INT, v INT, PRIMARY KEY (k1, k2))"
keyed_rows = st.dictionaries(
    st.tuples(st.integers(0, 3), st.integers(0, 12)),
    nullable(st.integers(-5, 5)),
    max_size=30,
)
k2_range = st.sampled_from([
    "k2 BETWEEN {} AND {}",  # low > high now and then
    "k2 < {}", "k2 <= {}", "k2 > {}", "k2 >= {}",  # open at one end
    "{} < k2", "{} >= k2",
    "k2 > {} AND k2 <= {}",
])
# non-negative, so a sign never changes the statement's cached shape;
# a float against the INT key now and then
bound_literal = st.one_of(
    st.integers(0, 13).map(str), st.integers(0, 12).map("{}.5".format)
)
# per placeholder: NULL in both runs (rarely), else a literal per run
bound_slot = st.tuples(
    st.integers(0, 5).map(lambda n: n == 5), bound_literal, bound_literal
)


@st.composite
def databases(draw, tables):
    """``(engine database, sqlite connection)`` holding the same rows;
    the engine's tables are heaps or column stores."""
    db, conn = Database(), sqlite_oracle.connect()
    data = {name: draw(table_rows(name)) for name in tables}
    if len(tables) > 1:
        data = {name: JOIN_BACKBONE[name] + data[name] for name in tables}
    load_both(db, conn, data, column_store=draw(st.booleans()))
    return db, conn


class TestSqliteOracle:
    """One generated statement per example, answered by both engines."""

    @oracle_settings
    @given(databases(["t"]), T_PREDICATE, st.lists(T_INT, max_size=3), T_TEXT)
    def test_where_and_projection(self, both, predicate, ints, text):
        db, conn = both
        with db:
            items = ", ".join(["id", text] + ints)
            sqlite_oracle.assert_matches(
                db, conn, f"SELECT {items} FROM t WHERE {predicate}"
            )

    @oracle_settings
    @given(
        databases(["t"]),
        st.lists(group_key, min_size=1, max_size=2, unique=True),
        st.lists(aggregate, min_size=1, max_size=3),
        st.one_of(st.none(), T_PREDICATE),
        having,
    )
    def test_group_by_having(self, both, keys, aggregates, where, having):
        db, conn = both
        with db:
            sql = f"SELECT {', '.join(keys + aggregates)} FROM t"
            if where:
                sql += f" WHERE {where}"
            sql += f" GROUP BY {', '.join(keys)}"
            if having:
                sql += f" HAVING {having}"
            sqlite_oracle.assert_matches(db, conn, sql)

    @oracle_settings
    @given(
        databases(["t"]),
        st.lists(aggregate, min_size=1, max_size=4),
        st.one_of(st.none(), T_PREDICATE),
    )
    def test_scalar_aggregates(self, both, aggregates, where):
        db, conn = both
        with db:
            sql = f"SELECT {', '.join(aggregates)} FROM t"
            if where:
                sql += f" WHERE {where}"
            sqlite_oracle.assert_matches(db, conn, sql)

    @oracle_settings
    @given(
        databases(["t"]),
        st.lists(
            st.sampled_from(["a", "b", "s", "f", "ABS(b)"]),
            min_size=1, max_size=3, unique=True,
        ),
        st.one_of(st.none(), T_PREDICATE),
    )
    def test_distinct(self, both, columns, where):
        db, conn = both
        with db:
            sql = f"SELECT DISTINCT {', '.join(columns)} FROM t"
            if where:
                sql += f" WHERE {where}"
            sqlite_oracle.assert_matches(db, conn, sql)

    @oracle_settings
    @given(
        databases(["t"]),
        order_keys,
        st.one_of(st.none(), st.integers(0, 12)),
        st.one_of(st.none(), T_PREDICATE),
        st.booleans(),
    )
    def test_order_by_and_top(self, both, keys, top, where, total):
        db, conn = both
        with db:
            # id is unique, so appending it makes the order total; both
            # dialects put NULL first ascending and last descending
            order = [f"{column}{direction}" for column, direction in keys]
            if total:
                order.append("id")
            sql = "SELECT " + (f"TOP {top} " if top is not None else "")
            sql += "id, a, s FROM t"
            if where:
                sql += f" WHERE {where}"
            if order:
                sql += f" ORDER BY {', '.join(order)}"
            if top is not None and order and not total:
                return  # a tie at the cut may fall either way
            sqlite_oracle.assert_matches(db, conn, sql, ordered=total)

    @oracle_settings
    @given(
        databases(["t", "u"]),
        st.one_of(st.none(), J_PREDICATE),
        st.one_of(st.none(), J_PREDICATE),
        st.lists(J_INT, max_size=2),
    )
    def test_two_table_join(self, both, residual, where, ints):
        db, conn = both
        with db:
            items = ", ".join(["id", "uid"] + ints)
            sql = f"SELECT {items} FROM t JOIN u ON b = k"
            if residual:
                sql += f" AND ({residual})"
            if where:
                sql += f" WHERE {where}"
            sqlite_oracle.assert_matches(db, conn, sql)

    @oracle_settings
    @given(
        databases(["t", "u", "w"]),
        st.sampled_from(["", " AND a <> z", " AND (z > a OR x IS NULL)"]),
        st.one_of(st.none(), J_PREDICATE),
        st.booleans(),
    )
    def test_three_table_join(self, both, residual, where, grouped):
        db, conn = both
        with db:
            items = "b, COUNT(*), SUM(z), MIN(x)" if grouped else "id, uid, wid"
            sql = (
                f"SELECT {items} FROM t AS p JOIN u AS q ON p.b = q.k "
                f"JOIN w AS r ON q.v = r.j{residual}"
            )
            if where:
                sql += f" WHERE {where}"
            if grouped:
                sql += " GROUP BY b"
            sqlite_oracle.assert_matches(db, conn, sql)

    def test_joins_on_the_inner_primary_key(self):
        """``t JOIN u ON b = uid`` (and on to ``w`` by ``v = wid``) with
        the outer side narrowed to a few ids: the planner prices a
        lookup of u's (and w's) clustered key per outer row against the
        hash join, and some examples must take it. A column-store inner
        never does."""
        planned = []

        @oracle_settings
        @given(
            databases(["t", "u", "w"]),
            st.one_of(
                st.integers(-1, 34).map("id = {}".format),
                st.lists(st.integers(-1, 34), min_size=1, max_size=4).map(
                    lambda ids: f"id IN ({', '.join(map(str, ids))})"
                ),
            ),
            st.one_of(st.none(), U_PREDICATE),
            st.sampled_from(["", " AND a <> k", " AND (v > a OR x IS NULL)"]),
            st.booleans(),
        )
        def check(both, outer, inner, residual, chained):
            db, conn = both
            with db:
                sql = "SELECT id, uid, k, x"
                sql += ", wid, z" if chained else ""
                sql += f" FROM t JOIN u ON b = uid{residual}"
                sql += " JOIN w ON v = wid" if chained else ""
                sql += f" WHERE {outer}"
                sql += f" AND ({inner})" if inner else ""
                lookups = [
                    node
                    for node in db.plan(sql).nodes()
                    if isinstance(node, KeyLookupJoin)
                ]
                if db.table("u").store.engine_name == "column":
                    assert not lookups, sql
                planned.append(bool(lookups))
                sqlite_oracle.assert_matches(db, conn, sql)

        check()
        assert any(planned) and not all(planned)

    def test_clustered_key_ranges_rerun_from_the_plan_cache(self):
        """An equality on ``k1`` (or none) and a range on ``k2`` of a
        composite clustered key; some examples must seek it. Each
        statement runs again with other literals, from its cached plan,
        and both runs answer as sqlite does."""
        planned = []

        @oracle_settings
        @given(
            keyed_rows,
            st.one_of(
                st.none(), st.tuples(st.integers(0, 3), st.integers(0, 3))
            ),
            k2_range,
            st.lists(bound_slot, min_size=2, max_size=2),
        )
        def check(rows, k1, template, slots):
            db, conn = Database(), sqlite_oracle.connect()
            with db:
                for target in (db, conn):
                    target.execute(KEYED_TABLE)
                    if rows:
                        target.execute("INSERT INTO r VALUES " + ", ".join(
                            f"({a}, {b}, {sql_literal(v)})"
                            for (a, b), v in rows.items()
                        ))
                runs = []
                for run in (1, 2):
                    where = template.format(
                        *("NULL" if slot[0] else slot[run] for slot in slots)
                    )
                    if k1 is not None:
                        where = f"k1 = {k1[run - 1]} AND {where}"
                    runs.append(f"SELECT k1, k2, v FROM r WHERE {where}")
                assume(runs[0] != runs[1])
                planned.append(any(
                    isinstance(node, ClusteredIndexSeek) and node.lo != node.hi
                    for node in db.plan(runs[0]).nodes()
                ))
                sqlite_oracle.assert_matches(db, conn, runs[0])
                hits = db.plan_cache.hits
                sqlite_oracle.assert_matches(db, conn, runs[1])
                assert db.plan_cache.hits == hits + 1, runs

        check()
        assert any(planned) and not all(planned)



# -- a seek returns what a scan returns -------------------------------------------

# keys are drawn so that distinct inputs may validate to one key (CHAR(3)
# pads 'a' to 'a  ', BINARY(3) b'a' to b'a\x00\x00') and trailing spaces
# matter; literals are those SQL has for the key's order family, None
# where it has none (such keys are reached by a join from an outer table)
key_text = st.text(alphabet="ab ", max_size=3)
key_bytes = st.lists(st.sampled_from([0, 32, 97]), max_size=3).map(bytes)
number_literal = st.one_of(
    st.integers(0, 21).map(str), st.integers(0, 20).map("{}.5".format)
)
text_literal = key_text.map(sql_literal)
# every key kind of types.py: kind -> (keys, literals)
KEY_KINDS = {
    "INT": (st.integers(-20, 20), number_literal),
    "BIGINT": (st.integers(-20, 20), number_literal),
    "SMALLINT": (st.integers(-20, 20), number_literal),
    "TINYINT": (st.integers(0, 20), number_literal),
    "BIT": (st.integers(0, 1), number_literal),
    "FLOAT": (exact_float, number_literal),
    "DATETIME": (st.integers(0, 20), number_literal),
    "CHAR(3)": (key_text, text_literal),
    "CHAR(MAX)": (key_text, text_literal),
    "VARCHAR(8)": (key_text, text_literal),
    "BINARY(3)": (key_bytes, None),
    "VARBINARY(8)": (key_bytes, None),
    "UNIQUEIDENTIFIER": (st.integers(0, 20).map(lambda n: UUID(int=n)), None),
}
key_predicate = st.sampled_from([
    "k = {}", "k = {}", "k BETWEEN {} AND {}",
    "k < {}", "k <= {}", "{} < k", "{} >= k", "k > {} AND k <= {}",
])


class TestSeekMatchesScan:
    """An index is a view of its table: a predicate on the clustered key
    answers on a table keyed by each kind of ``types.py``, under each
    row format, what it answers on a twin with no primary key, which
    scans. Each statement runs again with other literals, from its
    cached plan."""

    @pytest.mark.parametrize("kind", sorted(KEY_KINDS))
    def test_clustered_table_answers_as_its_heap_twin(self, kind):
        keys, literal = KEY_KINDS[kind]
        planned, formats = [], set()

        @oracle_settings
        @given(
            st.lists(keys, max_size=24),
            st.sampled_from(["NONE", "ROW", "PAGE"]),
            key_predicate if literal is not None else st.none(),
            st.data(),
        )
        def check(stored, compression, template, data):
            formats.add(compression)
            with Database() as db:
                options = f" WITH (DATA_COMPRESSION = {compression})"
                db.execute(
                    f"CREATE TABLE c (k {kind} PRIMARY KEY, v INT){options};"
                    f"CREATE TABLE h (k {kind}, v INT){options};"
                    f"CREATE TABLE o (oid INT PRIMARY KEY, ok {kind})"
                )
                # one row per validated key, as the primary key demands
                validate = db.table("c").schema.columns[0].sql_type.validate
                unique = dict.fromkeys(map(validate, stored))
                rows = [(key, v) for v, key in enumerate(unique)]
                for name in ("c", "h"):
                    db.table(name).insert_many(rows)
                    # each page's row cache is what its records decode to
                    store = db.table(name).store
                    for page in store.pages:
                        assert page.decoded == [
                            store.serializer.deserialize(record)
                            for _slot, record in page.iter_records(
                                store.serializer
                            )
                        ]
                if template is None:
                    outer = data.draw(st.lists(keys, max_size=6))
                    db.table("o").insert_many(list(enumerate(outer)))
                    ids = st.lists(st.integers(0, 6), min_size=2, max_size=2)
                    runs = [
                        "SELECT oid, k, v FROM o JOIN {} ON ok = k WHERE "
                        f"oid IN ({', '.join(map(str, data.draw(ids)))})"
                        for _run in (1, 2)
                    ]
                else:
                    count = template.count("{}")
                    runs = [
                        "SELECT k, v FROM {} WHERE " + template.format(
                            *(data.draw(literal) for _ in range(count))
                        )
                        for _run in (1, 2)
                    ]
                assume(runs[0] != runs[1])
                planned.append(any(
                    isinstance(node, (ClusteredIndexSeek, KeyLookupJoin))
                    for node in db.plan(runs[0].format("c")).nodes()
                ))
                for run, sql in enumerate(runs):
                    hits = db.plan_cache.hits
                    clustered = sorted(db.query(sql.format("c")))
                    assert clustered == sorted(db.query(sql.format("h"))), sql
                    if run:  # both statements rerun from their cached plan
                        assert db.plan_cache.hits == hits + 2, runs

        check()
        assert formats == {"NONE", "ROW", "PAGE"}
        assert any(planned) and not all(planned)
