"""End-to-end SQL through the Database facade."""

import uuid

import pytest

from repro.engine import Database
from repro.engine.errors import (
    BindError,
    ConstraintViolation,
    DuplicateKeyError,
    EngineError,
    TypeMismatchError,
)
from repro.engine.uda_library import register_statistics


@pytest.fixture
def db(tmp_path):
    with Database(data_dir=tmp_path / "db") as database:
        yield database


@pytest.fixture
def people(db):
    db.execute(
        """
        CREATE TABLE people (
            id INT PRIMARY KEY,
            name VARCHAR(50) NOT NULL,
            age INT,
            city VARCHAR(30)
        );
        INSERT INTO people VALUES
            (1, 'ada', 36, 'london'),
            (2, 'grace', 45, 'new york'),
            (3, 'alan', 41, 'london'),
            (4, 'edsger', 72, NULL);
        """
    )
    return db


class TestDdl:
    def test_create_insert_select(self, db):
        db.execute("CREATE TABLE t (a INT PRIMARY KEY, b VARCHAR(10))")
        assert db.execute("INSERT INTO t VALUES (1, 'x')") == 1
        assert db.query("SELECT * FROM t") == [(1, "x")]

    def test_drop_table(self, db):
        db.execute("CREATE TABLE t (a INT PRIMARY KEY)")
        db.execute("DROP TABLE t")
        with pytest.raises(BindError):
            db.query("SELECT * FROM t")

    def test_truncate(self, db):
        db.execute("CREATE TABLE t (a INT PRIMARY KEY)")
        db.execute("INSERT INTO t VALUES (1), (2)")
        db.execute("TRUNCATE TABLE t")
        assert db.query("SELECT * FROM t") == []

    def test_unknown_type_rejected(self, db):
        with pytest.raises(BindError):
            db.execute("CREATE TABLE t (a NOSUCHTYPE PRIMARY KEY)")

    def test_create_index(self, people):
        people.execute("CREATE INDEX ix_city ON people (city)")
        assert "ix_city" in people.table("people").secondary_indexes()


class TestAggregateArguments:
    """An aggregate refuses DISTINCT or an argument it would otherwise
    drop without saying so."""

    @pytest.fixture
    def values(self, db):
        register_statistics(db)
        db.execute(
            "CREATE TABLE vals (k INT PRIMARY KEY, v INT);"
            "INSERT INTO vals VALUES (1, 5), (2, 5), (3, 7), (4, 5)"
        )
        return db

    @pytest.mark.parametrize(
        "aggregate",
        [
            "SUM(DISTINCT v)",  # was SUM(v) = 22; the distinct sum is 12
            "AVG(DISTINCT v)",  # was AVG(v) = 5.5; the distinct mean is 6.0
            "COUNT(DISTINCT v, k)",
            "SUM(v, k)",
            "MIN(v, k)",
            "COUNT(DISTINCT *)",
            "SUM(*)",
            "MEDIAN(DISTINCT v)",
        ],
    )
    def test_rejected(self, values, aggregate):
        with pytest.raises(BindError):
            values.query(f"SELECT {aggregate} FROM vals")

    def test_distinct_where_it_is_honoured(self, values):
        assert values.query(
            "SELECT COUNT(DISTINCT v), COUNT_BIG(DISTINCT v), "
            "MIN(DISTINCT v), MAX(DISTINCT v), COUNT(*) FROM vals"
        ) == [(2, 2, 5, 7, 4)]


class TestQueries:
    def test_where_filtering(self, people):
        rows = people.query("SELECT name FROM people WHERE city = 'london'")
        assert sorted(rows) == [("alan",), ("ada",)] or sorted(rows) == [
            ("ada",),
            ("alan",),
        ]

    def test_pk_seek(self, people):
        assert people.query("SELECT name FROM people WHERE id = 3") == [
            ("alan",)
        ]

    def test_null_never_matches_equality(self, people):
        assert people.query("SELECT name FROM people WHERE city = NULL") == []

    def test_is_null(self, people):
        assert people.query(
            "SELECT name FROM people WHERE city IS NULL"
        ) == [("edsger",)]

    def test_group_by_with_aggregates(self, people):
        rows = people.query(
            """
            SELECT city, COUNT(*), AVG(age) FROM people
            WHERE city IS NOT NULL GROUP BY city ORDER BY city
            """
        )
        assert rows == [("london", 2, 38.5), ("new york", 1, 45.0)]

    def test_having(self, people):
        rows = people.query(
            """
            SELECT city, COUNT(*) FROM people
            GROUP BY city HAVING COUNT(*) > 1
            """
        )
        assert rows == [("london", 2)]

    def test_order_by_desc_with_top(self, people):
        rows = people.query(
            "SELECT TOP 2 name FROM people ORDER BY age DESC"
        )
        assert rows == [("edsger",), ("grace",)]

    def test_order_by_alias(self, people):
        rows = people.query(
            "SELECT age * 2 AS doubled, name FROM people ORDER BY doubled"
        )
        assert rows[0] == (72, "ada")

    def test_scalar_aggregate(self, people):
        assert people.scalar("SELECT COUNT(*) FROM people") == 4
        assert people.scalar("SELECT MAX(age) FROM people") == 72

    def test_expression_in_select(self, people):
        rows = people.query(
            "SELECT name, CASE WHEN age > 50 THEN 'old' ELSE 'young' END FROM people WHERE id = 4"
        )
        assert rows == [("edsger", "old")]

    def test_like(self, people):
        rows = people.query("SELECT name FROM people WHERE name LIKE 'a%'")
        assert sorted(rows) == [("ada",), ("alan",)]

    def test_in_list(self, people):
        rows = people.query("SELECT name FROM people WHERE id IN (1, 4)")
        assert sorted(rows) == [("ada",), ("edsger",)]

    def test_distinct(self, people):
        rows = people.query("SELECT DISTINCT city FROM people WHERE city IS NOT NULL")
        assert sorted(rows) == [("london",), ("new york",)]

    def test_join(self, people):
        people.execute(
            """
            CREATE TABLE cities (cname VARCHAR(30) PRIMARY KEY, country VARCHAR(20));
            INSERT INTO cities VALUES ('london', 'uk'), ('new york', 'usa');
            """
        )
        rows = people.query(
            """
            SELECT name, country FROM people
            JOIN cities ON (city = cname) ORDER BY name
            """
        )
        assert rows == [("ada", "uk"), ("alan", "uk"), ("grace", "usa")]

    def test_subquery(self, people):
        rows = people.query(
            """
            SELECT big_name FROM
            (SELECT name AS big_name, age FROM people WHERE age > 40) AS sub
            ORDER BY big_name
            """
        )
        assert rows == [("alan",), ("edsger",), ("grace",)]

    def test_row_number_window(self, people):
        rows = people.query(
            """
            SELECT ROW_NUMBER() OVER (ORDER BY age DESC) AS rnk, name
            FROM people
            """
        )
        assert sorted(rows) == [
            (1, "edsger"),
            (2, "grace"),
            (3, "alan"),
            (4, "ada"),
        ]

    def test_select_without_from(self, db):
        assert db.query("SELECT 1 + 1") == [(2,)]

    def test_result_columns_named(self, people):
        result = people.execute("SELECT name AS who, age FROM people WHERE id=1")
        assert result.columns == ["who", "age"]


class TestDml:
    def test_insert_with_column_list_defaults_null(self, db):
        db.execute(
            "CREATE TABLE t (a INT PRIMARY KEY, b VARCHAR(5), c INT)"
        )
        db.execute("INSERT INTO t (a) VALUES (1)")
        assert db.query("SELECT * FROM t") == [(1, None, None)]

    def test_insert_select(self, people):
        people.execute("CREATE TABLE names (n VARCHAR(50) PRIMARY KEY)")
        count = people.execute(
            "INSERT INTO names SELECT name FROM people WHERE age > 40"
        )
        assert count == 3

    def test_delete_where(self, people):
        deleted = people.execute("DELETE FROM people WHERE city = 'london'")
        assert deleted == 2
        assert people.scalar("SELECT COUNT(*) FROM people") == 2

    def test_duplicate_pk_via_sql(self, db):
        db.execute("CREATE TABLE t (a INT PRIMARY KEY)")
        db.execute("INSERT INTO t VALUES (1)")
        with pytest.raises(DuplicateKeyError):
            db.execute("INSERT INTO t VALUES (1)")

    @pytest.mark.parametrize("position", [0, 2, 3], ids=["first", "middle", "last"])
    @pytest.mark.parametrize(
        "bad_row, error",
        [
            ("(6, 'dup')", DuplicateKeyError),  # of a row of the statement
            ("(1, 'dup')", DuplicateKeyError),  # of a stored row
            ("(9, 'too long')", TypeMismatchError),
            ("(9, NULL)", ConstraintViolation),
        ],
    )
    def test_failed_multi_row_insert_stores_nothing(
        self, db, bad_row, error, position
    ):
        db.execute(
            "CREATE TABLE t (id INT PRIMARY KEY, name VARCHAR(4) NOT NULL, "
            "seq BIGINT IDENTITY); "
            "CREATE INDEX ix_name ON t (name); "
            "INSERT INTO t (id, name) VALUES (1, 'one')"
        )
        table = db.table("t")
        rows = ["(5, 'five')", "(6, 'six')", "(7, 'sev')"]
        rows.insert(position, bad_row)
        before = (
            db.query("SELECT * FROM t"),
            db.query("SELECT id FROM t WHERE name = 'one'"),
            dict(table.io_report()),
        )
        with pytest.raises(error):
            db.execute("INSERT INTO t (id, name) VALUES " + ", ".join(rows))
        assert db.query("SELECT * FROM t") == [(1, "one", 1)]
        assert db.query("SELECT id FROM t WHERE name = 'six'") == []
        after = dict(table.io_report())
        for counter in ("rows_inserted", "bytes_written", "index_inserts"):
            assert after[counter] == before[2][counter]
        # the IDENTITY counter did not move either
        db.execute("INSERT INTO t (id, name) VALUES (2, 'two')")
        assert db.query("SELECT seq FROM t WHERE id = 2") == [(2,)]

    def test_failed_insert_select_stores_nothing(self, people):
        people.execute("CREATE TABLE short (n VARCHAR(4) PRIMARY KEY)")
        with pytest.raises(TypeMismatchError):  # 'grace' and 'edsger' overflow
            people.execute("INSERT INTO short SELECT name FROM people")
        assert people.query("SELECT * FROM short") == []

    def test_fk_enforced(self, db):
        db.execute(
            """
            CREATE TABLE parent (id INT PRIMARY KEY);
            CREATE TABLE child (
                cid INT PRIMARY KEY, pid INT,
                FOREIGN KEY (pid) REFERENCES parent (id)
            );
            INSERT INTO parent VALUES (1);
            """
        )
        db.execute("INSERT INTO child VALUES (10, 1)")
        with pytest.raises(ConstraintViolation):
            db.execute("INSERT INTO child VALUES (11, 99)")

    def test_update_checks_foreign_keys(self, db):
        db.execute(
            """
            CREATE TABLE p (id INT PRIMARY KEY);
            CREATE TABLE c (
                cid INT PRIMARY KEY, pid INT,
                FOREIGN KEY (pid) REFERENCES p (id)
            );
            INSERT INTO p VALUES (1);
            INSERT INTO c VALUES (10, 1);
            """
        )
        with pytest.raises(ConstraintViolation):
            db.execute("UPDATE c SET pid = 99 WHERE cid = 10")
        assert db.query("SELECT cid, pid FROM c") == [(10, 1)]
        assert db.execute("UPDATE c SET pid = 1 WHERE cid = 10") == 1


class TestFileStreamSql:
    def test_paper_workflow(self, db, tmp_path):
        """The exact T-SQL sequence from Section 3.3."""
        fastq = tmp_path / "855_s_1.fastq"
        fastq.write_bytes(
            b"@IL4_855:1:1:954:659\nGTTT\n+\n>>>>\n"
            b"@IL4_855:1:1:497:759\nACGT\n+\nIIII\n"
        )
        db.execute(
            """
            CREATE TABLE ShortReadFiles (
                guid uniqueidentifier ROWGUIDCOL PRIMARY KEY,
                sample INT,
                lane INT,
                reads VARBINARY(MAX) FILESTREAM
            ) FILESTREAM_ON FILESTREAMGROUP
            """
        )
        count = db.execute(
            f"""
            INSERT INTO ShortReadFiles (guid, sample, lane, reads)
            SELECT NEWID(), 855, 1, *
            FROM OPENROWSET(BULK '{fastq}', SINGLE_BLOB)
            """
        )
        assert count == 1
        rows = db.query(
            "SELECT guid, sample, lane, reads.PathName(), DATALENGTH(reads) "
            "FROM ShortReadFiles"
        )
        guid, sample, lane, path, length = rows[0]
        assert isinstance(guid, uuid.UUID)
        assert (sample, lane) == (855, 1)
        assert length == fastq.stat().st_size
        from pathlib import Path

        assert Path(path).read_bytes() == fastq.read_bytes()

    def test_bulk_insert_filestream_helper(self, db, tmp_path):
        source = tmp_path / "x.fastq"
        source.write_bytes(b"@r\nAC\n+\nII\n")
        db.execute(
            """
            CREATE TABLE f (
                guid uniqueidentifier ROWGUIDCOL PRIMARY KEY,
                lane INT,
                reads VARBINARY(MAX) FILESTREAM
            )
            """
        )
        import uuid as _uuid

        db.bulk_insert_filestream(
            "f", {"guid": _uuid.uuid4(), "lane": 2}, "reads", source
        )
        assert db.scalar("SELECT DATALENGTH(reads) FROM f") == 11

    def test_bulk_insert_filestream_checks_foreign_keys(self, db, tmp_path):
        source = tmp_path / "x.fastq"
        source.write_bytes(b"@r\nAC\n+\nII\n")
        db.execute(
            """
            CREATE TABLE lane (id INT PRIMARY KEY);
            CREATE TABLE f (
                guid uniqueidentifier ROWGUIDCOL PRIMARY KEY,
                lane INT,
                reads VARBINARY(MAX) FILESTREAM,
                FOREIGN KEY (lane) REFERENCES lane (id)
            )
            """
        )
        with pytest.raises(ConstraintViolation):
            db.bulk_insert_filestream(
                "f", {"guid": uuid.uuid4(), "lane": 2}, "reads", source
            )
        assert db.scalar("SELECT COUNT(*) FROM f") == 0
        assert len(db.filestream) == 0  # and no orphan blob

    def test_failed_bulk_insert_filestream_leaves_no_blob(self, db, tmp_path):
        source = tmp_path / "x.fastq"
        source.write_bytes(b"@r\nAC\n+\nII\n")
        db.execute(
            "CREATE TABLE f (guid uniqueidentifier ROWGUIDCOL PRIMARY KEY, "
            "reads VARBINARY(MAX) FILESTREAM)"
        )
        guid = uuid.uuid4()
        db.bulk_insert_filestream("f", {"guid": guid}, "reads", source)
        with pytest.raises(DuplicateKeyError):
            db.bulk_insert_filestream("f", {"guid": guid}, "reads", source)
        assert len(db.filestream) == 1
        assert db.checkdb() == []

    def test_check_binds_dml_as_execution_does(self, db):
        db.execute(
            """
            CREATE TABLE f (
                guid uniqueidentifier ROWGUIDCOL PRIMARY KEY,
                n INT,
                reads VARBINARY(MAX) FILESTREAM
            )
            """
        )
        message = "UPDATE is not supported on FILESTREAM table 'f'"
        with pytest.raises(BindError, match=message):
            db.execute("UPDATE f SET n = 2")
        with pytest.raises(BindError, match=message):
            db.check("UPDATE f SET n = 2")

    def test_checkdb_clean(self, db):
        assert db.checkdb() == []


class TestExplain:
    def test_explain_returns_plan_text(self, people):
        plan = people.explain("SELECT city, COUNT(*) FROM people GROUP BY city")
        assert "Aggregate" in plan
        assert "people" in plan

    def test_explain_statement_form(self, people):
        result = people.execute("EXPLAIN SELECT name FROM people WHERE id = 1")
        assert "Seek" in result

    def test_explain_rejects_dml(self, people):
        with pytest.raises(EngineError):
            people.explain("DELETE FROM people")

    @pytest.mark.parametrize("method", ["plan", "explain"])
    @pytest.mark.parametrize(
        "sql", ["", "-- nothing", "SELECT 1; SELECT 2"]
    )
    def test_plan_and_explain_take_exactly_one_statement(
        self, people, method, sql
    ):
        with pytest.raises(
            EngineError, match=rf"^{method}\(\) takes exactly one statement$"
        ):
            getattr(people, method)(sql)


class TestStorageReport:
    def test_report_lists_tables(self, people):
        report = people.storage_report()
        names = {entry["table"] for entry in report}
        assert "people" in names
        entry = next(e for e in report if e["table"] == "people")
        assert entry["rows"] == 4
        assert entry["data_bytes"] > 0
