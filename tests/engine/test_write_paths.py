"""One batch, three ways in: ``Table.insert_many(rows)``, a loop of
``Table.insert(row)`` and one SQL ``INSERT … VALUES`` statement store the
same page images, the same B+tree leaves and the same byte and IO
accounts, under every compression; a batch that fails at its last row
stores nothing."""

import pytest
from hypothesis import given, settings, strategies as st

from repro.engine import Database
from repro.engine.errors import DuplicateKeyError, TypeMismatchError
from repro.engine.storage.page import PAGE_SIZE

COMPRESSIONS = ("NONE", "ROW", "PAGE")

#: the IO counters a write moves (a key lookup during admission reads)
WRITE_COUNTERS = (
    "rows_inserted", "bytes_written", "bytes_uncompressed", "pages_written",
    "compression_bytes_in", "compression_bytes_out", "index_inserts",
)


def make_table(compression):
    db = Database()
    options = (
        "" if compression == "NONE"
        else f" WITH (DATA_COMPRESSION = {compression})"
    )
    db.execute(
        "CREATE TABLE t (k INT NOT NULL, tag VARCHAR(8) NOT NULL, a INT, "
        "c BIGINT, note VARCHAR(MAX), PRIMARY KEY (k, tag))" + options
    )
    table = db.table("t")
    # a non-unique index whose key components may be NULL
    table.create_index("ix_a_c", ["a", "c"])
    return db, table


def state(table):
    """Everything a write leaves behind, compared whole."""
    _cols, by_a_c = table._secondary["ix_a_c"]
    return {
        "pages": [
            (p.page_id, p.records, p.used_bytes, p.sealed, p.tombstones)
            for p in table.store.pages
        ],
        "clustered": list(table._pk_index.items()),
        "secondary": list(by_a_c.items()),
        "bytes": (table.stored_bytes(), table.uncompressed_bytes()),
        "io": dict(table.io_report()),
    }


def write_state(table):
    out = state(table)
    io = out.pop("io")
    out["io"] = [io.get(name, 0) for name in WRITE_COUNTERS]
    return out


def sql_literal(value):
    if value is None:
        return "NULL"
    if isinstance(value, str):
        return "'" + value.replace("'", "''") + "'"
    return str(value)


def insert_statement(rows):
    return "INSERT INTO t VALUES " + ", ".join(
        "(" + ", ".join(map(sql_literal, row)) + ")" for row in rows
    )


def load(way, compression, rows):
    db, table = make_table(compression)
    if way == "insert_many":
        table.insert_many(rows)
    elif way == "insert":
        for row in rows:
            table.insert(row)
    else:
        db.execute(insert_statement(rows))
    # a statement boundary seals the tail page (PAGE compresses it then)
    table.finish_bulk_load(force=False)
    return db, table


_notes = st.one_of(
    st.none(),
    st.text(alphabet="ACGT'é", max_size=40),
    # records larger than a page
    st.integers(PAGE_SIZE - 200, PAGE_SIZE + 300).map("N".__mul__),
)
_rows = st.lists(
    st.tuples(
        st.integers(-50, 50),
        st.sampled_from(["", "a", "ab", "b"]),
        st.one_of(st.none(), st.integers(-3, 3)),
        st.one_of(st.none(), st.integers(-(2**40), 2**40)),
        _notes,
    ),
    min_size=1,
    max_size=60,
    unique_by=lambda row: row[:2],
)
_plain_rows = st.lists(
    st.tuples(
        st.integers(-50, 50),
        st.sampled_from(["a", "b"]),
        st.integers(-3, 3),
        st.integers(0, 9),
        st.text(alphabet="ACGT", max_size=300),
    ),
    min_size=2,
    max_size=120,
    unique_by=lambda row: row[:2],
)


class TestThreeWaysInAgree:
    @pytest.mark.parametrize("compression", COMPRESSIONS)
    @settings(max_examples=25, deadline=None)
    @given(rows=st.one_of(_rows, _plain_rows), ascending=st.booleans())
    def test_same_pages_leaves_bytes_and_io(
        self, compression, rows, ascending
    ):
        if ascending:
            rows = sorted(rows)
        expected = state(load("insert_many", compression, rows)[1])
        for way in ("insert", "sql"):
            assert state(load(way, compression, rows)[1]) == expected, way

    @pytest.mark.parametrize("compression", COMPRESSIONS)
    def test_a_null_free_batch_fills_pages_as_rows_do(self, compression):
        rows = [
            (k, "ab", k % 5, k * 7, "ACGT" * (k % 40)) for k in range(900)
        ]
        _db, table = load("insert_many", compression, rows)
        assert len(table.store.pages) > 3
        assert state(table) == state(load("insert", compression, rows)[1])

    @pytest.mark.parametrize(
        "way", ["insert_many", "insert", "sql", "two batches"]
    )
    def test_a_page_fills_to_its_last_byte(self, way):
        # 25 bytes + "ab" + 59 notes = 86 bytes, 88 with the slot entry:
        # 92 records fill the 8 096 bytes after the page header exactly
        rows = [(k, "ab", 1, 2, "N" * 59) for k in range(200)]
        if way == "two batches":
            # the second batch's first record fills the open page
            _db, table = make_table("NONE")
            table.insert_many(rows[:91])
            table.insert_many(rows[91:])
        else:
            _db, table = load(way, "NONE", rows)
        assert {len(record) for record in table.store.pages[0].records} == {
            86
        }
        assert [len(p.records) for p in table.store.pages] == [92, 92, 16]
        assert [p.used_bytes for p in table.store.pages[:2]] == [PAGE_SIZE] * 2


class TestAFailingLastRowStoresNothing:
    @pytest.mark.parametrize("compression", COMPRESSIONS)
    @pytest.mark.parametrize("way", ["insert_many", "sql"])
    @pytest.mark.parametrize("fault", ["duplicate key", "bad value"])
    def test_failing_last_row(self, compression, way, fault):
        db, table = load(
            "insert_many", compression, [(0, "a", None, 1, "x" * 9000)]
        )
        before = write_state(table)
        rows = [(k, "b", k % 3, k, "ACGT" * k) for k in range(1, 300)]
        if fault == "duplicate key":
            rows.append((0, "a", 1, 2, "dup"))
            error = DuplicateKeyError
        else:
            rows.append((300, "toolongtag", 1, 2, "bad"))
            error = TypeMismatchError
        with pytest.raises(error):
            if way == "sql":
                db.execute(insert_statement(rows))
            else:
                table.insert_many(rows)
        assert write_state(table) == before
        # the batch without its bad row goes in whole
        table.insert_many(rows[:-1])
        assert table.row_count == 300
